"""Concave envelopes on grids and Caratheodory support reduction.

Two finite-dimensional shadows of barycenter machinery:

 * the least concave majorant of a sampled function, computed as the upper
   convex hull of its graph (monotone-chain), and
 * rewriting a convex combination of polytope vertices so that at most
   d + 1 vertices carry weight, by walking along null vectors of the lifted
   vertex matrix until weights hit zero.  _decompose_each runs a list of
   instances: each is started alone, all walk as one zero-padded stack per
   d (each pass one batched SVD of the rows sharing the largest support, so
   m-vertex rows need at most m - d - 1 passes), and each is finished
   alone.  caratheodory_decompose is its one-instance call.

The kernel side of the barycenter picture, a normalized function fitted as
a mixture of extreme kernels with its mass pinned to one, is
measures.fit_measure with mass_constraint=1.0.

Both NNLS problems of the package, the feasible start weights here and
fit_measure's mixture, go through _nnls, the one call into scipy's nnls
(imported on first use).  It solves for b * 2^-e, e the binary exponent of
max|b|, and scales the weights back by 2^e: scipy's nnls is bitwise
equivariant under powers of two, so ordinary solves keep every bit, and
right-hand sides near the float maximum no longer crash it.  Every residual
that this module or measures measures is taken with _norm, which equals
np.linalg.norm wherever that is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePointError, NumericalFailure, UsageError

FEAS_TOL = 1e-9

#: Relative slack on slope increases that is_concave_grid forgives.
_CONCAVITY_TOL = 1e-12


@dataclass(frozen=True)
class GridFunction:
    """Function values on a strictly increasing finite grid."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise UsageError("grid and values must be 1-d arrays of equal length")
        if xs.size < 2:
            raise UsageError("need at least two grid points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise UsageError("grid function must be finite")
        if not np.all(xs[1:] > xs[:-1]):  # np.diff can overflow
            raise UsageError("grid must be strictly increasing")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self):
        return self.xs.size


def _slopes(gf: GridFunction) -> np.ndarray:
    return np.diff(gf.ys) / np.diff(gf.xs)


def is_concave_grid(gf: GridFunction) -> bool:
    """Concavity = non-increasing chord slopes; robust on nonuniform grids."""
    s = _slopes(gf)
    if s.size < 2:
        return True
    scale = max(1.0, float(np.abs(s).max()))
    return bool(np.all(np.diff(s) <= _CONCAVITY_TOL * scale))


def _upper_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list:
    """Monotone chain, keeping only vertices of the upper convex hull."""
    # Python floats are the same doubles, read without a numpy scalar each
    xs, ys = xs.tolist(), ys.tolist()
    hull: list = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            # drop k if it lies on or below the chord from j to i
            cross = (xs[k] - xs[j]) * (ys[i] - ys[j]) - (ys[k] - ys[j]) * (xs[i] - xs[j])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def concave_envelope(gf: GridFunction) -> GridFunction:
    """Least concave majorant of the sampled points, on the same grid."""
    idx = _upper_hull_indices(gf.xs, gf.ys)
    env = np.interp(gf.xs, gf.xs[idx], gf.ys[idx])
    # the hull interpolant majorizes by construction; the max only clears
    # rounding dust so that env >= ys holds exactly
    env = np.maximum(env, gf.ys)
    return GridFunction(gf.xs, env)


@dataclass(frozen=True)
class BarycenterResult:
    """Convex combination certificate: indices, weights, reconstruction."""

    indices: np.ndarray
    weights: np.ndarray
    point: np.ndarray
    residual: float

    def support_size(self) -> int:
        return int(self.indices.size)


def _feasible_weights(vertices: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Any w >= 0 with sum w = 1 and V^T w = point, or raise with a certificate."""
    m, d = vertices.shape
    scale = max(1.0, float(np.abs(vertices).max()), float(np.abs(point).max()))
    a = np.vstack([vertices.T / scale, np.ones((1, m))])
    b = np.concatenate([point / scale, [1.0]])
    w = _nnls(a, b, "feasibility solve failed to converge")
    resid = a @ w - b
    if _norm(resid) > FEAS_TOL * math.sqrt(d + 1):
        # build a separating certificate from the residual's point part
        direction = -resid[:d]
        nrm = _norm(direction)
        if nrm > 0.0:
            direction = direction / nrm
        margin = float(direction @ (point / scale) - (vertices / scale @ direction).max())
        raise InfeasiblePointError(
            "point is not a convex combination of the vertices "
            f"(residual {_norm(resid):.3e})",
            direction=direction,
            margin=margin * scale,
        )
    return w


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm wherever that is finite; rescaled where its squares overflow."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if math.isfinite(nrm) or not np.all(np.isfinite(v)):
        return nrm
    big = float(np.abs(v).max())
    return big * float(np.linalg.norm(v / big))


def _nnls(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """argmin ||a w - b|| over w >= 0: the package's one call into scipy's nnls.

    The solve runs on b * 2^-e, e the binary exponent of max|b|, and w is
    scaled back by 2^e.  scipy's nnls is bitwise equivariant under powers of
    two, so this moves no bit of a solution it reaches unscaled, and it
    keeps right-hand sides near the float maximum from crashing the solver.
    Non-convergence is a NumericalFailure whose message begins with what; a
    solution that overflows when scaled back is a NumericalFailure too.
    """
    from scipy.optimize import nnls

    e = math.frexp(float(np.abs(b).max()))[1]
    try:
        w, _ = nnls(a, np.ldexp(b, -e), maxiter=50 * max(a.shape))
    except RuntimeError as exc:
        raise NumericalFailure(f"{what}: {exc}") from exc
    with np.errstate(over="ignore"):
        w = np.ldexp(w, e)
    if not np.all(np.isfinite(w)):
        raise NumericalFailure(f"NNLS weights overflow when scaled back by 2^{e}")
    return w


def _reduce_support(vertices: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Walk null directions of the lifted vertex matrices until <= d+1 atoms.

    vertices: (k, m, d), w: (k, m), one instance per row; shorter instances
    are padded with zero weights, which are never in the support and never
    come back.  Each pass takes the rows whose live support has the largest
    size s > d + 1 and makes one SVD of their (rows, d + 1, s) lifted stack.
    A pass removes at least one atom from each of its rows, so rows of equal
    size merge and a stack needs at most m - d - 1 passes.  Every row takes
    the same steps, bit for bit, as it would walked alone.
    """
    d = vertices.shape[2]
    w = w.copy()
    while True:
        live = w > 0.0
        sizes = live.sum(axis=1)
        s = int(sizes.max(initial=0))
        if s <= d + 1:
            return w
        rows = np.flatnonzero(sizes == s)
        support = np.nonzero(live[rows])[1].reshape(rows.size, s)
        sel = (rows[:, None], support)
        lifted = np.concatenate(
            [vertices[sel].transpose(0, 2, 1), np.ones((rows.size, 1, s))], axis=1
        )
        # right null space exists since s > d+1 columns of a (d+1)-row matrix
        _, _, vt = np.linalg.svd(lifted)
        z = vt[:, -1, :]
        ws = w[sel]
        # ratio test along +z or -z at once: the first smallest w/|z| in
        # support order, stepping along the sign of z there
        big = np.abs(z) > 1e-14
        if not big.any(axis=1).all():
            raise NumericalFailure("null direction has no positive component")
        ratios = np.where(big, ws / np.where(big, np.abs(z), 1.0), np.inf)
        hit = (np.arange(rows.size), np.argmin(ratios, axis=1))
        w[sel] = ws - ratios[hit][:, None] * (np.sign(z[hit])[:, None] * z)
        w[rows, support[hit]] = 0.0
        w[rows] = np.maximum(w[rows], 0.0)


def _reduce_each(instances: list) -> list:
    """_reduce_support over (vertices, weights) pairs: one zero-padded stack per d."""
    out = [None] * len(instances)
    for d in sorted({v.shape[1] for v, _ in instances}):
        rows = [i for i, (v, _) in enumerate(instances) if v.shape[1] == d]
        m = max(instances[i][1].size for i in rows)
        vs = np.zeros((len(rows), m, d))
        ws = np.zeros((len(rows), m))
        for r, i in enumerate(rows):
            v, w = instances[i]
            vs[r, : w.size] = v
            ws[r, : w.size] = w
        ws = _reduce_support(vs, ws)
        for r, i in enumerate(rows):
            out[i] = ws[r, : instances[i][1].size]
    return out


def _start_weights(vertices, point, initial_weights):
    """Validate an instance; return it as arrays with feasible start weights.

    The start weights are initial_weights, checked to be feasible, or else
    a basic solution from NNLS.
    """
    vertices = np.asarray(vertices, dtype=float)
    point = np.asarray(point, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] == 0:
        raise UsageError("vertices must be a nonempty (m, d) array")
    if vertices.shape[1] == 0:
        raise UsageError("vertices must have at least one coordinate")
    if point.shape != (vertices.shape[1],):
        raise UsageError(
            f"point has dimension {point.shape}, vertices rows have {vertices.shape[1]}"
        )
    if not (np.all(np.isfinite(vertices)) and np.all(np.isfinite(point))):
        raise UsageError("vertices and point must be finite")
    if initial_weights is None:
        return vertices, point, _feasible_weights(vertices, point)
    w = np.asarray(initial_weights, dtype=float)
    if w.shape != (vertices.shape[0],) or np.any(w < 0.0):
        raise UsageError("initial_weights must be nonnegative, one per vertex")
    total = w.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise UsageError(f"initial_weights must sum to 1, got {total}")
    recon = vertices.T @ w
    # scaled as _feasible_weights scales: rounding in V^T w grows with the vertices
    scale = max(1.0, float(np.abs(vertices).max()), float(np.abs(point).max()))
    if _norm(recon - point) > FEAS_TOL * scale:
        raise UsageError("initial_weights do not reproduce the point")
    return vertices, point, w


def _finish(vertices, point, w) -> BarycenterResult:
    """Renormalize the reduced weights on their support and measure the residual."""
    support = np.flatnonzero(w > 0.0)
    weights = w[support]
    total = weights.sum()
    if total <= 0.0:
        raise NumericalFailure("support reduction lost all mass")
    weights = weights / total
    recon = vertices[support].T @ weights
    return BarycenterResult(
        indices=support, weights=weights, point=recon, residual=_norm(recon - point)
    )


def _decompose_each(instances: list) -> list:
    """caratheodory_decompose over a list of (vertices, point, initial_weights)."""
    started = [_start_weights(*inst) for inst in instances]
    reduced = _reduce_each([(v, w) for v, _, w in started])
    return [_finish(v, p, w) for (v, p, _), w in zip(started, reduced)]


def caratheodory_decompose(
    vertices, point, initial_weights=None
) -> BarycenterResult:
    """Express point as a convex combination of at most d + 1 vertices.

    vertices: (m, d) array of rows; point: length-d vector.  When
    initial_weights is given it must already be feasible and is only
    reduced (useful for exercising the reduction on its own).
    """
    return _decompose_each([(vertices, point, initial_weights)])[0]
