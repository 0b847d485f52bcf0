"""Concave envelopes on grids and Caratheodory support reduction.

Two finite-dimensional shadows of barycenter machinery:

 * the least concave majorant of a sampled function, computed as the upper
   convex hull of its graph (monotone-chain), and
 * rewriting a convex combination of polytope vertices so that at most
   d + 1 vertices carry weight, by walking along null vectors of the lifted
   vertex matrix until weights hit zero.

The kernel side of the barycenter picture, a normalized function fitted as
a mixture of extreme kernels with its mass pinned to one, is
measures.fit_measure with mass_constraint=1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePointError, NumericalFailure, UsageError

FEAS_TOL = 1e-9


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
        if not np.all(np.diff(xs) > 0.0):
            raise UsageError("grid must be strictly increasing")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self):
        return self.xs.size


def _slopes(gf: GridFunction) -> np.ndarray:
    return np.diff(gf.ys) / np.diff(gf.xs)


def is_concave_grid(gf: GridFunction, tol: float = 1e-12) -> bool:
    """Concavity = non-increasing chord slopes; robust on nonuniform grids."""
    s = _slopes(gf)
    if s.size < 2:
        return True
    scale = max(1.0, float(np.abs(s).max()))
    return bool(np.all(np.diff(s) <= tol * scale))


def _upper_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list:
    """Monotone chain, keeping only vertices of the upper convex hull."""
    hull: list = []
    for i in range(xs.size):
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
    from scipy.optimize import nnls

    m, d = vertices.shape
    scale = max(1.0, float(np.abs(vertices).max()), float(np.abs(point).max()))
    a = np.vstack([vertices.T / scale, np.ones((1, m))])
    b = np.concatenate([point / scale, [1.0]])
    try:
        w, _ = nnls(a, b, maxiter=50 * max(a.shape))
    except RuntimeError as exc:
        raise NumericalFailure(f"feasibility solve failed to converge: {exc}") from exc
    resid = a @ w - b
    if np.linalg.norm(resid) > FEAS_TOL * math.sqrt(d + 1):
        # build a separating certificate from the residual's point part
        direction = -resid[:d]
        nrm = np.linalg.norm(direction)
        if nrm > 0.0:
            direction = direction / nrm
        margin = float(direction @ (point / scale) - (vertices / scale @ direction).max())
        raise InfeasiblePointError(
            "point is not a convex combination of the vertices "
            f"(residual {np.linalg.norm(resid):.3e})",
            direction=direction,
            margin=margin * scale,
        )
    return w


def _reduce_support(vertices: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Walk null directions of the lifted vertex matrix until <= d+1 atoms."""
    d = vertices.shape[1]
    w = w.copy()
    while True:
        support = np.flatnonzero(w > 0.0)
        if support.size <= d + 1:
            return w
        lifted = np.vstack([vertices[support].T, np.ones((1, support.size))])
        # right null space exists since support > d+1 columns of a (d+1)-row matrix
        _, _, vt = np.linalg.svd(lifted)
        z = vt[-1]
        best = None
        for sign in (1.0, -1.0):
            zz = sign * z
            pos = zz > 1e-14
            if not np.any(pos):
                continue
            ratios = w[support[pos]] / zz[pos]
            t = ratios.min()
            hit = support[pos][int(np.argmin(ratios))]
            if best is None or t < best[0] or (t == best[0] and hit < best[2]):
                best = (t, zz, hit)
        if best is None:
            raise NumericalFailure("null direction has no positive component")
        t, zz, hit = best
        w[support] = w[support] - t * zz
        w[hit] = 0.0
        w = np.maximum(w, 0.0)


def caratheodory_decompose(
    vertices, point, initial_weights=None
) -> BarycenterResult:
    """Express point as a convex combination of at most d + 1 vertices.

    vertices: (m, d) array of rows; point: length-d vector.  When
    initial_weights is given it must already be feasible and is only
    reduced (useful for exercising the reduction on its own).
    """
    vertices = np.asarray(vertices, dtype=float)
    point = np.asarray(point, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] == 0:
        raise UsageError("vertices must be a nonempty (m, d) array")
    if point.shape != (vertices.shape[1],):
        raise UsageError(
            f"point has dimension {point.shape}, vertices rows have {vertices.shape[1]}"
        )
    if not (np.all(np.isfinite(vertices)) and np.all(np.isfinite(point))):
        raise UsageError("vertices and point must be finite")
    if initial_weights is not None:
        w = np.asarray(initial_weights, dtype=float)
        if w.shape != (vertices.shape[0],) or np.any(w < 0.0):
            raise UsageError("initial_weights must be nonnegative, one per vertex")
        total = w.sum()
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise UsageError(f"initial_weights must sum to 1, got {total}")
        recon = vertices.T @ w
        if np.linalg.norm(recon - point) > FEAS_TOL * max(1.0, np.linalg.norm(point)):
            raise UsageError("initial_weights do not reproduce the point")
    else:
        w = _feasible_weights(vertices, point)
    w = _reduce_support(vertices, w)
    support = np.flatnonzero(w > 0.0)
    weights = w[support]
    total = weights.sum()
    if total <= 0.0:
        raise NumericalFailure("support reduction lost all mass")
    weights = weights / total
    recon = vertices[support].T @ weights
    residual = float(np.linalg.norm(recon - point))
    return BarycenterResult(
        indices=support, weights=weights, point=recon, residual=residual
    )

