"""Representing measures on [0, 1] and the kernel mixtures they synthesize.

A positive operator monotone function on (0, inf) is an integral of Moebius
kernels  kernel01(lam, t) = t/(lam + (1-lam)t)  against a finite measure on
lam in [0, 1], and the same measure defines a Kubo-Ando connection
(see connections).  RadonMeasure01 is that measure, the one coordinate of
the package: (lam, w) atoms in construction order, with the endpoint masses
as ordinary atoms at lam = 0 (the constant 1) and lam = 1 (the identity).

The half-line coordinate s = lam/(1-lam), in which the kernel reads
t(1+s)/(t+s), is a file format and a view: from_half_line reads endpoint
masses and s atoms in, and alpha, beta and interior read them back out.
kernel_inf and lambda_from_s, the s-coordinate references that cross-checks
compare against, broadcast like kernel01 and give a float for scalar input.

synthesize turns a measure into a ScalarFunction; fit_measure inverts it by
nonnegative least squares on a fixed atom grid; endpoint_masses reads the
t -> 0 constant and t -> inf slope off a synthesized or analytic function by
geometric-sequence extrapolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailure, UsageError
from .functions import OPERATOR_MONOTONE, ScalarFunction, kernel01, kernel01_d1, kernel01_d2
from .hermitian import POSITIVE_AXIS

#: Atoms with fitted weight at or below this floor are dropped.
W_FLOOR = 1e-10

# entries per (points, atoms) block of a mixture's array form, 512 KB
_MIX_BLOCK = 1 << 16


@dataclass(frozen=True)
class RadonMeasure01:
    """Finite nonnegative measure on [0, 1] as (lam, w) point atoms.

    Positions are distinct and weights positive; the atoms keep their
    construction order, which fixes the summation order of total_mass and
    synthesize.
    """

    atoms: tuple = ()

    def __post_init__(self):
        seen = set()
        out = []
        for lam, w in self.atoms:
            lam, w = float(lam), float(w)
            if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
                raise UsageError(f"atom position {lam} outside [0, 1]")
            if not (math.isfinite(w) and w > 0.0):
                raise UsageError(f"atom weight {w} must be positive and finite")
            if lam in seen:
                raise UsageError(f"duplicate atom position {lam}")
            seen.add(lam)
            out.append((lam, w))
        if not out:
            raise UsageError("measure must carry at least one atom")
        object.__setattr__(self, "atoms", tuple(out))

    @classmethod
    def from_half_line(cls, mass0=0.0, mass_inf=0.0, interior=()) -> "RadonMeasure01":
        """The measure of  t -> mass0 + mass_inf*t + sum w t(1+s)/(t+s).

        mass0 and mass_inf become atoms at 0 and 1 and each interior s in
        (0, inf) moves to lam = s/(1+s); two positions that land on the same
        lam are rejected like any repeated atom.
        """
        for label, v in (("mass0", mass0), ("massInf", mass_inf)):
            if not (math.isfinite(v) and v >= 0.0):
                raise UsageError(f"{label} must be finite and >= 0, got {v}")
        atoms = [(0.0, mass0)] if mass0 > 0.0 else []
        for s, w in interior:
            if not (math.isfinite(s) and s > 0.0):
                raise UsageError(f"interior position {s} must be in (0, inf)")
            atoms.append((lambda_from_s(s), w))
        if mass_inf > 0.0:
            atoms.append((1.0, mass_inf))
        return cls(atoms=tuple(atoms))

    @cached_property
    def alpha(self) -> float:
        """Weight at lam = 0: the constant term, coefficient of A in A # B."""
        return dict(self.atoms).get(0.0, 0.0)

    @cached_property
    def beta(self) -> float:
        """Weight at lam = 1: the linear term, coefficient of B in A # B."""
        return dict(self.atoms).get(1.0, 0.0)

    @cached_property
    def interior(self) -> tuple:
        """(s, w) = (lam/(1-lam), w) for every atom with 0 < lam < 1."""
        return tuple((lam / (1.0 - lam), w) for lam, w in self.atoms if 0.0 < lam < 1.0)

    def total_mass(self) -> float:
        acc = 0.0
        for _, w in self.atoms:
            acc += w
        return acc


def _at_inf(s, at_inf, finite):
    """finite(s), or at_inf where s = inf; overflow gives inf as on floats."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/inf only where s = inf
        out = np.where(np.isinf(s), at_inf, finite(s))
    return float(out) if out.ndim == 0 else out


def kernel_inf(s, x):
    """x (1+s) / (x+s) for x > 0; s = math.inf degenerates to x itself."""
    return _at_inf(s, x, lambda s: x * (1.0 + s) / (x + s))


def lambda_from_s(s):
    """The substitution s -> s/(1+s), sending [0, inf] onto [0, 1]."""
    return _at_inf(s, 1.0, lambda s: s / (1.0 + s))


def synthesize(mu: RadonMeasure01) -> ScalarFunction:
    """The kernel mixture  t -> sum w * kernel01(lam, t)  on (0, inf).

    Its value at t = 1 is the total mass of mu, bitwise, because every kernel
    evaluates to exactly 1 there and the accumulation order matches
    total_mass().  Evaluating it or either derivative at t <= 0 (or NaN)
    raises UsageError.  The array forms give the same sums bitwise.
    """
    pairs = mu.atoms
    lams, ws = np.array([lam for lam, _ in pairs]), np.array([w for _, w in pairs])

    def mixture(kernel):
        """t -> sum w * kernel(lam, t) over the atoms, in construction order."""

        def g(t):
            if not t > 0.0:
                raise UsageError(f"kernel mixture needs t > 0, got {t}")
            acc = 0.0
            for lam, w in pairs:
                acc += w * kernel(lam, t)
            return acc

        return g

    def mixture_array(kernel):
        """The same sums at every entry of t: (points, atoms) terms per block
        of points, each row added left to right by cumsum (np.sum's pairwise
        order would move the last bits)."""
        step = max(1, _MIX_BLOCK // len(pairs))

        def g(t):
            if not (t > 0.0).all():
                raise UsageError("kernel mixture needs t > 0")  # replayed point by point
            flat = t.reshape(-1)
            out = np.empty_like(flat)
            for i in range(0, flat.size, step):
                terms = ws * kernel(lams, flat[i : i + step, None])
                out[i : i + step] = np.cumsum(terms, axis=-1)[:, -1]
            # the scalar sum starts from 0.0, which turns a sum of -0.0 terms into 0.0
            return (out + 0.0).reshape(t.shape)

        return g

    return ScalarFunction(
        name=f"mix[{len(pairs)}]",
        domain=POSITIVE_AXIS,
        fn=mixture(kernel01),
        d1=mixture(kernel01_d1),
        d2=mixture(kernel01_d2),
        claimed_class=OPERATOR_MONOTONE,
        array_forms=tuple(map(mixture_array, (kernel01, kernel01_d1, kernel01_d2))),
    )


def _aitken(v1: float, v2: float, v3: float) -> float:
    """Limit of a geometric-plus-constant sequence from three terms."""
    den = v1 - 2.0 * v2 + v3
    scale = max(abs(v1), abs(v2), abs(v3), 1e-300)
    if abs(den) < 1e-12 * scale:
        return v3
    return (v1 * v3 - v2 * v2) / den


def endpoint_masses(f: ScalarFunction) -> tuple[float, float]:
    """(value limit at 0+, slope limit at infinity) for a positive monotone f.

    Extrapolated from samples at t = 1e-4, 1e-5, 1e-6 and t = 1e4, 1e5, 1e6
    on a decade-spaced grid; tiny negative extrapolants are clamped to zero
    with a warning.
    """
    if not (f.domain.lo < 1e-6 and f.domain.hi > 1e6):
        raise UsageError(
            f"endpoint extrapolation needs the domain to cover [1e-6, 1e6]; "
            f"{f.name} lives on ({f.domain.lo:g}, {f.domain.hi:g})"
        )
    m0 = _aitken(f(1e-4), f(1e-5), f(1e-6))
    m_inf = _aitken(f(1e4) / 1e4, f(1e5) / 1e5, f(1e6) / 1e6)
    out = []
    for label, v in (("mass at 0", m0), ("mass at infinity", m_inf)):
        if v < 0.0:
            warnings.warn(
                f"clamped tiny negative {label} ({v:.3e}) to 0", stacklevel=2
            )
            v = 0.0
        out.append(v)
    return out[0], out[1]


def default_lambda_grid(n: int = 200) -> np.ndarray:
    """Endpoint-inclusive atom grid lam_k = sin^2(theta_k), theta uniform.

    The squared-sine substitution clusters atoms quadratically at both
    endpoints, which is what kernel mixtures need to reach functions like
    sqrt over wide sample ranges; a lam-uniform grid of the same size stalls
    at O(1) fitting error.  lam_0 = 0 and lam_{n-1} = 1 exactly.
    """
    if n < 2:
        raise UsageError(f"grid needs at least 2 atoms, got {n}")
    th = np.linspace(0.0, np.pi / 2.0, n)
    g = np.sin(th) ** 2
    g[0], g[-1] = 0.0, 1.0
    return g


def fit_measure(
    samples, grid, mass_constraint: float | None = None
) -> tuple[RadonMeasure01, float]:
    """Nonnegative least-squares fit of a kernel mixture to (t, f(t)) samples.

    Solves min ||K w - y||_2 over w >= 0 with K[j, i] = kernel01(grid[i], t_j).
    A mass constraint sum w = c is imposed by a quadratic penalty row followed
    by exact rescaling of the result.  Atoms at or below W_FLOOR are dropped;
    the returned residual is recomputed for the measure actually returned.
    Deterministic for fixed inputs.
    """
    samples = [(float(t), float(y)) for t, y in samples]
    if not samples:
        raise UsageError("no samples to fit")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise UsageError("empty atom grid")
    if np.unique(grid).size != grid.size:
        raise UsageError("atom grid positions must be distinct")
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise UsageError("atom grid must lie in [0, 1]")
    for t, y in samples:
        if not (math.isfinite(t) and t > 0.0):
            raise UsageError(f"sample points must be positive and finite, got t = {t}")
        if not (math.isfinite(y) and y > 0.0):
            raise UsageError(f"sample values must be positive and finite, got f({t}) = {y}")
    ts = np.array([t for t, _ in samples])
    ys = np.array([y for _, y in samples])
    k = kernel01(grid[None, :], ts[:, None])

    from scipy.optimize import nnls

    try:
        if mass_constraint is None:
            w, _ = nnls(k, ys, maxiter=50 * max(k.shape))
        else:
            if not (math.isfinite(mass_constraint) and mass_constraint > 0.0):
                raise UsageError(f"mass constraint must be positive, got {mass_constraint}")
            rho = 1e6 * max(1.0, float(np.abs(ys).max()))
            kc = np.vstack([k, rho * np.ones((1, k.shape[1]))])
            yc = np.concatenate([ys, [rho * mass_constraint]])
            w, _ = nnls(kc, yc, maxiter=50 * max(kc.shape))
    except RuntimeError as exc:
        raise NumericalFailure(f"nonnegative least squares did not converge: {exc}") from exc

    keep = w > W_FLOOR
    if not keep.any():
        raise NumericalFailure(f"all fitted weights fell below the floor {W_FLOOR:g}")
    w = np.where(keep, w, 0.0)
    if mass_constraint is not None:
        w = w * (mass_constraint / float(w.sum()))
    residual = float(np.linalg.norm(k @ w - ys))
    order = np.argsort(grid[keep], kind="stable")
    atoms = tuple(zip(grid[keep][order], w[keep][order]))
    return RadonMeasure01(atoms=atoms), residual
