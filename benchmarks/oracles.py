"""Reference computations that share no code with loewnerlab.

Every output the benchmark checks is compared with one of these, or with a
property that Loewner's or the Kubo-Ando theorem forces.  They use numpy,
scipy and the closed forms below, never the package's divided differences,
eigendecompositions or parallel sums:

* closed-form first and second divided differences, written so that they
  do not cancel when nodes cluster;
* derivatives along A + tH of Moebius kernels by the resolvent
  R = (lam I + (1-lam) A)^-1:  D = lam RHR,  D2 = -2 lam (1-lam) RHRHR;
* derivatives of the square root by the Sylvester equations
  X D + D X = H  and  X D2 + D2 X = -2 D^2  with X = A^(1/2);
* operator means by the Kubo-Ando congruence
  A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2).

benchmarks/test_oracles.py checks each of them against 50-digit mpmath.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_sylvester, sqrtm

EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# Closed-form divided differences


def _moebius_dd(lam: float):
    def den(t):
        return lam + (1.0 - lam) * np.asarray(t, dtype=float)

    def dd1(s, t):
        return lam / (den(s) * den(t))

    def dd2(a, b, c):
        return -lam * (1.0 - lam) / (den(a) * den(b) * den(c))

    def d2(t):
        return -2.0 * lam * (1.0 - lam) / den(t) ** 3

    return dd1, dd2, d2


def _sqrt_dd1(s, t):
    return 1.0 / (np.sqrt(s) + np.sqrt(t))


def _sqrt_dd2(a, b, c):
    ra, rb, rc = np.sqrt(a), np.sqrt(b), np.sqrt(c)
    return -1.0 / ((ra + rb) * (ra + rc) * (rb + rc))


def _exp_dd1(s, t):
    s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
    lo, d = np.minimum(s, t), np.abs(t - s)
    safe = np.where(d > 0.0, d, 1.0)
    return np.exp(lo) * np.where(d > 0.0, np.expm1(d) / safe, 1.0)


class ClosedForm:
    """Closed-form dd1, dd2 and second derivative of one catalog function.

    A form the function lacks is None.  dd1/dd2 broadcast over arrays and
    are exact limits at coincident nodes, so they need no branch there.
    """

    def __init__(self, dd1=None, dd2=None, d2=None):
        self.dd1, self.dd2, self.d2 = dd1, dd2, d2


def closed_form(name: str) -> ClosedForm:
    """The closed forms for a catalog name ('sqrt', 'kernel:0.3', ...)."""
    if name == "sqrt":
        return ClosedForm(_sqrt_dd1, _sqrt_dd2, lambda t: -0.25 * np.asarray(t, float) ** -1.5)
    if name == "square":
        return ClosedForm(lambda s, t: np.add(s, t), lambda a, b, c: np.ones(np.broadcast(a, b, c).shape))
    if name == "cube":
        return ClosedForm(
            lambda s, t: np.multiply(s, s) + np.multiply(s, t) + np.multiply(t, t),
            lambda a, b, c: np.add(np.add(a, b), c),
        )
    if name == "exp":
        return ClosedForm(dd1=_exp_dd1)
    if name == "id":
        return ClosedForm(
            lambda s, t: np.ones(np.broadcast(s, t).shape),
            lambda a, b, c: np.zeros(np.broadcast(a, b, c).shape),
            lambda t: np.zeros(np.shape(t)),
        )
    if name == "harmonic_rep":  # 2t/(1+t) is the kernel at lam = 1/2
        return ClosedForm(*_moebius_dd(0.5))
    family, _, arg = name.partition(":")
    if family == "kernel":
        return ClosedForm(*_moebius_dd(float(arg)))
    if family == "power":
        p = float(arg)
        return ClosedForm(d2=lambda t: p * (p - 1.0) * np.asarray(t, float) ** (p - 2.0))
    raise KeyError(f"no closed form for {name!r}")


def loewner_matrix(name: str, nodes) -> np.ndarray:
    """[dd1(t_i, t_j)] from the closed form."""
    t = np.asarray(nodes, dtype=float)
    return closed_form(name).dd1(t[:, None], t[None, :])


def anchored_matrix(name: str, nodes, anchor: float) -> np.ndarray:
    """[dd2(t_i, t_j, anchor)] from the closed form."""
    t = np.asarray(nodes, dtype=float)
    return closed_form(name).dd2(t[:, None], t[None, :], anchor)


# ---------------------------------------------------------------------------
# Matrix functions and their derivatives along A + tH


def herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def moebius_derivatives(lam: float, a: np.ndarray, h: np.ndarray):
    """(D, D2) of t -> k_lam(A + tH) at t = 0, by the resolvent forms."""
    m = lam * np.eye(a.shape[0]) + (1.0 - lam) * a
    rhr = np.linalg.solve(m, np.linalg.solve(m, h).conj().T)
    rhrhr = np.linalg.solve(m, h @ rhr)
    return herm(lam * rhr), herm(-2.0 * lam * (1.0 - lam) * rhrhr)


def mixture_derivatives(atoms, a: np.ndarray, h: np.ndarray):
    """(D, D2) of a kernel mixture sum w k_lam, summed atom by atom."""
    d1 = np.zeros_like(a, dtype=complex)
    d2 = np.zeros_like(a, dtype=complex)
    for lam, w in atoms:
        k1, k2 = moebius_derivatives(float(lam), a, h)
        d1 += float(w) * k1
        d2 += float(w) * k2
    return d1, d2


def sqrt_derivatives(a: np.ndarray, h: np.ndarray):
    """(D, D2) of t -> (A + tH)^(1/2) at t = 0, by two Sylvester equations."""
    x = herm(sqrtm(a))
    d1 = herm(solve_sylvester(x, x, h))
    d2 = herm(solve_sylvester(x, x, -2.0 * d1 @ d1))
    return d1, d2


def kubo_ando_mean(f, a: np.ndarray, b: np.ndarray):
    """A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) and the spectrum of the inner term.

    f maps an array of eigenvalues to an array; the inner function is
    applied through numpy's eigh of the congruence.
    """
    root = herm(sqrtm(a))
    root_inv = herm(np.linalg.inv(root))
    inner = herm(root_inv @ b @ root_inv)
    mu, v = np.linalg.eigh(inner)
    fc = (v * f(mu)) @ v.conj().T
    return herm(root @ fc @ root), mu


def matrix_function(name: str, m: np.ndarray) -> np.ndarray:
    """t^2, t^3 or exp of a Hermitian matrix, by products or scipy's expm."""
    if name == "square":
        return herm(m @ m)
    if name == "cube":
        return herm(m @ m @ m)
    if name == "exp":
        return herm(expm(m))
    raise KeyError(f"no matrix function for {name!r}")


def scaled_min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue over max(1, ||M||), the scale of PSD decisions."""
    lam = np.linalg.eigvalsh(m)
    return float(lam[0]) / max(1.0, float(np.abs(lam).max()))


def representing_function(alpha: float, beta: float, interior):
    """x -> alpha + beta x + sum w x (1+s)/(x+s), vectorized over x."""
    s = np.array([float(p) for p, _ in interior])
    w = np.array([float(q) for _, q in interior])

    def f(x):
        x = np.asarray(x, dtype=float)
        acc = alpha + beta * x
        if s.size:
            acc = acc + (w * (1.0 + s) * x[..., None] / (x[..., None] + s)).sum(axis=-1)
        return acc

    return f


def geometric_quadrature(m: int):
    """(alpha, beta, interior) of the m-node midpoint rule for sqrt's measure.

    sqrt(x) = int x(1+s)/(x+s) dnu(s) with dnu = ds / (pi sqrt(s) (1+s)),
    which is uniform in theta for s = tan^2(theta) on (0, pi/2).
    """
    theta = (np.arange(m) + 0.5) * (math.pi / 2.0) / m
    return 0.0, 0.0, tuple((float(s), 1.0 / m) for s in np.tan(theta) ** 2)


def weight_at_one(name: str) -> float:
    """f'(1) of a normalized catalog member, from its closed form."""
    fixed = {"id": 1.0, "const1": 0.0, "sqrt": 0.5, "arithmetic": 0.5, "harmonic_rep": 0.5}
    if name in fixed:
        return fixed[name]
    family, _, arg = name.partition(":")
    if family in ("power", "kernel"):  # d/dt t^p = p and lam/(lam+(1-lam)t)^2 = lam at 1
        return float(arg)
    raise KeyError(f"no closed-form f'(1) for {name!r}")


# ---------------------------------------------------------------------------
# Error bounds from an instance's own conditioning


def min_gap(values) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    return float(np.diff(v).min()) if v.size > 1 else math.inf


def chain_rule_bounds(eigs, fmax: float) -> tuple[float, float]:
    """Absolute bounds on the rounding error of divided-difference chain rules
    along a direction H of unit norm.

    Differencing values of size fmax at nodes g apart loses eps * fmax / g
    in a first divided difference and eps * fmax / g^2 in a second one; the
    Schur products and the two rotations multiply that by at most n.  The
    factor 64 covers the constant of each step.
    """
    n = len(eigs)
    g = min_gap(eigs)
    return (
        64.0 * EPS * n * (1.0 + fmax / g),
        64.0 * EPS * n * (1.0 + fmax / g + fmax / g**2),
    )


def mean_bound(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    """Rounding bound for a mean of A and B: eps n cond(A) cond(B) ||result||."""
    ka = np.linalg.cond(a)
    kb = np.linalg.cond(b)
    return 64.0 * EPS * a.shape[0] * ka * kb * scale
