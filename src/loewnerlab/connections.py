"""Kubo-Ando connections, given by their representing measure on [0, 1].

A connection acts on positive definite pairs as

    A # B  =  int ((1-lam) A^-1 + lam B^-1)^-1 dmu(lam)
           =  A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2),

with mu the RadonMeasure01 whose kernel mixture f = synthesize(mu),
f(c) = sum w * kernel01(lam, c), is the representing function of the
connection.  The atoms at lam = 0 and lam = 1 contribute alpha*A and beta*B;
every interior atom is a weighted, rescaled parallel sum.  Classic
instances: arithmetic (mass 1/2 at each end), harmonic (one atom at
lam = 1/2 with weight 1, i.e. 2(A:B)), and the geometric mean, whose
measure dlam / (pi sqrt(lam(1-lam))) is uniform in the angle of
lam = sin^2(theta) and is discretized there by a midpoint rule.

One kernel, _connection_stack, evaluates the connection on a whole
(k, n, n) stack of operand pairs; evaluate_connection is its one-row call,
and row i of a stack equals the connection of pair i bit for bit.  Each
operand stack takes one checked eigh, which carries the positive-
definiteness, condition-number and inverse-overflow guards of every slice.
Each row then takes one of two routes, by a rule read off the measure and
the operand spectra:

- The transfer, _transfer_stack: the second formula above, with
  C = A^(-1/2) B A^(-1/2) decomposed by one more eigh and f applied to its
  spectrum as an (n, atoms) broadcast.  A row takes it when mu has more than
  _TRANSFER_ATOMS interior atoms and max(cond A, cond B) <= _TRANSFER_CAP.
  The closed-form geometric mean is the transfer with f = sqrt.
- The parallel sums, _parallel_sum_stack, for every other row: batched LU
  inverses of the operands, then of the (k, atoms, n, n) stack
  (1-lam) A^-1 + lam B^-1.  That stack needs no decomposition of its own to
  be guarded: by Weyl's inequalities the operand spectra bound each slice's
  condition number by max(cond A, cond B), so only slices that rounding
  could push over CONDITION_CAP are checked, with eigvalsh.

The transfer replaces one n x n inverse per atom by one eigh: with 200
atoms it takes 9 ms against 374 ms for the parallel sums at n = 128.  But
its error grows with the operand condition numbers far faster (the
instability analysed by Iannazzo, Numer. Linear Algebra Appl. 23, 2016).
Spectral-norm error relative to a 40-digit parallel sum, geometric_spec(50),
n = 5, spectra log-spaced on [1, cond] in unrelated bases, worst of 4 seeds:

    max cond   parallel sums   transfer
    8          2.1e-16         3.3e-15
    20         3.4e-16         4.2e-15
    1e2        1.1e-15         1.4e-14
    1e3        7.9e-15         1.6e-12
    1e4        9.0e-14         5.3e-11
    1e6        1.2e-12         1.4e-07

The worst transfer error over 300 random pairs at n = 2, the worst order
seen, was 4.2e-14 at max cond 20, 1.4e-13 at 40 and 7.5e-13 at 100; hence
the cap of 20, which keeps transfer rows within 1e-13 of mpmath.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure, UsageError
from .functions import kernel01
from .hermitian import (
    HermitianMatrix,
    _adjoint,
    _eigh_checked,
    _require_hermitian,
    hermitian_part,
)
from .measures import RadonMeasure01

#: Refuse to invert an operand or a parallel-sum slice beyond this condition number.
CONDITION_CAP = 1e12

#: Below this smallest eigenvalue, an operand's inverse can overflow.
_INVERSE_FLOOR = 2.0 / np.finfo(np.float64).max

#: Rounding allowed when forming and decomposing a parallel-sum slice, in
#: units of order * machine epsilon: the largest seen on pairs up to the cap
#: (n = 1-128, equal, shared and unrelated bases) was below 1.
_ROUNDING = 8.0

#: A row takes the transfer only when both operands are at most this well
#: conditioned: its worst error grows like cond^2 * eps (module docstring).
_TRANSFER_CAP = 20.0

#: ... and only for measures with more interior atoms than this: at n = 64
#: and 128 the extra eigh costs as much as 3 parallel-sum atoms.
_TRANSFER_ATOMS = 4


def arithmetic_spec() -> RadonMeasure01:
    return RadonMeasure01(atoms=((0.0, 0.5), (1.0, 0.5)))


def harmonic_spec() -> RadonMeasure01:
    """2(A:B): one interior atom at lam = 1/2 with weight 1."""
    return RadonMeasure01(atoms=((0.5, 1.0),))


def geometric_spec(n_nodes: int = 200) -> RadonMeasure01:
    """Midpoint discretization of the representing measure of the geometric mean.

    With lam = sin^2(theta) the measure dlam / (pi sqrt(lam (1-lam))) becomes
    uniform on theta in (0, pi/2), and the rule takes n midpoint nodes with
    equal weights 1/n.  Its error against sqrt(c) falls geometrically in n, at
    a rate set by the spread r = max/min of the spectrum of
    C = A^(-1/2) B A^(-1/2): 200 nodes are within 2.2e-15 for r = 1e4, but
    6.7e-4 off for r = 1e8 and 0.62 off for r = 1e12, a spread that operands
    within CONDITION_CAP can reach.
    """
    if n_nodes < 1:
        raise UsageError(f"need at least one node, got {n_nodes}")
    theta = (np.arange(n_nodes) + 0.5) * (math.pi / 2.0) / n_nodes
    lam = np.sin(theta) ** 2
    w = 1.0 / n_nodes
    return RadonMeasure01(atoms=tuple((float(lk), w) for lk in lam))


def _pd_eigh(entries: np.ndarray, label: str, not_pd=UsageError, inverts=False):
    """Checked eigh of a (k, n, n) stack that must be positive definite.

    The first failing slice raises, with the checks in this order: not_pd
    when its smallest eigenvalue is not positive (UsageError for an operand,
    NumericalFailure for a matrix that is positive definite in exact
    arithmetic), NumericalFailure when its condition number exceeds
    CONDITION_CAP, and, if inverts, NumericalFailure when its inverse would
    overflow.
    """
    lam, u = _eigh_checked(entries)
    lo, hi = lam[:, 0], lam[:, -1]
    cond = hi / np.where(lo > 0.0, lo, np.inf)
    bad = ~(lo > 0.0) | (cond > CONDITION_CAP)
    if inverts:
        bad |= lo < _INVERSE_FLOOR
    if bad.any():
        k = int(np.argmax(bad))
        if not lo[k] > 0.0:
            raise not_pd(f"{label} must be positive definite (min eig {lo[k]:.3e})")
        if cond[k] > CONDITION_CAP:
            raise NumericalFailure(
                f"{label} too ill-conditioned to invert: cond = {cond[k]:.3e}"
            )
        raise NumericalFailure(f"{label}: inverse overflows (min eig {lo[k]:.3e})")
    return lam, u


def _near_cap(lam: np.ndarray, lam_a: np.ndarray, lam_b: np.ndarray) -> np.ndarray:
    """The (k, atoms) slices of the parallel-sum stack that need checking.

    By Weyl's inequalities every eigenvalue of (1-lam) A^-1 + lam B^-1 lies
    in [lo, hi], lo = (1-lam)/a_max + lam/b_max, hi = (1-lam)/a_min +
    lam/b_min, and hi/lo <= max(cond A, cond B) <= CONDITION_CAP.  Forming
    the slice and computing its eigenvalues moves them by up to eta*hi, so a
    slice is flagged when its computed condition number could still exceed
    the cap or its smallest eigenvalue could reach zero.
    """
    eta = _ROUNDING * lam_a.shape[-1] * np.finfo(np.float64).eps
    lo = (1.0 - lam) / lam_a[:, -1:] + lam / lam_b[:, -1:]
    hi = (1.0 - lam) / lam_a[:, :1] + lam / lam_b[:, :1]
    ratio = hi / lo
    return ratio * (1.0 + eta) > CONDITION_CAP * (1.0 - eta * ratio)


def _transfer_rows(lam_a: np.ndarray, lam_b: np.ndarray) -> np.ndarray:
    """The rows the transfer may take: both operands at most _TRANSFER_CAP
    conditioned, which keeps its error within 1e-13, and the interval
    [b_min/a_max, b_max/a_min] that holds spec(C) within [r, 1/r],
    r = sqrt(_INVERSE_FLOOR), so that forming C cannot overflow or underflow.
    """
    cond = np.maximum(lam_a[:, -1] / lam_a[:, 0], lam_b[:, -1] / lam_b[:, 0])
    with np.errstate(over="ignore"):
        lo, hi = lam_b[:, 0] / lam_a[:, -1], lam_b[:, -1] / lam_a[:, 0]
    r = math.sqrt(_INVERSE_FLOOR)
    return (cond <= _TRANSFER_CAP) & (lo > r) & (hi < 1.0 / r)


def _transfer_stack(fn, a: np.ndarray, b: np.ndarray, lam_a: np.ndarray,
                    u_a: np.ndarray) -> np.ndarray:
    """A^(1/2) fn(C) A^(1/2) with C = A^(-1/2) B A^(-1/2), over two stacks.

    lam_a, u_a is the checked eigh of a, and fn maps a (k, n) array of
    eigenvalues.  A^(1/2) and A^(-1/2) share that decomposition; C takes one
    more checked eigh.  C is positive definite in exact arithmetic, so
    losing that, or exceeding CONDITION_CAP, is a NumericalFailure.
    """
    s = np.sqrt(lam_a)[..., None, :]
    root = hermitian_part((u_a * s) @ _adjoint(u_a))
    root_inv = hermitian_part((u_a / s) @ _adjoint(u_a))
    with np.errstate(over="ignore", invalid="ignore"):
        inner = hermitian_part(root_inv @ b @ root_inv)
    if not np.isfinite(inner).all():
        raise NumericalFailure("A^-1/2 B A^-1/2 is not finite")
    lam_c, v = _pd_eigh(inner, "A^-1/2 B A^-1/2", not_pd=NumericalFailure)
    mid = hermitian_part((v * fn(lam_c)[..., None, :]) @ _adjoint(v))
    return hermitian_part(root @ mid @ root)


def _parallel_sum_stack(mu: RadonMeasure01, lam: np.ndarray, w: np.ndarray,
                        a: np.ndarray, b: np.ndarray, lam_a: np.ndarray,
                        lam_b: np.ndarray) -> np.ndarray:
    """alpha A + beta B + sum w ((1-lam) A^-1 + lam B^-1)^-1 over two stacks.

    The operand inverses and the (k, atoms, n, n) stack of slices each take
    one batched LU inverse.  Only the slices that _near_cap flags take an
    eigvalsh first, which refuses any that lost positive definiteness or
    exceed CONDITION_CAP.
    """
    try:
        inv_a = hermitian_part(np.linalg.inv(a))[:, None]
        inv_b = hermitian_part(np.linalg.inv(b))[:, None]
        col = lam[:, None, None]
        stack = (1.0 - col) * inv_a + col * inv_b
        flagged = _near_cap(lam, lam_a, lam_b)
        if flagged.any():
            ev = np.linalg.eigvalsh(stack[flagged])
            if not ev.min() > 0.0:
                raise NumericalFailure("parallel-sum stack lost positive definiteness")
            if (ev[:, -1] / ev[:, 0]).max() > CONDITION_CAP:
                raise NumericalFailure("parallel-sum stack too ill-conditioned to invert")
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"parallel-sum stack: {exc}") from exc
    k, m, n = inv.shape[:3]
    acc = mu.alpha * a + mu.beta * b
    acc = acc + (w.astype(np.complex128) @ inv.reshape(k, m, n * n)).reshape(k, n, n)
    return hermitian_part(acc)


def _connection_stack(mu: RadonMeasure01, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The connection of mu on every slice pair of two (k, n, n) stacks.

    a and b must be exactly Hermitian (checked).  Each operand stack takes
    one checked eigh, which guards every slice.  A row goes to
    _transfer_stack when mu has more than _TRANSFER_ATOMS interior atoms
    and _transfer_rows admits its pair; every other row goes to
    _parallel_sum_stack.  Row i equals the connection of the pair
    (a[i], b[i]) bit for bit, whatever else the stack holds.
    """
    _require_hermitian(a)
    _require_hermitian(b)
    inner = [(lam, w) for lam, w in mu.atoms if 0.0 < lam < 1.0]
    lam_a, u_a = _pd_eigh(a, "left operand", inverts=bool(inner))
    lam_b, _ = _pd_eigh(b, "right operand", inverts=bool(inner))
    if not inner:
        return hermitian_part(mu.alpha * a + mu.beta * b)
    lam = np.array([lk for lk, _ in inner])
    w = np.array([wk for _, wk in inner])

    def representing(c):
        return mu.alpha + mu.beta * c + kernel01(lam, c[..., None]) @ w

    fast = _transfer_rows(lam_a, lam_b) & (len(inner) > _TRANSFER_ATOMS)
    slow = ~fast
    # the parallel sums are complex; the transfer keeps a real pair real
    out = np.empty(a.shape, np.result_type(a, b, np.complex128 if slow.any() else np.float64))
    if fast.any():
        out[fast] = _transfer_stack(representing, a[fast], b[fast], lam_a[fast], u_a[fast])
    if slow.any():
        out[slow] = _parallel_sum_stack(mu, lam, w, a[slow], b[slow], lam_a[slow], lam_b[slow])
    return out


def evaluate_connection(
    mu: RadonMeasure01, a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """Apply the connection of mu to a positive definite pair."""
    a._check_same_dim(b)
    return HermitianMatrix(_connection_stack(mu, a.entries[None], b.entries[None])[0])


def _geometric_mean_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The closed-form geometric mean on every slice pair of two stacks."""
    _pd_eigh(b, "right operand")
    return _transfer_stack(np.sqrt, a, b, *_pd_eigh(a, "left operand"))


def geometric_mean_closed_form(
    a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2), the exact geometric mean.

    This is _transfer_stack with f = sqrt, after the right and then the left
    operand guard.  The inner matrix is positive definite in exact
    arithmetic, so losing that is a NumericalFailure, not a usage error.
    Rows that take the transfer share every step with it but the map of
    spec(C), so it is no independent check of the quadrature connection;
    the independent references are the mpmath oracles of the tests and the
    scipy kubo_ando_mean of the benchmark.
    """
    a._check_same_dim(b)
    return HermitianMatrix(_geometric_mean_stack(a.entries[None], b.entries[None])[0])
