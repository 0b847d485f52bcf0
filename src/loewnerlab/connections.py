"""Kubo-Ando connections, given by their representing measure on [0, 1].

A connection acts on positive definite pairs as

    A # B  =  int ((1-lam) A^-1 + lam B^-1)^-1 dmu(lam),

with mu the RadonMeasure01 whose kernel mixture synthesize(mu) is the
representing function of the connection: evaluating it on (I, x I) and
reading off the diagonal gives  sum w * kernel01(lam, x).  The atoms at
lam = 0 and lam = 1 contribute alpha*A and beta*B; every interior atom is a
weighted, rescaled parallel sum.  Classic instances: arithmetic (mass 1/2 at
each end), harmonic (one atom at lam = 1/2 with weight 1, i.e. 2(A:B)), and
the geometric mean, whose measure dlam / (pi sqrt(lam(1-lam))) is uniform in
the angle of lam = sin^2(theta) and is discretized there by a midpoint rule,
which converges at fourth order.

One kernel, _connection_stack, evaluates the connection on a whole
(k, n, n) stack of operand pairs; evaluate_connection is its one-row call,
and row i of a stack equals the connection of pair i bit for bit.  Each
operand stack takes one checked eigh, which carries the positive-
definiteness, condition-number and inverse-overflow guards of every slice
and the inverses U diag(1/lam) U*.  The interior atoms then take one
batched eigh of the (k, atoms, n, n) stack (1-lam) A^-1 + lam B^-1.  The
closed-form geometric mean is stacked the same way.

The route is the parallel sum and not the congruence
A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2), although congruence needs no
per-atom solve: with cond(A) = cond(B) = 1e8 in different bases, congruence
is off by up to 2.6e-4 relative against a 50-digit parallel sum, where the
parallel sums stay within 1.9e-10 (the instability analysed by Iannazzo,
Numer. Linear Algebra Appl. 23, 2016).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure, UsageError
from .hermitian import (
    HermitianMatrix,
    _adjoint,
    _eigh_checked,
    _require_hermitian,
    hermitian_part,
)
from .measures import RadonMeasure01

#: Refuse reciprocal-eigenvalue inversion beyond this condition number.
CONDITION_CAP = 1e12

#: Below this smallest eigenvalue, U diag(1/lam) U* can overflow.
_INVERSE_FLOOR = 2.0 / np.finfo(np.float64).max


def arithmetic_spec() -> RadonMeasure01:
    return RadonMeasure01(atoms=((0.0, 0.5), (1.0, 0.5)))


def harmonic_spec() -> RadonMeasure01:
    """2(A:B): one interior atom at lam = 1/2 with weight 1."""
    return RadonMeasure01(atoms=((0.5, 1.0),))


def geometric_spec(n_nodes: int = 200) -> RadonMeasure01:
    """Midpoint discretization of the representing measure of the geometric mean.

    With lam = sin^2(theta) the measure dlam / (pi sqrt(lam (1-lam))) becomes
    uniform on theta in (0, pi/2), so n midpoint nodes with equal weights
    1/n inherit fourth-order accuracy (the integrand is even at both ends).
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
    CONDITION_CAP, and, if inverts, NumericalFailure when U diag(1/lam) U*
    would overflow.
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


def _inverse(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(1/lam) U* over a stack, made exactly Hermitian."""
    return hermitian_part((u / lam[..., None, :]) @ _adjoint(u))


def _connection_stack(mu: RadonMeasure01, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The connection of mu on every slice pair of two (k, n, n) stacks.

    a and b must be exactly Hermitian (checked).  Each operand stack takes
    one checked eigh; the interior atoms take one eigh of the (k, atoms, n, n)
    stack (1-lam) A^-1 + lam B^-1.  Row i equals the connection of the pair
    (a[i], b[i]) bit for bit, whatever the height of the stack.
    """
    _require_hermitian(a)
    _require_hermitian(b)
    inner = [(lam, w) for lam, w in mu.atoms if 0.0 < lam < 1.0]
    lam_a, u_a = _pd_eigh(a, "left operand", inverts=bool(inner))
    lam_b, u_b = _pd_eigh(b, "right operand", inverts=bool(inner))
    acc = mu.alpha * a + mu.beta * b
    if inner:
        lam = np.array([lk for lk, _ in inner])[:, None, None]
        w = np.array([wk for _, wk in inner], dtype=np.complex128)
        inv_a, inv_b = _inverse(lam_a, u_a)[:, None], _inverse(lam_b, u_b)[:, None]
        stack = (1.0 - lam) * inv_a + lam * inv_b
        try:
            ev, u = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"batched eigendecomposition failed: {exc}") from exc
        if not ev.min() > 0.0:
            raise NumericalFailure("parallel-sum stack lost positive definiteness")
        if (ev.max(axis=-1) / ev.min(axis=-1)).max() > CONDITION_CAP:
            raise NumericalFailure("parallel-sum stack too ill-conditioned to invert")
        inv = (u / ev[..., None, :]) @ _adjoint(u)
        k, m, n = inv.shape[:3]
        acc = acc + (w @ inv.reshape(k, m, n * n)).reshape(k, n, n)
    return hermitian_part(acc)


def evaluate_connection(
    mu: RadonMeasure01, a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """Apply the connection of mu to a positive definite pair."""
    a._check_same_dim(b)
    return HermitianMatrix(_connection_stack(mu, a.entries[None], b.entries[None])[0])


def _geometric_mean_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The closed-form geometric mean on every slice pair of two stacks."""
    _pd_eigh(b, "right operand")
    lam, u = _pd_eigh(a, "left operand")
    s = np.sqrt(lam)[..., None, :]
    root = hermitian_part((u * s) @ _adjoint(u))
    root_inv = hermitian_part((u / s) @ _adjoint(u))
    inner = hermitian_part(root_inv @ b @ root_inv)
    _require_hermitian(inner)
    lam_i, v = _pd_eigh(inner, "A^-1/2 B A^-1/2", not_pd=NumericalFailure)
    mid = hermitian_part((v * np.sqrt(lam_i)[..., None, :]) @ _adjoint(v))
    return hermitian_part(root @ mid @ root)


def geometric_mean_closed_form(
    a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2), the exact geometric mean.

    Serves as the independent cross-check for the quadrature connection.
    A^(1/2) and A^(-1/2) share one decomposition of A.  The inner matrix is
    positive definite in exact arithmetic, so losing that is a
    NumericalFailure, not a usage error.
    """
    a._check_same_dim(b)
    return HermitianMatrix(_geometric_mean_stack(a.entries[None], b.entries[None])[0])
