"""Functions of Hermitian matrices and derivatives along affine paths.

apply_function lifts a scalar function to Hermitian arguments through the
spectral decomposition.  Derivatives of t -> f(A + tH) are computed by the
Daleckii-Krein chain rule: rotate H into the eigenbasis of A + tH, multiply
entrywise by the first-divided-difference matrix, rotate back.  The second
derivative is one rank-one Schur term per eigenvector column using the
anchored second divided differences; the path is affine, so no term for its
own second derivative arises.  Coincident eigenvalues need no special
casing -- the divided differences already degrade gracefully to derivative
limits.  f and f' are evaluated once per eigenvalue, and the
divided-difference matrices are formed from those values by the divdiff
kernels (through _loewner_stack and _dd_tables).  apply_function has a
stacked body that lifts f to a whole (trials, n, n) stack with one
eigendecomposition, evaluating f per eigenvalue through
functions._node_values as the divided-difference builds do; the randomized
checks call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divdiff import _dd_tables, _loewner_stack
from .errors import NumericalFailure, UsageError
from .functions import ScalarFunction, _node_values
from .hermitian import (
    HermitianMatrix,
    _adjoint,
    _eigh_checked,
    hermitian_part,
    eigendecompose,
)


@dataclass(frozen=True)
class MatrixPath:
    """The affine path t -> A + tH of Hermitian matrices; its velocity is H."""

    a: HermitianMatrix
    h: HermitianMatrix

    def value(self, t: float) -> HermitianMatrix:
        return HermitianMatrix(self.a.entries + float(t) * self.h.entries)


def affine_path(a: HermitianMatrix, h: HermitianMatrix) -> MatrixPath:
    """The path t -> A + tH."""
    a._check_same_dim(h)
    return MatrixPath(a, h)


def _check_spectrum(f: ScalarFunction, lam: np.ndarray):
    """Ascending spectra (one per slice) strictly inside the domain of f."""
    inside = (f.domain.lo < lam[..., 0]) & (lam[..., -1] < f.domain.hi)
    if not np.all(inside):
        lam = lam[np.unravel_index(np.argmin(inside), inside.shape)]
        raise UsageError(
            f"spectrum [{lam[0]:.6g}, {lam[-1]:.6g}] not strictly inside the "
            f"domain ({f.domain.lo:g}, {f.domain.hi:g}) of {f.name}"
        )


def _apply_function_stack(f: ScalarFunction, entries: np.ndarray) -> np.ndarray:
    """f applied to a Hermitian matrix or to every matrix of a stack.

    One checked eigh for the stack and one evaluation of f per eigenvalue.
    The result is exactly Hermitian but not checked for finiteness; callers
    decide what a non-finite value means, so an infinite f value (inf * 0 in
    the product) makes no warning.
    """
    lam, u = _eigh_checked(entries)
    _check_spectrum(f, lam)
    vals = _node_values(f, lam)
    with np.errstate(invalid="ignore", over="ignore"):
        return hermitian_part((u * vals[..., None, :]) @ _adjoint(u))


def apply_function(f: ScalarFunction, a: HermitianMatrix) -> HermitianMatrix:
    """f(A) by applying f to the eigenvalues; a non-finite result is a
    NumericalFailure."""
    m = _apply_function_stack(f, a.entries)
    if not np.isfinite(m).all():
        raise NumericalFailure(f"{f.name}(A) has a non-finite entry")
    return HermitianMatrix(m)


def path_derivative(f: ScalarFunction, path: MatrixPath, t: float) -> HermitianMatrix:
    """d/dt f(A + tH) = U ( [dd1(f, l_i, l_j)] o (U* H U) ) U*."""
    dec = eigendecompose(path.value(t))
    _check_spectrum(f, dec.eigenvalues)
    u = dec.unitary
    vel = hermitian_part(u.conj().T @ path.h.entries @ u)
    d1 = _loewner_stack(f, dec.eigenvalues)
    out = u @ (d1 * vel) @ u.conj().T
    return HermitianMatrix(hermitian_part(out))


def path_second_derivative(
    f: ScalarFunction, path: MatrixPath, t: float
) -> HermitianMatrix:
    """Second derivative of t -> f(A + tH).

    In the eigenbasis of A + tH with columns c_k of U* H U:

        2 * sum_k [dd2(f, l_i, l_j, l_k)] o (c_k c_k*)
    """
    dec = eigendecompose(path.value(t))
    _check_spectrum(f, dec.eigenvalues)
    lam = dec.eigenvalues
    u = dec.unitary
    vel = hermitian_part(u.conj().T @ path.h.entries @ u)
    n = len(lam)
    d2 = _dd_tables(f, lam)
    s = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        ck = vel[:, k]
        s += 2.0 * d2[k] * np.outer(ck, ck.conj())
    out = u @ s @ u.conj().T
    return HermitianMatrix(hermitian_part(out))

