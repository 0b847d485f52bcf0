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

All inversions go through eigendecompositions with reciprocal eigenvalues
and a condition-number guard.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure, UsageError
from .functions import ScalarFunction
from .hermitian import HermitianMatrix, eigendecompose, hermitian_part
from .measures import RadonMeasure01, default_lambda_grid, fit_measure

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


def _pd_eigendecompose(a: HermitianMatrix, label: str):
    dec = eigendecompose(a)
    lam = dec.eigenvalues
    if not lam[0] > 0.0:
        raise UsageError(f"{label} must be positive definite (min eig {lam[0]:.3e})")
    if lam[-1] / lam[0] > CONDITION_CAP:
        raise NumericalFailure(
            f"{label} too ill-conditioned to invert: cond = {lam[-1] / lam[0]:.3e}"
        )
    return dec


def invert_pd(a: HermitianMatrix, label: str = "matrix") -> HermitianMatrix:
    """Inverse of a positive definite matrix via reciprocal eigenvalues."""
    dec = _pd_eigendecompose(a, label)
    u = dec.unitary
    inv = (u / dec.eigenvalues) @ u.conj().T
    return HermitianMatrix(hermitian_part(inv))


def parallel_sum(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """(A^-1 + B^-1)^-1 for positive definite A, B."""
    a._check_same_dim(b)
    return invert_pd(
        invert_pd(a, "left operand") + invert_pd(b, "right operand"),
        "sum of inverses",
    )


def _batched_parallel_terms(
    atoms, a: HermitianMatrix, b: HermitianMatrix
) -> np.ndarray:
    """sum_k w_k ((1-lam_k) A^-1 + lam_k B^-1)^-1, all atoms in one batched solve."""
    ainv = invert_pd(a, "left operand").entries
    binv = invert_pd(b, "right operand").entries
    lam = np.array([lk for lk, _ in atoms])[:, None, None]
    w = np.array([wk for _, wk in atoms])
    stack = (1.0 - lam) * ainv + lam * binv
    try:
        ev, u = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"batched eigendecomposition failed: {exc}") from exc
    if not ev.min() > 0.0:
        raise NumericalFailure("parallel-sum stack lost positive definiteness")
    if (ev.max(axis=1) / ev.min(axis=1)).max() > CONDITION_CAP:
        raise NumericalFailure("parallel-sum stack too ill-conditioned to invert")
    inv = (u / ev[:, None, :]) @ np.conjugate(np.swapaxes(u, 1, 2))
    return np.tensordot(w, inv, axes=(0, 0))


def evaluate_connection(
    mu: RadonMeasure01, a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """Apply the connection of mu to a positive definite pair."""
    a._check_same_dim(b)
    _pd_eigendecompose(a, "left operand")
    _pd_eigendecompose(b, "right operand")
    acc = mu.alpha * a.entries + mu.beta * b.entries
    inner = [(lam, w) for lam, w in mu.atoms if 0.0 < lam < 1.0]
    if inner:
        acc = acc + _batched_parallel_terms(inner, a, b)
    return HermitianMatrix(hermitian_part(acc))


def connection_from_function(
    f: ScalarFunction, grid=None, samples=None
) -> tuple[RadonMeasure01, float]:
    """Recover a connection whose representing function matches f.

    Fits an atom measure on the [0, 1] grid to samples of f and returns it
    together with the fit residual.
    """
    if grid is None:
        grid = default_lambda_grid(200)
    if samples is None:
        samples = np.geomspace(1e-3, 1e3, 60)
    return fit_measure([(float(t), f(float(t))) for t in samples], grid)


def matrix_sqrt(a: HermitianMatrix) -> HermitianMatrix:
    """Principal square root of a positive definite matrix."""
    dec = _pd_eigendecompose(a, "matrix")
    u = dec.unitary
    out = (u * np.sqrt(dec.eigenvalues)) @ u.conj().T
    return HermitianMatrix(hermitian_part(out))


def geometric_mean_closed_form(
    a: HermitianMatrix, b: HermitianMatrix
) -> HermitianMatrix:
    """A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2), the exact geometric mean.

    Serves as the independent cross-check for the quadrature connection.
    """
    a._check_same_dim(b)
    _pd_eigendecompose(b, "right operand")
    root = matrix_sqrt(a)
    root_inv = invert_pd(root, "square root")
    inner = HermitianMatrix(hermitian_part(root_inv.entries @ b.entries @ root_inv.entries))
    mid = matrix_sqrt(inner)
    out = root.entries @ mid.entries @ root.entries
    return HermitianMatrix(hermitian_part(out))
