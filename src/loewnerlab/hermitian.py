"""Hermitian matrices, the positive-semidefinite order, and spectra.

Everything downstream runs on top of the primitives here: an exactly-Hermitian
matrix container, spectral decomposition with verified residuals, the
scale-relative smallest eigenvalue behind every PSD decision, and seeded
generators for random ordered pairs A <= B with spectra confined to an
interval.

Complex entries are supported throughout; real symmetric arrays are accepted
as a special case and stored as complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, UsageError

#: Relative floor for PSD decisions: min eigenvalue >= -PSD_TOL * max(1, ||A||).
PSD_TOL = 1e-9

#: Relative bound on eigendecomposition reconstruction/unitarity residuals.
TOL_RECON = 1e-10

_MAX_SHRINK_STEPS = 60


def min_eig_scaled(entries: np.ndarray) -> float:
    """Smallest eigenvalue over max(1, ||M||), the quantity PSD_TOL bounds.

    A relative floor, because an absolute threshold would misjudge matrices
    living on very different scales.
    """
    lam = np.linalg.eigvalsh(entries)
    return float(lam[0]) / max(1.0, float(np.abs(lam).max()))


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); hi may be math.inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise UsageError(f"empty interval: ({self.lo}, {self.hi})")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi) and math.isfinite(self.lo)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains_strictly(self, x: float) -> bool:
        return self.lo < x < self.hi


#: The positive half line, home of every operator monotone function here.
POSITIVE_AXIS = Interval(0.0, math.inf)


def hermitian_part(arr: np.ndarray) -> np.ndarray:
    """(M + M*)/2; bitwise conjugate-symmetric thanks to commutative adds."""
    return (arr + arr.conj().T) / 2


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Immutable n x n matrix with entries[i, j] == conj(entries[j, i]) exactly."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise UsageError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise UsageError("empty matrix")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise UsageError("matrix entries must be finite")
        if not np.array_equal(arr, arr.conj().T):
            raise UsageError(
                "matrix is not Hermitian; use HermitianMatrix.from_array to "
                "symmetrize nearly-Hermitian input"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_array(cls, arr, atol: float = 1e-9) -> "HermitianMatrix":
        """Validate near-Hermitian input and symmetrize it exactly."""
        a = np.asarray(arr, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
        dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
        if dev > atol * scale:
            raise UsageError(
                f"matrix deviates from Hermitian symmetry by {dev:.3e} "
                f"(allowed {atol * scale:.3e})"
            )
        return cls(hermitian_part(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_same_dim(other)
        return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_same_dim(other)
        return HermitianMatrix(self.entries - other.entries)

    def scaled(self, c: float) -> "HermitianMatrix":
        """Real scalar multiple (exact symmetry is preserved)."""
        return HermitianMatrix(self.entries * float(c))

    def _check_same_dim(self, other):
        if not isinstance(other, HermitianMatrix):
            raise UsageError("expected a HermitianMatrix operand")
        if other.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other):
        return isinstance(other, HermitianMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.abs(np.linalg.eigvalsh(self.entries)).max())


def identity(n: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(n, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Unitary U and ascending real eigenvalues lam with A = U diag(lam) U*."""

    unitary: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)

    def reconstruct(self) -> HermitianMatrix:
        a = self.unitary @ np.diag(self.eigenvalues) @ self.unitary.conj().T
        return HermitianMatrix(hermitian_part(a))


def eigendecompose(a: HermitianMatrix) -> EigenDecomposition:
    """Spectral decomposition with verified residuals.

    Raises NumericalFailure if the solver fails or the reconstruction and
    unitarity residuals exceed TOL_RECON relative to ||A||.
    """
    try:
        lam, u = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    nrm = max(float(np.abs(lam).max()), 1e-300)
    recon = u @ np.diag(lam) @ u.conj().T
    res = float(np.abs(recon - a.entries).max())
    ures = float(np.abs(u.conj().T @ u - np.eye(a.dim)).max())
    if res > TOL_RECON * nrm or ures > TOL_RECON:
        raise NumericalFailure(
            f"eigendecomposition residuals too large: reconstruction {res:.3e} "
            f"(norm {nrm:.3e}), unitarity {ures:.3e}"
        )
    lam = np.array(lam, dtype=np.float64)
    u = np.array(u, dtype=np.complex128)
    lam.setflags(write=False)
    u.setflags(write=False)
    return EigenDecomposition(unitary=u, eigenvalues=lam)


def _spectrum_in(a: HermitianMatrix, iv: Interval) -> bool:
    """True iff every eigenvalue lies strictly inside iv."""
    lam = np.linalg.eigvalsh(a.entries)
    return bool(iv.lo < lam[0] and lam[-1] < iv.hi)


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from a QR factorization with phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hermitian(
    n: int, iv: Interval, seed, margin: float = 0.02
) -> HermitianMatrix:
    """Random Hermitian matrix with spectrum strictly inside the bounded iv.

    Eigenvalues are drawn uniformly from the margin-shrunk interval and
    conjugated by a random unitary; the margin absorbs roundoff so the strict
    containment survives the conjugation.
    """
    if n < 1:
        raise UsageError(f"dimension must be >= 1, got {n}")
    if not iv.bounded:
        raise UsageError("random generation needs a bounded interval")
    rng = _resolve_rng(seed)
    pad = margin * iv.width
    lam = rng.uniform(iv.lo + pad, iv.hi - pad, n)
    u = _random_unitary(n, rng)
    return HermitianMatrix(hermitian_part(u @ np.diag(lam) @ u.conj().T))


def random_ordered_pair(
    n: int, iv: Interval, seed
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Seeded pair A <= B, both with spectrum strictly inside the bounded iv.

    B = A + c * P with P a random PSD direction of unit spectral norm.  The
    initial step uses the Weyl bound to stay below iv.hi and is then shrunk
    by bisection until the spectrum containment is verified.  Deterministic
    for a fixed seed; n = 1 degenerates to a scalar pair a <= b.
    """
    if n < 1:
        raise UsageError(f"dimension must be >= 1, got {n}")
    if not iv.bounded:
        raise UsageError("random generation needs a bounded interval")
    rng = _resolve_rng(seed)
    a = random_hermitian(n, iv, rng)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = hermitian_part(z @ z.conj().T)
    p = p / float(np.linalg.eigvalsh(p).max())
    headroom = (iv.hi - 0.01 * iv.width) - float(np.linalg.eigvalsh(a.entries).max())
    c = rng.uniform(0.2, 0.95) * max(headroom, 0.0)
    for _ in range(_MAX_SHRINK_STEPS):
        b = HermitianMatrix(a.entries + c * p)
        if _spectrum_in(b, iv):
            return a, b
        c /= 2
    raise NumericalFailure(
        f"could not place B = A + c*P inside {iv} after "
        f"{_MAX_SHRINK_STEPS} bisection steps"
    )
