"""Hermitian matrices, the positive-semidefinite order, and spectra.

Everything downstream runs on top of the primitives here: an exactly-Hermitian
matrix container, spectral decomposition with verified residuals, the
scale-relative smallest eigenvalue behind every PSD decision, and seeded
generators for random ordered pairs A <= B with spectra confined to an
interval.

The generators split into a draw step, which takes every random number a
matrix needs from the generator, and a build step, which turns draws into
matrices over any number of leading axes.  The randomized checks draw each
trial from its own substream and build the whole (trials, n, n) stack at
once; the single-matrix functions run the same build on one draw.  The
substreams are np.random.default_rng(prefix + (t,)) bit for bit, seeded for
every trial in one vectorized pass (_trial_streams).  The checked
eigendecomposition works on stacks in the same way.

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

#: Relative deviation from Hermitian symmetry that from_array symmetrizes away.
_HERMITIAN_ATOL = 1e-9

#: Share of a bounded interval's width kept clear at each end by random draws.
_SPECTRUM_MARGIN = 0.02

_MAX_SHRINK_STEPS = 60


def min_eig_scaled(entries: np.ndarray):
    """Smallest eigenvalue over max(1, ||M||), the quantity PSD_TOL bounds.

    A relative floor, because an absolute threshold would misjudge matrices
    living on very different scales.  A float for one matrix, an array with
    one value per matrix for a stack.
    """
    lam = np.linalg.eigvalsh(entries)
    top = np.abs(lam).max(axis=-1)
    out = lam[..., 0] / np.where(top > 1.0, top, 1.0)
    return float(out) if out.ndim == 0 else out


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
    """M/2 + (M/2)*; bitwise conjugate-symmetric thanks to commutative adds.

    Halving before adding keeps entries up to the float maximum finite, and
    equals (M + M*)/2 except where a half underflows.  Works on stacks: the
    adjoint is taken over the last two axes.
    """
    half = arr * 0.5
    return half + _adjoint(half)


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def _require_hermitian(arr: np.ndarray) -> None:
    """HermitianMatrix's finiteness and exact-symmetry checks, on every slice."""
    if not np.isfinite(arr).all():
        raise UsageError("matrix entries must be finite")
    if not np.array_equal(arr, _adjoint(arr)):
        raise UsageError(
            "matrix is not Hermitian; use HermitianMatrix.from_array to "
            "symmetrize nearly-Hermitian input"
        )


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
        _require_hermitian(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_array(cls, arr) -> "HermitianMatrix":
        """Validate near-Hermitian input and symmetrize it exactly."""
        a = np.asarray(arr, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
        dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
        if dev > _HERMITIAN_ATOL * scale:
            raise UsageError(
                f"matrix deviates from Hermitian symmetry by {dev:.3e} "
                f"(allowed {_HERMITIAN_ATOL * scale:.3e})"
            )
        return cls(hermitian_part(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

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


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Unitary U and ascending real eigenvalues lam with A = U diag(lam) U*."""

    unitary: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)


def _eigh_checked(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a matrix or a stack, with verified residuals on every slice.

    Raises NumericalFailure if the solver fails or, on the first slice where
    it happens, the reconstruction and unitarity residuals exceed TOL_RECON
    relative to ||A||.
    """
    try:
        lam, u = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    nrm = np.maximum(np.abs(lam).max(axis=-1), 1e-300)
    recon = (u * lam[..., None, :]) @ _adjoint(u)
    res = np.abs(recon - entries).max(axis=(-2, -1))
    ures = np.abs(_adjoint(u) @ u - np.eye(lam.shape[-1])).max(axis=(-2, -1))
    bad = (res > TOL_RECON * nrm) | (ures > TOL_RECON)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise NumericalFailure(
            f"eigendecomposition residuals too large: reconstruction {res[k]:.3e} "
            f"(norm {nrm[k]:.3e}), unitarity {ures[k]:.3e}"
        )
    return lam, u


def eigendecompose(a: HermitianMatrix) -> EigenDecomposition:
    """Spectral decomposition with verified residuals.

    Raises NumericalFailure if the solver fails or the reconstruction and
    unitarity residuals exceed TOL_RECON relative to ||A||.
    """
    lam, u = _eigh_checked(a.entries)
    lam = np.array(lam, dtype=np.float64)
    u = np.array(u, dtype=np.complex128)
    lam.setflags(write=False)
    u.setflags(write=False)
    return EigenDecomposition(unitary=u, eigenvalues=lam)


def _spectrum_in(entries: np.ndarray, iv: Interval):
    """True iff every eigenvalue lies strictly inside iv; one bool per slice."""
    lam = np.linalg.eigvalsh(entries)
    return (iv.lo < lam[..., 0]) & (lam[..., -1] < iv.hi)


def _complex_normal(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _qr_unitary(z: np.ndarray) -> np.ndarray:
    """Haar-ish unitaries from QR factorizations of z, with phase fix."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., None, :]


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# numpy's SeedSequence pool mixing and PCG64 seeding constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Seeds the reused bit generator once; every stream overwrites its state.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def _require_int(value, what: str) -> int:
    """value as an int; a non-integral value or a bool is refused, not converted."""
    try:
        out = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return out


def _uint32_words(value: int) -> list:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, whose hash constant advances on every call.

    It works on uint32 arrays, which wrap modulo 2**32 as the reference does.
    """

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _seed_pools(columns: list) -> list:
    """SeedSequence's 4-word entropy pool, one row per trial.

    columns holds the entropy words as uint32 arrays, shape (1,) for a word
    shared by every trial and (count,) for one that varies.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(columns[i] if i < len(columns) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _trial_streams(prefix: tuple, count: int):
    """stream(t) for t in range(count): bit for bit np.random.default_rng(prefix + (t,)).

    Runs SeedSequence's pool mixing and generate_state(4, uint64) for every
    trial at once, PCG64's srandom on 128-bit ints, and sets the state of one
    reused generator per call of stream.  So the generator stream(t) returns
    is valid until the next call of stream; callers draw trials in order.
    """
    if any(part < 0 for part in prefix):
        raise UsageError(f"seed parts must be non-negative, got {prefix}")
    columns = [np.array([w], dtype=np.uint32) for p in prefix for w in _uint32_words(p)]
    columns.append(np.arange(count, dtype=np.uint32))
    pool = _seed_pools(columns)
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # generate_state pairs its words little-endian into four uint64 values
    hi_state, lo_state, hi_seq, lo_seq = (
        (words[k] | words[k + 1] << np.uint64(32)).tolist()
        for k in (0, 2, 4, 6)
    )
    # srandom from state 0: inc = 2 seq + 1, two LCG steps around adding the seed
    incs = [(((h << 64 | l) << 1) | 1) & _MASK128 for h, l in zip(hi_seq, lo_seq)]
    states = [
        ((inc + (h << 64 | l)) * _PCG_MULT + inc) & _MASK128
        for inc, h, l in zip(incs, hi_state, lo_state)
    ]
    rng = np.random.Generator(np.random.PCG64(_PLACEHOLDER_SEED))
    bitgen = rng.bit_generator

    def stream(t: int) -> np.random.Generator:
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": states[t], "inc": incs[t]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng

    return stream


def _draw_hermitian(n: int, iv: Interval, rng):
    """The draws of one random_hermitian: eigenvalues, then the QR input."""
    if n < 1:
        raise UsageError(f"dimension must be >= 1, got {n}")
    if not iv.bounded:
        raise UsageError("random generation needs a bounded interval")
    pad = _SPECTRUM_MARGIN * iv.width
    lam = rng.uniform(iv.lo + pad, iv.hi - pad, n)
    return lam, _complex_normal(n, rng)


def _build_hermitian(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """U diag(lam) U* with U from z, over any leading axes; checked."""
    u = _qr_unitary(z)
    out = hermitian_part((u * lam[..., None, :]) @ _adjoint(u))
    _require_hermitian(out)
    return out


def random_hermitian(n: int, iv: Interval, seed) -> HermitianMatrix:
    """Random Hermitian matrix with spectrum strictly inside the bounded iv.

    Eigenvalues are drawn uniformly from the interval shrunk by
    _SPECTRUM_MARGIN of its width at each end and conjugated by a random
    unitary; the margin absorbs roundoff so the strict containment survives
    the conjugation.
    """
    draw = _draw_hermitian(n, iv, _resolve_rng(seed))
    return HermitianMatrix(_build_hermitian(*draw))


def _draw_ordered_pair(n: int, iv: Interval, rng):
    """The draws of one random_ordered_pair: A's, P's, then the step size."""
    lam, z = _draw_hermitian(n, iv, rng)
    w = _complex_normal(n, rng)
    return lam, z, w, rng.uniform(0.2, 0.95)


def _build_ordered_pairs(iv: Interval, lam, z, w, step) -> tuple[np.ndarray, np.ndarray]:
    """Stacks A <= B from stacked draws (leading axis: one pair per draw).

    B = A + c * P with P = W W* scaled to unit spectral norm and c = step *
    the Weyl headroom below iv.hi.  One eigvalsh checks the containment of
    every B; only the pairs that fail it halve c, one pair at a time.
    """
    a = _build_hermitian(lam, z)
    p = hermitian_part(w @ _adjoint(w))
    p = p / np.linalg.eigvalsh(p).max(axis=-1)[:, None, None]
    headroom = (iv.hi - 0.01 * iv.width) - np.linalg.eigvalsh(a).max(axis=-1)
    c = step * np.where(0.0 > headroom, 0.0, headroom)
    b = a + c[:, None, None] * p
    _require_hermitian(b)
    for k in np.flatnonzero(~_spectrum_in(b, iv)):
        ck = float(c[k])
        for _ in range(_MAX_SHRINK_STEPS - 1):
            ck /= 2
            bk = a[k] + ck * p[k]
            _require_hermitian(bk)
            if _spectrum_in(bk, iv):
                b[k] = bk
                break
        else:
            raise NumericalFailure(
                f"could not place B = A + c*P inside {iv} after "
                f"{_MAX_SHRINK_STEPS} bisection steps"
            )
    return a, b


def random_ordered_pair(
    n: int, iv: Interval, seed
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Seeded pair A <= B, both with spectrum strictly inside the bounded iv.

    B = A + c * P with P a random PSD direction of unit spectral norm.  The
    initial step uses the Weyl bound to stay below iv.hi and is then shrunk
    by bisection until the spectrum containment is verified.  Deterministic
    for a fixed seed; n = 1 degenerates to a scalar pair a <= b.
    """
    draw = _draw_ordered_pair(n, iv, _resolve_rng(seed))
    a, b = _build_ordered_pairs(iv, *(np.array([x]) for x in draw))
    return HermitianMatrix(a[0]), HermitianMatrix(b[0])
