import math

import numpy as np
import pytest

from loewnerlab.calculus import affine_path
from loewnerlab.connections import evaluate_connection, geometric_spec
from loewnerlab.errors import UsageError
from loewnerlab.hermitian import (
    HermitianMatrix,
    Interval,
    POSITIVE_AXIS,
    PSD_TOL,
    _complex_normal,
    _eigh_checked,
    _qr_unitary,
    _require_hermitian,
    _spectrum_in,
    eigendecompose,
    hermitian_part,
    min_eig_scaled,
    random_hermitian,
    random_ordered_pair,
)


def test_interval_basic():
    iv = Interval(0.1, 10.0)
    assert iv.bounded
    assert iv.width == 9.9
    assert iv.contains_strictly(5.0)
    assert not iv.contains_strictly(0.1)
    assert not iv.contains_strictly(10.0)
    assert not POSITIVE_AXIS.bounded
    assert POSITIVE_AXIS.contains_strictly(1e300)


def test_interval_rejects_degenerate():
    with pytest.raises(UsageError):
        Interval(2.0, 2.0)
    with pytest.raises(UsageError):
        Interval(3.0, 1.0)


def test_hermitian_part_is_bitwise_hermitian():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitian_part(z)
    assert np.array_equal(h, h.conj().T)


def test_hermitian_part_equals_the_sum_halved_in_normal_range():
    # halving first only differs from (M + M*)/2 where a half underflows
    for seed in range(5):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-100, 100, (3, 4, 4))
        z = (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))) * scale
        old = (z + z.conj().swapaxes(-1, -2)) / 2
        assert hermitian_part(z).tobytes() == old.tobytes()
        real = z.real.astype(np.complex128)  # what real-valued input files give
        old_real = (real + real.conj().swapaxes(-1, -2)) / 2
        assert hermitian_part(real).tobytes() == old_real.tobytes()
        assert hermitian_part(z.real).tobytes() == old.real.tobytes()


def test_hermitian_part_keeps_huge_entries_finite():
    z = np.array([[1e308, 1.7e308 + 1e308j], [1.7e308 - 1e308j, 1.5e308]])
    h = hermitian_part(z)
    assert np.array_equal(h, z)
    assert np.array_equal(h, h.conj().T)


def test_constructor_rejects_non_hermitian():
    with pytest.raises(UsageError):
        HermitianMatrix(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
    with pytest.raises(UsageError):
        HermitianMatrix(np.array([[1.0, 2.0, 3.0]], dtype=complex))
    with pytest.raises(UsageError):
        HermitianMatrix(np.array([[np.inf]], dtype=complex))


def test_from_array_symmetrizes_near_hermitian():
    a = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]], dtype=complex)
    m = HermitianMatrix.from_array(a)
    assert np.array_equal(m.entries, m.entries.conj().T)
    # far from Hermitian is refused
    with pytest.raises(UsageError):
        HermitianMatrix.from_array(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_operands_of_different_dimension_are_refused():
    a = HermitianMatrix(np.eye(2))
    b = HermitianMatrix(np.eye(3))
    with pytest.raises(UsageError, match="dimension mismatch: 2 vs 3"):
        evaluate_connection(geometric_spec(8), a, b)
    with pytest.raises(UsageError, match="dimension mismatch: 2 vs 3"):
        affine_path(a, b)


def test_eigendecompose_frozen_example():
    # [[2,4],[4,6]] has eigenvalues 4 -+ sqrt(20)
    m = HermitianMatrix(np.array([[2.0, 4.0], [4.0, 6.0]], dtype=complex))
    dec = eigendecompose(m)
    np.testing.assert_allclose(
        dec.eigenvalues, [4.0 - math.sqrt(20.0), 4.0 + math.sqrt(20.0)], atol=1e-12
    )
    u, lam = dec.unitary, dec.eigenvalues
    np.testing.assert_allclose(u @ np.diag(lam) @ u.conj().T, m.entries, atol=1e-12)


def test_eigendecompose_sorted_ascending():
    rng = np.random.default_rng(11)
    m = random_hermitian(6, Interval(-5.0, 5.0), rng)
    lam = eigendecompose(m).eigenvalues
    assert np.all(np.diff(lam) >= 0.0)


def test_is_psd_relative_tolerance_across_scales():
    # a tiny negative eigenvalue only counts relative to the norm
    big = np.diag([1e8, -1e-3]).astype(complex)
    assert min_eig_scaled(big) >= -PSD_TOL  # -1e-3 / 1e8 = 1e-11 < 1e-9
    small = np.diag([1.0, -1e-3]).astype(complex)
    assert min_eig_scaled(small) < -PSD_TOL
    # below unit norm the floor is absolute: max(1, ||M||) = 1
    assert min_eig_scaled(np.diag([1e-3, -2e-4]).astype(complex)) == -2e-4


def test_loewner_leq_and_spectrum():
    a = HermitianMatrix(np.diag([1.0, 2.0]).astype(complex))
    b = HermitianMatrix(np.diag([1.5, 2.0]).astype(complex))
    assert min_eig_scaled(b.entries - a.entries) >= -PSD_TOL
    assert min_eig_scaled(a.entries - b.entries) < -PSD_TOL
    assert _spectrum_in(a.entries, Interval(0.5, 2.5))
    assert not _spectrum_in(a.entries, Interval(1.5, 2.5))


def test_random_unitary_is_unitary_and_seeded():
    u1 = _qr_unitary(_complex_normal(5, np.random.default_rng(42)))
    u2 = _qr_unitary(_complex_normal(5, np.random.default_rng(42)))
    assert np.array_equal(u1, u2)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(5), atol=1e-12)


def test_random_hermitian_spectrum_containment():
    iv = Interval(0.2, 7.0)
    for seed in range(20):
        m = random_hermitian(5, iv, seed)
        assert _spectrum_in(m.entries, iv)
        assert np.array_equal(m.entries, m.entries.conj().T)


def test_random_ordered_pair_orders_and_contains():
    iv = Interval(0.1, 10.0)
    for seed in range(25):
        a, b = random_ordered_pair(4, iv, seed)
        assert _spectrum_in(a.entries, iv)
        assert _spectrum_in(b.entries, iv)
        diff = np.linalg.eigvalsh(b.entries - a.entries)
        assert diff[0] >= -1e-12


def test_random_ordered_pair_deterministic():
    a1, b1 = random_ordered_pair(3, Interval(0.5, 4.0), 99)
    a2, b2 = random_ordered_pair(3, Interval(0.5, 4.0), 99)
    assert np.array_equal(a1.entries, a2.entries)
    assert np.array_equal(b1.entries, b2.entries)


def test_random_generation_needs_bounded_interval():
    with pytest.raises(UsageError):
        random_hermitian(3, POSITIVE_AXIS, 1)
    with pytest.raises(UsageError):
        random_ordered_pair(3, POSITIVE_AXIS, 1)


def test_stacked_eigh_equals_single_decompositions():
    mats = [random_hermitian(4, Interval(-3.0, 3.0), seed) for seed in range(5)]
    lam, u = _eigh_checked(np.stack([m.entries for m in mats]))
    for k, m in enumerate(mats):
        dec = eigendecompose(m)
        assert lam[k].tobytes() == dec.eigenvalues.tobytes()
        assert u[k].tobytes() == dec.unitary.tobytes()


def test_stacked_check_rejects_non_hermitian_slices():
    good = random_hermitian(3, Interval(0.5, 2.0), 1).entries
    bad = good.copy()
    bad[0, 1] += 1e-15
    _require_hermitian(np.stack([good, good]))
    with pytest.raises(UsageError, match="not Hermitian"):
        _require_hermitian(np.stack([good, bad]))
    bad = good.copy()
    bad[2, 2] = np.inf
    with pytest.raises(UsageError, match="finite"):
        _require_hermitian(np.stack([good, bad]))
