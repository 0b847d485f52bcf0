import numpy as np
import pytest

import reference_divdiff as ref

from loewnerlab.calculus import (
    affine_path,
    apply_function,
    path_derivative,
    path_second_derivative,
)
from loewnerlab.errors import NumericalFailure, UsageError
from loewnerlab.functions import ScalarFunction, get_function
from loewnerlab.hermitian import (
    HermitianMatrix,
    Interval,
    hermitian_part,
    random_hermitian,
)

WIDE = Interval(-100.0, 100.0)
SQUARE = ScalarFunction("local_square", WIDE, lambda t: t * t,
                        lambda t: 2.0 * t, lambda t: 2.0)


def _herm(arr):
    return HermitianMatrix(np.asarray(arr, dtype=np.complex128))


def test_apply_sqrt_frozen():
    # [[5,4],[4,5]] has sqrt [[2,1],[1,2]]
    a = _herm([[5.0, 4.0], [4.0, 5.0]])
    r = apply_function(get_function("sqrt"), a)
    np.testing.assert_allclose(r.entries, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
    np.testing.assert_allclose((r.entries @ r.entries).real, a.entries.real,
                               atol=1e-12)


def test_apply_function_checks_spectrum():
    a = _herm(np.diag([1.0, -2.0]))
    with pytest.raises(UsageError):
        apply_function(get_function("sqrt"), a)


def test_apply_function_with_an_infinite_value_is_a_quiet_numerical_failure():
    # square(1e200) = inf, and inf * 0 in U f(L) U* is nan; RuntimeWarnings
    # are errors under this suite's pytest settings
    a = _herm(1e200 * np.eye(2))
    with pytest.raises(NumericalFailure, match=r"square\(A\) has a non-finite entry"):
        apply_function(get_function("square"), a)


def test_apply_function_diagonal_case():
    f = get_function("kernel:0.5")
    a = _herm(np.diag([1.0, 2.0, 3.0]))
    r = apply_function(f, a)
    np.testing.assert_allclose(r.entries, np.diag([f(1.0), f(2.0), f(3.0)]),
                               atol=1e-14)


def test_square_path_derivative_is_ah_plus_ha():
    """For f(t)=t^2 the chain rule collapses to gamma' gamma + gamma gamma'."""
    rng = np.random.default_rng(5)
    a = random_hermitian(4, Interval(1.0, 4.0), rng)
    h = random_hermitian(4, Interval(-1.0, 1.0), rng)
    got = path_derivative(SQUARE, affine_path(a, h), 0.0)
    expected = a.entries @ h.entries + h.entries @ a.entries
    np.testing.assert_allclose(got.entries, expected, atol=1e-10)


def test_square_path_second_derivative_is_2hh():
    rng = np.random.default_rng(6)
    a = random_hermitian(3, Interval(1.0, 4.0), rng)
    h = random_hermitian(3, Interval(-1.0, 1.0), rng)
    got = path_second_derivative(SQUARE, affine_path(a, h), 0.0)
    np.testing.assert_allclose(got.entries, 2.0 * h.entries @ h.entries,
                               atol=1e-10)


def test_path_derivative_matches_finite_difference():
    rng = np.random.default_rng(17)
    a = random_hermitian(4, Interval(1.0, 4.0), rng)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = HermitianMatrix(hermitian_part(z) / np.linalg.norm(hermitian_part(z), 2))
    f = get_function("sqrt")
    path = affine_path(a, h)
    step = 1e-5
    fd = (apply_function(f, path.value(step)).entries
          - apply_function(f, path.value(-step)).entries) / (2.0 * step)
    got = path_derivative(f, path, 0.0)
    np.testing.assert_allclose(got.entries, fd, atol=1e-8)


def test_path_second_derivative_matches_finite_difference():
    rng = np.random.default_rng(18)
    a = random_hermitian(3, Interval(1.0, 4.0), rng)
    h = random_hermitian(3, Interval(-0.5, 0.5), rng)
    f = get_function("kernel:0.5")
    path = affine_path(a, h)
    step = 1e-4
    fd = (apply_function(f, path.value(step)).entries
          - 2.0 * apply_function(f, path.value(0.0)).entries
          + apply_function(f, path.value(-step)).entries) / (step * step)
    got = path_second_derivative(f, path, 0.0)
    np.testing.assert_allclose(got.entries, fd, atol=1e-6)


def test_derivative_of_commuting_family_is_scalar_rule():
    # gamma(t) = A + tA commutes with itself: derivative is f'(A) gamma'
    a = _herm(np.diag([1.0, 2.0, 5.0]))
    f = get_function("sqrt")
    got = path_derivative(f, affine_path(a, a), 0.0)
    expected = np.diag([f.deriv(x) * x for x in (1.0, 2.0, 5.0)])
    np.testing.assert_allclose(got.entries, expected, atol=1e-12)


def test_frechet_derivative_is_hermitian_and_linear():
    rng = np.random.default_rng(8)
    a = random_hermitian(4, Interval(0.5, 3.0), rng)
    h1 = random_hermitian(4, Interval(-1.0, 1.0), rng)
    h2 = random_hermitian(4, Interval(-1.0, 1.0), rng)
    f = get_function("sqrt")

    def frechet(h):
        return path_derivative(f, affine_path(a, h), 0.0)

    d1 = frechet(h1)
    assert np.array_equal(d1.entries, d1.entries.conj().T)
    lhs = frechet(HermitianMatrix(h1.entries + h2.entries))
    np.testing.assert_allclose(lhs.entries, d1.entries + frechet(h2).entries, atol=1e-9)


def test_path_value_spectrum_guard_on_derivatives():
    a = _herm(np.diag([0.5, 1.0]))
    h = _herm(np.diag([-1.0, 0.0]))
    path = affine_path(a, h)
    with pytest.raises(UsageError):
        path_derivative(get_function("sqrt"), path, 1.0)  # eigenvalue -0.5


def _counted(f, counter):
    """f with every call of its value and derivative callables counted."""
    def wrap(g):
        if g is None:
            return None

        def c(x):
            counter[0] += 1
            return g(x)
        return c

    return ScalarFunction(f.name, f.domain, wrap(f.fn), wrap(f.d1), wrap(f.d2))


@pytest.mark.parametrize("n", [8, 32])
def test_chain_rule_evaluates_f_once_per_eigenvalue(n):
    # no closed-form f'': each triple coincidence i = j = k costs three calls
    sqrt = get_function("sqrt")
    f = ScalarFunction("sqrt_fd2", sqrt.domain, sqrt.fn, sqrt.d1)
    rng = np.random.default_rng(n)
    path = affine_path(random_hermitian(n, Interval(0.25, 4.0), rng),
                       random_hermitian(n, Interval(-1.0, 1.0), rng))
    counter = [0]
    path_derivative(_counted(f, counter), path, 0.0)
    assert counter[0] <= 2 * n
    counter[0] = 0
    path_second_derivative(_counted(f, counter), path, 0.0)
    assert counter[0] <= 5 * n


def _scalar_loop_second_derivative(f, path, t):
    """The chain rule with one reference scalar dd2 call per entry."""
    g = path.value(t)
    lam, u = np.linalg.eigh(g.entries)
    n = len(lam)
    c = hermitian_part(u.conj().T @ path.h.entries @ u)
    s = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        d2k = np.array([[ref.dd2(f, lam[i], lam[j], lam[k]) for j in range(n)]
                        for i in range(n)])
        s += 2.0 * d2k * np.outer(c[:, k], c[:, k].conj())
    return hermitian_part(u @ s @ u.conj().T)


@pytest.mark.parametrize("spectrum", [
    [1.0, 2.0, 3.5, 0.7],
    [1.0, 1.0, 2.0, 3.0],
    [2.0, 2.0 + 1e-8, 2.0, 0.5],
])
@pytest.mark.parametrize("name", ["sqrt", "kernel:0.25", "square"])
def test_path_second_derivative_equals_scalar_loop_bitwise(name, spectrum):
    f = get_function(name)
    rng = np.random.default_rng(9)
    a = _herm(np.diag(spectrum))
    h = random_hermitian(len(spectrum), Interval(-1.0, 1.0), rng)
    path = affine_path(a, h)
    got = path_second_derivative(f, path, 0.0).entries
    assert got.tobytes() == _scalar_loop_second_derivative(f, path, 0.0).tobytes()
