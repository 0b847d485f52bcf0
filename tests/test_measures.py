import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab.errors import UsageError
from loewnerlab.measures import (
    RadonMeasure01,
    default_lambda_grid,
    endpoint_masses,
    fit_measure,
    kernel01,
    kernel_inf,
    lambda_from_s,
    synthesize,
)

half_line = RadonMeasure01.from_half_line


def test_measure_validation():
    with pytest.raises(UsageError):
        RadonMeasure01(atoms=())
    with pytest.raises(UsageError):
        RadonMeasure01(atoms=((1.5, 1.0),))
    with pytest.raises(UsageError):
        RadonMeasure01(atoms=((0.5, -1.0),))
    with pytest.raises(UsageError):
        RadonMeasure01(atoms=((0.5, 1.0), (0.5, 2.0)))  # duplicate position
    with pytest.raises(UsageError):
        half_line()  # no mass at all
    with pytest.raises(UsageError):
        half_line(mass0=-0.1)
    for s in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(UsageError):
            half_line(interior=((s, 1.0),))
    with pytest.raises(UsageError, match="duplicate"):
        half_line(interior=((2.0, 0.5), (2.0, 0.25)))
    # s = 1e17 rounds to lam = 1, where massInf already sits; its 1 - lam is lost
    with pytest.raises(UsageError, match="massInf"):
        half_line(mass_inf=0.5, interior=((1e17, 0.5),))


def test_total_mass():
    mu = RadonMeasure01(atoms=((0.0, 0.25), (1.0, 0.5), (0.5, 0.25)))
    assert mu.total_mass() == 1.0
    m = half_line(0.1, 0.2, ((1.0, 0.7),))
    np.testing.assert_allclose(m.total_mass(), 1.0, rtol=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_kernel01_is_exactly_one_at_t_one(lam):
    assert kernel01(lam, 1.0) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_kernel_inf_is_exactly_one_at_x_one(s):
    assert kernel_inf(s, 1.0) == 1.0


def test_kernel_endpoint_degenerations():
    # lam = 1 gives the identity, lam = 0 the constant 1
    for t in (0.2, 1.0, 17.0):
        assert kernel01(1.0, t) == t
        assert kernel01(0.0, t) == 1.0
    # s = inf gives the identity, s -> 0 the constant 1
    assert kernel_inf(math.inf, 3.0) == 3.0
    np.testing.assert_allclose(kernel_inf(1e-14, 3.0), 1.0, rtol=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-4, max_value=1e4),
       st.floats(min_value=1e-2, max_value=1e2))
def test_kernel_change_of_variables(s, x):
    lhs = kernel_inf(s, x)
    rhs = kernel01(lambda_from_s(s), x)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def _scalar_kernel_inf(s, x):
    """kernel_inf's scalar form on Python floats."""
    return float(x) if math.isinf(s) else x * (1.0 + s) / (x + s)


def _scalar_lambda_from_s(s):
    return 1.0 if math.isinf(s) else s / (1.0 + s)


def test_broadcast_s_references_equal_the_scalar_forms_bitwise():
    ss = np.append(np.geomspace(1e-12, 1e12, 97), [0.0, math.inf])
    xs = np.geomspace(1e-6, 1e6, 61)
    want = [[_scalar_kernel_inf(s, x) for x in xs.tolist()] for s in ss.tolist()]
    assert kernel_inf(ss[:, None], xs).tobytes() == np.array(want).tobytes()
    want = [_scalar_lambda_from_s(s) for s in ss.tolist()]
    assert lambda_from_s(ss).tobytes() == np.array(want).tobytes()
    assert kernel_inf(math.inf, xs).tobytes() == xs.tobytes()
    # scalar input gives a float, equal to the scalar form
    for s in ss.tolist():
        got = (kernel_inf(s, 2.5), lambda_from_s(s))
        assert got == (_scalar_kernel_inf(s, 2.5), _scalar_lambda_from_s(s))
        assert all(type(v) is float for v in got)


def test_substitution_roundtrip():
    for s in (1e-300, 0.5, 1.0, 123.0, 1e3):
        (back, w), = half_line(interior=((s, 1.0),)).interior
        np.testing.assert_allclose(back, s, rtol=1e-12)
        assert w == 1.0
    assert lambda_from_s(0.0) == 0.0
    assert lambda_from_s(math.inf) == 1.0
    # the endpoints are not interior: they are the alpha and beta views
    mu = half_line(0.5, 0.25)
    assert mu.atoms == ((0.0, 0.5), (1.0, 0.25))
    assert (mu.alpha, mu.beta, mu.interior) == (0.5, 0.25, ())


def test_synthesize_value_at_one_is_total_mass_bitwise():
    mu = RadonMeasure01(atoms=((0.0, 0.125), (0.3, 0.4), (1.0, 0.17), (0.6, 0.05)))
    f = synthesize(mu)
    assert f(1.0) == mu.total_mass()


def test_synthesize_values_and_derivative():
    mu = RadonMeasure01(atoms=((0.5, 1.0),))
    f = synthesize(mu)
    np.testing.assert_allclose(f(2.0), 4.0 / 3.0, rtol=1e-15)
    h = 1e-6
    fd = (f(2.0 + h) - f(2.0 - h)) / (2.0 * h)
    np.testing.assert_allclose(f.deriv(2.0), fd, atol=1e-9)
    fd2 = (f(2.0 + 1e-4) - 2.0 * f(2.0) + f(2.0 - 1e-4)) / 1e-8
    np.testing.assert_allclose(f.deriv2(2.0), fd2, atol=1e-6)


@pytest.mark.parametrize("t", [-2.0, 0.0, math.nan])
def test_synthesize_rejects_points_off_the_half_line(t):
    f = synthesize(RadonMeasure01(atoms=((0.0, 0.5), (0.5, 1.0))))
    with pytest.raises(UsageError, match="t > 0"):
        f(t)


@pytest.mark.parametrize("order", ["__call__", "deriv", "deriv2"])
@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan])
def test_synthesize_refuses_points_off_the_half_line_at_every_order(order, t):
    # at t = -1 the kernel at lam = 0.5 divides by zero; at t = 0 the
    # derivatives are finite numbers of a function not defined there
    f = synthesize(RadonMeasure01(atoms=((0.5, 1.0), (0.2, 0.5))))
    with pytest.raises(UsageError, match="t > 0"):
        getattr(f, order)(t)


def test_synthesize_derivatives_are_the_catalog_kernels():
    from loewnerlab.functions import get_function

    f = synthesize(RadonMeasure01(atoms=((0.25, 1.0),)))
    k = get_function("kernel:0.25")
    for t in np.geomspace(1e-3, 1e3, 25):
        assert (f(t), f.deriv(t), f.deriv2(t)) == (k(t), k.deriv(t), k.deriv2(t))


def test_from_half_line_preserves_positions_and_weights():
    mu = half_line(0.2, 0.3, ((1.0, 0.4), (3.0, 0.1)))
    got = dict(mu.atoms)
    assert got[0.0] == 0.2
    assert got[1.0] == 0.3
    assert got[0.5] == 0.4  # s = 1 -> lam = 1/2
    assert got[0.75] == 0.1  # s = 3 -> lam = 3/4
    assert mu.total_mass() == pytest.approx(1.0, rel=1e-15)
    assert (mu.alpha, mu.beta, mu.interior) == (0.2, 0.3, ((1.0, 0.4), (3.0, 0.1)))


def test_converted_synthesis_agrees_with_inf_kernels():
    f = synthesize(half_line(0.25, 0.25, ((2.0, 0.5),)))
    for x in np.geomspace(0.01, 100.0, 30):
        direct = (0.25 * 1.0 + 0.25 * x + 0.5 * kernel_inf(2.0, x))
        np.testing.assert_allclose(f(x), direct, rtol=1e-13)


def test_endpoint_masses_reads_back_the_atoms():
    f = synthesize(half_line(0.3, 0.2, ((1.0, 0.5),)))
    m0, mi = endpoint_masses(f)
    np.testing.assert_allclose(m0, 0.3, atol=1e-4)
    np.testing.assert_allclose(mi, 0.2, atol=1e-4)


def test_endpoint_masses_clamps_tiny_negatives():
    # 2t/(1+t) has zero mass at both ends; extrapolation noise may go negative
    import warnings

    mu = RadonMeasure01(atoms=((0.5, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamp warning is expected noise here
        m0, mi = endpoint_masses(synthesize(mu))
    assert m0 >= 0.0 and mi >= 0.0
    assert m0 < 1e-4 and mi < 1e-4


def test_endpoint_masses_needs_wide_domain():
    from loewnerlab.functions import ScalarFunction
    from loewnerlab.hermitian import Interval

    f = ScalarFunction("narrow", Interval(0.5, 2.0), lambda t: t)
    with pytest.raises(UsageError):
        endpoint_masses(f)


def test_default_grid_shape():
    g = default_lambda_grid(50)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0.0)
    # quadratic clustering at the ends: first gap way below uniform spacing
    assert g[1] < 1.0 / 49.0 / 10.0
    with pytest.raises(UsageError):
        default_lambda_grid(1)


def test_fit_exact_sparse_recovery():
    grid = default_lambda_grid(60)
    true_atoms = ((grid[0], 0.5), (grid[30], 0.3), (grid[59], 0.2))
    f = synthesize(RadonMeasure01(atoms=true_atoms))
    ts = np.geomspace(0.05, 50.0, 40)
    mu, res = fit_measure([(t, f(t)) for t in ts], grid)
    assert res < 1e-10
    got = dict(mu.atoms)
    for lam, w in true_atoms:
        assert lam in got
        np.testing.assert_allclose(got[lam], w, atol=1e-8)
    assert abs(mu.total_mass() - 1.0) < 1e-8


def test_fit_arithmetic_mean_splits_even():
    # (1 + t)/2 = 0.5 * kernel(0) + 0.5 * kernel(1)
    ts = np.geomspace(0.1, 10.0, 25)
    mu, res = fit_measure([(t, (1.0 + t) / 2.0) for t in ts],
                          default_lambda_grid(40))
    assert res < 1e-9
    got = dict(mu.atoms)
    np.testing.assert_allclose(got[0.0], 0.5, atol=1e-7)
    np.testing.assert_allclose(got[1.0], 0.5, atol=1e-7)


def test_fit_mass_constraint_is_exact():
    f = synthesize(RadonMeasure01(atoms=((0.25, 0.6), (0.75, 0.4))))
    ts = np.geomspace(0.1, 10.0, 30)
    mu, _ = fit_measure([(t, f(t)) for t in ts], default_lambda_grid(80),
                        mass_constraint=1.0)
    assert mu.total_mass() == 1.0


def test_fit_sqrt_small_residual():
    ts = np.geomspace(0.01, 100.0, 80)
    mu, res = fit_measure([(t, math.sqrt(t)) for t in ts],
                          default_lambda_grid(200))
    assert res < 1e-6
    g = synthesize(mu)
    for t in (0.5, 2.0, 42.0):
        np.testing.assert_allclose(g(t), math.sqrt(t), rtol=1e-5)


def test_fit_input_validation():
    grid = default_lambda_grid(10)
    with pytest.raises(UsageError):
        fit_measure([], grid)
    with pytest.raises(UsageError):
        fit_measure([(1.0, 1.0)], np.array([]))
    with pytest.raises(UsageError):
        fit_measure([(-1.0, 1.0)], grid)
    with pytest.raises(UsageError):
        fit_measure([(1.0, -1.0)], grid)
    with pytest.raises(UsageError):
        fit_measure([(1.0, 1.0)], np.array([0.5, 0.5]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError):
            fit_measure([(1.0, 1.0)], np.array([0.0, bad, 1.0]))
        with pytest.raises(UsageError):
            fit_measure([(bad, 1.0)], grid)
        with pytest.raises(UsageError):
            fit_measure([(1.0, bad)], grid)
