import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab.errors import NumericalFailure, UsageError
from loewnerlab.functions import (
    OPERATOR_MONOTONE,
    Mollifier,
    ScalarFunction,
    catalog,
    catalog_names,
    get_function,
    mollify,
    mollify_derivative,
    standard_mollifier,
)
from loewnerlab.hermitian import Interval

# integral of exp(-1/(1-x^2)) over (-1, 1), computed once offline to 16 digits
BUMP_MASS = 0.4439938161680793


def test_catalog_contains_the_usual_suspects():
    names = catalog_names()
    for expected in ("id", "const1", "sqrt", "arithmetic", "harmonic_rep",
                     "square", "cube", "exp", "power:0.5", "kernel:0.5"):
        assert expected in names
    assert len(names) == len(set(names))


def test_get_function_families():
    f = get_function("power:0.3")
    assert f.name == "power:0.3"
    np.testing.assert_allclose(f(8.0), 8.0**0.3, rtol=1e-15)
    g = get_function("kernel:0.1")
    np.testing.assert_allclose(g(2.0), 2.0 / (0.1 + 0.9 * 2.0), rtol=1e-15)


def test_get_function_rejects_garbage():
    with pytest.raises(UsageError, match="available"):
        get_function("nosuchfunction")
    with pytest.raises(UsageError):
        get_function("power:1.5")
    with pytest.raises(UsageError):
        get_function("kernel:-0.2")
    with pytest.raises(UsageError):
        get_function("power:abc")


def test_kernel_half_frozen_values():
    f = get_function("kernel:0.5")
    np.testing.assert_allclose(f(2.0), 4.0 / 3.0, rtol=1e-15)
    np.testing.assert_allclose(f.deriv(2.0), 2.0 / 9.0, rtol=1e-15)
    np.testing.assert_allclose(f.deriv2(2.0), -4.0 / 27.0, rtol=1e-15)


def test_closed_derivatives_match_finite_differences():
    """Every closed-form d1/d2 in the catalog agrees with a central difference."""
    for f in catalog():
        for x in (0.3, 1.0, 2.7):
            if f.d1 is not None:
                h = 1e-6 * max(1.0, x)
                fd = (f(x + h) - f(x - h)) / (2.0 * h)
                assert abs(f.deriv(x) - fd) <= 1e-6 * (1.0 + abs(fd))
            if f.d2 is not None:
                h = 1e-4 * max(1.0, x)
                fd2 = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
                assert abs(f.deriv2(x) - fd2) <= 1e-5 * (1.0 + abs(fd2))


def test_fd_fallback_when_no_closed_form():
    f = ScalarFunction("loc", Interval(0.0, 10.0), lambda t: t * t * t)
    np.testing.assert_allclose(f.deriv(2.0), 12.0, rtol=1e-9)
    np.testing.assert_allclose(f.deriv2(2.0), 12.0, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=9.0))
def test_negated_flips_value_and_derivatives(x):
    f = get_function("sqrt")
    g = f.negated()
    assert g(x) == -f(x)
    assert g.deriv(x) == -f.deriv(x)
    assert g.deriv2(x) == -f.deriv2(x)
    assert g.claimed_class != OPERATOR_MONOTONE


def test_mollifier_normalization_and_symmetry():
    m = standard_mollifier()
    np.testing.assert_allclose(m.normalizer, 1.0 / BUMP_MASS, rtol=1e-10)
    assert m.density(1.0) == 0.0
    assert m.density(-1.2) == 0.0
    for x in (0.0, 0.3, 0.77):
        np.testing.assert_allclose(m.density(x), m.density(-x), rtol=1e-15)
        # odd derivative
        np.testing.assert_allclose(m.density_deriv(x), -m.density_deriv(-x),
                                   rtol=1e-15)


def test_mollify_reproduces_affine_functions():
    # convolution with an even unit-mass kernel fixes affine functions
    f = ScalarFunction("affine", Interval(-10.0, 10.0), lambda t: 3.0 * t + 2.0)
    np.testing.assert_allclose(mollify(f, 0.25, 1.0), 5.0, atol=1e-10)
    np.testing.assert_allclose(mollify_derivative(f, 0.25, 1.0), 3.0, atol=1e-9)


def test_mollify_raises_when_quadrature_does_not_settle():
    # the kink of |t| at x keeps Gauss-Legendre from settling by 1024 nodes
    f = ScalarFunction("abs", Interval(-10.0, 10.0), abs)
    with pytest.raises(NumericalFailure):
        mollify(f, 0.5, 0.0)


def test_mollify_window_must_fit_in_domain():
    f = get_function("sqrt")
    with pytest.raises(UsageError):
        mollify(f, 0.1, 0.05)
    with pytest.raises(UsageError):
        mollify(f, -0.1, 1.0)
    # same guard on the derivative path
    with pytest.raises(UsageError):
        mollify_derivative(f, 2.0, 1.0)


def test_mollify_derivative_matches_difference_of_mollified():
    f = get_function("sqrt")
    eps, x, h = 0.05, 2.0, 1e-5
    fd = (mollify(f, eps, x + h) - mollify(f, eps, x - h)) / (2.0 * h)
    np.testing.assert_allclose(mollify_derivative(f, eps, x), fd, atol=1e-8)


def test_custom_mollifier_is_used():
    # the raised-cosine kernel (1 + cos pi x)/2 has unit mass already
    cosb = Mollifier(
        profile=lambda x: 0.0 if abs(x) >= 1.0 else 0.5 * (1.0 + math.cos(math.pi * x)),
        profile_deriv=lambda x: 0.0 if abs(x) >= 1.0 else -0.5 * math.pi * math.sin(math.pi * x),
        normalizer=1.0,
    )
    f = ScalarFunction("affine", Interval(-5.0, 5.0), lambda t: 2.0 * t)
    np.testing.assert_allclose(mollify(f, 0.5, 1.0, mollifier=cosb), 2.0, atol=1e-9)
    np.testing.assert_allclose(
        mollify_derivative(f, 0.5, 1.0, mollifier=cosb), 2.0, atol=1e-8
    )
