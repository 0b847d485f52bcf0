import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab import functions
from loewnerlab.errors import NumericalFailure, UsageError
from loewnerlab.functions import (
    OPERATOR_MONOTONE,
    ScalarFunction,
    _array_form,
    _density,
    _density_deriv,
    _kernel_table,
    _leggauss,
    _node_values,
    _normalizer,
    catalog,
    catalog_names,
    get_function,
    mollify,
    mollify_derivative,
)
from loewnerlab.hermitian import Interval
from loewnerlab.measures import RadonMeasure01, default_lambda_grid, fit_measure, synthesize
from loewnerlab.monotonicity import transform_involution

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
    np.testing.assert_allclose(_density(0.0), math.exp(-1.0) / BUMP_MASS, rtol=1e-10)
    assert _density(1.0) == 0.0
    assert _density(-1.2) == 0.0
    for x in (0.0, 0.3, 0.77):
        np.testing.assert_allclose(_density(x), _density(-x), rtol=1e-15)
        # odd derivative
        np.testing.assert_allclose(_density_deriv(x), -_density_deriv(-x),
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


# ---------------------------------------------------------------------------
# The vector quadrature against a node-by-node reference sum


def _pointwise_gl(g, start=64, stop_tol=1e-10, cap=1024):
    """Adaptive Gauss-Legendre with the integrand called once per node."""
    n = start
    nodes, w = np.polynomial.legendre.leggauss(n)
    prev = float(np.sum(w * np.array([g(y) for y in nodes])))
    while n < cap:
        n *= 2
        nodes, w = np.polynomial.legendre.leggauss(n)
        cur = float(np.sum(w * np.array([g(y) for y in nodes])))
        if abs(cur - prev) < stop_tol:
            return cur
        prev = cur
    raise AssertionError("reference quadrature did not settle")


_AFFINE_PROBE = ScalarFunction("affine_probe", Interval(0.1, 10.0), lambda t: 3.0 * t + 2.0)


@pytest.mark.parametrize("mol", [None])
@pytest.mark.parametrize("f", [get_function("sqrt"), _AFFINE_PROBE], ids=["sqrt", "affine"])
@pytest.mark.parametrize("eps, x", [(0.1, 1.0), (0.05, 1.7), (0.01, 2.93), (0.5, 3.2)])
def test_mollify_equals_pointwise_reference_bitwise(f, mol, eps, x):
    ref = _pointwise_gl(lambda y: f(x - eps * y) * _density(y))
    ref_d = _pointwise_gl(lambda y: f(x - eps * y) * _density_deriv(y)) / eps
    assert mollify(f, eps, x) == ref
    assert mollify_derivative(f, eps, x) == ref_d


def test_kernel_tables_are_built_once_and_read_only(monkeypatch):
    calls = {"profile": 0, "profile_deriv": 0}

    def counting(name, g):
        def h(x):
            calls[name] += 1
            return g(x)
        return h

    _normalizer()  # the normalizer's own quadrature is not counted
    _kernel_table.cache_clear()
    monkeypatch.setattr(functions, "_bump", counting("profile", functions._bump))
    monkeypatch.setattr(functions, "_bump_deriv",
                        counting("profile_deriv", functions._bump_deriv))
    f = ScalarFunction("affine", Interval(-10.0, 10.0), lambda t: 3.0 * t + 2.0)
    mollify(f, 0.25, 1.0)
    # one table at the 64 nodes of the first level and one at 128, where it settles
    assert calls == {"profile": 64 + 128, "profile_deriv": 0}
    mollify(f, 0.25, 2.5)
    assert calls == {"profile": 192, "profile_deriv": 0}
    # the derivative's table is separate; its quadrature settles at 256 nodes
    mollify_derivative(f, 0.25, 2.5)
    assert calls == {"profile": 192, "profile_deriv": 64 + 128 + 256}
    mollify_derivative(f, 0.25, -1.0)
    assert calls == {"profile": 192, "profile_deriv": 448}
    # the cached tables and the node vectors handed to integrands are read-only
    for table in (_kernel_table(_density, 64), *_leggauss(64)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_mollify_overflow_names_function_and_point():
    f = get_function("exp")
    for fn in (mollify, mollify_derivative):
        with pytest.raises(NumericalFailure, match=re.escape("exp(710.4993050417357) overflows")):
            fn(f, 1.0, 709.5)


# ---------------------------------------------------------------------------
# Array forms behind _node_values


@functools.lru_cache(maxsize=1)
def _sqrt_measure():
    """The 55-atom NNLS measure fitted to sqrt."""
    samples = [(float(t), math.sqrt(t)) for t in np.geomspace(1e-3, 1e3, 100)]
    mu = fit_measure(samples, default_lambda_grid(200))[0]
    assert len(mu.atoms) == 55
    return mu


def _form_owners():
    """Every kind of ScalarFunction that declares an array form."""
    owners = [f for f in catalog() if any(f.array_forms)]
    owners += [get_function("kernel:0.3"), synthesize(_sqrt_measure()),
               # atoms at 0 and 1 only: every f'' term is -0.0, the sum 0.0
               synthesize(RadonMeasure01(((0.0, 0.5), (1.0, 0.5))))]
    owners += [f.negated() for f in owners[:4]]
    owners += [transform_involution(get_function(n)) for n in ("sqrt", "kernel:0.25", "square")]
    return owners


# a dense log grid over the positive floats, subnormals included, with -0.0 and 1.0
FORM_GRID = np.concatenate([np.geomspace(5e-324, 1.7e308, 5001), [-0.0, 1.0]])


def test_catalog_declares_exactly_the_exact_forms():
    declared = {f.name: tuple(a is not None for a in f.array_forms) for f in catalog()}
    every, none = (True, True, True), (False, False, False)
    assert declared == {
        "id": every, "const1": every, "arithmetic": every, "square": every,
        "sqrt": (True, True, False), "harmonic_rep": (True, False, False),
        "cube": none, "exp": none, "power:0.25": none, "power:0.5": none,
        "power:0.75": none, **{f"kernel:{lam:g}": every for lam in (0, 0.25, 0.5, 0.75, 1)},
    }


@pytest.mark.parametrize("f", _form_owners(), ids=lambda f: f.name)
def test_array_forms_equal_their_scalar_forms_bitwise(f):
    assert any(f.array_forms)
    for g in (f, f.deriv, f.deriv2):
        form = _array_form(g)
        if form is None:
            continue
        xs, want = [], []
        for x in FORM_GRID.tolist():
            try:
                want.append(g(x))
            except (UsageError, NumericalFailure, ValueError):
                continue  # the route falls back to g at x
            xs.append(x)
        with np.errstate(all="ignore"):
            got = form(np.array(xs))
        assert len(xs) > 3000 and got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes(), g


def test_node_values_keep_shape_and_never_alias_the_input():
    ts = np.linspace(0.5, 4.0, 12).reshape(3, 4)
    for f in (get_function("id"), get_function("sqrt"), synthesize(_sqrt_measure())):
        out = _node_values(f, ts)
        assert out.shape == ts.shape and not np.shares_memory(out, ts)
        assert out.tobytes() == np.array([f(x) for x in ts.ravel().tolist()]).reshape(3, 4).tobytes()


def _outcome(call):
    """A call's float64 bytes, or its exception's class and message."""
    try:
        return np.asarray(call(), dtype=np.float64).tobytes()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


HOSTILE_PROBES = [
    ("mix", 0, -1.0), ("mix", 0, math.nan), ("mix", 0, 1e-300), ("mix", 1, -1.0),
    ("mix", 2, math.nan), ("sqrt", 0, -1.0), ("sqrt", 1, 0.0), ("square", 0, 1e200),
    ("kernel:0", 1, 1e-200), ("id", 0, -0.0), ("id", 0, 5e-324),
    ("sqrt", 0, math.inf), ("sqrt", 0, -math.inf), ("sqrt", 0, math.nan),
]


@pytest.mark.parametrize("name,order,x", HOSTILE_PROBES)
def test_hostile_probes_return_or_raise_alike_on_both_routes(name, order, x):
    f = synthesize(_sqrt_measure()) if name == "mix" else get_function(name)
    g = (f, f.deriv, f.deriv2)[order]
    assert _array_form(g) is not None
    ts = np.array([[2.0, x], [x, 3.0]])
    got = _outcome(lambda: _node_values(g, ts))
    want = _outcome(lambda: np.array([g(t) for t in ts.ravel().tolist()]).reshape(ts.shape))
    assert got == want


def test_mixture_at_one_is_total_mass_on_both_routes():
    for m in (_sqrt_measure(), RadonMeasure01(((0.7, 0.3), (0.0, 0.1), (1.0, 0.6)))):
        f = synthesize(m)
        assert f(1.0) == m.total_mass()
        assert _node_values(f, np.ones(3)).tolist() == [m.total_mass()] * 3
