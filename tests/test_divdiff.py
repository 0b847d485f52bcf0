"""Divided differences against hand-computed values, the scalar reference
forms and mpmath."""

import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_divdiff as ref

from loewnerlab.divdiff import (
    TAU_NODE,
    NodeSet,
    _anchored_stack,
    _dd_tables,
    _loewner_stack,
    dd1,
    dd2,
    difference_quotient_transform,
    loewner_matrix,
    second_dd_matrix,
)
from loewnerlab.errors import NumericalFailure, UsageError
from loewnerlab.functions import ScalarFunction, _node_values, catalog_names, get_function
from loewnerlab.hermitian import POSITIVE_AXIS, Interval

WIDE = Interval(-100.0, 100.0)
CUBE = ScalarFunction("local_cube", WIDE, lambda t: t**3,
                      lambda t: 3.0 * t * t, lambda t: 6.0 * t)
SQUARE = ScalarFunction("local_square", WIDE, lambda t: t * t,
                        lambda t: 2.0 * t, lambda t: 2.0)

nodes_st = st.floats(min_value=0.1, max_value=50.0)


def _scalar_tables(f, ts, dd1=ref.dd1, dd2=ref.dd2):
    d1 = np.array([[dd1(f, s, t) for t in ts] for s in ts])
    d2 = np.array([[[dd2(f, a, b, c) for c in ts] for b in ts] for a in ts])
    return d1, d2


def assert_tables_match_scalar(f, ts):
    """_dd_tables over the sorted nodes (a spectrum), and the stacks and the
    public dd1/dd2 over the nodes as given, equal loops over the reference
    scalar dd1/dd2, bitwise."""
    d2 = _scalar_tables(f, sorted(ts))[1]
    assert _dd_tables(f, sorted(ts)).tobytes() == d2.tobytes()
    tables = _scalar_tables(f, ts)
    for got, want in zip(_scalar_tables(f, ts, dd1, dd2), tables):
        assert got.tobytes() == want.tobytes()
    assert_stacks_match_scalar(f, ts, *tables)


def assert_stacks_match_scalar(f, ts, d1, d2):
    """The Loewner and anchored stacks equal the scalar loops, bitwise."""
    t = np.array(ts)
    assert _loewner_stack(f, t).tobytes() == d1.tobytes()
    for k, anchor in enumerate(ts):
        m = _anchored_stack(f, t[None], np.array([anchor]))[0]
        assert m.tobytes() == d2[:, :, k].copy().tobytes()
    off = 0.5 * (min(ts) + max(ts)) + 0.123
    d2_off = np.array([[ref.dd2(f, a, b, off) for b in ts] for a in ts])
    assert _anchored_stack(f, t[None], np.array([off]))[0].tobytes() == d2_off.tobytes()
    # several rows at once: one matrix per row, each as if built alone
    rows, anchors = np.stack([t, t[::-1]]), np.array([ts[0], off])
    assert _loewner_stack(f, rows)[1].tobytes() == d1[::-1, ::-1].copy().tobytes()
    stack = _anchored_stack(f, rows, anchors)
    assert stack[0].tobytes() == d2[:, :, 0].copy().tobytes()
    assert stack[1].tobytes() == d2_off[::-1, ::-1].copy().tobytes()


def test_nodeset_validation():
    ns = NodeSet((1.0, 2.0, 3.0), Interval(0.0, 10.0))
    assert len(ns) == 3
    with pytest.raises(UsageError):
        NodeSet((), Interval(0.0, 1.0))
    with pytest.raises(UsageError):
        NodeSet((0.0,), Interval(0.0, 1.0))  # endpoint is not interior
    with pytest.raises(UsageError):
        NodeSet((5.0,), Interval(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(nodes_st, nodes_st)
def test_dd1_symmetric_bitwise(s, t):
    f = get_function("sqrt")
    assert dd1(f, s, t) == dd1(f, t, s)
    assert_tables_match_scalar(f, [s, t])


def test_dd1_values():
    f = get_function("sqrt")
    # (2 - 1) / (4 - 1) = 1/3
    np.testing.assert_allclose(dd1(f, 1.0, 4.0), 1.0 / 3.0, rtol=1e-15)
    # coincidence -> derivative
    assert dd1(f, 2.0, 2.0) == f.deriv(2.0)
    # near-coincidence takes the derivative limit at the midpoint
    t = 2.0 + 1e-9
    assert dd1(f, 2.0, t) == f.deriv(0.5 * (2.0 + t))


def test_tiny_nodes_keep_exact_values_for_functions_nonzero_at_0():
    # a coincidence rule must not leave f(s) - f(t) to cancel when f(0) != 0
    assert dd1(get_function("arithmetic"), 1e-300, 2e-300) == 0.5
    assert dd1(get_function("exp"), 1e-300, 2e-300) == 1.0
    assert dd2(get_function("arithmetic"), 1e-9, 2e-9, 3e-9) == 0.0
    assert math.isfinite(dd2(get_function("sqrt"), 1e-200, 2e-200, 3e-200))


def test_dd2_square_is_constant_one():
    for nodes in [(1.0, 2.0, 3.0), (0.5, 0.5, 7.0), (4.0, 4.0, 4.0)]:
        np.testing.assert_allclose(dd2(SQUARE, *nodes), 1.0, rtol=1e-12)


def test_dd2_cube_is_sum_of_nodes():
    # dd^2 of t^3 at (a, b, c) equals a + b + c
    np.testing.assert_allclose(dd2(CUBE, 0.0, 1.0, 2.0), 3.0, atol=1e-12)
    np.testing.assert_allclose(dd2(CUBE, 1.0, 1.0, 5.0), 7.0, atol=1e-12)
    np.testing.assert_allclose(dd2(CUBE, 2.0, 2.0, 2.0), 6.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(nodes_st, nodes_st, nodes_st)
def test_dd2_permutation_invariant_bitwise(a, b, c):
    f = get_function("sqrt")
    base = dd2(f, a, b, c)
    assert dd2(f, b, c, a) == base
    assert dd2(f, c, a, b) == base
    assert dd2(f, b, a, c) == base
    assert_tables_match_scalar(f, [a, b, c, a * (1.0 + TAU_NODE)])


GAP_BELOW = 0.5 * TAU_NODE * 2.0
GAP_ABOVE = 1.01 * TAU_NODE * 2.0


@pytest.mark.parametrize("ts", [
    [0.3, 1.7, 4.0, 9.5],                        # distinct
    [2.0, 1.0, 2.0, 3.0, 1.0],                   # exact ties, unsorted
    [2.0, 2.0 + GAP_BELOW, 0.5, 5.0],            # a gap below TAU_NODE * scale
    [2.0, 2.0 + GAP_ABOVE, 0.5, 5.0],            # a gap just above it
    [1.0, 1.0 + 0.4 * TAU_NODE, 1.0 + 0.8 * TAU_NODE, 3.0],  # near triple
    [3.0, 0.5, 3.0, 3.0],                        # triple ties
    [1.5],                                       # n = 1
    [1e-9, 4e-9, 2.5e-9, 1e-8],                  # all within TAU_NODE of each other
    [1e-200, 3e-200, 2e-200],                    # gap products underflow to 0
])
@pytest.mark.parametrize("name", ["sqrt", "kernel:0.25", "exp", "cube"])
def test_dd_tables_bitwise_equal_to_scalar(name, ts):
    assert_tables_match_scalar(get_function(name), ts)


def _raised(call):
    """The type of the exception call() raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("gap", [0.0, 1e-12, 5e-8, 1e-7, 2e-7, 1e-5])
@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e100, 1e300])
def test_kernels_equal_reference_on_near_coincident_nodes(scale, gap):
    # gaps relative to the coincidence scale max(1, |t|), on both sides of
    # TAU_NODE: exact ties, near pairs and triples, and a distinct node
    u = max(1.0, scale)
    ts = [scale, scale + gap * u, scale + 2.5 * gap * u, scale + gap * u, scale + 0.5 * u]
    for name in ("sqrt", "kernel:0.25", "kernel:0", "harmonic_rep", "exp", "cube"):
        f = get_function(name)
        raised = _raised(lambda: _scalar_tables(f, ts))
        if raised is None:
            assert_tables_match_scalar(f, ts)
        else:
            # exp, cube and harmonic_rep' overflow at large scales: every
            # route fails alike
            for call in (lambda: _scalar_tables(f, ts, dd1, dd2),
                         lambda: _loewner_stack(f, np.array(ts)),
                         lambda: _dd_tables(f, sorted(ts))):
                assert _raised(call) is raised


def test_dd_tables_finite_difference_derivatives_and_negative_nodes():
    # no closed-form derivatives: every limit goes through the FD fallbacks
    f = ScalarFunction("fd_cube", WIDE, lambda t: t**3)
    assert_tables_match_scalar(f, [-2.0, 1.0, -2.0, -2.0 + 1e-8, 0.0, 4.0])


def _counted(f):
    """f with the calls of its value, f' and f'' callables counted apart."""
    calls = {"f": 0, "d1": 0, "d2": 0}

    def wrap(key, g):
        def c(x):
            calls[key] += 1
            return g(x)
        return c

    g = ScalarFunction(f.name, f.domain, wrap("f", f.fn), wrap("d1", f.d1), wrap("d2", f.d2))
    return g, calls


def _counted_forms(f):
    """_counted(f) with counted array forms of its value and f' added."""
    g, calls = _counted(f)
    calls.update(f_array=0, d1_array=0)

    def wrap(key, form):
        def c(ts):
            calls[key] += 1
            return form(ts)
        return c

    fa, d1a, _ = f.array_forms
    return dataclasses.replace(g, array_forms=(wrap("f_array", fa), wrap("d1_array", d1a), None)), calls


@pytest.mark.parametrize("n", [1, 4, 8])
def test_stacks_evaluate_f_once_per_node(n):
    rows = 50
    ts = np.random.default_rng(n).uniform(0.1, 10.0, (rows, n))
    f, calls = _counted(get_function("sqrt"))
    _loewner_stack(f, ts)
    assert calls == {"f": rows * n, "d1": rows * n, "d2": 0}
    # an anchor off the nodes is one more node per row
    f, calls = _counted(get_function("sqrt"))
    _anchored_stack(f, ts, np.full(rows, 10.5))
    assert calls == {"f": rows * (n + 1), "d1": rows * (n + 1), "d2": 0}
    # anchored at a node, entry (0, 0) is a triple coincidence: one f'' per row
    f, calls = _counted(get_function("sqrt"))
    _anchored_stack(f, ts, ts[:, 0])
    assert calls == {"f": rows * (n + 1), "d1": rows * (n + 1), "d2": rows}
    # with array forms of f and f' declared, each stack calls each form once
    # and the scalar f and f' never; sqrt's f'' has no form and stays scalar
    for stack, d2 in ((lambda f: _loewner_stack(f, ts), 0),
                      (lambda f: _anchored_stack(f, ts, np.full(rows, 10.5)), 0),
                      (lambda f: _anchored_stack(f, ts, ts[:, 0]), rows)):
        f, calls = _counted_forms(get_function("sqrt"))
        stack(f)
        assert calls == {"f": 0, "d1": 0, "d2": d2, "f_array": 1, "d1_array": 1}


def test_derivative_dividing_by_zero_is_a_numerical_failure():
    # kernel:0' = 0 / (t t), and t t underflows to 0 below about 1e-162
    f = get_function("kernel:0")
    where = re.escape("kernel:0'(1e-200) divides by zero")
    with pytest.raises(NumericalFailure, match=where):
        loewner_matrix(f, NodeSet((1e-200, 3e-200), POSITIVE_AXIS))
    with pytest.raises(NumericalFailure, match=where):
        dd1(f, 1e-200, 1e-200)
    with pytest.raises(NumericalFailure, match=re.escape("sqrt'(0.0) divides by zero")):
        get_function("sqrt").deriv(0.0)


def test_dd2_coincident_pair_limit():
    # (f'(x) - dd1(f, y, x)) / (x - y) against the exact sqrt expression
    f = get_function("sqrt")
    x, y = 2.0, 5.0
    exact = (f.deriv(x) - (f(y) - f(x)) / (y - x)) / (x - y)
    np.testing.assert_allclose(dd2(f, x, x, y), exact, rtol=1e-14)


def test_loewner_matrix_sqrt_two_nodes():
    f = get_function("sqrt")
    ns = NodeSet((1.0, 4.0), Interval(0.0, 10.0))
    lm = loewner_matrix(f, ns)
    np.testing.assert_allclose(
        lm.entries, [[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]], rtol=1e-15
    )
    # det = 1/8 - 1/9 = 1/72 > 0
    np.testing.assert_allclose(np.linalg.det(lm.entries), 1.0 / 72.0, rtol=1e-12)
    assert np.linalg.eigvalsh(lm.entries)[0] > 0.0


def test_loewner_matrix_diagonal_is_exact_derivative():
    f = get_function("kernel:0.25")
    ns = NodeSet((0.5, 1.0, 2.0, 3.0), Interval(0.0, 10.0))
    lm = loewner_matrix(f, ns)
    for i, t in enumerate(ns.nodes):
        assert lm.entries[i, i] == f.deriv(t)
    assert np.array_equal(lm.entries, lm.entries.T)


def test_square_loewner_matrix_frozen():
    # nodes (1, 3): entries s + t -> [[2, 4], [4, 6]], det -4
    ns = NodeSet((1.0, 3.0), WIDE)
    lm = loewner_matrix(SQUARE, ns)
    np.testing.assert_allclose(lm.entries, [[2.0, 4.0], [4.0, 6.0]], atol=1e-13)
    assert np.linalg.eigvalsh(lm.entries)[0] < -0.4


def test_second_dd_matrix_cube_frozen():
    # dd2 of t^3 is a+b+c, so nodes (1, 2) anchored at 0 give [[2, 3], [3, 4]]
    ns = NodeSet((1.0, 2.0), WIDE)
    m = second_dd_matrix(CUBE, ns, 0.0)
    np.testing.assert_allclose(m.entries, [[2.0, 3.0], [3.0, 4.0]], atol=1e-12)


def test_second_dd_matrix_anchor_must_be_interior():
    ns = NodeSet((1.0, 2.0), Interval(0.0, 10.0))
    with pytest.raises(UsageError):
        second_dd_matrix(get_function("sqrt"), ns, -1.0)


def test_difference_quotient_transform():
    f = get_function("sqrt")
    g = difference_quotient_transform(f, 1.0)
    # g(t) = (sqrt(t) - 1) / (t - 1) = 1 / (sqrt(t) + 1)
    np.testing.assert_allclose(g(4.0), 1.0 / 3.0, rtol=1e-15)
    assert g(1.0) == f.deriv(1.0)
    np.testing.assert_allclose(g.deriv(4.0), dd2(f, 4.0, 4.0, 1.0), rtol=1e-15)
    with pytest.raises(UsageError):
        difference_quotient_transform(f, -3.0)


@pytest.mark.parametrize("name", ["sqrt", "kernel:0.25", "power:0.5", "exp"])
def test_difference_quotient_forms_equal_reference_bitwise(name):
    # at, next to and away from the base point; power:0.5 and exp have no
    # array forms of their own, so the kernels call them point by point
    f, t1 = get_function(name), 1.0
    ts = np.array([0.3, 1.0, 1.0 + 1e-9, 1.0 - 4e-8, 1.0 + 3e-7, 2.0, 7.5])
    g, g_ref = difference_quotient_transform(f, t1), ref.difference_quotient_transform(f, t1)
    value, slope, _ = g.array_forms
    values = np.array([g_ref(t) for t in ts.tolist()])
    slopes = np.array([g_ref.deriv(t) for t in ts.tolist()])
    assert value(ts).tobytes() == values.tobytes()
    assert slope(ts).tobytes() == slopes.tobytes()
    assert np.array([g(t) for t in ts.tolist()]).tobytes() == values.tobytes()
    assert np.array([g.deriv(t) for t in ts.tolist()]).tobytes() == slopes.tobytes()
    # _node_values hands 0-d arrays through as they are
    assert _node_values(g, np.array(ts[2])) == values[2]
    assert _node_values(g.deriv, np.array(ts[2])) == slopes[2]


def test_diffquot_loewner_matrix_equals_anchored_second_differences():
    """The Loewner matrix of t -> dd1(f, t, t1) is the dd2 matrix anchored at t1."""
    f = get_function("kernel:0.5")
    t1 = 1.5
    ns = NodeSet((0.7, 2.0, 3.1), Interval(0.0, 10.0))
    lhs = loewner_matrix(difference_quotient_transform(f, t1), ns).entries
    rhs = second_dd_matrix(f, ns, t1).entries
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


# t log t: f'' = 1/t is still nonzero (subnormal) just below the float maximum
XLOGX = ScalarFunction("local_xlogx", POSITIVE_AXIS, lambda t: t * math.log(t),
                       lambda t: math.log(t) + 1.0, lambda t: 1.0 / t)


def test_coincidence_limits_are_exact_near_the_float_maximum():
    # above ~8.99e307 the sum t + t overflows, so no limit may go through it
    f = get_function("sqrt")
    ts = (1e308, 1.5e308)
    m = loewner_matrix(f, NodeSet(ts, POSITIVE_AXIS)).entries
    assert np.diag(m).tolist() == [f.deriv(t) for t in ts]
    assert dd1(f, ts[1], ts[1]) == f.deriv(ts[1])
    # a near pair takes f' at its midpoint lo + (hi - lo) / 2
    hi = ts[1] * (1.0 + 0.5 * TAU_NODE)
    assert dd1(f, hi, ts[1]) == f.deriv(ts[1] + 0.5 * (hi - ts[1])) > 0.0
    # a triple coincidence takes f''/2 at the node
    assert dd2(XLOGX, ts[1], ts[1], ts[1]) == 0.5 * XLOGX.deriv2(ts[1]) > 0.0
    # tables and stacks stay bitwise equal to the reference scalar forms
    # there; an overflowing partial-fraction product gives its term the value 0
    assert_tables_match_scalar(f, [1e300, 1e308, 1.2e308, 1.5e308, hi, 1.5e308])


# ---------------------------------------------------------------------------
# The public dd1/dd2 against exact values in 50-digit mpmath


def _mp_kernel(lam):
    lam = mp.mpf(lam)
    return lambda t: t / (lam + (1 - lam) * t)


MP_FORMS = {
    "sqrt": mp.sqrt,
    **{f"power:{p:g}": (lambda p: lambda t: t ** mp.mpf(p))(p) for p in (0.25, 0.5, 0.75)},
    **{f"kernel:{lam:g}": _mp_kernel(lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)},
    "exp": mp.exp,
    "square": lambda t: t * t,
    "cube": lambda t: t**3,
    "arithmetic": lambda t: (1 + t) / 2,
    "harmonic_rep": lambda t: 2 * t / (1 + t),
    "id": lambda t: t,
    "const1": lambda t: mp.mpf(1),
}


EPS = float(np.finfo(np.float64).eps)


def _mp_dd1(g, s, t):
    """dd1 of g and the sum of the magnitudes its formula adds, which
    scales its rounding error."""
    if s == t:
        v = mp.diff(g, s)
        return v, abs(v)
    return (g(t) - g(s)) / (t - s), (abs(g(t)) + abs(g(s))) / abs(t - s)


def _mp_dd2(g, a, b, c):
    """dd2 of g and the sum of the magnitudes its formula adds."""
    t1, t2, t3 = sorted((a, b, c))
    if t1 == t3:
        v = mp.diff(g, t1, 2) / 2
        return v, abs(v)
    if t1 == t2 or t2 == t3:
        x, y = (t1, t3) if t1 == t2 else (t3, t1)
        d, q = mp.diff(g, x), _mp_dd1(g, y, x)
        return (d - q[0]) / (x - y), (abs(d) + q[1]) / abs(x - y)
    terms = [g(t1) / ((t1 - t2) * (t1 - t3)), g(t2) / ((t2 - t1) * (t2 - t3)),
             g(t3) / ((t3 - t1) * (t3 - t2))]
    return sum(terms), sum(map(abs, terms))


def _separated_triples(count, gap=0.05):
    rng = np.random.default_rng(2005)
    triples = []
    while len(triples) < count:
        t = rng.uniform(0.1, 10.0, 3)
        if np.diff(np.sort(t)).min() >= gap:
            triples.append(tuple(t.tolist()))
    return triples


def test_mpmath_forms_cover_the_catalog():
    assert sorted(MP_FORMS) == sorted(catalog_names())


@pytest.mark.parametrize("name", sorted(MP_FORMS))
def test_public_dd1_dd2_against_mpmath(name):
    # 1e-12 relative, or a few roundings of the magnitudes the formula adds
    # where its terms cancel (gaps of 0.05 under values up to e^10)
    f, g = get_function(name), MP_FORMS[name]
    worst = 0.0
    with mp.workdps(50):
        for a, b, c in _separated_triples(60):
            ma, mb, mc = map(mp.mpf, (a, b, c))
            for got, (exact, scale) in (
                (dd1(f, a, b), _mp_dd1(g, ma, mb)),
                (dd1(f, a, a), _mp_dd1(g, ma, ma)),
                (dd2(f, a, b, c), _mp_dd2(g, ma, mb, mc)),
                (dd2(f, a, a, b), _mp_dd2(g, ma, ma, mb)),
                (dd2(f, a, a, a), _mp_dd2(g, ma, ma, ma)),
            ):
                bound = max(1e-12 * max(1, abs(exact)), 16 * EPS * scale)
                worst = max(worst, float(abs(got - exact) / bound))
    assert worst <= 1.0


def test_distinct_nodes_never_evaluate_the_derivative():
    # kernel:0' = 0 / (t t) divides by zero at 1e-200, where no limit is taken
    f = get_function("kernel:0")
    assert dd1(f, 1e-200, 1.0) == 0.0
    assert dd2(f, 1e-200, 0.5, 1.0) == 0.0
