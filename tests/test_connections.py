"""Operator means by parallel sums and by the transfer, against closed forms and mpmath."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from loewnerlab import connections
from loewnerlab.connections import (
    CONDITION_CAP,
    arithmetic_spec,
    evaluate_connection,
    geometric_mean_closed_form,
    geometric_spec,
    harmonic_spec,
)
from loewnerlab.errors import NumericalFailure, UsageError
from loewnerlab.functions import get_function
from loewnerlab.hermitian import (
    HermitianMatrix,
    Interval,
    _complex_normal,
    _qr_unitary,
    hermitian_part,
    random_hermitian,
)
from loewnerlab.measures import RadonMeasure01, default_lambda_grid, fit_measure, synthesize

half_line = RadonMeasure01.from_half_line


def _herm(arr):
    return HermitianMatrix(np.asarray(arr, dtype=np.complex128))


def _pd_pair(seed, n=3):
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, Interval(0.5, 4.0), rng)
    b = random_hermitian(n, Interval(0.5, 4.0), rng)
    return a, b


def test_spec_validation():
    with pytest.raises(UsageError):
        half_line()
    with pytest.raises(UsageError):
        half_line(mass0=-0.5)
    with pytest.raises(UsageError):
        half_line(interior=((-1.0, 1.0),))
    with pytest.raises(UsageError):
        half_line(interior=((1.0, 0.0),))
    with pytest.raises(UsageError, match="duplicate"):
        half_line(interior=((1.0, 0.5), (1.0, 0.5)))
    spec = half_line(mass0=0.25, interior=((2.0, 0.75),))
    assert spec.total_mass() == 1.0
    assert (spec.alpha, spec.beta) == (0.25, 0.0)
    (s, w), = spec.interior
    assert s == pytest.approx(2.0, rel=1e-15) and w == 0.75


def _twice_parallel_sum(a, b):
    """2 (A^-1 + B^-1)^-1, the harmonic mean, straight from np.linalg.inv."""
    inv = np.linalg.inv
    return 2.0 * inv(inv(a.entries) + inv(b.entries))


def test_parallel_sum_diagonal():
    # diag: 2/(1/a + 1/b) entrywise -> (1.5, 3.0)
    a = _herm(np.diag([1.0, 2.0]))
    b = _herm(np.diag([3.0, 6.0]))
    m = evaluate_connection(harmonic_spec(), a, b)
    np.testing.assert_allclose(m.entries, np.diag([1.5, 3.0]), atol=1e-12)
    np.testing.assert_allclose(m.entries, _twice_parallel_sum(a, b), atol=1e-12)


def test_parallel_sum_symmetric_in_arguments():
    a, b = _pd_pair(21)
    lhs = evaluate_connection(harmonic_spec(), a, b).entries
    rhs = evaluate_connection(harmonic_spec(), b, a).entries
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_arithmetic_connection_is_the_mean():
    a, b = _pd_pair(3)
    m = evaluate_connection(arithmetic_spec(), a, b)
    np.testing.assert_allclose(m.entries, (a.entries + b.entries) / 2.0,
                               atol=1e-12)


def test_harmonic_connection_is_twice_parallel_sum():
    a, b = _pd_pair(4)
    m = evaluate_connection(harmonic_spec(), a, b)
    np.testing.assert_allclose(m.entries, _twice_parallel_sum(a, b), atol=1e-11)


def test_geometric_mean_closed_form_frozen():
    # commuting diagonal pair: entrywise geometric mean
    a = _herm(np.diag([1.0, 4.0]))
    b = _herm(np.diag([4.0, 1.0]))
    g = geometric_mean_closed_form(a, b)
    np.testing.assert_allclose(g.entries, np.diag([2.0, 2.0]), atol=1e-12)


def test_geometric_mean_properties():
    a, b = _pd_pair(9)
    g = geometric_mean_closed_form(a, b)
    # G A^-1 G = B characterizes the geometric mean
    lhs = g.entries @ np.linalg.inv(a.entries) @ g.entries
    np.testing.assert_allclose(lhs, b.entries, atol=1e-9)
    # symmetry
    np.testing.assert_allclose(
        geometric_mean_closed_form(b, a).entries, g.entries, atol=1e-9
    )


def test_geometric_quadrature_matches_closed_form():
    spec = geometric_spec(200)
    for seed in (1, 2, 3):
        a, b = _pd_pair(seed)
        q = evaluate_connection(spec, a, b)
        g = geometric_mean_closed_form(a, b)
        err = np.abs(q.entries - g.entries).max()
        assert err < 1e-6 * g.norm()


def test_geometric_quadrature_converges_fast():
    # the tan^2 substitution makes the integrand smooth and even at both
    # ends, so doubling the node count gains far more than a fixed order
    a, b = _pd_pair(12)
    g = geometric_mean_closed_form(a, b).entries
    e4 = np.abs(evaluate_connection(geometric_spec(4), a, b).entries - g).max()
    e8 = np.abs(evaluate_connection(geometric_spec(8), a, b).entries - g).max()
    assert e4 < 1e-3
    assert e8 < e4 / 1000.0


def test_geometric_nodes_are_tan_squared_in_s():
    # lam = sin^2(theta) is the node s = tan^2(theta) of the half-line rule
    n = 16
    theta = (np.arange(n) + 0.5) * (np.pi / 2.0) / n
    spec = geometric_spec(n)
    s = np.array([sk for sk, _ in spec.interior])
    np.testing.assert_allclose(s, np.tan(theta) ** 2, rtol=1e-12)
    assert spec.alpha == spec.beta == 0.0
    assert spec.total_mass() == pytest.approx(1.0, rel=1e-15)


def test_connection_monotone_in_each_argument():
    from loewnerlab.hermitian import random_ordered_pair

    spec = harmonic_spec()
    for seed in range(10):
        a, b = random_ordered_pair(3, Interval(0.5, 4.0), seed)
        c = random_hermitian(3, Interval(0.5, 4.0), np.random.default_rng(1000 + seed))
        lo = evaluate_connection(spec, a, c)
        hi = evaluate_connection(spec, b, c)
        assert np.linalg.eigvalsh(hi.entries - lo.entries)[0] > -1e-10


def test_transformer_equality_for_invertible_congruence():
    spec = half_line(0.2, 0.1, ((0.5, 0.3), (2.0, 0.4)))
    a, b = _pd_pair(31)
    rng = np.random.default_rng(32)
    c = random_hermitian(3, Interval(0.5, 2.0), rng)
    lhs = c.entries @ evaluate_connection(spec, a, b).entries @ c.entries
    ca = HermitianMatrix.from_array(c.entries @ a.entries @ c.entries)
    cb = HermitianMatrix.from_array(c.entries @ b.entries @ c.entries)
    rhs = evaluate_connection(spec, ca, cb).entries
    assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(rhs).max()


def test_representing_functions():
    f = synthesize(arithmetic_spec())
    np.testing.assert_allclose(f(3.0), 2.0, rtol=1e-15)
    g = synthesize(harmonic_spec())
    # 2x/(1+x)
    np.testing.assert_allclose(g(3.0), 1.5, rtol=1e-15)
    np.testing.assert_allclose(g.deriv(3.0), 2.0 / 16.0, rtol=1e-14)
    with pytest.raises(UsageError):
        f(-1.0)


def test_geometric_representing_function_approximates_sqrt():
    f = synthesize(geometric_spec(400))
    for x in np.geomspace(0.1, 10.0, 20):
        np.testing.assert_allclose(f(x), np.sqrt(x), rtol=1e-5)


def test_synthesized_route_matches_direct_route():
    spec = half_line(0.1, 0.2, ((1.0, 0.4), (5.0, 0.3)))
    via01 = synthesize(spec)
    for x in np.geomspace(1e-2, 1e2, 40):
        # alpha + beta x + sum w x(1+s)/(x+s), straight from the half-line data
        direct = 0.1 + 0.2 * x + 0.4 * x * 2.0 / (x + 1.0) + 0.3 * x * 6.0 / (x + 5.0)
        assert abs(direct - via01(x)) <= 1e-12 * max(1.0, abs(direct))


def test_connection_from_function_roundtrip():
    f = get_function("sqrt")
    samples = [(float(t), f(float(t))) for t in np.geomspace(1e-3, 1e3, 60)]
    mu, residual = fit_measure(samples, default_lambda_grid(200))
    assert residual < 1e-6
    f = synthesize(mu)
    for x in (0.5, 2.0, 20.0):
        np.testing.assert_allclose(f(x), np.sqrt(x), rtol=1e-4)


def test_scalar_case_reduces_to_function_value():
    spec = half_line(mass0=0.3, interior=((1.0, 0.7),))
    f = synthesize(spec)
    a = _herm([[2.0]])
    one = _herm([[1.0]])
    got = evaluate_connection(spec, one, a)
    np.testing.assert_allclose(got.entries[0, 0].real, f(2.0), rtol=1e-12)


def test_condition_cap_raises_numerical_failure():
    a = _herm(np.diag([1.0, 1e13]))
    b = _herm(np.diag([1.0, 1.0]))
    with pytest.raises(NumericalFailure):
        evaluate_connection(harmonic_spec(), a, b)


def _counting_eigendecompose(monkeypatch):
    """Record the order of every checked eigh that connections makes."""
    calls = []
    orig = connections._eigh_checked

    def counted(entries):
        calls.append(entries.shape[-1])
        return orig(entries)

    monkeypatch.setattr(connections, "_eigh_checked", counted)
    return calls


def _parallel_route_pair(seed, n):
    """A pair that every measure evaluates by parallel sums: operands of
    condition number 1e3 in unrelated bases, or for n = 1, where every
    operand has condition number 1, spec(C) = {1e160} beyond the transfer's
    range."""
    if n == 1:
        return _herm([[1e-80]]), _herm([[1e80]])
    return _pair_in_bases(seed, np.geomspace(1.0, 1e3, n), np.geomspace(1e3, 1.0, n))


def _parallel_route_stacks(seed, k, n):
    rng = np.random.default_rng(seed)
    pairs = [_parallel_route_pair(rng, n) for _ in range(k)]
    return tuple(np.array([p[i].entries for p in pairs]) for i in (0, 1))


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize(
    "spec",
    [arithmetic_spec(), harmonic_spec(), geometric_spec(50), geometric_spec(200)],
    ids=["arithmetic", "harmonic", "geometric50", "geometric200"],
)
def test_evaluate_connection_decomposes_each_operand_once(monkeypatch, spec, n):
    # on the parallel-sum route; the transfer adds one eigh of C
    a, b = _parallel_route_pair(40 + n, n)
    calls = _counting_eigendecompose(monkeypatch)
    evaluate_connection(spec, a, b)
    assert calls == [n, n]


@pytest.mark.parametrize("n", [1, 4, 16, 128])
def test_transfer_makes_three_decompositions_and_no_inverse(monkeypatch, n):
    a, b = _pd_pair(45 + n, n)
    calls = _counting_eigendecompose(monkeypatch)
    inverses = []
    inv = np.linalg.inv

    def counted(m):
        inverses.append(m.shape)
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    evaluate_connection(geometric_spec(200), a, b)
    assert calls == [n, n, n]
    assert inverses == []


@pytest.mark.parametrize("n", [1, 4, 16])
def test_closed_form_makes_three_decompositions(monkeypatch, n):
    a, b = _pd_pair(50 + n, n)
    calls = _counting_eigendecompose(monkeypatch)
    geometric_mean_closed_form(a, b)
    assert calls == [n, n, n]


def test_right_operand_guards():
    a = _herm(np.diag([1.0, 2.0]))
    not_pd = _herm(np.diag([1.0, -1.0]))
    ill = _herm(np.diag([1.0, 10.0 * CONDITION_CAP]))
    for spec in (arithmetic_spec(), harmonic_spec(), geometric_spec(8)):
        with pytest.raises(UsageError, match="right operand"):
            evaluate_connection(spec, a, not_pd)
        with pytest.raises(NumericalFailure, match="right operand"):
            evaluate_connection(spec, a, ill)
    with pytest.raises(UsageError, match="right operand"):
        geometric_mean_closed_form(a, not_pd)
    with pytest.raises(NumericalFailure, match="right operand"):
        geometric_mean_closed_form(a, ill)


def _pair_in_bases(seed, a_spectrum, b_spectrum):
    """U diag(a_spectrum) U* and V diag(b_spectrum) V* for seeded unitaries."""
    rng = np.random.default_rng(seed)
    u = _qr_unitary(_complex_normal(len(a_spectrum), rng))
    v = _qr_unitary(_complex_normal(len(b_spectrum), rng))
    a = HermitianMatrix(hermitian_part(u @ np.diag(a_spectrum) @ u.conj().T))
    b = HermitianMatrix(hermitian_part(v @ np.diag(b_spectrum) @ v.conj().T))
    return a, b


def test_closed_form_numerical_loss_is_not_a_usage_error():
    # both operands are positive definite and within CONDITION_CAP; only the
    # rounding of A^-1/2 B A^-1/2 loses positivity
    a, b = _pair_in_bases(0, np.geomspace(1.0, 1e11, 4), np.geomspace(1e11, 1.0, 4))
    with pytest.raises(NumericalFailure, match=r"A\^-1/2 B A\^-1/2"):
        geometric_mean_closed_form(a, b)
    out = evaluate_connection(geometric_spec(50), a, b)
    assert np.all(np.isfinite(out.entries))


def _mp_connection(mu, a, b):
    """sum w ((1-lam) A^-1 + lam B^-1)^-1 over interior atoms, in 50 digits."""
    with mp.workdps(50):
        am, bm = mp.matrix(a.entries.tolist()), mp.matrix(b.entries.tolist())
        ainv, binv = mp.inverse(am), mp.inverse(bm)
        acc = mp.matrix(a.dim, a.dim)
        for lam, w in mu.atoms:
            lam, w = mp.mpf(lam), mp.mpf(w)
            acc += w * mp.inverse((1 - lam) * ainv + lam * binv)
        return np.array(acc.tolist(), dtype=np.complex128)


@pytest.mark.parametrize("seed", range(6))
def test_parallel_sums_stay_accurate_near_the_cap(seed):
    # cond(A) = cond(B) = 1e8 in different bases: the parallel-sum route keeps
    # 8.0e-12 at worst, where the congruence A^1/2 f(A^-1/2 B A^-1/2) A^1/2 loses ~1e-4
    spectrum = np.geomspace(1.0, 1e8, 4)
    a, b = _pair_in_bases(seed, spectrum, spectrum)
    for mu in (harmonic_spec(), geometric_spec(50)):
        ref = _mp_connection(mu, a, b)
        got = evaluate_connection(mu, a, b).entries
        assert np.linalg.norm(got - ref, 2) <= 2e-11 * np.linalg.norm(ref, 2)
    with pytest.raises(NumericalFailure):
        geometric_mean_closed_form(a, b)


# ---------------------------------------------------------------------------
# The stack kernel: evaluate_connection is its one-row call


def _fitted_sqrt_measure():
    f = get_function("sqrt")
    samples = [(float(t), f(float(t))) for t in np.geomspace(1e-3, 1e3, 60)]
    return fit_measure(samples, default_lambda_grid(200))[0]


def _pd_stacks(seed, k, n):
    rng = np.random.default_rng(seed)
    pairs = [_pd_pair(rng, n) for _ in range(k)]
    return tuple(np.array([p[i].entries for p in pairs]) for i in (0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stack_rows_equal_evaluate_connection(n):
    a, b = _pd_stacks(60 + n, 6, n)
    pairs = [(_herm(x), _herm(y)) for x, y in zip(a, b)]
    for mu in (arithmetic_spec(), harmonic_spec(), geometric_spec(200),
               _fitted_sqrt_measure()):
        rows = connections._connection_stack(mu, a, b)
        assert rows.shape == a.shape
        for row, (x, y) in zip(rows, pairs):
            assert row.tobytes() == evaluate_connection(mu, x, y).entries.tobytes()
    closed = connections._geometric_mean_stack(a, b)
    for row, (x, y) in zip(closed, pairs):
        assert row.tobytes() == geometric_mean_closed_form(x, y).entries.tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
def test_stack_guards_name_the_operand_of_one_bad_slice(side):
    a, b = _pd_stacks(70, 5, 2)
    for bad, error in ((np.diag([1.0, -1.0]), UsageError),
                       (np.diag([1.0, 10.0 * CONDITION_CAP]), NumericalFailure)):
        x, y = a.copy(), b.copy()
        (x if side == "left" else y)[3] = bad
        for mu in (arithmetic_spec(), harmonic_spec(), geometric_spec(8)):
            with pytest.raises(error, match=f"{side} operand"):
                connections._connection_stack(mu, x, y)


@pytest.mark.parametrize("k", [1, 7])
def test_stack_calls_decompose_each_operand_stack_once(monkeypatch, k):
    a, b = _parallel_route_stacks(80, k, 3)
    calls = _counting_eigendecompose(monkeypatch)
    connections._connection_stack(geometric_spec(50), a, b)
    assert calls == [3, 3]
    calls.clear()
    connections._geometric_mean_stack(a, b)
    assert calls == [3, 3, 3]


def test_parallel_sums_stay_accurate_near_the_cap_as_one_stack():
    spectrum = np.geomspace(1.0, 1e8, 4)
    pairs = [_pair_in_bases(seed, spectrum, spectrum) for seed in range(6)]
    a = np.array([p[0].entries for p in pairs])
    b = np.array([p[1].entries for p in pairs])
    for mu in (harmonic_spec(), geometric_spec(50)):
        rows = connections._connection_stack(mu, a, b)
        for (pa, pb), got in zip(pairs, rows):
            ref = _mp_connection(mu, pa, pb)
            assert np.linalg.norm(got - ref, 2) <= 2e-11 * np.linalg.norm(ref, 2)


def _mp_transfer(mu, a, b):
    """A^1/2 f(A^-1/2 B A^-1/2) A^1/2 in 40 digits, f = sum w kernel01(lam, .)
    over every atom of mu; mpmath's eighe decomposes A and C."""
    with mp.workdps(40):
        lam, u = mp.eighe(mp.matrix(a.entries.tolist()))
        root = u * mp.diag([mp.sqrt(x) for x in lam]) * u.H
        root_inv = u * mp.diag([1 / mp.sqrt(x) for x in lam]) * u.H
        c = root_inv * mp.matrix(b.entries.tolist()) * root_inv
        gam, v = mp.eighe((c + c.H) / 2)
        atoms = [(mp.mpf(lk), mp.mpf(w)) for lk, w in mu.atoms]
        f = [mp.fsum(w * g / (lk + (1 - lk) * g) for lk, w in atoms) for g in gam]
        out = root * v * mp.diag(f) * v.H * root
        return np.array(out.tolist(), dtype=np.complex128)


def test_mp_transfer_oracle_equals_the_mp_parallel_sums():
    mu = _fitted_sqrt_measure()
    a, b = _pair_in_bases(130, np.geomspace(1.0, 1e3, 2), np.geomspace(50.0, 1.0, 2))
    ref = _mp_connection(mu, a, b)
    assert np.linalg.norm(_mp_transfer(mu, a, b) - ref, 2) <= 1e-25 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_both_routes_against_mpmath_across_the_switch(n):
    # max cond at half the cap and just below it takes the transfer, at twice
    # the cap and at 1e4 the parallel sums
    cap = connections._TRANSFER_CAP
    mu = geometric_spec(50)
    for i, (cond, fast) in enumerate(((cap / 2, True), (0.999 * cap, True),
                                      (2 * cap, False), (1e4, False))):
        a, b = _pair_in_bases(140 + 4 * n + i, np.geomspace(1.0, cond, n),
                              3.0 * np.geomspace(cond, 1.0, n))
        lam_a, _ = connections._pd_eigh(a.entries[None], "left operand")
        lam_b, _ = connections._pd_eigh(b.entries[None], "right operand")
        assert connections._transfer_rows(lam_a, lam_b).tolist() == [fast]
        ref = _mp_transfer(mu, a, b)
        got = evaluate_connection(mu, a, b).entries
        bound = 1e-13 if fast else 2e-11
        assert np.linalg.norm(got - ref, 2) <= bound * np.linalg.norm(ref, 2)


def test_mixed_stack_rows_equal_evaluate_connection():
    cap = connections._TRANSFER_CAP
    conds = (1e6, 2.0, 1e3, cap / 2, 2.0, 1e6)
    pairs = [_pair_in_bases(150 + i, np.geomspace(1.0, c, 4), np.geomspace(c, 1.0, 4))
             for i, c in enumerate(conds)]
    a = np.array([p[0].entries for p in pairs])
    b = np.array([p[1].entries for p in pairs])
    lam_a, _ = connections._pd_eigh(a, "left operand")
    lam_b, _ = connections._pd_eigh(b, "right operand")
    assert connections._transfer_rows(lam_a, lam_b).tolist() == [c <= cap for c in conds]
    for mu in (geometric_spec(50), geometric_spec(200), _fitted_sqrt_measure()):
        rows = connections._connection_stack(mu, a, b)
        for row, (x, y) in zip(rows, pairs):
            assert row.tobytes() == evaluate_connection(mu, x, y).entries.tobytes()


def test_stack_dtype_follows_the_routes_its_rows_take():
    # real rows on the transfer stay real; any parallel-sum row makes the stack complex
    well = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 3.0])])
    mixed = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 1e6])])
    stack = connections._connection_stack
    assert stack(geometric_spec(50), well, well[::-1]).dtype == np.float64
    assert stack(geometric_spec(50), mixed, mixed[::-1]).dtype == np.complex128
    assert stack(harmonic_spec(), well, well[::-1]).dtype == np.complex128


def test_a_pair_whose_transfer_overflows_takes_the_parallel_sums(monkeypatch):
    # both operands have condition number 1, but A^-1/2 B A^-1/2 = 1e400 I
    a, b = _herm(1e-200 * np.eye(2)), _herm(1e200 * np.eye(2))
    with pytest.raises(NumericalFailure, match=r"^A\^-1/2 B A\^-1/2 is not finite$"):
        geometric_mean_closed_form(a, b)
    calls = _counting_eigendecompose(monkeypatch)
    out = evaluate_connection(geometric_spec(50), a, b).entries
    assert calls == [2, 2]
    assert np.all(np.isfinite(out)) and np.linalg.eigvalsh(out)[0] > 0.0


def test_inverse_overflow_is_a_numerical_failure_naming_the_operand():
    tiny = _herm(np.diag([1e-310, 2e-310]))
    one = _herm(np.eye(2))
    for mu in (harmonic_spec(), geometric_spec(8)):
        with pytest.raises(NumericalFailure, match="left operand: inverse overflows"):
            evaluate_connection(mu, tiny, one)
        with pytest.raises(NumericalFailure, match="right operand: inverse overflows"):
            evaluate_connection(mu, one, tiny)
    # no interior atom, no inverse
    out = evaluate_connection(arithmetic_spec(), tiny, one).entries
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# Guarding the parallel-sum stack without decomposing it


def _counting_linalg(monkeypatch):
    """Count every np.linalg.eigh and eigvalsh call, wherever it is made."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        orig = getattr(np.linalg, name)

        def counted(entries, *args, _orig=orig, _name=name, **kw):
            calls[_name] += 1
            return _orig(entries, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_parallel_sum_slices_stay_within_the_operand_condition(n):
    # cond((1-lam) A^-1 + lam B^-1) <= max(cond A, cond B) in exact
    # arithmetic; the computed slices may exceed it only by the rounding that
    # _near_cap allows for
    rng = np.random.default_rng(90 + n)
    lam = np.array([lk for lk, _ in geometric_spec(50).atoms])[:, None, None]
    eta = connections._ROUNDING * n * np.finfo(np.float64).eps
    for trial in range(30):
        cond_a, cond_b = 10.0 ** rng.uniform(0.0, 12.0, 2)
        a, b = _pair_in_bases(rng, np.geomspace(1.0, cond_a, n) * rng.uniform(0.1, 10.0),
                              np.geomspace(cond_b, 1.0, n))
        if trial % 3 == 0:
            b = a
        lam_a, _ = connections._pd_eigh(a.entries[None], "left operand")
        lam_b, _ = connections._pd_eigh(b.entries[None], "right operand")
        cap = max(lam_a[0, -1] / lam_a[0, 0], lam_b[0, -1] / lam_b[0, 0])
        stack = ((1.0 - lam) * hermitian_part(np.linalg.inv(a.entries[None]))
                 + lam * hermitian_part(np.linalg.inv(b.entries[None])))
        ev = np.linalg.eigvalsh(stack)
        cond = ev[:, -1] / ev[:, 0]
        assert ev.min() > 0.0
        assert cond.max() <= cap * (1.0 + eta) / (1.0 - eta * cap)


def test_rounding_over_the_cap_is_refused_by_the_flagged_slice_check(monkeypatch):
    # cond(A) = 1e12 is within the cap, and so is every slice in exact
    # arithmetic; rounding tips some slices of the 200-atom stack over it
    a = _herm(np.diag([1.0, 1e12]))
    calls = _counting_linalg(monkeypatch)
    with pytest.raises(NumericalFailure,
                       match="^parallel-sum stack too ill-conditioned to invert$"):
        evaluate_connection(geometric_spec(200), a, a)
    assert calls == {"eigh": 2, "eigvalsh": 1}
    # harmonic's one slice stays within the cap after rounding: no refusal
    out = evaluate_connection(harmonic_spec(), a, a).entries
    np.testing.assert_allclose(out, a.entries, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 7])
def test_well_conditioned_stack_is_never_decomposed(monkeypatch, k, n):
    # cond 1e3 is far from CONDITION_CAP but takes the parallel-sum route
    a, b = _parallel_route_stacks(100 + n, k, n)
    calls = _counting_linalg(monkeypatch)
    connections._connection_stack(geometric_spec(200), a, b)
    assert calls == {"eigh": 2, "eigvalsh": 0}


def test_failed_stack_inverse_is_a_numerical_failure(monkeypatch):
    # the operand stacks are (k, n, n), the parallel-sum stack (k, atoms, n, n)
    inv = np.linalg.inv
    a, b = _pd_pair(110)
    for failing in (4, 3):
        def singular(m, _ndim=failing):
            if m.ndim == _ndim:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NumericalFailure, match="parallel-sum stack: Singular matrix"):
            evaluate_connection(harmonic_spec(), a, b)


def test_closed_form_overflow_names_the_inner_matrix():
    tiny = _herm(np.diag([1e-310, 2e-310]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"^A\^-1/2 B A\^-1/2 is not finite$"):
            geometric_mean_closed_form(tiny, _herm(np.eye(2)))
        # with B = A the inner matrix is I, and the mean is computable
        same = geometric_mean_closed_form(tiny, tiny).entries
    assert np.abs(same - tiny.entries).max() <= 5e-324
