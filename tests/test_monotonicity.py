"""Randomized monotonicity/convexity checks and the transform zoo."""

import math

import numpy as np
import pytest

import loewnerlab.hermitian as herm
from loewnerlab import monotonicity as mono
from loewnerlab.divdiff import dd1, dd2, difference_quotient_transform, loewner_matrix
from loewnerlab.errors import NumericalFailure, UsageError
from loewnerlab.functions import ScalarFunction, get_function
from loewnerlab.hermitian import POSITIVE_AXIS, PSD_TOL, HermitianMatrix, Interval, hermitian_part
from loewnerlab.monotonicity import (
    check_convex_order_n,
    check_midpoint_concavity,
    check_monotone_direct,
    check_monotone_order_n,
    derivative_bound_at_one,
    extreme_decomposition,
    sample_nodes,
    sample_nodes_near_coincident,
    transform_involution,
)

IV = Interval(0.1, 10.0)


def test_sample_nodes_separated_and_contained():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ns = sample_nodes(rng, 5, IV)
        ts = np.array(ns.nodes)
        assert np.all((ts > IV.lo) & (ts < IV.hi))
        d = np.abs(ts[:, None] - ts[None, :]) + np.eye(5)
        assert d.min() > 1e-7


def test_sample_nodes_near_coincident_cluster():
    rng = np.random.default_rng(1)
    ns = sample_nodes_near_coincident(rng, 4, IV)
    ts = np.array(sorted(ns.nodes))
    assert np.all((ts > IV.lo) & (ts < IV.hi))
    assert ts[-1] - ts[0] < 1e-4  # genuinely clustered


def test_sqrt_is_monotone_order_2():
    v = check_monotone_order_n(get_function("sqrt"), 2, IV, trials=50, seed=0)
    assert v.passed
    assert v.witness is None
    assert v.min_eig_seen > -1e-9


def test_square_fails_order_2_with_recheckable_witness():
    v = check_monotone_order_n(get_function("square"), 2, IV, trials=50, seed=0)
    assert not v.passed
    ns = v.witness
    assert ns is not None
    # the witness must reproduce the violation on its own
    m = loewner_matrix(get_function("square"), ns)
    assert np.linalg.eigvalsh(m.entries)[0] < 0.0


def test_verdict_is_deterministic_in_the_seed():
    a = check_monotone_order_n(get_function("sqrt"), 3, IV, trials=25, seed=77)
    b = check_monotone_order_n(get_function("sqrt"), 3, IV, trials=25, seed=77)
    assert a.min_eig_seen == b.min_eig_seen
    c = check_monotone_order_n(get_function("sqrt"), 3, IV, trials=25, seed=78)
    assert c.min_eig_seen != a.min_eig_seen


def test_exp_fails_monotonicity_order_2():
    v = check_monotone_order_n(get_function("exp"), 2, IV, trials=50, seed=3)
    assert not v.passed


def test_near_coincident_sampler_exercises_limit_formulas():
    v = check_monotone_order_n(
        get_function("sqrt"), 4, IV, trials=20, seed=5,
        sampler=sample_nodes_near_coincident,
    )
    assert v.passed


def test_convexity_square_passes_sqrt_fails():
    assert check_convex_order_n(get_function("square"), 2, IV, 30, 0).passed
    assert not check_convex_order_n(get_function("sqrt"), 2, IV, 30, 0).passed
    # negated sqrt is operator convex
    assert check_convex_order_n(get_function("sqrt").negated(), 2, IV, 30, 0).passed


def test_direct_matrix_check_sqrt_vs_square():
    iv = Interval(0.5, 4.0)
    assert check_monotone_direct(get_function("sqrt"), 3, iv, 30, 11).passed
    v = check_monotone_direct(get_function("square"), 2, iv, 200, 11)
    assert not v.passed
    a, b = v.witness
    d = np.linalg.eigvalsh(b.entries @ b.entries - a.entries @ a.entries)
    assert d[0] < 0.0


def test_midpoint_concavity():
    assert check_midpoint_concavity(get_function("sqrt"), 3, IV, 30, 2).passed
    assert not check_midpoint_concavity(get_function("square"), 2, IV, 60, 2).passed


def test_checkers_validate_interval_against_domain():
    with pytest.raises(UsageError):
        check_monotone_order_n(get_function("sqrt"), 2, Interval(-1.0, 2.0), 5, 0)


def test_involution_swaps_kernel_parameter():
    # t * k_lam(1/t) = k_{1-lam}(t)
    g = transform_involution(get_function("kernel:0.25"))
    target = get_function("kernel:0.75")
    for t in np.geomspace(0.05, 50.0, 40):
        np.testing.assert_allclose(g(t), target(t), rtol=1e-13)
        np.testing.assert_allclose(g.deriv(t), target.deriv(t), rtol=1e-10)


def test_transforms_require_positive_functions():
    shifted = ScalarFunction("shifted", POSITIVE_AXIS, lambda t: t - 5.0)
    with pytest.raises(UsageError):
        transform_involution(shifted)


def test_derivative_bound_at_one():
    assert derivative_bound_at_one(get_function("sqrt")) == 0.5
    np.testing.assert_allclose(
        derivative_bound_at_one(get_function("kernel:0.3")), 0.3, rtol=1e-15
    )
    with pytest.raises(UsageError):
        derivative_bound_at_one(get_function("exp"))  # exp(1) != 1


def test_extreme_decomposition_reconstructs_kernel():
    f = get_function("kernel:0.5")
    dec = extreme_decomposition(f)
    assert not dec.degenerate
    np.testing.assert_allclose(dec.weight, 0.5, rtol=1e-12)
    for t in np.geomspace(0.01, 100.0, 60):
        mix = dec.weight * dec.f1(t) + (1.0 - dec.weight) * dec.f2(t)
        np.testing.assert_allclose(mix, f(t), atol=1e-10 * max(1.0, abs(f(t))))
    # both pieces are normalized
    np.testing.assert_allclose(dec.f1(1.0), 1.0, atol=1e-12)
    np.testing.assert_allclose(dec.f2(1.0), 1.0, atol=1e-12)


def test_extreme_decomposition_degenerate_cases():
    assert extreme_decomposition(get_function("id")).degenerate
    assert extreme_decomposition(get_function("const1")).degenerate
    assert extreme_decomposition(get_function("id")).weight == 1.0
    assert extreme_decomposition(get_function("const1")).weight == 0.0


def test_extreme_decomposition_rejects_bad_weight():
    # square is normalized at 1 but has f'(1) = 2
    with pytest.raises(UsageError):
        extreme_decomposition(get_function("square"))
    with pytest.raises(UsageError):
        extreme_decomposition(get_function("exp"))


# ---------------------------------------------------------------------------
# The batched checkers against per-trial reference loops
#
# The reference builds every trial on its own, as the checkers did before they
# were batched: scalar dd1/dd2 loops, one QR and one eigh per matrix, one
# eigvalsh per trial.  The batched checkers must agree bit for bit.


def _ref_min_eig_scaled(m):
    lam = np.linalg.eigvalsh(m)
    return float(lam[0]) / max(1.0, float(np.abs(lam).max()))


def _ref_loewner(f, ts):
    n = len(ts)
    m = np.empty((n, n))
    for i in range(n):
        m[i, i] = dd1(f, ts[i], ts[i])
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = dd1(f, ts[i], ts[j])
    return m


def _ref_anchored(f, ts, anchor):
    n = len(ts)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = dd2(f, ts[i], ts[j], anchor)
    return m


def _ref_hermitian(n, iv, rng):
    pad = 0.02 * iv.width
    lam = rng.uniform(iv.lo + pad, iv.hi - pad, n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    u = q * (d / np.abs(d)).conj()
    return HermitianMatrix(hermitian_part(u @ np.diag(lam) @ u.conj().T))


def _ref_spectrum_in(m, iv):
    lam = np.linalg.eigvalsh(m.entries)
    return iv.lo < lam[0] and lam[-1] < iv.hi


def _ref_ordered_pair(n, iv, rng):
    a = _ref_hermitian(n, iv, rng)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = hermitian_part(z @ z.conj().T)
    p = p / float(np.linalg.eigvalsh(p).max())
    headroom = (iv.hi - 0.01 * iv.width) - float(np.linalg.eigvalsh(a.entries).max())
    c = rng.uniform(0.2, 0.95) * max(headroom, 0.0)
    for _ in range(60):
        b = HermitianMatrix(a.entries + c * p)
        if _ref_spectrum_in(b, iv):
            return a, b
        c /= 2
    raise AssertionError("reference bisection did not converge")


def _ref_apply(f, a):
    lam, u = np.linalg.eigh(a.entries)
    vals = np.array([f(x) for x in lam])
    return HermitianMatrix(hermitian_part(u @ np.diag(vals) @ u.conj().T))


def _ref_trials(trials, tag, seed, build):
    """(min_eig_seen, witness) of a per-trial loop; build(rng) -> (matrix, inputs)."""
    min_seen, witness = np.inf, None
    for t in range(trials):
        m, inputs = build(mono._trial_rng(seed, tag, t))
        scaled = _ref_min_eig_scaled(m)
        min_seen = min(min_seen, scaled)
        if not scaled >= -PSD_TOL and witness is None:
            witness = inputs
    return min_seen, witness


def _reference(checker, f, n, iv, trials, seed, sampler=None):
    draw = sampler or sample_nodes
    if checker is check_monotone_order_n:
        def build(rng):
            ns = draw(rng, n, iv)
            return _ref_loewner(f, ns.nodes), ns
        return _ref_trials(trials, mono._TAG_MONOTONE, seed, build)
    if checker is check_convex_order_n:
        def build(rng):
            ns = draw(rng, n, iv)
            return _ref_anchored(f, ns.nodes, ns.nodes[0]), ns
        return _ref_trials(trials, mono._TAG_CONVEX, seed, build)
    if checker is check_monotone_direct:
        def build(rng):
            a, b = _ref_ordered_pair(n, iv, rng)
            return (_ref_apply(f, b) - _ref_apply(f, a)).entries, (a, b)
        return _ref_trials(trials, mono._TAG_DIRECT, seed, build)

    def build(rng):
        a, b = _ref_hermitian(n, iv, rng), _ref_hermitian(n, iv, rng)
        mid = HermitianMatrix((a.entries + b.entries) / 2.0)
        half_sum = HermitianMatrix((_ref_apply(f, a) + _ref_apply(f, b)).entries * 0.5)
        gap = _ref_apply(f, mid) - half_sum
        return gap.entries, (a, b)
    return _ref_trials(trials, mono._TAG_MIDPOINT, seed, build)


def _witness_bytes(w):
    if w is None:
        return None
    if isinstance(w, tuple):
        return tuple(m.entries.tobytes() for m in w)
    return np.array(w.nodes).tobytes()


def assert_matches_reference(checker, f, n, iv, trials, seed, **kw):
    v = checker(f, n, iv, trials, seed, **kw)
    min_seen, witness = _reference(checker, f, n, iv, trials, seed, **kw)
    what = f"{checker.__name__}({f.name}, n={n}, seed={seed})"
    assert np.float64(v.min_eig_seen).tobytes() == np.float64(min_seen).tobytes(), what
    assert v.outcome == ("pass" if witness is None else "fail"), what
    assert _witness_bytes(v.witness) == _witness_bytes(witness), what
    assert (v.order, v.trials) == (n, trials)
    return v


CHECKERS = [check_monotone_order_n, check_convex_order_n,
            check_monotone_direct, check_midpoint_concavity]
EQUIV_FUNCTIONS = ["sqrt", "kernel:0.5", "id", "square", "cube", "exp"]


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_batched_checkers_equal_per_trial_loops(checker):
    outcomes = set()
    for seed in (0, 7, 1234):
        for n in (1, 2, 3, 4, 8):
            for name in EQUIV_FUNCTIONS:
                v = assert_matches_reference(checker, get_function(name), n, IV, 12, seed)
                outcomes.add(v.outcome)
    assert outcomes == {"pass", "fail"}  # both branches, witnesses included


@pytest.mark.parametrize("checker", CHECKERS[:2], ids=lambda c: c.__name__)
def test_batched_order_n_with_near_coincident_sampler_and_transform(checker):
    f = get_function("sqrt")
    g = difference_quotient_transform(f, 2.5).negated()
    for seed in (0, 1, 2):
        for n in (2, 4, 8):
            assert_matches_reference(checker, f, n, IV, 10, seed,
                                     sampler=sample_nodes_near_coincident)
            assert_matches_reference(checker, g, n, IV, 10, seed)


class _LargeStepRng:
    """A trial generator whose step-size draw overshoots the Weyl headroom."""

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, *a):
        return self._rng.standard_normal(*a)

    def uniform(self, lo, hi, *size):
        x = self._rng.uniform(lo, hi, *size)
        return x * 40.0 if (lo, hi) == (0.2, 0.95) else x


def test_batched_ordered_pairs_with_bisection_fallback(monkeypatch):
    trial_rng = mono._trial_rng
    monkeypatch.setattr(mono, "_trial_rng", lambda *a: _LargeStepRng(trial_rng(*a)))
    calls = []
    spectrum_in = herm._spectrum_in
    monkeypatch.setattr(herm, "_spectrum_in",
                        lambda m, iv: calls.append(m.ndim) or spectrum_in(m, iv))
    for name in ("sqrt", "square"):
        for seed in (0, 5):
            for n in (1, 3):
                assert_matches_reference(check_monotone_direct, get_function(name),
                                         n, Interval(0.5, 4.0), 8, seed)
    assert 2 in calls  # single pairs were bisected after the batched check


@pytest.mark.parametrize("checker,calls", [
    (check_monotone_order_n, 1), (check_convex_order_n, 1),
    (check_monotone_direct, 4), (check_midpoint_concavity, 1),
], ids=lambda c: getattr(c, "__name__", str(c)))
def test_one_eigvalsh_on_the_final_stack(monkeypatch, checker, calls):
    # direct also finds P's norm, A's top eigenvalue and B's containment by
    # one eigvalsh of each stack; nothing is decomposed one trial at a time
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: shapes.append(m.shape) or eigvalsh(m))
    checker(get_function("sqrt"), 3, IV, 7, 0)
    assert shapes == [(7, 3, 3)] * calls


def _nan_function():
    return ScalarFunction("nan", POSITIVE_AXIS, lambda t: math.nan,
                          lambda t: math.nan, lambda t: math.nan)


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_non_finite_stack_is_a_numerical_failure(checker):
    with pytest.raises(NumericalFailure, match="trial 0"):
        checker(_nan_function(), 3, IV, 5, 0)


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_trials_below_one_is_a_usage_error(checker):
    for trials in (0, -3):
        with pytest.raises(UsageError, match="trials"):
            checker(get_function("sqrt"), 2, IV, trials, 0)


def _ref_sample_nodes(rng, n, iv):
    for _ in range(100):
        ts = rng.uniform(iv.lo, iv.hi, n)
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if abs(ts[i] - ts[j]) <= 1e-7 * max(1.0, abs(ts[i]), abs(ts[j])):
                    ok = False
        if ok:
            return tuple(float(t) for t in ts)
    raise AssertionError("no separated nodes")


def test_sample_nodes_equals_reference_loop():
    tight = Interval(1.0, 1.0 + 4e-7)  # forces rejections and redraws
    for seed in range(6):
        for n, iv in ((1, IV), (2, IV), (5, IV), (8, IV), (2, tight)):
            ns = sample_nodes(np.random.default_rng(seed), n, iv)
            ref = _ref_sample_nodes(np.random.default_rng(seed), n, iv)
            assert np.array(ns.nodes).tobytes() == np.array(ref).tobytes()
