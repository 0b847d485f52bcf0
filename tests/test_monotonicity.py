"""Randomized monotonicity/convexity checks and the transform zoo."""

import math

import numpy as np
import pytest

import loewnerlab.hermitian as herm
from loewnerlab import monotonicity as mono
from loewnerlab.divdiff import (
    TAU_NODE,
    _anchored_stack,
    _loewner_stack,
    dd1,
    dd2,
    difference_quotient_transform,
    loewner_matrix,
)
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


def _ref_trials(trials, tag, seed, build, wrap=lambda rng: rng):
    """(min_eig_seen, witness) of a per-trial loop; build(rng) -> (matrix, inputs).

    Trial t draws from plain np.random.default_rng(seeds + (tag, t)).
    """
    seeds = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    min_seen, witness = np.inf, None
    for t in range(trials):
        m, inputs = build(wrap(np.random.default_rng(seeds + (tag, t))))
        scaled = _ref_min_eig_scaled(m)
        min_seen = min(min_seen, scaled)
        if not scaled >= -PSD_TOL and witness is None:
            witness = inputs
    return min_seen, witness


def _reference(checker, f, n, iv, trials, seed, wrap):
    if checker is check_monotone_order_n:
        def build(rng):
            ns = sample_nodes(rng, n, iv)
            return _ref_loewner(f, ns.nodes), ns
        return _ref_trials(trials, mono._TAG_MONOTONE, seed, build, wrap)
    if checker is check_convex_order_n:
        def build(rng):
            ns = sample_nodes(rng, n, iv)
            return _ref_anchored(f, ns.nodes, ns.nodes[0]), ns
        return _ref_trials(trials, mono._TAG_CONVEX, seed, build, wrap)
    if checker is check_monotone_direct:
        def build(rng):
            a, b = _ref_ordered_pair(n, iv, rng)
            return _ref_apply(f, b).entries - _ref_apply(f, a).entries, (a, b)
        return _ref_trials(trials, mono._TAG_DIRECT, seed, build, wrap)

    def build(rng):
        a, b = _ref_hermitian(n, iv, rng), _ref_hermitian(n, iv, rng)
        mid = HermitianMatrix((a.entries + b.entries) / 2.0)
        half_sum = (_ref_apply(f, a).entries + _ref_apply(f, b).entries) * 0.5
        return _ref_apply(f, mid).entries - half_sum, (a, b)
    return _ref_trials(trials, mono._TAG_MIDPOINT, seed, build, wrap)


def _witness_bytes(w):
    if w is None:
        return None
    if isinstance(w, tuple):
        return tuple(m.entries.tobytes() for m in w)
    return np.array(w.nodes).tobytes()


def assert_matches_reference(checker, f, n, iv, trials, seed, wrap=lambda rng: rng):
    v = checker(f, n, iv, trials, seed)
    min_seen, witness = _reference(checker, f, n, iv, trials, seed, wrap)
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
def test_batched_order_n_with_difference_quotient_transform(checker):
    g = difference_quotient_transform(get_function("sqrt"), 2.5).negated()
    for seed in (0, 1, 2):
        for n in (2, 4, 8):
            assert_matches_reference(checker, g, n, IV, 10, seed)


def _near_coincident_rows(rows, n, rng):
    """Rows of n nodes about 10 * TAU_NODE * scale apart, clustered inside IV:
    above the coincidence threshold, in the quotients' cancellation band."""
    gap = 10.0 * TAU_NODE * max(1.0, abs(IV.lo), abs(IV.hi))
    base = rng.uniform(IV.lo + 0.25 * IV.width, IV.hi - 0.25 * IV.width, (rows, 1))
    return base + gap * (np.arange(n) + 0.1 * rng.uniform(0.0, 1.0, (rows, n)))


def test_stacks_equal_scalar_reference_on_near_coincident_rows():
    f = get_function("sqrt")
    g = difference_quotient_transform(f, 2.5).negated()
    for seed in (0, 1, 2, 5):
        for n in (2, 4, 8):
            ts = _near_coincident_rows(10, n, np.random.default_rng((seed, n)))
            assert np.all(np.diff(ts, axis=1) > TAU_NODE * IV.hi)
            for h in (f, g):
                loew = _loewner_stack(h, ts)
                anch = _anchored_stack(h, ts, ts[:, 0])
                for k, row in enumerate(ts.tolist()):
                    assert loew[k].tobytes() == _ref_loewner(h, row).tobytes()
                    assert anch[k].tobytes() == _ref_anchored(h, row, row[0]).tobytes()
            # sqrt is operator monotone: its Loewner matrices stay PSD there
            assert herm.min_eig_scaled(_loewner_stack(f, ts)).min() >= -PSD_TOL


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
    trial_streams = mono._trial_streams

    def large_step_streams(prefix, count):
        stream = trial_streams(prefix, count)
        return lambda t: _LargeStepRng(stream(t))

    monkeypatch.setattr(mono, "_trial_streams", large_step_streams)
    calls = []
    spectrum_in = herm._spectrum_in
    monkeypatch.setattr(herm, "_spectrum_in",
                        lambda m, iv: calls.append(m.ndim) or spectrum_in(m, iv))
    for name in ("sqrt", "square"):
        for seed in (0, 5):
            for n in (1, 3):
                assert_matches_reference(check_monotone_direct, get_function(name),
                                         n, Interval(0.5, 4.0), 8, seed, _LargeStepRng)
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


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("n,trials,name", [
    (-1, 5, "n"), (2.5, 5, "n"), (True, 5, "n"), (2, 2.7, "trials"), (2, True, "trials"),
], ids=["n=-1", "n=2.5", "n=True", "trials=2.7", "trials=True"])
def test_bad_order_or_trial_count_is_a_usage_error_naming_it(checker, n, trials, name):
    with pytest.raises(UsageError, match=f"^{name} must be"):
        checker(get_function("sqrt"), n, IV, trials, 0)


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_integral_float_order_and_trials_run_as_ints(checker):
    got = checker(get_function("sqrt"), 2.0, IV, 3.0, 0)
    want = checker(get_function("sqrt"), 2, IV, 3, 0)
    assert (got.order, got.trials, got.min_eig_seen) == (want.order, want.trials, want.min_eig_seen)
    assert type(got.order) is int and type(got.trials) is int


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


@pytest.mark.parametrize("checker", CHECKERS[:2], ids=lambda c: c.__name__)
def test_batched_node_draws_replay_redraws_on_a_tight_interval(monkeypatch, checker):
    tight = Interval(1.0, 1.0 + 4e-7)  # near pairs are common: trials redraw
    f = get_function("sqrt")
    requested = []
    trial_streams = mono._trial_streams

    def recording_streams(prefix, count):
        stream = trial_streams(prefix, count)
        return lambda t: requested.append(t) or stream(t)

    monkeypatch.setattr(mono, "_trial_streams", recording_streams)
    replays = refusals = 0
    for n in (2, 3, 4, 5):
        for seed in (0, 1, 2):
            requested.clear()
            started = []
            try:
                _reference(checker, f, n, tight, 12, seed,
                           lambda rng: started.append(rng) or rng)
            except UsageError as exc:
                # 100 failed redraws refuse the run at the same trial
                with pytest.raises(UsageError) as got:
                    checker(f, n, tight, 12, seed)
                assert str(got.value) == str(exc)
                assert requested[-1] == len(started) - 1
                refusals += 1
            else:
                assert_matches_reference(checker, f, n, tight, 12, seed)
            replays += len(requested) > 12
    assert replays and refusals


def test_node_outside_the_interval_is_refused_like_the_per_trial_loop():
    # uniform() on an interval one ulp wide returns an endpoint
    iv = Interval(1.0, float(np.nextafter(1.0, 2.0)))
    with pytest.raises(UsageError, match="outside open interval") as want:
        sample_nodes(np.random.default_rng((3, mono._TAG_MONOTONE, 0)), 1, iv)
    with pytest.raises(UsageError) as got:
        check_monotone_order_n(get_function("sqrt"), 1, iv, 5, 3)
    assert str(got.value) == str(want.value)
    # order 0 is refused by name before any node is drawn, like every n < 1
    for checker in CHECKERS:
        with pytest.raises(UsageError, match=r"^n must be >= 1, got 0$"):
            checker(get_function("sqrt"), 0, IV, 5, 3)


ORACLE_PREFIXES = [(0,), (1234, 11), (2**32, 12), (2**64 - 1, 13), (1234, 104, 3, 7)]


@pytest.mark.parametrize("prefix", ORACLE_PREFIXES, ids=str)
def test_trial_streams_equal_default_rng_bit_for_bit(prefix):
    stream = herm._trial_streams(prefix, 300)
    for t in range(300):
        ref = np.random.default_rng(prefix + (t,))
        rng = stream(t)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.uniform(0.1, 10.0, 4).tobytes() == ref.uniform(0.1, 10.0, 4).tobytes()
        assert rng.standard_normal((2, 3)).tobytes() == ref.standard_normal((2, 3)).tobytes()


def test_trial_streams_refuse_negative_seed_parts():
    for prefix in ((-1,), (1234, -11), (5, 12, -(2**70))):
        with pytest.raises(UsageError, match="non-negative"):
            herm._trial_streams(prefix, 3)


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_checkers_refuse_negative_and_non_integral_seeds(checker):
    f = get_function("square")
    for seed in (-1, (1234, -2), 1.5, (1234, 2.7), "7", math.nan):
        with pytest.raises(UsageError, match="seed"):
            checker(f, 2, IV, 5, seed)
    # integer-valued numpy scalars are the seed they hold
    want = checker(f, 2, IV, 5, 1)
    for seed in (np.int64(1), np.uint32(1), (np.int16(1),)):
        got = checker(f, 2, IV, 5, seed)
        assert np.float64(got.min_eig_seen).tobytes() == np.float64(want.min_eig_seen).tobytes()


def test_checkers_build_no_per_trial_seed_sequence(monkeypatch):
    made = {"default_rng": 0, "SeedSequence": 0, "PCG64": 0}

    def counting(name):
        original = getattr(np.random, name)

        def build(*args, **kwargs):
            made[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, build)

    for name in made:
        counting(name)
    for checker in CHECKERS:
        checker(get_function("sqrt"), 3, IV, 100, 1234)
    # one reused generator per checker call, its state set once per trial
    assert made == {"default_rng": 0, "SeedSequence": 0, "PCG64": len(CHECKERS)}
