"""Acceptance gate: every advertised guarantee, at its stated tolerance.

Each criterion runs at full size under `pytest -v`, one pass/fail line per
criterion.  The same checks back `loewnerlab report --seed N` on the command
line; seed 1234 is the reference configuration.
"""

import json
import math

import numpy as np
import pytest

from loewnerlab import acceptance as acc
from loewnerlab import cli
from loewnerlab.acceptance import CRITERIA, criterion_names, run_acceptance, run_criterion
from loewnerlab.connections import (
    arithmetic_spec,
    evaluate_connection,
    geometric_mean_closed_form,
    geometric_spec,
    harmonic_spec,
)
from loewnerlab.divdiff import NodeSet, loewner_matrix
from loewnerlab.functions import ScalarFunction, _kernel_table, get_function
from loewnerlab.hermitian import (
    PSD_TOL,
    HermitianMatrix,
    Interval,
    hermitian_part,
    min_eig_scaled,
    random_hermitian,
    random_ordered_pair,
)
from loewnerlab.measures import (
    RadonMeasure01,
    default_lambda_grid,
    fit_measure,
    kernel01,
    synthesize,
)
from loewnerlab.monotonicity import derivative_bound_at_one, extreme_decomposition, sample_nodes
from loewnerlab.report import RunConfig

GATE_SEED = 1234


@pytest.mark.parametrize("crit", CRITERIA, ids=[c.name for c in CRITERIA])
def test_criterion(crit):
    record = run_criterion(crit, RunConfig(seed=GATE_SEED))
    assert record.passed, f"{crit.name} failed; evidence: {record.evidence}"


def test_criterion_names_are_unique_and_anchored():
    names = criterion_names()
    assert len(names) == len(set(names)) == 12
    for c in CRITERIA:
        assert c.anchor.strip()


_SENSES = {"<=": lambda v, b: v <= b, ">=": lambda v, b: v >= b, "==": lambda v, b: v == b}


def _rederived(record: dict) -> str:
    """A record's outcome re-derived from its bounds map alone."""
    ev = record["evidence"]
    assert ev["bounds"] and set(ev["bounds"]) <= set(ev), record["name"]
    within = [_SENSES[sense](ev[key], bound) for key, (sense, bound) in ev["bounds"].items()]
    return "pass" if all(within) else "fail"


def test_full_report_passes_and_counts_every_criterion():
    report = run_acceptance(RunConfig(seed=GATE_SEED, trials=2))
    assert report.passed
    assert [r.name for r in report.records] == criterion_names()
    for record in json.loads(report.to_json())["records"]:
        assert _rederived(record) == record["outcome"], record["name"]


def test_report_calls_f_on_python_floats_at_most_60000_times(monkeypatch, capsys):
    # a deterministic count: 442 815 calls when every f went point by point,
    # 40 972 with the catalog's array forms behind _node_values
    calls = 0
    scalar_call = ScalarFunction.__call__

    def counted(f, x):
        nonlocal calls
        calls += 1
        return scalar_call(f, x)

    monkeypatch.setattr(ScalarFunction, "__call__", counted)
    assert cli.main(["report", "--seed", str(GATE_SEED)]) == 0
    capsys.readouterr()
    assert 0 < calls <= 60_000


# ---------------------------------------------------------------------------
# kubo_ando_axioms against its per-trial reference
#
# The reference evaluates every trial on its own, one connection call per
# operand pair, as the criterion did before it was stacked by order.  The
# stacked criterion must give the same evidence, float for float.


def _ref_kubo_ando(cfg):
    specs = [
        ("arithmetic", arithmetic_spec()),
        ("harmonic", harmonic_spec()),
        ("geometric", geometric_spec(200)),
    ]
    trials = cfg.loop(100)
    worst_mono = math.inf
    worst_transformer = 0.0
    worst_chain = math.inf
    worst_limit = 0.0
    for si, (name, spec) in enumerate(specs):
        for t in range(trials):
            rng = np.random.default_rng((cfg.seed, 108, si, t))
            n = int(rng.integers(1, 5))

            a, a2 = random_ordered_pair(n, acc.IV_PAIRS, rng)
            b, b2 = random_ordered_pair(n, acc.IV_PAIRS, rng)
            lo = evaluate_connection(spec, a, b)
            hi = evaluate_connection(spec, a2, b2)
            worst_mono = min(worst_mono, min_eig_scaled(hi.entries - lo.entries))

            c = random_hermitian(n, Interval(0.3, 2.0), rng)
            lhs = hermitian_part(c.entries @ lo.entries @ c.entries)
            cac = HermitianMatrix(hermitian_part(c.entries @ a.entries @ c.entries))
            cbc = HermitianMatrix(hermitian_part(c.entries @ b.entries @ c.entries))
            rhs = evaluate_connection(spec, cac, cbc).entries
            worst_transformer = max(
                worst_transformer, _specnorm(lhs - rhs) / max(1.0, _specnorm(rhs))
            )

            prev = None
            last_eps = None
            for k in (1, 2, 4, 8, 16):
                eps = 1.0 / k
                cur = evaluate_connection(spec, _plus_eps(a, eps), _plus_eps(b, eps))
                worst_chain = min(worst_chain, min_eig_scaled(cur.entries - lo.entries))
                if prev is not None:
                    worst_chain = min(
                        worst_chain, min_eig_scaled(prev.entries - cur.entries)
                    )
                prev, last_eps = cur, eps
            delta = min(
                float(np.linalg.eigvalsh(a.entries)[0]),
                float(np.linalg.eigvalsh(b.entries)[0]),
            )
            bound = (last_eps / delta) * _specnorm(lo.entries) * (1.0 + 1e-6) + 1e-9
            gap = _specnorm(prev.entries - lo.entries)
            worst_limit = max(worst_limit, gap / bound)

    geo = geometric_spec(200)
    worst_geo = 0.0
    for t in range(20):
        rng = np.random.default_rng((cfg.seed, 108, 9, t))
        n = int(rng.integers(2, 5))
        a = random_hermitian(n, acc.IV_PAIRS, rng)
        b = random_hermitian(n, acc.IV_PAIRS, rng)
        quad = evaluate_connection(geo, a, b).entries
        closed = geometric_mean_closed_form(a, b).entries
        worst_geo = max(worst_geo, _specnorm(quad - closed) / _specnorm(closed))

    worst_rep = 0.0
    xs = np.geomspace(1e-2, 1e2, 50)
    for name, spec in specs:
        g_kernel = synthesize(spec)
        for x in xs:
            v1, v2 = _ref_half_line(spec, float(x)), g_kernel(float(x))
            worst_rep = max(worst_rep, abs(v1 - v2) / max(1.0, abs(v1)))

    ok = (
        worst_mono >= -PSD_TOL
        and worst_transformer <= 1e-8
        and worst_chain >= -PSD_TOL
        and worst_limit <= 1.0
        and worst_geo <= 1e-6
        and worst_rep <= 1e-12
    )
    ev = {
        "specs": [s[0] for s in specs],
        "trials_each": trials,
        "max_order": 4,
        "worst_monotonicity_min_eig": worst_mono,
        "worst_transformer_rel_err": worst_transformer,
        "worst_downward_chain_min_eig": worst_chain,
        "worst_limit_gap_over_bound": worst_limit,
        "geometric_vs_closed_rel_err": worst_geo,
        "representing_vs_kernel_err": worst_rep,
        "bounds": {
            "worst_monotonicity_min_eig": [">=", -PSD_TOL],
            "worst_transformer_rel_err": ["<=", 1e-8],
            "worst_downward_chain_min_eig": [">=", -PSD_TOL],
            "worst_limit_gap_over_bound": ["<=", 1.0],
            "geometric_vs_closed_rel_err": ["<=", 1e-6],
            "representing_vs_kernel_err": ["<=", 1e-12],
        },
    }
    return ok, ev


def _specnorm(m):
    return float(np.linalg.norm(m, 2))


def _scalar_kernel_inf(s, x):
    """measures.kernel_inf's scalar form on Python floats."""
    return float(x) if math.isinf(s) else x * (1.0 + s) / (x + s)


def _ref_half_line(mu, x):
    """The representing function at one point, atom by atom."""
    total = mu.alpha + mu.beta * x
    for s, w in mu.interior:
        total += w * _scalar_kernel_inf(s, x)
    return total


def _plus_eps(a, eps):
    return HermitianMatrix(a.entries + eps * np.eye(a.dim))


@pytest.mark.parametrize("seed,trials", [(0, 3), (1, 3), (1234, 3), (1234, None)],
                         ids=["0-3", "1-3", "1234-3", "1234-full"])
def test_stacked_kubo_ando_equals_per_trial_reference(seed, trials):
    cfg = RunConfig(seed=seed, trials=trials)
    ev, checks = acc.crit_kubo_ando(cfg)
    ref_ok, ref_ev = _ref_kubo_ando(cfg)
    assert checks.passed() == ref_ok
    got = {**ev, **checks.worst, "bounds": checks.bounds}
    assert json.dumps(got, sort_keys=True) == json.dumps(ref_ev, sort_keys=True)


def test_kubo_ando_stack_calls_do_not_grow_with_trials(monkeypatch):
    # seed 18 draws every order 1-4 within the first five trials of each
    # spec, so both runs stack the same (spec, order) groups: 3 specs x 4
    # orders x 8 roles (lo, hi, CBC-side pair, five eps-shifts), plus one
    # call per order 2-4 of the geometric cross-check
    heights = []
    stack = acc._connection_stack

    def counted(mu, a, b):
        heights.append(a.shape[0])
        return stack(mu, a, b)

    monkeypatch.setattr(acc, "_connection_stack", counted)
    for trials in (5, 100):
        heights.clear()
        acc.crit_kubo_ando(RunConfig(seed=18, trials=trials))
        assert len(heights) == 3 * 4 * 8 + 3
        assert sum(heights) == 3 * 8 * trials + 20  # every trial in one row per role


# ---------------------------------------------------------------------------
# mollifier_regularization on cold and warm kernel tables, and
# normalized_growth_bounds against a pair-by-pair reference


def test_regularization_evidence_does_not_depend_on_kernel_table_cache():
    cfg = RunConfig(seed=GATE_SEED)
    _kernel_table.cache_clear()
    cold_ev, cold = acc.crit_regularization(cfg)
    assert _kernel_table.cache_info().currsize > 0
    warm_ev, warm = acc.crit_regularization(cfg)
    assert json.dumps([cold_ev, cold.worst, cold.bounds], sort_keys=True) == json.dumps(
        [warm_ev, warm.worst, warm.bounds], sort_keys=True
    )


def _ref_p1_bounds():
    """The growth-bound extremes over every grid pair, one pair at a time."""
    ts = np.geomspace(0.01, 100.0, 50)
    upper, low, high = -math.inf, math.inf, -math.inf
    for f in acc._p1_members():
        vals = np.array([f(float(t)) for t in ts])
        upper = max(upper, float((vals - (ts + 1.0)).max()))
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                t, s = float(ts[i]), float(ts[j])
                diff = float(vals[j] - vals[i])
                low = min(low, diff)
                high = max(high, diff - (1.0 + 1.0 / t) * (s - t))
    return upper, low, high


def test_growth_bounds_evidence_equals_pairwise_reference():
    _, checks = acc.crit_p1_bounds(RunConfig(seed=GATE_SEED))
    assert checks.passed()
    got = (checks.worst["worst_upper_bound_excess"], checks.worst["worst_monotonicity_gap"],
           checks.worst["worst_slope_bound_excess"])
    assert got == _ref_p1_bounds()
    assert all(type(v) is float for v in got)


# ---------------------------------------------------------------------------
# extreme_point_machinery, representation_roundtrips and the representing-
# function check of kubo_ando_axioms against point-by-point references
#
# Each reference evaluates every function one point at a time and observes
# every value in order, as the criteria did before they evaluated through
# _node_values and the broadcast s-coordinate references.


def _ref_extreme_points(cfg):
    members = acc._p1_members()
    grid = np.geomspace(0.01, 100.0, 100)
    weights = {}
    checks = acc._Checks()
    for f in members:
        w = derivative_bound_at_one(f)
        weights[f.name] = w
        checks.at_least("min_derivative_weight", w, 0.0)
        checks.at_most("max_derivative_weight", w, 1.0 + 1e-8)
        dec = extreme_decomposition(f)
        for t in grid:
            lhs = dec.weight * dec.f1(float(t)) + (1.0 - dec.weight) * dec.f2(float(t))
            checks.at_most("worst_decomposition_error", abs(lhs - f(float(t))), 1e-10)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        err = abs(get_function(f"kernel:{lam:g}").deriv(1.0) - lam)
        checks.at_most("kernel_weight_error", err, 1e-12)
    return {"members": [f.name for f in members], "derivative_weights": weights,
            "grid_points": len(grid)}, checks


def _ref_representation(cfg):
    grid = default_lambda_grid(200)
    idx = (0, 100, 150, 199)
    true_w = (0.3, 0.25, 0.2, 0.25)
    mu0 = RadonMeasure01(atoms=tuple((float(grid[i]), w) for i, w in zip(idx, true_w)))
    f0 = synthesize(mu0)
    mu1, resid0 = fit_measure([(float(t), f0(float(t))) for t in np.geomspace(1e-3, 1e3, 60)],
                              grid)
    got = dict(mu1.atoms)
    weight_err = max(abs(got.get(float(grid[i]), 0.0) - w) for i, w in zip(idx, true_w))
    spurious = sum(w for lam, w in mu1.atoms if lam not in {float(grid[i]) for i in idx})
    checks = acc._Checks()
    checks.at_most("roundtrip_weight_error", max(weight_err, spurious), 1e-8)

    sqrt_samples = [(float(t), math.sqrt(t)) for t in np.geomspace(1e-3, 1e3, 100)]
    mu_sqrt, resid_sqrt = fit_measure(sqrt_samples, grid)
    checks.at_most("sqrt_fit_residual", resid_sqrt, 1e-6)
    exact = synthesize(mu0)(1.0) == mu0.total_mass()
    exact_fit = synthesize(mu_sqrt)(1.0) == mu_sqrt.total_mass()
    checks.equal("mass_at_one_exact", bool(exact and exact_fit), True)

    for s in np.geomspace(1e-2, 1e2, 50).tolist():
        lam = s / (1.0 + s)
        for x in np.geomspace(1e-2, 1e2, 50).tolist():
            ki, k0 = _scalar_kernel_inf(s, x), kernel01(lam, x)
            checks.at_most("kernel_conversion_error", abs(ki - k0) / max(1.0, abs(ki)), 1e-14)
    return {"roundtrip_residual": resid0, "sqrt_fit_support": len(mu_sqrt.atoms),
            "kernel_grid": [1e-2, 1e2, 50]}, checks


@pytest.mark.parametrize("seed", [1234, 0, 77])
@pytest.mark.parametrize("crit,ref", [
    (acc.crit_extreme_points, _ref_extreme_points),
    (acc.crit_representation, _ref_representation),
], ids=["extreme_point_machinery", "representation_roundtrips"])
def test_point_loop_criteria_equal_point_by_point_reference(crit, ref, seed):
    cfg = RunConfig(seed=seed)
    got, want = crit(cfg), ref(cfg)
    # unsorted dumps: the key order of the evidence is part of the report bytes
    assert json.dumps([got[0], got[1].worst, got[1].bounds]) == json.dumps(
        [want[0], want[1].worst, want[1].bounds])


@pytest.mark.parametrize("seed", [1234, 0, 77])
def test_representing_check_equals_point_by_point_reference(seed):
    _, checks = acc.crit_kubo_ando(RunConfig(seed=seed, trials=1))
    worst = None
    for spec in (arithmetic_spec(), harmonic_spec(), geometric_spec(200)):
        g_kernel = synthesize(spec)
        for x in np.geomspace(1e-2, 1e2, 50).tolist():
            v1 = _ref_half_line(spec, x)
            rep = abs(v1 - g_kernel(x)) / max(1.0, abs(v1))
            worst = rep if worst is None or rep > worst else worst
    assert checks.worst["representing_vs_kernel_err"] == worst
    assert list(checks.worst) == [
        "worst_monotonicity_min_eig", "worst_transformer_rel_err",
        "worst_downward_chain_min_eig", "worst_limit_gap_over_bound",
        "geometric_vs_closed_rel_err", "representing_vs_kernel_err",
    ]


# ---------------------------------------------------------------------------
# The check vocabulary: worst value per check, its bound, the derived outcome

NAN = float("nan")


def _observed(method, values, bound):
    checks = acc._Checks()
    for v in values:
        getattr(checks, method)("x", v, bound)
    return checks


def test_checks_keep_the_worst_value_seeded_by_the_first():
    hi = _observed("at_most", [0.25, 0.75, 0.5], 1.0)
    assert hi.worst == {"x": 0.75} and hi.bounds == {"x": ["<=", 1.0]} and hi.passed()
    lo = _observed("at_least", [0.5, -0.25, 0.0], -1.0)
    assert lo.worst == {"x": -0.25} and lo.bounds == {"x": [">=", -1.0]} and lo.passed()
    # a first observation below 0 seeds the maximum; no 0.0 start hides it
    below = _observed("at_most", [-3.0, -5.0], -4.0)
    assert below.worst == {"x": -3.0} and not below.passed()
    assert not _observed("at_most", [0.5, 2.0, 0.5], 1.0).passed()
    assert not _observed("at_least", [0.5, -2.0, 0.5], -1.0).passed()


@pytest.mark.parametrize("method,bound", [("at_most", 1.0), ("at_least", -1.0)])
@pytest.mark.parametrize("values", [[NAN, 0.1, 0.2], [0.1, NAN, 0.2], [0.1, 0.2, NAN]],
                         ids=["first", "middle", "last"])
def test_checks_nan_is_the_worst_value_and_fails(method, bound, values):
    checks = _observed(method, values, bound)
    assert math.isnan(checks.worst["x"])
    assert not checks.passed()


def test_checks_equal_on_booleans_and_outcome_strings():
    assert _observed("equal", [True, True], True).passed()
    miss = _observed("equal", [True, False, True], True)
    assert miss.worst == {"x": False} and miss.bounds == {"x": ["==", True]}
    assert not miss.passed()
    assert _observed("equal", ["fail"], "fail").passed()
    assert not _observed("equal", ["pass"], "fail").passed()


def test_checks_pass_only_when_every_check_does_and_flag_a_new_worst():
    checks = acc._Checks()
    assert [checks.at_most("x", v, 1.0) for v in (0.5, 0.25, 0.75, 0.75)] == [
        True, False, True, False]
    assert checks.passed()
    checks.at_least("y", -2.0, -1.0)
    assert not checks.passed()


def test_failing_psd_criterion_keeps_its_worst_case_witness(monkeypatch):
    crit = next(c for c in CRITERIA if c.name == "loewner_psd_certificate")
    assert "witness" not in run_criterion(crit, RunConfig(seed=GATE_SEED)).evidence
    # a tiny tolerance fails the certificate on its -5e-14 margin
    monkeypatch.setattr(acc, "PSD_TOL", 1e-20)
    record = run_criterion(crit, RunConfig(seed=GATE_SEED))
    assert record.outcome == _rederived(record.to_obj()) == "fail"
    w = record.evidence["witness"]
    ns = NodeSet(tuple(w["nodes"]), acc.IV_MAIN)
    lam = np.linalg.eigvalsh(loewner_matrix(get_function(w["function"]), ns).entries)
    margin = float(lam[0]) / float(np.abs(lam).max())
    assert margin == record.evidence["worst_min_eig_over_norm"] < 0.0


@pytest.mark.parametrize("name,keys", [
    ("loewner_psd_certificate", ["worst_min_eig_over_norm"]),
    ("difference_quotient_monotone", ["worst_min_eig_over_norm"]),
    ("kubo_ando_axioms", ["worst_monotonicity_min_eig", "worst_downward_chain_min_eig"]),
])
def test_every_psd_gate_reads_the_pinned_tolerance_at_call_time(monkeypatch, name, keys):
    # no run option replaces PSD_TOL: each gate's bound is the module value
    crit = next(c for c in CRITERIA if c.name == name)
    monkeypatch.setattr(acc, "PSD_TOL", 0.25)
    bounds = run_criterion(crit, RunConfig(seed=GATE_SEED, trials=1)).evidence["bounds"]
    assert {k: bounds[k] for k in keys} == {k: [">=", -0.25] for k in keys}


# ---------------------------------------------------------------------------
# loewner_psd_certificate and chain_rule_finite_differences on stacks


def _ref_loewner_psd(cfg):
    """Criterion 1 trial by trial: sample_nodes, loewner_matrix and one
    eigvalsh per trial; the worst margin and its first witness, judged
    against the criterion's tolerance as it stands at the call."""
    worst = witness = None
    for fi, nm in enumerate(["sqrt", "power:0.25", "power:0.75",
                             "kernel:0.25", "kernel:0.5", "kernel:0.75"]):
        f = get_function(nm)
        for t in range(cfg.loop(100)):
            ns = sample_nodes(np.random.default_rng((cfg.seed, 101, fi, t)), 5, acc.IV_MAIN)
            lam = np.linalg.eigvalsh(loewner_matrix(f, ns).entries)
            margin = float(lam[0]) / float(np.abs(lam).max())
            if worst is None or margin < worst:
                worst, witness = margin, {"function": nm, "nodes": list(ns.nodes)}
    return worst, witness, worst >= -acc.PSD_TOL


@pytest.mark.parametrize("seed,trials,tol", [
    (1234, None, None), (0, None, None), (77, None, None),
    (1234, 1, None), (0, 1, None), (77, 1, None), (1234, None, 1e-20),
], ids=["1234", "0", "77", "1234-1", "0-1", "77-1", "1234-tol"])
def test_psd_certificate_equals_per_trial_reference(monkeypatch, seed, trials, tol):
    if tol is not None:
        monkeypatch.setattr(acc, "PSD_TOL", tol)
    cfg = RunConfig(seed=seed, trials=trials)
    ev, checks = acc.crit_loewner_psd(cfg)
    worst, witness, ok = _ref_loewner_psd(cfg)
    assert checks.worst["worst_min_eig_over_norm"] == worst
    assert json.dumps(ev["witness"]) == json.dumps(witness)
    assert checks.passed() == ok
    assert ok == (tol is None)  # tol=1e-20 fails on a rounding-level margin


def test_psd_certificate_and_chain_rule_decompose_once_per_stack(monkeypatch):
    counts = {"eigvalsh": 0, "eigh": 0}

    def counter(name):
        real = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counter(name))
    acc.crit_loewner_psd(RunConfig(seed=GATE_SEED))
    assert counts["eigvalsh"] == 6  # one per member; trial by trial it was 600
    counts["eigh"] = 0
    acc.crit_chain_rule(RunConfig(seed=GATE_SEED))
    # per path: the two chain-rule decompositions and one for the five
    # finite-difference points (seven, one matrix at a time)
    assert counts["eigh"] == 3 * 50
