"""The twelve acceptance criteria, runnable as one seeded suite.

Each criterion is an anchored step of the proof.  It returns (context,
checks): context is evidence without a bound (loop sizes, grids, names, and
a "witness" kept only when the criterion fails); checks holds the worst
value observed by each named check and its bound.  run_criterion derives
the outcome from the checks alone, passing when every worst value is within
its bound, and records the context, the worst values and
"bounds": {name: [sense, bound]}, sense one of "<=", ">=", "==".  Bounds
and the PSD tolerance are pinned here, not configurable, because they are
the contract: every PSD gate compares against PSD_TOL.  Only loop sizes (via
RunConfig.trials) can be overridden.  `run_acceptance` runs the criteria in
declaration order and wraps the records in a Report.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._version import __version__
from .calculus import _apply_function_stack, affine_path, path_derivative, path_second_derivative
from .choquet import GridFunction, _decompose_each, concave_envelope, is_concave_grid
from .connections import (
    _connection_stack,
    _geometric_mean_stack,
    arithmetic_spec,
    geometric_spec,
    harmonic_spec,
)
from .divdiff import (
    NodeSet,
    _loewner_stack,
    difference_quotient_transform,
    loewner_matrix,
    second_dd_matrix,
)
from .errors import UsageError
from .functions import (
    OPERATOR_MONOTONE,
    ScalarFunction,
    _density,
    _node_values,
    catalog,
    get_function,
    mollify,
    mollify_derivative,
)
from .hermitian import (
    HermitianMatrix,
    Interval,
    PSD_TOL,
    _build_hermitian,
    _build_ordered_pairs,
    _draw_hermitian,
    _draw_ordered_pair,
    _trial_streams,
    hermitian_part,
    min_eig_scaled,
    random_hermitian,
)
from .measures import (
    RadonMeasure01,
    default_lambda_grid,
    fit_measure,
    kernel01,
    kernel_inf,
    lambda_from_s,
    synthesize,
)
from .monotonicity import (
    _draw_node_sets,
    check_monotone_direct,
    check_monotone_order_n,
    derivative_bound_at_one,
    extreme_decomposition,
)
from .report import CheckRecord, Report, RunConfig, make_report

IV_MAIN = Interval(0.1, 10.0)
IV_PAIRS = Interval(0.5, 4.0)


def _specnorm(m: np.ndarray):
    """Spectral norm: a float for one matrix, an array for a (k, n, n) stack."""
    out = np.linalg.norm(m, 2, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def _p1_members() -> list:
    """Normalized monotone catalog members: claimed monotone with f(1) = 1."""
    return [
        f
        for f in catalog()
        if f.claimed_class == OPERATOR_MONOTONE and abs(f(1.0) - 1.0) <= 1e-12
    ]


def _within(value, sense: str, bound) -> bool:
    if sense == "<=":
        return value <= bound
    if sense == ">=":
        return value >= bound
    return value == bound


class _Checks:
    """The named checks of one criterion: the worst value seen and the bound.

    at_most and at_least keep the largest and the smallest value observed,
    seeded by the first; equal keeps a value that differs from its bound (a
    boolean or an outcome string), if one was seen.  Each call returns True
    when its value becomes the worst, so a criterion can keep its worst case.
    """

    def __init__(self):
        self.worst = {}
        self.bounds = {}

    def at_most(self, key: str, value, bound) -> bool:
        return self._observe(key, value, "<=", bound)

    def at_least(self, key: str, value, bound) -> bool:
        return self._observe(key, value, ">=", bound)

    def equal(self, key: str, value, bound) -> bool:
        return self._observe(key, value, "==", bound)

    def _observe(self, key: str, value, sense: str, bound) -> bool:
        self.bounds[key] = [sense, bound]
        if key in self.worst:
            old = self.worst[key]
            # NaN replaces any value and fails its check; nothing replaces NaN
            if old != old or _within(value, sense, bound if sense == "==" else old):
                return False
        self.worst[key] = value
        return True

    def passed(self) -> bool:
        return all(_within(self.worst[k], s, b) for k, (s, b) in self.bounds.items())


# ---------------------------------------------------------------------------
# 1. PSD certificates for monotone catalog members


def crit_loewner_psd(cfg: RunConfig):
    names = ["sqrt", "power:0.25", "power:0.75", "kernel:0.25", "kernel:0.5", "kernel:0.75"]
    trials = cfg.loop(100)
    checks = _Checks()
    witness = None
    for fi, nm in enumerate(names):
        ts = _draw_node_sets((cfg.seed, 101), fi, 5, IV_MAIN, trials)
        lam = np.linalg.eigvalsh(_loewner_stack(get_function(nm), ts))
        margins = lam[:, 0] / np.abs(lam).max(axis=1)
        # the first worst trial; a later member takes over only when strictly worse
        t = int(np.argmin(margins))
        if checks.at_least("worst_min_eig_over_norm", float(margins[t]), -PSD_TOL):
            witness = {"function": nm, "nodes": ts[t].tolist()}
    return {"functions": names, "trials_each": trials, "node_count": 5,
            "interval": [IV_MAIN.lo, IV_MAIN.hi], "witness": witness}, checks


# ---------------------------------------------------------------------------
# 2. Refutation witnesses for the non-monotone powers


def crit_refutation(cfg: RunConfig):
    square = get_function("square")
    ns = NodeSet((1.0, 3.0), square.domain)
    m = loewner_matrix(square, ns).entries
    det = float(np.linalg.det(m))
    checks = _Checks()
    entry_err = float(np.abs(m - np.array([[2.0, 4.0], [4.0, 6.0]])).max())
    checks.at_most("square_entry_error", entry_err, 1e-12)
    checks.at_most("square_determinant_error", abs(det + 4.0), 1e-12)

    cube = get_function("cube")
    verdict = check_monotone_direct(cube, 2, IV_PAIRS, 200, cfg.seed)
    checks.equal("cube_direct_outcome", verdict.outcome, "fail")
    return {"square_loewner_nodes": [1.0, 3.0], "square_loewner_matrix": m,
            "square_determinant": det, "cube_direct_trials": 200,
            "cube_worst_min_eig_over_norm": verdict.min_eig_seen}, checks


# ---------------------------------------------------------------------------
# 3. Chain rule against centered finite differences


def crit_chain_rule(cfg: RunConfig):
    fs = [get_function("sqrt"), get_function("kernel:0.5"), get_function("square")]
    paths = cfg.loop(50)
    h1, h2 = 1e-5, 1e-4
    checks = _Checks()
    stream = _trial_streams((cfg.seed, 103), paths)
    for t in range(paths):
        rng = stream(t)
        f = fs[t % len(fs)]
        n = int(rng.integers(2, 7))
        a = random_hermitian(n, Interval(1.0, 4.0), rng)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hmat = hermitian_part(z)
        h = HermitianMatrix(hmat / _specnorm(hmat))
        path = affine_path(a, h)

        # f at the five finite-difference points, one stacked decomposition
        at = _apply_function_stack(
            f, np.stack([path.value(s).entries for s in (h1, -h1, h2, 0.0, -h2)])
        )
        d1 = path_derivative(f, path, 0.0).entries
        fd1 = (at[0] - at[1]) / (2.0 * h1)
        checks.at_most("worst_first_rel_err", _specnorm(d1 - fd1) / _specnorm(d1), 1e-6)

        d2 = path_second_derivative(f, path, 0.0).entries
        fd2 = (at[2] - 2.0 * at[3] + at[4]) / (h2 * h2)
        checks.at_most("worst_second_rel_err", _specnorm(d2 - fd2) / _specnorm(d2), 1e-4)
    return {"paths": paths, "functions": [f.name for f in fs], "fd_steps": [h1, h2]}, checks


# ---------------------------------------------------------------------------
# 4. Negated difference-quotient transform stays operator monotone


def crit_diffquot_monotone(cfg: RunConfig):
    trials = cfg.loop(100)
    checks = _Checks()
    failed = []
    for fi, nm in enumerate(("sqrt", "kernel:0.5")):
        f = get_function(nm)
        for ti, t1 in enumerate((0.5, 1.0, 2.0)):
            g = difference_quotient_transform(f, t1).negated()
            v = check_monotone_order_n(g, 4, IV_MAIN, trials, (cfg.seed, 104, fi, ti))
            # a verdict fails exactly when its min_eig_seen is below -PSD_TOL
            checks.at_least("worst_min_eig_over_norm", v.min_eig_seen, -PSD_TOL)
            if not v.passed:
                failed.append({"function": nm, "base_point": t1,
                               "witness_nodes": list(v.witness.nodes)})
    return {"functions": ["sqrt", "kernel:0.5"], "base_points": [0.5, 1.0, 2.0], "order": 4,
            "trials_each": trials, "witness": failed}, checks


# ---------------------------------------------------------------------------
# 5. Anchored second-difference matrix vs the transformed Loewner matrix


def _separated_nodes(rng, n, iv, gap):
    """Uniform nodes with all pairwise gaps >= gap (keeps quotients stable)."""
    for _ in range(200):
        ts = np.sort(rng.uniform(iv.lo, iv.hi, n))
        if np.all(np.diff(ts) >= gap):
            return ts
    raise RuntimeError("separated node sampling failed")  # pragma: no cover


def crit_anchor_identity(cfg: RunConfig):
    sets = cfg.loop(100)
    gap = 0.05
    checks = _Checks()
    fs = [get_function("sqrt"), get_function("kernel:0.5")]
    stream = _trial_streams((cfg.seed, 105), sets)
    for t in range(sets):
        rng = stream(t)
        f = fs[t % 2]
        n = int(rng.integers(2, 7))
        ts = _separated_nodes(rng, n, IV_MAIN, gap)
        anchor = None
        for _ in range(200):
            cand = rng.uniform(0.5, 5.0)
            if np.abs(ts - cand).min() >= gap:
                anchor = cand
                break
        ns = NodeSet(tuple(ts), IV_MAIN)
        m1 = second_dd_matrix(f, ns, anchor).entries
        m2 = loewner_matrix(difference_quotient_transform(f, anchor), ns).entries
        checks.at_most("worst_entry_error", float(np.abs(m1 - m2).max()), 1e-10)
    return {"node_sets": sets, "min_separation": gap}, checks


# ---------------------------------------------------------------------------
# 6. Extreme-point machinery on normalized catalog members


def crit_extreme_points(cfg: RunConfig):
    members = _p1_members()
    grid = np.geomspace(0.01, 100.0, 100)
    weights = {}
    checks = _Checks()
    for f in members:
        w = derivative_bound_at_one(f)
        weights[f.name] = w
        checks.at_least("min_derivative_weight", w, 0.0)
        checks.at_most("max_derivative_weight", w, 1.0 + 1e-8)
        dec = extreme_decomposition(f)
        f1, f2, fv = (_node_values(g, grid) for g in (dec.f1, dec.f2, f))
        err = np.abs(dec.weight * f1 + (1.0 - dec.weight) * f2 - fv)
        checks.at_most("worst_decomposition_error", float(err.max()), 1e-10)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        err = abs(get_function(f"kernel:{lam:g}").deriv(1.0) - lam)
        checks.at_most("kernel_weight_error", err, 1e-12)
    return {"members": [f.name for f in members], "derivative_weights": weights,
            "grid_points": len(grid)}, checks


# ---------------------------------------------------------------------------
# 7. Representation round-trips


def crit_representation(cfg: RunConfig):
    grid = default_lambda_grid(200)
    idx = (0, 100, 150, 199)
    true_w = (0.3, 0.25, 0.2, 0.25)
    mu0 = RadonMeasure01(atoms=tuple((float(grid[i]), w) for i, w in zip(idx, true_w)))
    f0 = synthesize(mu0)
    ts = np.geomspace(1e-3, 1e3, 60)
    mu1, resid0 = fit_measure(zip(ts, _node_values(f0, ts)), grid)
    got = dict(mu1.atoms)
    weight_err = max(abs(got.get(float(grid[i]), 0.0) - w) for i, w in zip(idx, true_w))
    spurious = sum(w for lam, w in mu1.atoms if lam not in {float(grid[i]) for i in idx})
    checks = _Checks()
    checks.at_most("roundtrip_weight_error", max(weight_err, spurious), 1e-8)

    ts = np.geomspace(1e-3, 1e3, 100)
    mu_sqrt, resid_sqrt = fit_measure(zip(ts, _node_values(get_function("sqrt"), ts)), grid)
    checks.at_most("sqrt_fit_residual", resid_sqrt, 1e-6)

    mass_exact = synthesize(mu0)(1.0) == mu0.total_mass()
    mass_exact_fit = synthesize(mu_sqrt)(1.0) == mu_sqrt.total_mass()
    checks.equal("mass_at_one_exact", bool(mass_exact and mass_exact_fit), True)

    xs = np.geomspace(1e-2, 1e2, 50)  # s runs down the rows, x along the columns
    ki = kernel_inf(xs[:, None], xs)
    err = np.abs(ki - kernel01(lambda_from_s(xs[:, None]), xs)) / np.maximum(1.0, np.abs(ki))
    checks.at_most("kernel_conversion_error", float(err.max()), 1e-14)

    return {"roundtrip_residual": resid0, "sqrt_fit_support": len(mu_sqrt.atoms),
            "kernel_grid": [1e-2, 1e2, 50]}, checks


# ---------------------------------------------------------------------------
# 8. Connection axioms and the geometric-mean cross-check


def _draws_by_order(cfg: RunConfig, tags: tuple, trials: int, n_lo: int, draw) -> dict:
    """Each trial's draws from its own substream, grouped by its order n.

    Trial t draws n = integers(n_lo, 5) and then draw(n, rng).  Returns
    {n: stacked draws}, trials in order within each group.
    """
    groups = {}
    stream = _trial_streams((cfg.seed,) + tags, trials)
    for t in range(trials):
        rng = stream(t)
        n = int(rng.integers(n_lo, 5))
        groups.setdefault(n, []).append(draw(n, rng))
    return {n: [np.array(x) for x in zip(*ds)] for n, ds in sorted(groups.items())}


def _kubo_ando_draw(n: int, rng) -> tuple:
    """The draws of one trial: the pairs A <= A2 and B <= B2, then C."""
    return (
        _draw_ordered_pair(n, IV_PAIRS, rng)
        + _draw_ordered_pair(n, IV_PAIRS, rng)
        + _draw_hermitian(n, Interval(0.3, 2.0), rng)
    )


def _geometric_draw(n: int, rng) -> tuple:
    """The draws of one geometric cross-check trial: A, then B."""
    return _draw_hermitian(n, IV_PAIRS, rng) + _draw_hermitian(n, IV_PAIRS, rng)


def _half_line_representing(mu: RadonMeasure01, x):
    """alpha + beta x + sum w x(1+s)/(x+s): the representing function in the
    half-line coordinate, an independent reference for synthesize(mu)."""
    acc = mu.alpha + mu.beta * x
    for s, w in mu.interior:
        acc += w * kernel_inf(s, x)
    return acc


def crit_kubo_ando(cfg: RunConfig):
    """Monotonicity, the transformer inequality and the downward limit of
    each connection, then the quadrature geometric mean against the closed
    form.  Trials are drawn one by one and evaluated as (trials, n, n)
    stacks, one stack per order and operand role."""
    specs = [
        ("arithmetic", arithmetic_spec()),
        ("harmonic", harmonic_spec()),
        ("geometric", geometric_spec(200)),
    ]
    trials = cfg.loop(100)
    checks = _Checks()
    for si, (name, spec) in enumerate(specs):
        groups = _draws_by_order(cfg, (108, si), trials, 1, _kubo_ando_draw)
        for n, d in groups.items():
            a, a2 = _build_ordered_pairs(IV_PAIRS, *d[0:4])
            b, b2 = _build_ordered_pairs(IV_PAIRS, *d[4:8])
            c = _build_hermitian(*d[8:10])
            lo = _connection_stack(spec, a, b)
            hi = _connection_stack(spec, a2, b2)
            mono = float(min_eig_scaled(hi - lo).min())
            checks.at_least("worst_monotonicity_min_eig", mono, -PSD_TOL)

            lhs = hermitian_part(c @ lo @ c)
            rhs = _connection_stack(
                spec, hermitian_part(c @ a @ c), hermitian_part(c @ b @ c)
            )
            err = _specnorm(lhs - rhs) / np.maximum(1.0, _specnorm(rhs))
            checks.at_most("worst_transformer_rel_err", float(err.max()), 1e-8)

            eye = np.eye(n, dtype=np.complex128)
            prev = None
            for k in (1, 2, 4, 8, 16):
                eps = 1.0 / k
                cur = _connection_stack(spec, a + eps * eye, b + eps * eye)
                chain = float(min_eig_scaled(cur - lo).min())
                checks.at_least("worst_downward_chain_min_eig", chain, -PSD_TOL)
                if prev is not None:
                    chain = float(min_eig_scaled(prev - cur).min())
                    checks.at_least("worst_downward_chain_min_eig", chain, -PSD_TOL)
                prev = cur
            delta = np.minimum(
                np.linalg.eigvalsh(a)[:, 0], np.linalg.eigvalsh(b)[:, 0]
            )
            # A, B >= delta I gives A + eps I <= (1 + eps/delta) A, so by monotonicity
            # and homogeneity 0 <= sigma(A+eps I, B+eps I) - sigma(A, B) <= (eps/delta)
            # sigma(A, B), with equality for every normalized connection at A = B =
            # delta I.  The (1 + 1e-6) and 1e-9 terms cover rounding only, so a ratio
            # near 1 (0.9992 at seed 1234 for all three specs) is no near-failure.
            # eps and prev are now the smallest shift, 1/16, and its connection
            bound = (eps / delta) * _specnorm(lo) * (1.0 + 1e-6) + 1e-9
            gap = _specnorm(prev - lo)
            checks.at_most("worst_limit_gap_over_bound", float((gap / bound).max()), 1.0)

    geo = geometric_spec(200)
    pairs = _draws_by_order(cfg, (108, 9), 20, 2, _geometric_draw)
    for lam_a, z_a, lam_b, z_b in pairs.values():
        a, b = _build_hermitian(lam_a, z_a), _build_hermitian(lam_b, z_b)
        quad = _connection_stack(geo, a, b)
        closed = _geometric_mean_stack(a, b)
        err = _specnorm(quad - closed) / _specnorm(closed)
        checks.at_most("geometric_vs_closed_rel_err", float(err.max()), 1e-6)

    xs = np.geomspace(1e-2, 1e2, 50)
    for name, spec in specs:
        v1 = _half_line_representing(spec, xs)
        rep = np.abs(v1 - _node_values(synthesize(spec), xs)) / np.maximum(1.0, np.abs(v1))
        checks.at_most("representing_vs_kernel_err", float(rep.max()), 1e-12)

    return {"specs": [s[0] for s in specs], "trials_each": trials, "max_order": 4}, checks


# ---------------------------------------------------------------------------
# 9. Mollifier regularization


def crit_regularization(cfg: RunConfig):
    xs = np.linspace(-1.0, 1.0, 20001)
    vals = _node_values(_density, xs)
    checks = _Checks()
    checks.at_most("normalization_error", abs(float(np.trapezoid(vals, xs)) - 1.0), 1e-10)

    def line(t):  # plain arithmetic, so also its own array form
        return 3.0 * t + 2.0

    affine = ScalarFunction(
        name="affine_probe",
        domain=Interval(0.1, 10.0),
        fn=line,
        d1=lambda t: 3.0,
        d2=lambda t: 0.0,
        array_forms=(line, None, None),
    )
    xs = np.linspace(1.0, 3.0, 21)
    err = np.abs(_node_values(partial(mollify, affine, 0.05), xs) - _node_values(affine, xs))
    checks.at_most("affine_exactness_error", float(err.max()), 1e-10)

    f = get_function("sqrt")
    grid = np.linspace(1.0, 3.0, 201)
    f_grid = _node_values(f, grid)
    lip_detail = {}
    for eps in (0.1, 0.05, 0.01):
        k_const = 0.5 / math.sqrt(1.0 - eps)
        sup = float(np.abs(_node_values(partial(mollify, f, eps), grid) - f_grid).max())
        lip_detail[f"eps={eps:g}"] = {"sup_gap": sup, "k_eps": k_const * eps}
        # a difference, not a ratio, so its sign is exactly that of the comparison
        checks.at_most("worst_sup_gap_minus_bound", sup - (k_const * eps + 1e-12), 0.0)

    h = 1e-4
    xs = np.linspace(1.2, 2.8, 17)
    smooth = partial(mollify, f, 0.05)
    md = _node_values(partial(mollify_derivative, f, 0.05), xs)
    fd = (_node_values(smooth, xs + h) - _node_values(smooth, xs - h)) / (2.0 * h)
    checks.at_most("derivative_vs_fd_error", float(np.abs(md - fd).max()), 1e-6)

    return {"lipschitz": lip_detail}, checks


# ---------------------------------------------------------------------------
# 10. Concave envelopes and Caratheodory reduction


def crit_choquet(cfg: RunConfig):
    grids = cfg.loop(100)
    checks = _Checks()
    stream = _trial_streams((cfg.seed, 110, 1), grids)
    for t in range(grids):
        rng = stream(t)
        npts = int(rng.integers(5, 41))
        xs = np.cumsum(rng.uniform(0.1, 1.0, npts))
        ys = rng.normal(0.0, 1.0, npts)
        gf = GridFunction(xs, ys)
        env = concave_envelope(gf)
        scale = max(1.0, float(np.abs(ys).max()))

        checks.at_least("envelope_worst_majorant_gap", float((env.ys - gf.ys).min()), 0.0)
        checks.equal("envelope_concave", is_concave_grid(env), True)
        env2 = concave_envelope(env)
        idem_gap = float(np.abs(env2.ys - env.ys).max()) / scale
        checks.at_most("envelope_worst_scaled_gap", idem_gap, 1e-12)

        ys_g = rng.normal(0.0, 1.0, npts)
        env_g = concave_envelope(GridFunction(xs, ys_g))
        env_sum = concave_envelope(GridFunction(xs, ys + ys_g))
        sub_gap = float((env_sum.ys - env.ys - env_g.ys).max())
        scale2 = max(1.0, float(np.abs(ys).max() + np.abs(ys_g).max()))
        checks.at_most("envelope_worst_subadditivity_excess", sub_gap - 1e-12 * scale2, 0.0)

        slope, off = rng.uniform(-2.0, 2.0, 2)
        shifted = concave_envelope(GridFunction(xs, ys + slope * xs + off))
        aff_gap = float(np.abs(shifted.ys - (env.ys + slope * xs + off)).max())
        scale3 = max(1.0, float(np.abs(ys + slope * xs + off).max()))
        checks.at_most("envelope_worst_scaled_gap", aff_gap / scale3, 1e-12)

    cara_n = 10 * cfg.loop(100)
    instances = []
    stream = _trial_streams((cfg.seed, 110, 2), cara_n)
    for t in range(cara_n):
        rng = stream(t)
        d = 1 + t % 6
        m = int(rng.integers(d + 2, 31))
        verts = rng.normal(0.0, 1.0, (m, d))
        w0 = rng.exponential(1.0, m)
        w0 = w0 / w0.sum()
        instances.append((verts, verts.T @ w0, w0 if t % 3 == 0 else None))
    # every instance walks in one stack per d: one SVD per support size
    certs = _decompose_each(instances)
    supports = np.array([c.support_size() for c in certs])
    ratios = supports / np.array([v.shape[1] + 1 for v, _, _ in instances])
    checks.at_most("caratheodory_support_over_d_plus_one", float(ratios.max()), 1.0)
    checks.at_most("caratheodory_worst_residual", float(np.max([c.residual for c in certs])), 1e-9)

    return {
        "envelope_grids": grids,
        "envelope_properties": ["majorant", "concave", "idempotent", "subadditive",
                                "affine_equivariant"],
        "caratheodory_instances": cara_n,
        # misnamed: the largest support size; the benchmark reads this key
        "caratheodory_max_support_excess": int(supports.max()),
    }, checks


# ---------------------------------------------------------------------------
# 11. Growth and slope bounds for normalized monotone members


def crit_p1_bounds(cfg: RunConfig):
    members = _p1_members()
    ts = np.geomspace(0.01, 100.0, 50)
    # every pair t < s of the grid, with the slope bound (1 + 1/t)(s - t)
    i, j = np.triu_indices(len(ts), k=1)
    t, s = ts[i], ts[j]
    slope_bound = (1.0 + 1.0 / t) * (s - t)
    slack = 1e-12 * (1.0 + float(ts[-1]))
    checks = _Checks()
    for f in members:
        vals = _node_values(f, ts)
        checks.at_most("worst_upper_bound_excess", float((vals - (ts + 1.0)).max()), slack)
        diff = vals[j] - vals[i]
        checks.at_least("worst_monotonicity_gap", float(diff.min()), -1e-12)
        checks.at_most("worst_slope_bound_excess", float((diff - slope_bound).max()), slack)
    return {"members": [f.name for f in members], "grid": [0.01, 100.0, 50]}, checks


# ---------------------------------------------------------------------------
# 12. Determinism of the report pipeline


def crit_determinism(cfg: RunConfig):
    sub = RunConfig(seed=cfg.seed, trials=1)
    names = [c.name for c in CRITERIA if c.name != "determinism"]
    r1 = run_acceptance(sub, names).to_json()
    r2 = run_acceptance(sub, names).to_json()
    checks = _Checks()
    checks.equal("identical", r1 == r2, True)
    return {"bytes": len(r1.encode()), "sha256": hashlib.sha256(r1.encode()).hexdigest(),
            "smoke_criteria": len(names)}, checks


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    name: str
    anchor: str
    run: Callable


CRITERIA = (
    Criterion(
        "loewner_psd_certificate",
        r"[\Delta f(t_i, t_j)]_{i,j=1}^{n} \geq 0",
        crit_loewner_psd,
    ),
    Criterion(
        "refutation_witnesses",
        r"[\Delta f(t_i, t_j)]_{i,j=1}^{n} \geq 0",
        crit_refutation,
    ),
    Criterion(
        "chain_rule_finite_differences",
        r"\frac{d}{dt} f(\gamma(t)) = U ([\Delta f] \circ U^* \gamma'(t) U) U^*",
        crit_chain_rule,
    ),
    Criterion(
        "difference_quotient_monotone",
        r"$-L_{t_1}f$ is operator monotone",
        crit_diffquot_monotone,
    ),
    Criterion(
        "anchor_identity",
        r"\Delta^2 f(t_i, t_j, t_1) = \Delta F_{t_1}(t_i, t_j)",
        crit_anchor_identity,
    ),
    Criterion(
        "extreme_point_machinery",
        r"f'(1) f_1(t) + (1-f'(1)) f_2(t) = f(t)",
        crit_extreme_points,
    ),
    Criterion(
        "representation_roundtrips",
        r"probability measure iff $f(1) =1$",
        crit_representation,
    ),
    Criterion(
        "kubo_ando_axioms",
        r"C(A \sigma B)C \leq (CAC) \sigma (CBC)",
        crit_kubo_ando,
    ),
    Criterion(
        "mollifier_regularization",
        r"differentiable with derivative $f \ast \phi'_{\epsilon}$",
        crit_regularization,
    ),
    Criterion(
        "choquet_toolkit",
        r"x = \sum_{k \leq d+1} w_k v_k, \ w_k \geq 0, \ \sum w_k = 1",
        crit_choquet,
    ),
    Criterion(
        "normalized_growth_bounds",
        r"$f(t) \leq t + 1$",
        crit_p1_bounds,
    ),
    Criterion(
        "determinism",
        "bitwise-identical reports for identical (version, config, seed)",
        crit_determinism,
    ),
)


def criterion_names() -> list:
    return [c.name for c in CRITERIA]


def run_criterion(crit: Criterion, cfg: RunConfig) -> CheckRecord:
    """Run one criterion; it passes when every check's worst value is in bounds."""
    context, checks = crit.run(cfg)
    passed = checks.passed()
    if passed:
        context.pop("witness", None)
    return CheckRecord(
        name=crit.name,
        anchor=crit.anchor,
        outcome="pass" if passed else "fail",
        evidence={**context, **checks.worst, "bounds": checks.bounds},
    )


def run_acceptance(cfg: RunConfig, names=None) -> Report:
    """Run the acceptance criteria (all, or the named subset) in order."""
    wanted = set(criterion_names() if names is None else names)
    unknown = wanted - set(criterion_names())
    if unknown:
        raise UsageError(f"unknown criteria: {sorted(unknown)}")
    records = [run_criterion(c, cfg) for c in CRITERIA if c.name in wanted]
    return make_report(__version__, cfg, records)
