"""The twelve acceptance criteria, runnable as one seeded suite.

Each criterion is a named, anchored check returning pass/fail plus numeric
evidence; `run_acceptance` executes them in declaration order and wraps the
records in a Report.  Tolerances are pinned here, not configurable, because
they are the contract; only loop sizes (via RunConfig.trials) and the PSD
tolerance (via RunConfig.tol, where a check exposes one) can be overridden.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._version import __version__
from .calculus import affine_path, apply_function, path_derivative, path_second_derivative
from .choquet import (
    GridFunction,
    _finish,
    _reduce_each,
    _start_weights,
    concave_envelope,
    is_concave_grid,
)
from .connections import (
    _connection_stack,
    _geometric_mean_stack,
    arithmetic_spec,
    geometric_spec,
    harmonic_spec,
)
from .divdiff import NodeSet, difference_quotient_transform, loewner_matrix, second_dd_matrix
from .errors import UsageError
from .functions import (
    OPERATOR_MONOTONE,
    ScalarFunction,
    _node_values,
    catalog,
    get_function,
    mollify,
    mollify_derivative,
    standard_mollifier,
)
from .hermitian import (
    HermitianMatrix,
    Interval,
    PSD_TOL,
    _build_hermitian,
    _build_ordered_pairs,
    _draw_hermitian,
    _draw_ordered_pair,
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
    check_monotone_direct,
    check_monotone_order_n,
    derivative_bound_at_one,
    extreme_decomposition,
    sample_nodes,
)
from .report import CheckRecord, Report, RunConfig, make_report

IV_MAIN = Interval(0.1, 10.0)
IV_PAIRS = Interval(0.5, 4.0)


def _rng(cfg: RunConfig, *tags: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed,) + tags)


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


# ---------------------------------------------------------------------------
# 1. PSD certificates for monotone catalog members


def crit_loewner_psd(cfg: RunConfig):
    names = ["sqrt", "power:0.25", "power:0.75", "kernel:0.25", "kernel:0.5", "kernel:0.75"]
    trials = cfg.loop(100)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    worst = math.inf
    worst_case = None
    for fi, nm in enumerate(names):
        f = get_function(nm)
        for t in range(trials):
            ns = sample_nodes(_rng(cfg, 101, fi, t), 5, IV_MAIN)
            lam = np.linalg.eigvalsh(loewner_matrix(f, ns).entries)
            margin = float(lam[0]) / float(np.abs(lam).max())
            if margin < worst:
                worst, worst_case = margin, (nm, ns.nodes)
    ok = worst >= -tol
    ev = {
        "functions": names,
        "trials_each": trials,
        "node_count": 5,
        "interval": [IV_MAIN.lo, IV_MAIN.hi],
        "worst_min_eig_over_norm": worst,
        "tolerance": -tol,
    }
    if not ok:
        ev["witness"] = {"function": worst_case[0], "nodes": list(worst_case[1])}
    return ok, ev


# ---------------------------------------------------------------------------
# 2. Refutation witnesses for the non-monotone powers


def crit_refutation(cfg: RunConfig):
    square = get_function("square")
    ns = NodeSet((1.0, 3.0), square.domain)
    m = loewner_matrix(square, ns).entries
    entry_err = float(np.abs(m - np.array([[2.0, 4.0], [4.0, 6.0]])).max())
    det = float(np.linalg.det(m))
    det_err = abs(det + 4.0)

    cube = get_function("cube")
    verdict = check_monotone_direct(cube, 2, IV_PAIRS, 200, cfg.seed)
    ok = entry_err <= 1e-12 and det_err <= 1e-12 and verdict.outcome == "fail"
    ev = {
        "square_loewner_nodes": [1.0, 3.0],
        "square_loewner_matrix": m,
        "square_determinant": det,
        "square_entry_error": entry_err,
        "cube_direct_trials": 200,
        "cube_direct_outcome": verdict.outcome,
        "cube_worst_min_eig_over_norm": verdict.min_eig_seen,
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 3. Chain rule against centered finite differences


def crit_chain_rule(cfg: RunConfig):
    fs = [get_function("sqrt"), get_function("kernel:0.5"), get_function("square")]
    paths = cfg.loop(50)
    h1, h2 = 1e-5, 1e-4
    worst1 = worst2 = 0.0
    for t in range(paths):
        rng = _rng(cfg, 103, t)
        f = fs[t % len(fs)]
        n = int(rng.integers(2, 7))
        a = random_hermitian(n, Interval(1.0, 4.0), rng)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hmat = hermitian_part(z)
        h = HermitianMatrix(hmat / _specnorm(hmat))
        path = affine_path(a, h)

        d1 = path_derivative(f, path, 0.0).entries
        fd1 = (
            apply_function(f, path.value(h1)).entries
            - apply_function(f, path.value(-h1)).entries
        ) / (2.0 * h1)
        worst1 = max(worst1, _specnorm(d1 - fd1) / _specnorm(d1))

        d2 = path_second_derivative(f, path, 0.0).entries
        fd2 = (
            apply_function(f, path.value(h2)).entries
            - 2.0 * apply_function(f, path.value(0.0)).entries
            + apply_function(f, path.value(-h2)).entries
        ) / (h2 * h2)
        worst2 = max(worst2, _specnorm(d2 - fd2) / _specnorm(d2))
    ok = worst1 <= 1e-6 and worst2 <= 1e-4
    ev = {
        "paths": paths,
        "functions": [f.name for f in fs],
        "fd_steps": [h1, h2],
        "worst_first_rel_err": worst1,
        "worst_second_rel_err": worst2,
        "bounds": [1e-6, 1e-4],
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 4. Negated difference-quotient transform stays operator monotone


def crit_diffquot_monotone(cfg: RunConfig):
    trials = cfg.loop(100)
    worst = math.inf
    failed = []
    for fi, nm in enumerate(("sqrt", "kernel:0.5")):
        f = get_function(nm)
        for ti, t1 in enumerate((0.5, 1.0, 2.0)):
            g = difference_quotient_transform(f, t1).negated()
            v = check_monotone_order_n(g, 4, IV_MAIN, trials, (cfg.seed, 104, fi, ti))
            worst = min(worst, v.min_eig_seen)
            if not v.passed:
                failed.append({"function": nm, "base_point": t1,
                               "witness_nodes": list(v.witness.nodes)})
    ok = not failed
    ev = {
        "functions": ["sqrt", "kernel:0.5"],
        "base_points": [0.5, 1.0, 2.0],
        "order": 4,
        "trials_each": trials,
        "worst_min_eig_over_norm": worst,
    }
    if failed:
        ev["witness"] = failed
    return ok, ev


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
    worst = 0.0
    fs = [get_function("sqrt"), get_function("kernel:0.5")]
    for t in range(sets):
        rng = _rng(cfg, 105, t)
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
        worst = max(worst, float(np.abs(m1 - m2).max()))
    ok = worst <= 1e-10
    ev = {
        "node_sets": sets,
        "min_separation": gap,
        "worst_entry_error": worst,
        "bound": 1e-10,
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 6. Extreme-point machinery on normalized catalog members


def crit_extreme_points(cfg: RunConfig):
    members = _p1_members()
    grid = np.geomspace(0.01, 100.0, 100)
    weights = {}
    weight_ok = True
    worst_identity = 0.0
    for f in members:
        w = derivative_bound_at_one(f)
        weights[f.name] = w
        if not (0.0 <= w <= 1.0 + 1e-8):
            weight_ok = False
        dec = extreme_decomposition(f)
        for t in grid:
            lhs = dec.weight * dec.f1(float(t)) + (1.0 - dec.weight) * dec.f2(float(t))
            worst_identity = max(worst_identity, abs(lhs - f(float(t))))
    kernel_err = max(
        abs(get_function(f"kernel:{lam:g}").deriv(1.0) - lam)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    ok = weight_ok and worst_identity <= 1e-10 and kernel_err <= 1e-12
    ev = {
        "members": [f.name for f in members],
        "derivative_weights": weights,
        "worst_decomposition_error": worst_identity,
        "kernel_weight_error": kernel_err,
        "grid_points": len(grid),
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 7. Representation round-trips


def crit_representation(cfg: RunConfig):
    grid = default_lambda_grid(200)
    idx = (0, 100, 150, 199)
    true_w = (0.3, 0.25, 0.2, 0.25)
    mu0 = RadonMeasure01(atoms=tuple((float(grid[i]), w) for i, w in zip(idx, true_w)))
    f0 = synthesize(mu0)
    ts = np.geomspace(1e-3, 1e3, 60)
    mu1, resid0 = fit_measure([(float(t), f0(float(t))) for t in ts], grid)
    got = dict(mu1.atoms)
    weight_err = max(abs(got.get(float(grid[i]), 0.0) - w) for i, w in zip(idx, true_w))
    spurious = sum(w for lam, w in mu1.atoms if lam not in {float(grid[i]) for i in idx})
    weight_err = max(weight_err, spurious)

    sqrt_samples = [(float(t), math.sqrt(t)) for t in np.geomspace(1e-3, 1e3, 100)]
    mu_sqrt, resid_sqrt = fit_measure(sqrt_samples, grid)

    mass_exact = synthesize(mu0)(1.0) == mu0.total_mass()
    mass_exact_fit = synthesize(mu_sqrt)(1.0) == mu_sqrt.total_mass()

    ss = np.geomspace(1e-2, 1e2, 50)
    xs = np.geomspace(1e-2, 1e2, 50)
    conv_err = 0.0
    for s in ss:
        lam = lambda_from_s(float(s))
        for x in xs:
            ki = kernel_inf(float(s), float(x))
            k0 = kernel01(lam, float(x))
            conv_err = max(conv_err, abs(ki - k0) / max(1.0, abs(ki)))

    ok = (
        weight_err <= 1e-8
        and resid_sqrt <= 1e-6
        and mass_exact
        and mass_exact_fit
        and conv_err <= 1e-14
    )
    ev = {
        "roundtrip_weight_error": weight_err,
        "roundtrip_residual": resid0,
        "sqrt_fit_residual": resid_sqrt,
        "sqrt_fit_support": len(mu_sqrt.atoms),
        "mass_at_one_exact": bool(mass_exact and mass_exact_fit),
        "kernel_conversion_error": conv_err,
        "kernel_grid": [1e-2, 1e2, 50],
        "bounds": {"weights": 1e-8, "sqrt_residual": 1e-6, "conversion": 1e-14},
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 8. Connection axioms and the geometric-mean cross-check


def _draws_by_order(cfg: RunConfig, tags: tuple, trials: int, n_lo: int, draw) -> dict:
    """Each trial's draws from its own substream, grouped by its order n.

    Trial t draws n = integers(n_lo, 5) and then draw(n, rng).  Returns
    {n: stacked draws}, trials in order within each group.
    """
    groups = {}
    for t in range(trials):
        rng = _rng(cfg, *tags, t)
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


def _half_line_representing(mu: RadonMeasure01, x: float) -> float:
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
    tol = cfg.tol if cfg.tol is not None else PSD_TOL
    worst_mono = math.inf
    worst_transformer = 0.0
    worst_chain = math.inf
    worst_limit = 0.0
    for si, (name, spec) in enumerate(specs):
        groups = _draws_by_order(cfg, (108, si), trials, 1, _kubo_ando_draw)
        for n, d in groups.items():
            a, a2 = _build_ordered_pairs(IV_PAIRS, *d[0:4])
            b, b2 = _build_ordered_pairs(IV_PAIRS, *d[4:8])
            c = _build_hermitian(*d[8:10])
            lo = _connection_stack(spec, a, b)
            hi = _connection_stack(spec, a2, b2)
            worst_mono = min(worst_mono, float(min_eig_scaled(hi - lo).min()))

            lhs = hermitian_part(c @ lo @ c)
            rhs = _connection_stack(
                spec, hermitian_part(c @ a @ c), hermitian_part(c @ b @ c)
            )
            err = _specnorm(lhs - rhs) / np.maximum(1.0, _specnorm(rhs))
            worst_transformer = max(worst_transformer, float(err.max()))

            eye = np.eye(n, dtype=np.complex128)
            prev = None
            for k in (1, 2, 4, 8, 16):
                eps = 1.0 / k
                cur = _connection_stack(spec, a + eps * eye, b + eps * eye)
                worst_chain = min(worst_chain, float(min_eig_scaled(cur - lo).min()))
                if prev is not None:
                    worst_chain = min(worst_chain, float(min_eig_scaled(prev - cur).min()))
                prev = cur
            delta = np.minimum(
                np.linalg.eigvalsh(a)[:, 0], np.linalg.eigvalsh(b)[:, 0]
            )
            # eps and prev are now the smallest shift, 1/16, and its connection
            bound = (eps / delta) * _specnorm(lo) * (1.0 + 1e-6) + 1e-9
            gap = _specnorm(prev - lo)
            worst_limit = max(worst_limit, float((gap / bound).max()))

    geo = geometric_spec(200)
    worst_geo = 0.0
    pairs = _draws_by_order(cfg, (108, 9), 20, 2, _geometric_draw)
    for lam_a, z_a, lam_b, z_b in pairs.values():
        a, b = _build_hermitian(lam_a, z_a), _build_hermitian(lam_b, z_b)
        quad = _connection_stack(geo, a, b)
        closed = _geometric_mean_stack(a, b)
        err = _specnorm(quad - closed) / _specnorm(closed)
        worst_geo = max(worst_geo, float(err.max()))

    worst_rep = 0.0
    xs = np.geomspace(1e-2, 1e2, 50)
    for name, spec in specs:
        g_kernel = synthesize(spec)
        for x in xs:
            v1, v2 = _half_line_representing(spec, float(x)), g_kernel(float(x))
            worst_rep = max(worst_rep, abs(v1 - v2) / max(1.0, abs(v1)))

    ok = (
        worst_mono >= -tol
        and worst_transformer <= 1e-8
        and worst_chain >= -tol
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
        "bounds": {"transformer": 1e-8, "geometric": 1e-6, "representing": 1e-12},
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 9. Mollifier regularization


def crit_regularization(cfg: RunConfig):
    mol = standard_mollifier()
    xs = np.linspace(-1.0, 1.0, 20001)
    vals = np.array([mol.density(float(x)) for x in xs])
    norm_err = abs(float(np.trapezoid(vals, xs)) - 1.0)

    affine = ScalarFunction(
        name="affine_probe",
        domain=Interval(0.1, 10.0),
        fn=lambda t: 3.0 * t + 2.0,
        d1=lambda t: 3.0,
        d2=lambda t: 0.0,
    )
    aff_err = max(
        abs(mollify(affine, 0.05, float(x)) - affine(float(x)))
        for x in np.linspace(1.0, 3.0, 21)
    )

    f = get_function("sqrt")
    grid = np.linspace(1.0, 3.0, 201)
    lip_ok = True
    lip_detail = {}
    for eps in (0.1, 0.05, 0.01):
        k_const = 0.5 / math.sqrt(1.0 - eps)
        sup = max(abs(mollify(f, eps, float(x)) - f(float(x))) for x in grid)
        lip_detail[f"eps={eps:g}"] = {"sup_gap": sup, "k_eps": k_const * eps}
        if sup > k_const * eps + 1e-12:
            lip_ok = False

    h = 1e-4
    der_err = 0.0
    for x in np.linspace(1.2, 2.8, 17):
        md = mollify_derivative(f, 0.05, float(x))
        fd = (mollify(f, 0.05, float(x) + h) - mollify(f, 0.05, float(x) - h)) / (2.0 * h)
        der_err = max(der_err, abs(md - fd))

    ok = norm_err <= 1e-10 and aff_err <= 1e-10 and lip_ok and der_err <= 1e-6
    ev = {
        "normalization_error": norm_err,
        "affine_exactness_error": aff_err,
        "lipschitz": lip_detail,
        "derivative_vs_fd_error": der_err,
        "bounds": {"normalization": 1e-10, "affine": 1e-10, "derivative": 1e-6},
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 10. Concave envelopes and Caratheodory reduction


def crit_choquet(cfg: RunConfig):
    grids = cfg.loop(100)
    env_worst = 0.0
    env_ok = True
    for t in range(grids):
        rng = _rng(cfg, 110, 1, t)
        npts = int(rng.integers(5, 41))
        xs = np.cumsum(rng.uniform(0.1, 1.0, npts))
        ys = rng.normal(0.0, 1.0, npts)
        gf = GridFunction(xs, ys)
        env = concave_envelope(gf)
        scale = max(1.0, float(np.abs(ys).max()))

        if float((env.ys - gf.ys).min()) < 0.0:
            env_ok = False
        if not is_concave_grid(env, 1e-12):
            env_ok = False
        env2 = concave_envelope(env)
        env_worst = max(env_worst, float(np.abs(env2.ys - env.ys).max()) / scale)

        ys_g = rng.normal(0.0, 1.0, npts)
        env_g = concave_envelope(GridFunction(xs, ys_g))
        env_sum = concave_envelope(GridFunction(xs, ys + ys_g))
        sub_gap = float((env_sum.ys - env.ys - env_g.ys).max())
        scale2 = max(1.0, float(np.abs(ys).max() + np.abs(ys_g).max()))
        if sub_gap > 1e-12 * scale2:
            env_ok = False

        slope, off = rng.uniform(-2.0, 2.0, 2)
        shifted = concave_envelope(GridFunction(xs, ys + slope * xs + off))
        aff_gap = float(np.abs(shifted.ys - (env.ys + slope * xs + off)).max())
        scale3 = max(1.0, float(np.abs(ys + slope * xs + off).max()))
        env_worst = max(env_worst, aff_gap / scale3)

    cara_n = 10 * cfg.trials if cfg.trials is not None else 1000
    instances = []
    for t in range(cara_n):
        rng = _rng(cfg, 110, 2, t)
        d = 1 + t % 6
        m = int(rng.integers(d + 2, 31))
        verts = rng.normal(0.0, 1.0, (m, d))
        w0 = rng.exponential(1.0, m)
        w0 = w0 / w0.sum()
        point = verts.T @ w0
        instances.append(_start_weights(verts, point, w0 if t % 3 == 0 else None))
    # every instance walks in one stack per d: one SVD per support size
    reduced = _reduce_each([(v, w) for v, _, w in instances])
    cara_ok = True
    cara_worst = 0.0
    max_support = 0
    for (verts, point, _), w in zip(instances, reduced):
        res = _finish(verts, point, w)
        d = verts.shape[1]
        max_support = max(max_support, res.support_size())
        cara_worst = max(cara_worst, res.residual)
        if res.support_size() > d + 1 or res.residual > 1e-9:
            cara_ok = False

    ok = env_ok and env_worst <= 1e-12 and cara_ok
    ev = {
        "envelope_grids": grids,
        "envelope_worst_scaled_gap": env_worst,
        "envelope_properties": [
            "majorant",
            "concave",
            "idempotent",
            "subadditive",
            "affine_equivariant",
        ],
        "caratheodory_instances": cara_n,
        "caratheodory_max_support_excess": max_support,
        "caratheodory_worst_residual": cara_worst,
        "bounds": {"envelope": 1e-12, "reconstruction": 1e-9},
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 11. Growth and slope bounds for normalized monotone members


def crit_p1_bounds(cfg: RunConfig):
    members = _p1_members()
    ts = np.geomspace(0.01, 100.0, 50)
    # every pair t < s of the grid, with the slope bound (1 + 1/t)(s - t)
    i, j = np.triu_indices(len(ts), k=1)
    t, s = ts[i], ts[j]
    slope_bound = (1.0 + 1.0 / t) * (s - t)
    worst_upper = -math.inf
    worst_slope_low = math.inf
    worst_slope_high = -math.inf
    for f in members:
        vals = _node_values(f, ts)
        worst_upper = max(worst_upper, float((vals - (ts + 1.0)).max()))
        diff = vals[j] - vals[i]
        worst_slope_low = min(worst_slope_low, float(diff.min()))
        worst_slope_high = max(worst_slope_high, float((diff - slope_bound).max()))
    slack = 1e-12 * (1.0 + float(ts[-1]))
    ok = (
        worst_upper <= slack
        and worst_slope_low >= -1e-12
        and worst_slope_high <= slack
    )
    ev = {
        "members": [f.name for f in members],
        "grid": [0.01, 100.0, 50],
        "worst_upper_bound_excess": worst_upper,
        "worst_monotonicity_gap": worst_slope_low,
        "worst_slope_bound_excess": worst_slope_high,
    }
    return ok, ev


# ---------------------------------------------------------------------------
# 12. Determinism of the report pipeline


def crit_determinism(cfg: RunConfig):
    sub = RunConfig(seed=cfg.seed, trials=1, tol=cfg.tol, order_cap=cfg.order_cap)
    names = [c.name for c in CRITERIA if c.name != "determinism"]
    r1 = run_acceptance(sub, names).to_json()
    r2 = run_acceptance(sub, names).to_json()
    same = r1 == r2
    ok = bool(same)
    ev = {
        "bytes": len(r1.encode()),
        "sha256": hashlib.sha256(r1.encode()).hexdigest(),
        "identical": same,
        "smoke_criteria": len(names),
    }
    return ok, ev


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
    ok, evidence = crit.run(cfg)
    return CheckRecord(
        name=crit.name,
        anchor=crit.anchor,
        outcome="pass" if ok else "fail",
        evidence=evidence,
    )


def run_acceptance(cfg: RunConfig, names=None) -> Report:
    """Run the acceptance criteria (all, or the named subset) in order."""
    wanted = set(criterion_names() if names is None else names)
    unknown = wanted - set(criterion_names())
    if unknown:
        raise UsageError(f"unknown criteria: {sorted(unknown)}")
    records = [run_criterion(c, cfg) for c in CRITERIA if c.name in wanted]
    return make_report(__version__, cfg, records)
