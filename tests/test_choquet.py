import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab import choquet
from loewnerlab.acceptance import crit_choquet
from loewnerlab.choquet import (
    GridFunction,
    _norm,
    _reduce_each,
    _reduce_support,
    _slopes,
    _start_weights,
    _upper_hull_indices,
    caratheodory_decompose,
    concave_envelope,
    is_concave_grid,
)
from loewnerlab.errors import InfeasiblePointError, NumericalFailure, UsageError
from loewnerlab.functions import get_function
from loewnerlab.measures import RadonMeasure01, default_lambda_grid, fit_measure, synthesize
from loewnerlab.report import RunConfig


def test_gridfunction_validation():
    with pytest.raises(UsageError):
        GridFunction(np.array([1.0]), np.array([2.0]))
    with pytest.raises(UsageError):
        GridFunction(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(UsageError):
        GridFunction(np.array([1.0, 2.0]), np.array([0.0, np.inf]))
    with pytest.raises(UsageError):
        GridFunction(np.array([1.0, 2.0]), np.array([0.0]))
    gf = GridFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert len(gf) == 2
    assert not gf.xs.flags.writeable


def test_slopes_and_concavity():
    gf = GridFunction(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 4.0]))
    np.testing.assert_allclose(_slopes(gf), [2.0, 1.0])
    assert is_concave_grid(gf)
    assert not is_concave_grid(GridFunction(np.array([0.0, 1.0, 2.0]),
                                            np.array([0.0, 0.0, 1.0])))


def test_envelope_hand_examples():
    xs = np.array([0.0, 1.0, 2.0])
    # a tent is already concave: unchanged
    tent = concave_envelope(GridFunction(xs, np.array([0.0, 1.0, 0.0])))
    np.testing.assert_array_equal(tent.ys, [0.0, 1.0, 0.0])
    # a valley gets bridged by the chord
    valley = concave_envelope(GridFunction(xs, np.array([0.0, -1.0, 0.0])))
    np.testing.assert_array_equal(valley.ys, [0.0, 0.0, 0.0])


def test_envelope_of_convex_data_is_the_chord():
    xs = np.linspace(0.0, 2.0, 9)
    env = concave_envelope(GridFunction(xs, xs**2))
    np.testing.assert_allclose(env.ys, 2.0 * xs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=2,
                max_size=25),
       st.integers(0, 2**31 - 1))
def test_envelope_properties(ys, seed):
    ys = np.asarray(ys)
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.1, 1.0, ys.size))
    gf = GridFunction(xs, ys)
    env = concave_envelope(gf)
    # majorizes exactly (the maximum guarantees it bitwise)
    assert np.all(env.ys >= ys)
    scale = max(1.0, float(np.abs(ys).max()))
    assert is_concave_grid(env)
    # idempotent up to roundoff
    again = concave_envelope(env)
    np.testing.assert_allclose(again.ys, env.ys, atol=1e-12 * scale)


def test_envelope_fixes_concave_data():
    f = get_function("sqrt")
    xs = np.linspace(0.5, 4.0, 30)
    gf = GridFunction(xs, np.array([f(x) for x in xs]))
    env = concave_envelope(gf)
    np.testing.assert_allclose(env.ys, gf.ys, atol=1e-13)


def test_caratheodory_unit_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    res = caratheodory_decompose(square, np.array([0.3, 0.6]))
    assert res.support_size() <= 3
    assert res.residual < 1e-12
    np.testing.assert_allclose(res.weights.sum(), 1.0, rtol=1e-14)
    recon = square[res.indices].T @ res.weights
    np.testing.assert_allclose(recon, [0.3, 0.6], atol=1e-12)


def test_caratheodory_many_vertices_high_dim():
    rng = np.random.default_rng(8)
    verts = rng.standard_normal((40, 5))
    w0 = rng.dirichlet(np.ones(40))
    point = verts.T @ w0
    res = caratheodory_decompose(verts, point)
    assert res.support_size() <= 6
    assert res.residual < 1e-9
    assert np.all(res.weights > 0.0)


def test_caratheodory_vertex_itself():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    res = caratheodory_decompose(verts, np.array([2.0, 0.0]))
    assert res.residual < 1e-10
    recon = verts[res.indices].T @ res.weights
    np.testing.assert_allclose(recon, [2.0, 0.0], atol=1e-10)


def test_caratheodory_infeasible_gives_certificate():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    point = np.array([2.0, 2.0])
    with pytest.raises(InfeasiblePointError) as exc_info:
        caratheodory_decompose(verts, point)
    err = exc_info.value
    # the certificate separates: <dir, point> exceeds every <dir, vertex>
    d = np.asarray(err.direction)
    assert d.shape == (2,)
    assert float(d @ point) > float((verts @ d).max())
    assert err.margin > 0.0


def test_caratheodory_initial_weights_path():
    rng = np.random.default_rng(13)
    verts = rng.standard_normal((20, 3))
    w0 = rng.dirichlet(np.ones(20))
    point = verts.T @ w0
    res = caratheodory_decompose(verts, point, initial_weights=w0)
    assert res.support_size() <= 4
    assert res.residual < 1e-9


def test_caratheodory_rejects_bad_initial_weights():
    verts = np.array([[0.0], [1.0]])
    with pytest.raises(UsageError):
        caratheodory_decompose(verts, np.array([0.5]),
                               initial_weights=np.array([0.7, 0.7]))
    with pytest.raises(UsageError):
        caratheodory_decompose(verts, np.array([0.9]),
                               initial_weights=np.array([0.5, 0.5]))


def _vertex_scale_instance():
    """Vertices (+-1e8, 0), (0, +-1e8) and the point 0, with the module's own weights."""
    verts = np.array([[1e8, 0.0], [-1e8, 0.0], [0.0, 1e8], [0.0, -1e8]])
    res = caratheodory_decompose(verts, np.zeros(2))
    w = np.zeros(4)
    w[res.indices] = res.weights
    return verts, w


def test_caratheodory_accepts_its_own_weights_at_vertex_scale():
    # V^T w rounds at 1e8 * eps: an absolute 1e-9 test refused these weights
    verts, w = _vertex_scale_instance()
    assert _norm(verts.T @ w) > 1e-9
    res = caratheodory_decompose(verts, np.zeros(2), initial_weights=w)
    assert res.residual <= 1e-15 * 1e8


def test_caratheodory_refuses_weights_off_by_a_relative_1e_3_at_vertex_scale():
    verts, w = _vertex_scale_instance()
    off = w * np.array([1.0 + 1e-3, 1.0 - 1e-3, 1.0, 1.0])
    off = off / off.sum()
    with pytest.raises(UsageError, match="reproduce"):
        caratheodory_decompose(verts, np.zeros(2), initial_weights=off)


def test_caratheodory_input_validation():
    with pytest.raises(UsageError):
        caratheodory_decompose(np.zeros((0, 2)), np.array([0.0, 0.0]))
    with pytest.raises(UsageError, match="at least one coordinate"):
        caratheodory_decompose(np.zeros((3, 0)), np.zeros(0))
    with pytest.raises(UsageError):
        caratheodory_decompose(np.zeros((3, 2)), np.array([0.0]))
    with pytest.raises(UsageError):
        caratheodory_decompose(np.array([[np.nan, 0.0]]), np.array([0.0, 0.0]))


def _hull_reference(xs, ys):
    """The monotone chain on numpy scalars, read one entry at a time."""
    hull = []
    for i in range(xs.size):
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            cross = (xs[k] - xs[j]) * (ys[i] - ys[j]) - (ys[k] - ys[j]) * (xs[i] - xs[j])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def test_upper_hull_on_python_floats_matches_numpy_scalars():
    rng = np.random.default_rng(21)
    for t in range(300):
        n = int(rng.integers(2, 61))
        xs = np.cumsum(rng.uniform(0.1, 1.0, n))
        ys = rng.normal(0.0, 1.0, n)
        if t % 3 == 0:  # rounded values: collinear runs and exact ties
            xs, ys = np.arange(n, dtype=float), np.round(ys)
        assert _upper_hull_indices(xs, ys) == _hull_reference(xs, ys)


def _walk_reference(vertices, w):
    """The single-instance support walk the stack walk replaced."""
    d = vertices.shape[1]
    w = w.copy()
    while True:
        support = np.flatnonzero(w > 0.0)
        if support.size <= d + 1:
            return w
        lifted = np.vstack([vertices[support].T, np.ones((1, support.size))])
        _, _, vt = np.linalg.svd(lifted)
        z = vt[-1]
        best = None
        for sign in (1.0, -1.0):
            zz = sign * z
            pos = zz > 1e-14
            if not np.any(pos):
                continue
            ratios = w[support[pos]] / zz[pos]
            t = ratios.min()
            hit = support[pos][int(np.argmin(ratios))]
            if best is None or t < best[0] or (t == best[0] and hit < best[2]):
                best = (t, zz, hit)
        if best is None:
            raise NumericalFailure("null direction has no positive component")
        t, zz, hit = best
        w[support] = w[support] - t * zz
        w[hit] = 0.0
        w = np.maximum(w, 0.0)


def _assert_stack_matches_reference(instances):
    for (v, w), got in zip(instances, _reduce_each(instances)):
        want = _walk_reference(v, w)
        assert got.tobytes() == want.tobytes()


def _criterion_draws(seed, count=1000):
    """crit_choquet's Caratheodory draws: (vertices, point, initial_weights or None)."""
    out = []
    for t in range(count):
        rng = np.random.default_rng((seed, 110, 2, t))
        d = 1 + t % 6
        m = int(rng.integers(d + 2, 31))
        verts = rng.normal(0.0, 1.0, (m, d))
        w0 = rng.exponential(1.0, m)
        w0 = w0 / w0.sum()
        out.append((verts, verts.T @ w0, w0 if t % 3 == 0 else None))
    return out


def _criterion_instances(seed):
    """crit_choquet's instances as (vertices, start weights) pairs."""
    return [(v, _start_weights(v, p, w0)[2]) for v, p, w0 in _criterion_draws(seed)]


@pytest.mark.parametrize("seed", [1234, 0])
def test_stack_walk_matches_single_walk_on_criterion_instances(seed):
    _assert_stack_matches_reference(_criterion_instances(seed))


def test_stack_walk_matches_single_walk_on_mixed_lengths():
    rng = np.random.default_rng(5)
    instances = []
    for m in range(3, 31):
        v = rng.normal(0.0, 1.0, (m, 2))
        instances.append((v, rng.dirichlet(np.ones(m))))
    # one row already at d + 1 atoms: it takes no pass
    instances.append((rng.normal(0.0, 1.0, (3, 2)), np.array([0.2, 0.3, 0.5])))
    _assert_stack_matches_reference(instances)


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(choquet.np.linalg, "svd", counted)
    return calls


def test_row_at_d_plus_one_takes_no_pass(monkeypatch):
    calls = _count_svd(monkeypatch)
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = np.array([0.2, 0.3, 0.5])
    out = _reduce_support(v[None], w[None])
    assert calls == []
    assert out[0].tobytes() == w.tobytes()


def test_stack_walk_ties_match_single_walk(monkeypatch):
    # duplicated vertices with equal weights: the ratio test ties, within a
    # sign (the first argmin) and across signs (the smaller hit index)
    ties = [
        (np.array([[-1.0], [0.0], [0.0], [0.0], [0.0], [0.0], [1.0]]), np.full(7, 1 / 7)),
        (np.array([[0.0], [1.0], [0.0], [1.0]]), np.full(4, 0.25)),
    ]
    _assert_stack_matches_reference(ties)
    calls = _count_svd(monkeypatch)
    v, w = ties[0]
    out = _reduce_support(v[None], w[None])[0]
    # five atoms go in four passes: one pass drops two
    assert np.count_nonzero(out) == 2
    assert len(calls) == 4


def test_criterion_walks_once_per_support_size(monkeypatch):
    instances = _criterion_instances(1234)
    calls = _count_svd(monkeypatch)
    _, checks = crit_choquet(RunConfig(seed=1234))
    assert checks.passed()
    # a stack that walks at all takes at most (longest row - d - 1) passes
    bound = 0
    for d in range(1, 7):
        rows = [w for v, w in instances if v.shape[1] == d]
        if any(np.count_nonzero(w) > d + 1 for w in rows):
            bound += max(w.size for w in rows) - d - 1
    # the single-instance walk made 4569 SVD calls here
    assert len(calls) == 53
    assert len(calls) <= bound


def test_criterion_evidence_matches_per_instance_loop():
    cfg = RunConfig(seed=1234, trials=30)
    ev, checks = crit_choquet(cfg)
    worst, largest, ratio = 0.0, 0, 0.0
    for verts, point, w0 in _criterion_draws(1234, 300):
        res = caratheodory_decompose(verts, point, initial_weights=w0)
        worst = max(worst, res.residual)
        largest = max(largest, res.support_size())
        ratio = max(ratio, res.support_size() / (verts.shape[1] + 1))
        assert res.support_size() <= verts.shape[1] + 1
    assert checks.passed()
    assert ev["caratheodory_instances"] == 300
    assert checks.worst["caratheodory_worst_residual"] == worst
    assert checks.worst["caratheodory_support_over_d_plus_one"] == ratio
    assert ev["caratheodory_max_support_excess"] == largest


def test_norm_equals_numpy_where_finite():
    rng = np.random.default_rng(3)
    for scale in (1e-300, 1e-5, 1.0, 1e100, 1e150):
        v = rng.normal(0.0, scale, 7)
        assert _norm(v) == float(np.linalg.norm(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        assert _norm(np.array([1.5530316670799382e292, 0.0])) == 1.5530316670799382e292


def test_caratheodory_at_extreme_scale_has_finite_residual():
    verts = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308], [0.0, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = caratheodory_decompose(verts, np.zeros(2))
    assert np.isfinite(res.residual)
    # the rounding error of a 1e308-sized combination
    assert res.residual <= 1e-15 * 1e308


def test_initial_weights_check_survives_overflowing_norms():
    # the weights give 0, not 1e200; the squared norms both overflow
    with pytest.raises(UsageError, match="reproduce"):
        caratheodory_decompose(np.array([[0.0], [2e200]]), np.array([1e200]),
                               initial_weights=np.array([1.0, 0.0]))


def _kernel_barycenter(f):
    """f fitted as a mixture of extreme kernels with its mass pinned to one."""
    samples = [(float(t), f(float(t))) for t in np.geomspace(1e-3, 1e3, 60)]
    return fit_measure(samples, default_lambda_grid(200), mass_constraint=1.0)


def test_kernel_barycenter_demo_sqrt():
    mu, residual = _kernel_barycenter(get_function("sqrt"))
    assert residual < 1e-6
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_kernel_barycenter_demo_on_grid_atom_is_recovered_exactly():
    lam = float(default_lambda_grid(200)[100])
    f = synthesize(RadonMeasure01(atoms=((lam, 1.0),)))
    mu, residual = _kernel_barycenter(f)
    assert residual < 1e-10
    got = sum(w for l, w in mu.atoms if abs(l - lam) < 1e-12)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_kernel_barycenter_demo_off_grid_atom_concentrates():
    mu, residual = _kernel_barycenter(get_function("kernel:0.5"))
    # lam = 1/2 is not a grid atom, so the fit spreads over neighbors
    assert residual < 1e-3
    close = sum(w for lam, w in mu.atoms if abs(lam - 0.5) < 0.05)
    assert close > 0.99
