import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerlab.choquet import (
    GridFunction,
    _slopes,
    caratheodory_decompose,
    concave_envelope,
    is_concave_grid,
)
from loewnerlab.errors import InfeasiblePointError, UsageError
from loewnerlab.functions import get_function
from loewnerlab.measures import RadonMeasure01, default_lambda_grid, fit_measure, synthesize


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
    assert is_concave_grid(env, tol=1e-12)
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


def test_caratheodory_input_validation():
    with pytest.raises(UsageError):
        caratheodory_decompose(np.zeros((0, 2)), np.array([0.0, 0.0]))
    with pytest.raises(UsageError):
        caratheodory_decompose(np.zeros((3, 2)), np.array([0.0]))
    with pytest.raises(UsageError):
        caratheodory_decompose(np.array([[np.nan, 0.0]]), np.array([0.0, 0.0]))


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
