"""The benchmark's oracles against 50-digit mpmath references.

Run with ``python3 -m pytest benchmarks -q``; the repository's own test
run (testpaths = tests) does not collect this directory.
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import oracles as O

mp.mp.dps = 50

SCALARS = {
    "sqrt": mp.sqrt,
    "square": lambda t: t * t,
    "cube": lambda t: t**3,
    "exp": mp.exp,
    "id": lambda t: t,
    "harmonic_rep": lambda t: 2 * t / (1 + t),
    "kernel:0.3": lambda t: t / (mp.mpf(0.3) + (1 - mp.mpf(0.3)) * t),
    "kernel:0.85": lambda t: t / (mp.mpf(0.85) + (1 - mp.mpf(0.85)) * t),
}


def mp_dd1(f, s, t):
    s, t = mp.mpf(s), mp.mpf(t)
    return mp.diff(f, s) if s == t else (f(t) - f(s)) / (t - s)


def mp_dd2(f, a, b, c):
    t1, t2, t3 = sorted(mp.mpf(x) for x in (a, b, c))
    if t1 == t3:
        return mp.diff(f, t1, 2) / 2
    if t1 == t2 or t2 == t3:
        x, y = (t1, t3) if t1 == t2 else (t3, t1)
        return (mp.diff(f, x) - mp_dd1(f, y, x)) / (x - y)
    return (f(t1) / ((t1 - t2) * (t1 - t3)) + f(t2) / ((t2 - t1) * (t2 - t3))
            + f(t3) / ((t3 - t1) * (t3 - t2)))


# nodes down to 1e-9 apart, where a difference quotient in doubles has lost
# half its digits, plus coincident nodes
NODE_TRIPLES = [
    (0.5, 2.0, 7.0),
    (2.0, 2.0 + 1e-6, 2.0 + 2.5e-6),
    (2.0, 2.0 + 2e-7, 2.0 + 5e-7),
    (1.0, 1.0 + 1e-9, 3.0),
    (0.3, 0.3, 4.0),
    (1.7, 1.7, 1.7),
]


@pytest.mark.parametrize("name", sorted(SCALARS))
@pytest.mark.parametrize("nodes", NODE_TRIPLES)
def test_closed_form_divided_differences(name, nodes):
    cf, f = O.closed_form(name), SCALARS[name]
    a, b, c = nodes
    ref1 = mp_dd1(f, a, b)
    assert abs(float(cf.dd1(a, b)) - ref1) <= 4 * O.EPS * abs(ref1) + 1e-30
    if cf.dd2 is not None:
        ref2 = mp_dd2(f, a, b, c)
        assert abs(float(cf.dd2(a, b, c)) - ref2) <= 8 * O.EPS * abs(ref2) + 1e-30


@pytest.mark.parametrize("name", ["sqrt", "kernel:0.3", "power:0.25", "id"])
def test_closed_form_second_derivative(name):
    f = SCALARS.get(name) or (lambda t: t ** mp.mpf(0.25))
    for t in (0.2, 1.0, 6.5):
        ref = mp.diff(f, mp.mpf(t), 2)
        assert abs(float(O.closed_form(name).d2(t)) - ref) <= 4 * O.EPS * abs(ref)


@pytest.mark.parametrize("name", ["id", "const1", "sqrt", "arithmetic", "harmonic_rep",
                                  "power:0.25", "kernel:0.75"])
def test_weight_at_one(name):
    fns = {"const1": lambda t: mp.mpf(1), "arithmetic": lambda t: (1 + t) / 2,
           "power:0.25": lambda t: t ** mp.mpf(0.25),
           "kernel:0.75": lambda t: t / (mp.mpf(0.75) + t / 4)}
    f = fns.get(name) or SCALARS[name]
    assert abs(O.weight_at_one(name) - mp.diff(f, 1)) <= 1e-15


# ---------------------------------------------------------------------------
# Matrix oracles against mpmath matrix functions


def _instance(n=3, seed=5):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    a = O.herm((q * rng.uniform(0.5, 3.0, n)) @ q.conj().T)
    h = O.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return a, h / np.linalg.norm(h, 2)


def _mp(m):
    return mp.matrix(m.tolist())


def _np(m):
    return np.array(m.tolist(), dtype=complex)


def _mp_derivatives(fm, a, h):
    """First and second derivative of t -> fm(A + tH) at 0, at 80 digits."""
    with mp.workdps(80):
        am, hm, step = _mp(a), _mp(h), mp.mpf("1e-20")
        plus, mid, minus = fm(am + step * hm), fm(am), fm(am - step * hm)
        return _np((plus - minus) / (2 * step)), _np((plus - 2 * mid + minus) / step**2)


def _close(got, ref, rel):
    return np.abs(got - ref).max() <= rel * np.abs(ref).max() + 1e-40


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.85, 1.0])
def test_moebius_derivatives(lam):
    a, h = _instance()
    lm = mp.mpf(lam)

    def kernel(m):
        n = m.rows
        return m * mp.inverse(lm * mp.eye(n) + (1 - lm) * m)

    r1, r2 = _mp_derivatives(kernel, a, h)
    d1, d2 = O.moebius_derivatives(lam, a, h)
    assert _close(d1, r1, 1e-13)
    if lam in (0.0, 1.0):
        assert np.abs(d2).max() == 0.0
    else:
        assert _close(d2, r2, 1e-13)


def test_mixture_derivatives_sum_over_atoms():
    a, h = _instance(seed=9)
    atoms = ((0.0, 0.2), (0.4, 0.5), (1.0, 0.3))

    def mixture(m):
        n, acc = m.rows, mp.zeros(m.rows)
        for lam, w in atoms:
            lm = mp.mpf(lam)
            acc += mp.mpf(w) * m * mp.inverse(lm * mp.eye(n) + (1 - lm) * m)
        return acc

    r1, r2 = _mp_derivatives(mixture, a, h)
    d1, d2 = O.mixture_derivatives(atoms, a, h)
    assert _close(d1, r1, 1e-13) and _close(d2, r2, 1e-13)


def test_sqrt_derivatives_by_sylvester():
    a, h = _instance(seed=11)
    r1, r2 = _mp_derivatives(mp.sqrtm, a, h)
    d1, d2 = O.sqrt_derivatives(a, h)
    assert _close(d1, r1, 1e-12) and _close(d2, r2, 1e-12)


def test_kubo_ando_congruence():
    a, _ = _instance(seed=2)
    b, _ = _instance(seed=3)
    am, bm = _mp(a), _mp(b)
    root = mp.sqrtm(am)
    root_inv = mp.inverse(root)
    geo = _np(root * mp.sqrtm(root_inv * bm * root_inv) * root)
    harm = _np(2 * mp.inverse(mp.inverse(am) + mp.inverse(bm)))
    got, _ = O.kubo_ando_mean(np.sqrt, a, b)
    assert _close(got, geo, 1e-13)
    got, _ = O.kubo_ando_mean(O.representing_function(0.0, 0.0, ((1.0, 1.0),)), a, b)
    assert _close(got, harm, 1e-13)
    got, _ = O.kubo_ando_mean(O.representing_function(0.5, 0.5, ()), a, b)
    assert _close(got, (a + b) / 2, 1e-14)


def test_geometric_quadrature_converges_to_sqrt():
    f = O.representing_function(*O.geometric_quadrature(200))
    for x in (0.125, 0.7, 1.0, 3.0, 8.0):
        assert abs(float(f(x)) - mp.sqrt(x)) <= 1e-14


def test_matrix_functions():
    a, _ = _instance(seed=4)
    am = _mp(a)
    assert _close(O.matrix_function("square", a), _np(am * am), 1e-14)
    assert _close(O.matrix_function("cube", a), _np(am * am * am), 1e-14)
    assert _close(O.matrix_function("exp", a), _np(mp.expm(am)), 1e-13)


def test_benchmark_json_names_every_metric():
    import run
    from tracer import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert len({n for n, _ in PER_LAYER}) == len(PER_LAYER)
