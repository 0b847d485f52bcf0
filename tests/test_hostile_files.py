"""Every command that reads a file, on generated files of hostile magnitudes.

Each run must end in exit 0 with finite printed numbers, or in a usage error
(exit 2) or a numerical failure (exit 3): never in a traceback.  The entries
come from +-1e308, 1e160, 1e-308 and the smallest subnormal 5e-324, beside
ordinary values, with tied rows and single rows.  Tier-1 turns RuntimeWarning
into an error, so a run that warns fails too.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
from itertools import product

import mpmath as mp
import pytest

import loewnerlab
from loewnerlab.cli import main
from loewnerlab.measures import HALF_LINE_TOL

EXTREMES = (1e308, -1e308, 1e160, 1e-308, 5e-324)
POSITIVE = tuple(v for v in EXTREMES if v > 0.0)


def _csv(rows):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


# crashed the NNLS solver (SIGSEGV) before its right-hand side was scaled,
# so it runs in a subprocess, where a crash cannot take the test run down
NEAR_MAX = [(0.1, 0.1), (1.0, 1.0), (10.0, 1e308)]


def _fit_cases():
    tables = [[(t, y)] for t, y in product(POSITIVE + (1.0,), repeat=2)]
    tables += [[(1.0, -1e308)], [(-1e308, 1.0)]]
    for v in POSITIVE:
        tables += [
            [(v, v), (v, v)],  # a tied row
            [(1.0, v), (1.0, v)],
            [(0.1, 0.1), (1.0, 1.0), (10.0, v)],
            [(0.1, 0.1), (1.0, 1.0), (v, 1.0)],
            [(v, 1.0), (1.0, 1.0), (2.0, v)],
        ]
    for k, rows in enumerate(t for t in tables if t != NEAR_MAX):
        for mass in ((), ("--mass", "1")):
            yield f"fit{k}{''.join(mass)}", {"in.csv": _csv(rows)}, ["fit", "in.csv", *mass]


def _measures():
    out = [{"atoms": [{"lambda": lam, "w": w}]}
           for lam, w in product((0.0, 0.5, 1.0, 5e-324, 1e-308), EXTREMES)]
    out += [{"atoms": [{"lambda": lam, "w": v} for lam in lams]}
            for v in POSITIVE for lams in ((0.3, 0.6), (0.1, 0.3, 0.5, 0.6, 0.8), (0.0, 1.0))]
    out += [{"interior": [{"s": v, "w": 1.0}]} for v in EXTREMES]
    out += [{"interior": [{"s": 1.0, "w": v}]} for v in POSITIVE]
    out += [{"mass0": v, "massInf": v} for v in POSITIVE]
    out.append({"atoms": [{"lambda": 0.5, "w": 1.0}, {"lambda": 0.5, "w": 1.0}]})
    return out


def _synth_cases():
    for k, mu in enumerate(_measures()):
        files = {"mu.json": json.dumps(mu)}
        yield f"synth{k}", files, ["synth", "mu.json"]
        yield f"synth{k}-wide", files, ["synth", "mu.json", "--tmin", "5e-324",
                                        "--tmax", "1e308", "--count", "7"]


def _mean_cases():
    diag = _csv([(2.0, 0.0), (0.0, 3.0)])
    for k, mu in enumerate(_measures()):
        files = {"mu.json": json.dumps(mu), "a.csv": diag}
        yield f"mean{k}", files, ["mean", "mu.json", "a.csv", "a.csv"]
    matrices = [_csv([(v, 0.0), (0.0, v)]) for v in EXTREMES]
    matrices += [_csv([(v,)]) for v in EXTREMES]
    matrices += [_csv([(1.0, v), (v, 1.0)]) for v in EXTREMES]
    matrices += [_csv([(v, 1.0), (1.0, 1.0)]) for v in POSITIVE]
    for (k, m), spec in product(enumerate(matrices), ("arithmetic", "harmonic", "geometric:5")):
        yield f"mean-{spec}-{k}", {"m.csv": m}, ["mean", spec, "m.csv", "m.csv"]
        if m.count("\n") == 2:
            files = {"m.csv": m, "a.csv": diag}
            yield f"mean-{spec}-{k}-mixed", files, ["mean", spec, "a.csv", "m.csv"]


def _envelope_cases():
    grids = [[(1.0, 2.0)], [(1.0, 1.0), (1.0, 2.0)], [(-1e308, 0.0), (1e308, 0.0)]]
    for v in EXTREMES:
        grids += [
            [(0.0, v), (1.0, v), (2.0, v)],
            [(0.0, v), (1.0, -v), (2.0, v)],
            [(-abs(v), 1.0), (0.0, v), (abs(v), 1.0)],
            [(0.0, 1.0), (v, 1.0), (1.0, 1.0)],
        ]
    for k, rows in enumerate(grids):
        yield f"envelope{k}", {"g.csv": _csv(rows)}, ["envelope", "g.csv"]


def _caratheodory_cases():
    polys = [{"vertices": [[1.0]], "point": [1.0]}]
    for v in EXTREMES:
        polys += [
            {"vertices": [[v, 0], [-v, 0], [0, v], [0, -v]], "point": [0, 0]},
            {"vertices": [[v, 0], [-v, 0], [0, v], [0, -v]], "point": [v / 2, 0]},
            {"vertices": [[v], [v]], "point": [v]},  # tied vertices
            {"vertices": [[0, 0], [v, 0], [0, 1], [1, 1], [v, v]], "point": [v / 4, 0.25]},
            {"vertices": [[0.0], [1.0]], "point": [v]},
        ]
    for k, poly in enumerate(polys):
        files = {"p.json": json.dumps(poly)}
        yield f"caratheodory{k}", files, ["caratheodory", "p.json"]


CASES = [
    *_fit_cases(), *_synth_cases(), *_mean_cases(), *_envelope_cases(), *_caratheodory_cases()
]


def _reject(name):
    raise AssertionError(f"non-finite {name} printed")


def _assert_finite_output(out: str, err: str):
    if out.lstrip().startswith("{"):
        json.loads(out, parse_constant=_reject)
    else:
        for line in out.splitlines()[1:]:  # after the CSV header
            assert all(math.isfinite(float(x)) for x in line.split(",")), line
    if err.startswith("residual: "):
        assert math.isfinite(float(err.split()[1])), err


@pytest.mark.parametrize("files, argv", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_hostile_file_ends_in_exit_0_2_or_3(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        _assert_finite_output(out, err)
    else:
        assert out == "" and err.startswith(("error: ", "numerical failure: ")), err


@pytest.mark.parametrize("mass", [(), ("--mass", "1")])
def test_fit_near_the_float_maximum_in_a_subprocess(tmp_path, mass):
    (tmp_path / "s.csv").write_text(_csv(NEAR_MAX))
    src = str(pathlib.Path(loewnerlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "loewnerlab", "fit", "s.csv", *mass],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    if mass:
        # the penalty row 1e6 * max(1, max y) overflows before any solve
        assert done.returncode == 3, (done.returncode, done.stderr)
        assert done.stderr.startswith("numerical failure: mass constraint")
    else:
        assert done.returncode == 0, (done.returncode, done.stderr)
        _assert_finite_output(done.stdout, done.stderr)
        assert len(json.loads(done.stdout)["atoms"]) == 1


@pytest.mark.parametrize("s", [1e4, 3e6, 1e7, 3e7, 1e8, 1e12, 1e15, 1e20])
def test_one_atom_half_line_synth_is_accurate_or_refused(tmp_path, monkeypatch, capsys, s):
    # lam = s/(1+s) keeps 1 - lam only to about eps*s relative; an s whose
    # complement misses 1/(1+s) by more than HALF_LINE_TOL is refused
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.json").write_text(json.dumps({"interior": [{"s": s, "w": 1.0}]}))
    code = main(["synth", "mu.json", "--tmin", repr(s / 100), "--tmax", repr(s * 100),
                 "--count", "9"])
    out, err = capsys.readouterr()
    if code == 2:
        assert "massInf" in err
        return
    assert code == 0, err
    with mp.workdps(50):
        for line in out.splitlines()[1:]:
            t, v = (float(x) for x in line.split(","))
            exact = mp.mpf(t) * (1 + mp.mpf(s)) / (mp.mpf(t) + mp.mpf(s))
            assert abs(mp.mpf(v) / exact - 1) <= HALF_LINE_TOL, (t, v)
