"""End-to-end command-line tests, driving main() in process."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import loewnerlab
from loewnerlab import monotonicity as mono
from loewnerlab.cli import main
from loewnerlab.connections import geometric_mean_closed_form
from loewnerlab.fileio import dump_json, dump_samples_csv, load_measure
from loewnerlab.hermitian import HermitianMatrix
from loewnerlab.measures import synthesize


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- check -----------------------------------------------------------------

def test_import_and_check_leave_scipy_optimize_unloaded():
    # only NNLS needs scipy.optimize, and check never fits a measure
    src = str(pathlib.Path(loewnerlab.__file__).parents[1])
    script = (
        "import contextlib, io, sys\n"
        "from loewnerlab.cli import main\n"
        "print('scipy.optimize' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['check', 'sqrt', '--seed', '1'])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def test_check_sqrt_passes(capsys):
    code, out, _ = run(capsys, "check", "sqrt", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "pass"
    rec = report["records"][0]
    assert rec["evidence"]["witness"] is None
    assert rec["evidence"]["min_eig_over_norm"] > -1e-9


def test_check_square_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "square", "--order", "2",
                       "--trials", "50", "--seed", "1")
    assert code == 1
    report = json.loads(out)
    assert report["overall"] == "fail"
    witness = report["records"][0]["evidence"]["witness"]
    assert "nodes" in witness and len(witness["nodes"]) == 2


def test_check_other_properties(capsys):
    code, _, _ = run(capsys, "check", "square", "--property", "convex",
                     "--order", "3", "--trials", "20", "--seed", "2")
    assert code == 0
    code, _, _ = run(capsys, "check", "sqrt", "--property", "concave-midpoint",
                     "--order", "2", "--trials", "10", "--seed", "2")
    assert code == 0
    code, _, _ = run(capsys, "check", "square", "--property", "monotone-direct",
                     "--order", "2", "--interval", "0.5,4", "--trials", "200",
                     "--seed", "2")
    assert code == 1


def test_check_unknown_function_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "nosuchfn", "--seed", "1")
    assert code == 2
    assert "available" in err


def test_check_order_out_of_range(capsys):
    code, _, _ = run(capsys, "check", "sqrt", "--order", "0", "--seed", "1")
    assert code == 2
    code, _, _ = run(capsys, "check", "sqrt", "--order", "9", "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("exp", "--property", "monotone", "--interval", "0.1,1000"),
    ("exp", "--property", "monotone-direct", "--interval", "0.1,1000"),
    ("exp", "--property", "convex", "--interval", "700,720"),
    ("square", "--property", "monotone", "--interval", "1e200,1e300"),
])
def test_check_extreme_scales_are_numerical_failures(capsys, argv):
    # exp overflows a float; t^2 on (1e200, 1e300) makes inf - inf entries
    code, out, err = run(capsys, "check", *argv, "--seed", "1", "--trials", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize("prop", ["monotone", "convex"])
def test_check_near_the_float_maximum_is_quiet(capsys, prop):
    # RuntimeWarnings are errors under this suite's pytest settings
    code, out, err = run(capsys, "check", "sqrt", "--property", prop, "--order", "3",
                         "--interval", "1e300,1.7e308", "--trials", "3", "--seed", "1")
    assert (code, err) == (0, "")
    if prop == "monotone":
        # the diagonal is f'(t_i), not the f'(inf) = 0 of an overflowed midpoint
        assert json.loads(out)["records"][0]["evidence"]["min_eig_over_norm"] > 0.0


def test_check_zero_trials_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "sqrt", "--trials", "0", "--seed", "1")
    assert code == 2
    assert "trials" in err


def test_check_requires_seed():
    with pytest.raises(SystemExit) as exc_info:
        main(["check", "sqrt"])
    assert exc_info.value.code == 2


def test_check_writes_out_file(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "check", "sqrt", "--seed", "3", "--out", out_path)
    assert code == 0
    assert out == ""  # everything went to the file
    assert json.load(open(out_path))["overall"] == "pass"


# --- fit / synth -----------------------------------------------------------

def _samples_csv(tmp_path, fn, name="samples.csv"):
    ts = [float(t) for t in np.geomspace(0.1, 10.0, 25)]
    lines = ["t,value"] + [f"{t!r},{fn(t)!r}" for t in ts]
    return write(tmp_path, name, "\n".join(lines) + "\n")


def test_fit_arithmetic_splits_mass(tmp_path, capsys):
    path = _samples_csv(tmp_path, lambda t: (1.0 + t) / 2.0)
    code, out, err = run(capsys, "fit", path)
    assert code == 0
    assert "residual:" in err
    atoms = {a["lambda"]: a["w"] for a in json.loads(out)["atoms"]}
    assert atoms[0.0] == pytest.approx(0.5, abs=1e-7)
    assert atoms[1.0] == pytest.approx(0.5, abs=1e-7)


def test_fit_csv_output(tmp_path, capsys):
    path = _samples_csv(tmp_path, lambda t: t)
    code, out, _ = run(capsys, "fit", path, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "lambda,w"


def test_fit_with_mass_constraint(tmp_path, capsys):
    path = _samples_csv(tmp_path, lambda t: 2.0 * t / (1.0 + t))
    code, out, _ = run(capsys, "fit", path, "--mass", "1.0")
    assert code == 0
    atoms = json.loads(out)["atoms"]
    assert sum(a["w"] for a in atoms) == pytest.approx(1.0, abs=1e-12)


def test_synth_writes_samples(tmp_path, capsys):
    mu = write(tmp_path, "mu.json",
               '{"atoms": [{"lambda": 0.0, "w": 0.5}, {"lambda": 1.0, "w": 0.5}]}')
    code, out, _ = run(capsys, "synth", mu, "--tmin", "1", "--tmax", "4",
                       "--count", "4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for t_str, v_str in rows:
        assert float(v_str) == pytest.approx((1.0 + float(t_str)) / 2.0, rel=1e-12)


def test_synth_accepts_half_line_measure(tmp_path, capsys):
    mu = write(tmp_path, "mu.json",
               '{"mass0": 0.25, "massInf": 0.75, "interior": []}')
    code, out, _ = run(capsys, "synth", mu, "--format", "json",
                       "--tmin", "2", "--tmax", "8", "--count", "3")
    assert code == 0
    samples = json.loads(out)["samples"]
    for t, v in samples:
        assert v == pytest.approx(0.25 + 0.75 * t, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("--tmin", "-2", "--tmax", "-2"),
    ("--tmin", "-4", "--tmax", "-1"),
    ("--tmin", "0"),
    ("--tmin", "nan"),
    ("--tmin", "4", "--tmax", "2"),
    ("--tmax", "inf"),
    ("--count", "0"),
])
def test_synth_rejects_bad_sample_range(tmp_path, capsys, argv):
    mu = write(tmp_path, "mu.json", '{"atoms": [{"lambda": 0.5, "w": 1.0}]}')
    code, out, err = run(capsys, "synth", mu, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: --")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_synth_bytes_equal_a_point_by_point_reference(tmp_path, capsys, fmt):
    mu = write(tmp_path, "mu.json", '{"mass0": 0.25, "massInf": 0.75, "interior": '
               '[{"s": 2.0, "w": 0.5}, {"s": 0.3, "w": 0.125}]}')
    code, out, _ = run(capsys, "synth", mu, "--format", fmt, "--tmin", "0.01",
                       "--tmax", "100", "--count", "57")
    assert code == 0
    f = synthesize(load_measure(mu))
    pairs = [(float(t), f(float(t))) for t in np.geomspace(0.01, 100.0, 57)]
    want = dump_samples_csv(pairs) if fmt == "csv" else dump_json(
        {"samples": [[t, v] for t, v in pairs]})
    assert out == want


def test_synth_then_fit_roundtrip(tmp_path, capsys):
    mu = write(tmp_path, "mu.json", '{"atoms": [{"lambda": 1.0, "w": 1.0}]}')
    code, _, _ = run(capsys, "synth", mu, "--out", str(tmp_path / "s.csv"))
    assert code == 0
    code, out, _ = run(capsys, "fit", str(tmp_path / "s.csv"))
    assert code == 0
    atoms = json.loads(out)["atoms"]
    assert len(atoms) == 1
    assert atoms[0]["lambda"] == 1.0
    assert atoms[0]["w"] == pytest.approx(1.0, abs=1e-10)


# --- sizes too large to allocate --------------------------------------------

# 10**12 float64 values are 7.3 TiB: the first allocation is refused at once.
HUGE = str(10**12)


@pytest.mark.parametrize("argv", [
    ("synth", "MU", "--count", HUGE),
    ("fit", "SAMPLES", "--grid-size", HUGE),
    ("mean", f"geometric:{HUGE}", "A", "B"),
])
def test_unallocatable_sizes_are_usage_errors(tmp_path, capsys, argv):
    files = {
        "MU": write(tmp_path, "mu.json", '{"atoms": [{"lambda": 0.5, "w": 1.0}]}'),
        "SAMPLES": write(tmp_path, "s.csv", "1,1\n2,1.5\n"),
    }
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert out == "" and err.startswith("error: out of memory")


# --- mean ------------------------------------------------------------------

def _matrix_csv(tmp_path, name, rows):
    text = "\n".join(",".join(repr(float(x)) for x in row) for row in rows)
    return write(tmp_path, name, text + "\n")


def test_mean_arithmetic(tmp_path, capsys):
    a = _matrix_csv(tmp_path, "a.csv", [[2.0, 1.0], [1.0, 2.0]])
    b = _matrix_csv(tmp_path, "b.csv", [[4.0, 0.0], [0.0, 4.0]])
    code, out, _ = run(capsys, "mean", "arithmetic", a, b)
    assert code == 0
    obj = json.loads(out)
    got = np.array([[complex(re, im) for re, im in row] for row in obj["entries"]])
    np.testing.assert_allclose(got.real, [[3.0, 0.5], [0.5, 3.0]], atol=1e-12)


def test_mean_harmonic(tmp_path, capsys):
    a = _matrix_csv(tmp_path, "a.csv", [[1.0, 0.0], [0.0, 2.0]])
    b = _matrix_csv(tmp_path, "b.csv", [[3.0, 0.0], [0.0, 6.0]])
    code, out, _ = run(capsys, "mean", "harmonic", a, b)
    assert code == 0
    got = np.array(json.loads(out)["entries"])[:, :, 0]
    np.testing.assert_allclose(got, np.diag([1.5, 3.0]), atol=1e-11)


def test_mean_geometric_matches_closed_form(tmp_path, capsys):
    rows_a = [[2.0, 0.5], [0.5, 1.0]]
    rows_b = [[3.0, -0.25], [-0.25, 2.0]]
    a = _matrix_csv(tmp_path, "a.csv", rows_a)
    b = _matrix_csv(tmp_path, "b.csv", rows_b)
    code, out, _ = run(capsys, "mean", "geometric:64", a, b)
    assert code == 0
    got = np.array(json.loads(out)["entries"])[:, :, 0]
    exact = geometric_mean_closed_form(
        HermitianMatrix(np.array(rows_a, dtype=complex)),
        HermitianMatrix(np.array(rows_b, dtype=complex)),
    ).entries.real
    np.testing.assert_allclose(got, exact, atol=1e-8)


def test_mean_with_measure_file_spec(tmp_path, capsys):
    spec = write(tmp_path, "spec.json",
                 '{"mass0": 0.5, "massInf": 0.5, "interior": []}')
    a = _matrix_csv(tmp_path, "a.csv", [[2.0]])
    b = _matrix_csv(tmp_path, "b.csv", [[4.0]])
    code, out, _ = run(capsys, "mean", spec, a, b)
    assert code == 0
    assert json.loads(out)["entries"][0][0][0] == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("s", ["1e-310", "5e-324"])
def test_mean_with_tiny_interior_position_is_left_operand(tmp_path, capsys, s):
    # s -> 0 moves the atom to lam -> 0, whose term is A itself
    spec = write(tmp_path, "spec.json", '{"interior": [{"s": %s, "w": 1.0}]}' % s)
    rows_a = [[2.0, 0.5], [0.5, 1.0]]
    a = _matrix_csv(tmp_path, "a.csv", rows_a)
    b = _matrix_csv(tmp_path, "b.csv", [[3.0, -0.25], [-0.25, 2.0]])
    code, out, _ = run(capsys, "mean", spec, a, b)
    assert code == 0
    got = np.array(json.loads(out)["entries"])
    np.testing.assert_allclose(got[:, :, 0], rows_a, rtol=1e-12)
    np.testing.assert_allclose(got[:, :, 1], 0.0, atol=1e-15)


def test_mean_rejects_non_pd(tmp_path, capsys):
    a = _matrix_csv(tmp_path, "a.csv", [[1.0, 0.0], [0.0, -1.0]])
    b = _matrix_csv(tmp_path, "b.csv", [[1.0, 0.0], [0.0, 1.0]])
    code, _, err = run(capsys, "mean", "harmonic", a, b)
    assert code == 2
    assert "positive definite" in err


def test_mean_condition_cap_is_numerical_failure(tmp_path, capsys):
    a = _matrix_csv(tmp_path, "a.csv", [[1.0, 0.0], [0.0, 2e13]])
    b = _matrix_csv(tmp_path, "b.csv", [[1.0, 0.0], [0.0, 1.0]])
    code, _, err = run(capsys, "mean", "harmonic", a, b)
    assert code == 3
    assert "numerical failure" in err


def test_mean_accepts_entries_near_the_float_maximum(tmp_path, capsys):
    rows = [[1e308, 0.0], [0.0, 1.5e308]]
    a = _matrix_csv(tmp_path, "big.csv", rows)
    code, out, err = run(capsys, "mean", "arithmetic", a, a)
    assert code == 0 and err == ""
    got = np.array(json.loads(out)["entries"])
    assert np.array_equal(got[:, :, 0], rows) and not got[:, :, 1].any()


@pytest.mark.parametrize("spec", ["harmonic", "geometric"])
def test_mean_inverse_overflow_names_the_operand(tmp_path, capsys, recwarn, spec):
    tiny = _matrix_csv(tmp_path, "tiny.csv", [[1e-310, 0.0], [0.0, 2e-310]])
    one = _matrix_csv(tmp_path, "one.csv", [[1.0, 0.0], [0.0, 1.0]])
    code, out, err = run(capsys, "mean", spec, tiny, one)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: left operand: inverse overflows")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # the arithmetic mean has no interior atom and needs no inverse
    code, _, err = run(capsys, "mean", "arithmetic", tiny, one)
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["synth", "mean"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"interior": 5}', "interior"),
        ('{"atoms": {"lambda": 0.5, "w": 1}}', "atoms"),
        ('{"quad": "x"}', "quad"),
    ],
    ids=["int", "dict", "str"],
)
def test_measure_file_lists_must_be_lists(tmp_path, capsys, command, text, key):
    mu = write(tmp_path, "mu.json", text)
    if command == "synth":
        argv = ("synth", mu)
    else:
        a = _matrix_csv(tmp_path, "a.csv", [[2.0]])
        argv = ("mean", mu, a, a)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f'"{key}" must be a list' in err


# --- envelope / caratheodory ----------------------------------------------

def test_envelope_csv(tmp_path, capsys):
    grid = write(tmp_path, "g.csv", "x,y\n0.0,0.0\n1.0,-1.0\n2.0,0.0\n")
    code, out, _ = run(capsys, "envelope", grid)
    assert code == 0
    ys = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert ys == [0.0, 0.0, 0.0]


def test_envelope_json(tmp_path, capsys):
    grid = write(tmp_path, "g.csv", "x,y\n0.0,0.0\n1.0,2.0\n2.0,1.0\n")
    code, out, _ = run(capsys, "envelope", grid, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ys"] == [0.0, 2.0, 1.0]  # already concave


def test_caratheodory_point_flag(tmp_path, capsys):
    poly = write(tmp_path, "p.json",
                 '{"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
    code, out, _ = run(capsys, "caratheodory", poly, "--point", "0.3,0.6")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["indices"]) <= 3
    assert obj["residual"] < 1e-9
    np.testing.assert_allclose(obj["point"], [0.3, 0.6], atol=1e-9)


def test_caratheodory_embedded_point(tmp_path, capsys):
    poly = write(tmp_path, "p.json",
                 '{"vertices": [[0, 0], [2, 0], [0, 2]], "point": [0.5, 0.5]}')
    code, out, _ = run(capsys, "caratheodory", poly)
    assert code == 0
    assert sum(json.loads(out)["weights"]) == pytest.approx(1.0, abs=1e-12)


def test_caratheodory_no_point_is_usage_error(tmp_path, capsys):
    poly = write(tmp_path, "p.json", '{"vertices": [[0, 0], [1, 1]]}')
    code, _, err = run(capsys, "caratheodory", poly)
    assert code == 2
    assert "point" in err


def test_caratheodory_outside_hull_is_usage_error(tmp_path, capsys):
    poly = write(tmp_path, "p.json",
                 '{"vertices": [[0, 0], [1, 0], [0, 1]], "point": [2, 2]}')
    code, _, err = run(capsys, "caratheodory", poly)
    assert code == 2
    assert "convex combination" in err


def test_caratheodory_at_extreme_scale_prints_finite_residual(tmp_path, capsys):
    poly = write(tmp_path, "p.json",
                 '{"vertices": [[1e308, 0], [-1e308, 0], [0, 1e308], [0, -1e308]],'
                 ' "point": [0, 0]}')

    def reject(name):
        raise ValueError(f"non-finite number {name} in output")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "caratheodory", poly)
    assert code == 0
    obj = json.loads(out, parse_constant=reject)
    assert 0.0 <= obj["residual"] <= 1e-15 * 1e308


def test_corrupt_json_is_usage_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", '{"n": 2, "entries": [[[1')
    code, _, err = run(capsys, "mean", "arithmetic", bad, bad)
    assert code == 2
    assert "bad.json" in err


def test_boolean_matrix_order_is_usage_error(tmp_path, capsys):
    m = write(tmp_path, "m.json", '{"n": true, "entries": [[[1.0, 0.0]]]}')
    code, out, err = run(capsys, "mean", "arithmetic", m, m)
    assert code == 2
    assert out == "" and '"n" must be a positive integer' in err


# --- report ----------------------------------------------------------------

FAST_SUBSET = "refutation_witnesses,normalized_growth_bounds"


def test_report_subset_passes(capsys):
    code, out, err = run(capsys, "report", "--seed", "1234",
                         "--criteria", FAST_SUBSET)
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "pass"
    names = [r["name"] for r in report["records"]]
    assert names == ["refutation_witnesses", "normalized_growth_bounds"]
    assert "PASS" in err


def test_report_bytes_identical_for_same_config(capsys):
    args = ("report", "--seed", "77", "--trials", "2",
            "--criteria", "loewner_psd_certificate,anchor_identity")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_report_differs_across_seeds(capsys):
    args = ("report", "--trials", "2", "--criteria", "loewner_psd_certificate")
    _, out1, _ = run(capsys, *args, "--seed", "1")
    _, out2, _ = run(capsys, *args, "--seed", "2")
    assert out1 != out2


def test_report_out_file(tmp_path, capsys):
    out_path = str(tmp_path / "r.json")
    code, out, err = run(capsys, "report", "--seed", "5",
                         "--criteria", FAST_SUBSET, "--out", out_path)
    assert code == 0
    assert out == ""
    assert "PASS" in err  # per-criterion lines still go to stderr
    assert json.load(open(out_path))["overall"] == "pass"


def test_report_unknown_criterion(capsys):
    code, _, err = run(capsys, "report", "--seed", "1", "--criteria", "bogus")
    assert code == 2
    assert "unknown criteria" in err


@pytest.mark.parametrize("criteria", [",", " ", ""])
def test_report_empty_criteria_is_usage_error(capsys, criteria):
    code, out, err = run(capsys, "report", "--seed", "1", "--criteria", criteria)
    assert code == 2
    assert out == "" and "names no criterion" in err


def test_report_has_no_tolerance_option(capsys):
    # the PSD tolerance is pinned in the criteria, not a run option
    with pytest.raises(SystemExit) as exc_info:
        main(["report", "--seed", "1", "--tol", "1e-6"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv,trials", [
    (["report", "--seed", "7", "--criteria", FAST_SUBSET], None),
    (["report", "--seed", "7", "--trials", "2", "--criteria", FAST_SUBSET], 2),
    (["check", "sqrt", "--seed", "7", "--trials", "5"], 5),
], ids=["report", "report-trials", "check"])
def test_config_echo_keeps_its_keys_in_order(capsys, argv, trials):
    # the benchmark compares this echo whole, "tol": null included
    code, out, _ = run(capsys, *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config.items()) == [
        ("seed", 7), ("trials", trials), ("tol", None), ("order_cap", 8)]


def test_report_requires_seed():
    with pytest.raises(SystemExit) as exc_info:
        main(["report"])
    assert exc_info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    out, _ = capsys.readouterr()
    assert "loewnerlab" in out


@pytest.mark.parametrize("argv", [
    ("report", "--trials", "1", "--criteria", "refutation_witnesses"),
    ("check", "sqrt"),
    ("check", "sqrt", "--property", "monotone-direct"),
])
def test_seed_outside_its_range_is_a_usage_error(capsys, monkeypatch, argv):
    def no_trials(*args):
        raise AssertionError("a trial ran before the seed was checked")

    monkeypatch.setattr(mono, "_trial_streams", no_trials)
    for seed in ("-1", str(2**64)):
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == 2, err
        assert out == ""
        assert "seed must be in [0, 2**64)" in err
