import json
import math
from dataclasses import fields

import numpy as np
import pytest

from loewnerlab.errors import UsageError
from loewnerlab.hermitian import _require_int
from loewnerlab.report import CheckRecord, RunConfig, _clean, make_report


def test_runconfig_validation():
    cfg = RunConfig(seed=7)
    assert cfg.seed == 7
    assert cfg.trials is None
    with pytest.raises(UsageError):
        RunConfig(seed="not-a-seed")
    with pytest.raises(UsageError):
        RunConfig(seed=2**70)
    # the trial streams take seeds in [0, 2**64); a fraction is refused, not truncated
    for seed in (-1, 2**64, 1.5, "7"):
        with pytest.raises(UsageError, match="seed"):
            RunConfig(seed=seed)
    assert [RunConfig(seed=s).seed for s in (0, 2**64 - 1, np.uint64(5))] == [0, 2**64 - 1, 5]
    with pytest.raises(UsageError):
        RunConfig(seed=1, trials=0)


def test_runconfig_sizes_loops_only():
    # the PSD tolerance is pinned in the criteria, not a run option
    assert [f.name for f in fields(RunConfig)] == ["seed", "trials"]


@pytest.mark.parametrize("trials", [2.7, "3", "two", math.inf, math.nan])
def test_runconfig_refuses_non_integral_trials(trials):
    with pytest.raises(UsageError, match="trials must be an integer"):
        RunConfig(seed=1, trials=trials)


def test_runconfig_refuses_boolean_seed_and_trials():
    # True == 1, but a flag is no count: RunConfig(seed=True, trials=True)
    # used to echo {"seed": 1, "trials": 1}
    for kwargs in ({"seed": True, "trials": True}, {"seed": np.bool_(False)},
                   {"seed": 1, "trials": True}):
        with pytest.raises(UsageError, match="must be an integer"):
            RunConfig(**kwargs)
    with pytest.raises(UsageError, match="n must be an integer, got True"):
        _require_int(True, "n")


def test_runconfig_keeps_integral_trials_as_ints():
    for trials in (3, 3.0, np.int64(3)):
        cfg = RunConfig(seed=1, trials=trials)
        assert cfg.loop(100) == cfg.echo()["trials"] == 3
        assert type(cfg.trials) is int


def test_runconfig_loop_override():
    assert RunConfig(seed=1).loop(100) == 100
    assert RunConfig(seed=1, trials=3).loop(100) == 3


def test_clean_handles_numpy_types():
    obj = {
        "a": np.float64(1.5),
        "b": np.int32(7),
        "c": np.array([1.0, 2.0]),
        "d": np.bool_(True),
        "e": float("inf"),
        "f": [np.float64(0.25)],
    }
    out = _clean(obj)
    assert out == {"a": 1.5, "b": 7, "c": [1.0, 2.0], "d": True,
                   "e": "inf", "f": [0.25]}
    json.dumps(out)  # must be strict-JSON serializable


def test_record_and_report_shape():
    rec = CheckRecord(name="demo", anchor="formula", outcome="pass",
                      evidence={"min_eig": np.float64(0.25)})
    assert rec.passed
    r = make_report("0.1.0", RunConfig(seed=5, trials=2), [rec])
    obj = r.to_obj()
    assert obj["version"] == "0.1.0"
    assert obj["config"]["seed"] == 5
    assert obj["records"][0]["evidence"]["min_eig"] == 0.25
    assert obj["overall"] == "pass"
    assert r.passed


def test_report_overall_fail_if_any_record_fails():
    good = CheckRecord("a", "x", "pass")
    bad = CheckRecord("b", "y", "fail", evidence={"why": "witness"})
    r = make_report("0.1.0", RunConfig(seed=1), [good, bad])
    assert r.overall == "fail"
    assert not r.passed


def test_report_serialization_is_deterministic():
    def build():
        recs = [CheckRecord(f"c{i}", "anchor", "pass",
                            evidence={"v": float(i) / 3.0}) for i in range(4)]
        return make_report("0.1.0", RunConfig(seed=42, trials=1), recs)

    assert build().to_json() == build().to_json()
    assert build().to_json().encode() == build().to_json().encode()
