"""Run configuration and structured reports for the verification suite.

Reports are plain data: tool version, an echo of the configuration, one
record per check with a formula anchor naming the property it exercises,
and numeric evidence.  Nothing time- or host-dependent goes in, so two runs
with the same (version, config, seed) serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .hermitian import _require_int

#: Hard ceiling on Loewner-matrix order in CLI checks; desk-scale contract.
DEFAULT_ORDER_CAP = 8


@dataclass(frozen=True)
class RunConfig:
    """Seed and loop sizes shared by every randomized check.

    trials overrides the per-criterion verification loop sizes (smoke runs
    use trials=1); fixed search budgets, enumerations, bounds and the PSD
    tolerance keep their pinned values.  The seed is mandatory: there is no
    wall-clock fallback anywhere.
    """

    seed: int
    trials: int | None = None

    def __post_init__(self):
        seed = _require_int(self.seed, "seed")
        # the trial streams are seeded by numpy's SeedSequence, which refuses negatives
        if not 0 <= seed < 2**64:
            raise UsageError(f"seed must be in [0, 2**64), got {seed}")
        object.__setattr__(self, "seed", seed)
        if self.trials is not None:
            trials = _require_int(self.trials, "trials")
            if trials < 1:
                raise UsageError(f"trials must be >= 1, got {trials}")
            object.__setattr__(self, "trials", trials)

    def loop(self, default: int) -> int:
        """Size of a verification loop: the override, else the default."""
        return default if self.trials is None else self.trials

    def echo(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            # the PSD tolerance is fixed; the key stays because the benchmark reads this echo
            "tol": None,
            "order_cap": DEFAULT_ORDER_CAP,
        }


def _clean(obj):
    """Recursively coerce numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # keep reports strict-JSON even if an inf leaks in
    return obj


@dataclass(frozen=True)
class CheckRecord:
    """One verified property: outcome plus re-checkable numeric evidence."""

    name: str
    anchor: str
    outcome: str  # "pass" | "fail"
    evidence: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "outcome": self.outcome,
            "evidence": _clean(self.evidence),
        }


@dataclass(frozen=True)
class Report:
    version: str
    config: dict
    records: tuple

    @property
    def overall(self) -> str:
        return "pass" if all(r.passed for r in self.records) else "fail"

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    def to_obj(self) -> dict:
        return {
            "version": self.version,
            "config": _clean(dict(self.config)),
            "records": [r.to_obj() for r in self.records],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"


def make_report(version: str, config: RunConfig, records) -> Report:
    return Report(version=version, config=config.echo(), records=tuple(records))
