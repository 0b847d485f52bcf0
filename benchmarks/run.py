"""Benchmark of loewnerlab: one seeded workload per invocation.

    python3 benchmarks/run.py --workload report --seed 1234 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  The workload runs identical rounds until
--seconds have passed and every output is checked (see workloads.py).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of tracer.py with --trace 1.  The same object, with the machine and
library versions, goes to benchmarks/out/.

BLAS and OpenMP threads are pinned to 1 before numpy loads, so a run uses
one core and its timings do not depend on how busy the other cores are.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Extra processes that repeat the set-up, so setup_s is a median of five.
SETUP_REPEATS = 4

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import loewnerlab from ROOT/src; exit 2 when the sources are absent."""
    src = ROOT / "src"
    if not (src / "loewnerlab" / "__init__.py").is_file():
        print(f"error: no loewnerlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import loewnerlab
    import loewnerlab.cli  # noqa: F401  (the report workload drives the CLI)

    if Path(loewnerlab.__file__).resolve().parent != src / "loewnerlab":
        print(f"error: loewnerlab imported from {loewnerlab.__file__}", file=sys.stderr)
        sys.exit(2)
    return loewnerlab


def set_up(workload: str, seed: int):
    """Import, seeded inputs and one warm-up operation; seconds since start."""
    lab = load_package()
    from workloads import WORKLOADS

    w = WORKLOADS[workload](lab, seed)
    w.warm_up()
    return w, time.perf_counter() - _START


def repeat_set_up(args) -> list:
    """Set-up times of SETUP_REPEATS fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_rounds(w, seconds: float) -> list:
    """Whole rounds until `seconds` have passed; at least one."""
    deadline = time.perf_counter() + seconds
    rounds = [w.round()]
    while time.perf_counter() < deadline:
        rounds.append(w.round())
    return rounds


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def git_sha() -> str:
    """HEAD of ROOT/.git, read from its files; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def op_medians(rounds) -> list:
    """Each operation's median seconds over the rounds.

    Every round repeats the same operations in the same order, so an
    operation is the k-th occurrence of its label in a round.  A median per
    operation resists the drift of a shared host far better than the median
    of whole rounds or of the pooled samples, whose upper ranks pick the
    slowest repetition of one operation.
    """
    samples: dict = {}
    for r in rounds:
        seen: dict = {}
        for label, secs, _ in r.ops:
            k = seen[label] = seen.get(label, -1) + 1
            samples.setdefault((label, k), []).append(secs)
    return [statistics.median(v) for v in samples.values()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("report", "large_order", "check_loop"))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {\"setup_s\": ...} and exit")
    args = p.parse_args(argv)

    w, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    trace = None
    if args.trace:
        from tracer import PER_LAYER, Tracer, layer_metrics

        # untraced and traced rounds alternate, so the overhead compares like with like
        tracer, base, traced = Tracer(), [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            base.append(w.round())
            with tracer:
                traced.append(w.round(tracer))
        rounds = base + traced
        op_secs = {}
        for label, secs, work in (op for r in traced for op in r.ops):
            op_secs.setdefault(label, []).append(secs / work)
        overhead = (statistics.median(r.wall for r in traced)
                    - statistics.median(r.wall for r in base))
        values = layer_metrics(tracer, {k: statistics.fmean(v) for k, v in op_secs.items()},
                               len(traced), overhead)
        units = dict(PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        trace = {"rounds": len(traced),
                 "calls": {f"{fn}[{key}]": rec for (fn, key), rec in sorted(
                     tracer.stats.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))}}
    else:
        rounds = run_rounds(w, args.seconds)
        setups = [setup_s] + repeat_set_up(args)
        meds = op_medians(rounds) or [0.0]
        p90 = statistics.quantiles(meds, n=10, method="inclusive")[8] if len(meds) > 1 else meds[0]
        # time a round spends outside its operations: the CLI's own work on report
        outside = statistics.median(r.wall - sum(secs for _, secs, _ in r.ops) for r in rounds)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(meds) + outside,
            "op_p50_ms": statistics.median(meds) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "environment": environment(),
              "result": result, "calls": trace}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
