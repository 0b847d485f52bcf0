"""Per-layer timing and counting for the traced run.

Tracer wraps public functions of loewnerlab's modules in every module of
the package that binds them (``from .hermitian import eigendecompose``
binds the same object in calculus and connections), so calls made inside
the package are seen too.  Each wrapped call adds its duration and a count
to the bucket its arguments select (matrix order, atom count), and counts
one nested call per distinct wrapped function it runs inside.  Nothing is
wrapped outside a ``with tracer:`` block, so untraced runs time the
package as shipped.

PER_LAYER lists every per-layer metric with its unit; ``layer_metrics``
turns one traced run into values for all of them.  A metric of a layer the
workload never enters reads 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

CRITERIA = (
    "loewner_psd_certificate",
    "refutation_witnesses",
    "chain_rule_finite_differences",
    "difference_quotient_monotone",
    "anchor_identity",
    "extreme_point_machinery",
    "representation_roundtrips",
    "kubo_ando_axioms",
    "mollifier_regularization",
    "choquet_toolkit",
    "normalized_growth_bounds",
    "determinism",
)

#: Orders of the large_order sweeps: catalog paths, the mixture, the means.
PATH_ORDERS = (8, 32, 64)
MIX_ORDERS = (8, 16, 32)
MEAN_ORDERS = (16, 64, 128)
#: Atom counts of the means: harmonic, geometric_spec(50), geometric_spec(200).
MEAN_ATOMS = (1, 50, 200)
#: Orders of the check_loop trial loops.
CHECK_ORDERS = (2, 4, 8)
CHECKERS = (
    "check_monotone_order_n",
    "check_convex_order_n",
    "check_monotone_direct",
    "check_midpoint_concavity",
)


#: (module, function, bucket of a call) for every wrapped function.
WRAPPED = (
    ("hermitian", "eigendecompose", lambda a: a.dim),
    ("hermitian", "random_ordered_pair", lambda n, iv, seed: n),
    ("divdiff", "loewner_matrix", lambda f, ns: len(ns)),
    ("divdiff", "second_dd_matrix", lambda f, ns, anchor: len(ns)),
    ("calculus", "apply_function", lambda f, a: a.dim),
    ("monotonicity", "sample_nodes", lambda rng, n, iv: n),
    ("connections", "evaluate_connection", lambda spec, a, b: (a.dim, len(spec.interior))),
    ("measures", "fit_measure", None),
    ("choquet", "caratheodory_decompose", None),
    ("choquet", "concave_envelope", None),
    ("functions", "mollify", None),
)


def _per_layer() -> list:
    m = [(f"acceptance.{c}_s", "s") for c in CRITERIA]
    m += [
        ("connections.evaluate_connection.calls", "count"),
        ("connections.evaluate_connection_ms", "ms"),
        ("connections.eigendecompose_per_connection", "per_call"),
        ("hermitian.eigendecompose.calls", "count"),
        ("measures.fit_measure_ms", "ms"),
        ("choquet.caratheodory_decompose_ms", "ms"),
        ("choquet.concave_envelope_ms", "ms"),
        ("functions.mollify_ms", "ms"),
    ]
    m += [(f"hermitian.eigendecompose_ms.n{o}", "ms") for o in MEAN_ORDERS]
    for o in PATH_ORDERS:
        m += [
            (f"divdiff.loewner_matrix_ms.n{o}", "ms"),
            (f"divdiff.second_dd_matrix_ms.n{o}", "ms"),
            (f"calculus.path_derivative_ms.n{o}", "ms"),
            (f"calculus.path_second_derivative_ms.n{o}", "ms"),
            (f"functions.scalar_evals_per_second_derivative.n{o}", "count"),
        ]
    m += [(f"calculus.path_second_derivative_ms.mix.n{o}", "ms") for o in MIX_ORDERS]
    for o in MEAN_ORDERS:
        m += [(f"connections.evaluate_connection_ms.n{o}.m{a}", "ms") for a in MEAN_ATOMS]
        m.append((f"connections.geometric_mean_closed_form_ms.n{o}", "ms"))
    for o in CHECK_ORDERS:
        m += [(f"monotonicity.{c}_us_per_trial.o{o}", "us") for c in CHECKERS]
        m += [
            (f"divdiff.loewner_matrix_us.o{o}", "us"),
            (f"divdiff.second_dd_matrix_us.o{o}", "us"),
            (f"monotonicity.sample_nodes_us.o{o}", "us"),
            (f"hermitian.random_ordered_pair_us.o{o}", "us"),
            (f"calculus.apply_function_us.o{o}", "us"),
        ]
    m.append(("trace.overhead_s", "s"))
    return m


PER_LAYER = _per_layer()
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    """Wraps the WRAPPED functions of an imported loewnerlab while active.

    Stats add up over every ``with tracer:`` block, so one Tracer can time
    several rounds.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # (func, bucket) -> [calls, s]
        self.nested = defaultdict(int)  # (inner, outer) -> calls
        self.counts = defaultdict(list)  # metric name -> values seen
        self._active: list = []
        self._restore: list = []

    def __enter__(self):
        mods = [m for k, m in sys.modules.items()
                if k == "loewnerlab" or k.startswith("loewnerlab.")]
        for mod_name, fn_name, bucket in WRAPPED:
            orig = getattr(sys.modules[f"loewnerlab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, bucket)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()
        return False

    def _wrap(self, name, orig, bucket):
        stats, nested, active = self.stats, self.nested, self._active

        def wrapper(*args, **kwargs):
            key = bucket(*args, **kwargs) if bucket is not None else None
            for outer in set(active):
                nested[(name, outer)] += 1
            active.append(name)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active.pop()
                rec = stats[(name, key)]
                rec[0] += 1
                rec[1] += dt

        return wrapper

    def count(self, metric: str, value: float):
        """Record a count a workload measured itself (one value per round)."""
        self.counts[metric].append(value)

    def calls(self, name: str) -> int:
        return sum(c for (fn, _), (c, _) in self.stats.items() if fn == name)

    def seconds(self, name: str) -> float:
        return sum(s for (fn, _), (_, s) in self.stats.items() if fn == name)

    def mean_call(self, name: str, key) -> float:
        calls, secs = self.stats.get((name, key), (0, 0.0))
        return secs / calls if calls else 0.0


def layer_metrics(tracer: Tracer, op_means: dict, rounds: int, overhead_s: float) -> dict:
    """Values of every PER_LAYER metric for one traced run.

    op_means maps an operation label to its mean seconds per unit of work;
    labels that name a metric supply it.  Totals and counts from the tracer
    are per round.
    """
    units = dict(PER_LAYER)
    out = {name: 0.0 for name in units}

    def put(name, seconds):
        out[name] = seconds * _SCALE[units[name]]

    for label, secs in op_means.items():
        if label in units:
            put(label, secs)
    for name, vals in tracer.counts.items():
        out[name] = sum(vals) / len(vals)

    ec, ed = "connections.evaluate_connection", "hermitian.eigendecompose"
    out[f"{ec}.calls"] = tracer.calls(ec) / rounds
    put(f"{ec}_ms", tracer.seconds(ec) / rounds)
    if tracer.calls(ec):
        out["connections.eigendecompose_per_connection"] = (
            tracer.nested[(ed, ec)] / tracer.calls(ec))
    out[f"{ed}.calls"] = tracer.calls(ed) / rounds
    for fn in ("measures.fit_measure", "choquet.caratheodory_decompose",
               "choquet.concave_envelope", "functions.mollify"):
        put(f"{fn}_ms", tracer.seconds(fn) / rounds)
    for o in MEAN_ORDERS:
        put(f"{ed}_ms.n{o}", tracer.mean_call(ed, o))
    for o in PATH_ORDERS:
        put(f"divdiff.loewner_matrix_ms.n{o}", tracer.mean_call("divdiff.loewner_matrix", o))
        put(f"divdiff.second_dd_matrix_ms.n{o}", tracer.mean_call("divdiff.second_dd_matrix", o))
    for o in CHECK_ORDERS:
        for metric, fn in (
            ("divdiff.loewner_matrix_us", "divdiff.loewner_matrix"),
            ("divdiff.second_dd_matrix_us", "divdiff.second_dd_matrix"),
            ("monotonicity.sample_nodes_us", "monotonicity.sample_nodes"),
            ("hermitian.random_ordered_pair_us", "hermitian.random_ordered_pair"),
            ("calculus.apply_function_us", "calculus.apply_function"),
        ):
            put(f"{metric}.o{o}", tracer.mean_call(fn, o))
    out["trace.overhead_s"] = overhead_s
    return out
