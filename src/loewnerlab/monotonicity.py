"""Randomized verification and refutation of operator monotonicity/convexity.

Four checkers, each a seeded set of trials that either certifies a property
on every sampled instance or returns the earliest counterexample as a witness:

* check_monotone_order_n      -- positivity of first-divided-difference matrices
* check_convex_order_n        -- positivity of anchored second-difference matrices
* check_monotone_direct       -- f(A) <= f(B) on random ordered pairs
* check_midpoint_concavity    -- (f(A)+f(B))/2 <= f((A+B)/2) on random pairs

Each trial draws its inputs from its own RNG substream: trial t of the
checker with tag g (11 to 14 in the order above) draws from exactly
np.random.default_rng(seed_tuple + (g, t)), where seed_tuple is the seed, or
the tuple of seeds, as non-negative ints.  So every trial can be reproduced
on its own with plain numpy, and verdicts are reproducible bit for bit.  The
streams of all trials are seeded in one vectorized pass
(hermitian._trial_streams).  A checker then works in three steps: draw
every trial, build the (trials, n, n) stack of matrices to test (one
broadcast, or one QR and one eigendecomposition for the whole stack), and
decide with one eigvalsh of that stack.  A non-finite entry in the stack is a
NumericalFailure naming the first such trial.  min_eig_seen records the
smallest scale-normalized eigenvalue, min over trials of
min_eig / max(1, ||M||); the witness is the first failing trial.

The module also hosts the involution t -> t*f(1/t), which preserves operator
monotonicity, the normalized-derivative reading
f'(1) for functions with f(1) = 1, and the two-extreme-point decomposition
f = w*f1 + (1-w)*f2 with w = f'(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import _apply_function_stack
from .divdiff import (
    NodeSet,
    _anchored_stack,
    _loewner_stack,
    _near,
    difference_quotient_transform,
)
from .errors import NumericalFailure, UsageError
from .functions import OPERATOR_MONOTONE, UNKNOWN, ScalarFunction, _node_values, get_function
from .hermitian import (
    PSD_TOL,
    HermitianMatrix,
    Interval,
    _build_hermitian,
    _build_ordered_pairs,
    _draw_hermitian,
    _draw_ordered_pair,
    _require_hermitian,
    _require_int,
    _trial_streams,
    min_eig_scaled,
)

_TAG_MONOTONE = 11
_TAG_CONVEX = 12
_TAG_DIRECT = 13
_TAG_MIDPOINT = 14

#: Deviation-from-one allowed when requiring the normalization f(1) = 1.
NORMALIZATION_TOL = 1e-10

#: f'(1) within this distance of 0 or 1 counts as a degenerate extreme case.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of a seeded property check.

    witness is None on pass; on failure it is the offending NodeSet or the
    offending matrix pair, always re-checkable independently.
    """

    property: str
    order: int
    trials: int
    min_eig_seen: float
    outcome: str  # "pass" | "fail"
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def _seed_tuple(seed) -> tuple:
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(_require_int(s, "seed") for s in parts)


def _streams(seed, tag: int, trials: int):
    return _trial_streams(_seed_tuple(seed) + (tag,), trials)


def sample_nodes(rng: np.random.Generator, n: int, iv: Interval) -> NodeSet:
    """n i.i.d. uniform nodes, redrawn until no pair is tau-coincident."""
    if not iv.bounded:
        raise UsageError("node sampling needs a bounded interval")
    i, j = np.triu_indices(n, 1)
    for _ in range(100):
        ts = rng.uniform(iv.lo, iv.hi, n)
        if not _near(ts[i], ts[j]).any():
            return NodeSet(tuple(ts), iv)
    raise UsageError(f"could not draw {n} separated nodes in {iv}")


def _check_inputs(f: ScalarFunction, n, iv: Interval, trials) -> tuple:
    """(n, trials) as ints, with iv inside the domain of f."""
    n, trials = _require_int(n, "n"), _require_int(trials, "trials")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not (iv.lo >= f.domain.lo and iv.hi <= f.domain.hi):
        raise UsageError(f"{iv} is not inside the domain of {f.name}")
    return n, trials


def _draw_node_sets(seed, tag, n, iv, trials) -> np.ndarray:
    """The (trials, n) nodes sample_nodes draws from each trial's stream.

    Every trial's first draw is tested at once; only trials with a near pair
    replay their stream through sample_nodes, whose redraws follow the
    rejected draw.  The first trial, in trial order, that fails to draw or
    has a node outside iv raises the UsageError the per-trial loop raised.
    """
    stream = _streams(seed, tag, trials)
    if not iv.bounded:
        raise UsageError("node sampling needs a bounded interval")
    ts = np.array([stream(t).uniform(iv.lo, iv.hi, n) for t in range(trials)])
    i, j = np.triu_indices(n, 1)
    near = _near(ts[:, i], ts[:, j]).any(axis=1)
    # an empty node set is refused like a node outside iv
    ok = near | (((iv.lo < ts) & (ts < iv.hi)).all(axis=1) & (n > 0))
    stop = trials if ok.all() else int(np.argmin(ok))
    for t in np.flatnonzero(near[:stop]):
        ts[t] = sample_nodes(stream(t), n, iv).nodes
    if stop < trials:
        NodeSet(tuple(ts[stop]), iv)  # raises for the first offending node
    return ts


def _node_set(ts: np.ndarray, iv: Interval):
    return lambda k: NodeSet(tuple(ts[k]), iv)


def _decide(prop: str, f: ScalarFunction, n: int, stack: np.ndarray, witness) -> Verdict:
    """The verdict on a (trials, n, n) stack: one eigvalsh, first failure wins.

    witness(k) rebuilds the inputs of trial k.
    """
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        raise NumericalFailure(
            f"{prop} of {f.name}: non-finite matrix entry in trial {int(np.argmin(finite))}"
        )
    _require_hermitian(stack)
    scaled = min_eig_scaled(stack)
    fails = np.flatnonzero(~(scaled >= -PSD_TOL))
    # the first smallest value, as a running min() over the trials keeps it
    # (0.0 and -0.0 compare equal but print differently)
    lowest = float(scaled[np.argmin(scaled)])
    return Verdict(
        property=prop,
        order=n,
        trials=len(stack),
        min_eig_seen=lowest,
        outcome="fail" if fails.size else "pass",
        witness=witness(int(fails[0])) if fails.size else None,
    )


def check_monotone_order_n(
    f: ScalarFunction, n: int, iv: Interval, trials: int, seed
) -> Verdict:
    """PSD test of [dd1(f, t_i, t_j)] over `trials` random order-n node sets."""
    n, trials = _check_inputs(f, n, iv, trials)
    ts = _draw_node_sets(seed, _TAG_MONOTONE, n, iv, trials)
    return _decide("monotone_order_n", f, n, _loewner_stack(f, ts), _node_set(ts, iv))


def check_convex_order_n(
    f: ScalarFunction, n: int, iv: Interval, trials: int, seed
) -> Verdict:
    """PSD test of [dd2(f, t_i, t_j, t_1)] with the first node as anchor."""
    n, trials = _check_inputs(f, n, iv, trials)
    ts = _draw_node_sets(seed, _TAG_CONVEX, n, iv, trials)
    stack = _anchored_stack(f, ts, ts[:, 0])
    return _decide("convex_order_n", f, n, stack, _node_set(ts, iv))


def _pair(a: np.ndarray, b: np.ndarray):
    return lambda k: (HermitianMatrix(a[k]), HermitianMatrix(b[k]))


def check_monotone_direct(
    f: ScalarFunction, n: int, iv: Interval, trials: int, seed
) -> Verdict:
    """f(A) <= f(B) on random ordered pairs A <= B with spectra in iv."""
    n, trials = _check_inputs(f, n, iv, trials)
    stream = _streams(seed, _TAG_DIRECT, trials)
    draws = [_draw_ordered_pair(n, iv, stream(t)) for t in range(trials)]
    a, b = _build_ordered_pairs(iv, *(np.array(x) for x in zip(*draws)))
    fb, fa = _apply_function_stack(f, b), _apply_function_stack(f, a)
    return _decide("monotone_direct", f, n, fb - fa, _pair(a, b))


def check_midpoint_concavity(
    f: ScalarFunction, n: int, iv: Interval, trials: int, seed
) -> Verdict:
    """(f(A) + f(B))/2 <= f((A+B)/2) on independent random pairs."""
    n, trials = _check_inputs(f, n, iv, trials)
    stream = _streams(seed, _TAG_MIDPOINT, trials)
    draws = []
    for t in range(trials):
        rng = stream(t)
        draws.append(_draw_hermitian(n, iv, rng) + _draw_hermitian(n, iv, rng))
    lam_a, z_a, lam_b, z_b = (np.array(x) for x in zip(*draws))
    a, b = _build_hermitian(lam_a, z_a), _build_hermitian(lam_b, z_b)
    mid = a * 0.5 + b * 0.5  # halves: a + b may overflow
    _require_hermitian(mid)
    fm, fa, fb = (_apply_function_stack(f, m) for m in (mid, a, b))
    return _decide("midpoint_concavity", f, n, fm - (fa + fb) * 0.5, _pair(a, b))


# ---------------------------------------------------------------------------
# Monotonicity-preserving transformations

def _require_positive_on_domain(f: ScalarFunction):
    """Sampled positivity guard on a probe window inside the domain."""
    lo, hi = f.domain.lo, f.domain.hi
    lo = max(lo, 1e-3) if lo <= 0.0 else lo
    hi = min(hi, max(1e3, 10.0 * lo))
    lo, hi = lo * (1 + 1e-9) + 1e-12, hi * (1 - 1e-9)
    xs = np.geomspace(lo, hi, 25) if lo > 0 else np.linspace(lo, hi, 25)
    vals = _node_values(f, xs)
    if not (vals > 0.0).all():
        k = int(np.argmin(vals > 0.0))
        raise UsageError(f"{f.name} is not positive on its domain (f({xs[k]:.6g}) = {vals[k]:.6g})")


def transform_involution(f: ScalarFunction) -> ScalarFunction:
    """t -> t * f(1/t); an involution on positive monotone functions."""
    _require_positive_on_domain(f)
    fn, d1, d2 = f.fn, f.d1, f.d2
    closed = d1 is not None and d2 is not None

    # value and slope take f's scalar callables or its array forms alike
    def value(fn):
        return lambda t: t * fn(1.0 / t)

    def slope(fn, d1):
        def g1(t):
            r = 1.0 / t
            return fn(r) - d1(r) * r

        return g1

    def g2(t):
        return d2(1.0 / t) / (t**3)

    fa, d1a, _ = f.array_forms
    return ScalarFunction(
        name=f"involution({f.name})",
        domain=f.domain,
        fn=value(fn),
        d1=slope(fn, d1) if closed else None,
        d2=g2 if closed else None,
        claimed_class=f.claimed_class,
        array_forms=(
            None if fa is None else value(fa),
            slope(fa, d1a) if closed and fa is not None and d1a is not None else None,
            None,  # t**3 is pow in Python, not in numpy
        ),
    )


# ---------------------------------------------------------------------------
# Normalized functions: f(1) = 1

def _require_normalized(f: ScalarFunction):
    dev = abs(f(1.0) - 1.0)
    if dev > NORMALIZATION_TOL:
        raise UsageError(
            f"{f.name} is not normalized: |f(1) - 1| = {dev:.3e} "
            f"(allowed {NORMALIZATION_TOL:.0e})"
        )


def derivative_bound_at_one(f: ScalarFunction) -> float:
    """f'(1) for a normalized function; lands in [0, 1] for monotone members."""
    _require_normalized(f)
    return f.deriv(1.0)


@dataclass(frozen=True)
class ExtremeDecomposition:
    """f = weight * f1 + (1 - weight) * f2 with f1(1) = f2(1) = 1."""

    f1: ScalarFunction
    f2: ScalarFunction
    weight: float
    degenerate: bool = False


def extreme_decomposition(f: ScalarFunction) -> ExtremeDecomposition:
    """Split a normalized monotone function across the derivative weight.

    With w = f'(1):  f1(t) = (t/w) * dd1(f, t, 1)  and
    f2(t) = dd1(g, 1/t, 1) / (1 - w)  where g(t) = t f(1/t).  At w = 0 or 1
    the split degenerates to the constant-one and identity pieces.
    """
    _require_normalized(f)
    w = f.deriv(1.0)
    if w < -DEGENERACY_TOL or w > 1.0 + DEGENERACY_TOL:
        raise UsageError(f"derivative weight f'(1) = {w:.6g} outside [0, 1]")

    if w <= DEGENERACY_TOL or w >= 1.0 - DEGENERACY_TOL:
        return ExtremeDecomposition(
            f1=get_function("id"),
            f2=get_function("const1"),
            weight=float(round(w)),
            degenerate=True,
        )

    quot = difference_quotient_transform(f, 1.0)
    quot_inv = difference_quotient_transform(transform_involution(f), 1.0)

    # the pieces compose the transforms' scalar callables or array forms alike
    def piece(name, q, g):
        return ScalarFunction(
            name=f"{name}({f.name})",
            domain=f.domain,
            fn=g(q),
            claimed_class=OPERATOR_MONOTONE if f.claimed_class == OPERATOR_MONOTONE else UNKNOWN,
            array_forms=(g(q.array_forms[0]), None, None),
        )

    f1 = piece("extreme1", quot, lambda q: lambda t: (t / w) * q(t))
    f2 = piece("extreme2", quot_inv, lambda q: lambda t: q(1.0 / t) / (1.0 - w))
    return ExtremeDecomposition(f1=f1, f2=f2, weight=float(w), degenerate=False)
