"""Randomized verification and refutation of operator monotonicity/convexity.

Four checkers, each a seeded set of trials that either certifies a property
on every sampled instance or returns the earliest counterexample as a witness:

* check_monotone_order_n      -- positivity of first-divided-difference matrices
* check_convex_order_n        -- positivity of anchored second-difference matrices
* check_monotone_direct       -- f(A) <= f(B) on random ordered pairs
* check_midpoint_concavity    -- (f(A)+f(B))/2 <= f((A+B)/2) on random pairs

Each trial draws its inputs from its own RNG substream derived from
(seed, tag, index), so every trial can be reproduced on its own and verdicts
are reproducible bit for bit.  A checker then works in three steps: draw
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
from typing import Callable, Optional

import numpy as np

from .calculus import _apply_function_stack
from .divdiff import (
    TAU_NODE,
    NodeSet,
    _anchored_stack,
    _loewner_stack,
    _near,
    difference_quotient_transform,
)
from .errors import NumericalFailure, UsageError
from .functions import OPERATOR_MONOTONE, UNKNOWN, ScalarFunction, get_function
from .hermitian import (
    PSD_TOL,
    HermitianMatrix,
    Interval,
    _build_hermitian,
    _build_ordered_pairs,
    _draw_hermitian,
    _draw_ordered_pair,
    _require_hermitian,
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
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _trial_rng(seed, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(_seed_tuple(seed) + (tag, trial))


def sample_nodes(rng: np.random.Generator, n: int, iv: Interval) -> NodeSet:
    """n i.i.d. uniform nodes, redrawn until no pair is tau-coincident."""
    if not iv.bounded:
        raise UsageError("node sampling needs a bounded interval")
    for _ in range(100):
        ts = rng.uniform(iv.lo, iv.hi, n).tolist()
        if not any(_near(s, t) for i, s in enumerate(ts) for t in ts[i + 1:]):
            return NodeSet(tuple(ts), iv)
    raise UsageError(f"could not draw {n} separated nodes in {iv}")


def sample_nodes_near_coincident(
    rng: np.random.Generator, n: int, iv: Interval
) -> NodeSet:
    """A cluster of nodes spaced ~10*TAU_NODE apart, to probe limit formulas."""
    if not iv.bounded:
        raise UsageError("node sampling needs a bounded interval")
    gap = 10.0 * TAU_NODE * max(1.0, abs(iv.lo), abs(iv.hi))
    lo = iv.lo + 0.25 * iv.width
    hi = iv.hi - 0.25 * iv.width - n * gap
    base = rng.uniform(lo, max(hi, lo + gap))
    jitter = rng.uniform(0.0, 1.0, n)
    ts = base + gap * (np.arange(n) + 0.1 * jitter)
    return NodeSet(tuple(ts), iv)


Sampler = Callable[[np.random.Generator, int, Interval], NodeSet]


def _check_inputs(f: ScalarFunction, iv: Interval, trials: int):
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not (iv.lo >= f.domain.lo and iv.hi <= f.domain.hi):
        raise UsageError(f"{iv} is not inside the domain of {f.name}")


def _draw_node_sets(sampler, seed, tag, n, iv, trials):
    draw = sampler or sample_nodes
    sets = [draw(_trial_rng(seed, tag, t), n, iv) for t in range(trials)]
    return sets, np.array([ns.nodes for ns in sets])


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
    f: ScalarFunction,
    n: int,
    iv: Interval,
    trials: int,
    seed,
    sampler: Optional[Sampler] = None,
) -> Verdict:
    """PSD test of [dd1(f, t_i, t_j)] over `trials` random order-n node sets."""
    _check_inputs(f, iv, trials)
    sets, ts = _draw_node_sets(sampler, seed, _TAG_MONOTONE, n, iv, trials)
    return _decide("monotone_order_n", f, n, _loewner_stack(f, ts), sets.__getitem__)


def check_convex_order_n(
    f: ScalarFunction,
    n: int,
    iv: Interval,
    trials: int,
    seed,
    sampler: Optional[Sampler] = None,
) -> Verdict:
    """PSD test of [dd2(f, t_i, t_j, t_1)] with the first node as anchor."""
    _check_inputs(f, iv, trials)
    sets, ts = _draw_node_sets(sampler, seed, _TAG_CONVEX, n, iv, trials)
    stack = _anchored_stack(f, ts, ts[:, 0])
    return _decide("convex_order_n", f, n, stack, sets.__getitem__)


def _pair(a: np.ndarray, b: np.ndarray):
    return lambda k: (HermitianMatrix(a[k]), HermitianMatrix(b[k]))


def check_monotone_direct(
    f: ScalarFunction, n: int, iv: Interval, trials: int, seed
) -> Verdict:
    """f(A) <= f(B) on random ordered pairs A <= B with spectra in iv."""
    _check_inputs(f, iv, trials)
    draws = [_draw_ordered_pair(n, iv, _trial_rng(seed, _TAG_DIRECT, t))
             for t in range(trials)]
    a, b = _build_ordered_pairs(iv, *(np.array(x) for x in zip(*draws)))
    fb, fa = _apply_function_stack(f, b), _apply_function_stack(f, a)
    return _decide("monotone_direct", f, n, fb - fa, _pair(a, b))


def check_midpoint_concavity(
    f: ScalarFunction, n: int, iv: Interval, trials: int, seed
) -> Verdict:
    """(f(A) + f(B))/2 <= f((A+B)/2) on independent random pairs."""
    _check_inputs(f, iv, trials)
    draws = []
    for t in range(trials):
        rng = _trial_rng(seed, _TAG_MIDPOINT, t)
        draws.append(_draw_hermitian(n, iv, rng) + _draw_hermitian(n, iv, rng))
    lam_a, z_a, lam_b, z_b = (np.array(x) for x in zip(*draws))
    a, b = _build_hermitian(lam_a, z_a), _build_hermitian(lam_b, z_b)
    mid = (a + b) / 2.0
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
    for x in xs:
        if not f(x) > 0.0:
            raise UsageError(
                f"{f.name} is not positive on its domain (f({x:.6g}) = {f(x):.6g})"
            )


def transform_involution(f: ScalarFunction) -> ScalarFunction:
    """t -> t * f(1/t); an involution on positive monotone functions."""
    _require_positive_on_domain(f)
    fn, d1, d2 = f.fn, f.d1, f.d2
    closed = d1 is not None and d2 is not None

    def g(t):
        return t * fn(1.0 / t)

    def g1(t):
        r = 1.0 / t
        return fn(r) - d1(r) * r

    def g2(t):
        return d2(1.0 / t) / (t**3)

    return ScalarFunction(
        name=f"involution({f.name})",
        domain=f.domain,
        fn=g,
        d1=g1 if closed else None,
        d2=g2 if closed else None,
        claimed_class=f.claimed_class,
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
    invol = transform_involution(f)
    quot_inv = difference_quotient_transform(invol, 1.0)

    f1 = ScalarFunction(
        name=f"extreme1({f.name})",
        domain=f.domain,
        fn=lambda t: (t / w) * quot(t),
        claimed_class=OPERATOR_MONOTONE if f.claimed_class == OPERATOR_MONOTONE else UNKNOWN,
    )
    f2 = ScalarFunction(
        name=f"extreme2({f.name})",
        domain=f.domain,
        fn=lambda t: quot_inv(1.0 / t) / (1.0 - w),
        claimed_class=OPERATOR_MONOTONE if f.claimed_class == OPERATOR_MONOTONE else UNKNOWN,
    )
    return ExtremeDecomposition(f1=f1, f2=f2, weight=float(w), degenerate=False)
