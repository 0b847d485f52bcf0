"""Scalar divided differences kept as an independent test reference.

These are the scalar dd1/dd2 that loewnerlab.divdiff carried before its array
kernels became the only divided-difference body, copied unchanged (with the
coincidence predicate and triple mean they use), with the difference-quotient
transform built on them.  The tests compare the kernels, the stacks, the
public one-entry dd1/dd2 and the transform's array forms against them bitwise.
"""

import numpy as np

from loewnerlab.errors import UsageError
from loewnerlab.functions import UNKNOWN, ScalarFunction

TAU_NODE = 1e-7


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= TAU_NODE * max(1.0, abs(x), abs(y))


def _triple_mean(t1, t2, t3):
    """(t1 + t2 + t3) / 3 for a sorted near triple (scalars or arrays); where
    that sum overflows, the middle node plus the mean offset from it."""
    with np.errstate(over="ignore"):
        total = t1 + t2 + t3
    return np.where(np.isfinite(total), total / 3.0, t2 + ((t1 - t2) + (t3 - t2)) / 3.0)


def dd1(f: ScalarFunction, s: float, t: float) -> float:
    """First divided difference; f'((s+t)/2) when the nodes coincide.

    A midpoint is taken as lo + (hi - lo)/2: bitwise (lo + hi)/2 wherever
    that sum is finite and the gap exact, and finite where the sum overflows.
    """
    if _near(s, t):
        return f.deriv(min(s, t) + 0.5 * abs(t - s))
    return (f(t) - f(s)) / (t - s)


def dd2(f: ScalarFunction, a: float, b: float, c: float) -> float:
    """Symmetric second divided difference of f at three nodes.

    Distinct nodes use the three-term partial-fraction form
    sum_i f(t_i) / prod_{j != i} (t_i - t_j); one coincident pair {x, x} with
    a distinct third node y degenerates to (f'(x) - dd1(f, y, x)) / (x - y),
    and a triple coincidence to f''/2 at the mean.  Nodes are sorted first,
    which makes the value bitwise invariant under node permutations.
    """
    t1, t2, t3 = sorted((float(a), float(b), float(c)))
    low, high = _near(t1, t2), _near(t2, t3)
    if low and high:
        return 0.5 * f.deriv2(float(_triple_mean(t1, t2, t3)))
    if low or high:
        if low:
            x, y = t1 + 0.5 * (t2 - t1), t3
        else:
            x, y = t2 + 0.5 * (t3 - t2), t1
        return (f.deriv(x) - dd1(f, y, x)) / (x - y)
    return (
        f(t1) / ((t1 - t2) * (t1 - t3))
        + f(t2) / ((t2 - t1) * (t2 - t3))
        + f(t3) / ((t3 - t1) * (t3 - t2))
    )


def difference_quotient_transform(f: ScalarFunction, t1: float) -> ScalarFunction:
    """The map t -> dd1(f, t, t1), with derivative t -> dd2(f, t, t, t1).

    Its value at t1 itself is f'(t1) via the coincidence limit, and its
    Loewner matrix over nodes t_i equals [dd2(f, t_i, t_j, t1)].
    """
    if not f.domain.contains_strictly(t1):
        raise UsageError(f"base point {t1} outside the domain of {f.name}")
    return ScalarFunction(
        name=f"diffquot:{f.name}@{t1:g}",
        domain=f.domain,
        fn=lambda t: dd1(f, t, t1),
        d1=lambda t: dd2(f, t, t, t1),
        d2=None,
        claimed_class=UNKNOWN,
    )
