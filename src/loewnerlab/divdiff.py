"""Divided differences and the matrices built from them.

First divided difference with a derivative limit at coincident nodes, the
fully symmetric three-node second difference with its own coincidence limits,
the matrix [dd1(f, t_i, t_j)] whose positivity certifies monotonicity at a
given order, the anchored matrix [dd2(f, t_i, t_j, anchor)], and the
difference-quotient transformation f -> dd1(f, ., t1).

Coincidence handling uses a relative node threshold: nodes s, t merge when
|s - t| <= TAU_NODE * max(1, |s|, |t|).  Sorting the nodes before the
symmetric second-difference form makes dd2 exactly permutation invariant,
including in floating point.

The matrices are formed by numpy broadcast from f and f' evaluated once per
node (f'' only at triple coincidences).  Two kernels hold the only array
forms: _dd1_values for dd1 over broadcast node pairs and _dd2_values for dd2
over sorted node triples.  They use the scalar dd1/dd2 expressions in the
same operation order, so every entry equals dd1/dd2 bitwise, and send only
near-but-unequal nodes, which need f' at a new point, to the scalar forms.
The builders do index work and call a kernel: _loewner_stack and
_anchored_stack build one matrix per row of a (trials, n) node array (the
order-n checks build all their trials at once; loewner_matrix and
second_dd_matrix are the same builds on one row), and _dd_tables forms every
dd2 over an ascending spectrum, once per sorted triple, for the chain rule
in calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import UsageError
from .functions import ScalarFunction, UNKNOWN, _node_values
from .hermitian import Interval

#: Relative node-coincidence threshold.
TAU_NODE = 1e-7


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= TAU_NODE * max(1.0, abs(x), abs(y))


def _near_arrays(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """_near elementwise over broadcast arrays, with the same arithmetic."""
    return np.abs(x - y) <= TAU_NODE * np.maximum(np.maximum(1.0, np.abs(x)), np.abs(y))


@dataclass(frozen=True)
class NodeSet:
    """Finite, ordered tuple of evaluation nodes strictly inside a domain."""

    nodes: tuple[float, ...]
    domain: Interval

    def __post_init__(self):
        nodes = tuple(float(t) for t in self.nodes)
        if not nodes:
            raise UsageError("node set must be nonempty")
        for t in nodes:
            if not self.domain.contains_strictly(t):
                raise UsageError(f"node {t} outside open interval {self.domain}")
        object.__setattr__(self, "nodes", nodes)

    def __len__(self):
        return len(self.nodes)


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


@lru_cache(maxsize=16)
def _sorted_triples(n: int) -> tuple[np.ndarray, ...]:
    """Index triples p <= q <= r of range(n), and for every (i, j, k) the
    position of its sorted triple among the triples."""
    triples = combinations_with_replacement(range(n), 3)
    p, q, r = np.array(list(triples), dtype=np.intp).T
    pos = np.empty((n, n, n), dtype=np.intp)
    for axes in permutations((p, q, r)):
        pos[axes] = np.arange(len(p))
    for arr in (p, q, r, pos):
        arr.setflags(write=False)
    return p, q, r, pos


def _dd1_values(f: ScalarFunction, ti, tj, fi, fj, di) -> np.ndarray:
    """dd1(f, t_i, t_j) over broadcast nodes, from f(t_i), f(t_j) and f'(t_i).

    The quotient of the cached values, f'(t_i) on an exact tie (where the
    coincidence limit f'((t_i + t_j) / 2) is f'(t_i)), and the scalar dd1 on
    near-but-unequal pairs, which need f' at a new point.
    """
    tie = ti == tj
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(tie, di, (fj - fi) / (tj - ti))
    near = _near_arrays(ti, tj) & ~tie
    if near.any():
        ti, tj = np.broadcast_arrays(ti, tj)
        for k in map(tuple, np.argwhere(near)):
            m[k] = dd1(f, float(ti[k]), float(tj[k]))
    return m


def _dd2_values(f: ScalarFunction, t1, t2, t3, f1, f2, f3, d_mid) -> np.ndarray:
    """dd2(f, t1, t2, t3) over sorted triples t1 <= t2 <= t3, from f at the
    three nodes and f' at the middle one.

    A distinct triple takes the partial-fraction form.  Only the triples
    with a near pair are gathered for the rest: a pair tied exactly at the
    middle node x with a third node y takes (f'(x) - dd1(f, y, x)) / (x - y),
    a triple coincidence f''/2 at the mean, and the other near triples go to
    the scalar dd2.
    """
    low, high = _near_arrays(t1, t2), _near_arrays(t2, t3)
    # a denominator that overflows makes its term 0, the underflowed value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = (
            f1 / ((t1 - t2) * (t1 - t3))
            + f2 / ((t2 - t1) * (t2 - t3))
            + f3 / ((t3 - t1) * (t3 - t2))
        )
    k = np.nonzero(low | high)
    t1, t2, t3, f1, f2, f3, d_mid, low, high = (
        v[k] for v in (t1, t2, t3, f1, f2, f3, d_mid, low, high)
    )
    # the middle node's near partner z and the third node y
    z, y, fy = np.where(high, t3, t1), np.where(high, t1, t3), np.where(high, f1, f3)
    tie = (low != high) & (z == t2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lim = (d_mid - (f2 - fy) / (t2 - y)) / (t2 - y)
    triple = low & high
    lim[triple] = 0.5 * _node_values(f.deriv2, _triple_mean(t1[triple], t2[triple], t3[triple]))
    for i in np.nonzero(~(tie | triple))[0]:
        lim[i] = dd2(f, float(t1[i]), float(t2[i]), float(t3[i]))
    m[k] = lim
    return m


def _dd_tables(f: ScalarFunction, nodes) -> np.ndarray:
    """[dd2(f, t_i, t_j, t_k)] over ascending nodes (a spectrum, as
    eigendecompose returns it).

    dd2 is formed once per sorted triple, then gathered into the full table.
    """
    s = np.asarray(nodes, dtype=np.float64)
    fs, ds = _node_values(f, s), _node_values(f.deriv, s)
    p, q, r, pos = _sorted_triples(len(s))
    d2 = _dd2_values(f, s[p], s[q], s[r], fs[p], fs[q], fs[r], ds[q])
    return d2.take(pos)


def _loewner_stack(f: ScalarFunction, ts: np.ndarray) -> np.ndarray:
    """[dd1(f, t_i, t_j)] for every row t of the (..., n) node array ts."""
    fs, ds = _node_values(f, ts), _node_values(f.deriv, ts)
    return _dd1_values(
        f, ts[..., :, None], ts[..., None, :], fs[..., :, None], fs[..., None, :], ds[..., :, None]
    )


def _anchored_stack(f: ScalarFunction, ts: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """[dd2(f, t_i, t_j, a)] for every row t of the (rows, n) node array ts
    and its anchor a.

    Each row is sorted once; the sorted triple of entry (i, j) is read off
    the ranks of t_i, t_j and a, so it equals the triple dd2 sorts.
    """
    rows, n = ts.shape
    t = np.column_stack([ts, anchor])
    order = np.argsort(t, axis=-1, kind="stable")
    s = np.take_along_axis(t, order, axis=-1)
    rank = np.argsort(order, axis=-1)
    ri, rj, ra = rank[:, :n, None], rank[:, None, :n], rank[:, n, None, None]
    lo = np.minimum(np.minimum(ri, rj), ra)
    hi = np.maximum(np.maximum(ri, rj), ra)
    # flat positions in s of each entry's sorted triple
    row = (n + 1) * np.arange(rows)[:, None, None]
    pos = [row + k for k in (lo, ri + rj + ra - lo - hi, hi)]
    fs, ds = _node_values(f, s).ravel(), _node_values(f.deriv, s).ravel()
    s = s.ravel()
    return _dd2_values(f, *(s[k] for k in pos), *(fs[k] for k in pos), ds[pos[1]])


@dataclass(frozen=True, eq=False)
class LoewnerMatrix:
    """Real symmetric matrix of first divided differences over a node set."""

    nodeset: NodeSet
    entries: np.ndarray


def loewner_matrix(f: ScalarFunction, ns: NodeSet) -> LoewnerMatrix:
    """[dd1(f, t_i, t_j)]_{i,j}; diagonal entries are exactly f'(t_i)."""
    m = _loewner_stack(f, np.array(ns.nodes))
    m.setflags(write=False)
    return LoewnerMatrix(nodeset=ns, entries=m)


def second_dd_matrix(f: ScalarFunction, ns: NodeSet, anchor: float) -> LoewnerMatrix:
    """[dd2(f, t_i, t_j, anchor)]_{i,j} over the node set.

    The anchor is an explicit parameter; callers decide whether it also
    appears among the nodes.
    """
    if not ns.domain.contains_strictly(anchor):
        raise UsageError(f"anchor {anchor} outside {ns.domain}")
    m = _anchored_stack(f, np.array([ns.nodes]), np.array([float(anchor)]))[0]
    m.setflags(write=False)
    return LoewnerMatrix(nodeset=ns, entries=m)


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
