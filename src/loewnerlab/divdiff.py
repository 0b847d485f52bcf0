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
node (f'' only at triple coincidences), with the scalar dd1/dd2 expressions
in the same operation order, so every entry equals dd1/dd2 bitwise.  Only
near-but-unequal node pairs, which need f' at a new point, go to the scalar
forms.  _loewner_stack and _anchored_stack build one matrix per row of a
(trials, n) node array, so the order-n checks build all their trials at
once; loewner_matrix and second_dd_matrix are the same builds on one row.
_dd_tables does the same for every dd1 and dd2 over a spectrum, which the
chain rule in calculus needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import UsageError
from .functions import ScalarFunction, UNKNOWN
from .hermitian import HermitianMatrix, Interval

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


def dd1(f: ScalarFunction, s: float, t: float) -> float:
    """First divided difference; f'((s+t)/2) when the nodes coincide."""
    if _near(s, t):
        return f.deriv(0.5 * (s + t))
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
        return 0.5 * f.deriv2((t1 + t2 + t3) / 3.0)
    if low or high:
        if low:
            x, y = 0.5 * (t1 + t2), t3
        else:
            x, y = 0.5 * (t2 + t3), t1
        return (f.deriv(x) - dd1(f, y, x)) / (x - y)
    return (
        f(t1) / ((t1 - t2) * (t1 - t3))
        + f(t2) / ((t2 - t1) * (t2 - t3))
        + f(t3) / ((t3 - t1) * (t3 - t2))
    )


@lru_cache(maxsize=16)
def _sorted_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index triples p <= q <= r of range(n), and for every (i, j, k) the
    position of its sorted triple among them."""
    triples = combinations_with_replacement(range(n), 3)
    p, q, r = np.array(list(triples), dtype=np.intp).T
    pos = np.empty((n, n, n), dtype=np.intp)
    for axes in permutations((p, q, r)):
        pos[axes] = np.arange(len(p))
    for arr in (p, q, r, pos):
        arr.setflags(write=False)
    return p, q, r, pos


def _dd_tables(f: ScalarFunction, nodes) -> tuple[np.ndarray, np.ndarray]:
    """[dd1(f, t_i, t_j)] and [dd2(f, t_i, t_j, t_k)] over nodes.

    f and f' are evaluated once per node and the entries formed by broadcast
    over the sorted nodes, with the scalar expressions in the same operation
    order, so every entry equals dd1/dd2 bitwise.  A distinct triple uses the
    partial-fraction form on its sorted nodes; an exactly tied pair {x, x}
    with a distinct third node y takes (f'(x) - dd1(f, y, x)) / (x - y) from
    the cached values.  Near-but-unequal pairs and triple coincidences, which
    evaluate f' or f'' at new points, go to the scalar dd1/dd2.
    """
    t = np.asarray(nodes, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(t))
    s = t[order]
    sl = s.tolist()
    fs = np.array([f(x) for x in sl])
    ds = np.array([f.deriv(x) for x in sl])
    near = _near_arrays(s[:, None], s)
    # here the coincidence limit f'((x + y) / 2) is the cached f'(x)
    tie = (s[:, None] == s) & (0.5 * (s + s) == s)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.where(tie, ds[:, None], (fs - fs[:, None]) / (s - s[:, None]))
    for i, j in zip(*np.nonzero(np.triu(near & ~tie))):
        d1[i, j] = d1[j, i] = dd1(f, sl[i], sl[j])
    p, q, r, pos = _sorted_triples(len(t))
    t1, t2, t3 = s[p], s[q], s[r]
    low, high = near[p, q], near[q, r]
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = (
            fs[p] / ((t1 - t2) * (t1 - t3))
            + fs[q] / ((t2 - t1) * (t2 - t3))
            + fs[r] / ((t3 - t1) * (t3 - t2))
        )
        # (f'(x) - dd1(f, y, x)) / (x - y) for a tied pair {x, x} and a third
        # node y; the other near pairs are redone by the scalar dd2 below
        for pair, x, y in ((high, q, p), (low, p, r)):
            m = np.nonzero(pair)[0]
            x, y = x[m], y[m]
            d2[m] = (ds[x] - d1[y, x]) / (s[x] - s[y])
    for m in np.nonzero((low & (high | ~tie[p, q])) | (high & ~tie[q, r]))[0]:
        d2[m] = dd2(f, sl[p[m]], sl[q[m]], sl[r[m]])
    if np.any(order != np.arange(len(t))):
        pos = pos[np.ix_(rank, rank, rank)]
    return d1[rank[:, None], rank], d2.take(pos)


def _node_values(g, ts: np.ndarray) -> np.ndarray:
    """g (f or f.deriv) at every entry of ts, called on Python floats like dd1/dd2."""
    return np.array([g(x) for x in ts.ravel().tolist()]).reshape(ts.shape)


def _loewner_stack(f: ScalarFunction, ts: np.ndarray) -> np.ndarray:
    """[dd1(f, t_i, t_j)] for every row t of the (..., n) node array ts."""
    fs, ds = _node_values(f, ts), _node_values(f.deriv, ts)
    ti, tj = ts[..., :, None], ts[..., None, :]
    near = _near_arrays(ti, tj)
    # here the coincidence limit f'((s + t) / 2) is the cached f'(t)
    tie = (ti == tj) & (0.5 * (ti + ti) == ti)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(tie, ds[..., :, None], (fs[..., None, :] - fs[..., :, None]) / (tj - ti))
    for *k, i, j in np.argwhere(near & ~tie):
        m[(*k, i, j)] = dd1(f, float(ts[(*k, i)]), float(ts[(*k, j)]))
    return m


def _anchored_stack(f: ScalarFunction, ts: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """[dd2(f, t_i, t_j, a)] for every row t of the (rows, n) node array ts
    and its anchor a.

    Each row is sorted once; the sorted triple of entry (i, j) is read off
    the ranks of t_i, t_j and a, so it equals the triple dd2 sorts.  A
    distinct triple takes the partial-fraction form, an exactly tied pair
    {x, x} with a third node y takes (f'(x) - dd1(f, y, x)) / (x - y) from
    the cached values, and a triple coincidence f''/2 at the mean; the other
    near pairs go to dd2.
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
    fs = _node_values(f, s)
    t1, t2, t3 = (s.ravel()[k] for k in pos)
    f1, f2, f3 = (fs.ravel()[k] for k in pos)
    d2 = _node_values(f.deriv, s).ravel()[pos[1]]
    low, high = _near_arrays(t1, t2), _near_arrays(t2, t3)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = (
            f1 / ((t1 - t2) * (t1 - t3))
            + f2 / ((t2 - t1) * (t2 - t3))
            + f3 / ((t3 - t1) * (t3 - t2))
        )
        # (f'(x) - dd1(f, y, x)) / (x - y) for a tied pair {x, x} and a third node y
        tie_high = high & ~low & (t2 == t3) & (0.5 * (t2 + t3) == t2)
        m = np.where(tie_high, (d2 - (f2 - f1) / (t2 - t1)) / (t2 - t1), m)
        tie_low = low & ~high & (t1 == t2) & (0.5 * (t1 + t2) == t2)
        m = np.where(tie_low, (d2 - (f2 - f3) / (t2 - t3)) / (t2 - t3), m)
    triple = low & high
    if triple.any():
        mean = ((t1[triple] + t2[triple] + t3[triple]) / 3.0).tolist()
        m[triple] = [0.5 * f.deriv2(x) for x in mean]
    for k in np.argwhere((low | high) & ~(triple | tie_low | tie_high)):
        k = tuple(k)
        m[k] = dd2(f, float(t1[k]), float(t2[k]), float(t3[k]))
    return m


@dataclass(frozen=True, eq=False)
class LoewnerMatrix:
    """Real symmetric matrix of first divided differences over a node set."""

    nodeset: NodeSet
    entries: np.ndarray

    def as_hermitian(self) -> HermitianMatrix:
        return HermitianMatrix(self.entries.astype(np.complex128))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


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
