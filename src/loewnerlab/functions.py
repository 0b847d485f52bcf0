"""Scalar function catalog and smooth regularization.

A ScalarFunction bundles an evaluator with optional closed-form first and
second derivatives (central finite differences fill in when they are absent)
and a claimed classification that verification code never trusts.  The
catalog collects the standard positive operator monotone functions on
(0, inf) -- powers, Moebius kernels t/(lam + (1-lam)t), the arithmetic and
harmonic representers -- together with deliberate non-examples (square, cube,
exp) used to exercise refutation paths.

_node_values evaluates f, f.deriv or f.deriv2 (or any scalar callable, such
as a mollifier density) at every entry of an array.  It is the one route for
f at many points: the divided differences, calculus's matrix functions, the
mollifier, the positivity guard of monotonicity, `loewnerlab synth` and the
acceptance criteria.  A ScalarFunction may declare array forms of fn, d1 and
d2, and _node_values uses the declared form in one numpy pass.  A form is
declared only where it equals the scalar callable bitwise at every float:
numpy runs one correctly rounded ufunc per +, -, *, / and sqrt, as Python
does.  So id, const1, arithmetic, square and every kernel:lam declare all
three forms, sqrt declares f and f' (0.5 / sqrt t) and harmonic_rep f only.
power:p, cube, exp, sqrt's f'' (t ** -1.5), harmonic_rep's f' and f'' and
the bump stay scalar: numpy's ** and exp are not Python's pow and math.exp
in the last bits.  negated, the kernel mixtures of measures.synthesize and
monotonicity.transform_involution compose forms with the same operations.
Fallback rule: a form runs under np.errstate(raise) for divide, overflow and
invalid; when it raises FloatingPointError, or UsageError for a point
outside what it accepts, the whole array goes through the scalar callable
point by point, which returns or raises exactly what it would alone.

The second half implements mollification: convolution against the compactly
supported bump exp(-1/(1-x^2)), normalized to unit mass, evaluated by
adaptive Gauss-Legendre quadrature.  Differentiating the kernel instead of
the function gives derivatives of the smoothed function without ever
differencing the input.  The quadrature integrand works on a whole level's
node vector: f is evaluated at x - eps*y for every node y through
_node_values, and the kernel at the nodes is read from a read-only table
built point by point once per (kernel, node count), the kernel being
_density or its derivative _density_deriv, and kept in a bounded cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import NumericalFailure, UsageError
from .hermitian import Interval, POSITIVE_AXIS

# Classification tags (metadata only; every claim is re-checked numerically).
OPERATOR_MONOTONE = "operator_monotone"
NEITHER = "neither"
UNKNOWN = "unknown"

_EPS = float(np.finfo(np.float64).eps)
_FD1_H = _EPS ** (1.0 / 3.0)
_FD2_H = _EPS**0.25


@dataclass(frozen=True)
class ScalarFunction:
    """A real function on an open interval, with derivative access.

    deriv/deriv2 use the closed forms when provided and otherwise fall back
    to central differences with steps h ~ eps^(1/3) resp. eps^(1/4), scaled
    by max(1, |x|).  A value too large for a float (math.exp(1000)) or a
    division by zero (0.5 / sqrt(0.0)) is a NumericalFailure naming the
    function and the point.  array_forms holds the numpy forms of (fn, d1,
    d2) that _node_values uses, each None or bitwise equal to its scalar
    callable wherever that returns a value.
    """

    name: str
    domain: Interval
    fn: Callable[[float], float]
    d1: Optional[Callable[[float], float]] = None
    d2: Optional[Callable[[float], float]] = None
    claimed_class: str = UNKNOWN
    array_forms: tuple = (None, None, None)

    def __call__(self, x: float) -> float:
        return self._eval(self.fn, x, "")

    def deriv(self, x: float) -> float:
        if self.d1 is not None:
            return self._eval(self.d1, x, "'")
        h = _FD1_H * max(1.0, abs(x))
        return (self(x + h) - self(x - h)) / (2.0 * h)

    def deriv2(self, x: float) -> float:
        if self.d2 is not None:
            return self._eval(self.d2, x, "''")
        h = _FD2_H * max(1.0, abs(x))
        return (self(x + h) - 2.0 * self(x) + self(x - h)) / (h * h)

    def _eval(self, g, x: float, primes: str) -> float:
        try:
            return float(g(x))
        except OverflowError as exc:
            raise NumericalFailure(f"{self.name}{primes}({float(x)!r}) overflows: {exc}") from exc
        except ZeroDivisionError as exc:
            raise NumericalFailure(
                f"{self.name}{primes}({float(x)!r}) divides by zero: {exc}"
            ) from exc

    def negated(self) -> "ScalarFunction":
        def neg(g):  # scalar and array forms alike
            return None if g is None else (lambda x: -g(x))

        return ScalarFunction(
            name=f"neg({self.name})",
            domain=self.domain,
            fn=neg(self.fn),
            d1=neg(self.d1),
            d2=neg(self.d2),
            claimed_class=UNKNOWN,
            array_forms=tuple(map(neg, self.array_forms)),
        )


def _full(value: float):
    """The array form of a constant callable: value at every entry."""
    return lambda t: np.full_like(t, value)


# the bound methods an array form stands in for, by index into array_forms
_FORM_INDEX = {ScalarFunction.__call__: 0, ScalarFunction.deriv: 1, ScalarFunction.deriv2: 2}


def _array_form(g):
    """The array form declared for g -- f, f.deriv or f.deriv2 -- or None."""
    if isinstance(g, ScalarFunction):
        return g.array_forms[0]
    k = _FORM_INDEX.get(getattr(g, "__func__", None))
    return None if k is None else g.__self__.array_forms[k]


def _node_values(g, ts: np.ndarray) -> np.ndarray:
    """g (f, f.deriv, f.deriv2, a density) at every entry of ts.

    g's declared array form runs in one pass; when it refuses, or there is
    none, g is called on Python floats entry by entry (see the module notes).
    """
    form = _array_form(g)
    if form is not None:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                return form(np.asarray(ts, dtype=np.float64))
        except (FloatingPointError, UsageError):
            pass
    return np.array([g(x) for x in ts.ravel().tolist()]).reshape(ts.shape)


def kernel01(lam, t):
    """The Moebius kernel t / (lam + (1-lam) t), exactly 1 at t = 1.

    Plain arithmetic, so lam and t may be floats or broadcast arrays; the
    catalog's kernel:lam members, synthesize and fit_measure all evaluate it
    here.
    """
    return t / (lam + (1.0 - lam) * t)


def kernel01_d1(lam, t):
    """d/dt kernel01(lam, t) = lam / (lam + (1-lam) t)^2."""
    den = lam + (1.0 - lam) * t
    return lam / (den * den)


def kernel01_d2(lam, t):
    """d^2/dt^2 kernel01(lam, t) = -2 lam (1-lam) / (lam + (1-lam) t)^3."""
    den = lam + (1.0 - lam) * t
    return -2.0 * lam * (1.0 - lam) / (den * den * den)


def _moebius_kernel(lam: float) -> ScalarFunction:
    l = float(lam)
    fn, d1, d2 = (partial(k, l) for k in (kernel01, kernel01_d1, kernel01_d2))
    return ScalarFunction(
        name=f"kernel:{l:g}",
        domain=POSITIVE_AXIS,
        fn=fn,
        d1=d1,
        d2=d2,
        claimed_class=OPERATOR_MONOTONE,
        array_forms=(fn, d1, d2),  # plain arithmetic broadcasts
    )


def _power(p: float) -> ScalarFunction:
    p = float(p)
    return ScalarFunction(
        name=f"power:{p:g}",
        domain=POSITIVE_AXIS,
        fn=lambda t: t**p,
        d1=lambda t: p * t ** (p - 1.0),
        d2=lambda t: p * (p - 1.0) * t ** (p - 2.0),
        claimed_class=OPERATOR_MONOTONE,
    )


def _fixed_members() -> dict[str, ScalarFunction]:
    pos = POSITIVE_AXIS
    zero, one = _full(0.0), _full(1.0)
    # the array forms of arithmetic, harmonic_rep and square are their scalar
    # callables: plain arithmetic broadcasts
    arithmetic = lambda t: (1.0 + t) / 2.0
    harmonic = lambda t: 2.0 * t / (1.0 + t)
    square, twice = lambda t: t * t, lambda t: 2.0 * t
    members = [
        ScalarFunction("id", pos, lambda t: t, lambda t: 1.0, lambda t: 0.0,
                       OPERATOR_MONOTONE, (np.copy, one, zero)),
        ScalarFunction("const1", pos, lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                       OPERATOR_MONOTONE, (one, zero, zero)),
        ScalarFunction("sqrt", pos, math.sqrt,
                       lambda t: 0.5 / math.sqrt(t),
                       lambda t: -0.25 * t ** (-1.5),
                       OPERATOR_MONOTONE,
                       (np.sqrt, lambda t: 0.5 / np.sqrt(t), None)),
        ScalarFunction("arithmetic", pos, arithmetic,
                       lambda t: 0.5, lambda t: 0.0, OPERATOR_MONOTONE,
                       (arithmetic, _full(0.5), zero)),
        ScalarFunction("harmonic_rep", pos, harmonic,
                       lambda t: 2.0 / (1.0 + t) ** 2,
                       lambda t: -4.0 / (1.0 + t) ** 3,
                       OPERATOR_MONOTONE, (harmonic, None, None)),
        ScalarFunction("square", pos, square, twice,
                       lambda t: 2.0, NEITHER, (square, twice, _full(2.0))),
        ScalarFunction("cube", pos, lambda t: t**3, lambda t: 3.0 * t * t,
                       lambda t: 6.0 * t, NEITHER),
        ScalarFunction("exp", pos, math.exp, math.exp, math.exp, NEITHER),
    ]
    out = {m.name: m for m in members}
    for p in (0.25, 0.5, 0.75):
        f = _power(p)
        out[f.name] = f
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        f = _moebius_kernel(lam)
        out[f.name] = f
    return out


_CATALOG = _fixed_members()


def catalog() -> list[ScalarFunction]:
    """All named catalog members, in a stable order."""
    return list(_CATALOG.values())


def catalog_names() -> list[str]:
    return list(_CATALOG)


def get_function(name: str) -> ScalarFunction:
    """Look up a catalog member, or build a family member like 'power:0.3'.

    Unknown names raise UsageError listing what is available.
    """
    if name in _CATALOG:
        return _CATALOG[name]
    if ":" in name:
        family, _, arg = name.partition(":")
        try:
            val = float(arg)
        except ValueError:
            raise UsageError(f"bad parameter {arg!r} in function name {name!r}") from None
        if family == "power":
            if not 0.0 < val <= 1.0:
                raise UsageError(f"power exponent must be in (0, 1], got {val}")
            return _power(val)
        if family == "kernel":
            if not 0.0 <= val <= 1.0:
                raise UsageError(f"kernel parameter must be in [0, 1], got {val}")
            return _moebius_kernel(val)
    raise UsageError(
        f"unknown function {name!r}; available: {', '.join(catalog_names())} "
        f"(families: power:p, kernel:lam)"
    )


# ---------------------------------------------------------------------------
# Mollification

def _bump(x: float) -> float:
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


def _bump_deriv(x: float) -> float:
    if abs(x) >= 1.0:
        return 0.0
    q = 1.0 - x * x
    return math.exp(-1.0 / q) * (-2.0 * x / (q * q))


@lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights, read-only: integrands receive the nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _adaptive_gl(g, stop_tol: float = 1e-10, cap: int = 1024) -> float:
    """Gauss-Legendre on [-1, 1] from 64 nodes, doubling until the value settles.

    g is a vector integrand: it takes a level's node vector and returns the
    integrand at every node, and each level sums np.sum(w * g(x)).  Raises
    NumericalFailure if the value has not settled to stop_tol by cap nodes.
    """
    n = 64
    x, w = _leggauss(n)
    prev = float(np.sum(w * g(x)))
    step = math.inf
    while n < cap:
        n *= 2
        x, w = _leggauss(n)
        cur = float(np.sum(w * g(x)))
        if abs(cur - prev) < stop_tol:
            return cur
        step, prev = abs(cur - prev), cur
    raise NumericalFailure(
        f"Gauss-Legendre quadrature did not settle to {stop_tol:g} by {n} nodes "
        f"(last change {step:.3g})"
    )


@lru_cache(maxsize=1)
def _normalizer() -> float:
    """1 / mass of the bump, computed on first use."""
    return 1.0 / _adaptive_gl(partial(_node_values, _bump), stop_tol=1e-12, cap=2048)


def _density(x: float) -> float:
    """The mollifier: the bump normalized to unit mass."""
    return _normalizer() * _bump(x)


def _density_deriv(x: float) -> float:
    """The derivative of _density."""
    return _normalizer() * _bump_deriv(x)


@lru_cache(maxsize=32)
def _kernel_table(density, n: int) -> np.ndarray:
    """density (_density or _density_deriv) at the n Gauss-Legendre nodes,
    built point by point and read-only; cached per (density, n)."""
    table = _node_values(density, _leggauss(n)[0])
    table.flags.writeable = False
    return table


def _convolve(f: ScalarFunction, eps: float, x: float, density) -> float:
    """int f(x - eps y) density(y) dy over (-1, 1), one node vector per level."""
    return _adaptive_gl(lambda y: _node_values(f, x - eps * y) * _kernel_table(density, len(y)))


def _check_mollify_window(f: ScalarFunction, eps: float, x: float):
    if not eps > 0.0:
        raise UsageError(f"mollification width must be positive, got {eps}")
    if not (f.domain.lo < x - eps and x + eps < f.domain.hi):
        raise UsageError(
            f"[{x - eps}, {x + eps}] is not strictly inside the domain "
            f"({f.domain.lo}, {f.domain.hi}) of {f.name}"
        )


def mollify(f: ScalarFunction, eps: float, x: float) -> float:
    """Value at x of f convolved with the eps-width mollifier."""
    _check_mollify_window(f, eps, x)
    return _convolve(f, eps, x, _density)


def mollify_derivative(f: ScalarFunction, eps: float, x: float) -> float:
    """Derivative of the mollified function, via the differentiated kernel.

    (f * phi_eps)'(x) = (1/eps) * int f(x - eps u) phi'(u) du; no difference
    quotient of f is ever taken.
    """
    _check_mollify_window(f, eps, x)
    return _convolve(f, eps, x, _density_deriv) / eps

