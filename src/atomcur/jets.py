"""Truncated multivariate Taylor (jet) arithmetic.

A jet holds the Taylor coefficients (1/T!) * d^T f(p) of a smooth scalar
function at a base point, for every n-dimensional multi-index T with
|T| <= order.  Coefficients are laid out densely in graded-lexicographic
order: multi-indices sorted by total degree first, then lexicographically
ascending within a degree.  This layout makes truncation to a lower order
a prefix slice.

Two scalar modes exist and are never mixed inside one computation:

* ``rational``: exact, available for polynomial/rational expressions only.
  A rational jet stores integer numerators over one shared positive
  denominator (the representation of FLINT's ``fmpq_poly``), kept
  canonical: gcd(den, *numerators) == 1, so the zero jet has den 1.  A
  product is integer multiply-adds followed by one gcd for the whole jet.
  ``value``, ``coeff`` and ``partial`` return exact ``Fraction``s.
* ``float``: 64-bit floats in an ``array('d')``; the general mode.

Both modes multiply with the same truncated Cauchy product: the rows of the
product table, left factor outer, skipping its zero coefficients.  Each
output coefficient gets its terms in ascending left-factor index, so a float
product is the same sum in the same order as a full table walk.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

RATIONAL = "rational"
FLOAT = "float"


class ExactModeError(ValueError):
    """Raised when an operation cannot be carried out exactly in rational mode."""


class EvalDomainError(ValueError):
    """Raised when evaluation leaves the domain of an elementary function."""


def _gradlex_indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for deg in range(order + 1):
        out.extend(sorted(_compositions(n, deg)))
    return tuple(out)


def _compositions(n: int, deg: int):
    if n == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _compositions(n - 1, deg - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
class JetSpace:
    """Shared immutable tables for jets of a fixed (dimension, order).

    Instances are interned per (n, order); construction cost is paid once.
    """

    def __init__(self, n: int, order: int):
        if n < 1 or order < 0:
            raise ValueError("need n >= 1, order >= 0")
        self.n = n
        self.order = order
        self.indices = _gradlex_indices(n, order)
        self.size = len(self.indices)
        self.index_of = {T: i for i, T in enumerate(self.indices)}
        # diff_tables[i]: (dst, src, multiplier) triples realizing d/dx_i
        # into the order-1 space (empty at order 0).
        self.diff_tables = []
        if order >= 1:
            lower = JetSpace(n, order - 1)
            for i in range(n):
                tab = []
                for dst, T in enumerate(lower.indices):
                    src_T = tuple(t + (1 if k == i else 0) for k, t in enumerate(T))
                    tab.append((dst, self.index_of[src_T], T[i] + 1))
                self.diff_tables.append(tuple(tab))
        self.lower = JetSpace(n, order - 1) if order >= 1 else None
        # units[i]: position of the multi-index e_i (none at order 0)
        self.units = tuple(self.index_of[tuple(int(k == i) for k in range(n))]
                           for i in range(n)) if order >= 1 else ()

    @cached_property
    def mul_rows(self):
        """The truncated Cauchy product table grouped by the first factor:
        mul_rows[ia] holds an (o, ib) pair, ib ascending, for every
        indices[ia] + indices[ib] = indices[o] within the order."""
        rows = []
        for Ta in self.indices:
            room = self.order - sum(Ta)
            rows.append(tuple(
                (self.index_of[tuple(x + y for x, y in zip(Ta, Tb))], ib)
                for ib, Tb in enumerate(self.indices) if sum(Tb) <= room))
        return tuple(rows)

    @cached_property
    def mul_oi(self):
        """Output index of every product term, row by row.  Its length, the
        multiply-adds of a product with no zero coefficients, is the work
        counter that benchmark traces report."""
        return array("i", (o for row in self.mul_rows for o, _ in row))

    def __repr__(self):
        return f"JetSpace(n={self.n}, order={self.order})"


def _zero_coeffs(space: JetSpace, mode: str):
    if mode == FLOAT:
        return array("d", bytes(8 * space.size))
    return [0] * space.size


def as_scalar(x, mode: str):
    """Coerce a number into the scalar type of the given mode."""
    if mode == FLOAT:
        return float(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise ExactModeError(f"non-integral float {x!r} in rational mode")
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise ExactModeError(f"cannot coerce {x!r} to a rational scalar")


class Point(tuple):
    """A probe point: the tuple of its coordinates as scalars of ``mode``.

    It equals, and hashes like, the plain tuple of the same coordinates, so
    caches keyed on it also serve plain sequences.  Its hash is computed
    once: every per-point cache hashes its key on each lookup, and a tuple
    of ``Fraction``s hashes each coordinate again.  ``tuple(point)`` is a
    new plain tuple without the stored hash, so code that holds a point
    passes it on as it is.
    """

    def __new__(cls, coords, mode: str):
        self = tuple.__new__(cls, coords)
        self.mode = mode
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def as_point(p, mode: str) -> Point:
    """The point p in the scalar type of ``mode``; a Point of that mode is
    returned as it is."""
    if type(p) is Point and p.mode == mode:
        return p
    return Point((as_scalar(x, mode) for x in p), mode)


_new = object.__new__


def _exact(space: JetSpace, nums: list, den: int) -> "Jet":
    """Rational jet of integer numerators over den, already canonical."""
    jet = _new(Jet)
    jet.space = space
    jet.mode = RATIONAL
    jet.coeffs = nums
    jet.den = den
    return jet


def _reduced(space: JetSpace, nums: list, den: int) -> "Jet":
    """Rational jet of integer numerators over den > 0, put in canonical form
    by one gcd over the whole jet."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _exact(space, nums, den)


def _aligned(a: "Jet", b: "Jet"):
    """Numerators of two rational jets over their least common denominator."""
    if a.den == b.den:
        return a.coeffs, b.coeffs, a.den
    g = gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    return [x * fa for x in a.coeffs], [y * fb for y in b.coeffs], a.den * fa


class Jet:
    """Dense truncated Taylor expansion at a point (the point itself is
    carried by the caller; a Jet is pure coefficient data).

    ``coeffs`` is storage: floats in float mode (``den`` is 1), integer
    numerators over ``den`` in rational mode.  Read coefficients through
    ``value``, ``coeff`` and ``partial``.
    """

    __slots__ = ("space", "mode", "coeffs", "den")

    def __init__(self, space: JetSpace, mode: str, coeffs):
        self.space = space
        self.mode = mode
        if mode == FLOAT:
            self.coeffs = coeffs
            self.den = 1
            return
        qs = [as_scalar(c, RATIONAL) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        self.coeffs = [q.numerator * (den // q.denominator) for q in qs]
        self.den = den

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(space: JetSpace, mode: str) -> "Jet":
        if mode == FLOAT:
            return Jet(space, mode, _zero_coeffs(space, mode))
        return _exact(space, _zero_coeffs(space, mode), 1)

    @staticmethod
    def const(space: JetSpace, mode: str, value) -> "Jet":
        c = _zero_coeffs(space, mode)
        if mode == FLOAT:
            c[0] = float(value)
            return Jet(space, mode, c)
        q = value if type(value) is int else as_scalar(value, mode)
        c[0] = q.numerator
        return _exact(space, c, q.denominator)

    @staticmethod
    def variable(space: JetSpace, mode: str, i: int, base_value) -> "Jet":
        """Jet of the coordinate function x_i at a point with x_i = base_value."""
        c = _zero_coeffs(space, mode)
        if mode == FLOAT:
            c[0] = float(base_value)
            if space.units:
                c[space.units[i]] = 1.0
            return Jet(space, mode, c)
        q = as_scalar(base_value, mode)
        c[0] = q.numerator
        if space.units:
            c[space.units[i]] = q.denominator
        return _exact(space, c, q.denominator)

    # -- basic queries ------------------------------------------------
    @property
    def value(self):
        if self.mode == FLOAT:
            return self.coeffs[0]
        return Fraction(self.coeffs[0], self.den)

    def coeff(self, T: tuple) -> object:
        """Taylor coefficient at multi-index T, i.e. (1/T!) d^T f."""
        c = self.coeffs[self.space.index_of[tuple(T)]]
        return c if self.mode == FLOAT else Fraction(c, self.den)

    def partial(self, T: tuple):
        """Plain partial derivative d^T f at the base point (T! * coeff)."""
        fact = 1
        for t in T:
            fact *= math.factorial(t)
        return self.coeff(T) * fact

    def is_zero(self) -> bool:
        """Whether every coefficient vanishes."""
        return not any(self.coeffs)

    def is_constant(self) -> bool:
        """Whether every coefficient above the value vanishes."""
        return not any(self.coeffs[1:])

    def max_abs(self):
        """Largest absolute coefficient (a Fraction in rational mode)."""
        top = max(abs(c) for c in self.coeffs)
        return top if self.mode == FLOAT else Fraction(top, self.den)

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Jet"):
        if self.space is not other.space or self.mode != other.mode:
            raise ValueError("jet space/mode mismatch")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self + Jet.const(self.space, self.mode, other)
        self._check(other)
        if self.mode == FLOAT:
            return Jet(self.space, FLOAT,
                       array("d", (a + b for a, b in zip(self.coeffs, other.coeffs))))
        a, b, den = _aligned(self, other)
        return _reduced(self.space, [x + y for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self - Jet.const(self.space, self.mode, other)
        self._check(other)
        if self.mode == FLOAT:
            return Jet(self.space, FLOAT,
                       array("d", (a - b for a, b in zip(self.coeffs, other.coeffs))))
        a, b, den = _aligned(self, other)
        return _reduced(self.space, [x - y for x, y in zip(a, b)], den)

    def __neg__(self):
        if self.mode == FLOAT:
            return Jet(self.space, FLOAT, array("d", (-a for a in self.coeffs)))
        return _exact(self.space, [-a for a in self.coeffs], self.den)

    def scale(self, alpha) -> "Jet":
        a = as_scalar(alpha, self.mode)
        if self.mode == FLOAT:
            return Jet(self.space, FLOAT, array("d", (a * c for c in self.coeffs)))
        p = a.numerator
        return _reduced(self.space, [p * c for c in self.coeffs], self.den * a.denominator)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        self._check(other)
        sp = self.space
        out = [0] * sp.size
        b = other.coeffs
        for x, row in zip(self.coeffs, sp.mul_rows):
            if x:
                for o, j in row:
                    out[o] += x * b[j]
        if self.mode == FLOAT:
            return Jet(sp, FLOAT, array("d", out))
        return _reduced(sp, out, self.den * other.den)

    __rmul__ = __mul__

    def power(self, k: int) -> "Jet":
        if k < 0:
            return self.reciprocal().power(-k)
        if k == 0:
            return Jet.const(self.space, self.mode, 1)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def reciprocal(self) -> "Jet":
        u0 = self.value
        if u0 == 0:
            raise EvalDomainError("division by a function vanishing at the base point")
        R = self.space.order
        one = as_scalar(1, self.mode)
        series = []
        inv = one / u0
        acc = inv
        for _ in range(R + 1):
            series.append(acc)
            acc = -acc * inv
        return self.compose_series(series)

    def compose_series(self, series) -> "Jet":
        """Evaluate sum_j series[j] * (self - self.value)^j, truncated.

        ``series`` must hold at least order+1 univariate Taylor
        coefficients of the outer function at self.value.
        """
        sp, mode = self.space, self.mode
        du = self - Jet.const(sp, mode, self.value)
        # a Horner step adds series[j] to a product whose coefficients start
        # at +0, so a -0 value reads +0 at every order above 0; ``0 +`` makes
        # order 0 agree, and a truncation equals the lower-order jet
        acc = Jet.const(sp, mode, 0 + series[sp.order])
        for j in range(sp.order - 1, -1, -1):
            acc = acc * du + Jet.const(sp, mode, series[j])
        return acc

    def derivative(self, i: int) -> "Jet":
        """Jet of d(self)/dx_i, one order lower."""
        sp = self.space
        if sp.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        lower = sp.lower
        out = _zero_coeffs(lower, self.mode)
        for dst, src, mult in sp.diff_tables[i]:
            out[dst] = self.coeffs[src] * mult
        if self.mode == FLOAT:
            return Jet(lower, FLOAT, out)
        return _reduced(lower, out, self.den)

    def truncate(self, order: int) -> "Jet":
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise ValueError("cannot raise jet order by truncation")
        sp = JetSpace(self.space.n, order)
        if self.mode == FLOAT:
            return Jet(sp, FLOAT, self.coeffs[: sp.size])
        return _reduced(sp, self.coeffs[: sp.size], self.den)

    def __repr__(self):
        return f"Jet(order={self.space.order}, value={self.value!r})"


# ---------------------------------------------------------------------------
# Elementary function composition tables.

def _series_exp(u0, R, mode):
    e = math.exp(u0)
    out, f = [], 1.0
    for j in range(R + 1):
        out.append(e / f)
        f *= j + 1
    return out


def _series_log(u0, R, mode):
    if u0 <= 0:
        raise EvalDomainError("log of non-positive base value")
    out = [math.log(u0)]
    for j in range(1, R + 1):
        out.append((-1) ** (j - 1) / (j * u0 ** j))
    return out


def _series_sqrt(u0, R, mode):
    if u0 <= 0:
        raise EvalDomainError("sqrt of non-positive base value")
    out = [math.sqrt(u0)]
    c = out[0]
    for j in range(1, R + 1):
        c = c * (Fraction(1, 2) - (j - 1)) / (j * u0)
        out.append(float(c))
    return out


def _series_trig(fn0, fn1, sign):
    # derivative cycle (f, f', -f, -f') for sin/cos; no sign for sinh/cosh
    def gen(u0, R, mode):
        cycle = [fn0(u0), fn1(u0), sign * fn0(u0), sign * fn1(u0)]
        out, f = [], 1.0
        for j in range(R + 1):
            out.append(cycle[j % 4] / f)
            f *= j + 1
        return out

    return gen


_SERIES = {
    "exp": _series_exp,
    "log": _series_log,
    "sqrt": _series_sqrt,
    "sin": _series_trig(math.sin, math.cos, -1),
    "cos": _series_trig(math.cos, lambda u: -math.sin(u), -1),
    "sinh": _series_trig(math.sinh, math.cosh, +1),
    "cosh": _series_trig(math.cosh, math.sinh, +1),
}

ELEMENTARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")


def apply_elementary(name: str, u: Jet) -> Jet:
    """Compose an elementary function with a jet (float mode only)."""
    if u.mode != FLOAT:
        raise ExactModeError(
            f"elementary function {name!r} is not exactly representable in rational mode")
    if name == "tan":
        c = apply_elementary("cos", u)
        if c.value == 0:
            raise EvalDomainError("tan at a pole")
        return apply_elementary("sin", u) * c.reciprocal()
    series = _SERIES[name](u.value, u.space.order, u.mode)
    return u.compose_series(series)
