"""Exact base fields: arbitrary-precision rationals and rational functions in t.

Every scalar in the engine lives in one of two exact fields:

* ``QQ`` -- rational numbers, represented by :class:`fractions.Fraction`;
* ``QQ_T`` -- rational functions in one parameter ``t``, represented by
  :class:`RatFunc` (a reduced quotient of integer-coefficient polynomials).

Both representations are canonical: numerator and denominator are coprime,
the denominator is normalized (positive, resp. positive leading coefficient),
so equality is structural and values are usable as dict keys.  No floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Univariate integer polynomial: coefficient tuple, lowest degree first,
# no trailing zeros; () is the zero polynomial.
IntPoly = tuple


def poly_trim(coeffs) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return poly_trim(out)


def poly_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) >= len(b):
        out = list(a)
        for i, x in enumerate(b):
            out[i] -= x
    else:
        out = [-x for x in b]
        for i, x in enumerate(a):
            out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_neg(a: IntPoly) -> IntPoly:
    return tuple(-x for x in a)


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    if len(a) == 1:
        c = a[0]
        return tuple(c * y for y in b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return poly_trim(out)


def poly_content(a: IntPoly) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def poly_primitive(a: IntPoly) -> IntPoly:
    g = poly_content(a)
    if g in (0, 1):
        return a
    return tuple(x // g for x in a)


def poly_pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b (b nonzero), up to powers of lc(b)."""
    db = len(b) - 1
    lcb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - 1 - db
        coef = r[-1]
        r = [c * lcb for c in r]
        for k in range(db + 1):
            r[shift + k] -= coef * b[k]
        r.pop()
    return poly_trim(r)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient: t^min(k, v(y)) when
    one argument is c*t^k, y the other and v(y) its lowest degree with a
    nonzero coefficient, as a divisor of c*t^k is t^j with j <= k, up to a
    unit, and t^j divides y exactly when j <= v(y); else a primitive PRS."""
    for x, y in (a, b), (b, a):
        k = len(x) - 1
        if x.count(0) == k:     # x = c*t^k
            j = next((v for v, c in enumerate(y[:k]) if c), k)
            return (0,) * j + (1,)
    a, b = poly_primitive(a), poly_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, poly_primitive(poly_pseudo_rem(a, b))
    if not a:
        return ()
    if a[-1] < 0:
        a = poly_neg(a)
    return a


def poly_zgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd of nonzero a and b in Z[t]: the gcd of their contents times
    poly_gcd, with a positive leading coefficient."""
    c = gcd(*a, *b)
    if len(a) == 1 or len(b) == 1:
        return (c,)
    g = poly_gcd(a, b)
    return g if c == 1 else tuple(c * x for x in g)


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division of integer polynomials; raises if not exact."""
    if not a:
        return ()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lcb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if c % lcb:
            raise ArithmeticError("inexact polynomial division")
        qi = c // lcb
        q[i] = qi
        if qi:
            for k in range(db + 1):
                r[i + k] -= qi * b[k]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return poly_trim(q)


def poly_eval(a: IntPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_str(a: IntPoly) -> str:
    """Text of a polynomial in t, highest degree first: the one-variable
    case of poly.format_polynomial."""
    from .poly import Polynomial, format_polynomial
    terms = {(k,): c for k, c in enumerate(a) if c}
    return format_polynomial(Polynomial(QQ, 1, terms), ["t"])


class RatFunc:
    """Rational function in t: reduced ratio of integer polynomials.

    Canonical form: numerator and denominator have coprime contents and
    coprime primitive parts, and the denominator has a positive leading
    coefficient.  The zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        if isinstance(num, int):
            num = (num,) if num else ()
        if isinstance(den, int):
            den = (den,) if den else ()
        num, den = poly_trim(num), poly_trim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (1,))
            return
        g = poly_gcd(num, den)
        if g != (1,):
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
        cn, cd = poly_content(num), poly_content(den)
        c = gcd(cn, cd)
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[-1] < 0:
            num, den = poly_neg(num), poly_neg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def from_fraction(q: Fraction) -> "RatFunc":
        q = Fraction(q)
        return RatFunc((q.numerator,) if q.numerator else (), (q.denominator,))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == RatFunc.from_fraction(Fraction(other))
        return NotImplemented

    def __hash__(self):
        if len(self.num) <= 1 and len(self.den) == 1:  # equal to a Fraction
            return hash(Fraction(sum(self.num), self.den[0]))
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RatFunc(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        r = object.__new__(RatFunc)
        object.__setattr__(r, "num", poly_neg(self.num))
        object.__setattr__(r, "den", self.den)
        return r

    def __sub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc((1,)) / self ** (-k)
        out = RatFunc((1,))
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, t0) -> Fraction:
        """Value at t = t0 (exact); raises ZeroDivisionError on a pole.

        With t0 = p/q, q > 0, a polynomial a of degree k has
        a(t0) = q^-k * A, where A = q^k a(p/q) = sum a_i p^i q^(k-i) is an
        integer, computed by Horner's rule in integers.  The value is
        N q^(dd - dn) / D for the degrees dn, dd of numerator and
        denominator: one Fraction, no Fraction arithmetic.
        """
        t0 = Fraction(t0)
        p, q = t0.numerator, t0.denominator

        def homogenized(a):
            acc, qk = a[-1], 1
            for c in reversed(a[:-1]):
                qk *= q
                acc = acc * p + c * qk
            return acc

        d = homogenized(self.den)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t0}")
        if not self.num:
            return Fraction(0)
        shift = len(self.den) - len(self.num)
        n = homogenized(self.num)
        if shift >= 0:
            return Fraction(n * q ** shift, d)
        return Fraction(n, d * q ** -shift)

    def __str__(self):
        if not self.num:
            return "0"
        ns = poly_str(self.num)
        if self.den == (1,):
            return ns
        ds = poly_str(self.den)
        if len(self.num) > 1 or self.num[0] < 0:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self})"


def _coerce_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.from_fraction(Fraction(x))
    return NotImplemented


class RationalField:
    """The field of exact rationals; elements are Fraction."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return self.name


class RationalFunctionField:
    """The field of rational functions in the parameter t; elements are RatFunc."""

    name = "QQ(t)"
    zero = RatFunc(())
    one = RatFunc((1,))
    gen = RatFunc((0, 1))

    def coerce(self, x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.from_fraction(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return self.name


QQ = RationalField()
QQ_T = RationalFunctionField()
