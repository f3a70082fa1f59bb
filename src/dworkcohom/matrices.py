"""Exact ranks of sparse column maps over the engine's scalar fields.

Ranks are computed by one left-looking sparse elimination loop with two
steps.  The loop reduces each incoming column against the oldest stored pivot
it touches and stores a nonzero remainder under the least-used pivot row,
smallest entry next (Markowitz first), so columns stay sparse; the result
is deterministic for a fixed column order.  A caller that gives each row a
degree gets rows of greatest degree first, so that the rank above any degree
is a count of pivots (``_RankAccumulator``).  The step is what differs,
and both are fraction-free (Bareiss, Math. Comp. 22, 1968, carried from Z
to Z[t]): ``IntRankAccumulator`` clears an entry of an integer column by
cross-multiplication with the two entries divided by their gcd, then
divides the column by the gcd of its entries; ``FieldRankAccumulator`` does
the same over Z[t], for columns over the rational functions in t, with
entries IntPoly tuples and gcds in Z[t] (content times poly_gcd).  Neither
runs Fraction or RatFunc arithmetic inside an elimination:
``integerize_column`` lifts a column over QQ to Z, or over QQ(t) to Z[t],
once, by clearing the lcm of its denominators and dividing by its content.

The two steps update the column they are given in place, and inline
rather than through poly.add_term, the engine's one cancelling update:
they are the inner loop of every elimination (about a quarter of the
window-sparse pass), and a copy, or a call per entry, would show.  So a
step consumes its column, and every caller passes one it owns
(``add_column`` copies its column on entry).

``rank_mod_p`` takes the same columns and ranks them by an independent
dense elimination over a prime field, kept separate on purpose: it serves
as a probabilistic cross-check of the exact path, never as a substitute
for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import (QQ_T, RatFunc, poly_div_exact, poly_gcd, poly_mul, poly_neg,
                     poly_primitive, poly_sub, poly_zgcd)


def primitive_column(col: dict) -> dict:
    """Divide an integer column by the gcd of its entries, in place
    (rank-preserving); returns col."""
    g = gcd(*col.values())
    if g > 1:
        for r, v in col.items():
            col[r] = v // g
    return col


def integerize_column(col: dict) -> dict:
    """Scale a column over QQ to coprime integers, or a column over QQ(t)
    to a primitive one over Z[t] (rank-preserving); the first value tells
    which."""
    for v in col.values():
        if isinstance(v, RatFunc):
            return _integerize_ratfunc_column(col)
        break
    lcm = 1
    for v in col.values():
        d = v.denominator if isinstance(v, Fraction) else 1
        lcm = lcm // gcd(lcm, d) * d
    out = {}
    for r, v in col.items():
        if isinstance(v, Fraction):
            w = v.numerator * (lcm // v.denominator)
        else:
            w = v * lcm
        if w:
            out[r] = w
    return primitive_column(out)


def _integerize_ratfunc_column(col: dict) -> dict:
    """Clear the lcm of the denominators, then divide by the content over
    Z[t]: entries become IntPoly tuples."""
    col = {r: QQ_T.coerce(v) for r, v in col.items() if v}
    lcm = (1,)
    for v in col.values():
        if v.den != (1,) and v.den != lcm:
            lcm = poly_mul(lcm, _div(v.den, poly_zgcd(lcm, v.den)))
    return primitive_poly_column(
        {r: v.num if v.den == lcm else poly_mul(v.num, _div(lcm, v.den))
         for r, v in col.items()})


def _div(a, g):
    """a / g for g dividing a in Z[t]."""
    if len(g) == 1:
        c = g[0]
        return a if c == 1 else tuple(x // c for x in a)
    return poly_div_exact(a, g)


def primitive_poly_column(col: dict) -> dict:
    """Divide a column over Z[t] by the gcd of its entries (rank-preserving).

    The integer content is folded first; an entry of degree 0 leaves no
    polynomial factor, and only a column without one folds poly_gcd.
    """
    c, const = 0, False
    for v in col.values():
        c = gcd(c, *v)
        const = const or len(v) == 1
        if const and c == 1:
            return col
    if not col:
        return col
    prim = (1,)
    if not const:
        values = iter(col.values())
        prim = poly_primitive(next(values))
        for v in values:
            if len(prim) == 1:
                break
            prim = poly_gcd(prim, v)
    g = tuple(c * x for x in prim)
    return col if g == (1,) else {r: _div(v, g) for r, v in col.items()}


class _RankAccumulator:
    """Incremental exact rank by left-looking sparse elimination.

    An incoming column is reduced against the oldest stored pivot among its
    rows until no pivot row remains; a nonzero remainder is stored under the
    pivot row of least (row use, entry size, row), the Markowitz choice of
    structured Gaussian elimination (LaMacchia and Odlyzko 1990).  A rank
    does not depend on which row a column is stored under.  Subclasses give
    the elimination step and the entry size.

    ``degree``, when given, maps every row to a degree, and the key becomes
    (-degree, row use, entry size, row): each column is stored under a row
    of greatest degree among its entries.  Then, for every N, the number of
    stored pivots of degree > N is the rank of the columns fed so far on
    their rows of degree > N (the linalg docstring, "Band counts").
    """

    def __init__(self, degree=None):
        self.pivcol = {}    # pivot row -> reduced column (dict row -> value)
        self.birth = {}     # pivot row -> insertion counter
        self.row_use = {}   # row -> number of stored pivot columns touching it
        self.degree = degree    # row -> degree, or None
        self.rank = 0

    def add_column(self, col: dict) -> bool:
        """Reduce col against current pivots; returns True if rank grew."""
        col = {r: v for r, v in col.items() if v}
        pivcol, birth, step = self.pivcol, self.birth, self._step
        while col:
            hit = None
            for r in col:
                b = birth.get(r)
                if b is not None and (hit is None or b < hit[0]):
                    hit = (b, r)
            if hit is None:
                break
            col = step(col, pivcol[hit[1]], hit[1])
        if not col:
            return False
        row = self._pivot_row(col)
        pivcol[row] = col
        birth[row] = self.rank
        use = self.row_use
        for s in col:
            use[s] = use.get(s, 0) + 1
        self.rank += 1
        return True

    def _pivot_row(self, col: dict):
        """The row to store col under: least (-degree, row use, entry size,
        row), or least (row use, entry size, row) with no degrees."""
        size, use, degree = self._size, self.row_use, self.degree
        if degree is None:
            return min((use.get(r, 0), size(v), r) for r, v in col.items())[2]
        return min((-degree[r], use.get(r, 0), size(v), r)
                   for r, v in col.items())[3]


class IntRankAccumulator(_RankAccumulator):
    """Rank over Q of integer columns, by fraction-free elimination."""

    @staticmethod
    def _step(col, pcol, r):
        """Clear row r of col with pivot column pcol, in place; the result,
        col, is primitive.

        The two entries are divided by g = gcd(pcol[r], col[r]) before the
        cross-multiplication, with the sign put on g that makes the pivot's
        multiplier positive.  That divides the cross-multiplied column by
        |g| and keeps its rows in order, so its primitive part, the result,
        is the same; a multiplier of 1 leaves col unscaled.
        """
        # inline cancelling update, not poly.add_term: the inner loop
        pval, cval = pcol[r], col[r]
        g = gcd(pval, cval)
        if pval < 0:
            g = -g
        pval, cval = pval // g, cval // g
        if pval != 1:
            for s, v in col.items():
                col[s] = v * pval
        for s, w in pcol.items():
            u = col.get(s, 0) - cval * w
            if u:
                col[s] = u
            else:
                col.pop(s, None)
        return primitive_column(col)

    _size = staticmethod(int.bit_length)    # of |v|; +-1 is the smallest


class FieldRankAccumulator(_RankAccumulator):
    """Rank over QQ(t) of columns over Z[t], by fraction-free elimination:
    the Z[t] twin of IntRankAccumulator, entries IntPoly tuples
    (integerize_column lifts a QQ(t) column)."""

    @staticmethod
    def _step(col, pcol, r):
        """Clear row r of col with pivot column pcol, in place; the result
        is col, or its quotient when that is not primitive over Z[t].

        The two entries are divided by their gcd g in Z[t] before the
        cross-multiplication, with the sign put on g that gives the pivot's
        multiplier a positive leading coefficient.  The result is col times
        that multiplier less pcol times col's quotient, divided by the gcd
        of its entries; a multiplier of 1 leaves col unscaled.
        """
        # inline cancelling update, not poly.add_term: the inner loop
        pval, cval = pcol[r], col[r]
        g = poly_zgcd(pval, cval)
        if pval[-1] < 0:
            g = poly_neg(g)
        pval, cval = _div(pval, g), _div(cval, g)
        if pval != (1,):
            for s, v in col.items():
                col[s] = poly_mul(pval, v)
        for s, w in pcol.items():
            u = poly_sub(col.get(s, ()), poly_mul(cval, w))
            if u:
                col[s] = u
            else:
                col.pop(s, None)
        return primitive_poly_column(col)

    _size = staticmethod(len)    # degree + 1; a constant is the smallest


def _is_rational_valued(columns) -> bool:
    for col in columns:
        for v in col.values():
            return isinstance(v, (int, Fraction))
    return True


def rank_of_columns(columns) -> int:
    """Exact rank of a matrix given as a list of sparse columns."""
    columns = list(columns)
    acc = (IntRankAccumulator() if _is_rational_valued(columns)
           else FieldRankAccumulator())
    for col in columns:
        acc.add_column(integerize_column(col))
    return acc.rank


def rank_mod_p(columns, p: int) -> int:
    """Rank over GF(p) of a matrix given as a list of sparse columns, by
    dense row elimination (independent of rank_of_columns).  Its rows are
    the keys its columns touch.

    Entries must be rational with denominators invertible mod p.
    """
    columns = list(columns)
    index = {}
    for col in columns:
        for r in col:
            index.setdefault(r, len(index))
    nrows, ncols = len(index), len(columns)
    rows = [[0] * ncols for _ in range(nrows)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            if isinstance(v, Fraction):
                den = v.denominator % p
                if den == 0:
                    raise ZeroDivisionError(f"denominator divisible by p={p}")
                v = v.numerator * pow(den, -1, p)
            rows[index[r]][c] = v % p
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
