"""Exact sparse matrices and rank computation over the engine's scalar fields.

Ranks are computed by left-looking sparse elimination.  Rational matrices are
reduced column by column with integer cross-multiplication and gcd
normalization (fraction-free, no rounding); matrices over other exact fields
(rational functions in t) use field division.  Pivots are chosen to keep
columns sparse and entries small, and the result is deterministic for a fixed
column order.

``rank_mod_p`` is an independent dense elimination over a prime field, kept
separate on purpose: it serves as a probabilistic cross-check of the exact
path, never as a substitute for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import RatFunc


class SparseMatrix:
    """Immutable sparse matrix; entries indexed by (row, col), all nonzero."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries):
        clean = {}
        for (r, c), v in dict(entries).items():
            if not 0 <= r < nrows or not 0 <= c < ncols:
                raise IndexError(f"entry ({r}, {c}) outside {nrows}x{ncols}")
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *a):
        raise AttributeError("SparseMatrix is immutable")

    @staticmethod
    def from_triplets(nrows: int, ncols: int, triplets) -> "SparseMatrix":
        entries = {}
        for r, c, v in triplets:
            if (r, c) in entries:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            entries[(r, c)] = v
        return SparseMatrix(nrows, ncols, entries)

    @staticmethod
    def from_columns(nrows: int, columns) -> "SparseMatrix":
        entries = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                entries[(r, c)] = v
        return SparseMatrix(nrows, len(columns), entries)

    def triplets(self):
        return sorted((r, c, v) for (r, c), v in self.entries.items())

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """Matrix product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in composition")
        rows_of_self = {}
        for (r, c), v in self.entries.items():
            rows_of_self.setdefault(c, []).append((r, v))
        entries = {}
        for (k, c), w in other.entries.items():
            for r, v in rows_of_self.get(k, ()):
                key = (r, c)
                s = entries.get(key)
                s = v * w if s is None else s + v * w
                if s:
                    entries[key] = s
                else:
                    entries.pop(key, None)
        return SparseMatrix(self.nrows, other.ncols, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if isinstance(other, SparseMatrix):
            return (self.nrows, self.ncols, self.entries) == \
                   (other.nrows, other.ncols, other.entries)
        return NotImplemented

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def primitive_column(col: dict) -> dict:
    """Divide an integer column by the gcd of its entries (rank-preserving)."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


def integerize_column(col: dict) -> dict:
    """Scale a rational column to coprime integers (rank-preserving)."""
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


class IntRankAccumulator:
    """Incremental exact rank over Q for integer-valued sparse columns."""

    def __init__(self):
        self.pivcol = {}    # pivot row -> reduced column (dict row -> int)
        self.pivval = {}    # pivot row -> value at the pivot row
        self.birth = {}     # pivot row -> insertion counter
        self.row_use = {}   # row -> number of stored pivot columns touching it
        self.rank = 0

    def add_column(self, col: dict) -> bool:
        """Reduce col against current pivots; returns True if rank grew."""
        col = {r: v for r, v in col.items() if v}
        pivcol, pivval, birth = self.pivcol, self.pivval, self.birth
        while col:
            hit = None
            for r in col:
                b = birth.get(r)
                if b is not None and (hit is None or b < hit[0]):
                    hit = (b, r)
            if hit is None:
                break
            r = hit[1]
            pcol, pval = pivcol[r], pivval[r]
            cval = col[r]
            if pval < 0:
                pval, pcol = -pval, {s: -w for s, w in pcol.items()}
            new = {s: v * pval for s, v in col.items()}
            for s, w in pcol.items():
                u = new.get(s, 0) - cval * w
                if u:
                    new[s] = u
                else:
                    new.pop(s, None)
            col = primitive_column(new)
        if not col:
            return False
        row = self._pick_pivot_row(col)
        self.pivcol[row] = col
        self.pivval[row] = col[row]
        self.birth[row] = self.rank
        for s in col:
            self.row_use[s] = self.row_use.get(s, 0) + 1
        self.rank += 1
        return True

    def _pick_pivot_row(self, col: dict):
        use = self.row_use
        best, best_key = None, None
        for r, v in col.items():
            key = (0 if v in (1, -1) else abs(v).bit_length(), use.get(r, 0), r)
            if best_key is None or key < best_key:
                best, best_key = r, key
        return best


class FieldRankAccumulator:
    """Incremental exact rank for columns over an arbitrary exact field."""

    def __init__(self):
        self.pivcol = {}
        self.birth = {}
        self.row_use = {}
        self.rank = 0

    def add_column(self, col: dict) -> bool:
        col = {r: v for r, v in col.items() if v}
        pivcol, birth = self.pivcol, self.birth
        while col:
            hit = None
            for r in col:
                b = birth.get(r)
                if b is not None and (hit is None or b < hit[0]):
                    hit = (b, r)
            if hit is None:
                break
            r = hit[1]
            pcol = pivcol[r]
            factor = col[r] / pcol[r]
            new = dict(col)
            for s, w in pcol.items():
                u = new.get(s)
                u = -factor * w if u is None else u - factor * w
                if u:
                    new[s] = u
                else:
                    new.pop(s, None)
            col = new
        if not col:
            return False
        row = self._pick_pivot_row(col)
        self.pivcol[row] = col
        self.birth[row] = self.rank
        for s in col:
            self.row_use[s] = self.row_use.get(s, 0) + 1
        self.rank += 1
        return True

    def _pick_pivot_row(self, col: dict):
        use = self.row_use
        best, best_key = None, None
        for r, v in col.items():
            if isinstance(v, RatFunc):
                size = len(v.num) + len(v.den)
            else:
                size = 0
            key = (size, use.get(r, 0), r)
            if best_key is None or key < best_key:
                best, best_key = r, key
        return best


def _is_rational_valued(columns) -> bool:
    for col in columns:
        for v in col.values():
            return isinstance(v, (int, Fraction))
    return True


def rank_of_columns(columns) -> int:
    """Exact rank of a matrix given as a list of sparse columns."""
    columns = list(columns)
    if _is_rational_valued(columns):
        acc = IntRankAccumulator()
        for col in columns:
            acc.add_column(integerize_column(col))
    else:
        acc = FieldRankAccumulator()
        for col in columns:
            acc.add_column(dict(col))
    return acc.rank


def exact_rank(m: SparseMatrix) -> int:
    """Rank over the exact base field, deterministic."""
    return rank_of_columns(m.columns())


def rank_mod_p(m: SparseMatrix, p: int) -> int:
    """Rank over GF(p) by dense row elimination (independent of exact_rank).

    Entries must be rational with denominators invertible mod p.
    """
    rows = [[0] * m.ncols for _ in range(m.nrows)]
    for (r, c), v in m.entries.items():
        if isinstance(v, Fraction):
            den = v.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by p={p}")
            rows[r][c] = (v.numerator * pow(den, -1, p)) % p
        else:
            rows[r][c] = v % p
    rank = 0
    for c in range(m.ncols):
        piv = None
        for i in range(rank, m.nrows):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(m.nrows):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m.nrows:
            break
    return rank
