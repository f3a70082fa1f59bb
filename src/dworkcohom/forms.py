"""Polynomial differential forms and the twisted differential d + dF^.

A form of degree i is a finite sum of terms c * x^nu dx_I with I a strictly
increasing index tuple of length i.  The twisted differential

    D(omega) = d(omega) + dF ^ omega

is nilpotent and, for F (weighted-)homogeneous of degree m, preserves the
congruence strands  |nu| + |I| = j (mod m).  The sign of dx_k ^ dx_I is
(-1)^(number of l in I with l < k); this single convention fixes every other
sign in the engine.

Degree truncation keeps total degree |nu| + |I| <= N.  Since d preserves the
total degree and dF^ raises it, the span of degrees > N is a subcomplex and
the retained part is a quotient complex, on which D o D = 0 holds exactly.

The engine builds D on monomial forms only, and has one builder for it,
``ColumnStencil``: built once per F, it keys each monomial form by one
integer, its index set a bit mask and its exponents fixed-width digits,
and yields integer columns through one entry point, ``column``, as target
keys tagged with the degree each entry rises by: 0 for d, at least 1 for
dF^.  Each target key is the source's key plus a constant of
(k, I), since no digit carries at the width the stencil is sized for.
``twisted_column`` writes the same column directly over F's field, on
(nu, I) tuples, as the reference the stencil is tested against; the tests
check it in turn against D on whole forms (tests/oracles.py).
``ExponentClasses`` names the class of a monomial form modulo the lattice
of F's exponents, which D keeps, and the orbits of those classes under
F's variable symmetries, and groups exponent vectors by the classes that
represent their orbits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .exceptions import NonHomogeneousError, VariableCountMismatch
from .poly import Polynomial, mono_degree, mono_mul, monomial_basis


@dataclass(frozen=True)
class StrandSpec:
    """Congruence strand of the form complex: terms with |nu|+|I| = residue (mod modulus).

    modulus 1 selects the full complex.  Optional positive integer weights
    turn every degree into the weighted degree sum(w_i nu_i) + sum(w_k, k in I).
    """

    nvars: int
    modulus: int = 1
    residue: int = 0
    weights: tuple = None

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in 0..modulus-1")
        if self.weights is not None:
            if len(self.weights) != self.nvars:
                raise VariableCountMismatch("weight list length != variable count")
            if any(w < 1 for w in self.weights):
                raise ValueError("weights must be positive integers")
            object.__setattr__(self, "weights", tuple(self.weights))


def full_complex_spec(nvars: int, weights=None) -> StrandSpec:
    """Spec selecting the whole form complex (single strand, modulus 1)."""
    return StrandSpec(nvars, 1, 0, weights)


def insert_sign(k: int, I: tuple):
    """Sign and index set of dx_k ^ dx_I; (None, None) when k collides.

    I is sorted, so its insertion point for k is also the count of its
    indices below k, which dx_k moves past.
    """
    if k in I:
        return None, None
    pos = bisect_left(I, k)
    return (-1 if pos & 1 else 1), I[:pos] + (k,) + I[pos:]


def twisted_column(f: Polynomial, nu: tuple, I: tuple) -> dict:
    """D(x^nu dx_I), untruncated, as a map (nu', I') -> coefficient in
    f.field: the reference ColumnStencil.column is tested against, in its
    order (the d part by k, then dF ^ x^nu dx_I in F's term order, signs
    from insert_sign).  No two entries share a key (ColumnStencil.column)."""
    one, out = f.field.one, {}
    for k, e in enumerate(nu):
        sign, K = insert_sign(k, I)
        if e and sign:
            out[nu[:k] + (e - 1,) + nu[k + 1:], K] = one * (sign * e)
    for mu, c in f.terms.items():
        for k, e in enumerate(mu):
            sign, K = insert_sign(k, I)
            if e and sign:
                out[mono_mul(nu, mu[:k] + (e - 1,) + mu[k + 1:]), K] = \
                    c * (sign * e)
    return out


class ColumnStencil:
    """Integer columns of d + dF^ on monomial forms, keyed by packed integers.

    The form x^nu dx_I of n variables has the key

        key(nu, I) = sum_k nu_k << (n + k*b)  +  sum_(k in I) 1 << k:

    I is a bit mask in the low n bits, and each exponent a b-bit digit
    above them (the packed exponent vectors of Monagan and Pearce, CASC
    2007).  ``bits`` is b, sized for sources of degree <= ``degree``: each
    exponent of a form is at most its total degree (weights are >= 1),
    and a target of D has the source's degree plus its rise, so b holds
    degree + the largest rise.  Keys of forms whose exponents fit in b
    bits are distinct, and ``unpack`` inverts ``pack`` on them.

    Every target of D(x^nu dx_I) is the source's key plus a constant that
    depends only on k and I.  dx_k ^ dx_I, for k not in I, sets bit k,
    which is clear in the mask of I; the d part lowers the digit nu_k > 0
    by one, and a dF term c x^mu adds the digits of mu - e_k.  No digit
    borrows, since nu_k > 0, and none carries into the next, since every
    target exponent fits in b bits; so the sum is the target's key.

    ``scale`` is the lcm L of F's coefficient denominators.  ``terms``
    holds (k, mu - e_k, c * mu_k * L, deg_w(mu)) for every term c x^mu of F
    and every k with mu_k > 0, in f.terms order, and ``rise`` is the
    largest deg_w(mu) among them (0 without one).  ``tables`` maps the
    mask of I to its two tables, each built when a column first asks:
    (digit shift, constant, sign * L) of the d part for each k not in I,
    in k order, and (constant, rise, sign * c * mu_k * L) of the dF part
    for each term whose k is not in I, in terms order, the signs those of
    dx_k ^ dx_I (insert_sign).
    """

    __slots__ = ("nvars", "bits", "scale", "terms", "rise", "tables",
                 "_low", "_digit")

    def __init__(self, f: Polynomial, weights, degree: int):
        coeffs = [Fraction(c) for c in f.terms.values()]
        scale = lcm(*(c.denominator for c in coeffs))
        terms = []
        for mu, c in zip(f.terms, coeffs):
            c = c.numerator * (scale // c.denominator)
            rise = mono_degree(mu, weights)
            for k, ek in enumerate(mu):
                if ek:
                    shift = mu[:k] + (ek - 1,) + mu[k + 1:]
                    terms.append((k, shift, c * ek, rise))
        self.nvars = f.nvars
        self.scale = scale
        self.terms = tuple(terms)
        self.rise = max((t[3] for t in terms), default=0)
        self.bits = max(degree + self.rise, 1).bit_length()
        self.tables = {}
        self._low = (1 << f.nvars) - 1
        self._digit = (1 << self.bits) - 1

    def pack(self, nu: tuple, I: tuple = ()) -> int:
        """The key of x^nu dx_I."""
        n, b = self.nvars, self.bits
        key = sum(1 << k for k in I)
        for k, e in enumerate(nu):
            key += e << (n + k * b)
        return key

    def unpack(self, key: int) -> tuple:
        """(nu, I) of a key that pack gave."""
        n, b, digit = self.nvars, self.bits, self._digit
        return (tuple(key >> (n + k * b) & digit for k in range(n)),
                tuple(k for k in range(n) if key >> k & 1))

    def _tables(self, mask: int) -> tuple:
        """Build and keep the d-part and dF-part tables of the index set
        with this mask."""
        n, b, scale = self.nvars, self.bits, self.scale
        I = tuple(k for k in range(n) if mask >> k & 1)
        wedge = [insert_sign(k, I)[0] for k in range(n)]
        d_part = tuple((n + k * b, (1 << k) - (1 << (n + k * b)), s * scale)
                       for k, s in enumerate(wedge) if s)
        dF_part = tuple(((1 << k) + self.pack(shift), rise, wedge[k] * c)
                        for k, shift, c, rise in self.terms if wedge[k])
        tables = self.tables[mask] = (d_part, dF_part)
        return tables

    def column(self, key: int) -> list:
        """Entries (target key, rise, value) of L * D(x^nu dx_I), for the
        key of x^nu dx_I.

        The order is twisted_column's: the d part by k (rise 0), then the
        dF part in F's term order (rise deg_w(mu) >= 1, as mu_k > 0), so
        the entries of rise > 0 are exactly L * dF ^ x^nu dx_I.  No two
        entries share a key: entries with the same k share I + {k}, and
        their exponents differ by a monomial of F (d part against dF part)
        or by two distinct ones, so nothing cancels and every value is a
        nonzero integer.
        """
        mask, digit = key & self._low, self._digit
        d_part, dF_part = self.tables.get(mask) or self._tables(mask)
        out = [(key + delta, 0, v * e) for shift, delta, v in d_part
               if (e := key >> shift & digit)]
        out += [(key + delta, rise, v) for delta, rise, v in dF_part]
        return out


class ExponentClasses:
    """Classes of monomial forms in Z^nvars / L, and their orbits under symmetries.

    The form x^nu dx_I has exponent vector nu + e_I, and L is the lattice
    spanned by the exponents of F.  Every entry of D(x^nu dx_I) has the
    vector nu + e_I (the d part) or nu + e_I + mu for a term x^mu of F,
    so D keeps the class.  ``echelon`` is an integer echelon basis of L,
    one (pivot column, pivot value > 0, nonzero (column, value) entries)
    per row with pivot columns increasing; ``reduce`` reduces each pivot
    coordinate into 0..pivot-1 in that order, which gives one key per
    class.

    ``gens`` are symmetries of F as poly.variable_symmetries gives them:
    T_k, for each k, holds one element that fixes 0..k-1 and sends k to j
    for each j that k can reach.  They permute the classes, and every
    element of their group is a product t_0 t_1 .. t_(n-1), each t_k in
    T_k or the identity (Sims), so ``orbit`` applies the T_k (``levels``,
    as inverse permutations), from the last k to the first, once each to
    the classes reached so far.  The class of smallest key represents its
    orbit.  ``representatives`` groups exponent vectors by class and keeps
    those classes.  ``sizes`` holds the orbit size of each key met, 0 for
    a class that does not represent its orbit; it is filled one orbit at
    a time and lives as long as the instance, so each orbit is walked once.
    """

    __slots__ = ("echelon", "levels", "sizes")

    def __init__(self, f: Polynomial, gens=()):
        rows = [list(mu) for mu in f.terms if any(mu)]
        echelon = []
        for c in range(f.nvars):
            hit = [r for r in rows if r[c]]
            rows = [r for r in rows if not r[c]]
            if not hit:
                continue
            piv = hit[0]
            for r in hit[1:]:
                while r[c]:     # Euclid on column c, applied to whole rows
                    q = piv[c] // r[c]
                    piv, r = r, [a - q * b for a, b in zip(piv, r)]
                if any(r):
                    rows.append(r)
            if piv[c] < 0:
                piv = [-a for a in piv]
            echelon.append((c, piv[c], tuple((k, a) for k, a in enumerate(piv)
                                             if a)))
        self.echelon = tuple(echelon)
        levels = {}
        for s in gens:
            first = next(k for k, j in enumerate(s) if j != k)
            levels.setdefault(first, []).append(
                tuple(sorted(range(len(s)), key=s.__getitem__)))
        self.levels = tuple(levels[k] for k in sorted(levels, reverse=True))
        self.sizes = {}

    def reduce(self, v) -> tuple:
        """The key of the class of the integer vector v."""
        v = list(v)
        for c, a, row in self.echelon:
            q = v[c] // a
            if q:
                for k, b in row:
                    v[k] -= q * b
        return tuple(v)

    def orbit(self, key: tuple) -> set:
        """The keys of the classes that the symmetries reach from key: the
        set T_0 (T_1 (.. (T_(n-1) {key}))), each T_k with the identity."""
        seen = {key}
        for level in self.levels:
            seen.update([self.reduce([v[t] for t in inv])
                         for v in seen for inv in level])
        return seen

    def representatives(self, vectors) -> list:
        """(orbit size, vectors of the class) for each class of the integer
        vectors that represents its orbit.

        Each vector is keyed once.  The classes come in the order of their
        first vector, and each class's vectors in input order.
        """
        groups, reduce = {}, self.reduce
        for v in vectors:
            groups.setdefault(reduce(v), []).append(v)
        sizes, out = self.sizes, []
        for key, group in groups.items():
            w = sizes.get(key)
            if w is None:
                orbit = self.orbit(key)
                sizes.update(dict.fromkeys(orbit, 0))
                sizes[min(orbit)] = len(orbit)
                w = sizes[key]
            if w:
                out.append((w, group))
        return out


def strand_basis_at_degree(spec: StrandSpec, i: int, e: int) -> list:
    """Monomial forms x^nu dx_I with |I| = i and total degree exactly e.

    The coefficient monomials of one remaining degree e - deg(dx_I) are
    enumerated once and shared by every I of that degree.
    """
    if e < 0:
        return []
    out, monomials = [], {}
    w = spec.weights
    for I in combinations(range(spec.nvars), i):
        rem = e - (i if w is None else sum(w[k] for k in I))
        if rem < 0:
            continue
        if rem not in monomials:
            monomials[rem] = monomial_basis(spec.nvars, rem, w)
        out.extend((nu, I) for nu in monomials[rem])
    return out


def validate_twist_input(f: Polynomial, spec: StrandSpec):
    """Check that (F, spec) give a well-defined strand complex."""
    if f.nvars != spec.nvars:
        raise VariableCountMismatch(
            f"F has {f.nvars} variables, spec expects {spec.nvars}")
    if spec.modulus == 1 or not f:
        return
    d = f.homogeneous_degree(spec.weights)
    if d is None:
        raise NonHomogeneousError(
            "strand complexes need a (weighted-)homogeneous twist polynomial")
    if d != spec.modulus:
        raise ValueError(
            f"twist degree {d} does not match strand modulus {spec.modulus}")
