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

D has one definition, ``DifferentialForm.twisted_differential``;
``twisted_column`` is its monomial case, the reference for the engine's
column builder.  ``ColumnStencil`` is that builder: built once per F, it
yields integer columns tagged with the degree each entry rises by.
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
from operator import add

from .exceptions import NonHomogeneousError, VariableCountMismatch
from .poly import Polynomial, add_term, mono_degree, mono_mul, monomial_basis


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

    def form_degree(self, nu, I) -> int:
        w = self.weights
        if w is None:
            return sum(nu) + len(I)
        return mono_degree(nu, w) + sum(w[k] for k in I)


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


def merge_index_sets(I: tuple, J: tuple):
    """Sign and sorted union for dx_I ^ dx_J; (None, None) on collision."""
    if set(I) & set(J):
        return None, None
    inv = 0
    for b in J:
        for a in I:
            if a > b:
                inv += 1
    return (-1 if inv & 1 else 1), tuple(sorted(I + J))


class DifferentialForm:
    """Immutable polynomial differential form of a fixed exterior degree."""

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field, nvars: int, degree: int, terms=None):
        if not 0 <= degree <= nvars:
            raise ValueError(f"form degree {degree} outside 0..{nvars}")
        clean = {}
        for (nu, I), c in (terms or {}).items():
            nu, I = tuple(nu), tuple(I)
            if len(nu) != nvars or any(e < 0 for e in nu):
                raise ValueError(f"bad exponent tuple {nu}")
            if len(I) != degree or list(I) != sorted(set(I)) \
                    or (I and not 0 <= I[0] <= I[-1] < nvars):
                raise ValueError(f"bad index set {I} for degree {degree}")
            add_term(clean, (nu, I), field.coerce(c))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, field, nvars: int, degree: int, terms: dict) -> "DifferentialForm":
        """A form on a term map built here, already without zeros."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("DifferentialForm is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(field, nvars: int, degree: int) -> "DifferentialForm":
        return DifferentialForm(field, nvars, degree, {})

    @staticmethod
    def monomial_form(field, nvars, nu, I, c=1) -> "DifferentialForm":
        return DifferentialForm(field, nvars, len(tuple(I)), {(tuple(nu), tuple(I)): c})

    @staticmethod
    def from_polynomial(p: Polynomial) -> "DifferentialForm":
        return DifferentialForm(p.field, p.nvars, 0,
                                {(nu, ()): c for nu, c in p.terms.items()})

    # ---- linear structure ----------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise VariableCountMismatch("forms over different variable counts")
        if self.field is not other.field:
            raise TypeError("forms over different base fields")

    def __add__(self, other: "DifferentialForm"):
        self._check(other)
        if self.degree != other.degree:
            if not self.terms:
                return other
            if not other.terms:
                return self
            raise ValueError("cannot add forms of different degrees")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_term(terms, key, c)
        return DifferentialForm._of(self.field, self.nvars, self.degree, terms)

    def __neg__(self):
        return DifferentialForm._of(self.field, self.nvars, self.degree,
                                    {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DifferentialForm":
        c = self.field.coerce(c)
        if not c:
            return DifferentialForm.zero(self.field, self.nvars, self.degree)
        return DifferentialForm._of(self.field, self.nvars, self.degree,
                                    {k: v * c for k, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, DifferentialForm):
            if not self.terms and not other.terms:
                return self.nvars == other.nvars
            return (self.nvars, self.degree, self.terms) == \
                   (other.nvars, other.degree, other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    # ---- exterior algebra ------------------------------------------------

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.nvars:
            # some dx index must repeat, so the product vanishes identically
            return DifferentialForm.zero(self.field, self.nvars, self.nvars)
        out = {}
        for (nu1, I1), c1 in self.terms.items():
            for (nu2, I2), c2 in other.terms.items():
                sign, K = merge_index_sets(I1, I2)
                if sign is None:
                    continue
                add_term(out, (mono_mul(nu1, nu2), K),
                         c1 * c2 if sign > 0 else -(c1 * c2))
        return DifferentialForm._of(self.field, self.nvars, deg, out)

    def exterior_derivative(self) -> "DifferentialForm":
        if self.degree == self.nvars:
            return DifferentialForm.zero(self.field, self.nvars, self.nvars)
        out = {}
        for (nu, I), c in self.terms.items():
            for k in range(self.nvars):
                e = nu[k]
                if not e or k in I:
                    continue
                sign, K = insert_sign(k, I)
                add_term(out, (nu[:k] + (e - 1,) + nu[k + 1:], K),
                         c * e if sign > 0 else -(c * e))
        return DifferentialForm._of(self.field, self.nvars, self.degree + 1, out)

    def twisted_differential(self, f: Polynomial) -> "DifferentialForm":
        """D(omega) = d(omega) + dF ^ omega."""
        if f.nvars != self.nvars:
            raise VariableCountMismatch("twist polynomial over wrong variable count")
        return self.exterior_derivative() + gradient_form(f).wedge(self)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (nu, I), c in sorted(self.terms.items()):
            base = str(Polynomial.monomial(self.field, self.nvars, nu, c))
            dx = "^".join(f"dx{k}" for k in I)
            parts.append(f"{base}*{dx}" if dx else base)
        return " + ".join(parts)

    def __repr__(self):
        return f"DifferentialForm({self})"


def gradient_form(f: Polynomial) -> DifferentialForm:
    """The 1-form dF = sum_k (dF/dx_k) dx_k."""
    terms = {}
    for nu, c in f.terms.items():
        for k, e in enumerate(nu):
            if e:
                add_term(terms, (nu[:k] + (e - 1,) + nu[k + 1:], (k,)), c * e)
    return DifferentialForm._of(f.field, f.nvars, 1, terms)


def twisted_column(f: Polynomial, nu: tuple, I: tuple) -> dict:
    """Column of d + dF^ on the monomial form x^nu dx_I, untruncated: the
    map (nu', I') -> coefficient of twisted_differential on that form, the
    reference ColumnStencil.column is tested against."""
    one = {(nu, I): f.field.one}
    return DifferentialForm._of(f.field, f.nvars, len(I), one) \
        .twisted_differential(f).terms


class ColumnStencil:
    """Integer columns of d + dF^ on monomial forms, precomputed once per F.

    ``scale`` is the lcm L of F's coefficient denominators.  ``terms`` holds
    (k, mu - e_k, c * mu_k * L, deg_w(mu)) for every term c x^mu of F and
    every k with mu_k > 0, in f.terms order; ``wedge[I][k]`` is the
    (sign, K) of dx_k ^ dx_I, or None when k lies in I.
    """

    __slots__ = ("scale", "terms", "wedge")

    def __init__(self, f: Polynomial, weights=None):
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
        wedge = {}
        for i in range(f.nvars + 1):
            for I in combinations(range(f.nvars), i):
                wedge[I] = tuple(None if k in I else insert_sign(k, I)
                                 for k in range(f.nvars))
        self.scale = scale
        self.terms = tuple(terms)
        self.wedge = wedge

    def column(self, nu: tuple, I: tuple) -> list:
        """Entries (target key, rise, value) of L * D(x^nu dx_I).

        The order is twisted_column's: the d part by k (rise 0), then the
        dF part in F's term order (rise deg_w(mu)).  No two entries share a
        key: entries with the same k share K, and their exponents differ by
        a monomial of F (d part against dF part) or by two distinct ones, so
        nothing cancels and every value is a nonzero integer.
        """
        wedge = self.wedge[I]
        scale = self.scale
        out = []
        for k, e in enumerate(nu):
            w = wedge[k]
            if e and w is not None:
                out.append(((nu[:k] + (e - 1,) + nu[k + 1:], w[1]), 0,
                            w[0] * e * scale))
        out += self.dF_part(nu, I)
        return out

    def dF_part(self, nu: tuple, I: tuple) -> list:
        """Entries (target key, rise, value) of L * dF ^ x^nu dx_I, the
        dF part of column(nu, I), in F's term order."""
        wedge = self.wedge[I]
        return [((tuple(map(add, nu, shift)), w[1]), rise, w[0] * c)
                for k, shift, c, rise in self.terms
                if (w := wedge[k]) is not None]


class ExponentClasses:
    """Classes of monomial forms in Z^nvars / L, and their orbits under symmetries.

    The form x^nu dx_I has exponent vector nu + e_I, and L is the lattice
    spanned by the exponents of F.  Every entry of D(x^nu dx_I) has the
    vector nu + e_I (the d part) or nu + e_I + mu for a term x^mu of F,
    so D keeps the class.  ``echelon`` is an integer echelon basis of L,
    one (pivot column, pivot value > 0, nonzero (column, value) entries)
    per row with pivot columns increasing; ``key`` reduces each pivot
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

    def key(self, nu: tuple, I: tuple) -> tuple:
        """The key of the class of x^nu dx_I."""
        v = list(nu)
        for k in I:
            v[k] += 1
        return self.reduce(v)

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


def strand_basis(spec: StrandSpec, i: int, bound: int) -> list:
    """Ordered basis of the strand in form degree i, total degree <= bound.

    Order: ascending total degree, then index sets in lexicographic order,
    then coefficient monomials in descending lex (the global graded-lex).
    """
    if not 0 <= i <= spec.nvars:
        raise ValueError(f"form degree {i} outside 0..{spec.nvars}")
    out = []
    for e in range(spec.residue, bound + 1, spec.modulus):
        out.extend(strand_basis_at_degree(spec, i, e))
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
