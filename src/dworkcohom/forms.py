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

Columns of D on monomial forms come from two builders.  ``ColumnStencil`` is
the one the engine uses: built once per F, it yields integer columns tagged
with the degree each entry rises by.  ``twisted_column`` is the reference it
is tested against: rational columns assembled straight from the definition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add

from .exceptions import NonHomogeneousError, VariableCountMismatch
from .matrices import SparseMatrix
from .poly import Polynomial, mono_degree, monomial_basis


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

    def in_strand(self, nu, I) -> bool:
        return self.form_degree(nu, I) % self.modulus == self.residue


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
            c = field.coerce(c)
            if c:
                key = (nu, I)
                acc = clean.get(key)
                clean[key] = c if acc is None else acc + c
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

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
            acc = terms.get(key)
            s = c if acc is None else acc + c
            if s:
                terms[key] = s
            elif acc is not None:
                del terms[key]
        out = DifferentialForm.zero(self.field, self.nvars, self.degree)
        object.__setattr__(out, "terms", terms)
        return out

    def __neg__(self):
        out = DifferentialForm.zero(self.field, self.nvars, self.degree)
        object.__setattr__(out, "terms", {k: -c for k, c in self.terms.items()})
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DifferentialForm":
        c = self.field.coerce(c)
        if not c:
            return DifferentialForm.zero(self.field, self.nvars, self.degree)
        out = DifferentialForm.zero(self.field, self.nvars, self.degree)
        object.__setattr__(out, "terms", {k: v * c for k, v in self.terms.items()})
        return out

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
                nu = tuple(a + b for a, b in zip(nu1, nu2))
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                key = (nu, K)
                acc = out.get(key)
                s = c if acc is None else acc + c
                if s:
                    out[key] = s
                elif acc is not None:
                    del out[key]
        form = DifferentialForm.zero(self.field, self.nvars, deg)
        object.__setattr__(form, "terms", out)
        return form

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
                dnu = nu[:k] + (e - 1,) + nu[k + 1:]
                v = c * e if sign > 0 else -(c * e)
                key = (dnu, K)
                acc = out.get(key)
                s = v if acc is None else acc + v
                if s:
                    out[key] = s
                elif acc is not None:
                    del out[key]
        form = DifferentialForm.zero(self.field, self.nvars, self.degree + 1)
        object.__setattr__(form, "terms", out)
        return form

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
                dnu = nu[:k] + (e - 1,) + nu[k + 1:]
                key = (dnu, (k,))
                acc = terms.get(key)
                s = c * e if acc is None else acc + c * e
                if s:
                    terms[key] = s
                elif acc is not None:
                    del terms[key]
    form = DifferentialForm.zero(f.field, f.nvars, 1)
    object.__setattr__(form, "terms", terms)
    return form


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return a.wedge(b)


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    return a.exterior_derivative()


def twisted_differential(f: Polynomial, a: DifferentialForm) -> DifferentialForm:
    return a.twisted_differential(f)


def twisted_column(f: Polynomial, nu: tuple, I: tuple) -> dict:
    """Column of d + dF^ on the monomial form x^nu dx_I, untruncated.

    Returns a map (nu', I') -> coefficient.  This is the reference builder:
    it agrees with twisted_differential on monomial forms, and
    ColumnStencil.column is tested against it.
    """
    col = {}
    nvars = len(nu)
    # d part: moves one exponent onto a new index
    for k in range(nvars):
        e = nu[k]
        if not e or k in I:
            continue
        sign, K = insert_sign(k, I)
        key = (nu[:k] + (e - 1,) + nu[k + 1:], K)
        col[key] = col.get(key, 0) + (e if sign > 0 else -e)
    # dF part: multiplies by each monomial's partial and wedges dx_k
    for mu, c in f.terms.items():
        for k, ek in enumerate(mu):
            if not ek or k in I:
                continue
            sign, K = insert_sign(k, I)
            tnu = tuple(a + b for a, b in zip(nu, mu))
            tnu = tnu[:k] + (tnu[k] - 1,) + tnu[k + 1:]
            v = c * ek if sign > 0 else -(c * ek)
            key = (tnu, K)
            acc = col.get(key, 0)
            s = acc + v
            if s:
                col[key] = s
            else:
                col.pop(key, None)
    return {k: v for k, v in col.items() if v}


class ColumnStencil:
    """Integer columns of d + dF^ on monomial forms, precomputed once per F.

    ``scale`` is the lcm L of F's coefficient denominators.  ``terms`` holds
    (k, mu - e_k, c * mu_k * L, deg_w(mu)) for every term c x^mu of F and
    every k with mu_k > 0, in f.terms order; ``wedge[I][k]`` is the
    (sign, K) of dx_k ^ dx_I, or None when k lies in I.  ``max_rise`` is the
    largest degree a column entry rises by.
    """

    __slots__ = ("scale", "terms", "wedge", "max_rise")

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
        self.max_rise = max((t[3] for t in terms), default=0)

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
        for k, shift, c, rise in self.terms:
            w = wedge[k]
            if w is not None:
                out.append(((tuple(map(add, nu, shift)), w[1]), rise, w[0] * c))
        return out


def strand_basis_at_degree(spec: StrandSpec, i: int, e: int) -> list:
    """Monomial forms x^nu dx_I with |I| = i and total degree exactly e."""
    if e < 0:
        return []
    out = []
    w = spec.weights
    for I in combinations(range(spec.nvars), i):
        rem = e - (i if w is None else sum(w[k] for k in I))
        if rem < 0:
            continue
        for nu in monomial_basis(spec.nvars, rem, w):
            out.append((nu, I))
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


@dataclass(frozen=True)
class TruncatedComplex:
    """Quotient of a strand complex by total degree > bound.

    bases[i] lists the retained monomial forms of exterior degree i;
    matrices[i] is the induced differential bases[i] -> bases[i+1].
    Consecutive matrices compose to zero exactly.
    """

    spec: StrandSpec
    twist: Polynomial
    bound: int
    bases: tuple
    matrices: tuple

    @property
    def space_dims(self):
        return tuple(len(b) for b in self.bases)

    def check_nilpotent(self) -> bool:
        for a, b in zip(self.matrices[1:], self.matrices[:-1]):
            if not a.compose(b).is_zero():
                return False
        return True


def assemble_truncated_complex(f: Polynomial, spec: StrandSpec,
                               bound: int) -> TruncatedComplex:
    """Matrices of d + dF^ on the quotient by total degree > bound."""
    validate_twist_input(f, spec)
    bases = [strand_basis(spec, i, bound) for i in range(spec.nvars + 1)]
    index = [{key: n for n, key in enumerate(b)} for b in bases]
    matrices = []
    for i in range(spec.nvars):
        look = index[i + 1]
        cols = []
        for nu, I in bases[i]:
            col = {}
            for key, c in twisted_column(f, nu, I).items():
                if spec.form_degree(*key) <= bound:
                    col[look[key]] = c
            cols.append(col)
        matrices.append(SparseMatrix.from_columns(len(bases[i + 1]), cols))
    return TruncatedComplex(spec, f, bound, tuple(map(tuple, bases)),
                            tuple(matrices))
