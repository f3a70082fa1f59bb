"""Sparse multivariate polynomial arithmetic over an exact base field.

A monomial is an exponent tuple, one non-negative integer per ambient
variable.  A polynomial is a finite map from monomials to nonzero field
elements; the zero polynomial stores no terms.  All values are immutable
after construction and hashable.

Every sparse term map of the engine keeps that invariant: polynomials,
differential forms (forms), sparse matrices and column maps (matrices),
and the parts a Griffiths-Dwork reduction carries (gaussmanin) store no
zero value.  ``add_term`` is their one update: a sum that cancels drops its
key, and any other sum keeps the key where it was.  Two loops keep their
own update on purpose.  The elimination steps of the rank accumulators
(matrices) are the engine's inner loop, so they stay inline.
GriffithsDworkReducer.reduce sums one degree's corrections without dropping
zeros before it merges them, so a key whose partial sum passes through
zero keeps its place and the residue order stays fixed.

The global monomial order is graded lexicographic with x0 > x1 > ...:
degrees ascend, and within one degree exponent tuples are listed in
descending lexicographic order.  Every basis and matrix in the engine
inherits this order, so results are reproducible byte for byte.  The
Koszul leads that prune Macaulay columns (griffiths.earlier_leads) use
their own order, graded reverse lex; it picks which columns are built,
never how rows or bases are ordered.

Optional positive integer weights replace the total degree by
sum(w_i * nu_i) throughout (quasi-homogeneous grading).
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd
from operator import add, itemgetter

from .exceptions import VariableCountMismatch

Monomial = tuple


def mono_degree(nu: Monomial, weights=None) -> int:
    if weights is None:
        return sum(nu)
    return sum(w * e for w, e in zip(weights, nu))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_basis(nvars: int, d: int, weights=None) -> list:
    """All monomials of (weighted) total degree exactly d, lex-descending.

    For trivial weights the count is C(d + nvars - 1, nvars - 1).

    Iterative: the prefixes of the first nvars - 2 exponents, of weighted
    degree at most d, are walked in lex-descending order, and each prefix
    emits its block of last two exponents in one comprehension.  The prefix
    after e lowers the last nonzero exponent by one and fills the
    positions after it greedily, which is the lex-largest completion.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if d < 0:
        return []
    if weights is not None and len(weights) != nvars:
        raise VariableCountMismatch("weight list length != variable count")
    w = weights or (1,) * nvars
    if nvars == 1:
        return [] if d % w[0] else [(d // w[0],)]
    m, wa, wb = nvars - 2, w[-2], w[-1]
    unit, step = wa == wb == 1, wb // gcd(wa, wb)
    e, rem, k, out = [0] * m, d, -1, []
    while True:
        last = k                    # fill the positions after k greedily
        for j in range(k + 1, m):
            if rem >= w[j]:
                e[j], rem = divmod(rem, w[j])
                last = j
        while last >= 0 and not e[last]:
            last -= 1
        p = tuple(e)
        if unit:
            out += [p + (a, rem - a) for a in range(rem, -1, -1)]
        else:   # a * wa + b * wb = rem holds for every step-th a
            a = rem // wa
            while a >= 0 and (rem - a * wa) % wb:
                a -= 1
            out += [p + (x, (rem - x * wa) // wb) for x in range(a, -1, -step)]
        if last < 0:
            return out
        k = last                    # the last nonzero exponent drops by one
        e[k] -= 1
        rem += w[k]


def add_term(terms: dict, key, c) -> None:
    """terms[key] += c, dropping the key when the sum is zero.

    A new nonzero key goes last; an existing key that stays nonzero keeps
    its position.
    """
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def count_monomials(nvars: int, d: int) -> int:
    """Number of monomials of total degree d in nvars variables."""
    return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0


def variable_symmetries(f: "Polynomial", weights=None) -> tuple:
    """Generators of the group G of variable permutations that fix f.

    A permutation s, with s[k] the image of variable k, sends the term
    c x^mu to c x^(s.mu), where (s.mu)[s[k]] = mu[k].  It lies in G when
    it fixes f's term map exactly, not up to a sign, and maps every
    variable to one of equal weight.  The generators are the transversals
    of the stabilizer chain: for each k and each j > k, one element of G
    that fixes 0..k-1 and sends k to j, where one exists.  Their union
    generates G (Sims), and () means that G is trivial.

    A search extends the images of 0, 1, .. one variable at a time and
    backtracks as soon as the multiset of (c, mu restricted to the
    variables placed) differs from the multiset of (c, the exponents at
    their images): the two agree for every prefix of a symmetry, and for
    the whole permutation only on one.  Images are drawn from variables of
    equal signature (weight and multiset of (c, mu_k)), so an f whose
    signatures are all distinct tries no permutation at all.  Each
    coefficient is replaced by a small integer id first (equal
    coefficients, equal ids), so the multisets hash ints, not Fractions or
    RatFuncs; the identity side of the comparison depends only on the
    number of variables placed, so it is counted once per depth.
    """
    n = f.nvars
    ids = {}
    terms = [(mu, ids.setdefault(c, len(ids))) for mu, c in f.terms.items()]
    sig = [(1 if weights is None else weights[k],
            frozenset(Counter((c, mu[k]) for mu, c in terms).items()))
           for k in range(n)]
    alike = [[j for j in range(n) if sig[j] == sig[k]] for k in range(n)]
    if all(len(a) == 1 for a in alike):
        return ()
    placed = {}     # depth d -> the multiset of (c, mu[:d])

    def agrees(images):
        d = len(images)
        if d not in placed:
            head = itemgetter(*range(d))
            placed[d] = Counter((c, head(mu)) for mu, c in terms)
        image = itemgetter(*images)
        return placed[d] == Counter((c, image(mu)) for mu, c in terms)

    def extend(images):
        if len(images) == n:
            return tuple(images)
        for j in alike[len(images)]:
            if j not in images and agrees(images + [j]):
                found = extend(images + [j])
                if found is not None:
                    return found
        return None

    gens = []
    for k in range(n):
        for j in alike[k]:
            if j > k and agrees(list(range(k)) + [j]):
                found = extend(list(range(k)) + [j])
                if found is not None:
                    gens.append(found)
    return tuple(gens)


class Polynomial:
    """Immutable sparse polynomial over an exact field."""

    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field, nvars: int, terms=None):
        clean = {}
        for nu, c in (terms or {}).items():
            nu = tuple(nu)
            if len(nu) != nvars or any(e < 0 for e in nu):
                raise ValueError(f"bad exponent tuple {nu} for nvars={nvars}")
            add_term(clean, nu, field.coerce(c))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, field, nvars: int, terms: dict) -> "Polynomial":
        """A polynomial on a term map built here, already without zeros."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(field, nvars: int) -> "Polynomial":
        return Polynomial(field, nvars, {})

    @staticmethod
    def constant(field, nvars: int, c) -> "Polynomial":
        return Polynomial(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(field, nvars: int, k: int) -> "Polynomial":
        if not 0 <= k < nvars:
            raise IndexError(f"variable index {k} out of range")
        nu = [0] * nvars
        nu[k] = 1
        return Polynomial(field, nvars, {tuple(nu): 1})

    @staticmethod
    def monomial(field, nvars: int, nu, c=1) -> "Polynomial":
        return Polynomial(field, nvars, {tuple(nu): c})

    # ---- ring structure ------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.field is not other.field:
            raise TypeError("polynomials over different base fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.field, self.nvars, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for nu, c in other.terms.items():
            add_term(terms, nu, c)
        return Polynomial._of(self.field, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.field, self.nvars,
                              {nu: -c for nu, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.field, self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_compatible(other)
        terms = {}
        for nu1, c1 in self.terms.items():
            for nu2, c2 in other.terms.items():
                add_term(terms, mono_mul(nu1, nu2), c1 * c2)
        return Polynomial._of(self.field, self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial._of(self.field, self.nvars,
                              {nu: v * c for nu, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(self.field, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.nvars == other.nvars and self.field is other.field
                    and self.terms == other.terms)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.nvars, frozenset(self.terms.items()))))
        return self._hash

    # ---- calculus and grading -------------------------------------------

    def partial_derivative(self, k: int) -> "Polynomial":
        if not 0 <= k < self.nvars:
            raise IndexError(f"variable index {k} out of range")
        terms = {}
        for nu, c in self.terms.items():
            e = nu[k]
            if e:
                dnu = nu[:k] + (e - 1,) + nu[k + 1:]
                terms[dnu] = c * e
        return Polynomial(self.field, self.nvars, terms)

    def total_degree(self, weights=None) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(mono_degree(nu, weights) for nu in self.terms)

    def homogeneous_degree(self, weights=None):
        """The common (weighted) degree of all terms, or None if mixed."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        degs = {mono_degree(nu, weights) for nu in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def map_coefficients(self, func, field) -> "Polynomial":
        return Polynomial(field, self.nvars, {nu: func(c) for nu, c in self.terms.items()})

    def extend(self, nvars: int) -> "Polynomial":
        """Embed into a ring with more variables (new ones appended)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable count")
        pad = (0,) * (nvars - self.nvars)
        return Polynomial(self.field, nvars,
                          {nu + pad: c for nu, c in self.terms.items()})

    # ---- presentation ----------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order (highest degree first)."""
        return sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]), reverse=True)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self})"


def format_polynomial(p: Polynomial, variables=None) -> str:
    """Canonical text of p, terms in descending graded-lex order.

    Variables are named by the list ``variables`` (x0, x1, ... by default),
    and coefficients print as str(c) with a leading '-' moved into the
    sign, so QQ(t) coefficients print too; over QQ, cli.parse_polynomial
    inverts the text exactly.
    """
    variables = ([f"x{k}" for k in range(p.nvars)] if variables is None
                 else list(variables))
    if len(variables) != p.nvars:
        raise ValueError("variable list does not match the polynomial")
    if not p.terms:
        return "0"
    parts = []
    for nu, c in p.sorted_terms():
        factors = [variables[k] if e == 1 else f"{variables[k]}^{e}"
                   for k, e in enumerate(nu) if e]
        cs = str(c)
        neg = cs.startswith("-")
        body = cs[1:] if neg else cs
        text = "*".join(factors if body == "1" else [body] + factors) or body
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f" - {text}" if neg else f" + {text}")
    return "".join(parts)


# ---- spec-level operation surface -------------------------------------


def poly_arith(op: str, a: Polynomial, b):
    """Exact arithmetic dispatch: op is one of 'add', 'mul', 'scale'."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "scale":
        return a.scale(b)
    raise ValueError(f"unknown operation {op!r}")


def partial_derivative(f: Polynomial, k: int) -> Polynomial:
    return f.partial_derivative(k)


def homogeneous_degree(f: Polynomial, weights=None):
    return f.homogeneous_degree(weights)
