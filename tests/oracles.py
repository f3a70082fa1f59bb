"""Reference algebra that no pipeline runs, kept to check the engine: the
form algebra (D on whole forms), whole strand bases, finite-complex dims,
the dF^-only complex and a dense rank over GF(p)."""

from dataclasses import dataclass
from fractions import Fraction

from dworkcohom.exceptions import NonHomogeneousError, VariableCountMismatch
from dworkcohom.forms import (ColumnStencil, StrandSpec, insert_sign,
                              strand_basis_at_degree, validate_twist_input)
from dworkcohom.matrices import IntRankAccumulator, primitive_column
from dworkcohom.poly import Polynomial, add_term, mono_degree, mono_mul


def form_degree(spec: StrandSpec, nu, I) -> int:
    """Total degree |nu| + |I| of x^nu dx_I, weighted by spec's weights."""
    w = spec.weights
    if w is None:
        return sum(nu) + len(I)
    return mono_degree(nu, w) + sum(w[k] for k in I)


def class_key(classes, nu: tuple, I: tuple) -> tuple:
    """The key of the class of x^nu dx_I under forms.ExponentClasses."""
    v = list(nu)
    for k in I:
        v[k] += 1
    return classes.reduce(v)


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
    """Polynomial differential form of a fixed exterior degree."""

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
        self.field, self.nvars, self.degree, self.terms = \
            field, nvars, degree, clean

    @classmethod
    def _of(cls, field, nvars: int, degree: int, terms: dict) -> "DifferentialForm":
        """A form on a term map built here, already without zeros."""
        out = object.__new__(cls)
        out.field, out.nvars, out.degree, out.terms = field, nvars, degree, terms
        return out

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

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, DifferentialForm):
            if not self.terms and not other.terms:
                return self.nvars == other.nvars
            return (self.nvars, self.degree, self.terms) == \
                   (other.nvars, other.degree, other.terms)
        return NotImplemented

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


def gradient_form(f: Polynomial) -> DifferentialForm:
    """The 1-form dF = sum_k (dF/dx_k) dx_k."""
    terms = {}
    for nu, c in f.terms.items():
        for k, e in enumerate(nu):
            if e:
                add_term(terms, (nu[:k] + (e - 1,) + nu[k + 1:], (k,)), c * e)
    return DifferentialForm._of(f.field, f.nvars, 1, terms)


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


@dataclass(frozen=True)
class ComplexDims:
    """Per-degree (space dim, rank of outgoing differential, cohomology dim).

    rank_in at degree i is rank_out at degree i-1.  The stored data always
    satisfies coh = space - rank_out - rank_in >= 0 and the Euler identity
    sum (-1)^i coh_i = sum (-1)^i space_i.  from_ranks builds it from the
    space dims and the ranks of the differentials.
    """

    data: tuple  # ((degree, space, rank_out, coh), ...) ascending

    @classmethod
    def from_ranks(cls, spaces, ranks) -> "ComplexDims":
        """Dims of the complex with spaces[i] in degree i, where ranks[i]
        is the rank of the differential out of degree i; a degree past the
        end of ranks has none."""
        data, prev = [], 0
        for i, space in enumerate(spaces):
            out = ranks[i] if i < len(ranks) else 0
            data.append((i, space, out, space - out - prev))
            prev = out
        return cls(tuple(data))

    def __post_init__(self):
        prev_out = 0
        for degree, space, out, coh in self.data:
            if coh != space - out - prev_out or coh < 0:
                raise ValueError(
                    f"inconsistent dims at degree {degree}: "
                    f"space={space} out={out} in={prev_out} coh={coh}")
            prev_out = out
        if prev_out != 0:
            raise ValueError("outgoing rank of the top degree must be zero")

    def space(self, i):
        return dict((d, s) for d, s, _, _ in self.data).get(i, 0)

    def coh(self, i):
        return dict((d, c) for d, _, _, c in self.data).get(i, 0)

    def euler_spaces(self):
        return sum((-1) ** d * s for d, s, _, _ in self.data)

    def euler_cohomology(self):
        return sum((-1) ** d * c for d, _, _, c in self.data)


def dF_only_cohomology(f: Polynomial, spec: StrandSpec, bound: int) -> ComplexDims:
    """Cohomology of the associated-graded complex (strand, dF^ only).

    dF^ is homogeneous of degree +m, so the complex splits into finite
    graded Koszul pieces  V^0_tau -> V^1_{tau+m} -> ... -> V^(n+1)_{tau+(n+1)m}.
    Every piece whose lowest nonempty space has total degree <= bound is
    included whole; the result is an honest finite complex, exact in
    sub-top degrees whenever the partials form a regular sequence.  Pieces
    of different tau have targets of different degree, so they share no
    row, and one accumulator per form degree, with the target forms as
    rows, ranks every piece at once.  Only the dF^ entries of each column
    are built (ColumnStencil.dF_part).

    As in the window engine (linalg docstring, "Skipped sources"), a
    source of form degree i that is a stored pivot row of the accumulator
    of form degree i-1 is counted but not fed, because dF^ o dF^ = 0.
    Each piece feeds form degree i-1 whole before form degree i, so the
    stored columns of that piece span its image of dF^ out of degree i-1,
    and every row of such a column is a source of degree i of the same
    piece.  A stored column has entries only at rows below its pivot row
    (matrices), so by induction up the row order the image of each such
    pivot is a combination of the images of the sources of the piece that
    are no pivot.
    """
    validate_twist_input(f, spec)
    nvars = spec.nvars
    if not f:
        return ComplexDims.from_ranks(
            [len(strand_basis(spec, i, bound)) for i in range(nvars + 1)], [])
    m = f.homogeneous_degree(spec.weights)
    if m is None:
        raise NonHomogeneousError("dF-only grading needs a homogeneous input")
    stencil = ColumnStencil(f, spec.weights)
    space = [0] * (nvars + 1)
    accs = [IntRankAccumulator() for _ in range(nvars)]
    for tau in range(-nvars * m, bound + 1):
        if spec.modulus > 1 and tau % spec.modulus != spec.residue:
            continue
        bases = [strand_basis_at_degree(spec, i, tau + i * m)
                 for i in range(nvars + 1)]
        low = [tau + i * m for i, basis in enumerate(bases) if basis]
        if not low or min(low) > bound:
            continue
        for i, basis in enumerate(bases):
            space[i] += len(basis)
        for i, acc in enumerate(accs):      # dF^ is 0 on top forms
            pivots = accs[i - 1].pivcol if i else {}
            for nu, I in bases[i]:
                if (nu, I) in pivots:
                    continue
                col = {key: c for key, _, c in stencil.dF_part(nu, I)}
                if col:
                    acc.add_column(primitive_column(col))
    return ComplexDims.from_ranks(space, [acc.rank for acc in accs])


def rank_mod_p(columns, p: int) -> int:
    """Rank over GF(p) of a matrix given as a list of sparse columns, by
    dense row elimination (independent of matrices.rank_of_columns).  Its
    rows are the keys its columns touch.

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
