"""Jacobian-ring pipeline for smooth projective hypersurfaces.

For homogeneous F of degree m in x_0..x_n the Jacobian ring is
R = scalars[x] / (dF/dx_0, ..., dF/dx_n).  When V(F) is smooth the partials
form a regular sequence, R is finite-dimensional with socle degree
sigma = (n+1)(m-2), its Hilbert function is Gorenstein-symmetric, and

* the Milnor number is mu = sum h_d = (m-1)^(n+1);
* the primitive Hodge numbers of the middle cohomology of Y = V(F) in P^n
  are h_q = h_{qm-(n+1)} for q = 1..n;
* the top cohomology of the strand-j twisted complex has dimension
  sum of h_d over d = j - (n+1) (mod m), with nothing below the top.

The profile costs at most one exact Macaulay rank, and none when the
leads are coprime (below).  R is generated in degree 1, so
R_{d+1} = R_1 R_d: once R vanishes in one degree it vanishes in every higher
one.  The rank at sigma+1 therefore decides everything.  If h_{sigma+1} = 0,
R is finite, so the n+1 partials generate an ideal primary to the
irrelevant ideal; in a polynomial ring they are then a regular sequence, the
Koszul complex resolves R, and the Hilbert function is exactly the
complete-intersection series (1 + s + ... + s^(m-2))^(n+1) -- no further
rank is needed, and F is smooth (by Euler's relation F lies in the Jacobian
ideal, so a singular point of V(F) would be a common zero of the partials).
If h_{sigma+1} > 0, F is singular and every degree 0..sigma+2 is ranked.
Over the rational-function field the same argument holds for the generic
member of the family.

No rank is needed when every partial is nonzero and their grevlex leads
(defined below) are pairwise coprime (coprime_leads).  Buchberger's first
criterion, the product criterion, then reduces every S-polynomial to
zero, so the partials are a Groebner basis and the initial ideal in(J) is
generated by their leads: n+1 pairwise coprime monomials of degree m-1 in
n+1 variables.
Coprime monomials have disjoint supports, and n+1 disjoint nonempty
supports in n+1 variables are single variables, so the leads are the pure
powers x_0^(m-1), .., x_n^(m-1) in some order.  By Macaulay's theorem
dim R_d = dim (S/in J)_d, and S/(x_0^(m-1), .., x_n^(m-1)) has exactly the
complete-intersection series, so R vanishes at socle+1: the rank would
give this same profile.  The criterion holds over any field, so over the
rational-function field it certifies the generic member, as the rank
there does (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 sec. 9 and ch. 9 sec. 3).  It never fires on a singular input,
since it proves R finite.  Nor does it fire on a member of a Dwork pencil
with t != 0, where dF_j = m x_j^(m-1) - m t prod(x)/x_j in m variables:
coprime leads would be the pure powers, so x_j^(m-1) > prod(x)/x_j for
every j, and multiplying the m inequalities gives
prod x_j^(m-1) > prod x_j^(m-1).  So the quintic at t = 2 keeps its one
rank, while Fermat and other diagonal forms sum c_j x_j^m take none.

Macaulay matrices skip the columns that the Koszul syzygies
dF_i * dF_j - dF_j * dF_i = 0 make redundant (the simplest form of the F5
criterion, Faugere 2002).  Column (i, g) is g * dF_i; it is dropped when g
is divisible by LT(dF_j), the grevlex lead (the largest monomial in graded
reverse lexicographic order, x_n smallest) of an earlier nonzero partial
j < i.  Write g = h * LT(dF_j) and let c_j be the coefficient of LT(dF_j).
Then

    c_j g dF_i = (h dF_i) dF_j - sum_{t in tail(dF_j)} c_t (h t) dF_i,

a sum of columns of partial j < i and of columns (i, h * t) with
h * t < g.  By induction on (i, g) the kept columns span every column, so
the column space is unchanged: ranks, the pivot rows of an echelon (which
depend only on the span), the standard monomials and every reduced class
stay the same.  This needs nothing of F and holds for any monomial order
used throughout: over both scalar fields, for smooth and singular inputs
alike.  Only the leads of the partials before the last prune anything,
since no partial comes after the last.

The order decides how much is pruned.  Let F be smooth, so the partials
are a regular sequence, and let the grevlex leads of dF_0..dF_(n-1) be one
too.  Then (LT(dF_0), .., LT(dF_(i-1))) and (dF_0, .., dF_(i-1)) are
complete intersections of the same degrees, with the same Hilbert
function.  So partial i keeps dim S_src - dim (dF_0, .., dF_(i-1))_src
columns, which is exactly the rank it adds, and every kept column is
independent.  Grevlex leads meet this on the Fermat and Dwork pencils:
dF_j = m x_j^(m-1) - m t prod(x)/x_j has lead x_j^(m-1) for every j < n
(reverse lex with x_n smallest, as in Bayer-Stillman 1987), whereas graded
lex leads dF_1..dF_n by the deformation monomials prod(x)/x_j.

A column (i, g) repeats the coefficients of dF_i on the rows g * mu, so
MacaulayColumns lifts each partial once, and column (i, g) only moves the
lifted coefficients to the rows g * mu.  Monomials are packed integers
with a guard bit per exponent, so a product is a sum of keys and a
divisibility test one subtraction and one mask (MacaulayColumns).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .exceptions import NonHomogeneousError, NotSmoothError
from .fields import QQ
from .forms import (ColumnStencil, StrandSpec, strand_basis,
                    strand_basis_at_degree, validate_twist_input)
from .linalg import ComplexDims
from .matrices import (FieldRankAccumulator, IntRankAccumulator, integerize_column,
                       primitive_column)
from .poly import Polynomial, count_monomials


@dataclass(frozen=True)
class JacobianProfile:
    """Hilbert data of the Jacobian ring of a homogeneous polynomial.

    hilbert[d] is dim R_d for d = 0..socle+2.  smooth records that R
    vanishes at socle+1, hence in every higher degree; the smooth profile is
    the complete-intersection series (so hilbert[socle+1] and
    hilbert[socle+2] are 0), a singular one is ranked degree by degree.
    milnor is the total dimension when smooth, else None.
    """

    modulus: int
    nvars: int
    hilbert: tuple
    socle: int
    smooth: bool
    milnor: int = None

    def h(self, d: int) -> int:
        if 0 <= d < len(self.hilbert):
            return self.hilbert[d]
        if d < 0 or self.smooth:
            return 0
        raise NotSmoothError(
            f"Hilbert value at degree {d} not computed for a non-smooth input")

    def hodge_numbers(self):
        """Graded dimensions h_q = h_{qm-(n+1)} of primitive middle cohomology.

        Returns [(q, h_q) for q = 1..n]; entries with qm-(n+1) outside the
        Hilbert range are 0.
        """
        if not self.smooth:
            raise NotSmoothError(
                "primitive Hodge numbers need a smooth hypersurface")
        n, m = self.nvars - 1, self.modulus
        return [(q, self.h(q * m - (n + 1))) for q in range(1, n + 1)]

    def to_json_dict(self):
        """The hodge report: the profile, and for a smooth input the Milnor
        number and the primitive Hodge numbers h^(n-q, q-1)_prim."""
        out = {"m": self.modulus, "nvars": self.nvars,
               "hilbert": list(self.hilbert), "smooth": self.smooth}
        if self.smooth:
            n = self.nvars - 1
            out["milnor"] = self.milnor
            out["path"] = "jacobian"
            out["dims"] = [{"degree": q, "label": f"h^({n - q},{q - 1})_prim",
                            "dim": h} for q, h in self.hodge_numbers()]
            out["certificate"] = None
        return out


def _grevlex(nu):
    """Sort key of graded reverse lexicographic order, x_n smallest."""
    return sum(nu), tuple(-e for e in reversed(nu))


def grevlex_leads(partials) -> dict:
    """i -> LT(dF_i), the grevlex lead of each nonzero partial."""
    return {i: max(p.terms, key=_grevlex) for i, p in enumerate(partials) if p}


def earlier_leads(partials) -> dict:
    """Grevlex leads before each nonzero partial: i -> (LT(dF_j), j < i).

    Only nonzero partials have columns, so only they appear, as keys and as
    leads.  The last partial's lead is never used: it would prune only the
    columns of later partials, and there are none.
    """
    out, leads = {}, ()
    for i, lt in grevlex_leads(partials).items():
        out[i] = leads
        leads += (lt,)
    return out


def coprime_leads(partials) -> bool:
    """Every partial is nonzero and their grevlex leads are pairwise coprime,
    so the partials are a Groebner basis and F is smooth (module docstring)."""
    leads = grevlex_leads(partials)
    return (len(leads) == len(partials)
            and all(sum(1 for lt in leads.values() if lt[k]) <= 1
                    for k in range(len(partials))))


class MacaulayColumns:
    """The Macaulay matrix (g_0..g_n) -> sum g_i * partials[i], g_i of
    degree src.

    A row is its monomial, of degree d = src + deg partials[i], and a
    column is its key (i, g), for i a nonzero partial; nothing numbers
    either.  Both monomials are packed integers: x^nu has the digits nu in
    base 2^(b+1), b the bit length of d, x_0 most significant (``pack``,
    inverted by ``unpack``).  Every monomial here has degree at most d, so
    its digits stay below their top bits, the guard bits 2^b > d.  So no
    digit carries: pack(g) + pack(mu) == pack(g * mu), and keys compare as
    their exponent tuples, in lex order.  Below the partials' degree
    (src < 0) the base is sized by theirs, and there are no columns.  With
    H the mask of the guard bits, digit k of (r | H) - a is 2^b + r_k - a_k,
    in [0, 2^(b+1)) for r_k, a_k < 2^b, so no digit borrows and its guard
    bit is set exactly when a_k <= r_k: for monomials of degree at most d,
    a divides r exactly when ((r | H) - a) & H == H.

    ``kept`` lists the columns that the Koszul criterion keeps, in
    Macaulay order; they span every column.  Each nonzero partial is lifted
    once into a template: integerize_column of its coefficients together
    with the augmentation entry 1 that _DegreeSolver appends to a column,
    which leaves ``scale[i]`` as that entry (integers over QQ, IntPoly
    tuples over QQ(t)).  Column (i, g) then moves the template's rows mu to
    pack(g) + pack(mu); no entry cancels, as mu -> g * mu is injective and
    keeps the order, so the column's largest row is g + ``top[i]``.
    ``accumulator`` is the rank accumulator for the columns.
    """

    def __init__(self, partials, nvars: int, src: int):
        self.nvars, self.src = nvars, src
        self.leads = earlier_leads(partials)
        gen = max((sum(mu) for p in partials for mu in p.terms), default=0)
        bit = 1 << (max(src, 0) + gen).bit_length()    # the guard bit
        self.base = base = 2 * bit
        self.weights = tuple(base ** k for k in reversed(range(nvars)))
        self.guard = bit * sum(self.weights)    # H, the mask of the guard bits
        self.templates, self.scale, self.top = {}, {}, {}
        field = partials[0].field
        self.accumulator = (IntRankAccumulator if field is QQ
                            else FieldRankAccumulator)
        for i in self.leads:
            terms = integerize_column({**partials[i].terms, None: field.one})
            self.scale[i] = terms.pop(None)
            self.templates[i] = tuple((self.pack(mu), c)
                                      for mu, c in terms.items())
            self.top[i] = max(mu for mu, _ in self.templates[i])

    def pack(self, nu) -> int:
        """The monomial x^nu as a packed integer, x_0 most significant."""
        return sum(map(mul, nu, self.weights))

    def unpack(self, key: int) -> tuple:
        """The exponent vector of a packed monomial."""
        base = self.base
        return tuple(key // w % base for w in self.weights)

    def listing(self, e: int) -> list:
        """The packed monomials of degree e in monomial_basis(nvars, e)
        order, descending; none for e < 0."""
        first, *rest = self.weights
        tails = [[0]] + [[]] * e    # tails[s]: degree s in the last variables
        for w in reversed(rest):
            tails = [[a * w + t for a in range(s, -1, -1) for t in tails[s - a]]
                     for s in range(e + 1)]
        return [a * first + t for a in range(e, -1, -1) for t in tails[e - a]]

    def column(self, i, g) -> dict:
        """Column (i, g), g packed: the template of partial i on the rows
        g * mu."""
        return {g + mu: c for mu, c in self.templates[i]}

    def kept(self):
        """(i, g) for every kept column, g packed, in Macaulay order: i
        ascending, then g descending.  A partial's kept sources are those
        less the multiples of the leads before it; the cofactors of one
        lead degree are listed once."""
        pack, listing = self.pack, self.listing
        sources = listing(self.src)
        redundant, done, cofactors = set(), 0, {}
        for i, leads in self.leads.items():
            for lt in leads[done:]:
                e = self.src - sum(lt)
                if e not in cofactors:
                    cofactors[e] = listing(e)
                lt = pack(lt)
                redundant.update(lt + h for h in cofactors[e])
            done = len(leads)
            for g in sources:
                if g not in redundant:
                    yield i, g


def macaulay_rank(partials, nvars: int, gen_degree: int, d: int) -> int:
    """Rank of (g_0..g_n) -> sum g_i * dF/dx_i landing in degree d.

    partials are the generators (each homogeneous of gen_degree or zero);
    the g_i run over the monomials of degree d - gen_degree, less the
    redundant ones (MacaulayColumns.kept), which leave the rank unchanged.
    """
    src = d - gen_degree
    if src < 0:
        return 0
    columns = MacaulayColumns(partials, nvars, src)
    acc = columns.accumulator()
    for i, g in columns.kept():
        acc.add_column(columns.column(i, g))
    return acc.rank


def _koszul_hilbert(m: int, nvars: int, d: int) -> int:
    """dim R_d when the nvars partials of a degree-m form are a regular sequence.

    The Koszul complex of a regular sequence of nvars forms of degree m-1 is
    a free resolution of R, so dim R_d is the alternating sum
    sum_k (-1)^k C(nvars, k) dim S_{d-k(m-1)}: the coefficient of s^d in
    ((1 - s^(m-1)) / (1 - s))^nvars = (1 + s + ... + s^(m-2))^nvars.
    """
    return sum((-1) ** k * comb(nvars, k) * count_monomials(nvars, d - k * (m - 1))
               for k in range(min(nvars, d // (m - 1)) + 1))


def jacobian_degree(f: Polynomial) -> int:
    """The degree m of f, checked to have a Jacobian ring with a socle:
    f nonzero, homogeneous, and m >= 2."""
    if not f:
        raise ValueError("zero polynomial has no Jacobian ring")
    m = f.homogeneous_degree()
    if m is None:
        raise NonHomogeneousError("Jacobian profile needs a homogeneous input")
    if m < 2:
        raise ValueError("Jacobian profile needs degree >= 2")
    return m


def _smooth_or_singular(f: Polynomial):
    """(smooth profile, None) for a smooth f, else (None, singular).

    Partials with pairwise coprime grevlex leads (coprime_leads) certify
    smoothness with no rank; otherwise one Macaulay rank, at socle+1,
    decides it.  A smooth profile is the complete-intersection series
    (_koszul_hilbert) with no further rank; singular() ranks each other
    degree once.
    """
    m, nvars = jacobian_degree(f), f.nvars
    partials = [f.partial_derivative(k) for k in range(nvars)]
    socle = nvars * (m - 2)
    coprime = coprime_leads(partials)

    def h(d):
        return count_monomials(nvars, d) - macaulay_rank(partials, nvars,
                                                         m - 1, d)

    beyond = 0 if coprime else h(socle + 1)
    if beyond:
        return None, lambda: JacobianProfile(m, nvars, tuple(
            beyond if d == socle + 1 else h(d) for d in range(socle + 3)),
            socle, False)
    hilbert = tuple(_koszul_hilbert(m, nvars, d) for d in range(socle + 3))
    return JacobianProfile(m, nvars, hilbert, socle, True, sum(hilbert)), None


def smooth_profile(f: Polynomial):
    """jacobian_hilbert(f) for a smooth f, None for a singular one: the
    smooth flag from at most one Macaulay rank, at socle+1.
    GriffithsDworkReducer does not ask it: the echelon it builds at the
    socle degree decides the same flag with no rank (gaussmanin module
    docstring, "Smoothness")."""
    return _smooth_or_singular(f)[0]


def jacobian_hilbert(f: Polynomial) -> JacobianProfile:
    """Hilbert function of R = scalars[x]/J(F), with the smooth flag, each
    degree ranked at most once.  Over the rational-function field the
    answer holds at generic parameter values."""
    smooth, singular = _smooth_or_singular(f)
    return smooth or singular()


def strand_top_dims(profile: JacobianProfile, residue: int) -> int:
    """Top twisted-cohomology dimension of strand residue, from the profile.

    A top form x^nu dx_0..dx_n of coefficient degree d lies on strand
    (d + n + 1) mod m, so the strand mass is the Hilbert sum over
    d = residue - (n+1) (mod m).
    """
    if not profile.smooth:
        raise NotSmoothError("strand dimensions from the profile need a smooth input")
    m = profile.modulus
    want = (residue - profile.nvars) % m
    return sum(h for d, h in enumerate(profile.hilbert) if d % m == want)


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
