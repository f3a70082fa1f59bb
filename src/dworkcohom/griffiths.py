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

The profile costs one exact Macaulay rank.  R is generated in degree 1, so
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
MacaulayColumns lifts each partial once and a column only renumbers rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .exceptions import NonHomogeneousError, NotSmoothError
from .fields import QQ
from .forms import (ColumnStencil, StrandSpec, strand_basis, strand_basis_at_degree,
                    validate_twist_input)
from .linalg import ComplexDims
from .matrices import (FieldRankAccumulator, IntRankAccumulator, integerize_column,
                       primitive_column)
from .poly import Polynomial, count_monomials, mono_mul, monomial_basis


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


def earlier_leads(partials) -> dict:
    """Grevlex leads before each nonzero partial: i -> (LT(dF_j), j < i).

    Only nonzero partials have columns, so only they appear, as keys and as
    leads.  The last partial's lead is never used: it would prune only the
    columns of later partials, and there are none.
    """
    out, leads = {}, ()
    for i, p in enumerate(partials):
        if p:
            out[i] = leads
            leads += (max(p.terms, key=_grevlex),)
    return out


def koszul_redundant(g, leads) -> bool:
    """Column g * dF_i is redundant: g is divisible by one of leads, the
    grevlex leads of the partials before i (module docstring)."""
    return any(all(a >= b for a, b in zip(g, lt)) for lt in leads)


class MacaulayColumns:
    """The Macaulay matrix (g_0..g_n) -> sum g_i * partials[i], g_i of
    degree src, with rows numbered by index (the monomials of the target
    degree).

    Column (i, g) is the k-th of the full matrix, k = first[i] + the
    position of g in monomial_basis(nvars, src), i running over the nonzero
    partials.  ``kept`` lists the columns that koszul_redundant keeps; they
    span every column.  Each nonzero partial is lifted once into a template:
    over QQ, integerize_column of its coefficients together with the
    augmentation entry 1 that _DegreeSolver appends to a column, which
    leaves ``scale[i]`` as that entry; over QQ(t) the coefficients
    themselves, with scale one.  A column then renumbers the template's rows
    mu -> index[g * mu]; no entry cancels, because mu -> g * mu is
    injective.  ``accumulator`` is the rank accumulator for the columns.
    """

    def __init__(self, partials, nvars: int, src: int, index):
        self.nvars, self.src, self.index = nvars, src, index
        self.leads = earlier_leads(partials)
        self.count = count_monomials(nvars, src)
        self.first = {i: k * self.count for k, i in enumerate(self.leads)}
        self.templates, self.scale = {}, {}
        lifted = partials[0].field is QQ
        self.accumulator = IntRankAccumulator if lifted else FieldRankAccumulator
        for i in self.leads:
            terms = partials[i].terms
            if lifted:
                terms = integerize_column({**terms, None: 1})
                self.scale[i] = terms.pop(None)
            else:
                self.scale[i] = partials[i].field.one
            self.templates[i] = tuple(terms.items())

    @cached_property
    def sources(self):
        """monomial_basis(nvars, src): g of column (i, g) by position."""
        return monomial_basis(self.nvars, self.src)

    def column(self, i, g) -> dict:
        """Column (i, g): the template of partial i on the rows g * mu."""
        index = self.index
        return {index[mono_mul(g, mu)]: c for mu, c in self.templates[i]}

    def kept(self):
        """(k, (i, g)) for every kept column, in Macaulay order.

        A partial's kept sources are monomial_basis(nvars, src) less the
        multiples of the leads before it; the cofactors of one lead degree
        are enumerated once.
        """
        redundant, done, cofactors = set(), 0, {}
        for i, leads in self.leads.items():
            for lt in leads[done:]:
                e = self.src - sum(lt)
                if e not in cofactors:
                    cofactors[e] = monomial_basis(self.nvars, e)
                redundant.update(mono_mul(lt, h) for h in cofactors[e])
            done = len(leads)
            first = self.first[i]
            for k, g in enumerate(self.sources):
                if g not in redundant:
                    yield first + k, (i, g)


def macaulay_rank(partials, nvars: int, gen_degree: int, d: int) -> int:
    """Rank of (g_0..g_n) -> sum g_i * dF/dx_i landing in degree d.

    partials are the generators (each homogeneous of gen_degree or zero);
    the g_i run over the monomials of degree d - gen_degree, less the
    redundant ones (MacaulayColumns.kept), which leave the rank unchanged.
    """
    src = d - gen_degree
    if src < 0:
        return 0
    index = {nu: k for k, nu in enumerate(monomial_basis(nvars, d))}
    columns = MacaulayColumns(partials, nvars, src, index)
    acc = columns.accumulator()
    for _, key in columns.kept():
        acc.add_column(columns.column(*key))
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


def jacobian_hilbert(f: Polynomial) -> JacobianProfile:
    """Hilbert function of R = scalars[x]/J(F), with the smooth flag.

    One Macaulay rank, at socle+1, decides smoothness; a smooth profile is
    then the complete-intersection series (_koszul_hilbert) with no further
    rank, and a singular one is ranked degree by degree.  Works over both
    scalar fields; ranks over the rational-function field certify
    smoothness at generic parameter values.
    """
    if not f:
        raise ValueError("zero polynomial has no Jacobian ring")
    m = f.homogeneous_degree()
    if m is None:
        raise NonHomogeneousError("Jacobian profile needs a homogeneous input")
    if m < 2:
        raise ValueError("Jacobian profile needs degree >= 2")
    nvars = f.nvars
    partials = [f.partial_derivative(k) for k in range(nvars)]
    socle = nvars * (m - 2)

    def h(d):
        return count_monomials(nvars, d) - macaulay_rank(partials, nvars, m - 1, d)

    beyond = h(socle + 1)
    smooth = beyond == 0
    if smooth:
        hilbert = [_koszul_hilbert(m, nvars, d) for d in range(socle + 3)]
    else:
        hilbert = [beyond if d == socle + 1 else h(d) for d in range(socle + 3)]
    milnor = sum(hilbert) if smooth else None
    return JacobianProfile(m, nvars, tuple(hilbert), socle, smooth, milnor)


def milnor_number(f: Polynomial) -> int:
    """dim of the Milnor algebra; equals (m-1)^(n+1) for smooth inputs."""
    profile = jacobian_hilbert(f)
    if not profile.smooth:
        raise NotSmoothError(
            "Jacobian ring is not finite-dimensional; use the truncation path")
    return profile.milnor


def primitive_hodge_numbers(f: Polynomial):
    """jacobian_hilbert(f).hodge_numbers(): [(q, h_q) for q = 1..n]."""
    return jacobian_hilbert(f).hodge_numbers()


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
    sub-top degrees whenever the partials form a regular sequence.
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
    out = [0] * (nvars + 1)
    for tau in range(-nvars * m, bound + 1):
        if spec.modulus > 1 and tau % spec.modulus != spec.residue:
            continue
        bases = {}
        for i in range(nvars + 1):
            e = tau + i * m
            if e >= 0:
                b = strand_basis_at_degree(spec, i, e)
                if b:
                    bases[i] = b
        if not bases:
            continue
        if min(tau + i * m for i in bases) > bound:
            continue
        for i in range(nvars + 1):
            if i not in bases:
                continue
            space[i] += len(bases[i])
            if i + 1 not in bases:
                continue
            rows = {key: k for k, key in enumerate(bases[i + 1])}
            acc = IntRankAccumulator()
            for nu, I in bases[i]:
                col = {rows[key]: c for key, rise, c in stencil.column(nu, I)
                       if rise}
                if col:
                    acc.add_column(primitive_column(col))
            out[i] += acc.rank
    return ComplexDims.from_ranks(space, out)
