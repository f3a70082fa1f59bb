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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exceptions import NonHomogeneousError, NotSmoothError
from .forms import (ColumnStencil, StrandSpec, strand_basis, strand_basis_at_degree,
                    validate_twist_input)
from .linalg import ComplexDims
from .matrices import IntRankAccumulator, primitive_column, rank_of_columns
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


def macaulay_column(partial, index, g) -> dict:
    """The Macaulay column g * partial, its rows numbered by index.

    No entry cancels, because mu -> g * mu is injective.
    """
    return {index[mono_mul(g, mu)]: c for mu, c in partial.terms.items()}


def macaulay_columns(partials, index, nvars: int, src: int):
    """Columns of (g_0..g_n) -> sum g_i * partials[i], the g_i of degree src.

    index maps each monomial of the target degree to its row.  Yields
    ((i, g), macaulay_column(partials[i], index, g)) for every nonzero
    partial i and every monomial g of degree src, in monomial_basis order.
    """
    sources = monomial_basis(nvars, src)
    for i, p in enumerate(partials):
        if p:
            for g in sources:
                yield (i, g), macaulay_column(p, index, g)


def macaulay_rank(partials, nvars: int, gen_degree: int, d: int) -> int:
    """Rank of (g_0..g_n) -> sum g_i * dF/dx_i landing in degree d.

    partials are the generators (each homogeneous of gen_degree or zero);
    the g_i run over all monomials of degree d - gen_degree.
    """
    src = d - gen_degree
    if src < 0:
        return 0
    index = {nu: k for k, nu in enumerate(monomial_basis(nvars, d))}
    return rank_of_columns(
        col for _, col in macaulay_columns(partials, index, nvars, src))


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
