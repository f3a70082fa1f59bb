"""Top-level pipelines: comparison identities as exact dimension checks.

Each pipeline produces a CohomologyReport whose degrees carry two names: the
raw complex degree k of H^k(strand, d + dF^) and the normalized label it
computes, e.g.

* strand j = 0 of degree-m homogeneous F in n+1 variables:
  H^k = primitive local cohomology H^k_Y(P^n)^prim along Y = V(F);
* the full complex: H^k = reduced Betti number of the affine fiber
  U = F^{-1}(1), shifted by one;
* the complete-intersection Koszul complex on scalars[x, y]:
  H^(j+2r) = de Rham Betti number of Y = V(f_1..f_r) in degree j.

Smooth plain-homogeneous inputs are answered through the Jacobian ring
(path "jacobian", exact); everything else goes through windowed truncation
with a stabilization certificate (path "truncation").  Each pipeline
makes that choice once per polynomial, in one _Complexes.
strand_decomposition returns the strand-sum identities as one Verdict: the
strand reports j = 0..m-1, then the full complex labelled as
affine_twisted_cohomology labels it, so the strands command is that one
call.  compare_smooth_paths runs both routes and demands exact agreement;
its truncation side is one proved window.
"""

from __future__ import annotations

from dataclasses import replace

from .exceptions import NonHomogeneousError, NotSmoothError, StrandSumError
from .fields import QQ
from .forms import StrandSpec, full_complex_spec
from .griffiths import smooth_profile, strand_top_dims
from .linalg import (StabilizationPolicy, proved_window_cohomology,
                     stabilized_cohomology)
from .poly import Polynomial
from .reports import Check, CohomologyReport, Verdict


def _prim_labels(nvars: int) -> dict:
    n = nvars - 1
    return {k: f"H^{k}_Y(P^{n})^prim" for k in range(nvars + 1)}


def _affine_labels(nvars: int) -> dict:
    return {k: f"H~^{k - 1}(U)" for k in range(nvars + 1)}


class _Complexes:
    """The twisted complexes of one polynomial, each answered by one route.

    The route is chosen once: smooth plain-homogeneous F over QQ, with no
    weights and no policy, goes through its smooth_profile (path "jacobian",
    one rank at most); everything else through windowed truncation.
    Weights are checked first, by the rules of StrandSpec.
    """

    def __init__(self, f: Polynomial, weights=None,
                 policy: StabilizationPolicy = None):
        if weights is not None:
            full_complex_spec(f.nvars, weights)
        self.f, self.weights, self.policy = f, weights, policy
        self.profile = None
        if (policy is None and weights is None and f.field is QQ and f
                and (f.homogeneous_degree() or 0) >= 2):
            self.profile = smooth_profile(f)

    def _concentrated(self, dims_top, strand, description):
        nvars = self.f.nvars
        dims = {k: 0 for k in range(nvars + 1)}
        dims[nvars] = dims_top
        return CohomologyReport(
            description=description, nvars=nvars,
            modulus=self.profile.modulus, dims=dims,
            labels={k: f"H^{k}" for k in dims}, strand=strand,
            path="jacobian")

    def strand(self, residue: int) -> CohomologyReport:
        """Dimensions of one strand, residue taken mod m."""
        f = self.f
        m = f.homogeneous_degree(self.weights)
        if m is None:
            raise NonHomogeneousError(
                "strand dimensions need a homogeneous input")
        if m == 0:
            raise ValueError(
                "a nonzero constant defines no hypersurface and has no strands")
        residue %= m
        if self.profile is not None:
            return self._concentrated(
                strand_top_dims(self.profile, residue), residue,
                f"strand {residue} mod {m} twisted cohomology of F = {f}")
        return stabilized_cohomology(
            f, StrandSpec(f.nvars, m, residue, self.weights), self.policy)

    def full(self) -> CohomologyReport:
        """Dimensions of the full twisted complex."""
        f, profile = self.f, self.profile
        if profile is not None:
            return self._concentrated(profile.milnor, None,
                                      f"full twisted cohomology of F = {f}")
        if f and f.homogeneous_degree(self.weights) is None \
                and self.policy is None:
            raise NonHomogeneousError(
                "inhomogeneous input: supply an explicit truncation policy")
        return stabilized_cohomology(
            f, full_complex_spec(f.nvars, self.weights), self.policy)


def strand_cohomology(f: Polynomial, residue: int,
                      policy: StabilizationPolicy = None,
                      weights=None) -> CohomologyReport:
    """Dimensions of a single strand (residue mod m) of the twisted complex."""
    return _Complexes(f, weights, policy).strand(residue)


def primitive_dwork_cohomology(f: Polynomial,
                               policy: StabilizationPolicy = None) -> CohomologyReport:
    """H^k of the strand-0 twisted complex = H^k_Y(P^n)^prim for Y = V(F).

    Smooth F goes through the Jacobian ring (exact); singular F goes through
    truncation and the report carries the stabilization certificate.
    """
    if not f:
        raise ValueError("zero polynomial does not define a hypersurface")
    if f.nvars < 2:
        raise ValueError("need at least 2 variables (a hypersurface in P^n, n >= 1)")
    if f.homogeneous_degree() is None:
        raise NonHomogeneousError("the projective pipeline needs homogeneous input")
    rep = _Complexes(f, policy=policy).strand(0)
    return replace(rep, labels=_prim_labels(f.nvars), description=(
        f"primitive local cohomology along Y = V({f}) in P^{f.nvars - 1}"))


def affine_twisted_cohomology(g: Polynomial, weights=None,
                              policy: StabilizationPolicy = None) -> CohomologyReport:
    """Full-complex dims: H^k(d + dG^) = reduced H^(k-1) of U = G^{-1}(1)."""
    _need_nonconstant(g)
    return _affine_report(g, _Complexes(g, weights, policy).full())


def _need_nonconstant(g: Polynomial) -> None:
    if not g or g.homogeneous_degree() == 0:
        raise ValueError("affine twisted cohomology needs a nonconstant polynomial")


def _affine_report(g: Polynomial, full: CohomologyReport) -> CohomologyReport:
    return replace(full, labels=_affine_labels(g.nvars), description=(
        f"reduced cohomology of U = ({g} = 1), shifted by one"))


def strand_decomposition(f: Polynomial, policy: StabilizationPolicy = None,
                         weights=None) -> Verdict:
    """The strand-sum identity in every degree, all on one route.  Its
    reports are the strands j = 0..m-1, then the full complex, labelled as
    affine_twisted_cohomology(f) labels it.  A failed identity raises
    StrandSumError."""
    complexes = _Complexes(f, weights, policy)
    m = f.homogeneous_degree(weights) if f else None
    if m is None:
        raise NonHomogeneousError("strand decomposition needs a homogeneous input")
    _need_nonconstant(f)
    reports = [complexes.strand(j) for j in range(m)]
    full = _affine_report(f, complexes.full())
    checks = [Check(f"strand sum equals full complex in degree {k}",
                    sum(rep.dim(k) for rep in reports), full.dim(k))
              for k in range(f.nvars + 1)]
    for k, check in enumerate(checks):
        if not check.passed:
            raise StrandSumError(
                f"strand sum {check.lhs} != full-complex dimension {check.rhs} "
                f"in degree {k}; this indicates an assembly bug")
    return Verdict(tuple(checks), (*reports, full))


def _suspend(f: Polynomial) -> Polynomial:
    """F + x_new^m in one more variable."""
    m = f.homogeneous_degree()
    ext = f.extend(f.nvars + 1)
    return ext + Polynomial.variable(f.field, f.nvars + 1, f.nvars) ** m


def thom_sebastiani_check(f: Polynomial) -> Verdict:
    """Kunneth factorization under F -> F + x_new^m, as dimension identities.

    Checks (a) degreewise: dim H^a(F~) = sum_{b+c=a} dim H^b(F) dim H^c of
    the one-variable x^m complex, and (b) the strand identity: the strand-0
    dims of F~ in degree i+2 equal the summed strand-j dims of F (0<j<m) in
    degree i+1.  All sides are computed in-engine.
    """
    m = f.homogeneous_degree()
    if m is None or m < 2:
        raise NonHomogeneousError("need a homogeneous input of degree >= 2")
    of_f, of_ft = _Complexes(f), _Complexes(_suspend(f))
    full_f = of_f.full()
    one_var = _Complexes(Polynomial.variable(f.field, 1, 0) ** m).full()
    full_ft = of_ft.full()
    checks = []
    for a in range(f.nvars + 2):
        rhs = sum(full_f.dim(b) * one_var.dim(a - b) for b in range(a + 1))
        checks.append(Check(f"Kunneth: dim H^{a}(F + x^{m}) = "
                            f"sum dim H^b(F) * dim H^c(x^{m})",
                            full_ft.dim(a), rhs))
    strand_ft0 = of_ft.strand(0)
    strands_f = [of_f.strand(j) for j in range(1, m)]
    for k in range(f.nvars + 2):
        rhs = sum(rep.dim(k - 1) for rep in strands_f)
        checks.append(Check(
            f"strand identity: prim dim {k} of the suspension = "
            f"sum over strands 1..{m - 1} of dim {k - 1}",
            strand_ft0.dim(k), rhs))
    return Verdict(tuple(checks),
                   (full_f, one_var, full_ft, strand_ft0, *strands_f))


def suspension_check(f: Polynomial) -> Verdict:
    """Additivity dim H~^i(U) = prim^(i+2)(Y~) + prim^(i+1)(Y), all in-engine.

    U is the affine fiber of F, Y~ and Y the projective hypersurfaces of
    F + x_new^m and F; the three sides come from independent computations
    (full complex, strand 0 of the suspension, strand 0 of F).
    """
    m = f.homogeneous_degree()
    if m is None or m < 2:
        raise NonHomogeneousError("need a homogeneous input of degree >= 2")
    of_f = _Complexes(f)
    u_side = of_f.full()
    prim_f = of_f.strand(0)
    prim_ft = _Complexes(_suspend(f)).strand(0)
    checks = []
    for i in range(-1, f.nvars + 1):
        checks.append(Check(
            f"dim H~^{i}(U) = prim^{i + 2}(suspension) + prim^{i + 1}(F)",
            u_side.dim(i + 1), prim_ft.dim(i + 2) + prim_f.dim(i + 1)))
    return Verdict(tuple(checks), (u_side, prim_ft, prim_f))


def ci_dwork_koszul(fs, bound: int) -> CohomologyReport:
    """Koszul complex K(scalars[x,y]; d/dx_j + sum_i y_i df_i/dx_j, d/dy_i + f_i).

    This is the full twisted complex on A^(n+r) with F = sum y_i f_i; for a
    smooth complete intersection Y = V(f_1..f_r) of codimension r the
    dimension at degree j + 2r equals the de Rham Betti number of Y in
    degree j.  The windows start at bound, with the default step.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one defining polynomial")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    n = fs[0].nvars
    if any(p.nvars != n for p in fs):
        raise ValueError("defining polynomials must share one variable count")
    if not all(fs):
        raise ValueError("defining polynomials must be nonzero")
    r = len(fs)
    field = fs[0].field
    total = Polynomial.zero(field, n + r)
    for i, p in enumerate(fs):
        total = total + Polynomial.variable(field, n + r, n + i) * p.extend(n + r)
    rep = stabilized_cohomology(total, full_complex_spec(n + r),
                                StabilizationPolicy(bound))
    labels = {k: (f"H^{k - 2 * r}_dR(Y)" if k >= 2 * r else f"H^{k}")
              for k in rep.dims}
    return replace(rep, labels=labels, description=(
        f"Koszul complex of ({', '.join(str(p) for p in fs)}) "
        f"with {r} dual variables; degrees shift by 2r = {2 * r}"))


def fourier_lemma_check(r: int, bound: int) -> Verdict:
    """The 2r-operator Koszul complex K(scalars[y, y*]; d/dy_i + y*_i, d/dy*_i + y_i)
    has one-dimensional cohomology concentrated in degree 2r.  The windows
    start at bound, with the default step."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    field = QQ
    total = Polynomial.zero(field, 2 * r)
    for i in range(r):
        total = total + (Polynomial.variable(field, 2 * r, i)
                         * Polynomial.variable(field, 2 * r, r + i))
    rep = stabilized_cohomology(total, full_complex_spec(2 * r),
                                StabilizationPolicy(bound))
    checks = (
        Check(f"dim H^{2 * r} = 1", rep.dim(2 * r), 1),
        Check("all other degrees vanish",
              sum(v for k, v in rep.dims.items() if k != 2 * r), 0),
        Check("stabilization certificate", rep.stabilized, True),
    )
    return Verdict(checks, (rep,))


def compare_smooth_paths(f: Polynomial) -> Verdict:
    """Jacobian-path dimensions vs truncation-path dimensions, degreewise.

    The summed primitive Hodge numbers must equal the strand-0 top dimension
    of the window engine exactly, and every lower degree must vanish on both
    paths.  The truncation side is the proved window at N0 = socle + nvars,
    which takes only the finiteness of the Jacobian ring from the other
    path.
    """
    profile = smooth_profile(f)
    if profile is None:
        raise NotSmoothError("two-path comparison is for smooth hypersurfaces")
    total = sum(h for _, h in profile.hodge_numbers())
    trunc = proved_window_cohomology(
        f, StrandSpec(f.nvars, profile.modulus, 0), profile)
    checks = [Check(f"top degree {f.nvars}: sum of primitive Hodge numbers "
                    f"= truncated strand-0 dimension",
                    total, trunc.dim(f.nvars))]
    for k in range(f.nvars):
        checks.append(Check(f"degree {k} vanishes on the truncation path",
                            trunc.dim(k), 0))
    return Verdict(tuple(checks), (trunc,))
