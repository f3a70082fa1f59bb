"""Cohomology dimensions: finite complexes and stabilized strand complexes.

Two distinct computations live here.

``cohomology_dims`` is the textbook rank formula for an honest finite cochain
complex: dim H^i = dim C^i - rank(d^i) - rank(d^{i-1}).

``stabilized_cohomology`` computes windowed dimensions of a twisted strand
complex (Omega^(j mod m), d + dF^), which is infinite-dimensional before
truncation.  The naive quotient by total degree > N is a complex, but its
degree-0 cohomology always contains the truncated jet of exp(-F), a spurious
class that never dies as N grows.  The windowed dimension avoids this by
staying inside the honest complex:

    dim H^i at window N
        = dim ker(D^i restricted to degree <= N)
        - dim ( D(C^{i-1}_{<=N})  intersected with  C^i_{<=N} )

with no truncation of targets.  Both terms are exact ranks; the second one is
rank(M_{i-1}) - rank(rows of degree > N of M_{i-1}).  These numbers converge
to the true cohomology dimensions, and a stabilization certificate records
three consecutive windows with identical dimension maps.  Stability is
evidence, not proof; reports always carry the certificate.

``proved_window_cohomology`` replaces that evidence by a proof when F is
homogeneous of degree m, unweighted, with a finite Jacobian ring R (the
smooth flag of ``jacobian_hilbert``, which checks R = 0 above the socle
degree exactly).  Then the partials form a regular sequence, so the Koszul
complex dF^ is exact below the top form degree n+1.  In the stencil's
grading d has rise 0 and dF^ has rise m, so the top-degree part of D(eta)
is dF^(eta_top):

* an exact form of degree <= N has a primitive of degree <= N - m: take
  D(eta) = omega with eta of degree e > N - m.  The degree-(e+m) part of
  omega, dF^(eta_top), is 0, so eta_top = dF^(xi) by Koszul exactness, and
  eta - D(xi) is a primitive of lower degree.  Hence the band term is
  exactly B intersected with C_{<=N}, and the windowed dim at N is the
  dimension of the classes that have a representative of degree <= N;
  it never decreases in N and never exceeds the true dimension;
* a closed form below the top form degree is exact by the same induction
  on its top-degree part, so every windowed dim there is 0 at every N;
* in the top form degree, if eta_top = P dx_0..dx_n with P of degree
  > socle, then P lies in the Jacobian ideal (R vanishes there), so
  eta_top = dF^(xi) and eta - D(xi) has lower degree.  Every class has a
  representative of degree <= socle + (n+1) =: N0 (Griffiths 1969; Dimca,
  Singularities and Topology of Hypersurfaces, 1992, ch. 6).

So one window at N0 gives the exact dimensions, on every strand and on the
full complex.  N0 is sharp: strand 0 of x0^4 + .. + x3^4 reads 20 at
N0 - 1 and 21 at N0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import NilpotenceError, NotSmoothError
from .fields import QQ
from .forms import (ColumnStencil, StrandSpec, TruncatedComplex,
                    strand_basis_at_degree, validate_twist_input)
from .matrices import (IntRankAccumulator, SparseMatrix, exact_rank,
                       primitive_column, rank_mod_p, rank_of_columns)
from .poly import Polynomial
from .reports import Certificate, CohomologyReport, Proof

__all__ = [
    "SparseMatrix", "exact_rank", "rank_mod_p", "rank_of_columns",
    "ComplexDims", "cohomology_dims", "complex_dims",
    "StabilizationPolicy", "default_policy", "stabilized_cohomology",
    "proved_window_cohomology",
]


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

    def degrees(self):
        return [d for d, *_ in self.data]

    def space(self, i):
        return dict((d, s) for d, s, _, _ in self.data).get(i, 0)

    def rank_out(self, i):
        return dict((d, r) for d, _, r, _ in self.data).get(i, 0)

    def coh(self, i):
        return dict((d, c) for d, _, _, c in self.data).get(i, 0)

    @property
    def coh_dims(self) -> dict:
        return {d: c for d, _, _, c in self.data}

    def euler_spaces(self):
        return sum((-1) ** d * s for d, s, _, _ in self.data)

    def euler_cohomology(self):
        return sum((-1) ** d * c for d, _, _, c in self.data)


def complex_dims(space_dims, matrices) -> ComplexDims:
    """Dimensions of a finite cochain complex given by exact matrices.

    matrices[i] maps degree i to degree i+1; consecutive matrices must
    compose to zero (raises NilpotenceError otherwise, which signals an
    assembly bug in the caller).
    """
    space_dims = list(space_dims)
    matrices = list(matrices)
    if len(matrices) != len(space_dims) - 1:
        raise ValueError("need one matrix per consecutive pair of degrees")
    for i, m in enumerate(matrices):
        if m.ncols != space_dims[i] or m.nrows != space_dims[i + 1]:
            raise ValueError(f"matrix {i} has shape {m.nrows}x{m.ncols}, "
                             f"expected {space_dims[i + 1]}x{space_dims[i]}")
    for a, b in zip(matrices[1:], matrices[:-1]):
        if not a.compose(b).is_zero():
            raise NilpotenceError("consecutive differentials do not compose to zero")
    return ComplexDims.from_ranks(space_dims, [exact_rank(m) for m in matrices])


def cohomology_dims(c: TruncatedComplex) -> ComplexDims:
    """dim H^i = dim C^i - rank(d^i) - rank(d^{i-1}) for a truncated complex."""
    return complex_dims(c.space_dims, c.matrices)


@dataclass(frozen=True)
class StabilizationPolicy:
    """Escalation schedule for windowed cohomology dimensions.

    A key left None is unset: default_policy fills it from the complex the
    policy runs on, so a caller that does not know the complex can still
    fix some keys.
    """

    initial_bound: int = None
    step: int = None
    max_bound: int = None

    def __post_init__(self):
        if self.initial_bound is not None and self.initial_bound < 0:
            raise ValueError("initial_bound must be >= 0")
        if self.step is not None and self.step < 1:
            raise ValueError("step must be >= 1")
        if (None not in (self.initial_bound, self.max_bound)
                and self.max_bound < self.initial_bound):
            raise ValueError("max_bound must be >= initial_bound")


def default_policy(f: Polynomial, spec: StrandSpec,
                   policy: StabilizationPolicy = None) -> StabilizationPolicy:
    """policy with its unset keys filled in for the complex of (f, spec).

    The default window is the socle degree of the Jacobian ring plus two
    escalations: for trivial weights and degree-m twist the initial bound
    is (n+1)(m-2) + (n+1) + 2m.  Smooth top-degree classes have
    representatives of form degree <= socle + (n+1) = (n+1)(m-1), so the
    initial window, 2m above that, already sees them.  The step defaults
    to m, and max_bound to initial_bound + 4 * step.
    """
    policy = policy or StabilizationPolicy()
    weights = spec.weights or (1,) * spec.nvars
    if spec.modulus > 1:
        m_eff = spec.modulus
    elif f:
        m_eff = f.total_degree(spec.weights)
    else:
        m_eff = 1
    m_eff = max(m_eff, 1)
    initial = policy.initial_bound
    if initial is None:
        socle = max(sum(m_eff - 2 * w for w in weights), 0)
        initial = socle + sum(weights) + 2 * m_eff
    step = policy.step or m_eff
    max_bound = policy.max_bound
    if max_bound is None:
        max_bound = initial + 4 * step
    return StabilizationPolicy(initial, step, max_bound)


class _WindowEngine:
    """Incremental windowed dimensions for one (F, spec) strand complex.

    Columns of each differential are processed in ascending source total
    degree, so the cumulative rank after finishing degree e equals the exact
    rank of D^i restricted to sources of degree <= e; one sweep serves every
    window bound.  Targets are never truncated.  Columns come from one
    integer stencil of F, and the sweep that adds a column to the rank also
    feeds its entries of degree > bound to the band rank of that window.
    Only band sources that an earlier sweep already passed are assembled a
    second time.

    Bounds must be asked in non-decreasing order: an engine lives for one
    escalation and keeps only the ranks up to the last bound swept.
    """

    def __init__(self, f: Polynomial, spec: StrandSpec):
        validate_twist_input(f, spec)
        if f.field is not QQ:
            raise TypeError("windowed dimensions run over the rational field")
        self.spec = spec
        self.top = spec.nvars
        self.stencil = ColumnStencil(f, spec.weights)
        n = self.top + 1
        self.acc = [IntRankAccumulator() for _ in range(n)]
        self.rows = [dict() for _ in range(n + 1)]
        self.next_deg = [spec.residue] * n
        self.dim_cum = [0] * n
        self.bound = None

    def _add_degree(self, i: int, e: int, acc, band, cut: int) -> int:
        """Feed the D^i columns of source degree e; return how many sources.

        Whole columns go to acc and their entries rising by more than cut
        to band; either accumulator may be None.
        """
        reg = self.rows[i + 1]
        column = self.stencil.column
        basis = strand_basis_at_degree(self.spec, i, e)
        for nu, I in basis:
            col = {}
            above = {}
            for key, rise, v in column(nu, I):
                rid = reg.get(key)
                if rid is None:
                    rid = reg[key] = len(reg)
                col[rid] = v
                if rise > cut:
                    above[rid] = v
            if acc is not None and col:
                acc.add_column(primitive_column(col))
            if band is not None and above:
                band.add_column(primitive_column(above))
        return len(basis)

    def _process(self, i: int, bound: int) -> int:
        """Sweep D^i up to bound; return the band rank of window (i, bound).

        The band rank is the rank of the D^i columns of degree <= bound on
        rows of degree > bound.  Only sources of degree > bound - max_rise
        reach such rows; those below next_deg[i] were swept by an earlier
        call, so their columns are assembled again here.
        """
        spec = self.spec
        step = spec.modulus
        e = self.next_deg[i]
        band = None
        if i < self.top:
            band = IntRankAccumulator()
            # lowest strand degree above bound - max_rise
            low = bound - self.stencil.max_rise + 1
            first = max(spec.residue, low + (spec.residue - low) % step)
            for d in range(first, min(e, bound + 1), step):
                self._add_degree(i, d, None, band, bound - d)
        acc = self.acc[i]
        while e <= bound:
            self.dim_cum[i] += self._add_degree(i, e, acc, band, bound - e)
            e += step
        self.next_deg[i] = e
        return band.rank if band is not None else 0

    def dims_at(self, bound: int) -> dict:
        """Windowed dims at bound; raises ValueError below the last bound."""
        if self.bound is not None and bound < self.bound:
            raise ValueError(f"window {bound} is below the last window "
                             f"{self.bound} of this engine")
        self.bound = bound
        band = [self._process(i, bound) for i in range(self.top + 1)]
        dims = {}
        for i in range(self.top + 1):
            kernel = self.dim_cum[i] - self.acc[i].rank
            witnessed = self.acc[i - 1].rank - band[i - 1] if i else 0
            dims[i] = kernel - witnessed
        return dims


def stabilized_cohomology(f: Polynomial, spec: StrandSpec,
                          policy: StabilizationPolicy = None) -> CohomologyReport:
    """Windowed cohomology dimensions with a stabilization certificate.

    Dimension maps are computed at policy.initial_bound and escalated by
    policy.step until three consecutive windows agree in every degree, or
    max_bound is hit (reported as an unstabilized certificate, never
    silently accepted).  Unset policy keys take the defaults of
    default_policy.  One engine serves the escalation and is dropped on
    return, so a repeated call recomputes.
    """
    policy = default_policy(f, spec, policy)
    engine = _WindowEngine(f, spec)
    history = []
    bound = policy.initial_bound
    while True:
        dims = engine.dims_at(bound)
        history.append((bound, tuple(sorted(dims.items()))))
        if len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]:
            cert = Certificate(tuple(b for b, _ in history[-3:]), True,
                               tuple(history))
            break
        if bound + policy.step > policy.max_bound:
            cert = Certificate((), False, tuple(history))
            break
        bound += policy.step
    return _window_report(f, spec, dict(history[-1][1]), cert)


def proved_window_cohomology(f: Polynomial, spec: StrandSpec,
                             profile) -> CohomologyReport:
    """Exact windowed dimensions from one window at N0 = socle + nvars.

    f is homogeneous over QQ and unweighted, spec is one of its strands or
    its full complex, and profile is jacobian_hilbert(f), which must be
    smooth; the module docstring proves the dims exact under these
    hypotheses, and the certificate records them.  A fresh engine is asked
    for the one bound N0, which trivially keeps its non-decreasing-bounds
    contract, and is dropped on return.
    """
    if not profile.smooth:
        raise NotSmoothError("a proved window needs a finite Jacobian ring")
    if spec.weights is not None or f.homogeneous_degree() != profile.modulus:
        raise ValueError("a proved window needs the unweighted profile of f")
    bound = profile.socle + f.nvars
    dims = _WindowEngine(f, spec).dims_at(bound)
    proof = Proof("koszul-window", profile.smooth, profile.socle, bound)
    cert = Certificate((bound,), True, ((bound, tuple(sorted(dims.items()))),),
                       proof)
    return _window_report(f, spec, dims, cert)


def _window_report(f: Polynomial, spec: StrandSpec, dims: dict,
                   cert: Certificate) -> CohomologyReport:
    strand = spec.residue if spec.modulus > 1 else None
    desc = f"H(d + dF^) for F = {f}"
    if strand is not None:
        desc += f", strand {spec.residue} mod {spec.modulus}"
    return CohomologyReport(
        description=desc, nvars=spec.nvars, modulus=spec.modulus,
        dims=dims, labels={k: f"H^{k}" for k in dims}, strand=strand,
        path="truncation", certificate=cert, weights=spec.weights)
