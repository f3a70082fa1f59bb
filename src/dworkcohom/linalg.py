"""Cohomology dimensions of the twisted strand complexes, by windows.

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
rank(M_{i-1}) - band rank, where M_{i-1} is D^{i-1} on sources of degree <= N
and the band rank is the rank of its rows of degree > N.  These numbers
converge to the true cohomology dimensions, and a stabilization certificate
records three consecutive windows with identical dimension maps.  Stability
is evidence, not proof; reports always carry the certificate.

Band counts: one elimination gives both ranks.  The accumulator of D^i
keys each row by an integer id that orders rows by degree (source degree
plus the entry's rise) first, and stores each reduced column under its
largest row (matrices).  So a stored column has entries only at rows below
its pivot, all of degree <= its pivot's, and the stored columns, which span
everything fed, are triangular on their pivot rows with a nonzero diagonal.
One whose pivot has degree <= N has no entry above N; those whose pivots
lie above N stay triangular on their pivot rows, so they are independent on
the rows above N.  Sources enter in ascending degree, so after the sweep to
N the stored columns span exactly the columns of M_{i-1}, and the band rank
is the number of stored pivots of degree > N: each N costs a count, not an
elimination (the rank profile of Jeannerod, Pernet and Storjohann, J.
Symbolic Comput. 2013).

Skipped sources: a source of D^i that is a stored pivot row of D^(i-1) is
never assembled, because D^i o D^(i-1) = 0 makes its column dependent (the
window analogue of Faugere's F5 criterion, ISSAC 2002).  After the sweep
of D^(i-1) to N, let p be a stored pivot of degree <= N, with column c_p.
Every other entry of c_p lies at a row below p, of degree <= N.  c_p lies
in the image of D^(i-1), so D^i(c_p) = 0, which writes D^i(p) as a
combination of the images of the rows of c_p below p: sources of degree
<= N, each a non-pivot row or a smaller pivot.  By induction up the row
order, the image of every such pivot is a combination of the images of
the sources of degree <= N that are no pivot.  ``dims_at`` sweeps D^(i-1)
to the bound before D^i, a source is skipped only when it is a pivot row
as it is reached, and a pivot row stays one, so the sweep of D^i to N
assembles every source of degree <= N that is no pivot: the assembled
sources have the same image under D^i as all of them, the same rank, and
the same band count, since the stored columns still span what is fed.  A
skipped source still counts, with its orbit size, in the dimension of
C^i.  Pivots and sources lie in the same representative classes, so orbit
sharing is unaffected.

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

Every window rank splits into class blocks, and symmetric blocks share
their ranks.  Give x^nu dx_I the exponent vector nu + e_I in Z^(n+1), and
let L be the lattice spanned by the exponents of F.

* Class invariance: the d part of D(x^nu dx_I) keeps nu + e_I, and the
  dF^ part adds an exponent of F, so D keeps the class of nu + e_I in
  Z^(n+1)/L.  A complex of the engine (a strand, or the full complex) is
  the direct sum of its class subcomplexes, which share no basis element,
  so no row either.  Windows and bands cut every block by the same degree,
  so each main rank and band rank is the sum of the ranks of the blocks.
* Orbits: let s be a permutation of the variables that fixes F's terms
  and the weights.  It sends x^nu dx_I to +-x^(s.nu) dx_s(I), with the
  sign of sorting s(I).  It commutes with d, and with dF^ because
  s(dF) = dF.  It keeps every degree, and s(L) = L, so it maps the block
  of a class onto the block of its image class.  Up to the sign of dx_I
  on each basis element, which changes no rank, that map is an
  isomorphism of complexes.  It also maps degrees <= N onto degrees
  <= N, and the rows of degree > N onto such rows.  So the classes of one
  orbit of the group G of such permutations have equal main ranks and
  band ranks at every window.
* Representative sources: the class depends only on v = nu + e_I, and
  (nu, I) <-> (v, I) with I inside the support of v is a bijection from
  the sources of degree e onto such pairs with v of degree e.  So the
  engine groups the exponent vectors v of each degree by class once
  (ExponentClasses.representatives, one key per vector, not per source),
  keeps the vectors of the classes that represent their orbits, sorted
  lex-descending, and emits (v - e_I, I) for each I in combinations order
  and each kept v that is at least 1 on I, in that order.  For a fixed I,
  subtracting e_I keeps the lex order, so these are exactly the
  representative sources of strand_basis_at_degree, in its order.
* Weighted pivots: the engine assembles the sources of one representative
  class per orbit (forms.ExponentClasses) and feeds them all, in basis
  order, to the one accumulator of D^i; each row carries the orbit size w
  of its class.  Blocks share no row, so an incoming column is reduced
  only by pivots of its own class, and the accumulator stores exactly the
  pivots that per-class accumulators would store.  The choices that the
  loop makes agree too, because everything it compares lies in one class:
  the largest row of a column is the largest of its own class, and two
  rows of one class compare by degree, then by registration, rows being
  registered in that class's feed order, as a per-class accumulator would
  register them.  So the rank and the pivots above N are the sums of the
  per-class ones, and a window's rank and band rank are the sums of the
  orbit sizes w of the stored pivots, all of them and those of degree > N.

The dims and certificates are therefore those of the unsplit engine, by
construction, and every class's columns are reduced as they were when the
engine filtered the whole basis by class, in the same order.  When G is
trivial every class is its own orbit, of size 1, and no class key is
computed.  On the nodal quartic x0^4 + .. + x3^4 - 4 x0x1x2x3, L has
index 64 and G is S4, so strand 0's 16 classes fall into 3 orbits, of
sizes 1, 3 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import sub

from .exceptions import NotSmoothError
from .fields import QQ
from .forms import (ColumnStencil, ExponentClasses, StrandSpec,
                    strand_basis_at_degree, validate_twist_input)
from .matrices import IntRankAccumulator, primitive_column
from .poly import Polynomial, monomial_basis, variable_symmetries
from .reports import Certificate, CohomologyReport, Proof

__all__ = [
    "ComplexDims", "StabilizationPolicy", "default_policy",
    "stabilized_cohomology", "proved_window_cohomology",
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

    def space(self, i):
        return dict((d, s) for d, s, _, _ in self.data).get(i, 0)

    def coh(self, i):
        return dict((d, c) for d, _, _, c in self.data).get(i, 0)

    def euler_spaces(self):
        return sum((-1) ** d * s for d, s, _, _ in self.data)

    def euler_cohomology(self):
        return sum((-1) ** d * c for d, _, _, c in self.data)


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
    integer stencil of F and are assembled once.  ``rows`` gives each row
    the id degree << SERIAL_BITS | serial, serial the number of rows of its
    form degree registered before it, so ids order rows by degree, then by
    registration.  Serials stay below 2^SERIAL_BITS: every row keeps its
    key, a dict slot and an orbit size, over 100 bytes, so 2^32 rows would
    take over 400 GB.  The accumulator of each D^i stores each column under
    its largest row, a row of greatest degree, so a band rank is a count of
    stored pivots (module docstring, "Band counts").  Within a degree the
    newest row wins: registered last, it is the row that the fewest stored
    columns have had the chance to touch.  A source of D^i that is a stored
    pivot row of D^(i-1) is counted but not assembled ("Skipped
    sources").

    When F has variable symmetries, only the classes that represent their
    orbits are assembled (see the module docstring).  ``vectors`` lists,
    per degree, the exponent vectors whose class represents its orbit;
    the sources of every form degree come from it, so a class key is
    computed once per vector of a degree, not once per source.  Every
    source counts its orbit size w, and so does every row its column
    registers (``row_w``), since a row's class is its source's.  All
    sources of D^i feed one accumulator, and each rank is the sum of the
    orbit sizes of its stored pivots ("Weighted pivots").  With no symmetry
    every source is assembled at size 1 and no class key is computed.

    Bounds must be asked in non-decreasing order: an engine lives for one
    escalation and keeps only the ranks up to the last bound swept.
    """

    SERIAL_BITS = 32

    def __init__(self, f: Polynomial, spec: StrandSpec):
        validate_twist_input(f, spec)
        if f.field is not QQ:
            raise TypeError("windowed dimensions run over the rational field")
        self.spec = spec
        self.top = spec.nvars
        self.stencil = ColumnStencil(f, spec.weights)
        gens = variable_symmetries(f, spec.weights)
        self.classes = ExponentClasses(f, gens) if gens else None
        n = self.top + 1
        self.rows = [dict() for _ in range(n + 1)]  # (nu, I) -> row id
        self.row_w = [[] for _ in range(n + 1)]     # serial -> orbit size
        self.acc = [IntRankAccumulator() for _ in range(n)]
        self.vectors = {}                       # degree -> _vectors
        self.next_deg = [spec.residue] * n
        self.dim_cum = [0] * n
        self.bound = None

    def _vectors(self, e: int) -> list:
        """(v, orbit size, support mask) for the exponent vectors v of
        degree e whose class represents its orbit, lex-descending.

        The representative classes come from ExponentClasses.representatives,
        one key per vector of monomial_basis; only their vectors are then
        sorted back into its order.  Listed once per engine and shared by
        every form degree.
        """
        vectors = self.vectors.get(e)
        if vectors is None:
            basis = monomial_basis(self.top, e, self.spec.weights)
            vectors = self.vectors[e] = sorted(
                ((v, w, sum(1 << k for k, a in enumerate(v) if a))
                 for w, group in self.classes.representatives(basis)
                 for v in group), reverse=True)
        return vectors

    def _sources(self, i: int, e: int):
        """(nu, I, orbit size) for the D^i sources of degree e, in
        strand_basis_at_degree's order.

        With no symmetry that is the whole basis at size 1; otherwise the
        orbit representatives: the sources (v - e_I, I) of the
        representative vectors v that are at least 1 on I, for I in
        combinations order and v in lex-descending order.
        """
        if self.classes is None:
            for nu, I in strand_basis_at_degree(self.spec, i, e):
                yield nu, I, 1
            return
        vectors = self._vectors(e)
        for I in combinations(range(self.top), i):
            mask = sum(1 << k for k in I)
            e_I = tuple(int(k in I) for k in range(self.top))
            for v, w, support in vectors:
                if support & mask == mask:
                    yield tuple(map(sub, v, e_I)), I, w

    def _add_degree(self, i: int, e: int) -> int:
        """Feed the D^i columns of source degree e to the accumulator of
        D^i, skipping the sources that are stored pivot rows of D^(i-1)
        (module docstring, "Skipped sources"); return how many sources of
        degree e there are, each counted with its orbit size."""
        reg, row_w = self.rows[i + 1], self.row_w[i + 1]
        acc, column, shift = self.acc[i], self.stencil.column, self.SERIAL_BITS
        own, pivots = self.rows[i], self.acc[i - 1].pivcol if i else {}
        count = 0
        for nu, I, w in self._sources(i, e):
            count += w
            if own.get((nu, I)) in pivots:
                continue
            col = {}
            for key, rise, v in column(nu, I):
                rid = reg.get(key)
                if rid is None:
                    rid = reg[key] = (e + rise) << shift | len(row_w)
                    row_w.append(w)
                col[rid] = v
            if col:
                acc.add_column(primitive_column(col))
        return count

    def _process(self, i: int, bound: int) -> tuple:
        """Sweep D^i up to bound; return its rank and the band rank of
        window (i, bound): the sums of the orbit sizes of all its stored
        pivots and of those of degree > bound."""
        e = self.next_deg[i]
        while e <= bound:
            self.dim_cum[i] += self._add_degree(i, e)
            e += self.spec.modulus
        self.next_deg[i] = e
        row_w, pivots = self.row_w[i + 1], self.acc[i].pivcol
        serial = (1 << self.SERIAL_BITS) - 1
        cut = (bound + 1) << self.SERIAL_BITS   # rows above bound: id >= cut
        return (sum(row_w[r & serial] for r in pivots),
                sum(row_w[r & serial] for r in pivots if r >= cut))

    def dims_at(self, bound: int) -> dict:
        """Windowed dims at bound; raises ValueError below the last bound."""
        if self.bound is not None and bound < self.bound:
            raise ValueError(f"window {bound} is below the last window "
                             f"{self.bound} of this engine")
        self.bound = bound
        rank, band = zip(*(self._process(i, bound)
                           for i in range(self.top + 1)))
        dims = {}
        for i in range(self.top + 1):
            kernel = self.dim_cum[i] - rank[i]
            witnessed = rank[i - 1] - band[i - 1] if i else 0
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
