"""Exponent-lattice classes, variable symmetries and orbit sharing in the
window engine, each against an independent oracle."""

import json
from fractions import Fraction
from functools import partial
from itertools import (combinations, combinations_with_replacement,
                       permutations)
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dworkcohom import (QQ_T, Family, Job, Polynomial, StabilizationPolicy,
                        StrandSpec, dwork, full_complex_spec, run_job,
                        stabilized_cohomology)
from dworkcohom.cli import bundled_corpus_dir, build_parser, parse_polynomial
from dworkcohom.forms import (ColumnStencil, ExponentClasses,
                              strand_basis_at_degree)
from dworkcohom.linalg import _WindowEngine
from dworkcohom.matrices import IntRankAccumulator
from dworkcohom.poly import monomial_basis, variable_symmetries

from _helpers import (UnsplitWindowEngine, act, closure,
                      counted_variable_symmetries, dense_windowed_dims, fermat,
                      filtered_sources, polys, triangle, var)
from oracles import class_key


def fixes(s, f, weights=None):
    return ({act(s, mu): c for mu, c in f.terms.items()} == f.terms
            and (weights is None
                 or all(weights[s[k]] == weights[k] for k in range(len(s)))))


@settings(max_examples=60, deadline=None)
@given(polys(), st.data())
def test_class_key_is_canonical(f, data):
    classes = ExponentClasses(f)
    n = f.nvars
    v = data.draw(st.tuples(*[st.integers(-9, 9)] * n))
    key = classes.reduce(v)
    assert classes.reduce(key) == key
    shift = list(v)
    for mu in f.terms:
        c = data.draw(st.integers(-3, 3))
        shift = [a + c * b for a, b in zip(shift, mu)]
    assert classes.reduce(shift) == key


@settings(max_examples=60, deadline=None)
@given(polys(), st.data())
def test_every_column_entry_lies_in_its_source_class(f, data):
    n = f.nvars
    classes, stencil = ExponentClasses(f), ColumnStencil(f, None, 5 * n)
    nu = data.draw(st.tuples(*[st.integers(0, 4)] * n))
    I = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    source = class_key(classes, nu, I)
    for key, _, _ in stencil.column(stencil.pack(nu, I)):
        target_nu, target_I = stencil.unpack(key)
        assert class_key(classes, target_nu, target_I) == source


@settings(max_examples=60, deadline=None)
@given(polys(), st.data())
def test_symmetries_generate_every_permutation_that_fixes_f(f, data):
    n = f.nvars
    weights = data.draw(st.none() | st.tuples(*[st.integers(1, 2)] * n))
    gens = variable_symmetries(f, weights)
    assert all(fixes(s, f, weights) for s in gens)
    brute = {s for s in permutations(range(n)) if fixes(s, f, weights)}
    assert closure(gens, n) == brute
    classes = ExponentClasses(f, gens)
    v = data.draw(st.tuples(*[st.integers(0, 5)] * n))
    key = classes.reduce(v)
    assert classes.orbit(key) == {classes.reduce(act(s, key)) for s in brute}


def job_polynomials():
    """(F, weights) for the polynomial of every job of the bundled corpus and
    of tests/frozen_reports.json; a gm job adds its perturbation, F_t over
    QQ(t) and F_2."""
    frozen = json.loads((Path(__file__).resolve().parent
                         / "frozen_reports.json").read_text())
    jobs = [json.loads(p.read_text())
            for p in sorted(bundled_corpus_dir().glob("*.job.json"))]
    jobs += [vars(build_parser().parse_args(job["argv"])) for job in frozen]
    out = []
    for job in jobs:
        f = parse_polynomial(job["polynomial"], job["variables"])
        out.append((f, job.get("weights")))
        if job.get("perturbation"):
            fam = Family(f, parse_polynomial(job["perturbation"],
                                             job["variables"]))
            out += [(fam.perturbation, None), (fam.symbolic(), None),
                    (fam.at(2), None)]
    return out


def test_symmetries_are_the_counted_symmetries_on_the_jobs():
    # the same generators in the same order as the search that counted
    # coefficients themselves at every step
    found = [(variable_symmetries(f, w), counted_variable_symmetries(f, w))
             for f, w in job_polynomials()]
    assert [new for new, _ in found] == [old for _, old in found]
    assert sum(bool(new) for new, _ in found) >= 10


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.booleans(), st.data())
def test_symmetries_are_the_counted_symmetries_on_fermat_sums(n, m, over_t,
                                                              data):
    # a Fermat sum with repeated coefficients on permuted variables, plus a
    # Dwork term (times t over QQ(t)), a cross term or neither
    coeffs = st.sampled_from([1, 2, -1, Fraction(1, 2)])
    cs = data.draw(st.lists(coeffs, min_size=n, max_size=n))
    s = data.draw(st.permutations(range(n)))
    f = sum((var(n, s[k]) ** m).scale(c) for k, c in enumerate(cs))
    extra = data.draw(st.sampled_from(["dwork", "cross", None]))
    if extra == "cross":
        f = f + (var(n, s[0]) ** (m - 1) * var(n, s[1])).scale(
            data.draw(coeffs))
    if over_t:
        f = f.map_coefficients(QQ_T.coerce, QQ_T)
    if extra == "dwork":
        prod = Polynomial.monomial(f.field, n, (1,) * n)
        f = f + prod.scale(QQ_T.gen if over_t else data.draw(coeffs))
    weights = data.draw(st.none() | st.tuples(*[st.integers(1, 2)] * n))
    assert (variable_symmetries(f, weights)
            == counted_variable_symmetries(f, weights))


def test_a_symmetry_fixes_f_itself_not_up_to_sign():
    x0, x1 = var(2, 0), var(2, 1)
    assert variable_symmetries(x0 ** 3 - x1 ** 3) == ()
    assert variable_symmetries(x0 ** 3 + x1 ** 3) == ((1, 0),)


def test_unequal_weights_block_a_swap():
    f = var(2, 0) * var(2, 1)
    assert variable_symmetries(f) == ((1, 0),)
    assert variable_symmetries(f, (1, 2)) == ()
    assert variable_symmetries(f, (2, 2)) == ((1, 0),)


def test_cyclic_group_is_found_without_transpositions():
    x = [var(3, k) for k in range(3)]
    gens = variable_symmetries(x[0] ** 2 * x[1] + x[1] ** 2 * x[2]
                               + x[2] ** 2 * x[0])
    assert closure(gens, 3) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def cyclic():
    x = [var(3, k) for k in range(3)]
    return x[0] ** 2 * x[1] + x[1] ** 2 * x[2] + x[2] ** 2 * x[0]


def fraction_cubic():
    x = [var(3, k) for k in range(3)]
    return (Fraction(1, 2) * (x[0] ** 3 + x[1] ** 3)
            - Fraction(3, 2) * x[0] * x[1] * x[2])


def inhomogeneous():
    x, y = var(2, 0), var(2, 1)
    return x ** 3 + y ** 3 + x * y


def fourier_2():
    y = [var(4, k) for k in range(4)]
    return y[0] * y[2] + y[1] * y[3]


# (name, F, spec, policy or None for the default, windows for the dense
# oracle); the policies keep each case within a second or so
CASES = [
    *[(f"fermat(4,4) strand {j}", fermat(4, 4), StrandSpec(4, 4, j),
       StabilizationPolicy(8, 2, 12), ()) for j in range(4)],
    ("x0*x1*x2 strand 0", triangle(), StrandSpec(3, 3, 0), None, (5,)),
    ("x0*x1*x2*x3 strand 0", var(4, 0) * var(4, 1) * var(4, 2) * var(4, 3),
     StrandSpec(4, 4, 0), StabilizationPolicy(12, 4, 16), ()),
    *[(f"cyclic cubic strand {j}", cyclic(), StrandSpec(3, 3, j), None, (5,))
      for j in range(3)],
    ("x^2 + y^3 weighted 3,2", var(2, 0) ** 2 + var(2, 1) ** 3,
     full_complex_spec(2, (3, 2)), None, (7,)),
    ("Fraction cubic strand 0", fraction_cubic(), StrandSpec(3, 3, 0), None,
     ()),
    ("inhomogeneous x^3 + y^3 + x*y", inhomogeneous(), full_complex_spec(2),
     StabilizationPolicy(6, 1, 9), (6,)),
    ("fourier r=2 full complex", fourier_2(), full_complex_spec(4),
     StabilizationPolicy(8), ()),
]


@pytest.mark.parametrize("name, f, spec, policy, dense", CASES,
                         ids=[c[0] for c in CASES])
def test_orbit_sharing_matches_the_unsplit_engine(name, f, spec, policy,
                                                  dense):
    gens = variable_symmetries(f, spec.weights)
    history = stabilized_cohomology(f, spec, policy).certificate.history
    engine = _WindowEngine(f, spec, history[-1][0])
    assert (engine.classes is None) == (not gens)
    classes = ExponentClasses(f, gens)
    unsplit = UnsplitWindowEngine(f, spec, partial(class_key, classes))
    assert len(history) >= 2
    for bound, dims in history:
        want = unsplit.dims_at(bound)
        assert engine.dims_at(bound) == dict(dims) == want, bound
        # every class of an orbit has the same sources, main and band ranks
        for i in range(spec.nvars + 1):
            for key in unsplit.sources[i]:
                ranks = {unsplit.ranks(i, k) for k in classes.orbit(key)}
                assert len(ranks) == 1, (bound, i, key, ranks)
    for bound in dense:
        assert UnsplitWindowEngine(f, spec).dims_at(bound) == \
            _WindowEngine(f, spec, bound).dims_at(bound) == \
            dense_windowed_dims(f, spec, bound)


@settings(max_examples=25, deadline=None)
@given(polys(max_vars=3), st.data())
def test_orbit_sharing_matches_the_unsplit_engine_on_random_input(f, data):
    n = f.nvars
    weights = data.draw(st.none() | st.tuples(*[st.integers(1, 2)] * n))
    m = f.homogeneous_degree(weights)
    spec = full_complex_spec(n, weights)
    if m and data.draw(st.booleans()):
        spec = StrandSpec(n, m, data.draw(st.integers(0, m - 1)), weights)
    bounds = sorted(data.draw(st.sets(st.integers(0, 7), min_size=1,
                                      max_size=3)))
    engine = _WindowEngine(f, spec, bounds[-1])
    unsplit = UnsplitWindowEngine(f, spec)
    for bound in bounds:
        assert engine.dims_at(bound) == unsplit.dims_at(bound), bound


def assert_sources_are_filtered(f, spec, bound):
    """_WindowEngine._sources equals the per-source filter on every form
    degree and every strand degree up to bound: the basis restricted to
    the representative classes, in basis order, each source with the orbit
    size the filter gives it.  With no symmetry that is the whole basis,
    every source at size 1."""
    engine = _WindowEngine(f, spec, bound)
    classes = ExponentClasses(f, variable_symmetries(f, spec.weights))
    for i in range(spec.nvars + 1):
        for e in range(spec.residue, bound + 1, spec.modulus):
            sizes = {source: w for w, sources in
                     filtered_sources(classes, spec, i, e).items()
                     for source in sources}
            basis = strand_basis_at_degree(spec, i, e)
            want = [(nu, I, sizes[nu, I]) for nu, I in basis
                    if (nu, I) in sizes]
            if engine.classes is None:
                assert want == [(nu, I, 1) for nu, I in basis]
            got = [(*engine.stencil.unpack(key), w)
                   for key, w in engine._sources(i, e)]
            assert got == want, (i, e)


# the oracle also runs on a weighted input with a symmetry, and on a strand
# of a weighted one
SOURCE_CASES = [
    *CASES,
    ("x0^2 + x1^2 + x2^3 weighted 3,3,2",
     var(3, 0) ** 2 + var(3, 1) ** 2 + var(3, 2) ** 3,
     full_complex_spec(3, (3, 3, 2)), None, ()),
    ("x0^2*x1^2 + x2^2 weighted 1,1,2 strand 1",
     var(3, 0) ** 2 * var(3, 1) ** 2 + var(3, 2) ** 2,
     StrandSpec(3, 4, 1, (1, 1, 2)), None, ()),
]


@pytest.mark.hash_order
@pytest.mark.parametrize("name, f, spec, policy, dense", SOURCE_CASES,
                         ids=[c[0] for c in SOURCE_CASES])
def test_sources_are_the_filtered_basis(name, f, spec, policy, dense):
    history = stabilized_cohomology(f, spec, policy).certificate.history
    assert_sources_are_filtered(f, spec, history[-1][0])


@pytest.mark.hash_order
@settings(max_examples=40, deadline=None)
@given(polys(max_vars=4), st.data())
def test_sources_are_the_filtered_basis_on_random_input(f, data):
    n = f.nvars
    weights = data.draw(st.none() | st.tuples(*[st.integers(1, 2)] * n))
    m = f.homogeneous_degree(weights)
    spec = full_complex_spec(n, weights)
    if m and data.draw(st.booleans()):
        spec = StrandSpec(n, m, data.draw(st.integers(0, m - 1)), weights)
    assert_sources_are_filtered(f, spec, data.draw(st.integers(0, 8)))


@pytest.mark.hash_order
def test_sources_cost_one_class_key_per_exponent_vector(monkeypatch):
    # x0*x1*x2 strand 0 at its default policy sweeps 28 (form degree,
    # degree) pairs over 3,289 sources; keying every source and walking
    # each new orbit takes 3,859 reductions.  Listing the vectors of each
    # degree once costs one reduction per vector plus the walks: 1,081
    # when each walk applied every generator to every class it reached,
    # 682 now that it applies each level of the stabilizer chain once.
    reductions = []
    original = ExponentClasses.reduce

    def spy(self, v):
        reductions.append(v)
        return original(self, v)

    monkeypatch.setattr(ExponentClasses, "reduce", spy)
    swept = []
    sources = _WindowEngine._sources

    def record(self, i, e):
        swept.append((i, e))
        return sources(self, i, e)

    monkeypatch.setattr(_WindowEngine, "_sources", record)
    spec = StrandSpec(3, 3, 0)
    stabilized_cohomology(triangle(), spec)
    monkeypatch.undo()
    basis = sum(len(strand_basis_at_degree(spec, i, e)) for i, e in swept)
    assert (len(swept), basis) == (28, 3289)
    assert len(reductions) == 682 < basis


def test_sources_walk_no_index_set_wider_than_a_support(monkeypatch):
    # affine x0 + .. + x15 with windows 0, 1 and 2: every source's I lies
    # in the support of an exponent vector of degree <= 2, so only the
    # index sets of size <= e are walked at degree e, 1 + 17 + 137 = 155
    # of them, where walking all 2^16 at each degree took 196,608
    walked = []

    def spy(pool, r):
        for I in combinations(pool, r):
            walked.append(I)
            yield I

    monkeypatch.setattr("dworkcohom.linalg.combinations", spy)
    names = [f"x{k}" for k in range(16)]
    code, report = run_job(Job.from_dict({
        "command": "affine", "polynomial": " + ".join(names),
        "variables": names,
        "policy": {"initial_bound": 0, "step": 1, "max_bound": 2}}))
    assert code == 0 and report["certificate"]["bounds"] == [0, 1, 2]
    assert len(walked) == 155


def test_sources_list_each_degree_once_without_symmetry(monkeypatch):
    # with no variable symmetry the sources come from the same listing of
    # exponent vectors as with one: monomial_basis once per swept degree,
    # shared by every form degree
    f = var(3, 0) ** 3 + 2 * var(3, 1) ** 3 + 3 * var(3, 2) ** 3 \
        + var(3, 0) * var(3, 1) * var(3, 2)
    assert not variable_symmetries(f)
    degrees, swept = [], []
    basis, sources = monomial_basis, _WindowEngine._sources

    def spy(nvars, d, weights=None):
        degrees.append(d)
        return basis(nvars, d, weights)

    def record(self, i, e):
        swept.append(e)
        return sources(self, i, e)

    monkeypatch.setattr("dworkcohom.linalg.monomial_basis", spy)
    monkeypatch.setattr(_WindowEngine, "_sources", record)
    stabilized_cohomology(f, StrandSpec(3, 3, 0))
    assert len(swept) > len(degrees) > 1
    assert degrees == sorted(set(swept))


def test_symmetric_inputs_share_their_orbits():
    # the Fermat quartic's 64 strand-0 classes are the vectors of (Z/4)^4
    # with sum 0 mod 4, and their S4 orbits are the multisets of four
    # residues with sum 0 mod 4
    classes = ExponentClasses(fermat(4, 4), variable_symmetries(fermat(4, 4)))
    keys = {classes.reduce(v) for v in
            [(a, b, c, (-a - b - c) % 4) for a in range(4) for b in range(4)
             for c in range(4)]}
    assert len(keys) == 64
    reps = {min(classes.orbit(k)) for k in keys}
    assert len(reps) == sum(1 for t in combinations_with_replacement(range(4), 4)
                            if sum(t) % 4 == 0)
    assert sum(len(classes.orbit(r)) for r in reps) == 64


def engine_work(monkeypatch, run):
    """(add_column calls, _step calls) of the window engine's accumulators
    while run() runs."""
    counts = [0, 0]
    inside, engine_accs = [], {}
    init = _WindowEngine.__init__
    add, step = IntRankAccumulator.add_column, IntRankAccumulator._step

    def record_init(self, f, spec, max_bound):
        init(self, f, spec, max_bound)
        engine_accs.update((id(acc), acc) for acc in self.acc)

    def count_add(self, col):
        if id(self) not in engine_accs:
            return add(self, col)
        counts[0] += 1
        inside.append(self)
        try:
            return add(self, col)
        finally:
            inside.pop()

    def count_step(col, pcol, r):
        counts[1] += bool(inside)
        return step(col, pcol, r)

    monkeypatch.setattr(_WindowEngine, "__init__", record_init)
    monkeypatch.setattr(IntRankAccumulator, "add_column", count_add)
    monkeypatch.setattr(IntRankAccumulator, "_step", staticmethod(count_step))
    run()
    monkeypatch.undo()
    return tuple(counts)


def dwork_product_of_four():
    names = ["x0", "x1", "x2", "x3"]
    code, _ = run_job(Job.from_dict({"command": "dwork",
                                     "polynomial": "*".join(names),
                                     "variables": names}))
    assert code == 0


def smooth_paths_of_the_fermat_quartic():
    assert dwork.compare_smooth_paths(fermat(4, 4)).ok


# The window engine's work on two symmetric inputs, where the sources of
# every orbit size share one accumulator per differential.  Those sources
# arrive interleaved in basis order, and the pins hold only while each
# class is reduced by its own pivots alone, in its own feed order (linalg
# docstring, "Weighted pivots").  The sources that are stored pivot rows of
# the differential before are not fed ("Skipped sources"); with them fed
# the pins read (7659, 12443) and (1002, 952).  With the oldest-pivot scan
# and the Markowitz key they read (4995, 3765) and (798, 305); each column
# is now stored under its largest row, newest row first within a degree.
@pytest.mark.hash_order
@pytest.mark.parametrize("run, work", [
    (dwork_product_of_four, (4995, 165)),
    (smooth_paths_of_the_fermat_quartic, (798, 0)),
], ids=["dwork x0*x1*x2*x3", "compare_smooth_paths fermat(4,4)"])
def test_engine_pivot_pins_on_symmetric_input(monkeypatch, run, work):
    assert engine_work(monkeypatch, run) == work
