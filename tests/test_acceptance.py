"""Acceptance suite: every criterion at its stated tolerance (exact equality).

Each test prints one line

    ACCEPTANCE <n> <name>: PASS (<elapsed>s, budget <budget>s)

and enforces both the exact dimension identities and the stated runtime
budget.  Run standalone with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from dworkcohom import (GriffithsDworkReducer, Polynomial, QQ, StrandSpec,
                        affine_twisted_cohomology, ci_dwork_koszul,
                        compare_smooth_paths, connection_matrix,
                        connection_properties_check, fourier_lemma_check,
                        full_complex_spec, jacobian_hilbert,
                        primitive_dwork_cohomology, stabilized_cohomology,
                        strand_decomposition, suspension_check,
                        thom_sebastiani_check, Family)
from dworkcohom.matrices import rank_of_columns

from _helpers import PRIMES_62, fermat, quotient_dims, triangle, var
from oracles import DifferentialForm, dF_only_cohomology, rank_mod_p


class Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.budget else "FAIL (over budget)"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"runtime {elapsed:.2f}s over budget"


def hodge_vector(f):
    return tuple(h for _, h in jacobian_hilbert(f).hodge_numbers())


def test_criterion_1_hodge_numbers_jacobian_path():
    crit = Criterion(1, "primitive Hodge numbers via the Jacobian path", 120)
    t0 = time.perf_counter()
    assert hodge_vector(fermat(3, 3)) == (1, 1)
    assert hodge_vector(fermat(4, 4)) == (1, 19, 1)
    small_elapsed = time.perf_counter() - t0
    assert small_elapsed < 1.0, "cubic and quartic must finish within 1 s"
    assert hodge_vector(fermat(5, 5)) == (1, 101, 101, 1)
    crit.done()


def test_criterion_2_two_path_agreement():
    crit = Criterion(2, "two-path agreement on the smooth corpus", 300)
    for f in [fermat(2, 3), fermat(3, 3), fermat(4, 3), fermat(4, 4)]:
        verdict = compare_smooth_paths(f)
        assert verdict.ok, verdict.failed()
    crit.done()


def test_criterion_3_singular_triangle():
    crit = Criterion(3, "singular triangle of lines in P^2", 60)
    rep = primitive_dwork_cohomology(triangle())
    # oracle: reduced Betti numbers (0, 2, 1) of the 2-torus complement
    assert rep.dims == {0: 0, 1: 0, 2: 2, 3: 1}
    assert rep.path == "truncation"
    assert rep.certificate is not None and rep.certificate.agreed
    assert len(rep.certificate.bounds) == 3
    crit.done()


def test_criterion_4_milnor_numbers_affine():
    crit = Criterion(4, "Milnor numbers via affine twisted cohomology", 120)
    cases = [(2, 1, 1), (3, 2, 4), (3, 3, 8), (4, 4, 81)]
    for m, nvars, mu in cases:
        rep = affine_twisted_cohomology(fermat(m, nvars))
        assert rep.dim(nvars) == mu
        assert all(rep.dim(k) == 0 for k in range(nvars))
    # cross-check one case through the truncation engine
    forced = stabilized_cohomology(fermat(3, 2), full_complex_spec(2))
    assert forced.dims == {0: 0, 1: 0, 2: 4} and forced.stabilized
    crit.done()


def test_criterion_5_strand_decomposition():
    crit = Criterion(5, "strand decomposition and sum identity", 120)
    reps = strand_decomposition(fermat(4, 4)).reports[:-1]
    assert [r.dim(4) for r in reps] == [21, 20, 20, 20]
    assert sum(r.dim(4) for r in reps) == 81
    # degreewise strand-sum identity on every corpus entry
    # (strand_decomposition verifies the sum against an independent
    # full-complex computation and raises on mismatch)
    for f in [fermat(2, 3), fermat(3, 3), fermat(4, 3), fermat(5, 5),
              triangle()]:
        strand_decomposition(f)
    crit.done()


def test_criterion_6_thom_sebastiani_and_suspension():
    crit = Criterion(6, "Thom-Sebastiani and suspension additivity", 180)
    for f in [fermat(2, 3), fermat(3, 3), fermat(4, 3), fermat(4, 4)]:
        m = f.homogeneous_degree()
        verdict = thom_sebastiani_check(f)
        assert verdict.ok, verdict.failed()
        full_f, _, full_ft = verdict.reports[0], verdict.reports[1], verdict.reports[2]
        assert full_ft.dim(f.nvars + 1) == full_f.dim(f.nvars) * (m - 1)
    # 8 = 6 + 2 for the cubic curve/surface pair, three in-engine sides
    verdict = suspension_check(fermat(3, 3))
    assert verdict.ok
    u_side, prim_ft, prim_f = verdict.reports
    assert (u_side.dim(3), prim_ft.dim(4), prim_f.dim(3)) == (8, 6, 2)
    # mixed-path variant: U-side forced through truncation, prim sides
    # through the Jacobian ring
    forced_u = stabilized_cohomology(fermat(3, 3), full_complex_spec(3))
    assert forced_u.stabilized and forced_u.dim(3) == 8
    assert forced_u.dim(3) == (primitive_dwork_cohomology(_suspend_cubic()).dim(4)
                               + primitive_dwork_cohomology(fermat(3, 3)).dim(3))
    crit.done()


def _suspend_cubic():
    return fermat(3, 3).extend(4) + var(4, 3) ** 3


def test_criterion_7_ci_koszul():
    crit = Criterion(7, "complete-intersection Koszul complexes", 60)
    rep = ci_dwork_koszul([var(1, 0) ** 2 - 1], 10)
    assert rep.dims[2] == 2 and rep.total() == 2 and rep.stabilized
    rep = ci_dwork_koszul([var(1, 0)], 8)
    assert rep.dims[2] == 1 and rep.total() == 1 and rep.stabilized
    rep = ci_dwork_koszul([var(2, 0), var(2, 1)], 8)
    assert rep.dims[4] == 1 and rep.total() == 1 and rep.stabilized
    crit.done()


def test_criterion_8_fourier_lemma():
    crit = Criterion(8, "Fourier lemma concentration", 60)
    for r in (1, 2):
        verdict = fourier_lemma_check(r, 8)
        assert verdict.ok, verdict.failed()
        rep = verdict.reports[0]
        assert rep.certificate.agreed and len(rep.certificate.bounds) == 3
    crit.done()


def test_criterion_9_gauss_manin():
    crit = Criterion(9, "Gauss-Manin connection properties", 120)
    xyz = var(3, 0) * var(3, 1) * var(3, 2)
    fam = Family(fermat(3, 3), xyz.scale(-3))
    one = Polynomial.constant(QQ, 3, 1)
    # frozen regression values from the independent desk reduction
    reducer = GriffithsDworkReducer(fam.symbolic())
    mat = connection_matrix(reducer, fam.perturbation, [one, xyz])
    assert [[str(e) for e in row] for row in mat.entries] == \
        [["0", "(t)/(3*t^3 - 3)"], ["-3", "(-3*t^2)/(t^3 - 1)"]]
    # three specializations and a fixed conjugation
    verdict = connection_properties_check(fam, [0, 2, -1], reducer, mat)
    assert verdict.ok, verdict.failed()
    assert len([c for c in verdict.checks if "specialize" in c.name]) == 3
    crit.done()


def test_criterion_10_property_suites():
    crit = Criterion(10, "standalone property suites", 120)
    # D o D = 0 on 200 random forms
    rng = random.Random(100)
    twists = [fermat(3, 3), triangle(), fermat(4, 3)]
    for trial in range(200):
        f = twists[trial % 3]
        degree = rng.randrange(3)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            I = tuple(sorted(rng.sample(range(3), degree)))
            nu = tuple(rng.randrange(4) for _ in range(3))
            terms[(nu, I)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        form = DifferentialForm(QQ, 3, degree, terms)
        assert not form.twisted_differential(f).twisted_differential(f)
    # Euler characteristic identity on every computed finite complex
    computed = [
        quotient_dims(fermat(3, 3), StrandSpec(3, 3, 0), 9),
        quotient_dims(triangle(), full_complex_spec(3), 7),
        dF_only_cohomology(fermat(4, 4), StrandSpec(4, 4, 0), 12),
        dF_only_cohomology(fermat(3, 3), full_complex_spec(3), 9),
    ]
    for dims in computed:
        assert dims.euler_spaces() == dims.euler_cohomology()
    # Gorenstein symmetry and the Milnor formula on every smooth input
    for m, nvars in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 4), (5, 5)]:
        profile = jacobian_hilbert(fermat(m, nvars))
        assert profile.smooth
        hs = list(profile.hilbert[:profile.socle + 1])
        assert hs == hs[::-1]
        assert profile.milnor == (m - 1) ** nvars
    # modular-rank oracle agreement on 50 random matrices
    rng = random.Random(200)
    for _ in range(50):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
        mat = [{} for _ in range(ncols)]
        for r in range(nrows):
            for c in range(ncols):
                if rng.random() < 0.3:
                    v = rng.randint(-9, 9)
                    if v:
                        mat[c][r] = Fraction(v, rng.randint(1, 3))
        exact = rank_of_columns(mat)
        ranks = [rank_mod_p(mat, p) for p in rng.sample(PRIMES_62, 3)]
        assert all(r <= exact for r in ranks)
        assert max(ranks) == exact
    crit.done()
