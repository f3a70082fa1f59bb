"""Exact ranks, finite-complex dimensions, and stabilized dimensions."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from dworkcohom import (Job, Polynomial, QQ, QQ_T, StabilizationPolicy,
                        StrandSpec, default_policy, full_complex_spec,
                        jacobian_hilbert, proved_window_cohomology, run_job,
                        stabilized_cohomology, strand_top_dims)
from dworkcohom.exceptions import NotSmoothError
from dworkcohom.matrices import (FieldRankAccumulator, IntRankAccumulator,
                                 integerize_column, rank_of_columns)
from dworkcohom.poly import monomial_basis

from _helpers import (PRIMES_62, DivisionRankAccumulator, dense_rank_fractions,
                      dense_windowed_dims, fermat, quotient_dims,
                      sparse_to_dense, step_one_twist, var)
from oracles import ComplexDims, rank_mod_p


def random_sparse(rng, nrows, ncols, fill=0.12, fractions=True):
    """ncols sparse columns on rows 0..nrows-1."""
    cols = [{} for _ in range(ncols)]
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < fill:
                num = rng.randint(-9, 9)
                den = rng.randint(1, 4) if fractions else 1
                if num:
                    cols[c][r] = Fraction(num, den)
    return cols


def test_rank_trivial_cases():
    eye = [{i: Fraction(1)} for i in range(3)]
    assert rank_of_columns(eye) == 3
    prop = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert rank_of_columns(prop) == 1
    assert rank_of_columns([{} for _ in range(5)]) == 0


def test_rank_against_dense_oracle():
    # the shared elimination loop with each step: fraction-free on
    # integerized columns, and the field-division oracle on the Fraction
    # columns
    rng = random.Random(11)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 12), rng.randint(1, 12))
        field, whole = DivisionRankAccumulator(), IntRankAccumulator()
        for col in m:
            field.add_column(col)
            whole.add_column(integerize_column(col))
        want = dense_rank_fractions(sparse_to_dense(m))
        assert rank_of_columns(m) == field.rank == whole.rank == want


def test_function_field_rank_is_largest_specialized_rank():
    # over QQ(t) the rank is the generic rank: the largest rank among
    # specializations t = t0, attained at all but finitely many t0
    rng = random.Random(23)
    t = QQ_T.gen

    def entry():
        num = rng.randint(-3, 3) + rng.randint(-2, 2) * t + rng.randint(0, 1) * t * t
        return num / (1 + rng.randint(0, 2) * t) if rng.random() < 0.3 else num

    samples = [Fraction(2), Fraction(5, 3), Fraction(17, 4), Fraction(31, 9)]
    ranks = set()
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        cols = [{r: entry() for r in range(nrows) if rng.random() < 0.6}
                for _ in range(ncols)]
        if len(cols) > 1 and rng.random() < 0.6:  # a dependent column
            a, b = entry(), entry()
            cols.append({r: a * cols[0].get(r, QQ_T.zero)
                         + b * cols[1].get(r, QQ_T.zero) for r in range(nrows)})
        acc = FieldRankAccumulator()
        for col in cols:
            acc.add_column(integerize_column(col))
        specialized = max(dense_rank_fractions(
            [[col[r].evaluate(t0) if r in col else Fraction(0) for col in cols]
             for r in range(nrows)]) for t0 in samples)
        assert acc.rank == specialized
        ranks.add((acc.rank, len(cols)))
    assert any(rank < ncols for rank, ncols in ranks)


def test_rank_permutation_invariant():
    rng = random.Random(5)
    m = random_sparse(rng, 15, 20)
    base = rank_of_columns(m)
    for _ in range(5):
        rows = list(range(15))
        cols = list(range(20))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [{rows[r]: v for r, v in m[c].items()} for c in cols]
        assert rank_of_columns(shuffled) == base


def test_rank_modular_oracle_40x60():
    # the exact rank agrees with the best of three 62-bit modular ranks
    rng = random.Random(40)
    m = random_sparse(rng, 40, 60)
    exact = rank_of_columns(m)
    primes = rng.sample(PRIMES_62, 3)
    mod_ranks = [rank_mod_p(m, p) for p in primes]
    assert all(r <= exact for r in mod_ranks)
    assert max(mod_ranks) == exact


def test_rank_over_function_field():
    t = QQ_T.gen
    m = [{0: t, 1: t * t}, {0: QQ_T.one, 1: t}]
    assert rank_of_columns(m) == 1
    m2 = [{0: t, 1: t * t}, {0: QQ_T.one, 1: 1 + t}]
    assert rank_of_columns(m2) == 2


# ---- finite-complex dimensions ----------------------------------------


def test_zero_differentials():
    dims = ComplexDims.from_ranks([3, 4, 2], [rank_of_columns([{}] * 3),
                                              rank_of_columns([{}] * 4)])
    assert [dims.coh(i) for i in range(3)] == [3, 4, 2]
    assert dims.euler_spaces() == dims.euler_cohomology()


def koszul_multiplication_complex(upto):
    """Koszul complex of (x0, x1) acting by multiplication on C[x0, x1].

    Built as a direct sum of whole graded pieces
        C[x]_w -> (C[x]_{w+1})^2 -> C[x]_{w+2},   w = -2 .. upto,
    with d0(p) = (x0 p, x1 p) and d1(p, q) = x1 p - x0 q, so this is an
    honest finite complex (brute-force oracle for the concentration of
    Koszul cohomology of a regular sequence).
    """
    spaces = [0, 0, 0]
    cols0, cols1 = [], []
    row1, row2 = {}, {}
    for w in range(-2, upto + 1):
        b0 = monomial_basis(2, w) if w >= 0 else []
        b1 = monomial_basis(2, w + 1) if w + 1 >= 0 else []
        b2 = monomial_basis(2, w + 2) if w + 2 >= 0 else []
        for s in (0, 1):
            for nu in b1:
                row1.setdefault((w, s, nu), len(row1))
        for nu in b2:
            row2.setdefault((w, nu), len(row2))
        for nu in b0:
            cols0.append({row1[(w, 0, (nu[0] + 1, nu[1]))]: Fraction(1),
                          row1[(w, 1, (nu[0], nu[1] + 1))]: Fraction(1)})
        for s in (0, 1):
            for nu in b1:
                target = (nu[0], nu[1] + 1) if s == 0 else (nu[0] + 1, nu[1])
                cols1.append({row2[(w, target)]: Fraction(1 if s == 0 else -1)})
        spaces[0] += len(b0)
        spaces[1] += 2 * len(b1)
        spaces[2] += len(b2)
    return spaces, [cols0, cols1]


def test_koszul_multiplication_concentrated():
    spaces, mats = koszul_multiplication_complex(6)
    dims = ComplexDims.from_ranks(spaces, [rank_of_columns(m) for m in mats])
    assert dims.coh(0) == 0 and dims.coh(1) == 0
    assert dims.coh(2) == 1
    assert dims.euler_spaces() == dims.euler_cohomology()


def test_truncated_de_rham_one_variable():
    z = Polynomial.zero(QQ, 1)
    dims = quotient_dims(z, full_complex_spec(1), 6)
    assert dims.coh(0) == 1 and dims.coh(1) == 0


def test_complex_dims_invariants():
    with pytest.raises(ValueError):
        ComplexDims(((0, 2, 1, 0),))  # coh != space - out - in


def test_euler_identity_on_assembled_complexes():
    for f, spec, bound in [
            (fermat(3, 3), StrandSpec(3, 3, 0), 9),
            (fermat(3, 3), full_complex_spec(3), 7),
            (var(3, 0) * var(3, 1) * var(3, 2), StrandSpec(3, 3, 2), 8),
            (fermat(2, 2), StrandSpec(2, 2, 1), 6)]:
        dims = quotient_dims(f, spec, bound)
        assert dims.euler_spaces() == dims.euler_cohomology()


# ---- stabilized (windowed) dimensions ----------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        StabilizationPolicy(-1, 1, 5)
    with pytest.raises(ValueError):
        StabilizationPolicy(2, 0, 5)
    with pytest.raises(ValueError):
        StabilizationPolicy(5, 1, 4)
    pol = default_policy(fermat(4, 4), StrandSpec(4, 4, 0))
    assert (pol.initial_bound, pol.step) == (4 * 2 + 4 + 8, 4)
    assert pol.max_bound == pol.initial_bound + 4 * pol.step


def test_unset_policy_keys_take_the_default():
    f, spec = fermat(4, 4), StrandSpec(4, 4, 0)
    fill = lambda **keys: default_policy(f, spec, StabilizationPolicy(**keys))
    assert fill() == default_policy(f, spec) == StabilizationPolicy(20, 4, 36)
    assert fill(step=1) == StabilizationPolicy(20, 1, 24)
    assert fill(initial_bound=3) == StabilizationPolicy(3, 4, 19)
    assert fill(initial_bound=3, step=2) == StabilizationPolicy(3, 2, 11)
    assert fill(max_bound=21) == StabilizationPolicy(20, 4, 21)
    assert fill(initial_bound=0, max_bound=0) == StabilizationPolicy(0, 4, 0)
    with pytest.raises(ValueError, match="max_bound must be >= initial_bound"):
        fill(max_bound=19)  # below the default initial bound
    assert StabilizationPolicy(max_bound=0).initial_bound is None


def test_square_one_variable_strands():
    # mu = 1 class of x^2 lives on strand 1; strand 0 is empty
    f = var(1, 0) ** 2
    full = stabilized_cohomology(f, full_complex_spec(1))
    assert full.dims == {0: 0, 1: 1} and full.stabilized
    assert stabilized_cohomology(f, StrandSpec(1, 2, 0)).dims == {0: 0, 1: 0}
    assert stabilized_cohomology(f, StrandSpec(1, 2, 1)).dims == {0: 0, 1: 1}


def test_windowed_dims_match_independent_formula():
    assert dense_windowed_dims(var(1, 0) ** 2, full_complex_spec(1), 4) \
        == {0: 0, 1: 1}


def test_band_completion_matches_oracle_and_fresh_engine():
    # every call builds a fresh engine, whose bands past its first window
    # are completed from sources it already swept
    f, spec = step_one_twist()
    for pol in (StabilizationPolicy(4, 1, 8), StabilizationPolicy(2, 1, 7)):
        history = stabilized_cohomology(f, spec, pol).certificate.history
        assert len(history) >= 3
        for bound, dims in history:
            assert dict(dims) == dense_windowed_dims(f, spec, bound)


def test_engine_bounds_never_decrease():
    from dworkcohom.linalg import _WindowEngine
    f, spec = step_one_twist()
    engine = _WindowEngine(f, spec)
    first = engine.dims_at(5)
    assert first == dense_windowed_dims(f, spec, 5)
    assert engine.dims_at(5) == first
    with pytest.raises(ValueError):
        engine.dims_at(4)
    assert engine.dims_at(6) == dense_windowed_dims(f, spec, 6)


def test_milnor_numbers_by_truncation():
    assert stabilized_cohomology(var(2, 0) * var(2, 1),
                                 full_complex_spec(2)).dims[2] == 1
    rep = stabilized_cohomology(fermat(3, 3), full_complex_spec(3))
    assert rep.dims == {0: 0, 1: 0, 2: 0, 3: 8}
    assert rep.certificate.agreed and len(rep.certificate.bounds) == 3


def test_unstabilized_is_reported():
    f = fermat(3, 3)
    rep = stabilized_cohomology(f, StrandSpec(3, 3, 0),
                                StabilizationPolicy(2, 3, 5))
    assert not rep.stabilized
    assert rep.certificate.bounds == ()
    assert len(rep.certificate.history) == 2


def test_weighted_cusp_milnor():
    # x^2 + y^3: quasi-homogeneous for weights (3, 2), Milnor number 2
    f = var(2, 0) ** 2 + var(2, 1) ** 3
    spec = full_complex_spec(2, weights=(3, 2))
    rep = stabilized_cohomology(f, spec)
    assert rep.dims == {0: 0, 1: 0, 2: 2}
    assert rep.stabilized


# ---- the proved window at N0 = socle + nvars -------------------------------


def _all_specs(f):
    m = f.homogeneous_degree()
    return ([StrandSpec(f.nvars, m, j) for j in range(m)]
            + [full_complex_spec(f.nvars)])


@pytest.mark.parametrize("m,nvars", [(2, 3), (3, 3), (4, 3)])
def test_proved_window_equals_three_windows(m, nvars):
    f = fermat(m, nvars)
    profile = jacobian_hilbert(f)
    for spec in _all_specs(f):
        proved = proved_window_cohomology(f, spec, profile)
        evidence = stabilized_cohomology(f, spec)
        assert proved.dims == evidence.dims
        assert evidence.certificate.proof is None
        cert = proved.certificate
        assert cert.agreed and cert.bounds == (profile.socle + nvars,)
        assert cert.proof.smooth and cert.proof.window == cert.bounds[0]


def test_proved_window_on_the_k3_strand_and_its_sharp_bound():
    # x0^4 + .. + x3^4: N0 = 8 + 4 = 12, and one window lower misses a class
    from dworkcohom.linalg import _WindowEngine
    f = fermat(4, 4)
    spec = StrandSpec(4, 4, 0)
    proved = proved_window_cohomology(f, spec, jacobian_hilbert(f))
    assert proved.dims == stabilized_cohomology(f, spec).dims
    assert proved.dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 21}
    assert proved.certificate.bounds == (12,)
    assert _WindowEngine(f, spec).dims_at(11)[4] == 20


def _random_smooth_plane_curves(rng, degree, count):
    monos = monomial_basis(3, degree)
    found = []
    while len(found) < count:
        support = rng.sample(monos, rng.randint(4, len(monos)))
        f = Polynomial(QQ, 3, {nu: rng.choice((-2, -1, 1, 2))
                               for nu in support})
        profile = jacobian_hilbert(f)
        if profile.smooth:
            found.append((f, profile))
    return found


def test_proved_window_matches_jacobian_path_on_random_curves():
    # the default schedule costs up to tens of seconds on some random
    # cubics, so the Jacobian ring is the oracle here
    rng = random.Random(20)
    curves = (_random_smooth_plane_curves(rng, 3, 12)
              + _random_smooth_plane_curves(rng, 4, 8))
    for f, profile in curves:
        m = profile.modulus
        for j in range(m):
            rep = proved_window_cohomology(f, StrandSpec(3, m, j), profile)
            assert rep.dims == {0: 0, 1: 0, 2: 0,
                                3: strand_top_dims(profile, j)}, (f, j)


def test_windowed_dims_grow_to_the_proved_window():
    # below the top degree every window reads 0; the top degree never
    # decreases and has reached its final value at N0
    from dworkcohom.linalg import _WindowEngine
    f = fermat(3, 3)
    profile = jacobian_hilbert(f)
    n0 = profile.socle + f.nvars
    for j in range(3):
        engine = _WindowEngine(f, StrandSpec(3, 3, j))
        tops = []
        for bound in range(n0 + 2 * 3 + 1):
            dims = engine.dims_at(bound)
            assert [dims[k] for k in range(3)] == [0, 0, 0]
            tops.append(dims[3])
        assert tops == sorted(tops)
        assert tops[n0] == tops[-1] == strand_top_dims(profile, j)


def test_proved_window_needs_its_hypotheses():
    triangle = var(3, 0) * var(3, 1) * var(3, 2)
    with pytest.raises(NotSmoothError):
        proved_window_cohomology(triangle, StrandSpec(3, 3, 0),
                                 jacobian_hilbert(triangle))
    f = fermat(3, 3)
    with pytest.raises(ValueError):
        proved_window_cohomology(f, StrandSpec(3, 3, 0, (1, 1, 1)),
                                 jacobian_hilbert(f))
    with pytest.raises(ValueError):
        proved_window_cohomology(f, StrandSpec(3, 3, 0),
                                 jacobian_hilbert(fermat(4, 3)))


def test_no_engine_outlives_its_call(monkeypatch):
    from dworkcohom import linalg
    made = []

    class Tracked(linalg._WindowEngine):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(linalg, "_WindowEngine", Tracked)
    code, report = run_job(Job.from_dict(
        {"command": "dwork", "polynomial": "x0*x1*x2",
         "variables": ["x0", "x1", "x2"]}))
    assert code == 0 and "proof" not in report["certificate"]
    f = fermat(3, 3)
    proved_window_cohomology(f, StrandSpec(3, 3, 0), jacobian_hilbert(f))
    gc.collect()
    assert len(made) == 2
    assert all(ref() is None for ref in made)


def test_certificate_json_names_a_proof_only_when_proved():
    f = fermat(3, 3)
    spec = StrandSpec(3, 3, 0)
    proved = proved_window_cohomology(f, spec, jacobian_hilbert(f))
    assert proved.certificate.to_json_dict() == {
        "bounds": [6], "agreed": True,
        "proof": {"kind": "koszul-window", "smooth": True, "socle": 3,
                  "window": 6}}
    evidence = stabilized_cohomology(f, spec).certificate.to_json_dict()
    assert set(evidence) == {"bounds", "agreed"}
