"""Gauss-Manin connection matrices for the Dwork cubic family."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dworkcohom import (Family, GriffithsDworkReducer, Polynomial, QQ, QQ_T,
                        RatFunc, connection_matrix,
                        connection_properties_check, jacobian_hilbert,
                        monomial_basis, rational_connection_matrix)
from dworkcohom.exceptions import BasisError, NonHomogeneousError, NotSmoothError
from dworkcohom import gaussmanin, griffiths, poly
from dworkcohom.gaussmanin import ConnectionMatrix, _DegreeSolver, _rational_roots
from dworkcohom.fields import poly_mul
from dworkcohom.matrices import FieldRankAccumulator, IntRankAccumulator
from _helpers import (DivisionReducer, PerColumnSolver, TupleWalkSolver,
                      _test_invertible_matrix, all_macaulay_columns,
                      consuming_step, cross_multiplied_step, dense_matmul,
                      family_matrix, fermat, field_solve,
                      solved_conjugation_check, solved_connection_matrix,
                      triangle, trial_division_roots, var)


def dwork_family():
    xyz = var(3, 0) * var(3, 1) * var(3, 2)
    return Family(fermat(3, 3), xyz.scale(-3)), xyz


def test_family_validation():
    with pytest.raises(NonHomogeneousError):
        Family(var(2, 0) ** 2 + var(2, 1), Polynomial.zero(QQ, 2))
    with pytest.raises(NonHomogeneousError):
        Family(fermat(3, 3), var(3, 0) ** 2)
    with pytest.raises(ValueError):
        Family(fermat(3, 3), var(2, 0) ** 3)


def test_constant_family_zero_matrix():
    fam = Family(fermat(3, 3), Polynomial.zero(QQ, 3))
    _, mat = family_matrix(fam)
    assert not mat.nonzero
    assert mat.size == 2


def test_dwork_family_frozen_matrix():
    # Regression values frozen from an independent desk reduction.
    # With F_t = x^3 + y^3 + z^3 - 3t xyz, u = [dx], v = [xyz dx], applying
    # [Q dF/dx_i dx] = -[dQ/dx_i dx] three times around the symmetry gives
    #   [x^2 y^2 z^2 dx] = t/(9(1-t^3)) u - t^2/(1-t^3) v,
    # so the derivative action is
    #   u -> -3 v,   v -> -t/(3(1-t^3)) u + 3 t^2/(1-t^3) v.
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    _, mat = family_matrix(fam, [one, xyz])
    strings = [[str(e) for e in row] for row in mat.entries]
    assert strings == [["0", "(t)/(3*t^3 - 3)"],
                       ["-3", "(-3*t^2)/(t^3 - 1)"]]
    assert [str(r) for r in mat.discriminant_roots] == ["1"]


def test_dwork_family_specializations():
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    _, mat = family_matrix(fam, [one, xyz])
    assert mat.specialize(0) == ((Fraction(0), Fraction(0)),
                                 (Fraction(-3), Fraction(0)))
    assert mat.specialize(2) == ((Fraction(0), Fraction(2, 21)),
                                 (Fraction(-3), Fraction(-12, 7)))
    with pytest.raises(ZeroDivisionError):
        mat.specialize(1)


def test_specialization_commutes_with_computation():
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    _, mat = family_matrix(fam, [one, xyz])
    for t0 in (0, 2, -1, Fraction(1, 2)):
        direct = rational_connection_matrix(fam.at(t0), fam.perturbation,
                                            basis=[one, xyz])
        assert mat.specialize(t0) == direct.entries


def test_default_basis_is_deterministic():
    fam, _ = dwork_family()
    _, a = family_matrix(fam)
    _, b = family_matrix(fam)
    assert a.basis == b.basis and a.entries == b.entries


def test_diagonal_rescale_conjugates():
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    _, base = family_matrix(fam, [one, xyz])
    _, scaled = family_matrix(fam, [one.scale(5), xyz.scale(Fraction(-2, 3))])
    c0, c1 = Fraction(5), Fraction(-2, 3)
    assert scaled.entries[0][0] == base.entries[0][0]
    assert scaled.entries[1][1] == base.entries[1][1]
    assert scaled.entries[0][1] == base.entries[0][1] * (c1 / c0)
    assert scaled.entries[1][0] == base.entries[1][0] * (c0 / c1)


def test_properties_check_full():
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    verdict = connection_properties_check(fam, [0, 2, -1],
                                          *family_matrix(fam, [one, xyz]))
    assert verdict.ok
    names = [c.name for c in verdict.checks]
    assert any("conjugates" in n for n in names)


def test_exported_path_builds_one_symbolic_reducer(monkeypatch):
    # the gm command's path as the package exports it: one QQ(t) reducer
    # serves the matrix and the basis-change check, and each sample builds
    # one QQ reducer, for its direct matrix
    fields = []
    init = GriffithsDworkReducer.__init__

    def counted_init(self, f):
        fields.append(f.field)
        init(self, f)

    monkeypatch.setattr(GriffithsDworkReducer, "__init__", counted_init)
    fam, xyz = dwork_family()
    reducer = GriffithsDworkReducer(fam.symbolic())
    mat = connection_matrix(reducer, fam.perturbation,
                            [Polynomial.constant(QQ, 3, 1), xyz])
    verdict = connection_properties_check(fam, [0, 2, -1], reducer, mat)
    assert verdict.ok and len(verdict.checks) == 4
    assert fields == [QQ_T, QQ, QQ, QQ]


def cubic_family(name):
    """The three cubic families of tests/frozen_reports.json."""
    fam, xyz = dwork_family()
    return {"default": (fam, None),
            "1;x0*x1*x2": (fam, [Polynomial.constant(QQ, 3, 1), xyz]),
            "base x0*x1*x2": (Family(xyz, fermat(3, 3)), None)}[name]


CUBIC_FAMILIES = ["default", "1;x0*x1*x2", "base x0*x1*x2"]


def conjugation_check(fam, reducer, matrix):
    """connection_properties_check's basis-change check alone (no samples)."""
    [check] = connection_properties_check(fam, [], reducer, matrix).checks
    assert check.name == "basis change conjugates the matrix"
    return check


@pytest.mark.parametrize("rescale", [False, True], ids=["given", "rescaled"])
@pytest.mark.parametrize("name", CUBIC_FAMILIES)
def test_product_check_passes_with_the_solved_check(name, rescale):
    fam, basis = cubic_family(name)
    reducer = GriffithsDworkReducer(fam.symbolic())
    if rescale:
        b = connection_matrix(reducer, fam.perturbation, basis).basis
        basis = [b[0].scale(5), b[1].scale(Fraction(-2, 3))]
    sym = connection_matrix(reducer, fam.perturbation, basis)
    assert conjugation_check(fam, reducer, sym).passed
    assert solved_conjugation_check(reducer, fam.perturbation, sym).passed


@pytest.mark.parametrize("coord", [0, 1])
@pytest.mark.parametrize("name", ["default", "base x0*x1*x2"])
def test_reduce_scaling_one_coordinate_fails_the_check(monkeypatch, name,
                                                       coord):
    reduce = GriffithsDworkReducer.reduce

    def scaled(self, p):
        coords = reduce(self, p)
        if coord in coords:
            coords[coord] = coords[coord] * 3
        return coords

    monkeypatch.setattr(GriffithsDworkReducer, "reduce", scaled)
    fam, _ = cubic_family(name)
    assert not conjugation_check(fam, *family_matrix(fam)).passed
    # on a given basis M absorbs the scale, so the check cannot see it
    one, xyz = Polynomial.constant(QQ, 3, 1), triangle()
    assert conjugation_check(fam, *family_matrix(fam, [one, xyz])).passed


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("name", ["default", "base x0*x1*x2"])
def test_matrix_with_one_entry_changed_fails_the_check(name, i, j):
    fam, _ = cubic_family(name)
    reducer = GriffithsDworkReducer(fam.symbolic())
    sym = connection_matrix(reducer, fam.perturbation)
    changed = {**sym.nonzero, (i, j): sym.entries[i][j] + 1}
    bad = ConnectionMatrix(sym.basis, {k: e for k, e in changed.items() if e},
                           sym.field)
    assert conjugation_check(fam, reducer, sym).passed
    assert not conjugation_check(fam, reducer, bad).passed


def test_discriminant_sample_reported():
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    verdict = connection_properties_check(fam, [1],
                                          *family_matrix(fam, [one, xyz]))
    assert not verdict.checks[0].passed
    assert verdict.checks[0].rhs == "discriminant sample"


def test_bad_basis_rejected():
    fam, xyz = dwork_family()
    one = Polynomial.constant(QQ, 3, 1)
    with pytest.raises(BasisError):
        family_matrix(fam, [one])
    with pytest.raises(BasisError):
        family_matrix(fam, [one, one.scale(2)])


def test_nonsmooth_generic_family_rejected():
    fam = Family(triangle(), Polynomial.zero(QQ, 3))
    with pytest.raises(NotSmoothError):
        family_matrix(fam)


def test_quartic_family_constant_and_shape():
    # K3 family: strand-0 cohomology has dimension 21
    x3 = var(4, 3)
    fam = Family(fermat(4, 4), (var(4, 0) * var(4, 1) * var(4, 2) * x3))
    _, mat = family_matrix(fam)
    assert mat.size == 21
    assert mat.nonzero


def test_rational_roots_of_a_large_content():
    # 2^64 (t^2 - 1): the Sturm sequence and its root bound see only the
    # primitive part t^2 - 1
    p = tuple(c * 2 ** 64 for c in (-1, 0, 1))
    assert _rational_roots(p) == (Fraction(-1), Fraction(1))
    assert _rational_roots((0, -3, 0, 0, 3)) == (Fraction(0), Fraction(1))


small_factors = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda f: f[1]),
    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(small_factors, st.sampled_from([(1,), (1, 0, 1), (-2, 0, 1),
                                       (1, 1, 1), (-3,)]))
def test_rational_roots_agree_with_trial_division(factors, rest):
    # products of linear factors a + b*t, repeats included, times a factor
    # with no rational root
    p = rest
    for f in factors:
        p = poly_mul(p, f)
    assert _rational_roots(p) == trial_division_roots(p)


# ---- the fraction-free Griffiths-Dwork solver ---------------------------


def k3_family():
    return Family(fermat(4, 4), (var(4, 0) * var(4, 1) * var(4, 2)
                                 * var(4, 3)).scale(-4))


def random_part(rng, field, nvars, d):
    """A random polynomial of degree d; over QQ(t) its coefficients are
    random linear polynomials in t."""
    terms = {}
    for nu in monomial_basis(nvars, d):
        if rng.random() < 0.6:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if field is QQ_T:
                c = RatFunc.from_fraction(c) + QQ_T.gen * rng.randint(-3, 3)
            terms[nu] = c
    return Polynomial(field, nvars, terms)


@pytest.mark.parametrize("family, degrees", [
    (dwork_family()[0], (3, 4, 6)),
    (k3_family(), (4, 5, 8)),
], ids=["cubic-QQ", "k3-QQ"])
def test_gcd_step_keeps_the_echelon(family, degrees):
    # the solver borrows IntRankAccumulator._step; with the step before its
    # gcd it stores the same pivot columns, rows in the same order, and
    # returns the same solves
    f = family.at(2)
    reducer = GriffithsDworkReducer(f)
    rng = random.Random(19)
    for d in degrees:
        parts = [random_part(rng, QQ, f.nvars, d).terms for _ in range(3)]
        new, old = (_DegreeSolver(reducer.partials, QQ, f.nvars,
                                  reducer.m - 1, d) for _ in range(2))
        old._step = cross_multiplied_step
        assert ([field_solve(new, p) for p in parts]
                == [field_solve(old, p) for p in parts])
        assert new.standard_monomials == old.standard_monomials
        assert ([(r, list(c.items())) for r, c in new.pivots.items()]
                == [(r, list(c.items())) for r, c in old.pivots.items()])


@pytest.mark.parametrize("family, symbolic, degrees", [
    (dwork_family()[0], False, (3, 4, 6, 9)),
    (k3_family(), False, (4, 5, 8, 12)),
    (dwork_family()[0], True, (3, 6, 9)),
    (k3_family(), True, (4, 8)),
], ids=["cubic-QQ", "k3-QQ", "cubic-QQ(t)", "k3-QQ(t)"])
def test_degree_solver_identity(family, symbolic, degrees):
    # part == sum of std terms + sum lambda * g * dF/dx_i, exactly
    f = family.symbolic() if symbolic else family.at(2)
    reducer = GriffithsDworkReducer(f)
    rng = random.Random(7)
    for d in degrees:
        solver = reducer._solver(d)
        for _ in range(3):
            part = random_part(rng, f.field, f.nvars, d)
            std, combo = field_solve(solver, part.terms)
            total = Polynomial.zero(f.field, f.nvars)
            for nu, c in std.items():
                total = total + Polynomial.monomial(f.field, f.nvars, nu).scale(c)
            for (i, g), lam in combo.items():
                total = total + (Polynomial.monomial(f.field, f.nvars, g)
                                 * reducer.partials[i]).scale(lam)
            assert total == part


@pytest.mark.parametrize("family", [dwork_family()[0], k3_family()],
                         ids=["cubic", "k3"])
def test_rational_matrix_is_the_specialized_symbolic_matrix(family):
    # the integer (fraction-free) path against the QQ(t) field path
    _, sym = family_matrix(family)
    for t0 in (2, Fraction(1, 3), Fraction(-5, 2)):
        direct = rational_connection_matrix(family.at(t0), family.perturbation,
                                            basis=list(sym.basis))
        assert direct.entries == sym.specialize(t0)


def leading_rows_oracle(solver, partials, nvars, gen_degree):
    """Standard monomials of one degree by dense row reduction: row r leads
    some vector of the Macaulay column space exactly when it is not in the
    span of the rows above it."""
    d = solver.degree
    cols = all_macaulay_columns(partials, monomial_basis(nvars, d - gen_degree))
    basis = {}   # leading column -> reduced row, leading entry 1
    std = []
    for nu in monomial_basis(nvars, d):
        row = [Fraction(col.get(nu, 0)) for col in cols]
        for c, b in basis.items():
            if row[c]:
                row = [x - row[c] * y for x, y in zip(row, b)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            std.append(nu)
        else:
            basis[lead] = [x / row[lead] for x in row]
    return std


@pytest.mark.parametrize("family", [dwork_family()[0], k3_family()],
                         ids=["cubic", "k3"])
def test_standard_monomials_per_degree(family):
    at2 = GriffithsDworkReducer(family.at(2))
    sym = GriffithsDworkReducer(family.symbolic())
    assert at2.std_basis == sym.std_basis
    profile = jacobian_hilbert(family.at(2))
    for d in at2.std_degrees:
        solver = at2._solver(d)
        assert len(solver.standard_monomials) == profile.h(d)
        assert solver.standard_monomials == leading_rows_oracle(
            solver, at2.partials, at2.nvars, at2.m - 1)


# ---- block closure: a solve eliminates only the blocks it meets ---------


QUINTIC_T2_DIGEST = ("1241d2d1de8703ecd68bb4fee422cb73"
                     "f5a0f8af18aff98c05d996b9b2c57020")


def dwork_quintic():
    """F_2 = sum x_i^5 - 10 x0x1x2x3x4 and the perturbation -5 x0x1x2x3x4."""
    prod = var(5, 0) * var(5, 1) * var(5, 2) * var(5, 3) * var(5, 4)
    return fermat(5, 5) + prod.scale(-10), prod.scale(-5)


def test_quintic_connection_matrix_digest():
    f, g = dwork_quintic()
    mat = rational_connection_matrix(f, g)
    assert mat.size == 204
    text = json.dumps(mat.entry_strings())
    assert hashlib.sha256(text.encode()).hexdigest() == QUINTIC_T2_DIGEST


def test_symbolic_quintic_specializes_to_the_digest():
    # the symbolic matrix of F_t = sum x_i^5 - 5t x0x1x2x3x4, specialized at
    # t = 2, is the matrix computed over QQ at F_2; its denominator, the
    # one the gm report prints, is 125 t^3 (t^5 - 1), the lcm over Z[t] of
    # the entry denominators
    f, g = dwork_quintic()
    _, mat = family_matrix(Family(f - g.scale(2), g))
    assert mat.size == 204
    text = json.dumps([[str(e) for e in row] for row in mat.specialize(2)])
    assert hashlib.sha256(text.encode()).hexdigest() == QUINTIC_T2_DIGEST
    c = 125
    assert mat.denominator == (0, 0, 0, -c, 0, 0, 0, 0, c)
    assert mat.discriminant_roots == (0, 1)


# ---- the Picard-Fuchs block of the Dwork pencils -------------------------


T = QQ_T.gen

# Columns j of each block, rows in basis order, as read on the engine: the
# coefficients of 1, x_n^m, .., x_n^(m(m-2)) in the derivative of form j.
PENCIL_BLOCKS = {
    3: [(-1 / T, -3 / T),
        (-2 / (3 * T ** 4 - 3 * T), (-T ** 3 - 2) / (T ** 4 - T))],
    4: [(-1 / T, -4 / T, 0), (0, -5 / T, -4 / T),
        (-3 / (8 * T ** 5 - 8 * T), (16 * T ** 4 - 51) / (4 * T ** 5 - 4 * T),
         (3 * T ** 4 - 9) / (T ** 5 - T))],
    5: [(-1 / T, -5 / T, 0, 0), (0, -6 / T, -5 / T, 0),
        (0, 0, -11 / T, -5 / T),
        (-24 / (125 * T ** 6 - 125 * T), (5 * T ** 5 - 24) / (T ** 6 - T),
         (35 * T ** 5 - 72) / (T ** 6 - T), (14 * T ** 5 - 24) / (T ** 6 - T))],
}


@pytest.mark.parametrize("m", sorted(PENCIL_BLOCKS))
def test_dwork_pencil_block_is_invariant(m):
    # F_t = sum x_i^m - m t x_0..x_n: on the default basis the forms 1,
    # x_n^m, .., x_n^(m(m-2)) span an invariant block, the one that carries
    # the Picard-Fuchs operator; no nonzero entry crosses it, and its
    # columns are pinned (upper Hessenberg, subdiagonal -m/t)
    prod = Polynomial.monomial(QQ, m, (1,) * m)
    _, mat = family_matrix(Family(fermat(m, m), prod.scale(-m)))
    block = [mat.basis.index(Polynomial.monomial(
        QQ, m, (0,) * (m - 1) + (m * k,))) for k in range(m - 1)]
    inside = set(block)
    assert [(i, j) for i, j in mat.nonzero
            if (i in inside) != (j in inside)] == []
    assert [tuple(mat.nonzero.get((i, j), 0) for i in block)
            for j in block] == PENCIL_BLOCKS[m]


def test_solve_eliminates_only_its_block():
    # the socle class times the perturbation lands in degree 20, in one block
    # of 126 of the 10,626 rows and 126 of the 24,225 Macaulay columns (0.5 %):
    # the block's columns that Koszul syzygies make redundant are skipped,
    # and with grevlex leads the kept ones are independent, so it is square
    f, _ = dwork_quintic()
    reducer = GriffithsDworkReducer(f)
    solver = reducer._solver(20)
    columns = 5 * len(monomial_basis(5, 16))
    assert columns == 24225
    part = Polynomial.monomial(QQ, 5, (4, 4, 4, 4, 4))
    std, combo = field_solve(solver, part.terms)
    assert not std
    assert len(solver.pivots) == 126
    assert len(solver._closed_rows) == 126
    total = Polynomial.zero(QQ, 5)
    for (i, g), lam in combo.items():
        total = total + (Polynomial.monomial(QQ, 5, g)
                         * reducer.partials[i]).scale(lam)
    assert total == part


def test_solve_lists_no_degree(monkeypatch):
    # rows are monomials and columns (i, g): neither the degree-20 solver nor
    # the solve that meets one block of its 10,626 rows lists any monomials,
    # through poly.monomial_basis (in every module that binds it) or through
    # MacaulayColumns.listing, the one lister of packed monomials
    f, _ = dwork_quintic()
    reducer = GriffithsDworkReducer(f)
    calls = []
    original = poly.monomial_basis
    for name, module in list(sys.modules.items()):
        if name.startswith("dworkcohom") and hasattr(module, "monomial_basis"):
            monkeypatch.setattr(module, "monomial_basis", lambda *args:
                                calls.append(args) or original(*args))
    listing = griffiths.MacaulayColumns.listing
    monkeypatch.setattr(griffiths.MacaulayColumns, "listing",
                        lambda *args: calls.append(args) or listing(*args))
    solver = reducer._solver(20)
    std, combo = field_solve(solver, {(4, 4, 4, 4, 4): QQ.one})
    assert not std and combo and len(solver.pivots) == 126
    assert calls == []


@pytest.mark.parametrize("family, symbolic, degrees", [
    (dwork_family()[0], False, (3, 4, 6, 9)),
    (k3_family(), False, (4, 5, 8, 12)),
    (dwork_family()[0], True, (3, 6)),
    (k3_family(), True, (4, 8)),
], ids=["cubic-QQ", "k3-QQ", "cubic-QQ(t)", "k3-QQ(t)"])
def test_block_closure_order_gives_one_echelon(family, symbolic, degrees):
    # solving first and reading the standard monomials first end with the
    # same echelon; the oracle is dense row reduction at t = 2, where the
    # standard monomials are the generic ones (test above)
    f = family.symbolic() if symbolic else family.at(2)
    at2 = GriffithsDworkReducer(family.at(2))
    reducer = GriffithsDworkReducer(f)
    rng = random.Random(11)
    for d in degrees:
        monomials = monomial_basis(f.nvars, d)
        parts = [Polynomial.monomial(f.field, f.nvars, rng.choice(monomials))
                 for _ in range(4)]
        first, late = (_DegreeSolver(reducer.partials, f.field, f.nvars,
                                     reducer.m - 1, d) for _ in range(2))
        solved = [field_solve(first, p.terms) for p in parts]
        std = late.standard_monomials
        assert [field_solve(late, p.terms) for p in parts] == solved
        assert first.standard_monomials == std
        assert first.pivots == late.pivots
        assert ({first.columns.unpack(r) for r in first._closed_rows}
                == {late.columns.unpack(r) for r in late._closed_rows}
                == set(monomials))
        if d <= at2.std_degrees[-1]:
            assert std == leading_rows_oracle(
                at2._solver(d), at2.partials, at2.nvars, at2.m - 1)
        else:
            assert std == []


# ---- the standard basis as its own coordinates --------------------------


def quintic_reducer():
    f, g = dwork_quintic()
    return GriffithsDworkReducer(f), g


def cubic_reducer(symbolic):
    fam, _ = dwork_family()
    return (GriffithsDworkReducer(fam.symbolic() if symbolic else fam.at(2)),
            fam.perturbation)


def k3_reducer():
    fam = k3_family()
    return GriffithsDworkReducer(fam.symbolic()), fam.perturbation


@pytest.mark.parametrize("build", [
    quintic_reducer, lambda: cubic_reducer(False), lambda: cubic_reducer(True),
    k3_reducer,
], ids=["quintic-t2", "cubic-QQ", "cubic-QQ(t)", "k3-QQ(t)"])
def test_standard_basis_matrix_is_the_solved_matrix(build):
    reducer, g = build()
    forms = reducer.standard_forms()
    assert [reducer.reduce(p.map_coefficients(reducer.field.coerce,
                                              reducer.field))
            for p in forms] == [{j: reducer.field.one}
                                for j in range(len(forms))]
    mat = connection_matrix(reducer, g)
    solved = solved_connection_matrix(reducer, g, forms)
    assert mat.entries == solved
    assert mat.entry_strings() == [[str(e) for e in row] for row in solved]


@pytest.fixture
def solves(monkeypatch):
    """(caller, size) of each _solve_square call, in order."""
    sizes = []
    original = gaussmanin._solve_square

    def spy(u_cols, r_cols, k):
        sizes.append((sys._getframe(1).f_code.co_name, k))
        return original(u_cols, r_cols, k)

    monkeypatch.setattr(gaussmanin, "_solve_square", spy)
    return sizes


@pytest.mark.parametrize("symbolic", [False, True], ids=["QQ", "QQ(t)"])
def test_only_other_bases_take_the_solve(solves, symbolic):
    reducer, g = cubic_reducer(symbolic)
    forms = reducer.standard_forms()
    connection_matrix(reducer, g)
    connection_matrix(reducer, g, list(forms))
    assert solves == []
    s = [[Fraction(1), Fraction(2)], [Fraction(-1, 2), Fraction(3)]]
    conjugated = [forms[0].scale(s[0][j]) + forms[1].scale(s[1][j])
                  for j in range(2)]
    for basis in ([forms[0].scale(5), forms[1].scale(Fraction(-2, 3))],
                  conjugated):
        mat = connection_matrix(reducer, g, basis)
        assert mat.entries == solved_connection_matrix(reducer, g, basis)
    assert solves == [("connection_matrix", 2)] * 2


@pytest.mark.parametrize("given", [False, True],
                         ids=["default", "1;x0*x1*x2"])
def test_properties_check_makes_no_solve(solves, given):
    # the only solves are those of connection_matrix on a given basis: the
    # symbolic matrix and one direct matrix per sample, none for the check
    fam, xyz = dwork_family()
    basis = [Polynomial.constant(QQ, 3, 1), xyz] if given else None
    verdict = connection_properties_check(fam, [2, -1],
                                          *family_matrix(fam, basis))
    assert verdict.ok and len(verdict.checks) == 3
    assert solves == [("connection_matrix", 2)] * (3 if given else 0)


def test_invertible_matrix_is_the_fraction_product():
    # the integer product scaled by 6 * 6 is the product of the Fraction
    # factors, entry for entry and type for type
    for k in range(26):
        vals = []
        state = 2 * 2654435761 % 2 ** 32
        for _ in range(2 * k * k):
            state = (1103515245 * state + 12345) % 2 ** 31
            vals.append(Fraction(state % 7 - 3, 1 + state % 3))
        lower = [[Fraction(1) if i == j
                  else (vals.pop() if i > j else Fraction(0))
                  for j in range(k)] for i in range(k)]
        upper = [[Fraction(1) if i == j
                  else (vals.pop() if i < j else Fraction(0))
                  for j in range(k)] for i in range(k)]
        want = dense_matmul(lower, upper)
        got = _test_invertible_matrix(k)
        assert got == want
        assert all(type(v) is Fraction for row in got for v in row)


# ---- the fraction-free reduce against the division reduce ---------------


def reduced_forms(reducer, g, basis=None):
    """What connection_matrix and connection_properties_check reduce: the
    basis forms, the new forms 2 b_j + b_(j+1) of the check, and the
    products of both with the perturbation g, over the reducer's field."""
    field = reducer.field
    forms = list(basis) if basis else reducer.standard_forms()
    padded = forms + [Polynomial.zero(QQ, reducer.nvars)]
    forms += [padded[j].scale(2) + padded[j + 1] for j in range(len(forms))]
    g = g.map_coefficients(field.coerce, field)
    lifted = [p.map_coefficients(field.coerce, field) for p in forms]
    return lifted + [g * p for p in lifted]


def outcome(reducer, p):
    """reducer.reduce(p) as a map index -> nonzero value, or the BasisError
    it raises, as text."""
    try:
        coords = reducer.reduce(p)
    except BasisError as exc:
        return str(exc)
    if isinstance(coords, list):    # the oracle's dense coordinates
        coords = {k: v for k, v in enumerate(coords) if v}
    return coords, [type(v) for v in coords.values()]


def assert_reduce_is_the_division_reduce(f, parts):
    """reduce and DivisionReducer.reduce give the same coordinates, of the
    same types, or raise the same BasisError; returns how many raised."""
    reducer, oracle = GriffithsDworkReducer(f), DivisionReducer(f)
    outcomes = [(outcome(reducer, p), outcome(oracle, p))
                for p in parts(reducer)]
    assert [got for got, _ in outcomes] == [want for _, want in outcomes]
    return sum(isinstance(got, str) for got, _ in outcomes)


@pytest.mark.hash_order
@pytest.mark.parametrize("name", CUBIC_FAMILIES)
def test_reduce_is_the_division_reduce_on_the_cubic_families(name):
    fam, basis = cubic_family(name)
    assert assert_reduce_is_the_division_reduce(
        fam.symbolic(),
        lambda r: reduced_forms(r, fam.perturbation, basis)) == 0


@pytest.mark.hash_order
@pytest.mark.parametrize("symbolic", [False, True], ids=["QQ", "QQ(t)"])
def test_reduce_is_the_division_reduce_on_the_k3_family(symbolic):
    # 5 of the 84 reductions (products of the check's new forms) leave a
    # pivot row in the residue, the error the K3 gm job exits 1 with: both
    # reducers raise it with the same text; a solve that reduces fully
    # would make this 0
    fam = k3_family()
    assert assert_reduce_is_the_division_reduce(
        fam.symbolic() if symbolic else fam.at(2),
        lambda r: reduced_forms(r, fam.perturbation)) == 5


@pytest.mark.hash_order
def test_reduce_is_the_division_reduce_on_the_quintic():
    # 36 of the 816 reductions raise the residue error, as on the K3
    f, g = dwork_quintic()
    assert assert_reduce_is_the_division_reduce(
        f, lambda r: reduced_forms(r, g)) == 36


@pytest.mark.hash_order
@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5),
       st.sampled_from([0, 2, -2, Fraction(1, 2), Fraction(-1, 3),
                        Fraction(3, 2)]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.sampled_from([1, -1, 3, Fraction(1, 2),
                                           Fraction(-5, 3)])),
                min_size=1, max_size=6))
def test_reduce_is_the_division_reduce_on_pencils(m, t0, terms):
    # F_t0 = sum x_i^m - m t0 prod x_i in m variables; each term is a random
    # monomial of a random degree d on the top strand, d <= top + m (m - 1)
    prod = Polynomial.monomial(QQ, m, (1,) * m)
    f = fermat(m, m) + prod.scale(-m * t0)

    def parts(reducer):
        p = {}
        for k, pick, c in terms:
            monomials = monomial_basis(m, reducer.top_residue + m * (k % m))
            nu = monomials[pick % len(monomials)]
            p[nu] = p.get(nu, 0) + c
        return [Polynomial(QQ, m, p)]

    assert_reduce_is_the_division_reduce(f, parts)


def test_quintic_matrix_builds_one_quotient_per_nonzero_entry(monkeypatch):
    # a cost pin: the 204 reductions of the quintic's matrix at t = 2 build
    # one Fraction per nonzero coordinate, 396 in all, and the text of the
    # matrix formats those 396 entries, none of its 41,220 zeros
    f, g = dwork_quintic()
    reducer = GriffithsDworkReducer(f)
    quotients = []
    *ring, quotient = gaussmanin._RINGS[QQ]
    monkeypatch.setitem(gaussmanin._RINGS, QQ, (
        *ring, lambda num, den: quotients.append(num) or quotient(num, den)))
    mat = connection_matrix(reducer, g)
    assert len(mat.nonzero) == len(quotients) == 396
    formatted = []
    text = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__",
                        lambda q: formatted.append(q) or text(q))
    strings = mat.entry_strings()
    assert len(formatted) == 396
    assert sum(s != "0" for row in strings for s in row) == 396


# ---- smoothness from the reducer's own socle echelon --------------------


def pencil_member(m, t0, field=QQ):
    """x_0^m + ... + x_(m-1)^m - m t0 x_0..x_(m-1), over field."""
    prod = Polynomial.monomial(field, m, (1,) * m)
    return fermat(m, m, field) + prod.scale(field.one * (-m) * t0)


def binary_cubic(field=QQ, cross=0):
    """x0^3 + x1^3 + cross * x0*x1^2: its socle degree 2 is off the top
    strand, so the reducer builds that degree's echelon for the socle
    certificate alone."""
    x0, x1 = var(2, 0, field), var(2, 1, field)
    return x0 ** 3 + x1 ** 3 + (x0 * x1 ** 2).scale(field.one * cross)


x = [var(4, k) for k in range(4)]
y = [var(3, k) for k in range(3)]


def plane_quartic(t0):
    """x0^4 + x1^4 + x2^4 + t0 x0^2 x1^2, singular exactly where the binary
    quartic x0^4 + t0 x0^2 x1^2 + x1^4 has a double root, t0 = 2 or -2;
    m = 4 does not divide 3, so its socle degree 6 is off the top strand."""
    return (y[0] ** 4 + y[1] ** 4 + y[2] ** 4
            + (y[0] ** 2 * y[1] ** 2).scale(Fraction(t0)))


# name -> (F, smooth); the singular members with one socle monomial (the
# nodal cubic, the cones, x0^2) are decided by their orphans alone
SMOOTHNESS = {
    "nodal-cubic": (var(3, 1) ** 2 * var(3, 2) - var(3, 0) ** 3
                    - var(3, 0) ** 2 * var(3, 2), False),
    "cone-x0*x1-x2^2": (x[0] * x[1] - x[2] ** 2, False),
    "x0^2": (var(2, 0) ** 2, False),
    # m does not divide nvars: sigma is off the top strand
    "x0^2+x1^2-in-3": (y[0] ** 2 + y[1] ** 2, False),
    "x0*x1-x2^2-in-3": (y[0] * y[1] - y[2] ** 2, True),
    "plane-quartic-t=1": (plane_quartic(1), True),
    "plane-quartic-t=-2": (plane_quartic(-2), False),
    "x0*x1+x2*x3": (x[0] * x[1] + x[2] * x[3], True),
    "x0^2+x1^2": (fermat(2, 2), True),
    "fermat-quintic": (fermat(5, 5), True),
    **{f"pencil-{m}-t={t0}": (pencil_member(m, t0), smooth)
       for m, singular in [(3, {1}), (4, {1, -1}), (5, {1})]
       for t0 in (2, Fraction(1, 2), 1, -1)
       for smooth in [t0 not in singular]},
    **{f"pencil-{m}-QQ(t)": (pencil_member(m, T, QQ_T), True)
       for m in (3, 4, 5)},
    **{f"cubic-family-{name}": (cubic_family(name)[0].symbolic(), True)
       for name in CUBIC_FAMILIES},
    "x0^3+x1^3": (binary_cubic(), True),
    "x0^3+x1^3+t*x0*x1^2": (binary_cubic(QQ_T, T), True),
    "fermat-cubic-4": (fermat(3, 4), True),
}


def refuses(f) -> bool:
    try:
        GriffithsDworkReducer(f)
    except NotSmoothError as exc:
        assert str(exc) == ("Griffiths-Dwork reduction needs a smooth "
                            "(generic) member")
        return True
    return False


@pytest.mark.parametrize("name", SMOOTHNESS)
def test_reducer_refuses_exactly_the_singular_profiles(name):
    # the socle certificate against the rank at socle + 1 it replaces
    f, smooth = SMOOTHNESS[name]
    assert (griffiths.smooth_profile(f) is not None) == smooth
    assert refuses(f) == (not smooth)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reducer_refuses_exactly_the_singular_forms(data):
    # ternary cubics and quaternary quartics, m = nvars, so the socle
    # degree is on the top strand, and ternary quartics, where it is not:
    # a diagonal part, some terms dropped, and up to three other terms; or
    # an A1 node at the vertex e_k, x_k^(m-2) x_j^2 + x_j^m for j != k,
    # and up to three terms that vanish to order 3 there, so the socle
    # degree often has one standard monomial and the orphans decide
    m, nvars = data.draw(st.sampled_from([(3, 3), (4, 4), (4, 3)]))
    coefficient = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])
    others = monomial_basis(nvars, m)
    node = data.draw(st.booleans())
    if node:
        k = data.draw(st.integers(0, nvars - 1))
        terms = {}
        for j in range(nvars):
            if j == k:
                continue
            terms[tuple(m * (i == j) for i in range(nvars))] = 1
            terms[tuple((m - 2) * (i == k) + 2 * (i == j)
                        for i in range(nvars))] = 1
        others = [nu for nu in others if nu[k] < m - 2]
    else:
        diagonal = data.draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                                      min_size=nvars, max_size=nvars))
        terms = {tuple(m * (j == k) for j in range(nvars)): c
                 for k, c in enumerate(diagonal) if c}
    terms.update(data.draw(st.dictionaries(
        st.sampled_from(others), coefficient, max_size=3)))
    f = Polynomial(QQ, nvars, {nu: Fraction(c) for nu, c in terms.items()})
    assume(f)
    singular = griffiths.smooth_profile(f) is None
    assert refuses(f) == singular
    assert singular or not node


@pytest.mark.parametrize("f, ranks, closes", [
    (dwork_quintic()[0], [], [(16, 57)]),
    (binary_cubic(QQ_T, T), [], [(3, 4)]),
    (fermat(5, 5), [], []),
], ids=["quintic-t=2", "x0^3+x1^3+t*x0*x1^2", "fermat-quintic"])
def test_reducer_certifies_smoothness_without_a_rank(monkeypatch, f, ranks,
                                                     closes):
    # a cost pin: on the quintic at t = 2 the socle x4^15 leaves one
    # orphan, x4^16, whose block of 57 rows is the only one closed at
    # degree 16, and no Macaulay rank is taken; the Fermat quintic's socle
    # monomial has no orphan; the binary cubic's socle degree 2 is off the
    # top strand, and its socle monomial x1^2 leaves the orphan x1^3,
    # whose block of 4 rows is all of degree 3
    ranked, closed = [], []
    rank, close = griffiths.macaulay_rank, _DegreeSolver._close

    def counted_rank(partials, nvars, gen_degree, d):
        ranked.append(d)
        return rank(partials, nvars, gen_degree, d)

    def counted_close(self, rows):
        before = len(self._closed_rows)
        close(self, rows)
        closed.append((self.degree, len(self._closed_rows) - before))

    monkeypatch.setattr(griffiths, "macaulay_rank", counted_rank)
    monkeypatch.setattr(_DegreeSolver, "_close", counted_close)
    GriffithsDworkReducer(f)
    assert ranked == ranks and closed == closes


@pytest.mark.parametrize("symbolic", [False, True], ids=["QQ", "QQ(t)"])
@pytest.mark.parametrize("m", [3, 4, 5], ids=["cubic", "k3", "quintic"])
def test_batch_elimination_is_the_per_column_elimination(m, symbolic):
    # at each standard degree and the degree above the socle: close the
    # block of x_n^d, as the certificate does, then read the standard
    # monomials; the batch loop stores the pivots the per-column loop does,
    # the same columns in the same order
    f = pencil_member(m, T, QQ_T) if symbolic else pencil_member(m, 2)
    partials = [f.partial_derivative(k) for k in range(m)]
    socle = m * (m - 2)
    for d in [*range(0, socle + 1, m), socle + 1]:
        new, old = (cls(partials, f.field, m, m - 1, d)
                    for cls in (_DegreeSolver, PerColumnSolver))
        steps = [lambda s: s._close([s.columns.pack((0,) * (m - 1) + (d,))])]
        if d <= socle:
            steps.append(lambda s: s.standard_monomials)
        for step in steps:
            assert step(new) == step(old)
            assert ([(r, list(c.items())) for r, c in new.pivots.items()]
                    == [(r, list(c.items())) for r, c in old.pivots.items()])
        # below the partials' degree the matrix has no columns
        if d < m - 1:
            assert not new.pivots and not list(new.columns.kept())
        else:
            assert new.pivots


@pytest.mark.parametrize("symbolic", [False, True], ids=["t2", "QQ(t)"])
@pytest.mark.parametrize("m", [3, 4, 5], ids=["cubic", "k3", "quintic"])
def test_default_basis_products_are_the_polynomial_products(m, symbolic):
    # on the standard basis the products g * x^nu are g's term maps shifted
    # by nu: the matrix, dict order included, is the one reduced from the
    # products of the lifted standard forms with the lifted perturbation
    f = pencil_member(m, T, QQ_T) if symbolic else pencil_member(m, 2)
    g = Polynomial.monomial(QQ, m, (1,) * m).scale(-m)
    reducer = GriffithsDworkReducer(f)
    field, forms = reducer.field, reducer.standard_forms()
    assert forms == [Polynomial.monomial(QQ, m, nu)
                     for _, nu in reducer.std_basis]
    g_lift = g.map_coefficients(field.coerce, field)
    want = {(i, j): e for j, p in enumerate(forms)
            for i, e in reducer.reduce(
                g_lift * p.map_coefficients(field.coerce, field)).items()}
    got = connection_matrix(reducer, g).nonzero
    assert list(got.items()) == list(want.items())


# ---- the packed walk, and steps that consume their column --------------


def walked_columns(solver, rows):
    """Close the blocks of rows; return the Macaulay columns (i, g) that
    solver eliminates, in order, each through the solver's own loop."""
    found, eliminate = [], solver._eliminate

    def record(listing):
        for i, g in listing:
            found.append((i, g))
            eliminate([(i, g)])

    solver._eliminate = record
    solver._close(rows)
    del solver._eliminate
    return found


@pytest.mark.hash_order
@pytest.mark.parametrize("symbolic", [False, True], ids=["QQ", "QQ(t)"])
@pytest.mark.parametrize("m", [3, 4, 5], ids=["cubic", "k3", "quintic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_walk_is_the_tuple_walk(m, symbolic, data):
    # from any rows, in turn, of any degree up to the socle's plus m (the
    # degree a product with the perturbation lands in), the guard-bit walk
    # finds the columns that the walk over exponent tuples with
    # koszul_redundant finds, in the same order, and both store the same
    # pivots; below degree m - 1 there are none
    f = pencil_member(m, T, QQ_T) if symbolic else pencil_member(m, 2)
    partials = [f.partial_derivative(k) for k in range(m)]
    d = data.draw(st.integers(0, m * (m - 1)), label="d")
    rows = data.draw(st.lists(st.sampled_from(monomial_basis(m, d)),
                              min_size=1, max_size=3), label="rows")
    new, old = (cls(partials, f.field, m, m - 1, d)
                for cls in (_DegreeSolver, TupleWalkSolver))
    for nu in rows:
        found = walked_columns(new, [new.columns.pack(nu)])
        assert found == walked_columns(old, [old.columns.pack(nu)])
        assert ([(r, list(c.items())) for r, c in new.pivots.items()]
                == [(r, list(c.items())) for r, c in old.pivots.items()])
        assert new._closed_rows == old._closed_rows
    if d < m - 1:
        assert not new.pivots


def reducer_run(f, g):
    """The reducer of f, its connection matrix with the perturbation g, and
    the pivots of every degree it built, each column's items in order."""
    reducer = GriffithsDworkReducer(f)
    mat = connection_matrix(reducer, g)
    pivots = {d: [(r, list(c.items())) for r, c in s.pivots.items()]
              for d, s in reducer._solvers.items()}
    return pivots, mat.to_json_dict()


@pytest.mark.hash_order
@pytest.mark.parametrize("symbolic", [False, True], ids=["t2", "QQ(t)"])
@pytest.mark.parametrize("m", [3, 4, 5], ids=["cubic", "k3", "quintic"])
def test_steps_consume_their_column(monkeypatch, m, symbolic):
    # each step updates the column it is given in place; with steps that
    # clear it afterwards, no caller reads it again, so the reducer's
    # pivots and the connection matrix are those of the plain steps
    f = pencil_member(m, T, QQ_T) if symbolic else pencil_member(m, 2)
    g = Polynomial.monomial(QQ, m, (1,) * m).scale(-m)
    want = reducer_run(f, g)
    for acc in (IntRankAccumulator, FieldRankAccumulator):
        monkeypatch.setattr(acc, "_step", consuming_step(acc._step))
    assert reducer_run(f, g) == want
