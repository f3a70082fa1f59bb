"""Jacobian-ring pipeline against independent series oracles."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from dworkcohom import (QQ, QQ_T, Family, RatFunc, StrandSpec,
                        full_complex_spec, griffiths, jacobian_hilbert,
                        parse_polynomial, strand_top_dims)
from dworkcohom.exceptions import NonHomogeneousError, NotSmoothError
from dworkcohom.dwork import _Complexes
from dworkcohom.gaussmanin import GriffithsDworkReducer
from dworkcohom.matrices import integerize_column, rank_of_columns
from dworkcohom.poly import Polynomial, monomial_basis

from _helpers import (all_macaulay_columns, dense_dF_only_dims, fermat,
                      ranked_profile, series_hilbert, triangle, var)
from oracles import dF_only_cohomology


def ranked_hilbert(f):
    """The rank path, which jacobian_hilbert keeps for singular inputs:
    dim S_d - rank of the degree-d Macaulay matrix, for d = 0..socle+2."""
    m, nvars = f.homogeneous_degree(), f.nvars
    partials = [f.partial_derivative(k) for k in range(nvars)]
    return [comb(d + nvars - 1, nvars - 1)
            - griffiths.macaulay_rank(partials, nvars, m - 1, d)
            for d in range(nvars * (m - 2) + 3)]


def random_form(m, nvars, seed):
    rng = random.Random(seed)
    terms = {nu: Fraction(rng.randint(-3, 3)) for nu in monomial_basis(nvars, m)}
    return Polynomial(QQ, nvars, {nu: c for nu, c in terms.items() if c})


def dwork_member(m, t0, field=QQ):
    """x_0^m + ... + x_{m-1}^m - m*t0*x_0...x_{m-1}."""
    prod = Polynomial.monomial(field, m, (1,) * m)
    return fermat(m, m, field) + prod.scale(field.one * (-m) * t0)


T = QQ_T.gen
SMOOTH = {
    **{f"random-cubic-{n}-{seed}": random_form(3, n, seed)
       for n in (3, 4) for seed in (1, 2, 3)},
    **{f"random-quartic-3-{seed}": random_form(4, 3, seed) for seed in (1, 2, 3)},
    "dwork-quintic-t2": dwork_member(5, 2),
    "cubic-over-QQ(t)": dwork_member(3, T, QQ_T),
    "k3-over-QQ(t)": dwork_member(4, T, QQ_T),
    "quadric-3": random_form(2, 3, 4),
    "quadric-4": fermat(2, 4) + var(4, 0) * var(4, 1),
    "binary-cubic": fermat(3, 2),
    "binary-quintic": random_form(5, 2, 1),
}
SINGULAR = {
    "triangle": triangle(),
    "cusp": var(3, 0) ** 3 - var(3, 1) ** 2 * var(3, 2),
    "x0^2*x1": var(2, 0) ** 2 * var(2, 1),
    "k3-at-t1": dwork_member(4, 1),
    "cone-quadric": var(3, 0) ** 2 + var(3, 1) ** 2,
    # leads x1^2 and x0*x1 share only the last variable
    "x0*x1^2 + x1^3": var(2, 0) * var(2, 1) ** 2 + var(2, 1) ** 3,
    "generic-member-singular-over-QQ(t)":
        Family(triangle(), var(3, 0) ** 3).symbolic(),
}


@pytest.mark.parametrize("f", SMOOTH.values(), ids=SMOOTH.keys())
def test_smooth_profile_equals_the_rank_path(f):
    p = jacobian_hilbert(f)
    assert p.smooth
    assert list(p.hilbert) == ranked_hilbert(f)
    assert p.hilbert[p.socle + 1:] == (0, 0)
    assert p.milnor == (p.modulus - 1) ** p.nvars


@pytest.mark.parametrize("f", SINGULAR.values(), ids=SINGULAR.keys())
def test_singular_profile_equals_the_rank_path(f):
    p = jacobian_hilbert(f)
    assert not p.smooth and p.milnor is None
    assert list(p.hilbert) == ranked_hilbert(f)
    assert len(p.hilbert) == p.socle + 3 and p.hilbert[p.socle + 1] > 0


@pytest.fixture
def ranked(monkeypatch):
    """The degrees jacobian_hilbert asks macaulay_rank for, in order."""
    degrees = []
    original = griffiths.macaulay_rank

    def spy(partials, nvars, gen_degree, d):
        degrees.append(d)
        return original(partials, nvars, gen_degree, d)

    monkeypatch.setattr(griffiths, "macaulay_rank", spy)
    return degrees


# Coprime grevlex leads certify smoothness with no rank; every other smooth
# input, the Dwork pencil members included, costs the one rank at socle+1.
RANKS = {"dwork-quintic-t2": 1, "cubic-over-QQ(t)": 1, "quadric-4": 1,
         "binary-cubic": 0, "fermat-quintic": 0}
COSTED = {**SMOOTH, "fermat-quintic": fermat(5, 5)}


@pytest.mark.parametrize("name", RANKS)
def test_smooth_profile_costs_one_rank(ranked, name):
    p = jacobian_hilbert(COSTED[name])
    assert p.smooth and ranked == [p.socle + 1][:RANKS[name]]


@pytest.mark.parametrize("name", SINGULAR)
def test_singular_profile_ranks_each_degree_once(ranked, name):
    f = SINGULAR[name]
    p = jacobian_hilbert(f)
    assert not p.smooth
    assert sorted(ranked) == list(range(p.socle + 3))
    assert ranked[0] == p.socle + 1


@pytest.mark.parametrize("name", SINGULAR)
def test_smooth_profile_is_one_rank_on_singular_input(ranked, name):
    f = SINGULAR[name]
    assert griffiths.smooth_profile(f) is None
    assert ranked == [f.nvars * (f.homogeneous_degree() - 2) + 1]


@pytest.mark.parametrize("name", ["cubic-over-QQ(t)", "binary-cubic"])
def test_smooth_profile_is_the_smooth_jacobian_profile(name):
    assert griffiths.smooth_profile(SMOOTH[name]) == jacobian_hilbert(SMOOTH[name])


def test_route_choice_ranks_once_on_singular_input(ranked):
    # the window route needs only the smooth flag: one rank, at socle + 1 =
    # 16, not every degree; the reducer takes none: its own echelon at the
    # socle degree 15 decides
    f = var(5, 0) * var(5, 1) * var(5, 2) * var(5, 3) * var(5, 4)
    assert _Complexes(f).profile is None
    assert ranked == [16]
    with pytest.raises(NotSmoothError):
        GriffithsDworkReducer(f)
    assert ranked == [16]


# ---- the coprime-lead certificate against the rank path -----------------


# singular inputs with variable symmetries, beside the nodal K3 and the
# triangle of SINGULAR
SYMMETRIC_SINGULAR = {
    "cubic-at-t1": dwork_member(3, 1),
    "x0*x1*x2*x3": var(4, 0) * var(4, 1) * var(4, 2) * var(4, 3),
}


@pytest.mark.parametrize(
    "f", [*SMOOTH.values(), *SINGULAR.values(), *SYMMETRIC_SINGULAR.values()],
    ids=[*SMOOTH, *SINGULAR, *SYMMETRIC_SINGULAR])
def test_profile_is_the_ranked_profile(f):
    assert jacobian_hilbert(f) == ranked_profile(f)


def scaled_fermat(m, nvars, coefficients, field=QQ):
    return sum((var(nvars, k, field) ** m).scale(coefficients[k])
               for k in range(nvars))


FERMAT_COEFFICIENTS = {
    "integer": (2, -3, 5, 7, -11),
    "fraction": (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3,
                 Fraction(-9, 4)),
}


@pytest.mark.parametrize("kind", FERMAT_COEFFICIENTS)
@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_scaled_fermat_profile_takes_no_rank(ranked, m, nvars, kind):
    f = scaled_fermat(m, nvars, FERMAT_COEFFICIENTS[kind])
    assert griffiths.coprime_leads([f.partial_derivative(k)
                                    for k in range(nvars)])
    p = jacobian_hilbert(f)
    assert ranked == [] and p.smooth
    assert p == ranked_profile(f)


def test_diagonal_family_over_function_field_takes_no_rank(ranked):
    f = scaled_fermat(3, 3, (1, T, 1), QQ_T)
    p = jacobian_hilbert(f)
    assert ranked == [] and p.smooth
    assert p == ranked_profile(f)


@st.composite
def small_forms(draw):
    """A form of degree 2..4 in 2..4 variables with small coefficients:
    either sparse random terms, or every pure power x_k^m plus at most two
    other terms, so that the certificate fires on some draws and not on
    others."""
    m = draw(st.integers(2, 4))
    nvars = draw(st.integers(2, 4 if m < 4 else 3))
    monomials = monomial_basis(nvars, m)
    nonzero = st.sampled_from([1, -1, 2, Fraction(-1, 2)])
    values = st.one_of(st.just(0), nonzero)
    if draw(st.booleans()):
        terms = {nu: draw(nonzero) for nu in monomials if max(nu) == m}
        for nu in draw(st.lists(st.sampled_from(monomials), max_size=2)):
            terms[nu] = draw(values)
    else:
        terms = {nu: draw(values) for nu in monomials}
    return Polynomial(QQ, nvars, {nu: Fraction(c) for nu, c in terms.items()
                                  if c})


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_random_profile_is_the_ranked_profile(f):
    assume(f)
    assert jacobian_hilbert(f) == ranked_profile(f)


# ---- Koszul-redundant columns: the pruned Macaulay matrix ---------------


def random_pruning_form(m, nvars, seed, field=QQ, singular=False):
    """A seeded random form; over QQ(t) its coefficients are a + b*t.  With
    singular, no monomial has x0-degree >= m - 1, so all partials vanish at
    [1:0:...:0]."""
    rng = random.Random(seed)
    terms = {}
    for nu in monomial_basis(nvars, m):
        if singular and nu[0] >= m - 1:
            continue
        c = Fraction(rng.randint(-3, 3))
        if field is QQ_T:
            c = RatFunc.from_fraction(c) + T * rng.randint(-2, 2)
        if c:
            terms[nu] = c
    return Polynomial(field, nvars, terms)


PRUNING = {
    "random-cubic-3": (random_pruning_form(3, 3, 5), True),
    "random-cubic-4": (random_pruning_form(3, 4, 6), True),
    "random-quartic-3": (random_pruning_form(4, 3, 7), True),
    "singular-cubic-4": (random_pruning_form(3, 4, 8, singular=True), False),
    "singular-quartic-3": (random_pruning_form(4, 3, 9, singular=True), False),
    "cubic-3-over-QQ(t)": (random_pruning_form(3, 3, 10, QQ_T), True),
    "singular-cubic-3-over-QQ(t)":
        (random_pruning_form(3, 3, 11, QQ_T, singular=True), False),
    "cone-quadric (a zero partial)": (SINGULAR["cone-quadric"], False),
    "cusp": (SINGULAR["cusp"], False),
    "k3-over-QQ(t)": (SMOOTH["k3-over-QQ(t)"], True),
}


@pytest.mark.parametrize("f, smooth", PRUNING.values(), ids=PRUNING.keys())
def test_pruned_rank_is_the_full_rank(f, smooth):
    # every degree 0..socle+2: the kept columns span all of them
    m, nvars = f.homogeneous_degree(), f.nvars
    assert jacobian_hilbert(f).smooth == smooth
    partials = [f.partial_derivative(k) for k in range(nvars)]
    skipped = 0
    for d in range(nvars * (m - 2) + 3):
        sources = monomial_basis(nvars, d - (m - 1))
        full = all_macaulay_columns(partials, sources)
        columns = griffiths.MacaulayColumns(partials, nvars, d - (m - 1))
        keys = list(columns.kept())
        skipped += len(full) - len(keys)
        kept = columns.accumulator()   # the kept columns, lifted
        for key in keys:
            kept.add_column(columns.column(*key))
        assert griffiths.macaulay_rank(partials, nvars, m - 1, d) \
            == kept.rank == rank_of_columns(full)
    assert skipped > 0


def test_macaulay_rank_lists_no_target_degree(monkeypatch):
    # rows are monomials: a rank lists its sources (degree d - 2) and the
    # cofactors of the leads (degree d - 4), never the degree d of its rows;
    # MacaulayColumns.listing is the one lister of packed monomials
    f = triangle()
    partials = [f.partial_derivative(k) for k in range(3)]
    degrees = []
    original = griffiths.MacaulayColumns.listing
    monkeypatch.setattr(griffiths.MacaulayColumns, "listing",
                        lambda self, d: degrees.append(d) or original(self, d))
    assert not jacobian_hilbert(f).smooth
    for d in range(6):
        degrees.clear()
        griffiths.macaulay_rank(partials, 3, 2, d)
        assert set(degrees) <= {d - 2, d - 4}
        assert (d - 2 in degrees) == (d >= 2)


@pytest.mark.parametrize("m,nvars", [(2, 3), (3, 3), (4, 3), (3, 4), (5, 2)])
def test_fermat_kept_columns_are_independent(m, nvars):
    # the leading monomials x_i^(m-1) are the partials up to scale, so each
    # kept column is one monomial, and no two kept columns share it
    f = fermat(m, nvars)
    partials = [f.partial_derivative(k) for k in range(nvars)]
    series = series_hilbert(m, nvars, nvars * (m - 2) + 2)
    for d, h in enumerate(series):
        columns = griffiths.MacaulayColumns(partials, nvars, d - (m - 1))
        kept = list(columns.kept())
        assert len(kept) == len(monomial_basis(nvars, d)) - h
        assert len(kept) == griffiths.macaulay_rank(partials, nvars, m - 1, d)


DWORK_PENCILS = {
    "cubic-t2": dwork_member(3, 2),
    "k3-t2": dwork_member(4, 2),
    "quintic-t2": dwork_member(5, 2),
    "cubic-over-QQ(t)": dwork_member(3, T, QQ_T),
}


@pytest.mark.parametrize("f", DWORK_PENCILS.values(), ids=DWORK_PENCILS.keys())
def test_dwork_kept_columns_are_independent(f):
    # the grevlex leads of dF_0..dF_(n-1) are x_j^(m-1), a regular sequence,
    # so the kept columns number the rank of all the columns
    m, nvars = f.homogeneous_degree(), f.nvars
    partials = [f.partial_derivative(k) for k in range(nvars)]
    powers = tuple(tuple(m - 1 if k == j else 0 for k in range(nvars))
                   for j in range(nvars - 1))
    assert griffiths.earlier_leads(partials)[nvars - 1] == powers
    socle, skipped = nvars * (m - 2), 0
    for d in (socle, socle + 1):
        sources = monomial_basis(nvars, d - (m - 1))
        columns = griffiths.MacaulayColumns(partials, nvars, d - (m - 1))
        kept = list(columns.kept())
        full = all_macaulay_columns(partials, sources)
        skipped += len(full) - len(kept)
        assert len(kept) == griffiths.macaulay_rank(partials, nvars, m - 1, d) \
            == rank_of_columns(full)
    assert skipped > 0


def test_template_columns_are_the_lifted_columns():
    # each partial is lifted once, with the augmentation entry; a column
    # (i, g), its rows decoded through unpack and that entry included under
    # a key (-1, i, g), is integerize_column of its field column: integers
    # over QQ, IntPoly tuples (polynomials over Z in t) over QQ(t)
    x0, x1, x2 = (var(3, k) for k in range(3))
    f = ((x0 ** 3).scale(Fraction(1, 2)) + (x1 ** 3).scale(Fraction(2, 3))
         + (x2 ** 3).scale(6) - (x0 * x1 * x2).scale(4))
    ft = f.map_coefficients(QQ_T.coerce, QQ_T) + (x0 * x1 * x2).map_coefficients(
        QQ_T.coerce, QQ_T).scale(T / 3)
    lifted = {QQ: lambda v: type(v) is int,
              QQ_T: lambda v: type(v) is tuple and all(type(c) is int for c in v)}
    for form in (f, ft):
        partials = [form.partial_derivative(k) for k in range(3)]
        for d in range(2, 6):
            columns = griffiths.MacaulayColumns(partials, 3, d - 2)
            for i, p in enumerate(partials):
                for g in monomial_basis(3, d - 2):
                    row = (-1, i, g)
                    col = {columns.unpack(r): c for r, c
                           in columns.column(i, columns.pack(g)).items()}
                    col[row] = columns.scale[i]
                    field_col = {tuple(a + b for a, b in zip(g, mu)): c
                                 for mu, c in p.terms.items()}
                    field_col[row] = form.field.one
                    assert col == integerize_column(field_col)
                    assert all(map(lifted[form.field], col.values()))


@pytest.mark.parametrize("f", [*DWORK_PENCILS.values(),
                               *(f for f, _ in PRUNING.values())],
                         ids=[*DWORK_PENCILS, *PRUNING])
def test_top_is_the_largest_row_of_every_kept_column(f):
    # _DegreeSolver starts a column's reduction at g + top[i], not at a max
    # over the column: for every kept column of every degree up to the
    # socle's plus m that is its largest row
    m, nvars = f.homogeneous_degree(), f.nvars
    partials = [f.partial_derivative(k) for k in range(nvars)]
    for d in range(m - 1, nvars * (m - 2) + m + 1):
        columns = griffiths.MacaulayColumns(partials, nvars, d - (m - 1))
        for i, g in columns.kept():
            assert g + columns.top[i] == max(columns.column(i, g))


def monomials_of_degree(nvars, d):
    """Exponent vectors of degree d in nvars variables, as the gaps between
    nvars - 1 cut points of 0..d."""
    def gaps(cuts):
        ends = [0, *sorted(cuts), d]
        return tuple(b - a for a, b in zip(ends, ends[1:]))
    return st.lists(st.integers(0, d), min_size=nvars - 1,
                    max_size=nvars - 1).map(gaps)


@st.composite
def packings(draw):
    """nvars, a row degree d, monomials g and mu whose degrees sum to d, a
    list of monomials of degree d, and a list of monomials of degree at
    most d."""
    nvars, d = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    a = draw(st.integers(0, d))
    lower = st.integers(0, d).flatmap(lambda e: monomials_of_degree(nvars, e))
    return (nvars, d, draw(monomials_of_degree(nvars, a)),
            draw(monomials_of_degree(nvars, d - a)),
            draw(st.lists(monomials_of_degree(nvars, d), min_size=1,
                          max_size=20)),
            draw(st.lists(lower, min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(packings())
def test_packing_is_injective_lex_ordered_and_additive(case):
    # MacaulayColumns packs x^nu for rows of degree d with a guard bit above
    # every digit: distinct monomials get distinct keys, keys of degree d
    # compare as their exponent tuples (lex), a product's key is the sum of
    # its factors' keys, unpack inverts pack, listing(d) is monomial_basis
    # packed in its order, and for monomials of degree <= d the guard-bit
    # test ((r | H) - a) & H == H holds exactly when a divides r
    nvars, d, g, mu, rows, low = case
    # the partials of sum x_k^2 have degree 1, so the sources degree d - 1
    partials = [Polynomial.variable(QQ, nvars, k).scale(2)
                for k in range(nvars)]
    columns = griffiths.MacaulayColumns(partials, nvars, d - 1)
    pack, unpack, guard = columns.pack, columns.unpack, columns.guard
    product = tuple(a + b for a, b in zip(g, mu))
    monomials = {g, mu, product, *rows, *low}
    assert len({pack(nu) for nu in monomials}) == len(monomials)
    assert all((pack(a) < pack(b)) == (a < b) for a in rows for b in rows)
    assert pack(g) + pack(mu) == pack(product)
    assert all(unpack(pack(nu)) == nu for nu in monomials)
    assert columns.listing(d) == [pack(nu) for nu in monomial_basis(nvars, d)]
    assert columns.listing(-1) == []
    for r in [*rows, *low]:
        for a in low:
            divides = ((pack(r) | guard) - pack(a)) & guard == guard
            assert divides == all(x <= y for x, y in zip(a, r))


def test_fermat_cubic_profile():
    p = jacobian_hilbert(fermat(3, 3))
    oracle = series_hilbert(3, 3, p.socle)
    assert list(p.hilbert[:p.socle + 1]) == oracle == [1, 3, 3, 1]
    assert p.smooth and p.milnor == 8


def test_fermat_quartic_profile():
    p = jacobian_hilbert(fermat(4, 4))
    oracle = series_hilbert(4, 4, p.socle)
    assert list(p.hilbert[:p.socle + 1]) == oracle
    assert oracle == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert p.milnor == 81


def test_quadric_profile():
    p = jacobian_hilbert(fermat(2, 3))
    assert list(p.hilbert[:p.socle + 1]) == [1]
    assert p.milnor == 1


@pytest.mark.parametrize("m,nvars", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_gorenstein_symmetry_and_milnor_formula(m, nvars):
    p = jacobian_hilbert(fermat(m, nvars))
    assert p.smooth
    hs = list(p.hilbert[:p.socle + 1])
    assert hs == hs[::-1]
    assert p.milnor == (m - 1) ** nvars


def test_non_fermat_smooth_input():
    # a smooth non-diagonal cubic curve
    f = fermat(3, 3) + var(3, 0) * var(3, 1) * var(3, 2)
    p = jacobian_hilbert(f)
    assert p.smooth and list(p.hilbert[:4]) == [1, 3, 3, 1]


def test_singular_inputs_flagged():
    p = jacobian_hilbert(triangle())
    assert not p.smooth
    assert p.milnor is None and griffiths.smooth_profile(triangle()) is None
    with pytest.raises(NotSmoothError):
        p.hodge_numbers()
    # cuspidal cubic x0^3 - x1^2 x2 is singular too
    cusp = var(3, 0) ** 3 - var(3, 1) ** 2 * var(3, 2)
    assert not jacobian_hilbert(cusp).smooth


def test_input_validation():
    with pytest.raises(NonHomogeneousError):
        jacobian_hilbert(var(2, 0) ** 2 + var(2, 1))
    with pytest.raises(ValueError):
        jacobian_hilbert(var(2, 0))
    with pytest.raises(ValueError):
        jacobian_hilbert(Polynomial.zero(QQ, 2))


def test_primitive_hodge_numbers():
    def hodge_numbers(f):
        return jacobian_hilbert(f).hodge_numbers()

    assert hodge_numbers(fermat(3, 3)) == [(1, 1), (2, 1)]
    assert hodge_numbers(fermat(4, 4)) == [(1, 1), (2, 19), (3, 1)]
    quintic = hodge_numbers(fermat(5, 5))
    assert quintic == [(1, 1), (2, 101), (3, 101), (4, 1)]
    oracle = series_hilbert(5, 5, 15)
    assert [h for _, h in quintic] == [oracle[5 * q - 5] for q in range(1, 5)]


def test_strand_top_dims_sum_to_milnor():
    for m, nvars in [(3, 3), (4, 4), (2, 3)]:
        p = jacobian_hilbert(fermat(m, nvars))
        tops = [strand_top_dims(p, j) for j in range(m)]
        assert sum(tops) == p.milnor
    p4 = jacobian_hilbert(fermat(4, 4))
    assert [strand_top_dims(p4, j) for j in range(4)] == [21, 20, 20, 20]
    p3 = jacobian_hilbert(fermat(3, 3))
    assert [strand_top_dims(p3, j) for j in range(3)] == [2, 3, 3]


def test_profile_over_function_field():
    t = QQ_T.gen
    xyz = (Polynomial.variable(QQ_T, 3, 0) * Polynomial.variable(QQ_T, 3, 1)
           * Polynomial.variable(QQ_T, 3, 2))
    f = fermat(3, 3, QQ_T) + xyz.scale(RatFunc((0, -3)))
    p = jacobian_hilbert(f)
    assert p.smooth and list(p.hilbert[:4]) == [1, 3, 3, 1]


def test_df_only_quartic_strand0():
    dims = dF_only_cohomology(fermat(4, 4), StrandSpec(4, 4, 0), 12)
    assert dims.coh(4) == 21
    assert all(dims.coh(i) == 0 for i in range(4))


def test_df_only_cubic_full():
    dims = dF_only_cohomology(fermat(3, 3), full_complex_spec(3), 9)
    assert dims.coh(3) == 8
    assert all(dims.coh(i) == 0 for i in range(3))
    assert dims.euler_spaces() == dims.euler_cohomology()


def test_df_only_zero_polynomial():
    z = Polynomial.zero(QQ, 2)
    dims = dF_only_cohomology(z, full_complex_spec(2), 4)
    for i in range(3):
        assert dims.coh(i) == dims.space(i)


def test_df_only_strand_sum_is_milnor():
    total = 0
    for j in range(4):
        dims = dF_only_cohomology(fermat(4, 4), StrandSpec(4, 4, j), 12)
        total += dims.coh(4)
    assert total == 81


# singular and weighted inputs, against a dense rank of every piece:
# (F, spec, bound, cohomology dims)
DF_ONLY_CASES = [
    ("x^2 + y^3 weighted 3,2", "x^2 + y^3", ["x", "y"],
     full_complex_spec(2, (3, 2)), 12, [0, 0, 2]),
    ("x0*x1*x2 strand 0", "x0*x1*x2", ["x0", "x1", "x2"],
     StrandSpec(3, 3, 0), 9, [0, 0, 14, 16]),
    ("x0*x1*x2 full complex", "x0*x1*x2", ["x0", "x1", "x2"],
     full_complex_spec(3), 7, [0, 0, 32, 40]),
    ("x0^2*x2 + x1^3 strand 1 weighted 1,1,1", "x0^2*x2 + x1^3",
     ["x0", "x1", "x2"], StrandSpec(3, 3, 1, (1, 1, 1)), 9, [0, 0, 8, 11]),
]


@pytest.mark.parametrize("name, text, names, spec, bound, coh", DF_ONLY_CASES,
                         ids=[c[0] for c in DF_ONLY_CASES])
def test_df_only_matches_dense_pieces(name, text, names, spec, bound, coh):
    f = parse_polynomial(text, names)
    dims = dF_only_cohomology(f, spec, bound)
    spaces, ranks = dense_dF_only_dims(f, spec, bound)
    assert [(d, s, out) for d, s, out, _ in dims.data] == \
        list(zip(range(spec.nvars + 1), spaces, ranks))
    assert [dims.coh(i) for i in range(spec.nvars + 1)] == coh
