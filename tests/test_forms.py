"""Exterior algebra, the twisted differential, strands and truncation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworkcohom import Family, Polynomial, QQ, StrandSpec, full_complex_spec
from dworkcohom.forms import (ColumnStencil, strand_basis_at_degree,
                              twisted_column, validate_twist_input)
from dworkcohom.exceptions import NonHomogeneousError

from _helpers import fermat, polys, quotient_dims, var
from oracles import DifferentialForm, form_degree, gradient_form, strand_basis


def mono_form(nvars, nu, I, c=1):
    return DifferentialForm.monomial_form(QQ, nvars, nu, I, c)


def test_wedge_basics():
    zero_exp = (0, 0)
    dx0 = mono_form(2, zero_exp, (0,))
    dx1 = mono_form(2, zero_exp, (1,))
    assert dx0.wedge(dx1) == mono_form(2, zero_exp, (0, 1))
    assert dx1.wedge(dx0) == mono_form(2, zero_exp, (0, 1), -1)
    assert not dx0.wedge(dx0)


@st.composite
def forms(draw, nvars=3, degree=None):
    if degree is None:
        degree = draw(st.integers(0, nvars))
    n_terms = draw(st.integers(0, 3))
    terms = {}
    idx_sets = st.lists(st.integers(0, nvars - 1), min_size=degree,
                        max_size=degree, unique=True)
    for _ in range(n_terms):
        I = tuple(sorted(draw(idx_sets)))
        nu = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        c = draw(st.integers(-3, 3))
        terms[(nu, I)] = terms.get((nu, I), 0) + c
    return DifferentialForm(QQ, nvars, degree, terms)


@settings(max_examples=60, deadline=None)
@given(forms(), forms())
def test_wedge_graded_anticommutative(a, b):
    ab = a.wedge(b)
    ba = b.wedge(a)
    sign = (-1) ** (a.degree * b.degree)
    assert ab == (ba if sign > 0 else -ba)


def test_exterior_derivative_examples():
    x0x1 = mono_form(2, (1, 1), ())
    d = x0x1.exterior_derivative()
    assert d == mono_form(2, (0, 1), (0,)) + mono_form(2, (1, 0), (1,))
    assert mono_form(2, (1, 0), (1,)).exterior_derivative() == \
        mono_form(2, (0, 0), (0, 1))
    w = mono_form(2, (2, 1), ())
    assert not w.exterior_derivative().exterior_derivative()


@settings(max_examples=50, deadline=None)
@given(forms())
def test_d_squared_zero(a):
    assert not a.exterior_derivative().exterior_derivative()


def test_twisted_differential_examples():
    f = var(1, 0) ** 2
    one = DifferentialForm.from_polynomial(Polynomial.constant(QQ, 1, 1))
    assert one.twisted_differential(f) == mono_form(1, (1,), (0,), 2)


X, Y, Z = (var(3, k) for k in range(3))
PENCIL = Family(fermat(3, 3), (X * Y * Z).scale(-3))
# (F, weights, the lcm of F's coefficient denominators), QQ(t) last
STENCIL_CASES = [
    (fermat(3, 3), None, 1),
    (fermat(3, 3) + 2 * X * Y * Z, None, 1),
    (Fraction(1, 3) * X ** 3 - Fraction(5, 4) * X * Y * Z + Y ** 2 + Z,
     None, 12),
    (fermat(3, 3) - 3 * X * Y * Z + Fraction(7, 2), None, 2),
    (var(2, 0) ** 2 + Fraction(2, 3) * var(2, 1) ** 3, (3, 2), 3),
    (PENCIL.symbolic(), None, None),
]


def test_twisted_column_matches_form_operations():
    # twisted_column is the reference: on every monomial form of total
    # degree <= 7 it must be D of the form algebra term for term, in the
    # form's term order, with values in F's field; ColumnStencil.column
    # must be scale * twisted_column, entry by entry and in the same order,
    # with each rise the exact degree increase.  The QQ(t) pencil has no
    # stencil: its keys and rises are checked against the stencil of its
    # member at t = 2, whose terms come in the same order
    for f, weights, scale in STENCIL_CASES:
        spec = full_complex_spec(f.nvars, weights)
        stencil = ColumnStencil(f if scale else PENCIL.at(2), weights, 7)
        assert stencil.scale == (scale or 1)
        for i in range(f.nvars + 1):
            for nu, I in strand_basis(spec, i, 7):
                col = twisted_column(f, nu, I)
                form = DifferentialForm.monomial_form(f.field, f.nvars, nu, I)
                want = form.twisted_differential(f).terms
                assert col == want and list(col) == list(want)
                assert all(type(v) is type(f.field.one) for v in col.values())
                entries = [(stencil.unpack(key), rise, v) for key, rise, v
                           in stencil.column(stencil.pack(nu, I))]
                assert [key for key, _, _ in entries] == list(col)
                for key, rise, v in entries:
                    assert isinstance(v, int)
                    assert not scale or Fraction(v, scale) == col[key]
                    assert rise == form_degree(spec, *key) - \
                        form_degree(spec, nu, I)


def test_stencil_df_part_is_the_wedge_with_dF():
    # the entries of column(nu, I) with rise > 0 must be scale * (dF ^ x^nu
    # dx_I), and the tail of the column that follows its d part, the
    # entries of rise 0
    for f, weights, _ in STENCIL_CASES[:-1]:
        stencil, dF = ColumnStencil(f, weights, 7), gradient_form(f)
        for i in range(f.nvars + 1):
            for nu, I in strand_basis(full_complex_spec(f.nvars, weights), i, 7):
                column = stencil.column(stencil.pack(nu, I))
                part = [entry for entry in column if entry[1]]
                assert column[len(column) - len(part):] == part
                d = mono_form(f.nvars, nu, I).exterior_derivative().terms
                assert {stencil.unpack(key): Fraction(v, stencil.scale) for
                        key, _, v in column[:len(column) - len(part)]} == d
                part = [(stencil.unpack(key), rise, v)
                        for key, rise, v in part]
                assert {key: Fraction(v, stencil.scale) for key, _, v in part} \
                    == dF.wedge(mono_form(f.nvars, nu, I)).terms


@settings(max_examples=80, deadline=None)
@given(polys(), st.data())
def test_stencil_keys_round_trip_up_to_the_width(f, data):
    # a stencil sized for sources of degree <= degree keys every form whose
    # exponents are at most degree + its largest rise, which bounds every
    # exponent of a source and of its column's targets: unpack inverts
    # pack there, so pack is injective, the form with every exponent at
    # that bound included
    n = f.nvars
    weights = data.draw(st.none() | st.tuples(*[st.integers(1, 3)] * n))
    degree = data.draw(st.integers(0, 40))
    stencil = ColumnStencil(f, weights, degree)
    top = degree + stencil.rise
    index_sets = st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
    forms = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, top)] * n), index_sets), max_size=10))
    forms.append(((top,) * n, tuple(range(n))))
    keys = [stencil.pack(nu, I) for nu, I in forms]
    assert [stencil.unpack(key) for key in keys] == forms
    assert len(set(keys)) == len(set(forms))


def test_stencil_builds_an_index_set_table_on_first_use():
    # 40 variables have 2^40 index sets: the stencil holds no table until
    # a column asks for one, then the one of that column's I
    n = 40
    f = sum(var(n, k) for k in range(n))
    stencil = ColumnStencil(f, None, 2)
    assert stencil.tables == {}
    nu, I = (1,) + (0,) * (n - 1), (3, 5)
    key = stencil.pack(nu, I)
    entries = [(stencil.unpack(target), rise, v)
               for target, rise, v in stencil.column(key)]
    assert list(stencil.tables) == [(1 << 3) | (1 << 5)]
    zero = (0,) * n
    assert entries == [((zero, (0, 3, 5)), 0, 1)] + [
        ((nu, tuple(sorted((k, 3, 5)))), 1, (-1) ** sum(j < k for j in I))
        for k in range(n) if k not in I]
    stencil.column(stencil.pack((2,) + (0,) * (n - 1), I))
    assert len(stencil.tables) == 1


def test_strand_preservation():
    f = fermat(3, 3)
    spec = StrandSpec(3, 3, 1)
    rng = random.Random(3)
    for _ in range(50):
        i = rng.randrange(3)
        for nu, I in strand_basis_at_degree(spec, i, 1 + 3 * rng.randrange(3)):
            image = mono_form(3, nu, I).twisted_differential(f)
            for (tnu, tI) in image.terms:
                assert form_degree(spec, tnu, tI) % spec.modulus == spec.residue


def test_degree_parts_of_twisted_differential():
    # degree-preserving part is d; degree-(+m) part is dF^
    f = fermat(3, 3)
    w = mono_form(3, (2, 1, 0), (1,))
    total = w.twisted_differential(f)
    d_part = w.exterior_derivative()
    df_part = gradient_form(f).wedge(w)
    spec = full_complex_spec(3)
    for key, c in total.terms.items():
        e = form_degree(spec, *key)
        if e == 4:
            assert d_part.terms.get(key) == c
        else:
            assert e == 7 and df_part.terms.get(key) == c


def test_strand_basis_counts():
    spec = StrandSpec(3, 3, 0)
    # with the bound on |nu|+|I|: only nu = 0 survives in form degree 3
    assert len(strand_basis(spec, 3, 3)) == 1
    # at bound 6 the |nu| = 3 layer joins: 1 + 10
    assert len(strand_basis(spec, 3, 6)) == 11
    assert len(strand_basis(spec, 1, 3)) == 18
    assert len(strand_basis(spec, 0, 3)) == 11


def test_strand_basis_grouped_by_degree():
    spec = StrandSpec(4, 4, 2)
    basis = strand_basis(spec, 2, 14)
    degs = [form_degree(spec, nu, I) for nu, I in basis]
    assert degs == sorted(degs)
    assert all(d % 4 == 2 for d in degs)


def test_assemble_zero_twist_is_de_rham():
    z = Polynomial.zero(QQ, 2)
    # no dF part: every column entry comes from d alone
    w = mono_form(2, (2, 0), ())
    col = twisted_column(z, (2, 0), ())
    assert DifferentialForm(QQ, 2, 1, col) == w.exterior_derivative()


def test_assemble_rejects_bad_twist():
    with pytest.raises(NonHomogeneousError):
        validate_twist_input(var(2, 0) ** 2 + var(2, 1), StrandSpec(2, 2, 0))
    with pytest.raises(ValueError):
        validate_twist_input(fermat(3, 3), StrandSpec(3, 4, 0))


def test_direct_sum_over_strands():
    f = fermat(3, 3)
    specs = [StrandSpec(3, 3, j) for j in range(3)]
    full_dims = quotient_dims(f, full_complex_spec(3), 7)
    split = [quotient_dims(f, spec, 7) for spec in specs]
    for i in range(4):
        assert full_dims.space(i) == sum(s.space(i) for s in split)

    def nnz(spec, i):   # entries of the quotient's matrix out of degree i
        return sum(form_degree(spec, *key) <= 7
                   for nu, I in strand_basis(spec, i, 7)
                   for key in twisted_column(f, nu, I))

    for i in range(3):
        assert nnz(full_complex_spec(3), i) == sum(nnz(s, i) for s in specs)
    for k in range(4):
        assert full_dims.coh(k) == sum(s.coh(k) for s in split)


def test_quotient_truncation_keeps_exp_jet():
    # the quotient complex by degree > N always carries the truncated
    # exp(-F) jet as a degree-0 class; this is why stabilized_cohomology
    # uses windowed dimensions instead of quotient dimensions
    f = var(1, 0) ** 2
    dims = quotient_dims(f, full_complex_spec(1), 4)
    assert dims.coh(0) == 1
    assert dims.euler_spaces() == dims.euler_cohomology()


def test_weighted_strand_basis():
    # cusp grading: weights (3, 2), modulus 6
    spec = StrandSpec(2, 6, 0, weights=(3, 2))
    for nu, I in strand_basis(spec, 1, 12):
        e = form_degree(spec, nu, I)
        assert e % 6 == 0 and e <= 12
