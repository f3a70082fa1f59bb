"""Exterior algebra, the twisted differential, strands and truncation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworkcohom import (DifferentialForm, Polynomial, QQ, StrandSpec,
                        assemble_truncated_complex, cohomology_dims,
                        full_complex_spec, gradient_form, strand_basis)
from dworkcohom.forms import ColumnStencil, strand_basis_at_degree, twisted_column
from dworkcohom.exceptions import NonHomogeneousError

from _helpers import fermat, triangle, var


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


def test_twisted_column_matches_form_operations():
    # twisted_column is the reference: it must agree with d + dF^ on forms;
    # ColumnStencil.column must be scale * twisted_column, entry by entry
    # and in the same order, with each rise the exact degree increase
    x, y, z = (var(3, k) for k in range(3))
    cases = [
        (fermat(3, 3) + 2 * x * y * z, None, 1),
        (Fraction(1, 3) * x ** 3 - Fraction(5, 4) * x * y * z + y ** 2 + z,
         None, 12),
        (var(2, 0) ** 2 + Fraction(2, 3) * var(2, 1) ** 3, (3, 2), 3),
    ]
    for f, weights, scale in cases:
        spec = full_complex_spec(f.nvars, weights)
        stencil = ColumnStencil(f, weights)
        assert stencil.scale == scale
        for i in range(f.nvars):
            for nu, I in strand_basis(spec, i, 7):
                col = twisted_column(f, nu, I)
                form = mono_form(f.nvars, nu, I)
                assert DifferentialForm(QQ, f.nvars, i + 1, col) == \
                    form.twisted_differential(f)
                entries = stencil.column(nu, I)
                assert [key for key, _, _ in entries] == list(col)
                for key, rise, v in entries:
                    assert isinstance(v, int)
                    assert Fraction(v, scale) == col[key]
                    assert rise == spec.form_degree(*key) - \
                        spec.form_degree(nu, I)


def test_stencil_df_part_is_the_wedge_with_dF():
    # ColumnStencil.dF_part must be scale * (dF ^ x^nu dx_I), and the tail
    # of column(nu, I) that follows its d part
    x, y, z = (var(3, k) for k in range(3))
    for f, weights in [
            (fermat(3, 3) + 2 * x * y * z, None),
            (Fraction(1, 3) * x ** 3 - Fraction(5, 4) * x * y * z + y ** 2 + z,
             None),
            (var(2, 0) ** 2 + Fraction(2, 3) * var(2, 1) ** 3, (3, 2))]:
        stencil, dF = ColumnStencil(f, weights), gradient_form(f)
        for i in range(f.nvars + 1):
            for nu, I in strand_basis(full_complex_spec(f.nvars, weights), i, 7):
                part = stencil.dF_part(nu, I)
                column = stencil.column(nu, I)
                assert column[len(column) - len(part):] == part
                assert all(rise for _, rise, _ in part)
                assert {key: Fraction(v, stencil.scale) for key, _, v in part} \
                    == dF.wedge(mono_form(f.nvars, nu, I)).terms


def test_twisted_nilpotent_on_random_forms():
    # the acceptance property: D(D(omega)) = 0, here on 200 seeded samples
    rng = random.Random(7)
    f = fermat(3, 3)
    g = triangle()
    for trial in range(200):
        twist = f if trial % 2 else g
        degree = rng.randrange(3)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            I = tuple(sorted(rng.sample(range(3), degree)))
            nu = tuple(rng.randrange(3) for _ in range(3))
            terms[(nu, I)] = rng.randint(-5, 5)
        form = DifferentialForm(QQ, 3, degree, terms)
        assert not form.twisted_differential(twist).twisted_differential(twist)


def test_strand_preservation():
    f = fermat(3, 3)
    spec = StrandSpec(3, 3, 1)
    rng = random.Random(3)
    for _ in range(50):
        i = rng.randrange(3)
        for nu, I in strand_basis_at_degree(spec, i, 1 + 3 * rng.randrange(3)):
            image = mono_form(3, nu, I).twisted_differential(f)
            for (tnu, tI) in image.terms:
                assert spec.in_strand(tnu, tI)


def test_degree_parts_of_twisted_differential():
    # degree-preserving part is d; degree-(+m) part is dF^
    f = fermat(3, 3)
    w = mono_form(3, (2, 1, 0), (1,))
    total = w.twisted_differential(f)
    d_part = w.exterior_derivative()
    df_part = gradient_form(f).wedge(w)
    spec = full_complex_spec(3)
    for key, c in total.terms.items():
        e = spec.form_degree(*key)
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
    degs = [spec.form_degree(nu, I) for nu, I in basis]
    assert degs == sorted(degs)
    assert all(d % 4 == 2 for d in degs)


def test_assemble_nilpotence():
    c = assemble_truncated_complex(fermat(3, 3), StrandSpec(3, 3, 0), 6)
    assert c.check_nilpotent()
    for a, b in zip(c.matrices[1:], c.matrices[:-1]):
        assert a.compose(b).is_zero()


def test_assemble_zero_twist_is_de_rham():
    z = Polynomial.zero(QQ, 2)
    c = assemble_truncated_complex(z, full_complex_spec(2), 3)
    # no dF part: every matrix entry comes from d alone
    w = mono_form(2, (2, 0), ())
    col = twisted_column(z, (2, 0), ())
    assert DifferentialForm(QQ, 2, 1, col) == w.exterior_derivative()
    assert c.check_nilpotent()


def test_assemble_rejects_bad_twist():
    with pytest.raises(NonHomogeneousError):
        assemble_truncated_complex(var(2, 0) ** 2 + var(2, 1),
                                   StrandSpec(2, 2, 0), 4)
    with pytest.raises(ValueError):
        assemble_truncated_complex(fermat(3, 3), StrandSpec(3, 4, 0), 8)


def test_direct_sum_over_strands():
    f = fermat(3, 3)
    full = assemble_truncated_complex(f, full_complex_spec(3), 7)
    strandwise = [assemble_truncated_complex(f, StrandSpec(3, 3, j), 7)
                  for j in range(3)]
    for i in range(4):
        assert len(full.bases[i]) == sum(len(c.bases[i]) for c in strandwise)
    for i in range(3):
        nnz_full = len(full.matrices[i].entries)
        assert nnz_full == sum(len(c.matrices[i].entries) for c in strandwise)
        full_dims = cohomology_dims(full)
        split = [cohomology_dims(c) for c in strandwise]
        for k in range(4):
            assert full_dims.coh(k) == sum(s.coh(k) for s in split)


def test_quotient_truncation_keeps_exp_jet():
    # the quotient complex by degree > N always carries the truncated
    # exp(-F) jet as a degree-0 class; this is why stabilized_cohomology
    # uses windowed dimensions instead of quotient dimensions
    f = var(1, 0) ** 2
    c = assemble_truncated_complex(f, full_complex_spec(1), 4)
    dims = cohomology_dims(c)
    assert dims.coh(0) == 1
    assert dims.euler_spaces() == dims.euler_cohomology()


def test_weighted_strand_basis():
    # cusp grading: weights (3, 2), modulus 6
    spec = StrandSpec(2, 6, 0, weights=(3, 2))
    for nu, I in strand_basis(spec, 1, 12):
        e = spec.form_degree(nu, I)
        assert e % 6 == 0 and e <= 12
