"""Exact scalar and polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dworkcohom import QQ, QQ_T, Polynomial, RatFunc, monomial_basis
from dworkcohom.exceptions import VariableCountMismatch
from dworkcohom.fields import poly_eval, poly_gcd, poly_mul, poly_trim
from dworkcohom.gaussmanin import ConnectionMatrix
from dworkcohom.poly import add_term

from _helpers import fermat, prs_gcd, recursive_monomial_basis, var


# ---- rational functions ----------------------------------------------


def test_ratfunc_canonical_reduction():
    t = QQ_T.gen
    r = (t ** 2 - 1) / (t - 1)
    assert r == t + 1
    assert r.num == (1, 1) and r.den == (1,)
    # denominator sign is normalized positive-leading
    s = RatFunc((1,), (-1, -2))
    assert s.den[-1] > 0 and s.num == (-1,)


def test_ratfunc_zero_and_pole():
    t = QQ_T.gen
    z = t - t
    assert not z and z.num == () and z.den == (1,)
    with pytest.raises(ZeroDivisionError):
        (1 / (1 - t ** 3)).evaluate(1)
    assert (1 / (1 - t ** 3)).evaluate(2) == Fraction(-1, 7)


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def ratfuncs(draw):
    num = tuple(draw(st.lists(small_ints, min_size=1, max_size=3)))
    den = tuple(draw(st.lists(small_ints, min_size=1, max_size=3)))
    if not any(den):
        den = (1,)
    return RatFunc(num, den)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if b:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(ratfuncs())
def test_ratfunc_canonical_idempotent(a):
    again = RatFunc(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@settings(max_examples=60, deadline=None)
@given(st.fractions(max_denominator=12), small_ints.filter(bool), ratfuncs())
def test_ratfunc_equal_values_hash_equal(q, k, a):
    # a constant equals its Fraction, so a set must hold the two once
    r = RatFunc((k * q.numerator,), (k * q.denominator,))
    assert r == q and hash(r) == hash(q) and len({r, q}) == 1
    again = (a + r) - r  # equal to a, built another way
    assert again == a and hash(again) == hash(a)


@settings(max_examples=100, deadline=None)
@given(ratfuncs(), st.fractions(max_denominator=30)
       .filter(lambda q: abs(q) < 50))
def test_ratfunc_evaluate_is_the_quotient_of_values(a, t0):
    # integer Horner against Fraction Horner on numerator and denominator
    d = poly_eval(a.den, t0)
    if d == 0:
        with pytest.raises(ZeroDivisionError, match=f"pole at t = {t0}$"):
            a.evaluate(t0)
    else:
        value = a.evaluate(t0)
        assert type(value) is Fraction
        assert value == poly_eval(a.num, t0) / d


def test_ratfunc_evaluate_at_roots_of_the_denominator():
    t = QQ_T.gen
    a = (t ** 3 + 2) / ((3 * t - 2) * (t + 5))
    for root in (Fraction(2, 3), Fraction(-5)):
        with pytest.raises(ZeroDivisionError, match=f"pole at t = {root}$"):
            a.evaluate(root)
    assert a.evaluate(Fraction(1, 2)) == Fraction(17, 8) / Fraction(-11, 4)
    assert ((t - 1) / (t + 1)).evaluate(1) == 0


def test_poly_gcd_primitive_positive():
    # (t^2 - 1) and (t - 1): gcd is t - 1 with positive leading coefficient
    assert poly_gcd((-1, 0, 1), (-1, 1)) == (-1, 1)
    assert poly_gcd((2, 2), (4,)) == (1,)
    assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)


# integer polynomials in t: zero, constants, c*t^k up to k = 6, anything
# of degree up to 6, and t^k times anything, coefficients of either sign
_NONZERO = st.integers(-12, 12).filter(bool)
_MONOMIALS = st.builds(lambda c, k: (0,) * k + (c,), _NONZERO,
                       st.integers(0, 6))
_GENERAL = st.lists(st.integers(-6, 6), max_size=7).map(poly_trim)
_INT_POLYS = st.one_of(st.just(()), _MONOMIALS, _GENERAL, st.builds(
    lambda k, p: (0,) * k + p if p else p, st.integers(0, 4), _GENERAL))


@settings(max_examples=400, deadline=None)
@given(_INT_POLYS, _INT_POLYS)
@example((), ())
@example((), (0, 0, -3))
@example((-5,), ())
@example((0, 0, 0, -2), (0, 4, 0, 6))
@example((0, 0, 7), (3, 0, 1))
@example((0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0, -1))
def test_poly_gcd_is_the_prs_gcd(a, b):
    # a monomial argument c*t^k takes no PRS: the gcd is t^min(k, v(y)),
    # and equals the primitive PRS's in either order
    assert poly_gcd(a, b) == poly_gcd(b, a) == prs_gcd(a, b)


# ---- polynomials ------------------------------------------------------


def test_ring_identities():
    x0, x1 = var(2, 0), var(2, 1)
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2
    a = 3 * x0 * x1 + x1 ** 2
    assert a + Polynomial.zero(QQ, 2) == a
    cube = (x0 + x1) ** 3
    assert sorted(cube.terms.values()) == [1, 1, 3, 3]


def test_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        var(2, 0) + var(3, 0)


def test_partial_derivative_examples():
    x0, x1, x2 = (var(3, k) for k in range(3))
    assert (x0 ** 3 + x1 ** 3).partial_derivative(0) == 3 * x0 ** 2
    assert Polynomial.constant(QQ, 3, 7).partial_derivative(0) == Polynomial.zero(QQ, 3)
    assert (x0 * x1 * x2).partial_derivative(1) == x0 * x2
    with pytest.raises(IndexError):
        x0.partial_derivative(5)


def test_homogeneous_degree():
    assert fermat(4, 4).homogeneous_degree() == 4
    x0, x1 = var(2, 0), var(2, 1)
    assert (x0 ** 2 + x1).homogeneous_degree() is None
    assert (var(3, 0) * var(3, 1) * var(3, 2)).homogeneous_degree() == 3
    with pytest.raises(ValueError):
        Polynomial.zero(QQ, 2).homogeneous_degree()
    # weighted grading: x^2 + y^3 is quasi-homogeneous for weights (3, 2)
    assert (x0 ** 2 + x1 ** 3).homogeneous_degree((3, 2)) == 6


def test_monomial_basis_counts_and_order():
    assert len(monomial_basis(3, 2)) == 6
    assert monomial_basis(1, 5) == [(5,)]
    assert len(monomial_basis(4, 3)) == 20
    basis = monomial_basis(3, 2)
    assert basis[0] == (2, 0, 0) and basis[-1] == (0, 0, 2)
    assert basis == sorted(basis, reverse=True)
    # weighted enumeration: weights (3, 2), degree 6 -> x^2 and y^3
    assert monomial_basis(2, 6, (3, 2)) == [(2, 0), (0, 3)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(-1, 12),
       st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=6,
                                     max_size=6)))
def test_monomial_basis_is_the_recursive_enumeration(nvars, d, weights):
    weights = None if weights is None else tuple(weights[:nvars])
    assert monomial_basis(nvars, d, weights) \
        == recursive_monomial_basis(nvars, d, weights)


def test_monomial_basis_of_many_variables():
    # one variable after another, with no recursion depth to run out of
    basis = monomial_basis(1200, 1)
    assert len(basis) == 1200
    assert all(nu[k] == 1 and sum(nu) == 1 for k, nu in enumerate(basis))


@st.composite
def polys(draw, nvars=2, maxdeg=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        nu = tuple(draw(st.integers(0, maxdeg)) for _ in range(nvars))
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[nu] = terms.get(nu, 0) + c
    return Polynomial(QQ, nvars, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(f, g):
    for k in range(2):
        lhs = (f * g).partial_derivative(k)
        rhs = f.partial_derivative(k) * g + f * g.partial_derivative(k)
        assert lhs == rhs


@pytest.mark.parametrize("f", [fermat(3, 3), fermat(4, 4), fermat(2, 3),
                               var(3, 0) * var(3, 1) * var(3, 2)])
def test_euler_identity(f):
    m = f.homogeneous_degree()
    total = Polynomial.zero(QQ, f.nvars)
    for k in range(f.nvars):
        total = total + var(f.nvars, k) * f.partial_derivative(k)
    assert total == f.scale(m)


def test_degree_of_product_adds():
    a, b = fermat(3, 2), var(2, 0) * var(2, 1)
    assert (a * b).total_degree() == a.total_degree() + b.total_degree()


def test_poly_hash_and_str_round():
    f = fermat(3, 3)
    assert hash(f) == hash(fermat(3, 3))
    assert str(f) == "x0^3 + x1^3 + x2^3"


# ---- the one cancelling update and the one printer --------------------


def values():
    ints = st.integers(-3, 3)
    fracs = st.builds(Fraction, ints, st.integers(1, 3))
    ratfuncs = st.builds(lambda a, b: RatFunc((a, b)) / RatFunc((1, 1)),
                         ints, ints)
    return st.one_of(ints, fracs, ratfuncs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), values()), max_size=30))
def test_add_term_is_the_dense_sum_without_zeros(updates):
    terms, dense, first = {}, {}, {}
    for key, c in updates:
        add_term(terms, key, c)
        dense[key] = dense.get(key, 0) + c
        first.setdefault(key, len(first))
    assert terms == {k: v for k, v in dense.items() if v}
    assert all(terms.values())
    # a key whose running sum never returned to zero keeps its first place
    steady, sums = set(first), {}
    for key, c in updates:
        sums[key] = sums.get(key, 0) + c
        if not sums[key]:
            steady.discard(key)
    kept = [k for k in terms if k in steady]
    assert kept == sorted(steady, key=first.get)


RATFUNC_TEXT = [
    ((5,), (1,), "5"),
    ((-7,), (1,), "-7"),
    ((0, 1), (1,), "t"),
    ((0, -1), (1,), "-t"),
    ((1,), (0, 1), "1/(t)"),
    ((-1,), (0, 1), "(-1)/(t)"),
    ((3,), (2,), "3/2"),
    ((1, 0, -1), (1,), "-t^2 + 1"),
    ((0, 0, 0, -1, 0, 2), (1,), "2*t^5 - t^3"),
    ((-2, 0, 1), (3, 0, 0, 1), "(t^2 - 2)/(t^3 + 3)"),
    ((0, 1), (-1, 0, 1), "(t)/(t^2 - 1)"),
    ((12345678901234567890,), (0, 1), "12345678901234567890/(t)"),
    ((0, 0, 1), (2,), "(t^2)/2"),
]


@pytest.mark.parametrize("num, den, text", RATFUNC_TEXT)
def test_ratfunc_text(num, den, text):
    assert str(RatFunc(num, den)) == text


DENOMINATOR_TEXT = [
    ((1,), "1"),
    ((-27,), "-27"),
    ((0, 1), "t"),
    ((0, -1), "-t"),
    ((0, -32, 0, 0, 0, 32), "32*t^5 - 32*t"),
    ((-27, 0, 0, 1), "t^3 - 27"),
    ((0, -27, 0, 0, 1002101470343), "1002101470343*t^4 - 27*t"),
    ((1, 0, 0, -1), "-t^3 + 1"),
    ((12345678901234567890, 0, -1), "-t^2 + 12345678901234567890"),
]


@pytest.mark.parametrize("den, text", DENOMINATOR_TEXT)
def test_connection_denominator_text(den, text):
    assert ConnectionMatrix((), {}, QQ_T, den).to_json_dict()["denominator"] == text
