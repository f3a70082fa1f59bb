"""The shared elimination loop of matrices against the loop before its
gcd-reduced step and before its largest-row pivots (the Markowitz loop),
its Z[t] step against field division over QQ(t), and its band counts on
degree-first row keys against the Markowitz loop and dense band ranks."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from dworkcohom import Job, dwork, griffiths, parse_polynomial, run_job
from dworkcohom.linalg import _WindowEngine
from dworkcohom.fields import (RatFunc, poly_add, poly_eval, poly_mul, poly_trim,
                               poly_zgcd)
from dworkcohom.matrices import (FieldRankAccumulator, IntRankAccumulator,
                                 integerize_column, rank_mod_p,
                                 rank_of_columns)

from _helpers import (PRIMES_62, CrossMultipliedRankAccumulator,
                      DivisionRankAccumulator, FieldMarkowitzRankAccumulator,
                      MarkowitzRankAccumulator, consuming_step,
                      cross_multiplied_step, dense_rank_fractions,
                      division_step, sparse_to_dense)

# a smooth plane cubic of the benchmark's window-dense panel
DENSE_CUBIC = "2*x0^3 - 2*x0*x1^2 + 2*x0*x1*x2 + x0*x2^2 + 2*x1^2*x2 - x1*x2^2"


def dense_cubic():
    return parse_polynomial(DENSE_CUBIC, ["x0", "x1", "x2"])


def stored(acc):
    """Every stored column with its rows in order, by pivot row in order."""
    return [(r, list(col.items())) for r, col in acc.pivcol.items()]


def random_columns(rng, nrows, ncols, rank):
    """Integer combinations of rank random sparse columns, with shared
    factors, so that steps cancel, re-add rows and meet every sign."""
    basis = [{r: rng.choice((-6, -2, -1, 1, 2, 3, 4, 2 ** 40 + 1))
              for r in range(nrows) if rng.random() < 0.4}
             for _ in range(rank)]
    cols = []
    for _ in range(ncols):
        col = {}
        for b in basis:
            k = rng.choice((0, 0, 1, -1, 2, -3))
            for r, v in b.items():
                col[r] = col.get(r, 0) + k * v
        cols.append({r: v for r, v in col.items() if v})
    return cols


def feed(acc, columns):
    for col in columns:
        acc.add_column(dict(col))
    return acc


def assert_same_elimination(columns):
    """The gcd-reduced step stores the columns of the cross-multiplied one,
    in the same order, and the Markowitz loop reaches the same rank."""
    new = feed(IntRankAccumulator(), columns)
    assert stored(new) == stored(feed(CrossMultipliedRankAccumulator(), columns))
    assert new.rank == feed(MarkowitzRankAccumulator(), columns).rank


def test_random_matrices_eliminate_as_before():
    rng = random.Random(19)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 16)
        assert_same_elimination(
            random_columns(rng, nrows, ncols, rng.randint(1, 8)))


@pytest.fixture(scope="module")
def dense_cubic_streams():
    """The columns each IntRankAccumulator of compare_smooth_paths on the
    dense cubic is fed, in order, one list per accumulator."""
    streams = {}
    add = IntRankAccumulator.add_column

    def record(self, col):
        streams.setdefault(self, []).append(dict(col))
        return add(self, col)

    mp = pytest.MonkeyPatch()
    mp.setattr(IntRankAccumulator, "add_column", record)
    try:
        assert dwork.compare_smooth_paths(dense_cubic()).ok
    finally:
        mp.undo()
    return list(streams.values())


def test_dense_cubic_eliminates_as_before(dense_cubic_streams):
    # 15 Macaulay columns at socle+1 and the proved window's 146 nonzero
    # columns; band ranks are counts, so no band column is fed, and the 28
    # sources that are pivot rows of the differential before are skipped
    assert sum(map(len, dense_cubic_streams)) == 161
    for columns in dense_cubic_streams:
        assert_same_elimination(columns)


# The steps compare_smooth_paths takes on the dense cubic, in the Macaulay
# rank at socle+1 and in the proved window.  A cost pin: the size-first
# pivot row took 1,371 and the Markowitz-first one 1,165, 1,113 of them in
# the window's main and band accumulators.  Counting band ranks as pivots
# (linalg docstring, "Band counts") dropped the band columns and their
# steps (754), and skipping the sources that are pivot rows of the
# differential before ("Skipped sources") left 475.  Storing each column
# under its largest row, newest row first within a degree, takes 96: new
# rows are the ones that the fewest stored columns touch.  Fewer is
# better, and a change either way should be understood before the pin is
# moved.
STEPS = 96


def test_compare_smooth_paths_step_count(monkeypatch):
    calls = []
    step = IntRankAccumulator._step

    def spy(col, pcol, r):
        calls.append(r)
        return step(col, pcol, r)

    monkeypatch.setattr(IntRankAccumulator, "_step", staticmethod(spy))
    assert dwork.compare_smooth_paths(dense_cubic()).ok
    assert len(calls) == STEPS


def smooth_paths_run(monkeypatch):
    """compare_smooth_paths on the dense cubic: its verdict and the pivots
    of every IntRankAccumulator it feeds, each column's items in order."""
    accs, add = {}, IntRankAccumulator.add_column

    def record(self, col):
        accs.setdefault(id(self), self)
        return add(self, col)

    monkeypatch.setattr(IntRankAccumulator, "add_column", record)
    verdict = dwork.compare_smooth_paths(dense_cubic())
    monkeypatch.setattr(IntRankAccumulator, "add_column", add)
    return verdict, [[(r, list(c.items())) for r, c in acc.pivcol.items()]
                     for acc in accs.values()]


@pytest.mark.hash_order
def test_compare_smooth_paths_steps_consume_their_column(monkeypatch):
    # the integer step updates the column it is given in place; with a step
    # that clears it afterwards, no caller reads it again, so the verdict
    # and every stored pivot are those of the plain step
    want = smooth_paths_run(monkeypatch)
    assert want[0].ok and len(want[1]) > 1
    monkeypatch.setattr(IntRankAccumulator, "_step",
                        consuming_step(IntRankAccumulator._step))
    assert smooth_paths_run(monkeypatch) == want


def test_engine_columns_are_whole(monkeypatch):
    # dwork x0*x1*x2: every add_column call of the window engine carries
    # the whole column of one representative source, none a band part, and
    # every source with a nonzero column is fed unless it is a stored pivot
    # row of the differential before (linalg docstring, "Skipped sources")
    sources, skipped, calls = [], [], []
    emit = _WindowEngine._sources

    def record_sources(self, i, e):
        stream = list(emit(self, i, e))
        pivots = self.acc[i - 1].pivcol if i else {}
        for nu, I, _ in stream:
            if self.stencil.column(nu, I):
                sources.append((nu, I))
                if self.rows[i].get((nu, I)) in pivots:
                    skipped.append((nu, I))
        return stream

    init, add = _WindowEngine.__init__, IntRankAccumulator.add_column
    engine_accs = {}

    def record_init(self, f, spec):
        init(self, f, spec)
        engine_accs.update((id(acc), acc) for acc in self.acc)

    def record(self, col):
        if id(self) in engine_accs:
            calls.append(col)
        return add(self, col)

    monkeypatch.setattr(_WindowEngine, "_sources", record_sources)
    monkeypatch.setattr(_WindowEngine, "__init__", record_init)
    monkeypatch.setattr(IntRankAccumulator, "add_column", record)
    code, _ = run_job(Job.from_dict({"command": "dwork",
                                     "polynomial": "x0*x1*x2",
                                     "variables": ["x0", "x1", "x2"]}))
    assert code == 0
    assert len(sources) == 616
    assert len(calls) == len(sources) - len(skipped) == 416


def test_quintic_macaulay_rank_step_count(monkeypatch):
    # the Dwork quintic's rank at socle+1, which dominates jacobian-gm's
    # Macaulay ranks: 3,144 steps with the oldest-pivot scan and the
    # Markowitz key, 5,542 under largest-row pivots.  The count rises
    # because head reduction stores columns whose lower rows are still
    # pivot rows, which later columns clear; the time falls (23 to 17 ms
    # on one x86-64 core) because a step's row is one max over the column,
    # where the scan walked every row of it in Python at every step
    calls = []
    step = IntRankAccumulator._step

    def spy(col, pcol, r):
        calls.append(r)
        return step(col, pcol, r)

    monkeypatch.setattr(IntRankAccumulator, "_step", staticmethod(spy))
    names = ["x0", "x1", "x2", "x3", "x4"]
    f = parse_polynomial("x0^5 + x1^5 + x2^5 + x3^5 + x4^5"
                         " - 10*x0*x1*x2*x3*x4", names)
    partials = [f.partial_derivative(k) for k in range(5)]
    assert griffiths.macaulay_rank(partials, 5, 4, 16) == 4845
    assert len(calls) == 5542


# ---- the gcd-reduced step -------------------------------------------------


@pytest.mark.parametrize("col, pcol", [
    ({0: 6, 1: 5, 2: 1}, {0: 4, 1: 3, 3: 2}),     # g = 2
    ({0: 6, 1: 5}, {0: 3, 2: 7}),                 # pivot multiplier 1
    ({0: 5, 1: -7}, {0: -3, 1: 2, 2: 1}),         # negative pivot
    ({0: -4, 2: 1}, {0: -1, 1: 9}),               # pivot -1
    ({0: 2 ** 40, 1: 3}, {0: 2 ** 41, 1: 6}),     # cancels row 1 too
])
def test_step_is_the_primitive_cross_multiplied_column(col, pcol):
    new = IntRankAccumulator._step(dict(col), pcol, 0)
    assert list(new.items()) == list(cross_multiplied_step(col, pcol, 0).items())
    assert 0 not in new


ENTRY = st.one_of(st.integers(-2 ** 40, 2 ** 40),
                  st.sampled_from((-6, -4, -2, -1, 1, 2, 3, 4, 6)))


@st.composite
def low_rank_columns(draw):
    """Integer columns spanned by a few drawn columns, with a drawn common
    factor, so pivot entries share factors and come out 1 or negative."""
    nrows = draw(st.integers(1, 6))
    basis = draw(st.lists(st.dictionaries(st.integers(0, nrows - 1), ENTRY,
                                          min_size=1), min_size=1, max_size=4))
    factor = draw(st.sampled_from((1, 2, 6, -3)))
    cols = []
    for ks in draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(basis),
                                     max_size=len(basis)), max_size=7)):
        col = {}
        for k, b in zip(ks, basis):
            for r, v in b.items():
                col[r] = col.get(r, 0) + factor * k * v
        cols.append({r: v for r, v in col.items() if v})
    return nrows, cols


class CheckedStep(IntRankAccumulator):
    """The engine's accumulator, every step checked against the formula."""

    @staticmethod
    def _step(col, pcol, r):
        new = IntRankAccumulator._step(dict(col), pcol, r)   # consumes it
        want = cross_multiplied_step(col, pcol, r)
        assert list(new.items()) == list(want.items())
        return new


@settings(max_examples=150, deadline=None)
@given(low_rank_columns())
def test_int_rank_is_the_dense_rank(drawn):
    nrows, cols = drawn
    acc = feed(CheckedStep(), cols)
    dense = [[Fraction(col.get(r, 0)) for col in cols] for r in range(nrows)]
    assert acc.rank == (dense_rank_fractions(dense) if cols else 0)
    field = feed(DivisionRankAccumulator(),
                 [{r: Fraction(v) for r, v in col.items()} for col in cols])
    assert field.rank == acc.rank
    for p in (2, 3, 2 ** 31 - 1):
        assert rank_mod_p(cols, p) <= acc.rank


def test_rank_mod_p_on_engine_columns():
    # the oracle takes the columns rank_of_columns takes: Fraction entries,
    # rows keyed (nu, I) as the window engine keys them, empty columns
    rng = random.Random(34)
    keys = [((a, b, 2 - a), I) for a in range(3) for b in range(3)
            for I in ((), (0,), (1, 2))]
    for _ in range(40):
        rows = rng.sample(keys, rng.randint(1, 10))
        cols = [{r: Fraction(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 6))
                 for r in rows if rng.random() < 0.4}
                for _ in range(rng.randint(1, 8))]
        if len(cols) > 1:   # a dependent column
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(2)
            both = cols[0].keys() | cols[1].keys()
            dep = {r: a * cols[0].get(r, 0) + b * cols[1].get(r, 0) for r in both}
            cols.append({r: v for r, v in dep.items() if v})
        cols.insert(rng.randrange(len(cols) + 1), {})
        exact = rank_of_columns(cols)
        assert exact == dense_rank_fractions(sparse_to_dense(cols))
        ranks = [rank_mod_p(cols, p) for p in rng.sample(PRIMES_62, 3)]
        assert all(r <= exact for r in ranks) and max(ranks) == exact
    p = PRIMES_62[0]
    with pytest.raises(ZeroDivisionError):
        rank_mod_p([{keys[0]: Fraction(1)}, {keys[1]: Fraction(3, 2 * p)}], p)


# ---- the Z[t] step --------------------------------------------------------


def as_ratfuncs(col):
    return {r: RatFunc(v) for r, v in col.items()}


def zt_gcd(values):
    """The gcd of IntPoly values in Z[t], positive leading coefficient."""
    return reduce(poly_zgcd, values, values[0])


class CheckedFieldStep(FieldRankAccumulator):
    """The Z[t] accumulator, every step checked against field division: the
    result clears row r, keeps the division step's rows in their order, is
    a multiple of its column over QQ(t), and is primitive over Z[t]."""

    @staticmethod
    def _step(col, pcol, r):
        new = FieldRankAccumulator._step(dict(col), pcol, r)     # consumes it
        want = division_step(as_ratfuncs(col), as_ratfuncs(pcol), r)
        assert r not in new and list(new) == list(want)
        if new:
            got = as_ratfuncs(new)
            ratio = got[next(iter(got))] / want[next(iter(want))]
            assert all(got[s] == ratio * want[s] for s in want)
            assert zt_gcd(list(new.values())) == (1,)
        return new


@pytest.mark.parametrize("col, pcol", [
    ({0: (2, 4), 1: (1,)}, {0: (1, 2), 2: (0, 1)}),         # g = 1 + 2t
    ({0: (0, 3), 1: (5,)}, {0: (0, -6), 1: (1, 1)}),        # negative pivot
    ({0: (1, 1), 1: (0, 1)}, {0: (1, 0, -1), 1: (2,)}),    # g = -(1 + t)
    ({0: (7,), 1: (1, 1)}, {0: (1,), 1: (3,)}),             # multiplier 1
])
def test_zt_step_is_the_primitive_division_step(col, pcol):
    new = CheckedFieldStep._step(dict(col), pcol, 0)
    assert all(type(v) is tuple for v in new.values())


ZT_ENTRY = st.builds(
    RatFunc, st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(tuple),
    st.sampled_from(((1,), (2,), (-3,), (1, 1), (0, 2), (1, 0, -1), (3, 1))))


@st.composite
def ratfunc_columns(draw):
    """QQ(t) columns: a few drawn ones and QQ(t)-combinations of them, so
    that some are dependent and the steps cancel whole rows."""
    nrows = draw(st.integers(1, 5))
    basis = draw(st.lists(st.dictionaries(st.integers(0, nrows - 1), ZT_ENTRY,
                                          min_size=1), min_size=1, max_size=4))
    cols = list(basis)
    for ks in draw(st.lists(st.lists(st.one_of(st.just(RatFunc(())), ZT_ENTRY),
                                     min_size=len(basis), max_size=len(basis)),
                            max_size=4)):
        col = {}
        for k, b in zip(ks, basis):
            for r, v in b.items():
                col[r] = col.get(r, RatFunc(())) + k * v
        cols.append({r: v for r, v in col.items() if v})
    return draw(st.permutations(cols))


@settings(max_examples=150, deadline=None)
@given(ratfunc_columns())
def test_zt_rank_is_the_division_rank(cols):
    acc = feed(CheckedFieldStep(), [integerize_column(col) for col in cols])
    oracle = feed(DivisionRankAccumulator(), cols)
    assert acc.rank == oracle.rank == rank_of_columns(cols)
    assert acc.rank <= min(len(cols), len({r for col in cols for r in col}))


# ---- degree-first row keys ------------------------------------------------

SHIFT = 8   # a row r of degree d is keyed d << SHIFT | r, r < 2^SHIFT


def graded(col, degree):
    """col with each row r keyed by its degree first, then by r."""
    return {degree[r] << SHIFT | r: v for r, v in col.items()}


@settings(max_examples=200, deadline=None)
@given(low_rank_columns(), st.data())
def test_pivots_above_n_count_the_band_rank(drawn, data):
    """On degree-first row keys, after every column, the stored pivots of
    degree > N number the rank of the columns fed so far on their rows of
    degree > N, for every N, and no stored column has an entry above its
    pivot's degree."""
    nrows, cols = drawn
    degree = data.draw(st.lists(st.integers(0, 3), min_size=nrows,
                                max_size=nrows))
    acc = IntRankAccumulator()
    for k, col in enumerate(cols, 1):
        acc.add_column(graded(col, degree))
        for r, pcol in acc.pivcol.items():
            assert max(s >> SHIFT for s in pcol) == r >> SHIFT
        for n in range(-1, 4):
            band = [[Fraction(c.get(r, 0)) for c in cols[:k]]
                    for r in range(nrows) if degree[r] > n]
            pivots = sum(r >> SHIFT > n for r in acc.pivcol)
            assert pivots == dense_rank_fractions(band), (k, n)


ZT_POLY = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    poly_trim).filter(bool)


@st.composite
def zt_low_rank_columns(draw):
    """Columns over Z[t], IntPoly entries, spanned by a few drawn ones with
    Z[t] multipliers, so that some are dependent and steps cancel rows."""
    nrows = draw(st.integers(1, 6))
    basis = draw(st.lists(st.dictionaries(st.integers(0, nrows - 1), ZT_POLY,
                                          min_size=1), min_size=1, max_size=4))
    multiplier = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(
        poly_trim)
    cols = []
    for ks in draw(st.lists(st.lists(multiplier, min_size=len(basis),
                                     max_size=len(basis)), max_size=7)):
        col = {}
        for k, b in zip(ks, basis):
            for r, v in b.items():
                col[r] = poly_add(col.get(r, ()), poly_mul(k, v))
        cols.append({r: v for r, v in col.items() if v})
    return nrows, cols


# Entries of zt_low_rank_columns have degree <= 3 and coefficients below
# 100, so a minor of at most 6 rows has coefficients below 2^60, and every
# root has absolute value below 2^61 (Cauchy's bound): at t = 2^80 the rank
# over QQ is the rank over QQ(t).
T = 2 ** 80


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_columns().map(lambda d: (False, *d)),
                 zt_low_rank_columns().map(lambda d: (True, *d))), st.data())
def test_band_counts_are_the_markowitz_band_ranks(drawn, data):
    """On random integer and Z[t] columns with random row degrees, after
    every column, the rank and every band count of the largest-row loop on
    degree-first row keys are those of the Markowitz loop with the same
    degrees, and the dense rank of the band rows."""
    symbolic, nrows, cols = drawn
    degree = data.draw(st.lists(st.integers(0, 3), min_size=nrows,
                                max_size=nrows))
    if symbolic:
        new, old = FieldRankAccumulator(), FieldMarkowitzRankAccumulator(degree)
        value = lambda v: poly_eval(v, T)
    else:
        new, old = IntRankAccumulator(), MarkowitzRankAccumulator(degree)
        value = Fraction
    for k, col in enumerate(cols, 1):
        new.add_column(graded(col, degree))
        old.add_column(dict(col))
        for n in range(-1, 4):
            band = [[value(c[r]) if r in c else 0 for c in cols[:k]]
                    for r in range(nrows) if degree[r] > n]
            assert (sum(r >> SHIFT > n for r in new.pivcol)
                    == sum(degree[r] > n for r in old.pivcol)
                    == dense_rank_fractions(band)), (k, n)
        assert new.rank == old.rank
