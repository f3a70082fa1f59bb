"""Band ranks counted as degree-first pivots in the window engine, against
UnsplitWindowEngine, which eliminates every band in its own accumulators."""

import pytest
from hypothesis import given, settings, strategies as st

from dworkcohom import (StabilizationPolicy, StrandSpec, full_complex_spec,
                        stabilized_cohomology)
from dworkcohom.linalg import _WindowEngine
from dworkcohom.matrices import IntRankAccumulator

from _helpers import (UnsplitWindowEngine, fermat, polys, step_one_twist,
                      triangle, var)

pytestmark = pytest.mark.hash_order


def cubics():
    x = [var(3, k) for k in range(3)]
    return [("fermat cubic", fermat(3, 3)), ("x0*x1*x2", triangle()),
            ("cuspidal x1^2*x2 - x0^3", x[1] ** 2 * x[2] - x[0] ** 3),
            ("x0^2*x1 + x1^2*x2", x[0] ** 2 * x[1] + x[1] ** 2 * x[2]),
            ("x0^3 + x1^3 + x0*x1*x2",
             x[0] ** 3 + x[1] ** 3 + x[0] * x[1] * x[2])]


# (name, F, spec, policy or None for the default)
CASES = [
    *[(f"{name} strand {j}", f, StrandSpec(3, 3, j), None)
      for name, f in cubics() for j in range(3)],
    ("x0*x1*x2*x3 strand 0", var(4, 0) * var(4, 1) * var(4, 2) * var(4, 3),
     StrandSpec(4, 4, 0), None),
    *[(f"step-one twist from {p.initial_bound}", *step_one_twist(), p)
      for p in (StabilizationPolicy(4, 1, 8), StabilizationPolicy(2, 1, 7))],
    *[(f"x^2 + y^3 weighted 3,2 strand {j}", var(2, 0) ** 2 + var(2, 1) ** 3,
       StrandSpec(2, 6, j, (3, 2)), None) for j in range(6)],
]


def assert_counts_match_eliminated_bands(f, spec, policy):
    history = stabilized_cohomology(f, spec, policy).certificate.history
    engine = _WindowEngine(f, spec, history[-1][0])
    unsplit = UnsplitWindowEngine(f, spec)
    for bound, dims in history:
        assert engine.dims_at(bound) == dict(dims) == unsplit.dims_at(bound), \
            bound


@pytest.mark.parametrize("name, f, spec, policy", CASES,
                         ids=[c[0] for c in CASES])
def test_band_counts_match_eliminated_bands(name, f, spec, policy):
    assert_counts_match_eliminated_bands(f, spec, policy)


@settings(max_examples=25, deadline=None)
@given(polys(max_vars=3), st.data())
def test_band_counts_match_eliminated_bands_on_random_input(f, data):
    n = f.nvars
    weights = data.draw(st.none() | st.tuples(*[st.integers(1, 2)] * n))
    m = f.homogeneous_degree(weights)
    spec = full_complex_spec(n, weights)
    if m and data.draw(st.booleans()):
        spec = StrandSpec(n, m, data.draw(st.integers(0, m - 1)), weights)
    initial = data.draw(st.integers(0, 5))
    policy = StabilizationPolicy(initial, data.draw(st.integers(1, 3)),
                                 initial + data.draw(st.integers(0, 4)))
    assert_counts_match_eliminated_bands(f, spec, policy)


def test_a_repeated_bound_adds_no_column(monkeypatch):
    # the second call at a bound sweeps nothing and counts the same pivots
    f, spec = triangle(), StrandSpec(3, 3, 0)
    engine = _WindowEngine(f, spec, 6)
    first = engine.dims_at(6)
    calls = []
    add = IntRankAccumulator.add_column

    def spy(self, col):
        calls.append(col)
        return add(self, col)

    monkeypatch.setattr(IntRankAccumulator, "add_column", spy)
    assert engine.dims_at(6) == first
    assert calls == []
