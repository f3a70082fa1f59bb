"""The window engine skips the sources of D^i that are stored pivot rows of
D^(i-1) (linalg docstring, "Skipped sources"), against
UnskippedWindowEngine, which assembles every source, at every bound of a
stabilized_cohomology escalation."""

import pytest
from hypothesis import given, settings, strategies as st

from dworkcohom import (QQ, Polynomial, StabilizationPolicy, StrandSpec,
                        full_complex_spec, stabilized_cohomology)
from dworkcohom.linalg import _WindowEngine
from dworkcohom.poly import monomial_basis

from _helpers import UnskippedWindowEngine, fermat, triangle, var

pytestmark = pytest.mark.hash_order


def product(nvars):
    p = var(nvars, 0)
    for k in range(1, nvars):
        p = p * var(nvars, k)
    return p


# (name, F, spec, policy or None for the default)
CASES = [
    ("fermat quartic strand 0", fermat(4, 4), StrandSpec(4, 4, 0),
     StabilizationPolicy(12, 4, 20)),
    ("nodal K3 strand 0", fermat(4, 4) + product(4).scale(-4),
     StrandSpec(4, 4, 0), StabilizationPolicy(12, 4, 20)),
    ("x0*x1*x2*x3 strand 0", product(4), StrandSpec(4, 4, 0), None),
    *[(f"x0*x1*x2 strand {j}", triangle(), StrandSpec(3, 3, j), None)
      for j in range(3)],
    ("x0*x1*x2 full complex", triangle(), full_complex_spec(3), None),
    ("x^2 + y^3 weighted 3,2", var(2, 0) ** 2 + var(2, 1) ** 3,
     full_complex_spec(2, (3, 2)), None),
    *[(f"x^2 + y^3 weighted 3,2 strand {j}", var(2, 0) ** 2 + var(2, 1) ** 3,
       StrandSpec(2, 6, j, (3, 2)), None) for j in range(6)],
    ("affine x^3 + y^3 + x*y", var(2, 0) ** 3 + var(2, 1) ** 3
     + var(2, 0) * var(2, 1), full_complex_spec(2),
     StabilizationPolicy(6, 1, 9)),
]


def window(engine, bound):
    """The dims at bound, the source counts and the weighted rank of every
    differential."""
    dims = engine.dims_at(bound)
    serial = (1 << engine.SERIAL_BITS) - 1      # the serial bits of a row id
    ranks = [sum(engine.row_w[i + 1][r & serial] for r in acc.pivcol)
             for i, acc in enumerate(engine.acc)]
    return dims, list(engine.dim_cum), ranks


def assert_skip_matches_unskipped(f, spec, policy):
    history = stabilized_cohomology(f, spec, policy).certificate.history
    last = history[-1][0]
    engine = _WindowEngine(f, spec, last)
    unskipped = UnskippedWindowEngine(f, spec, last)
    for bound, dims in history:
        got = window(engine, bound)
        assert got == window(unskipped, bound), bound
        assert got[0] == dict(dims), bound


@pytest.mark.parametrize("name, f, spec, policy", CASES,
                         ids=[c[0] for c in CASES])
def test_skipped_sources_keep_every_window(name, f, spec, policy):
    assert_skip_matches_unskipped(f, spec, policy)


@st.composite
def cubics(draw):
    """Plane cubics of one to five terms with small integer coefficients."""
    monomials = monomial_basis(3, 3)
    terms = draw(st.dictionaries(st.sampled_from(monomials),
                                 st.sampled_from([-2, -1, 1, 2]),
                                 min_size=1, max_size=5))
    return Polynomial(QQ, 3, terms)


@settings(max_examples=20, deadline=None)
@given(cubics(), st.sampled_from([None, 0, 1, 2]))
def test_skipped_sources_keep_every_window_on_random_cubics(f, strand):
    spec = full_complex_spec(3) if strand is None else StrandSpec(3, 3, strand)
    assert_skip_matches_unskipped(f, spec, StabilizationPolicy(6, 3, 12))
