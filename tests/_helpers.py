"""Shared builders and independent oracles for the test suite."""

from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from dworkcohom import QQ, ComplexDims, Polynomial, full_complex_spec, griffiths
from dworkcohom.exceptions import BasisError, ParseError, UnknownVariableError
from dworkcohom.forms import (ColumnStencil, DifferentialForm, gradient_form,
                              strand_basis, strand_basis_at_degree,
                              twisted_column)
from dworkcohom.gaussmanin import (_SCALE, GriffithsDworkReducer, _DegreeSolver,
                                   _dense, _solve_square, connection_matrix)
from dworkcohom.fields import (RatFunc, poly_neg, poly_primitive,
                               poly_pseudo_rem)
from dworkcohom.linalg import _WindowEngine
from dworkcohom.matrices import (FieldRankAccumulator, IntRankAccumulator,
                                 _RankAccumulator, integerize_column,
                                 primitive_column)
from dworkcohom.poly import add_term, count_monomials, monomial_basis
from dworkcohom.reports import Check


def act(s, mu):
    """s.mu, with (s.mu)[s[k]] = mu[k]."""
    out = [0] * len(mu)
    for k, e in enumerate(mu):
        out[s[k]] = e
    return tuple(out)


def closure(gens, n):
    """The group the permutations gens generate, by composition."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[g[k]] for k in range(n))
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


@st.composite
def polys(draw, max_vars=4):
    """Polynomials of up to max_vars variables and four terms, some with
    their support closed under a random permutation of the variables."""
    n = draw(st.integers(1, max_vars))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    if draw(st.booleans()):  # close the support under a random permutation
        s = draw(st.permutations(range(n)))
        terms.update({act(s, mu): c for mu, c in list(terms.items())})
    return Polynomial(QQ, n, terms)


def var(nvars, k, field=QQ):
    return Polynomial.variable(field, nvars, k)


def fermat(m, nvars, field=QQ):
    return sum(Polynomial.variable(field, nvars, k) ** m for k in range(nvars))


def triangle():
    return var(3, 0) * var(3, 1) * var(3, 2)


def step_one_twist():
    """(F, full complex spec) with F inhomogeneous of top degree 3 > step 1,
    so each window's band spans source degrees an earlier window of the
    same engine already swept."""
    x0, x1 = var(2, 0), var(2, 1)
    return x0 ** 3 + x0 * x1 + Fraction(1, 3) * x1 ** 2, full_complex_spec(2)


# Verified 62-bit primes (deterministic stand-ins for "random" primes).
PRIMES_62 = (2305843009213693967, 2305843009213693973, 2305843009213694009,
             2305843009213694017, 2305843009213694087, 2305843009213694149)


def series_hilbert(m, nvars, upto):
    """Independent oracle: coefficients of ((1-s^(m-1))/(1-s))^nvars.

    This is the Hilbert series of the Jacobian ring of a Fermat
    hypersurface of degree m, by the tensor-product structure; computed
    here by direct power-series convolution, no engine code involved.
    """
    block = [1] * (m - 1)  # (1 - s^(m-1)) / (1 - s) = 1 + s + ... + s^(m-2)
    series = [1]
    for _ in range(nvars):
        out = [0] * (upto + 1)
        for i, a in enumerate(series):
            if i > upto:
                break
            for j, b in enumerate(block):
                if i + j <= upto:
                    out[i + j] += a * b
        series = out
    return series


def ranked_profile(f):
    """jacobian_hilbert(f) by ranks alone: the Macaulay rank at socle+1
    decides smoothness, a smooth profile is the complete-intersection
    series and a singular one is ranked degree by degree.  This is the
    oracle for the coprime-lead certificate, which skips the first rank."""
    m, nvars = f.homogeneous_degree(), f.nvars
    partials = [f.partial_derivative(k) for k in range(nvars)]
    socle = nvars * (m - 2)

    def h(d):
        return (count_monomials(nvars, d)
                - griffiths.macaulay_rank(partials, nvars, m - 1, d))

    beyond = h(socle + 1)
    smooth = beyond == 0
    if smooth:
        hilbert = [griffiths._koszul_hilbert(m, nvars, d)
                   for d in range(socle + 3)]
    else:
        hilbert = [beyond if d == socle + 1 else h(d) for d in range(socle + 3)]
    return griffiths.JacobianProfile(m, nvars, tuple(hilbert), socle, smooth,
                                     sum(hilbert) if smooth else None)


def family_matrix(fam, basis=None):
    """(reducer, matrix): the QQ(t) reducer of the family and its symbolic
    connection matrix, built as the gm command builds them.  The one
    helper that builds a family's matrix."""
    reducer = GriffithsDworkReducer(fam.symbolic())
    return reducer, connection_matrix(reducer, fam.perturbation, basis)


def solved_connection_matrix(reducer, perturbation, forms):
    """Entries of the connection matrix on forms by the general path:
    reduce the forms and their perturbation products, then solve U X = R.
    The oracle for connection_matrix's shortcut on the standard basis."""
    field, k = reducer.field, len(forms)
    lifted = [p.map_coefficients(field.coerce, field) for p in forms]
    g = perturbation.map_coefficients(field.coerce, field)
    return _solve_square(
        [_dense(reducer.reduce(p), k, field.zero) for p in lifted],
        [_dense(reducer.reduce(g * p), k, field.zero) for p in lifted], k)


def prs_gcd(a, b):
    """fields.poly_gcd by the primitive PRS alone, for every argument: the
    oracle of its monomial shortcut.  Primitive, with a positive leading
    coefficient; () when both arguments are zero."""
    a, b = poly_primitive(a), poly_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, poly_primitive(poly_pseudo_rem(a, b))
    if not a:
        return ()
    return poly_neg(a) if a[-1] < 0 else a


def dense_matmul(a, b):
    """a @ b for matrices given as sequences of rows.

    Zero factors are skipped, and every sum starts at the zero of the
    product's type, so an entry has the same type whether or not all its
    products vanish.
    """
    cols = list(zip(*b))
    zero = a[0][0] * b[0][0] * 0 if a and b else 0
    out = []
    for row in a:
        nonzero = [(k, x) for k, x in enumerate(row) if x]
        out.append([sum((x * col[k] for k, x in nonzero if col[k]), zero)
                    for col in cols])
    return out


def _test_invertible_matrix(k):
    """Deterministic invertible rational matrix (unit lower x unit upper).

    The off-diagonal entries of the factors are (state % 7 - 3) /
    (1 + state % 3), whose denominators divide 6, so both factors are
    multiplied in integers scaled by 6 and each entry of the product is
    divided by 36 once.
    """
    vals = []
    state = 2 * 2654435761 % 2 ** 32  # fixed seed: one matrix per size
    for _ in range(2 * k * k):
        state = (1103515245 * state + 12345) % 2 ** 31
        vals.append((state % 7 - 3) * (6 // (1 + state % 3)))
    lower = [[6 if i == j else (vals.pop() if i > j else 0)
              for j in range(k)] for i in range(k)]
    upper = [[6 if i == j else (vals.pop() if i < j else 0)
              for j in range(k)] for i in range(k)]
    return [[Fraction(v, 36) for v in row]
            for row in dense_matmul(lower, upper)]


def solved_conjugation_check(reducer, perturbation, sym):
    """The basis-change check by two solves: the matrix on the new basis
    (a dense S from _test_invertible_matrix) solved by connection_matrix,
    against S^-1 M S solved from S X = M S.  The oracle for the product
    identity of connection_properties_check."""
    k = sym.size
    s = _test_invertible_matrix(k)
    new_forms = [sum((p.scale(s[i][j]) for i, p in enumerate(sym.basis)
                      if s[i][j]), Polynomial.zero(QQ, reducer.nvars))
                 for j in range(k)]
    conj = connection_matrix(reducer, perturbation, new_forms)
    expected = _solve_square(list(zip(*s)),
                             list(zip(*dense_matmul(sym.entries, s))), k)
    return Check("basis change conjugates the matrix", conj.entries, expected)


def _field_value(field):
    """The field value of a lifted entry: an integer, or an IntPoly in t."""
    return Fraction if field is QQ else RatFunc


def decoded_column(solver, col):
    """A column of _DegreeSolver over the field's lift, its keys decoded
    through MacaulayColumns.unpack: (std entries keyed by monomial, combo
    entries keyed by (i, g)).  A row key is a packed monomial; an
    augmentation key is -2 - (pack(g) * nvars + i)."""
    columns = solver.columns
    std, combo = {}, {}
    for r, c in col.items():
        if r < 0:
            g, i = divmod(-2 - r, columns.nvars)
            combo[i, columns.unpack(g)] = c
        else:
            std[columns.unpack(r)] = c
    return std, combo


def packed_part(solver, terms):
    """A term map keyed by monomials, keyed by their packed integers."""
    return {solver.columns.pack(nu): c for nu, c in terms.items()}


def field_solve(solver, terms):
    """_DegreeSolver.solve on a part over the field: the part lifted by
    integerize_column, packed, solved, and the column divided by its scale
    (times the lift's).  Returns (std coords keyed by monomial, combo keyed
    by (i, g)) with part = sum std x^nu + sum combo g dF_i."""
    value = _field_value(solver.field)
    lifted = integerize_column({**terms, _SCALE: solver.field.one})
    scale = value(lifted.pop(_SCALE))
    col = solver.solve(packed_part(solver, lifted))
    scale = scale * value(col.pop(_SCALE))
    std, combo = decoded_column(solver, col)
    return ({nu: value(c) / scale for nu, c in std.items()},
            {key: -value(c) / scale for key, c in combo.items()})


def division_solve(solver, part):
    """_DegreeSolver.solve as it was before it returned its column: the
    part over the field, packed, lifted together with the augmentation
    entry 1, reduced, and one quotient per entry.  Returns (std coords
    keyed by monomial, combo keyed by (i, g))."""
    part = packed_part(solver, part)
    solver._close(part)
    _, col = solver._reduce(
        integerize_column({**part, _SCALE: solver.field.one}))
    scale, quotient = col.pop(_SCALE), _field_value(solver.field)
    std, combo = decoded_column(solver, col)
    return ({nu: quotient(c, scale) for nu, c in std.items()},
            {key: -quotient(c, scale) for key, c in combo.items()})


class PerColumnSolver(_DegreeSolver):
    """_DegreeSolver with the elimination it had before one loop served a
    whole listing: ``_close`` and ``standard_monomials`` reduce each column
    by its own ``_eliminate_one`` call, which builds the column with
    MacaulayColumns.column and calls ``_reduce``, from max(col).  The
    oracle of the batch loop: both must store the same pivots."""

    def _eliminate_one(self, i, g):
        col = self.columns.column(i, g)
        col[-2 - (g * self.columns.nvars + i)] = self.columns.scale[i]
        r, col = self._reduce(col)
        if r is not None:
            self.pivots[r] = col

    def _eliminate(self, listing):
        for i, g in listing:
            self._eliminate_one(i, g)

    @property
    def standard_monomials(self):
        monomials = monomial_basis(self.columns.nvars, self.degree)
        keys = list(map(self.columns.pack, monomials))
        closed = self._closed_rows
        if len(closed) < len(keys):
            columns = self.columns
            for i, g in columns.kept():
                col = columns.column(i, g)
                if next(iter(col)) not in closed:   # its block is open
                    self._eliminate_one(i, g)
            closed.update(keys)
        pivots = self.pivots
        return [nu for nu, r in zip(monomials, keys) if r not in pivots]


def koszul_redundant(g, leads) -> bool:
    """Column g * dF_i is redundant: the exponent tuple g is divisible by
    one of leads, the grevlex leads of the partials before i (griffiths
    module docstring).  The Koszul test of the tuple walk."""
    return any(all(a >= b for a, b in zip(g, lt)) for lt in leads)


class TupleWalkSolver(_DegreeSolver):
    """_DegreeSolver with the block walk it had before it was integer-only:
    every row unpacked, every source g an exponent tuple, and the Koszul
    test koszul_redundant.  The oracle of the packed walk: both must find
    the same columns and store the same pivots."""

    def _close(self, rows):
        closed, stack = self._closed_rows, []
        for r in rows:
            if r not in closed:
                closed.add(r)
                stack.append(r)
        found, columns = {}, self.columns
        shifts = [(i, leads, [(columns.unpack(mu), mu)
                              for mu, _ in columns.templates[i]])
                  for i, leads in columns.leads.items()]
        while stack:
            r = stack.pop()
            nu = columns.unpack(r)
            for i, leads, terms in shifts:
                for mu, mu_key in terms:
                    g = tuple(a - b for a, b in zip(nu, mu))
                    if min(g) < 0:
                        continue
                    key = i, r - mu_key
                    if key in found or koszul_redundant(g, leads):
                        continue
                    col = found[key] = columns.column(*key)
                    for s in col:
                        if s not in closed:
                            closed.add(s)
                            stack.append(s)
        self._eliminate(sorted(found, key=lambda k: (k[0], -k[1])))


def consuming_step(step):
    """The elimination step step, after which the column it was given is
    cleared: a caller that reads its column after a step reads nothing, so
    a run through it answers as the plain run only if no caller does."""
    def spy(col, pcol, r):
        out = dict(step(col, pcol, r))
        col.clear()
        return out
    return staticmethod(spy)


class DivisionReducer(GriffithsDworkReducer):
    """GriffithsDworkReducer with the reduce it had before it was
    fraction-free: every solve divides by its scale (division_solve), the
    parts and coordinates are summed in the field, and the coordinates are
    returned as a dense list.  The oracle of reduce."""

    def reduce(self, p):
        parts = {}
        for nu, c in p.terms.items():
            d = sum(nu)
            if d % self.m != self.top_residue:
                raise ValueError(
                    f"coefficient degree {d} is not on the top strand")
            parts.setdefault(d, {})[nu] = c
        coords = [self.field.zero] * len(self.std_basis)
        while parts:
            d = max(parts)
            solver = self._solver(d)
            std, combo = division_solve(solver, parts.pop(d))
            for nu, c in std.items():
                key = (d, solver.columns.pack(nu))
                if key not in self.std_index:
                    raise BasisError(
                        f"residue {Polynomial.monomial(self.field, self.nvars, nu)} "
                        f"in degree {d} lies outside the standard basis")
                coords[self.std_index[key]] = coords[self.std_index[key]] + c
            if d >= self.m:
                correction = {}
                for (i, g), lam in combo.items():
                    if g[i]:
                        dmono = g[:i] + (g[i] - 1,) + g[i + 1:]
                        acc = correction.get(dmono, self.field.zero)
                        correction[dmono] = acc - lam * g[i]
                lower = parts.setdefault(d - self.m, {})
                for nu, c in correction.items():
                    add_term(lower, nu, c)
                if not parts[d - self.m]:
                    del parts[d - self.m]
        return coords


def counted_variable_symmetries(f, weights=None):
    """poly.variable_symmetries as it was before it keyed coefficients by
    small ids: every backtracking step counts (coefficient, exponents) over
    the terms of f on both sides."""
    n = f.nvars
    terms = list(f.terms.items())
    sig = [(1 if weights is None else weights[k],
            frozenset(Counter((c, mu[k]) for mu, c in terms).items()))
           for k in range(n)]
    alike = [[j for j in range(n) if sig[j] == sig[k]] for k in range(n)]
    if all(len(a) == 1 for a in alike):
        return ()

    def agrees(images):
        d = len(images)
        return Counter((c, mu[:d]) for mu, c in terms) == \
            Counter((c, tuple(mu[j] for j in images)) for mu, c in terms)

    def extend(images):
        if len(images) == n:
            return tuple(images)
        for j in alike[len(images)]:
            if j not in images and agrees(images + [j]):
                found = extend(images + [j])
                if found is not None:
                    return found
        return None

    gens = []
    for k in range(n):
        for j in alike[k]:
            if j > k and agrees(list(range(k)) + [j]):
                found = extend(list(range(k)) + [j])
                if found is not None:
                    gens.append(found)
    return tuple(gens)


def cross_multiplied_step(col, pcol, r):
    """IntRankAccumulator._step before its gcd: scale col by the pivot's
    entry, subtract col's entry times pcol, divide out the content."""
    pval, cval = pcol[r], col[r]
    if pval < 0:
        pval, cval = -pval, -cval
    new = {s: v * pval for s, v in col.items()}
    for s, w in pcol.items():
        u = new.get(s, 0) - cval * w
        if u:
            new[s] = u
        else:
            new.pop(s, None)
    return primitive_column(new)


class MarkowitzRankAccumulator(_RankAccumulator):
    """IntRankAccumulator as it was before it stored each column under its
    largest row: the oldest stored pivot among a column's rows first, and a
    remainder stored under the pivot row of least (row use, entry size,
    row), the Markowitz choice (LaMacchia and Odlyzko 1990), or of least
    (-degree, row use, entry size, row) when ``degree`` maps every row to a
    degree.  Kept, loop and key verbatim, as the oracle of the ranks and
    band counts of the largest-row loop.
    """

    _step = staticmethod(IntRankAccumulator._step)
    _size = staticmethod(int.bit_length)    # of |v|; +-1 is the smallest

    def __init__(self, degree=None):
        super().__init__()
        self.birth = {}     # pivot row -> insertion counter
        self.row_use = {}   # row -> number of stored pivot columns touching it
        self.degree = degree    # row -> degree, or None

    def add_column(self, col: dict) -> bool:
        """Reduce col against current pivots; returns True if rank grew."""
        col = {r: v for r, v in col.items() if v}
        pivcol, birth, step = self.pivcol, self.birth, self._step
        while col:
            hit = None
            for r in col:
                b = birth.get(r)
                if b is not None and (hit is None or b < hit[0]):
                    hit = (b, r)
            if hit is None:
                break
            col = step(col, pivcol[hit[1]], hit[1])
        if not col:
            return False
        row = self._pivot_row(col)
        pivcol[row] = col
        birth[row] = self.rank
        use = self.row_use
        for s in col:
            use[s] = use.get(s, 0) + 1
        self.rank += 1
        return True

    def _pivot_row(self, col: dict):
        """The row to store col under: least (-degree, row use, entry size,
        row), or least (row use, entry size, row) with no degrees."""
        size, use, degree = self._size, self.row_use, self.degree
        if degree is None:
            return min((use.get(r, 0), size(v), r) for r, v in col.items())[2]
        return min((-degree[r], use.get(r, 0), size(v), r)
                   for r, v in col.items())[3]


class FieldMarkowitzRankAccumulator(MarkowitzRankAccumulator):
    """MarkowitzRankAccumulator on columns over Z[t], with the Z[t] step."""

    _step = staticmethod(FieldRankAccumulator._step)
    _size = staticmethod(len)    # degree + 1; a constant is the smallest


class CrossMultipliedRankAccumulator(IntRankAccumulator):
    """IntRankAccumulator as it was before its gcd-reduced step: the
    engine's loop with the cross-multiplied step, which must store exactly
    the columns the engine's step stores."""

    _step = staticmethod(cross_multiplied_step)


def division_step(col, pcol, r):
    """FieldRankAccumulator._step as it was before it eliminated over Z[t]:
    clear row r of col with pcol by field division, for any exact field."""
    factor = col[r] / pcol[r]
    new = dict(col)
    for s, w in pcol.items():
        u = new.get(s)
        u = -factor * w if u is None else u - factor * w
        if u:
            new[s] = u
        else:
            new.pop(s, None)
    return new


class DivisionRankAccumulator(_RankAccumulator):
    """The engine's loop with the field-division step, on columns over any
    exact field (Fraction or RatFunc entries): the oracle of the Z[t]
    step of FieldRankAccumulator."""

    _step = staticmethod(division_step)

    @staticmethod
    def _size(v):
        return len(v.num) + len(v.den) if isinstance(v, RatFunc) else 0


def recursive_monomial_basis(nvars, d, weights=None):
    """poly.monomial_basis as it was before it was iterative: one level of
    recursion per variable, lex-descending."""
    out = []
    exps = [0] * nvars

    def rec(k, rem):
        w = 1 if weights is None else weights[k]
        if k == nvars - 1:
            if rem % w == 0:
                exps[k] = rem // w
                out.append(tuple(exps))
                exps[k] = 0
            return
        for e in range(rem // w, -1, -1):
            exps[k] = e
            rec(k + 1, rem - e * w)
        exps[k] = 0

    if d >= 0:
        rec(0, d)
    return out


def dense_rank_fractions(rows):
    """Independent dense rank over Q by textbook row reduction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def sparse_to_dense(columns):
    """Dense rows of the matrix with these sparse columns; its rows are the
    keys the columns touch."""
    keys = dict.fromkeys(r for col in columns for r in col)
    return [[Fraction(col.get(r, 0)) for col in columns] for r in keys]


def quotient_dims(f, spec, bound):
    """ComplexDims of the quotient of the strand complex by total degree
    > bound: the bases of strand_basis, the columns of twisted_column with
    targets above the bound cut, ranked densely.  Its degree-0 cohomology
    keeps the truncated jet of exp(-F), which the windows avoid."""
    bases = [strand_basis(spec, i, bound) for i in range(spec.nvars + 1)]
    ranks = []
    for source, target in zip(bases, bases[1:]):
        cols = [twisted_column(f, nu, I) for nu, I in source]
        ranks.append(dense_rank_fractions(
            [[col.get(key, 0) for col in cols] for key in target]))
    return ComplexDims.from_ranks([len(b) for b in bases], ranks)


def all_macaulay_columns(partials, sources):
    """Every Macaulay column g * p, for each nonzero partial p and each g in
    sources, rows keyed by their monomials.  No column is skipped, so this
    is the oracle for the kept columns of griffiths.MacaulayColumns."""
    cols = []
    for p in partials:
        if p:
            for g in sources:
                cols.append({tuple(a + b for a, b in zip(g, mu)): c
                             for mu, c in p.terms.items()})
    return cols


def trial_division_roots(p):
    """Rational roots of an integer polynomial (coefficients lowest degree
    first) by the rational root theorem: every +-u/v with u dividing the
    lowest nonzero coefficient and v the leading one.  Only for small
    coefficients: the divisors are found by trial division."""
    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    roots = {Fraction(0)} if p[0] == 0 else set()
    coeffs = list(p)
    while coeffs[0] == 0:
        coeffs.pop(0)
    for u in divisors(coeffs[0]):
        for v in divisors(coeffs[-1]):
            for x in (Fraction(u, v), Fraction(-u, v)):
                if sum(c * x ** k for k, c in enumerate(coeffs)) == 0:
                    roots.add(x)
    return tuple(sorted(roots))


def dense_windowed_dims(f, spec, bound):
    """Independent oracle for the windowed dimensions at one bound.

    Dense ranks of the untruncated differential on sources of degree
    <= bound, minus the witnessed image, per the definition; the columns
    come from the reference builder twisted_column.
    """
    kernel, witnessed = {}, {0: 0}
    for i in range(spec.nvars + 1):
        basis = strand_basis(spec, i, bound)
        rows = {}
        cols = []
        for nu, I in basis:
            col = {}
            for key, c in twisted_column(f, nu, I).items():
                col[rows.setdefault(key, len(rows))] = c
            cols.append(col)
        full = [[Fraction(col.get(r, 0)) for col in cols]
                for r in range(len(rows))]
        band = [[Fraction(col.get(r, 0)) for col in cols]
                for key, r in rows.items() if spec.form_degree(*key) > bound]
        rank_full = dense_rank_fractions(full)
        kernel[i] = len(basis) - rank_full
        witnessed[i + 1] = rank_full - dense_rank_fractions(band)
    return {i: kernel[i] - witnessed[i] for i in kernel}


def dense_dF_only_dims(f, spec, bound):
    """Independent oracle for griffiths.dF_only_cohomology: the space dims
    and the ranks of dF^ out of each form degree, as two lists.

    Every graded Koszul piece V^0_tau -> .. -> V^(n+1)_(tau+(n+1)m) whose
    lowest nonempty space has degree <= bound counts whole, and each of its
    maps is ranked densely on its own.  Columns are dF ^ x^nu dx_I by form
    arithmetic (gradient_form and DifferentialForm.wedge).
    """
    n, m = spec.nvars, f.homogeneous_degree(spec.weights)
    dF = gradient_form(f)
    spaces, ranks = [0] * (n + 1), [0] * (n + 1)
    for tau in range(-n * m, bound + 1):
        if tau % spec.modulus != spec.residue:
            continue
        bases = [strand_basis_at_degree(spec, i, tau + i * m)
                 for i in range(n + 1)]
        low = [tau + i * m for i, basis in enumerate(bases) if basis]
        if not low or min(low) > bound:
            continue
        for i in range(n + 1):
            spaces[i] += len(bases[i])
        for i in range(n):
            images = [dF.wedge(DifferentialForm.monomial_form(
                f.field, n, nu, I)).terms for nu, I in bases[i]]
            assert set().union(*images) <= set(bases[i + 1])
            ranks[i] += dense_rank_fractions(
                [[image.get(key, 0) for image in images]
                 for key in bases[i + 1]])
    return spaces, ranks


def walked_orbit(classes, key):
    """The keys of the classes that the symmetries of classes reach from
    key, by a walk that applies every generator to every key it reaches:
    ExponentClasses.orbit as it was before it walked the stabilizer chain
    level by level.  It reads only the generators (``levels``, flattened)
    and ``reduce``."""
    inverses = [inv for level in classes.levels for inv in level]
    seen, todo = {key}, [key]
    while todo:
        v = todo.pop()
        for inv in inverses:
            u = classes.reduce([v[t] for t in inv])
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def orbit_weight(classes, sizes, key):
    """The orbit size of the class of key if that class represents its
    orbit (smallest key), else 0; sizes is the caller's own memo, filled
    one walked_orbit at a time.  ExponentClasses.weight as it was before
    classes were grouped, less its one key per call."""
    w = sizes.get(key)
    if w is None:
        orbit = walked_orbit(classes, key)
        sizes.update(dict.fromkeys(orbit, 0))
        sizes[min(orbit)] = len(orbit)
        w = sizes[key]
    return w


def filtered_sources(classes, spec, i, e):
    """{orbit size: the (nu, I) of strand_basis_at_degree(spec, i, e) whose
    class represents its orbit}, in basis order.

    The window engine's source filter before it enumerated representative
    exponent vectors: a class key for every source.  The oracle for
    _WindowEngine._sources; it keeps its own orbit sizes and walks, so it
    shares no state and no orbit code with the engine's classes.
    """
    sizes, groups = {}, {}
    for nu, I in strand_basis_at_degree(spec, i, e):
        w = orbit_weight(classes, sizes, classes.key(nu, I))
        if w:
            groups.setdefault(w, []).append((nu, I))
    return groups


class UnsplitWindowEngine:
    """The window engine without orbit sharing: every source is assembled.

    This is linalg._WindowEngine as it was before it shared ranks between
    symmetric classes and counted its band ranks as pivots, kept as the
    oracle for both: it eliminates each window's band, the columns' entries
    of degree > bound, in accumulators of its own.  With ``key``, a
    function of (nu, I) such as ExponentClasses.key, every class gets its
    own main and band accumulators, and ``ranks(i, k)`` gives the sources,
    main rank and band rank of class k in degree i at the last window:
    the per-class ranks that orbit sharing assumes equal along an orbit.
    """

    def __init__(self, f, spec, key=None):
        self.spec, self.top, self.key = spec, spec.nvars, key
        self.stencil = ColumnStencil(f, spec.weights)
        n = self.top + 1
        self.acc = [dict() for _ in range(n)]      # class -> accumulator
        self.band = [dict() for _ in range(n)]     # of the last window
        self.sources = [dict() for _ in range(n)]  # class -> sources swept
        self.rows = [dict() for _ in range(n + 1)]
        self.next_deg = [spec.residue] * n
        self.bound = None

    def _add_degree(self, i, e, acc, band, cut):
        reg = self.rows[i + 1]
        for nu, I in strand_basis_at_degree(self.spec, i, e):
            k = self.key(nu, I) if self.key else None
            col, above = {}, {}
            for key, rise, v in self.stencil.column(nu, I):
                rid = reg.setdefault(key, len(reg))
                col[rid] = v
                if rise > cut:
                    above[rid] = v
            if acc is not None:
                self.sources[i][k] = self.sources[i].get(k, 0) + 1
                if col:
                    acc.setdefault(k, IntRankAccumulator()).add_column(
                        primitive_column(col))
            if band is not None and above:
                band.setdefault(k, IntRankAccumulator()).add_column(
                    primitive_column(above))

    def _process(self, i, bound):
        spec, step = self.spec, self.spec.modulus
        e = self.next_deg[i]
        band = self.band[i] = {} if i < self.top else None
        if band is not None:
            max_rise = max((t[3] for t in self.stencil.terms), default=0)
            low = bound - max_rise + 1
            first = max(spec.residue, low + (spec.residue - low) % step)
            for d in range(first, min(e, bound + 1), step):
                self._add_degree(i, d, None, band, bound - d)
        while e <= bound:
            self._add_degree(i, e, self.acc[i], band, bound - e)
            e += step
        self.next_deg[i] = e

    def ranks(self, i, k):
        """(sources, main rank, band rank) of class k in degree i."""
        rank = lambda accs: accs[k].rank if accs and k in accs else 0
        return self.sources[i].get(k, 0), rank(self.acc[i]), rank(self.band[i])

    def dims_at(self, bound):
        assert self.bound is None or bound >= self.bound
        self.bound = bound
        for i in range(self.top + 1):
            self._process(i, bound)
        total = lambda accs: sum(a.rank for a in (accs or {}).values())
        dims = {}
        for i in range(self.top + 1):
            kernel = sum(self.sources[i].values()) - total(self.acc[i])
            witnessed = (total(self.acc[i - 1]) - total(self.band[i - 1])
                         if i else 0)
            dims[i] = kernel - witnessed
        return dims



class UnskippedWindowEngine(_WindowEngine):
    """linalg._WindowEngine with every source assembled: _add_degree as it
    was before the sources that are stored pivot rows of D^(i-1) were
    skipped, kept as the oracle of that skip (linalg docstring, "Skipped
    sources")."""

    def _add_degree(self, i, e):
        reg, row_w = self.rows[i + 1], self.row_w[i + 1]
        acc, column, shift = self.acc[i], self.stencil.column, self.SERIAL_BITS
        count = 0
        for nu, I, w in self._sources(i, e):
            col = {}
            for key, rise, v in column(nu, I):
                rid = reg.get(key)
                if rid is None:
                    rid = reg[key] = (e + rise) << shift | len(row_w)
                    row_w.append(w)
                col[rid] = v
            if col:
                acc.add_column(primitive_column(col))
            count += w
        return count

# ---- the polynomial grammar before its one-pass rewrite --------------------
# _tokenize and parse_polynomial as cli had them (a peek/take descent with
# nested factor and term parsers), kept unchanged as the oracle of the
# one-pass parser: same Polynomial, or the same error at the same position.


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit takes superscripts
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse the CLI grammar: rational coefficients, declared variables,
    '^' powers, explicit '*' between factors, '+'/'-'; whitespace-free.
    It inverts poly.format_polynomial exactly."""
    variables = list(variables)
    if not variables:
        raise ParseError("no variables declared", 0)
    index = {name: k for k, name in enumerate(variables)}
    nvars = len(variables)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor():
        kind, value, at = take()
        if kind == "INT":
            num = int(value)
            if peek()[:2] == ("OP", "/"):
                take()
                k2, v2, at2 = take()
                if k2 != "INT":
                    raise ParseError("expected an integer denominator", at2)
                if int(v2) == 0:
                    raise ParseError("zero denominator", at2)
                return Fraction(num, int(v2)), None
            return Fraction(num), None
        if kind == "NAME":
            if value not in index:
                raise UnknownVariableError(f"unknown variable {value!r}", at)
            exp = 1
            if peek()[:2] == ("OP", "^"):
                take()
                k2, v2, at2 = take()
                if k2 != "INT":
                    raise ParseError("expected an integer exponent", at2)
                exp = int(v2)
            nu = [0] * nvars
            nu[index[value]] = exp
            return None, tuple(nu)
        raise ParseError(f"expected a coefficient or variable, got {value!r}",
                         at)

    def parse_term():
        coeff = Fraction(1)
        nu = [0] * nvars
        while True:
            c, mono = parse_factor()
            if c is not None:
                coeff *= c
            else:
                nu = [a + b for a, b in zip(nu, mono)]
            if peek()[:2] == ("OP", "*"):
                take()
                continue
            break
        return tuple(nu), coeff

    terms = {}
    sign = 1
    kind, value, at = peek()
    if kind == "OP" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    while True:
        nu, coeff = parse_term()
        coeff *= sign
        terms[nu] = terms.get(nu, Fraction(0)) + coeff
        kind, value, at = peek()
        if kind == "END":
            break
        if kind == "OP" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
            continue
        raise ParseError(f"expected '+', '-' or end of input, got {value!r}",
                         at)
    return Polynomial(QQ, nvars, terms)
