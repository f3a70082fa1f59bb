"""Gauss-Manin connection matrices for one-parameter families F_t = F_0 + t*G.

The connection acts on a cohomology class through a fixed representative
with t-free coefficients: for a top form omega = P dx_0..dx_n the derivative
along t is the class of (dF_t/dt) * omega = G * omega, which is then reduced
back to the chosen basis by Griffiths-Dwork reduction:

    [Q * dF/dx_i  dx] = -[dQ/dx_i  dx]   modulo the image of d + dF^,

applied degree by degree.  At each coefficient degree the reduction solves an
exact Macaulay system whose standard monomials (non-lead monomials of the
Jacobian ideal, graded-lex) form the engine's default cohomology basis; the
degree drops by m at every step, so the loop terminates.

Everything runs over the rational-function field for the symbolic matrix and
over plain rationals for specializations; the two must agree at every
non-discriminant parameter value, which connection_properties_check verifies.

Each Macaulay system is eliminated on augmented columns, which carry their
transform (the combination of Macaulay columns, and the multiple of the
polynomial being solved) as extra rows.  One elimination step of the rank
accumulators then updates both: over QQ the fraction-free integer step, so
no Fraction arithmetic runs inside the elimination, and a solve divides by
its scale once at the end; over QQ(t) the field step.

A degree's echelon is built on demand, one connected block of its Macaulay
matrix at a time.  A solve eliminates only the blocks its residue meets: on
the Dwork quintic the socle class x4^15 times the perturbation x0x1x2x3x4
lands in degree 20, whose matrix has 10,626 rows and 24,225 columns, yet it
meets one block of 126 rows and 285 columns.  The standard monomials need
every block, so they close the rest.  The blocks share no rows, so
eliminating them separately in Macaulay order stores the same pivot columns
as eliminating the whole matrix (see _DegreeSolver).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exceptions import BasisError, NonHomogeneousError, NotSmoothError
from .fields import (QQ, QQ_T, IntPoly, RatFunc, poly_div_exact, poly_eval,
                     poly_gcd, poly_mul, poly_primitive, poly_str)
from .griffiths import jacobian_hilbert, macaulay_column, macaulay_columns
from .matrices import FieldRankAccumulator, IntRankAccumulator, integerize_column
from .poly import Polynomial, count_monomials, monomial_basis
from .reports import Check, Verdict


@dataclass(frozen=True)
class Family:
    """F_t = base + t * perturbation, homogeneous of one degree throughout."""

    base: Polynomial
    perturbation: Polynomial

    def __post_init__(self):
        if self.base.field is not QQ or self.perturbation.field is not QQ:
            raise TypeError("family data must be given over the rationals")
        if self.base.nvars != self.perturbation.nvars:
            raise ValueError("base and perturbation variable counts differ")
        m = self.base.homogeneous_degree()
        if m is None:
            raise NonHomogeneousError("family base must be homogeneous")
        if self.perturbation and self.perturbation.homogeneous_degree() != m:
            raise NonHomogeneousError(
                "perturbation must be homogeneous of the base degree")

    @property
    def nvars(self) -> int:
        return self.base.nvars

    @property
    def degree(self) -> int:
        return self.base.homogeneous_degree()

    def symbolic(self) -> Polynomial:
        """F_t over the rational-function field."""
        f0 = self.base.map_coefficients(QQ_T.coerce, QQ_T)
        g = self.perturbation.map_coefficients(QQ_T.coerce, QQ_T)
        return f0 + g.scale(QQ_T.gen)

    def at(self, t0) -> Polynomial:
        """F_{t0} over the rationals."""
        t0 = Fraction(t0)
        return self.base + self.perturbation.scale(t0)


class _DegreeSolver:
    """Column echelon of one Macaulay degree with transformation tracking.

    Rows are degree-d monomials in graded-lex order (largest first); pivots
    prefer the largest available monomial, so the non-pivot rows are the
    standard monomials of the Jacobian ideal in this degree.

    Every column is augmented: rows 0..len(monomials)-1 are its monomial
    rows, row len(monomials) + k holds the coefficient of the k-th Macaulay
    column (in macaulay_columns order, named in ``keys``) in the
    combination it equals, and in ``solve`` one last row holds the multiple
    of the polynomial being solved.  Over QQ the step is
    ``IntRankAccumulator._step`` on columns lifted to integers, the lifting
    scale carried in the augmentation rows; over QQ(t) it is
    ``FieldRankAccumulator._step``.

    The echelon is built on demand, one connected block at a time.  Column
    (i, g) meets row nu exactly when nu = g * mu for a monomial mu of
    dF/dx_i; the blocks are the connected components of this incidence.
    ``solve`` eliminates the blocks its part meets (``_close``), and
    ``standard_monomials`` the rest, in one pass in Macaulay order.  Blocks
    share no rows, and a step combines two columns only through a shared
    row, so a column is only ever reduced against pivots of its own block:
    eliminating one block alone, in Macaulay order, stores exactly the
    pivot columns that eliminating the whole matrix stores, whichever order
    the blocks are closed in.
    """

    def __init__(self, partials, field, nvars, gen_degree, d):
        self.field = field
        self.partials = partials
        self.nvars = nvars
        self.src = d - gen_degree
        self.monomials = monomial_basis(nvars, d)
        self.index = {nu: k for k, nu in enumerate(self.monomials)}
        if field is QQ:
            self._lift, self._step = integerize_column, IntRankAccumulator._step
        else:
            self._lift, self._step = dict, FieldRankAccumulator._step
        sources = count_monomials(nvars, self.src)
        self._first = {}    # nonzero partial i -> position of its first column
        for i, p in enumerate(partials):
            if p:
                self._first[i] = len(self._first) * sources
        self._scale_row = len(self.monomials) + len(self._first) * sources
        self.keys = {}      # augmentation row -> (i, g), eliminated columns
        self.pivots = {}
        self._closed_rows = set()

    @cached_property
    def _source_position(self):
        sources = monomial_basis(self.nvars, self.src)
        return {g: k for k, g in enumerate(sources)}

    def _eliminate(self, k, key, col):
        """Reduce the k-th Macaulay column, key (i, g), and store its pivot."""
        row = len(self.monomials) + k
        col[row] = self.field.one
        self.keys[row] = key
        r, col = self._reduce(self._lift(col))
        if r is not None:
            self.pivots[r] = col

    def _close(self, rows):
        """Eliminate every column of the blocks that meet rows and are open.

        Walks rows and columns from the given rows, then eliminates the
        columns found in Macaulay order.  Closed rows stay closed: every
        column meeting them is already eliminated.
        """
        closed, stack = self._closed_rows, []
        for r in rows:
            if r not in closed:
                closed.add(r)
                stack.append(r)
        found = {}
        while stack:
            nu = self.monomials[stack.pop()]
            for i, first in self._first.items():
                p = self.partials[i]
                for mu in p.terms:
                    g = tuple(a - b for a, b in zip(nu, mu))
                    if min(g) < 0:
                        continue
                    k = first + self._source_position[g]
                    if k in found:
                        continue
                    col = macaulay_column(p, self.index, g)
                    found[k] = (i, g), col
                    for r in col:
                        if r not in closed:
                            closed.add(r)
                            stack.append(r)
        for k in sorted(found):
            self._eliminate(k, *found[k])

    def _reduce(self, col):
        """Head-reduce an augmented column with the stored pivots.

        Stops at the first non-pivot row, returned with the column, or when
        only augmentation rows remain (returns None as the row).  The
        augmentation rows keep every column nonzero.
        """
        n, pivots, step = len(self.monomials), self.pivots, self._step
        while True:
            r = min(col)
            if r >= n:
                return None, col
            pcol = pivots.get(r)
            if pcol is None:
                return r, col
            col = step(col, pcol, r)

    @property
    def standard_monomials(self):
        """The non-pivot rows; the first read closes every open block."""
        n = len(self.monomials)
        if len(self._closed_rows) < n:
            columns = macaulay_columns(self.partials, self.index, self.nvars,
                                       self.src)
            for k, (key, col) in enumerate(columns):
                if n + k not in self.keys:
                    self._eliminate(k, key, col)
            self._closed_rows.update(range(n))
        return [nu for k, nu in enumerate(self.monomials) if k not in self.pivots]

    def solve(self, part: Polynomial):
        """part = (standard-monomial combination) + sum lambda * g * dF_i.

        Returns (std coords keyed by monomial, combo keyed by (i, g)).
        Closes the blocks the part meets first.  The non-pivot rows span
        the cokernel, so this always succeeds.  The reduction stops at the
        first non-pivot row, so pivot rows below it can stay in the residue.
        """
        n, scale = len(self.monomials), self._scale_row
        col = {self.index[nu]: c for nu, c in part.terms.items()}
        self._close(col)
        col[scale] = self.field.one
        _, col = self._reduce(self._lift(col))
        inv = self.field.one / col.pop(scale)
        std, combo = {}, {}
        for r, c in col.items():
            if r < n:
                std[self.monomials[r]] = c * inv
            else:
                combo[self.keys[r]] = -c * inv
        return std, combo


class GriffithsDworkReducer:
    """Reduce top forms P dx_0..dx_n to the standard cohomology basis."""

    def __init__(self, f: Polynomial):
        profile = jacobian_hilbert(f)
        if not profile.smooth:
            raise NotSmoothError(
                "Griffiths-Dwork reduction needs a smooth (generic) member")
        self.f = f
        self.field = f.field
        self.nvars = f.nvars
        self.m = profile.modulus
        self.partials = [f.partial_derivative(k) for k in range(f.nvars)]
        self.top_residue = (-f.nvars) % self.m
        self.std_degrees = [d for d in range(profile.socle + 1)
                            if d % self.m == self.top_residue]
        self._solvers = {}
        self.std_basis = []
        for d in self.std_degrees:
            for nu in self._solver(d).standard_monomials:
                self.std_basis.append((d, nu))
        self.std_index = {key: k for k, key in enumerate(self.std_basis)}

    def _solver(self, d: int) -> _DegreeSolver:
        s = self._solvers.get(d)
        if s is None:
            s = self._solvers[d] = _DegreeSolver(
                self.partials, self.field, self.nvars, self.m - 1, d)
        return s

    def standard_forms(self):
        """The basis as t-free coefficient polynomials x^nu (over QQ)."""
        return [Polynomial.monomial(QQ, self.nvars, nu) for _, nu in self.std_basis]

    def reduce(self, p: Polynomial):
        """Coordinates of the class [p dx] in the standard basis."""
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
            part = Polynomial(self.field, self.nvars, parts.pop(d))
            std, combo = self._solver(d).solve(part)
            for nu, c in std.items():
                key = (d, nu)
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
                    acc = lower.get(nu, self.field.zero)
                    s = acc + c
                    if s:
                        lower[nu] = s
                    else:
                        lower.pop(nu, None)
                if not parts[d - self.m]:
                    del parts[d - self.m]
        return coords


@dataclass(frozen=True)
class ConnectionMatrix:
    """Matrix of the t-derivative action on the chosen top-cohomology basis.

    entries[i][j] is the coefficient of basis[i] in the derivative of
    basis[j]; basis elements are t-free coefficient polynomials of top
    forms.  denominator is the lcm of all entry denominators; its roots
    bound the discriminant set where the matrix degenerates.
    """

    basis: tuple
    entries: tuple
    denominator: IntPoly = (1,)
    discriminant_roots: tuple = ()

    @property
    def size(self) -> int:
        return len(self.basis)

    def entry_strings(self):
        return [[str(e) for e in row] for row in self.entries]

    def to_json_dict(self):
        """Human-readable entries plus the discriminant denominator."""
        return {
            "basis": [str(p) for p in self.basis],
            "entries": self.entry_strings(),
            "denominator": poly_str(self.denominator),
            "discriminant_roots": [str(r) for r in self.discriminant_roots],
        }

    def specialize(self, t0) -> tuple:
        """Evaluate all entries at t = t0 (raises ZeroDivisionError on a pole)."""
        t0 = Fraction(t0)
        out = []
        for row in self.entries:
            out.append(tuple(e.evaluate(t0) if isinstance(e, RatFunc)
                             else Fraction(e) for e in row))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)


def _solve_square(u_cols, r_cols, k):
    """Solve U X = R for X, given U and R as lists of dense length-k columns.

    Returns the rows of X = U^-1 R, by Gauss-Jordan elimination on [U | R];
    a singular U raises BasisError.  connection_matrix solves with the
    reduced basis forms as U; connection_properties_check solves S X = M S,
    so X is S^-1 M S with no inverse of S formed.
    """
    ncols_r = len(r_cols)
    rows = [[u_cols[j][i] for j in range(k)]
            + [r_cols[j][i] for j in range(ncols_r)] for i in range(k)]
    for col in range(k):
        piv = None
        for i in range(col, k):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            raise BasisError("proposed classes are not a cohomology basis")
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        if pv != 1:
            rows[col] = [x / pv for x in rows[col]]
        for i in range(k):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return tuple(tuple(rows[i][k + j] for j in range(ncols_r)) for i in range(k))


def _rational_roots(p: IntPoly):
    """All rational roots of an integer polynomial (for discriminant reports).

    Candidates come from the primitive part, whose roots are the same, so a
    large content never reaches the trial division.
    """
    roots = set()
    if not p or len(p) == 1:
        return ()
    coeffs = list(poly_primitive(p))
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    lead, const = coeffs[-1], coeffs[0]

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    for num in divisors(const):
        for den in divisors(lead):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if poly_eval(tuple(coeffs), cand) == 0:
                    roots.add(cand)
    return tuple(sorted(roots))


def family_connection_matrix(fam: Family, basis=None) -> ConnectionMatrix:
    """Exact matrix of the action  omega -> [ (dF_t/dt) * omega ]  on a basis
    of the top strand cohomology.

    basis, when given, lists t-free coefficient polynomials over QQ of top
    forms; the default is the engine's standard monomial basis.  The action
    on a t-free representative has no d/dt term, so it reduces to
    multiplication by the perturbation followed by Griffiths-Dwork reduction.
    """
    return connection_matrix(GriffithsDworkReducer(fam.symbolic()),
                             fam.perturbation, basis)


def rational_connection_matrix(f0: Polynomial, g: Polynomial,
                               basis=None) -> ConnectionMatrix:
    """Connection matrix computed from scratch over QQ at one family member.

    f0 is the member F_{t0} (a rational polynomial); g is the perturbation.
    Used to verify that specializing the symbolic matrix commutes with
    computing at the specialized member.
    """
    return connection_matrix(GriffithsDworkReducer(f0), g, basis)


def connection_matrix(reducer: GriffithsDworkReducer, perturbation: Polynomial,
                      basis=None) -> ConnectionMatrix:
    """Matrix of  omega -> [perturbation * omega]  on a basis, reduced by a
    given reducer (of F_t over QQ(t), or of one member over QQ)."""
    field = reducer.field
    if basis is None:
        forms = reducer.standard_forms()
    else:
        forms = list(basis)
        for p in forms:
            if p.field is not QQ:
                raise BasisError("basis coefficient polynomials must be t-free")
            if p.nvars != reducer.nvars:
                raise BasisError("basis over the wrong variable count")
    if len(forms) != len(reducer.std_basis):
        raise BasisError(
            f"basis size {len(forms)} != cohomology dimension "
            f"{len(reducer.std_basis)}")
    lifted = [p.map_coefficients(field.coerce, field) for p in forms]
    g_lift = perturbation.map_coefficients(field.coerce, field)
    u_cols = [reducer.reduce(p) for p in lifted]
    r_cols = [reducer.reduce(g_lift * p) for p in lifted]
    entries = _solve_square(u_cols, r_cols, len(forms))
    den = (1,)
    if field is QQ_T:
        for row in entries:
            for e in row:
                den = poly_div_exact(poly_mul(den, e.den), poly_gcd(den, e.den))
    return ConnectionMatrix(tuple(forms), entries, den, _rational_roots(den))


def connection_properties_check(fam: Family, samples, basis=None,
                                reducer=None, matrix=None) -> Verdict:
    """Consistency harness for the connection action.

    (a) specializing the symbolic matrix at each sample t equals the matrix
        computed from scratch over QQ at F_t with the same basis;
    (b) the matrix transforms by conjugation under an invertible t-free
        change of basis S (a fixed one, from _test_invertible_matrix): the
        matrix M' on the new basis equals the solution X of S X = M S.
    Samples on the discriminant (poles, non-smooth members, degenerate
    bases) are reported as failed checks, never skipped silently.  A
    sample is a pole exactly when specializing raises ZeroDivisionError:
    the discriminant roots are the rational roots of the lcm of the
    reduced entry denominators, so some entry has a pole at each of them.
    reducer, when given, is the GriffithsDworkReducer of fam.symbolic();
    it serves both symbolic matrices, so a caller that already has one
    does not build another.  matrix, when given, is the symbolic matrix
    under check, connection_matrix(reducer, fam.perturbation, basis), as a
    caller that reports it has already computed it.
    """
    if reducer is None:
        reducer = GriffithsDworkReducer(fam.symbolic())
    sym = (matrix if matrix is not None
           else connection_matrix(reducer, fam.perturbation, basis))
    checks = []
    for t0 in samples:
        t0 = Fraction(t0)
        try:
            specialized = sym.specialize(t0)
        except ZeroDivisionError:
            checks.append(Check(f"t = {t0} avoids the discriminant set",
                                str(t0), "discriminant sample"))
            continue
        try:
            direct = rational_connection_matrix(fam.at(t0), fam.perturbation,
                                                basis=list(sym.basis))
        except NotSmoothError:
            checks.append(Check(f"t = {t0} gives a smooth member",
                                str(t0), "non-smooth specialization"))
            continue
        except BasisError:
            checks.append(Check(f"basis stays independent at t = {t0}",
                                str(t0), "degenerate basis sample"))
            continue
        checks.append(Check(
            f"specialize-then-evaluate equals evaluate-then-compute at t = {t0}",
            specialized, direct.entries))
    k = sym.size
    s = _test_invertible_matrix(k)
    new_forms = []
    for j in range(k):
        acc = Polynomial.zero(QQ, fam.nvars)
        for i in range(k):
            if s[i][j]:
                acc = acc + sym.basis[i].scale(s[i][j])
        new_forms.append(acc)
    conj = connection_matrix(reducer, fam.perturbation, new_forms)
    expected = _solve_square(list(zip(*s)),
                             list(zip(*_matmul(sym.entries, s))), k)
    checks.append(Check("basis change conjugates the matrix",
                        conj.entries, expected))
    return Verdict(tuple(checks))


def _test_invertible_matrix(k):
    """Deterministic invertible rational matrix (unit lower x unit upper)."""
    vals = []
    state = 2 * 2654435761 % 2 ** 32  # fixed seed: one matrix per size
    for _ in range(2 * k * k):
        state = (1103515245 * state + 12345) % 2 ** 31
        vals.append(Fraction(state % 7 - 3, 1 + state % 3))
    lower = [[Fraction(1) if i == j else (vals.pop() if i > j else Fraction(0))
              for j in range(k)] for i in range(k)]
    upper = [[Fraction(1) if i == j else (vals.pop() if i < j else Fraction(0))
              for j in range(k)] for i in range(k)]
    return _matmul(lower, upper)


def _matmul(a, b):
    """a @ b for matrices given as sequences of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]
