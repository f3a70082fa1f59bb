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
polynomial being solved) as extra entries, whose keys sort below every
monomial row (see _DegreeSolver).  One elimination step of the rank
accumulators then updates both, fraction-free: over QQ the integer step
and over QQ(t) the step over Z[t], so no Fraction or RatFunc arithmetic
runs inside the elimination.  The reduction loop around the solves is
fraction-free too (GriffithsDworkReducer.reduce, after Bareiss and, for
periods, Lairez, Math. Comp. 2016): the form is lifted once to Z or Z[t],
its parts and the coordinates share one denominator, a solve returns its
column with its scale, which multiplies that denominator and everything
still open, and the correction to the next lower degree is computed over
Z or Z[t].  One Fraction or RatFunc is built per nonzero coordinate, at the
end, and the coordinates are sparse; so is ConnectionMatrix, which stores
only its nonzero entries (396 of the Dwork quintic's 41,616).

A degree's echelon is built on demand, one connected block of its Macaulay
matrix at a time.  A solve eliminates only the blocks its residue meets: on
the Dwork quintic the socle class x4^15 times the perturbation x0x1x2x3x4
lands in degree 20, whose matrix has 10,626 rows and 24,225 columns, yet it
meets one block of 126 rows.  A row is keyed by its monomial and a column
by (i, g), both monomials packed into integers (griffiths.MacaulayColumns),
so the solver lists none of the 10,626 rows: it walks from the part's
monomials to the columns that meet them and back, testing divisibility by
one subtraction on the packed keys.  The standard monomials need every
block, so they list the degree's packed keys and close the rest.  The
blocks share no rows, so eliminating them separately in Macaulay order
stores the same pivot columns as eliminating the whole matrix (see
_DegreeSolver).  Columns that Koszul syzygies make redundant are never
built (griffiths module docstring): they are 13,599 of the 24,225 in that
degree, which leaves 10,626 columns, one per row, and the block eliminates
126 columns on its 126 rows.  With grevlex leads every kept column of the
Dwork pencils is independent.

The default basis needs no solve.  A connection matrix X solves U X = R,
with the reduced basis forms as the columns of U.  A standard monomial
x^nu of degree d is a non-pivot row of degree d's echelon, so its solve
stops at once with x^nu itself as the residue and no Macaulay combination,
and reduce returns the unit vector of (d, nu).  On the standard basis U is
the identity, and connection_matrix reads X = R off the reduced
perturbation products (see connection_matrix).

Smoothness.  The reducer needs F smooth (over QQ(t), its generic member).
The echelon of the socle degree sigma = (n+1)(m-2) decides it, and no
Macaulay rank is taken.  Where m divides n+1, as for every Dwork pencil,
sigma is a degree of the top strand and the standard basis needs that
echelon anyway; elsewhere (x0^3 + x1^3, the Fermat cubic in four
variables, plane quartics) it is built for this test alone.  It rests on
two facts of the Jacobian ring R = S/J (griffiths module docstring;
Griffiths, Ann. of Math. 1969): R vanishes at sigma + 1 exactly when F is
smooth, and for a smooth F the socle R_sigma has dimension 1.

A pivot sits at the largest row of its column, and the order (lex within
a degree) is multiplicative, so the pivot rows of degree d are exactly the
leading monomials LT(v) of the nonzero v in J_d, and the standard
monomials are the others.  Call a monomial nu of degree sigma + 1 an
orphan when every nu / x_j, for x_j dividing nu, is standard at sigma.  A
monomial that is not an orphan has a parent u = nu / x_j with u = LT(v),
v in J_sigma; then x_j v lies in J_(sigma+1), and LT(x_j v) = x_j LT(v) =
nu.  So every non-orphan is a pivot row of degree sigma + 1, and
R_(sigma+1) = 0 holds exactly when every orphan is a pivot row too.  When
sigma has more or fewer than one standard monomial, F is singular and
nothing more is eliminated; this early exit keeps singular members from
walking large blocks.  When it has one, s, every parent of an orphan is
s, so an orphan has a single variable: the orphans are the s * x_k for s
a power of x_k, that is x_k^(sigma+1), or every x_k when sigma = 0.
Whether a row is a pivot row is decided by its block alone
(_DegreeSolver), so only the blocks of the orphans are eliminated.  On the
Dwork quintic at t = 2, s = x4^15 and the block of x4^16 has 57 of degree
16's 4,845 rows; the Fermat quintic's socle monomial (x0..x4)^3 has no
orphan, so nothing more is eliminated.

Nothing here asks for sigma > 0 or for m to divide n+1, so the test holds
for every sigma.  At sigma = 0 (m = 2) the socle degree has the one
standard monomial 1, the early exit never fires, every x_k is an orphan,
and the test asks that the linear partials span degree 1: that the
quadric is nondegenerate, which is smoothness.  The argument holds over
any field, so over QQ(t) it certifies the generic member, as the rank
does (griffiths.smooth_profile, which the reducer does not ask).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .exceptions import BasisError, NonHomogeneousError, NotSmoothError
from .fields import (QQ, QQ_T, IntPoly, RatFunc, poly_add, poly_div_exact,
                     poly_eval, poly_gcd, poly_mul, poly_neg, poly_primitive,
                     poly_pseudo_rem, poly_str, poly_zgcd)
from .griffiths import MacaulayColumns, jacobian_degree
from .matrices import integerize_column
from .poly import Polynomial, add_term, mono_mul
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

    def symbolic(self) -> Polynomial:
        """F_t over the rational-function field."""
        f0 = self.base.map_coefficients(QQ_T.coerce, QQ_T)
        g = self.perturbation.map_coefficients(QQ_T.coerce, QQ_T)
        return f0 + g.scale(QQ_T.gen)

    def at(self, t0) -> Polynomial:
        """F_{t0} over the rationals."""
        t0 = Fraction(t0)
        return self.base + self.perturbation.scale(t0)


_SCALE = -1     # augmentation key of the multiple of the part solved

# The ring a field's values are lifted to, Z over QQ and Z[t] over QQ(t), as
# (zero, one, int -> element, add, mul, quotient): quotient(num, den) is the
# field value num / den, canonical.
_RINGS = {QQ: (0, 1, int, add, mul, Fraction),
          QQ_T: ((), (1,), lambda k: (k,), poly_add, poly_mul, RatFunc)}


class _DegreeSolver:
    """Column echelon of one Macaulay degree with transformation tracking.

    Rows are degree-d monomials, keyed by their packed integers
    (griffiths.MacaulayColumns: base 2^(b+1) for b the bit length of d,
    x_0 most significant, compared as the monomials in lex order); pivots
    prefer the largest available monomial (lex, which is graded lex within
    a degree), so the non-pivot rows are the standard monomials of the
    Jacobian ideal in this degree, which ``standard_monomials`` unpacks.

    Every column is augmented: the entry of key -2 - (pack(g) * nvars + i)
    holds the coefficient of Macaulay column (i, g) in the combination the
    column equals, and in ``solve`` the entry of key -1 the multiple of the
    part being solved.  Augmentation keys are negative and distinct, and
    every row key is at least 0, so a reduction stops at the first negative
    key.  Columns are lifted to integers over QQ and to IntPoly tuples over
    QQ(t), the lifting scale carried in the augmentation entries, and the
    step is the accumulator's fraction-free one, ``_step`` of
    IntRankAccumulator or FieldRankAccumulator, which consumes the column
    it is given.  MacaulayColumns lifts each partial once, together with its
    augmentation entry, so no Macaulay column is lifted on its own, and
    ``_eliminate`` builds each column once, from its template.  A solve
    takes its part already lifted and packed (the reducer lifts each form
    once), appends the entry 1 of key -1, and returns the reduced column,
    that entry the scale s of the combination; GriffithsDworkReducer.reduce
    divides by s once per nonzero coordinate, at the end.

    Only the columns that the Koszul criterion keeps are eliminated.  They
    span the same space as all the columns (griffiths module docstring), so
    the pivot rows, the standard monomials and the solved classes are those
    of the full matrix; only the combinations a solve returns may differ.

    The echelon is built on demand, one connected block at a time.  Kept
    column (i, g) meets row r exactly when r = g * mu for a term mu of
    dF/dx_i; the blocks are the connected components of this incidence.
    ``solve`` eliminates the blocks its part meets (``_close``), walking
    from the part's own monomials, so no degree is listed; and
    ``standard_monomials`` the rest, in one pass in Macaulay order.  The
    walk is integer-only: column (i, r - mu) meets r when mu divides r,
    and is kept when no mu * LT(dF_j), j < i, of degree <= d divides r
    (MacaulayColumns' guard-bit test).  Neither builds a column: the walk
    reads column (i, g)'s rows as g + nu, nu a row of template i, and a
    block is open when its first row g + templates[i][0][0] is.  A block
    is eliminated exactly when its rows are closed.  Blocks share no
    rows, and a step combines two
    columns only through a shared row, so eliminating one block alone, in
    Macaulay order, stores exactly the pivot columns that eliminating the
    whole matrix stores, whichever order the blocks are closed in.
    """

    def __init__(self, partials, field, nvars, gen_degree, d):
        self.field, self.degree = field, d
        self.columns = columns = MacaulayColumns(partials, nvars, d - gen_degree)
        self._step = columns.accumulator._step
        self._one = _RINGS[field][1]
        self.pivots = {}
        self._closed_rows = set()
        # (i, mu, the multiples of mu by the earlier leads if their degree,
        # 2 * gen_degree, is at most d) per nonzero partial i and term mu
        self._walk = [(i, mu, [mu + columns.pack(lt) for lt in leads
                               if d >= 2 * gen_degree])
                      for i, leads in columns.leads.items()
                      for mu, _ in columns.templates[i]]

    def _eliminate(self, listing):
        """Reduce each Macaulay column (i, g) of listing in turn, g packed,
        and store its pivot.

        Each column is built here, once: template i on the rows g + mu,
        with the augmentation entry scale[i], which makes it the column
        integerize_column would give the augmented one.  It is head-reduced
        as in ``_reduce``, by one loop inline for the whole listing, from
        its largest row g + top[i]: it stops at its first non-pivot row,
        its pivot, or is dropped when only augmentation entries remain.
        """
        pivots, step, columns = self.pivots, self._step, self.columns
        templates, scale, top = columns.templates, columns.scale, columns.top
        for i, g in listing:
            col = {g + mu: c for mu, c in templates[i]}
            col[-2 - (g * columns.nvars + i)] = scale[i]
            r = g + top[i]
            while (pcol := pivots.get(r)) is not None:
                r = max(col := step(col, pcol, r))
            if r >= 0:
                pivots[r] = col

    def _close(self, rows):
        """Eliminate every column of the blocks that meet rows and are open.

        Walks rows and columns from the given (packed) rows, a found
        column's rows as g + nu for the rows nu of its template, then
        eliminates the columns found in Macaulay order, (i, g) with g
        lex-descending.  Closed rows stay closed: every column meeting them
        is already eliminated, so rows that are all closed return at once.
        """
        closed = self._closed_rows
        stack = [r for r in rows if r not in closed]
        if not stack:
            return
        closed.update(stack)
        found, templates = set(), self.columns.templates
        guard = self.columns.guard
        while stack:
            r = stack.pop()
            top = r | guard
            for i, mu, multiples in self._walk:
                if (top - mu) & guard != guard:     # mu does not divide r
                    continue
                g = r - mu      # column (i, g), g = r / mu packed
                if (i, g) in found:
                    continue
                for lt_mu in multiples:
                    if (top - lt_mu) & guard == guard:
                        break       # an earlier lead divides g
                else:
                    found.add((i, g))
                    for nu, _ in templates[i]:
                        if (s := g + nu) not in closed:
                            closed.add(s)
                            stack.append(s)
        self._eliminate(sorted(found, key=lambda k: (k[0], -k[1])))

    def _reduce(self, col):
        """Head-reduce an augmented column with the stored pivots, which
        have no negative row: stop at the first non-pivot row, returned with
        the column, or with None when only augmentation entries remain
        (they keep every column nonzero).  ``solve`` reduces through this;
        ``_eliminate`` runs the same loop inline."""
        pivots, step = self.pivots, self._step
        while (pcol := pivots.get(r := max(col))) is not None:
            col = step(col, pcol, r)
        return (r if r >= 0 else None), col

    @property
    def standard_monomials(self):
        """The non-pivot rows, as exponent tuples; the first read closes
        every open block."""
        columns = self.columns
        keys = columns.listing(self.degree)
        closed = self._closed_rows
        if len(closed) < len(keys):
            self._eliminate((i, g) for i, g in columns.kept()
                            # its block is open
                            if g + columns.templates[i][0][0] not in closed)
            closed.update(keys)
        pivots = self.pivots
        return [columns.unpack(r) for r in keys if r not in pivots]

    def solve(self, part: dict) -> dict:
        """part = (standard-monomial combination) + sum lambda * g * dF_i.

        part is a term map of degree d, packed monomial -> nonzero value
        over Z (over QQ) or Z[t] (over QQ(t)).  Returns the reduced column:
        with s its -1 entry, c_nu its row entries and c_(i,g) its
        -2 - (pack(g) * nvars + i) entries,
        s * part = sum c_nu x^nu - sum c_(i,g) g dF_i.
        No quotient is built; the caller divides by s.  Closes the blocks
        the part meets first.  The non-pivot rows span the cokernel, so
        this always succeeds.  The reduction stops at the first non-pivot
        row, so pivot rows below it can stay in the residue.
        """
        self._close(part)
        return self._reduce({**part, _SCALE: self._one})[1]


class GriffithsDworkReducer:
    """Reduce top forms P dx_0..dx_n to the standard cohomology basis.

    std_basis lists the basis as (degree, exponent tuple); std_index maps
    (degree, packed monomial), packed by that degree's solver, to its
    position.  A singular F (over QQ(t), a singular generic member) raises
    NotSmoothError.  The echelon of the socle degree is built first and
    decides smoothness: one standard monomial, and every orphan of the
    degree above a pivot row of its block (module docstring, "Smoothness").
    """

    def __init__(self, f: Polynomial):
        self.m = m = jacobian_degree(f)
        self.f = f
        self.field = f.field
        self.nvars = f.nvars
        self.partials = [f.partial_derivative(k) for k in range(f.nvars)]
        self.top_residue = (-f.nvars) % m
        socle = f.nvars * (m - 2)
        self.std_degrees = [d for d in range(socle + 1)
                            if d % m == self.top_residue]
        self._solvers = {}
        top = self._solver(socle).standard_monomials
        if not self._socle_certifies(top):
            raise NotSmoothError(
                "Griffiths-Dwork reduction needs a smooth (generic) member")
        self.std_basis, self.std_index = [], {}
        for d in self.std_degrees:
            solver = self._solver(d)
            for nu in top if d == socle else solver.standard_monomials:
                self.std_index[d, solver.columns.pack(nu)] = len(self.std_basis)
                self.std_basis.append((d, nu))

    def _socle_certifies(self, top) -> bool:
        """F is smooth, given top, the standard monomials of the socle
        degree (module docstring, "Smoothness"): top is one monomial s, and
        every orphan of the degree above, s * x_k for s a power of x_k, is
        a pivot row once its block is eliminated."""
        if len(top) != 1:
            return False
        (s,) = top
        orphans = [s[:k] + (e + 1,) + s[k + 1:] for k, e in enumerate(s)
                   if e == sum(s)]
        if not orphans:
            return True
        solver = self._solver(sum(s) + 1)
        keys = list(map(solver.columns.pack, orphans))
        solver._close(keys)
        return all(r in solver.pivots for r in keys)

    def _solver(self, d: int) -> _DegreeSolver:
        s = self._solvers.get(d)
        if s is None:
            s = self._solvers[d] = _DegreeSolver(
                self.partials, self.field, self.nvars, self.m - 1, d)
        return s

    def standard_forms(self):
        """The basis x^nu as t-free polynomials over QQ, on one-term maps."""
        return [Polynomial._of(QQ, self.nvars, {nu: QQ.one})
                for _, nu in self.std_basis]

    def reduce(self, p: Polynomial) -> dict:
        """Coordinates of the class [p dx] in the standard basis, as a map
        basis index -> nonzero value.

        Fraction-free: p is lifted once by integerize_column, and the parts
        left to solve and the coordinates are numerators over Z (over QQ)
        or Z[t] (over QQ(t)) with one common denominator.  Each part is
        keyed by monomials packed for its degree's solver: p's terms once,
        and each correction to a lower degree once, repacked from the
        degree it comes from.  Each solve returns its column with its scale
        s; the denominator, the parts still open and the coordinates are
        multiplied by s, and the column's entries are then numerators over
        the new denominator.  One quotient is built per nonzero coordinate,
        at the end.
        """
        zero, one, of_int, add, mul, quotient = _RINGS[self.field]
        nvars, std_index = self.nvars, self.std_index
        lifted = integerize_column({**p.terms, _SCALE: self.field.one})
        den = lifted.pop(_SCALE)
        parts = {}
        for nu, c in lifted.items():
            d = sum(nu)
            if d % self.m != self.top_residue:
                raise ValueError(
                    f"coefficient degree {d} is not on the top strand")
            parts.setdefault(d, {})[self._solver(d).columns.pack(nu)] = c
        coords = {}
        while parts:
            d = max(parts)
            solver = self._solver(d)
            columns, col = solver.columns, solver.solve(parts.pop(d))
            s = col.pop(_SCALE)
            if s != one:
                den = mul(den, s)
                for k, c in coords.items():
                    coords[k] = mul(c, s)
                for part in parts.values():
                    for nu, c in part.items():
                        part[nu] = mul(c, s)
            # [c g dF/dx_i dx] = -[c g_i x^(g - e_i) dx]: the entry c of
            # column (i, g) adds c g_i to the part of degree d - m, keyed
            # by that degree's packing.  Summed without dropping zeros,
            # then merged: a monomial whose partial sum passes through zero
            # keeps its place, so the residue order (and a BasisError's
            # text) is fixed.
            correction, weights, base = {}, columns.weights, columns.base
            for r, c in col.items():
                if r >= 0:
                    k = std_index.get((d, r))
                    if k is None:
                        residue = Polynomial.monomial(self.field, nvars,
                                                      columns.unpack(r))
                        raise BasisError(
                            f"residue {residue} in degree {d} "
                            f"lies outside the standard basis")
                    coords[k] = add(coords.get(k, zero), c)
                else:
                    g, i = divmod(-2 - r, nvars)
                    gi = g // weights[i] % base
                    if gi:
                        dmono = g - weights[i]      # g / x_i, still packed
                        correction[dmono] = add(correction.get(dmono, zero),
                                                mul(of_int(gi), c))
            if correction:
                below = self._solver(d - self.m).columns
                lower = parts.setdefault(d - self.m, {})
                for nu, c in correction.items():
                    nu = below.pack(columns.unpack(nu))
                    c = add(lower.get(nu, zero), c)
                    if c:
                        lower[nu] = c
                    else:
                        lower.pop(nu, None)
                if not lower:
                    del parts[d - self.m]
        return {k: quotient(c, den) for k, c in sorted(coords.items()) if c}


@dataclass(frozen=True)
class ConnectionMatrix:
    """Matrix of the t-derivative action on the chosen top-cohomology basis.

    nonzero maps (i, j) to the coefficient of basis[i] in the derivative of
    basis[j], for the nonzero coefficients only, values in field; basis
    elements are t-free coefficient polynomials of top forms.  ``entries``
    is the dense matrix, field.zero off the nonzero entries, built only
    when asked: the Dwork quintic's 204 x 204 matrix has 396 nonzero
    entries of 41,616, and the text, the denominator, the specializations
    and the checks read only those.  denominator is the lcm of all entry
    denominators; its roots bound the discriminant set where the matrix
    degenerates.
    """

    basis: tuple
    nonzero: dict
    field: object
    denominator: IntPoly = (1,)
    discriminant_roots: tuple = ()

    @property
    def size(self) -> int:
        return len(self.basis)

    def _rows(self, zero, value):
        """Dense rows: value(e) at each nonzero entry e, zero elsewhere."""
        rows = [[zero] * self.size for _ in range(self.size)]
        for (i, j), e in self.nonzero.items():
            rows[i][j] = value(e)
        return rows

    @property
    def entries(self) -> tuple:
        return tuple(map(tuple, self._rows(self.field.zero, lambda e: e)))

    def entry_strings(self):
        return self._rows("0", str)

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
        return tuple(map(tuple, self._rows(
            Fraction(0), lambda e: (e.evaluate(t0) if isinstance(e, RatFunc)
                                    else Fraction(e)))))


def _dense(coords: dict, k: int, zero) -> list:
    """The length-k list of a map index -> value, zero elsewhere."""
    return [coords.get(i, zero) for i in range(k)]


def _solve_square(u_cols, r_cols, k):
    """Solve U X = R for X, given U and R as lists of dense length-k columns.

    Returns the rows of X = U^-1 R, by Gauss-Jordan elimination on [U | R];
    a singular U raises BasisError.  connection_matrix solves with the
    reduced basis forms as U on a basis given by the caller (gm --basis);
    on the standard basis U = I and nothing is solved.
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


def _derivative(a: IntPoly) -> IntPoly:
    return tuple(k * c for k, c in enumerate(a))[1:]


def _rational_roots(p: IntPoly):
    """All rational roots of an integer polynomial (for discriminant reports).

    No coefficient is factored.  The roots are those of the square-free
    primitive part q, and a rational root of q is k/L for an integer k, with
    L = |lc(q)|.  A Sturm sequence of q counts its real roots in any
    interval (lo, hi]; bisection from the Cauchy bound isolates each root in
    an interval shorter than 1/L, which holds at most one k/L, and that one
    candidate is tested exactly.
    """
    if len(p) < 2:
        return ()
    q = poly_primitive(poly_div_exact(p, poly_gcd(p, _derivative(p))))
    roots = []
    if not q[0]:
        roots.append(Fraction(0))
        q = q[1:]
    if len(q) < 2:
        return tuple(roots)
    # Sturm sequence: each remainder up to a positive factor, so signs hold
    seq = [q, _derivative(q)]
    while len(seq[-1]) > 1:
        b = seq[-1] if seq[-1][-1] > 0 else poly_neg(seq[-1])
        seq.append(poly_primitive(poly_neg(poly_pseudo_rem(seq[-2], b))))

    def variations(x):
        signs = [v > 0 for v in (poly_eval(a, x) for a in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    lead = abs(q[-1])
    bound = Fraction(2 + max(abs(c) for c in q[:-1]) // lead)
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1 and (hi - lo) * lead < 1:
            cand = Fraction(hi.numerator * lead // hi.denominator, lead)
            if cand > lo and not poly_eval(q, cand):
                roots.append(cand)
            continue
        mid = (lo + hi) / 2
        vmid = variations(mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return tuple(sorted(roots))


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
    given reducer (of F_t over QQ(t), or of one member over QQ).  With the
    reducer of Family.symbolic() and the family's perturbation it is the
    Gauss-Manin matrix: the action on a t-free representative has no d/dt
    term.  basis lists t-free coefficient polynomials over QQ of top forms;
    the default is the reducer's standard monomial basis.

    The matrix X solves U X = R, where the columns of U are the reduced
    basis forms and those of R the reduced perturbation * form.  A standard
    monomial is a non-pivot row of its degree's echelon, so reduce returns
    it as its own unit vector: on the reducer's own standard_forms(), the
    default basis, U = I and X = R with no solve, and each product is the
    lifted perturbation's term map shifted by nu.  Any other basis takes
    the general path: its forms are lifted and reduced first, then their
    perturbation products, and U X = R is solved; forms that are not a
    basis raise BasisError there.
    """
    field = reducer.field
    standard = reducer.standard_forms()
    if basis is None:
        forms = standard
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
    g_lift = perturbation.map_coefficients(field.coerce, field)
    if forms == standard:
        # U = I: the derivative coordinates are the columns of the matrix
        products = (Polynomial._of(field, reducer.nvars, {
            mono_mul(mu, nu): c for mu, c in g_lift.terms.items()})
            for _, nu in reducer.std_basis)
        nonzero = {(i, j): e for j, p in enumerate(products)
                   for i, e in reducer.reduce(p).items()}
    else:
        lifted = [p.map_coefficients(field.coerce, field) for p in forms]
        k, zero = len(forms), field.zero
        u_cols = [_dense(reducer.reduce(p), k, zero) for p in lifted]
        r_cols = [_dense(reducer.reduce(g_lift * p), k, zero) for p in lifted]
        rows = _solve_square(u_cols, r_cols, k)
        nonzero = {(i, j): e for i, row in enumerate(rows)
                   for j, e in enumerate(row) if e}
    den = (1,)
    if field is QQ_T:
        for e in nonzero.values():
            if e.den != (1,):   # a unit den leaves den as it is
                den = poly_div_exact(poly_mul(den, e.den),
                                     poly_zgcd(den, e.den))
    return ConnectionMatrix(tuple(forms), nonzero, field, den,
                            _rational_roots(den))


def connection_properties_check(fam: Family, samples,
                                reducer: GriffithsDworkReducer,
                                matrix: ConnectionMatrix) -> Verdict:
    """Consistency harness for the connection action.

    reducer is the GriffithsDworkReducer of fam.symbolic(), and matrix is
    connection_matrix(reducer, fam.perturbation, basis), the symbolic
    matrix under check; the checks run on its basis, matrix.basis.  A
    caller that reports the matrix has built both, so the check builds
    neither.
    (a) specializing the symbolic matrix at each sample t equals
        rational_connection_matrix, computed from scratch over QQ at F_t on
        the same basis;
    (b) under the change of basis S = 2I + N (N the unit subdiagonal) the
        reduced perturbation products R' of the new forms (lhs) equal U' X
        (rhs): U' = U S the reduced new forms, X = S^-1 M S by forward
        substitution, no solve.  For an invertible U' the new matrix is X.
    Samples on the discriminant (poles, non-smooth members, degenerate
    bases) are reported as failed checks, never skipped silently.  A
    sample is a pole exactly when specializing raises ZeroDivisionError:
    the discriminant roots are the rational roots of the lcm of the
    reduced entry denominators, so some entry has a pole at each of them.
    """
    checks = []
    for t0 in samples:
        t0 = Fraction(t0)
        try:
            specialized = matrix.specialize(t0)
        except ZeroDivisionError:
            checks.append(Check(f"t = {t0} avoids the discriminant set",
                                str(t0), "discriminant sample"))
            continue
        try:
            direct = rational_connection_matrix(fam.at(t0), fam.perturbation,
                                                basis=list(matrix.basis))
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
    # S = 2I + N, N the unit subdiagonal: new form j is 2 b_j + b_(j+1)
    field, k = reducer.field, matrix.size
    g = fam.perturbation.map_coefficients(field.coerce, field)
    padded = list(matrix.basis) + [Polynomial.zero(QQ, fam.nvars)]
    new_forms = [(padded[j].scale(2) + padded[j + 1]).map_coefficients(
        field.coerce, field) for j in range(k)]
    u_cols = [reducer.reduce(p) for p in new_forms]
    r_cols = [reducer.reduce(g * p) for p in new_forms]
    # X = S^-1 (M S) by forward substitution down the rows of M S, each row
    # a map column -> nonzero value: (M S)[i][j] = 2 M[i][j] + M[i][j+1]
    ms = [{} for _ in range(k)]
    for (i, j), e in matrix.nonzero.items():
        add_term(ms[i], j, 2 * e)
        if j:
            add_term(ms[i], j - 1, e)
    x, prev = [], {}
    for row in ms:
        for j, e in prev.items():
            add_term(row, j, -e)
        prev = {j: e / 2 for j, e in row.items()}
        x.append(prev)
    zero, product = field.zero, _matmul(u_cols, x)
    checks.append(Check("basis change conjugates the matrix",
                        [[col.get(i, zero) for col in r_cols]
                         for i in range(k)],
                        [_dense(product.get(i, {}), k, zero)
                         for i in range(k)]))
    return Verdict(tuple(checks))


def _matmul(cols, rows) -> dict:
    """a @ b from the columns of a and the rows of b, each a map index ->
    nonzero value; returns the product's nonzero rows, i -> (l -> value).

    Row i of a @ b is the sum over j of a[i][j] times row j of b, so only
    nonzero entries are read: on the default basis the reduced forms of
    connection_properties_check are S itself, two terms a column.
    """
    out = {}
    for col, row in zip(cols, rows):
        for i, a in col.items():
            acc = out.setdefault(i, {})
            for j, b in row.items():
                add_term(acc, j, a * b)
    return out
