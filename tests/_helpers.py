"""Shared builders and independent oracles for the test suite."""

from fractions import Fraction

from dworkcohom import QQ, Polynomial


def var(nvars, k, field=QQ):
    return Polynomial.variable(field, nvars, k)


def fermat(m, nvars, field=QQ):
    return sum(Polynomial.variable(field, nvars, k) ** m for k in range(nvars))


def triangle():
    return var(3, 0) * var(3, 1) * var(3, 2)


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


def sparse_to_dense(m):
    rows = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = Fraction(v)
    return rows


def all_macaulay_columns(partials, index, sources):
    """Every Macaulay column g * p, for each nonzero partial p and each g in
    sources, rows numbered by index.  No column is skipped, so this is the
    oracle for the kept columns of griffiths.MacaulayColumns."""
    cols = []
    for p in partials:
        if p:
            for g in sources:
                cols.append({index[tuple(a + b for a, b in zip(g, mu))]: c
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
