"""Exact linear algebra on sparse rows of ints and Fractions.

A matrix is a list of rows.  A row is a dict ``{column: value}`` holding
its nonzero entries (a stored zero is ignored).  Column keys only need to
be mutually sortable, so flag indices and monomials both serve.  The one
product, ``combine``, reads a matrix held as columns, so it touches only the
columns its vector touches.  ``rank`` eliminates in integers.  No function
here mutates its input.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive(row) -> dict:
    """The nonzero entries of ``row`` scaled to coprime integers."""
    m = lcm(*(x.denominator for x in row.values()))
    r = {c: x.numerator * (m // x.denominator) for c, x in row.items() if x}
    g = gcd(*r.values()) or 1
    return {c: x // g for c, x in r.items()}


def rank(matrix) -> int:
    """Rank by fraction-free elimination of each row against the pivot rows kept so far.

    Each row is cleared once to coprime integers.  A row r is eliminated
    against the pivot p at their leading column c as (p[c]/g) r - (r[c]/g) p
    with g = gcd(p[c], r[c]).  Pivots are kept primitive, which bounds the
    entry growth as in Bareiss's integer-preserving elimination (Math. Comp.
    22, 1968).
    """
    # pivot column -> primitive row with no entry in a smaller column
    pivots: dict = {}
    for row in matrix:
        r = _primitive(row)
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = _primitive(r)
                break
            g = gcd(p[c], r[c])
            a, b = p[c] // g, r[c] // g
            if a != 1:
                r = {col: a * x for col, x in r.items()}
            for col, x in p.items():
                y = r.get(col, 0) - b * x
                if y:
                    r[col] = y
                else:
                    del r[col]
    return len(pivots)


def combine(columns, vec) -> dict:
    """The product of the matrix held as ``columns`` with ``vec``, as {row: value}:
    the sum of ``vec[c] * columns[c]``, reading only the columns ``vec`` touches."""
    out: dict = {}
    for c, x in vec.items():
        if x:
            for r, y in columns[c].items():
                out[r] = out.get(r, 0) + x * y
    return {r: s for r, s in out.items() if s}


def betti(dims, ranks) -> list[int]:
    """Cohomology dimensions dim_k - rank d_k - rank d_{k-1} of a cochain complex.

    ``ranks[k]`` is the rank of the coboundary out of degree k; ranks past
    the end of the list count as 0.
    """
    r = list(ranks) + [0] * (len(dims) - len(ranks))
    return [d - r[k] - (r[k - 1] if k else 0) for k, d in enumerate(dims)]
