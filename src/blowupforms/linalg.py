"""Exact linear algebra over Fraction on sparse rows.

A matrix is a list of rows.  A row is a mapping ``{column: value}`` holding
its nonzero entries; a dense list or tuple is read as ``enumerate(row)``.
Column keys only need to be mutually sortable, so flag indices and
monomials both serve.  No function here mutates its input.
"""

from __future__ import annotations

from fractions import Fraction


def _entries(row):
    return row.items() if hasattr(row, "items") else enumerate(row)


def rank(matrix) -> int:
    """Rank by elimination of each row against the pivot rows kept so far."""
    # pivot column -> row scaled to 1 there, with no entry in a smaller column
    pivots: dict = {}
    for row in matrix:
        r = {c: Fraction(x) for c, x in _entries(row) if x}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pv = r[c]
                pivots[c] = {col: x / pv for col, x in r.items()}
                break
            f = r[c]
            for col, x in p.items():
                y = r.get(col, 0) - f * x
                if y:
                    r[col] = y
                else:
                    del r[col]
    return len(pivots)


def apply(rows, vec) -> dict:
    """The product of ``rows`` with the sparse vector ``vec``, as {row index: value}."""
    out = {}
    for i, row in enumerate(rows):
        s = sum(x * vec[c] for c, x in _entries(row) if c in vec)
        if s:
            out[i] = s
    return out


def combine(columns, vec) -> dict:
    """The product of the matrix held as ``columns`` with ``vec``, as {row: value}:
    the sum of ``vec[c] * columns[c]``, reading only the columns ``vec`` touches."""
    out: dict = {}
    for c, x in _entries(vec):
        if x:
            for r, y in _entries(columns[c]):
                out[r] = out.get(r, 0) + x * y
    return {r: s for r, s in out.items() if s}


def betti(dims, ranks) -> list[int]:
    """Cohomology dimensions dim_k - rank d_k - rank d_{k-1} of a cochain complex.

    ``ranks[k]`` is the rank of the coboundary out of degree k; ranks past
    the end of the list count as 0.
    """
    r = list(ranks) + [0] * (len(dims) - len(ranks))
    return [d - r[k] - (r[k - 1] if k else 0) for k, d in enumerate(dims)]
