"""Dense exact linear algebra over Fraction.

Matrices are lists of rows; rows are lists of Fraction/int.  Sizes here stay
in the low hundreds, so straightforward Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction


def rank(matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                ratio = f / pv
                rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r

