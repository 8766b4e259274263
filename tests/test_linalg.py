import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowupforms import linalg

try:
    import sympy
except ImportError:  # the rank oracle is optional
    sympy = None


@st.composite
def matrices(draw):
    """Small integer matrices as dense rows, with zero rows and dependent rows mixed in."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append([0] * ncols)
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


def _as_dicts(dense, key=lambda j: j, keep_zeros=False):
    return [{key(j): x for j, x in enumerate(row) if x or keep_zeros} for row in dense]


def _rank_unchanged(rows):
    before = copy.deepcopy(rows)
    r = linalg.rank(rows)
    assert rows == before
    return r


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=150, deadline=None)
@given(matrices())
@example((2, [[1, 1], [1, 1]]))  # rank 1 only if the pivot row keeps both entries
def test_rank_matches_sympy(m):
    ncols, dense = m
    want = sympy.Matrix(len(dense), ncols, [x for row in dense for x in row]).rank()
    assert _rank_unchanged(_as_dicts(dense)) == want
    assert _rank_unchanged(_as_dicts(dense, keep_zeros=True)) == want
    # tuple column keys whose order differs from the index order, Fraction values
    tuple_rows = [
        {k: Fraction(x, 3) for k, x in row.items()}
        for row in _as_dicts(dense, key=lambda j: (j % 2, -j))
    ]
    assert _rank_unchanged(tuple_rows) == want


@st.composite
def large_matrices(draw):
    """Entries up to 10**12, some rows entrywise Fractions with mixed denominators,
    plus rows scaled by large rationals and large combinations of earlier rows."""
    ncols = draw(st.integers(1, 6))
    big = st.integers(-10**12, 10**12)
    entry = st.one_of(big, st.builds(Fraction, big, st.integers(1, 10**6)))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        if draw(st.booleans()):
            coeffs = draw(st.lists(big, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            scale = Fraction(draw(big.filter(bool)), draw(st.integers(1, 10**12)))
            rows.append([scale * x for x in draw(st.sampled_from(rows))])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=150, deadline=None)
@given(large_matrices())
def test_rank_matches_sympy_on_large_entries(m):
    ncols, dense = m
    exact = [sympy.Rational(x.numerator, x.denominator) for row in dense for x in row]
    want = sympy.Matrix(len(dense), ncols, exact).rank()
    assert _rank_unchanged(_as_dicts(dense)) == want
    assert _rank_unchanged(_as_dicts(dense, keep_zeros=True)) == want


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_combine_matches_dense_product(m, data):
    # the drawn rows serve as columns: column c is dense[c]
    nrows, dense = m
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=len(dense), max_size=len(dense)))
    want = {}
    for r in range(nrows):
        s = sum(x * col[r] for x, col in zip(vec, dense))
        if s:
            want[r] = s
    sparse_vec = {c: Fraction(x) for c, x in enumerate(vec) if x}
    fraction_cols = [{r: Fraction(x, 3) for r, x in col.items()} for col in _as_dicts(dense)]
    for columns in (_as_dicts(dense), _as_dicts(dense, keep_zeros=True)):
        before = copy.deepcopy(columns)
        assert linalg.combine(columns, sparse_vec) == want
        assert linalg.combine(columns, dict(enumerate(vec))) == want
        assert columns == before
    thirds = {r: Fraction(x, 3) for r, x in want.items()}
    assert linalg.combine(fraction_cols, sparse_vec) == thirds


def test_betti_pads_missing_ranks():
    # the boundary of a triangle: d_0 has rank 2
    assert linalg.betti([3, 3], [2]) == [1, 1]
    assert linalg.betti([3, 3], [2, 0]) == [1, 1]
