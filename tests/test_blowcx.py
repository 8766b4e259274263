from functools import lru_cache

import pytest

from blowupforms import blowcx
from blowupforms.blowcx import betti_numbers, build_blowup_complex, decompose
from blowupforms.flagcomb import Flag, enumerate_flags, push_forward, standard_representative
from blowupforms.shadow import DecompositionFailed, d_decomposition


@lru_cache(maxsize=None)
def _complex(nv):
    """The complex of {0..nv-1}, built once for every read-only test."""
    return build_blowup_complex(tuple(range(nv)))


@pytest.mark.parametrize("nv,fvec", [(2, (2, 1)), (3, (6, 6, 1)), (4, (24, 36, 14, 1)),
                                     (5, (120, 240, 150, 30, 1))])
def test_f_vectors(nv, fvec):
    cx = _complex(nv)
    assert cx.f_vector == fvec


@pytest.mark.parametrize("nv", [2, 3, 4, 5])
def test_euler_characteristic_is_one(nv):
    import math

    def stirling2(n, m):
        if n == m == 0:
            return 1
        if n == 0 or m == 0:
            return 0
        return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)

    total = 0
    for k in range(nv):
        m = nv - k
        total += (-1) ** k * stirling2(nv, m) * math.factorial(m)
    assert total == 1


@pytest.mark.parametrize("nv,betti", [(2, (1, 0)), (3, (1, 0, 0)), (4, (1, 0, 0, 0)),
                                      (5, (1, 0, 0, 0, 0))])
def test_betti_numbers(nv, betti):
    cx = _complex(nv)
    assert betti_numbers(cx) == betti


def test_coboundary_support_is_the_coarsening_relation():
    cx = _complex(4)
    for k in range(3):
        rows = cx.cells[k + 1]
        assert len(cx.coboundary[k]) == len(cx.cells[k])
        for F, col in zip(cx.cells[k], cx.coboundary[k]):
            merges = {F.coarsen(j) for j in range(1, len(F.blocks))}
            assert all(0 <= r < len(rows) for r in col)
            assert all(val in (1, -1) for val in col.values())
            assert {rows[r] for r in col} == merges


def _solved_columns(nv):
    """{F: {F_j: c_j}} for every flag of {0..nv-1} below the top degree, the
    symbolic way: d_decomposition solves one standard representative R per
    composition, and push_forward carries R's column, the DOF values of
    d(psi_R), to each F of its orbit."""
    solved, columns = {}, {}
    for k in range(nv - 1):
        for F in enumerate_flags(range(nv), k):
            R, sigma = standard_representative(F)
            if R not in solved:
                solved[R] = {Rj: c for c, Rj in d_decomposition(R)}
            columns[F] = push_forward(solved[R], sigma)
    return columns


@pytest.mark.parametrize("nv", [2, 3, 4, 5])
def test_closed_form_sign_rule_reproduces_every_column(nv):
    # the build reads every column off merge_sign; the reference solves the
    # representatives' columns and transports them with push_forward
    cx = _complex(nv)
    solved = _solved_columns(nv)
    for k in range(nv - 1):
        index = {F: i for i, F in enumerate(cx.cells[k + 1])}
        for F, col in zip(cx.cells[k], cx.coboundary[k]):
            assert col == {index[Fj]: c for Fj, c in solved[F].items()}, F


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_transported_columns_equal_a_decomposition_of_every_flag(nv):
    # decompose proves one flag per composition and reads every column off
    # merge_sign; the reference decomposes each flag itself
    flags = [F for k in range(nv) for F in enumerate_flags(range(nv), k)]
    taken, columns, failures = decompose(flags)
    assert taken == flags and not failures
    assert columns == {F: {Fj: c for c, Fj in d_decomposition(F)} for F in flags}


def test_failed_representative_fails_its_whole_orbit(monkeypatch):
    # 0|1,2 stands for every flag with block sizes (1, 2); each of them fails,
    # and the reason of every other flag of the orbit names 0|1,2
    real = blowcx.d_decomposition
    target = Flag.parse("0|1,2")

    def failing(F):
        if F == target:
            raise DecompositionFailed(f"coefficient 2 for {F}")
        return real(F)

    monkeypatch.setattr(blowcx, "d_decomposition", failing)
    flags = [F for k in range(3) for F in enumerate_flags(range(3), k)]
    taken, columns, failures = decompose(flags)
    assert taken == flags
    assert failures == {
        Flag.parse("0|1,2"): "coefficient 2 for 0|1,2",
        Flag.parse("1|0,2"): "transported from 0|1,2: coefficient 2 for 0|1,2",
        Flag.parse("2|0,1"): "transported from 0|1,2: coefficient 2 for 0|1,2",
    }
    assert set(columns) == set(flags) - set(failures)


def _dense(cx, k):
    """d_k as dense rows over cells[k + 1], read off the stored columns."""
    return [[col.get(r, 0) for col in cx.coboundary[k]] for r in range(len(cx.cells[k + 1]))]


def test_coboundary_squares_to_zero():
    cx = _complex(4)
    for k in range(2):
        A, B = _dense(cx, k + 1), _dense(cx, k)
        for i in range(len(A)):
            for j in range(len(B[0])):
                assert sum(A[i][m] * B[m][j] for m in range(len(B))) == 0


def test_sign_error_in_a_decomposition_fails_the_build(monkeypatch):
    # one column sign flipped off a representative: d_decomposition proves
    # 0|1|2, not 1|0|2, so the d(d psi) = 0 check on the columns must catch it
    real = Flag.merge_sign
    target = Flag.parse("1|0|2")
    monkeypatch.setattr(Flag, "merge_sign",
                        lambda F, j: -real(F, j) if (F, j) == (target, 1) else real(F, j))
    with pytest.raises(DecompositionFailed) as info:
        build_blowup_complex((0, 1, 2))
    assert str(info.value) == "d(psi_1|0|2): dd != 0: -2 psi_0,1,2"


def test_vertex_set_cap():
    with pytest.raises(ValueError):
        build_blowup_complex(tuple(range(7)))
