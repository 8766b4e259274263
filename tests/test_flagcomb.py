import math
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from blowupforms.flagcomb import (
    ArrivalSequence,
    Flag,
    enumerate_flags,
    perm_sign,
    standard_representative,
    vertex_set,
)
from form_helpers import arrival_words, cellular_incidence


# -- independent oracles ------------------------------------------------------

def brute_force_ordered_partitions(elems, m):
    """Count ordered partitions by choosing each nonempty first block in turn."""
    elems = tuple(elems)
    if m == 0:
        return 1 if not elems else 0
    if not elems:
        return 0
    total = 0
    for mask in range(1, 2 ** len(elems)):
        rest = tuple(e for i, e in enumerate(elems) if not (mask >> i) & 1)
        total += brute_force_ordered_partitions(rest, m - 1)
    return total


def stirling2(n, m):
    if n == m == 0:
        return 1
    if n == 0 or m == 0:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


ORDERED_BELL = {2: 3, 3: 13, 4: 75, 5: 541}


def cycle_parity_sign(perm):
    """(-1)^(n - number of cycles) for a permutation of range(n)."""
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start in seen:
            continue
        cycles += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
    return -1 if (len(perm) - cycles) % 2 else 1


# -- flag enumeration -----------------------------------------------------------

def test_single_vertex():
    assert list(enumerate_flags((0,), 0)) == [Flag([(0,)])]


def test_six_flags_on_triangle_k1():
    flags = list(enumerate_flags((0, 1, 2), 1))
    assert len(flags) == 6
    expected = {"0,1|2", "0,2|1", "1,2|0", "0|1,2", "1|0,2", "2|0,1"}
    assert {str(F) for F in flags} == expected


def test_24_vertices_of_permutahedron():
    assert len(list(enumerate_flags((0, 1, 2, 3), 0))) == 24


@pytest.mark.parametrize("nv", [2, 3, 4, 5])
def test_census_matches_stirling_and_brute_force(nv):
    V = tuple(range(nv))
    total = 0
    for k in range(nv):
        m = nv - k
        count = len(list(enumerate_flags(V, k)))
        assert count == stirling2(nv, m) * math.factorial(m)
        assert count == brute_force_ordered_partitions(V, m)
        total += count
    assert total == ORDERED_BELL[nv]


def test_enumeration_is_sorted_and_duplicate_free():
    # flags come lazily, one at a time, already in canonical order: nothing is sorted
    for nv in range(1, 7):
        for k in range(nv):
            flags = enumerate_flags(range(nv), k)
            assert iter(flags) is flags
            listed = list(flags)
            assert listed == sorted(listed)
            assert len(set(listed)) == len(listed)


def test_k_out_of_range():
    with pytest.raises(ValueError):
        enumerate_flags((0, 1, 2), 3)


def test_vertex_set_validation():
    with pytest.raises(ValueError):
        vertex_set(())
    with pytest.raises(ValueError):
        vertex_set((0, 0))
    with pytest.raises(ValueError):
        vertex_set((-1, 2))


@pytest.mark.parametrize("blocks", [
    (), ((0,), ()), ((0, 1), (1, 2)), ((0, 0),), ((-1,), (2,)), ((0,), (True,)),
])
def test_bad_flag_is_value_error(blocks):
    with pytest.raises(ValueError):
        Flag(blocks)


# -- coarsen / refines / relabel -------------------------------------------------

def test_coarsen_merges_adjacent_blocks():
    assert Flag.parse("0|1|2").coarsen(1) == Flag.parse("0,1|2")
    assert Flag.parse("0|1,2").coarsen(1) == Flag.parse("0,1,2")
    assert Flag.parse("0|1|2,3").coarsen(2) == Flag.parse("0|1,2,3")
    with pytest.raises(ValueError):
        Flag.parse("0|1|2").coarsen(3)


def test_refines_examples():
    assert Flag.parse("0|1|2").refines(Flag.parse("0,1|2"))
    F = Flag.parse("0|1,2")
    assert F.refines(F)
    assert not Flag.parse("0,1|2").refines(Flag.parse("0|1,2"))


def _refines_by_block_walk(F, G):
    """The block walk ``Flag.refines`` replaced: consume F's blocks into each of G's."""
    i = 0
    for target in G.blocks:
        acc = set()
        while acc != set(target):
            if i >= len(F.blocks) or not set(F.blocks[i]) <= set(target):
                return False
            acc.update(F.blocks[i])
            i += 1
    return i == len(F.blocks)


def test_refines_agrees_with_the_block_walk():
    # cut sets against a reference walk, on every ordered pair of flags on {0..3}
    flags = [F for k in range(4) for F in enumerate_flags((0, 1, 2, 3), k)]
    verdicts = [F.refines(G) for F in flags for G in flags]
    assert verdicts == [_refines_by_block_walk(F, G) for F in flags for G in flags]
    assert 0 < sum(verdicts) < len(verdicts)
    with pytest.raises(ValueError):
        Flag.parse("0|1").refines(Flag.parse("0|2"))


def test_coarsen_is_refined_by_original():
    for k in range(3):
        for F in enumerate_flags((0, 1, 2, 3), k):
            for j in range(1, len(F.blocks)):
                assert F.refines(F.coarsen(j))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_refines_is_a_partial_order(data):
    all_flags = [F for k in range(4) for F in enumerate_flags((0, 1, 2, 3), k)]
    a = data.draw(st.sampled_from(all_flags))
    b = data.draw(st.sampled_from(all_flags))
    c = data.draw(st.sampled_from(all_flags))
    assert a.refines(a)
    if a.refines(b) and b.refines(a):
        assert a == b
    if a.refines(b) and b.refines(c):
        assert a.refines(c)


def test_permute_examples():
    swap02 = {0: 2, 1: 1, 2: 0}
    assert Flag.parse("0,1|2").relabel(swap02) == Flag.parse("1,2|0")
    F = Flag.parse("0|1,2")
    assert F.relabel({0: 0, 1: 1, 2: 2}) == F
    cyc = {0: 1, 1: 2, 2: 0}
    assert F.relabel(cyc) == Flag.parse("1|0,2")
    # a non-injective map fails, within a block and across blocks
    with pytest.raises(ValueError):
        F.relabel({0: 0, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        F.relabel({0: 0, 1: 0, 2: 2})


def test_relabel_onto_a_cell():
    # an injective map into other labels, given as the cell's vertex tuple
    assert Flag.parse("0|1,2").relabel((3, 5, 8)) == Flag.parse("3|5,8")
    assert Flag.parse("2|0,1").relabel({0: 9, 1: 4, 2: 6}) == Flag.parse("6|4,9")
    with pytest.raises(ValueError):
        Flag.parse("0|1,2").relabel((3, 5, 3))


@st.composite
def relabelled_merges(draw):
    """A flag on 2 to 8 vertices, an injective relabelling of them, and a merge index."""
    V = draw(st.lists(st.integers(0, 20), min_size=2, max_size=8, unique=True))
    order = draw(st.permutations(V))
    cuts = sorted(draw(st.sets(st.integers(1, len(V) - 1), min_size=1)))
    F = Flag([order[a:b] for a, b in zip([0, *cuts], [*cuts, len(V)])])
    images = draw(st.lists(st.integers(0, 30), min_size=len(V), max_size=len(V), unique=True))
    return F, dict(zip(V, images)), draw(st.integers(1, len(F.blocks) - 1))


@settings(max_examples=200, deadline=None)
@given(relabelled_merges())
# off the representatives A + B need not be ascending: here perm_sign(A + B) = -1
@example((Flag.parse("0|1"), {0: 1, 1: 0}, 1))
def test_merge_sign_relabelling_law(case):
    # the law that lets the blow-up complex read each column off its own flag
    F, sigma, j = case
    assert F.relabel(sigma).merge_sign(j) == (
        F.relabel_sign(sigma) * F.coarsen(j).relabel_sign(sigma) * F.merge_sign(j))


def test_merge_sign_is_the_cellular_incidence_number():
    # by Stokes, dof_{F_j}(d psi_F) = [Theta_{F_j} : Theta_F]: merge_sign, which
    # d-check proves against the forms, equals T~'s incidence numbers computed
    # from its cells alone, on every (flag, j) on 2-6 vertices
    pairs = 0
    for nv in range(2, 7):
        for k in range(nv):
            for F in enumerate_flags(range(nv), k):
                for j in range(1, len(F.blocks)):
                    assert cellular_incidence(F, j) == F.merge_sign(j), (F, j)
                    pairs += 1
    assert pairs == 18330


@pytest.mark.parametrize("V", [(0, 1, 2, 3), (2, 5, 7, 9, 11)])
def test_standard_representative(V):
    # one R per composition of |V|, carried onto F with sign +1; the sign is
    # checked against perm_sign of each block's image, read off independently
    reps = set()
    for k in range(len(V)):
        for F in enumerate_flags(V, k):
            R, sigma = standard_representative(F)
            assert R.relabel(sigma) == F
            assert R.block_sizes == F.block_sizes
            assert R.vertices == V and sorted(sigma) == list(V)
            assert R.relabel_sign(sigma) == 1
            assert [v for b in R.blocks for v in b] == list(V)
            reps.add(R)
    assert len(reps) == 2 ** (len(V) - 1)
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    assert Flag.parse("0,1|2,3").relabel_sign(swap) == perm_sign((1, 0)) == -1
    assert Flag.parse("0,2|1,3").relabel_sign(swap) == perm_sign((1, 2)) * perm_sign((0, 3)) == 1


def test_flag_text_round_trip():
    for text in ("0|1|2,3", "0,1|2", "0,1,2"):
        assert str(Flag.parse(text)) == text
    # parse inverts str, also where a singleton block's id has two digits
    for k in range(4):
        for F in enumerate_flags(range(4), k):
            for G in (F, F.relabel((3, 10, 11, 25))):
                assert Flag.parse(str(G)) == G, G
    assert Flag.parse("10|2,3").blocks == ((10,), (2, 3))
    assert Flag.parse("0|1|2,3").compact() == "01{23}"


# -- arrival words ----------------------------------------------------------------

def test_arrival_words_worked_examples():
    assert arrival_words(Flag.parse("0|1|2,3")) == [
        (0, 1, 2, 2), (0, 2, 1, 2), (2, 0, 1, 2)
    ]
    assert arrival_words(Flag.parse("0,1|2,3")) == [
        (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1)
    ]


def test_single_block_has_one_word():
    assert arrival_words(Flag.parse("0,1,2,3")) == [(0, 0, 0, 0)]


def test_every_word_ends_with_last_block_label():
    for k in range(4):
        for F in enumerate_flags((0, 1, 2, 3), k):
            last = len(F.blocks) - 1
            for word in arrival_words(F):
                assert word[-1] == last


def test_words_respect_completion_order():
    for F in enumerate_flags((0, 1, 2, 3), 1):
        sizes = F.block_sizes
        for word in arrival_words(F):
            finals = {}
            for pos, label in enumerate(word):
                finals[label] = pos
            assert sorted(finals, key=finals.get) == list(range(len(F.blocks)))


# -- degree-r arrival sequences ----------------------------------------------------

def test_arrival_sequence_validation():
    seq = ArrivalSequence(r=3, rounds=(((0, 2), (1, 1)), ((2, 3),)))
    assert seq.flag == Flag.parse("0,1|2")
    assert seq.compact() == "001|222"
    with pytest.raises(ValueError):
        ArrivalSequence(r=3, rounds=(((0, 1),),))  # counts != r
    with pytest.raises(ValueError):
        ArrivalSequence(r=2, rounds=(((0, 2),), ((0, 2),)))


# -- permutation sign -------------------------------------------------------------

@pytest.mark.parametrize("n", range(7))
def test_perm_sign_matches_cycle_parity(n):
    for perm in permutations(range(n)):
        assert perm_sign(perm) == cycle_parity_sign(perm)
        # only the relative order of the entries matters
        assert perm_sign(tuple(10 + 3 * v for v in perm)) == cycle_parity_sign(perm)


def test_perm_sign_zero_on_repeats():
    assert perm_sign((0, 0)) == 0
    assert perm_sign((3, 1, 2, 1)) == 0
    assert perm_sign(iter((2, 5, 2))) == 0


def test_perm_sign_of_concatenation_is_the_merge_sign():
    def merge_sign(a, b):
        inversions = sum(1 for x in a for y in b if y < x)
        return -1 if inversions % 2 else 1

    elems = range(6)
    for mask in range(3 ** len(elems)):
        a, b = [], []
        for e in elems:
            digit = (mask // 3 ** e) % 3
            if digit == 1:
                a.append(e)
            elif digit == 2:
                b.append(e)
        assert perm_sign(tuple(a) + tuple(b)) == merge_sign(a, b)
