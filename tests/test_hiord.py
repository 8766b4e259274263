import math
from fractions import Fraction

import pytest

from blowupforms.flagcomb import ArrivalSequence, Flag, enumerate_flags
from blowupforms.hiord import (
    enumerate_experiments,
    face_vanishing_check,
    independence_rank,
    pr_containment,
    r1_reduction_check,
)
from blowupforms.symexpr import Poly, RationalFn, face_limit
from form_helpers import is_homogeneous, round_limit


def l(*ids):
    return frozenset(ids)


def by_sequence(candidates):
    return {c.sequence.compact(): c for c in candidates}


def _experiments_by_recursion(V, r):
    """The enumeration ``enumerate_experiments`` replaced: count vectors from a
    recursion on the first count, monomials as products of ``Poly.var``."""
    out = []

    def compositions(active, total):
        if len(active) == 1:
            yield (total,)
            return
        for c in range(total, -1, -1):
            for rest in compositions(active[1:], total - c):
                yield (c,) + rest

    def rec(active, rounds, num, den):
        if not active:
            out.append((ArrivalSequence(r=r, rounds=tuple(rounds)), RationalFn(num, den)))
            return
        for counts in compositions(active, r):
            rnd = tuple(zip(active, counts))
            coeff, term = math.factorial(r), Poly.const(1)
            for v, c in rnd:
                coeff //= math.factorial(c)
                if c:
                    term = term * Poly.var(v, c)
            new_den = dict(den)
            new_den[frozenset(active)] = new_den.get(frozenset(active), 0) + r
            rec(tuple(v for v, c in rnd if c == 0), rounds + [rnd], num * term * coeff, new_den)

    rec(tuple(V), [], Poly.const(1), {})
    out.sort(key=lambda sp: sp[0].rounds)
    return out


@pytest.mark.parametrize("V", [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (2, 5, 7)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_enumeration_matches_the_composition_recursion(V, r):
    got = [(c.sequence, c.probability) for c in enumerate_experiments(V, r)]
    assert got == _experiments_by_recursion(V, r)


def test_census_n2_r3_is_19():
    cands = enumerate_experiments((0, 1, 2), 3)
    assert len(cands) == 19
    by_flag = {}
    for c in cands:
        by_flag.setdefault(c.flag, []).append(c)
    # one per vertex, two per edge, one per face of the blown-up triangle
    sizes = sorted(len(v) for v in by_flag.values())
    full = [F for F in by_flag if len(F.blocks) == 3]
    edges = [F for F in by_flag if len(F.blocks) == 2]
    assert len(full) == 6 and all(len(by_flag[F]) == 1 for F in full)
    assert len(edges) == 6 and all(len(by_flag[F]) == 2 for F in edges)
    assert len(by_flag[Flag.parse("0,1,2")]) == 1


def test_reference_rows_n2_r3():
    cands = by_sequence(enumerate_experiments((0, 1, 2), 3))
    V3 = {l(0, 1, 2): 3}
    rows = {
        "000|111|222": RationalFn(Poly.var(0, 3) * Poly.var(1, 3),
                                  {l(0, 1, 2): 3, l(1, 2): 3}),
        "001|222": RationalFn(Poly.var(0, 2) * Poly.var(1) * 3, V3),
        "011|222": RationalFn(Poly.var(0) * Poly.var(1, 2) * 3, V3),
        "000|112": RationalFn(Poly.var(0, 3) * Poly.var(1, 2) * Poly.var(2) * 3,
                              {l(0, 1, 2): 3, l(1, 2): 3}),
        "000|122": RationalFn(Poly.var(0, 3) * Poly.var(1) * Poly.var(2, 2) * 3,
                              {l(0, 1, 2): 3, l(1, 2): 3}),
        "012": RationalFn(Poly.var(0) * Poly.var(1) * Poly.var(2) * 6, V3),
    }
    for seq, expected in rows.items():
        assert cands[seq].probability == expected, seq


def test_round_factor_coefficients_match_multinomials():
    cands = by_sequence(enumerate_experiments((0, 1, 2), 3))
    # 3 = 3!/2! and 6 = 3!
    assert cands["001|222"].probability.num.terms
    coeff = next(iter(cands["012"].probability.num.terms.values()))
    assert coeff == 6


@pytest.mark.parametrize("nv,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_probabilities_sum_to_one(nv, r):
    total = RationalFn.zero()
    for c in enumerate_experiments(tuple(range(nv)), r):
        total = total + c.probability
    assert total == RationalFn.one()


@pytest.mark.parametrize("nv,r", [(2, 2), (3, 3), (4, 2)])
def test_probabilities_positive_at_barycenter(nv, r):
    point = {i: Fraction(1, nv) for i in range(nv)}
    for c in enumerate_experiments(tuple(range(nv)), r):
        val = c.probability.evaluate(point)
        assert 0 < val <= 1
        assert is_homogeneous(c.probability, 0)


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_r1_reduces_to_shadow_scalars(nv):
    assert r1_reduction_check(tuple(range(nv)))


def test_independence_ranks():
    assert independence_rank(enumerate_experiments((0, 1, 2), 1)) == 6
    assert independence_rank(enumerate_experiments((0, 1, 2), 3)) == 19
    cands = enumerate_experiments((0, 1), 2)
    assert independence_rank(cands) == len(cands) == 3


@pytest.mark.parametrize("nv,r", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_pr_containment(nv, r):
    assert pr_containment(tuple(range(nv + 1)), r)


def test_containment_recovers_affine_identity():
    # grouping r=1 candidates on the triangle by first receipt gives lambda_i/l_V
    cands = enumerate_experiments((0, 1, 2), 1)
    groups = {}
    for c in cands:
        first = c.sequence.silenced[0][0]
        groups[first] = groups.get(first, RationalFn.zero()) + c.probability
    for i in range(3):
        assert groups[i] == RationalFn(Poly.var(i), {l(0, 1, 2): 1})


def test_face_vanishing_all_pairs_n2():
    faces = [F for k in range(3) for F in enumerate_flags((0, 1, 2), k)]
    for r in (1, 2, 3):
        for c in enumerate_experiments((0, 1, 2), r):
            for F in faces:
                assert face_vanishing_check(c, F)


def test_face_vanishing_examples():
    cands = by_sequence(enumerate_experiments((0, 1, 2), 3))
    c = cands["001|222"]  # flag {01}2
    assert c.flag == Flag.parse("0,1|2")
    # nonzero on its own face, zero on a non-coarsening
    assert face_vanishing_check(c, Flag.parse("0,1|2"))
    full_round = cands["012"]  # flag {012}
    assert full_round.flag == Flag.parse("0,1,2")
    assert face_vanishing_check(full_round, Flag.parse("0,1|2"))
    # any candidate survives on the all-of-V face
    for c in cands.values():
        assert face_vanishing_check(c, Flag.parse("0,1,2"))


@pytest.mark.parametrize("n, r, nonzero", [(2, 2, 36), (2, 3, 49), (3, 2, 348)])
def test_candidate_limit_is_the_round_wise_limit(n, r, nonzero):
    # the limit of every candidate of `higher-order --n n --r r` toward every
    # face, exactly, against the product of its per-round limits, at two points;
    # a candidate's numerator is one monomial, so the limit is also checked on
    # c + 2 c' for consecutive candidates, whose numerator parts differ in order
    V = tuple(range(n + 1))
    faces = [G for k in range(len(V)) for G in enumerate_flags(V, k)]
    points = [{v: Fraction(v + 1, 2) for v in V}, {v: Fraction(7, 2 * v + 3) for v in V}]
    cands = enumerate_experiments(V, r)
    count = 0
    for c, c2 in zip(cands, cands[1:] + cands[:1]):
        pair = c.probability + c2.probability * 2
        for G in faces:
            limit = face_limit(c.probability, G)
            limit2 = face_limit(pair, G)
            for point in points:
                want = round_limit(c.sequence, G, point)
                assert limit.evaluate(point) == want, (c.sequence, G)
                assert limit2.evaluate(point) == want + 2 * round_limit(c2.sequence, G, point), \
                    (c.sequence, c2.sequence, G)
            count += not limit.is_zero()
    assert count == nonzero
