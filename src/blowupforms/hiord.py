"""Higher-order blow-up scalar spaces from repeated Poisson arrival rounds.

A degree-r experiment receives r particles, silences the sources that were
hit, and repeats until every source is silent.  Each outcome (arrival
sequence) contributes a probability that is a product of multinomial round
factors; the span of these functions is the candidate higher-order scalar
space.  The r = 1 case reproduces the blow-up Whitney 0-form basis.
"""

from __future__ import annotations

import math
from itertools import product

from . import linalg
from .flagcomb import ArrivalSequence, Flag, enumerate_flags, vertex_set
from .shadow import IdentityFailed, poisson_probability
from .symexpr import Poly, RationalFn, _den_scale, face_limit


class HigherBasisCandidate:
    __slots__ = ("sequence", "probability")

    def __init__(self, sequence: ArrivalSequence, probability: RationalFn):
        self.sequence = sequence
        self.probability = probability

    @property
    def flag(self) -> Flag:
        return self.sequence.flag


def _multinomial_term(counts) -> Poly:
    """(r! / prod r_i!) * prod lambda_i^{r_i} for ascending (vertex, r_i) pairs summing to r."""
    coeff = math.factorial(sum(c for _, c in counts))
    coeff //= math.prod(math.factorial(c) for _, c in counts)
    return Poly({tuple((v, c) for v, c in counts if c): coeff})


def enumerate_experiments(V, r: int) -> list[HigherBasisCandidate]:
    """All degree-r arrival sequences on V with their exact probabilities.

    Per round with active set A and counts (r_i) summing to r, the factor is
    the multinomial law  (r! / prod r_i!) * prod (lambda_i / l_A)^{r_i}.
    """
    V = vertex_set(V)
    if r < 1:
        raise ValueError("degree r must be positive")
    out: list[HigherBasisCandidate] = []

    def rec(active: tuple[int, ...], rounds, num: Poly, den):
        if not active:
            seq = ArrivalSequence(r=r, rounds=tuple(rounds))
            out.append(HigherBasisCandidate(sequence=seq, probability=RationalFn(num, den)))
            return
        A = frozenset(active)
        for counts in product(range(r + 1), repeat=len(active)):
            if sum(counts) != r:
                continue
            rnd = tuple(zip(active, counts))
            new_den = dict(den)
            new_den[A] = new_den.get(A, 0) + r
            # the sources hit this round are silenced; the rest stay active
            rec(
                tuple(v for v, c in rnd if c == 0),
                rounds + [rnd],
                num * _multinomial_term(rnd),
                new_den,
            )

    rec(V, [], Poly.const(1), {})
    out.sort(key=lambda c: c.sequence.rounds)
    return out


def r1_reduction_check(V) -> bool:
    """True iff the r=1 candidates coincide with the blow-up 0-form basis,
    psi_F = p_F (omega_F = 1 on a 0-flag)."""
    V = vertex_set(V)
    candidates = {c.flag: c.probability for c in enumerate_experiments(V, 1)}
    return candidates == {F: poisson_probability(F) for F in enumerate_flags(V, 0)}


def independence_rank(candidates: list[HigherBasisCandidate]) -> int:
    """Exact rank of the candidate probabilities over the rationals.

    Clears to the common subset-sum denominator and row-reduces the
    numerator coefficient vectors.
    """
    common: dict[frozenset, int] = {}
    for c in candidates:
        for S, e in c.probability.den.items():
            common[S] = max(common.get(S, 0), e)
    return linalg.rank([
        (c.probability.num * _den_scale(common, c.probability.den)).terms for c in candidates
    ])


def pr_containment(V, r: int) -> bool:
    """Check the polynomial-containment identity by first-round grouping.

    Candidates sharing a first-round count vector must sum to the
    homogeneous Bernstein monomial  r!/(prod r_i!) * prod lambda_i^{r_i} / l_V^r.
    Raises IdentityFailed on any mismatch.
    """
    V = vertex_set(V)
    groups: dict[tuple, RationalFn] = {}
    for c in enumerate_experiments(V, r):
        key = c.sequence.rounds[0]
        acc = groups.get(key)
        groups[key] = c.probability if acc is None else acc + c.probability
    for key, total in groups.items():
        bernstein = RationalFn(_multinomial_term(key), {frozenset(V): r})
        if not total == bernstein:
            raise IdentityFailed(f"first-round group {key} does not sum to its Bernstein monomial")
    return True


def face_vanishing_check(candidate: HigherBasisCandidate, face: Flag) -> bool:
    """Limit of the candidate's probability toward a blow-up face.

    Returns True when the check passes: the limit is identically zero
    exactly when the candidate's flag does not subdivide the face's flag.
    """
    vanishes = face_limit(candidate.probability, face).is_zero()
    return vanishes == (not candidate.flag.refines(face))
