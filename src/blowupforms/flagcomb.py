"""Ordered set partitions (flags) of simplex vertex sets.

A flag on a vertex set ``V`` is an ordered partition ``(V_0, ..., V_{n-k})``
of ``V`` into nonempty blocks, where ``n = |V| - 1`` and ``k`` is the
complement of the block count.  Flags index basis forms, degrees of freedom,
and faces of the blown-up simplex, so they are immutable and hashable.

Vertex ids are global non-negative integers; every block is kept internally
sorted and the block order is significant.  The canonical enumeration order
is lexicographic on the tuple of blocks, which fixes all matrix/report
layouts byte-for-byte.
"""

from __future__ import annotations

import math
from itertools import accumulate


def vertex_set(ids) -> tuple[int, ...]:
    """Canonicalize a collection of vertex ids to a sorted distinct tuple."""
    vs = tuple(sorted(ids))
    if not vs:
        raise ValueError("vertex set must be nonempty")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
    if len(set(vs)) != len(vs):
        raise ValueError(f"vertex ids must be distinct, got {ids!r}")
    return vs


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` ascending; 0 on a repeated entry.

    Every orientation sign in the package follows from this convention.
    """
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


class Flag:
    """An ordered partition of a vertex set into nonempty blocks.

    Immutable value type: equality, hashing, and ordering are structural.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        bs = tuple(tuple(sorted(b)) for b in blocks)
        if not bs or not all(bs):
            raise ValueError(f"flag needs one or more blocks, none empty, got {blocks!r}")
        vertex_set([v for b in bs for v in b])  # valid ids, disjoint blocks
        object.__setattr__(self, "blocks", bs)

    def __setattr__(self, name, value):
        raise AttributeError("Flag is immutable")

    # -- derived data ------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for b in self.blocks for v in b))

    @property
    def n(self) -> int:
        return len(self.vertices) - 1

    @property
    def k(self) -> int:
        """Complement of the block count: k = |V| - (number of blocks)."""
        return len(self.vertices) - len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    # -- operations --------------------------------------------------------

    def coarsen(self, j: int) -> "Flag":
        """Merge blocks V_{j-1} and V_j; valid for 1 <= j <= (block count)-1."""
        if not 1 <= j <= len(self.blocks) - 1:
            raise ValueError(f"merge index {j} out of range for {self}")
        merged = tuple(sorted(self.blocks[j - 1] + self.blocks[j]))
        return Flag(self.blocks[: j - 1] + (merged,) + self.blocks[j + 1:])

    def merge_sign(self, j: int) -> int:
        """The coefficient of psi_{coarsen(j)} in d(psi_F), with A = V_{j-1} and B = V_j:

            perm_sign(A + B) * (-1)^(sum_{i<j-1} (|V_i| - 1) + |A|).

        Every omega_V is closed (d phi_V = |V|! dlambda_V, dl_V ^ phi_V = (|V| - 1)!
        l_V dlambda_V), so d(psi_F) = dp_F ^ omega_F.  The sign is the merge lemma's,
        with m = (|A| + |B| - 1)! / ((|A| - 1)! (|B| - 1)!) and r = l_A^|A| l_B^|B| /
        l_{A u B}^(|A| + |B|):

            omega_{A u B} = perm_sign(A + B) (-1)^|A| m r (dl_A/l_A - dl_B/l_B) ^ omega_A ^ omega_B,

        times the Leibniz sign of moving that 1-form ahead of omega_{V_0} ^ ... ^
        omega_{V_{j-2}} (omega_{V_i} has degree |V_i| - 1).  So psi_{coarsen(j)} is this
        sign times m r p_{coarsen(j)} (dl_A/l_A - dl_B/l_B) ^ omega_F.  Two steps
        are verified, not derived: the lemma, exactly on every ordered split of up to
        5 vertices in the tests; and that dp_F ^ omega_F is the sum of these terms
        with unit coefficients, which ``shadow.d_decomposition`` proves exactly, and
        ``d-check`` once per block-size composition.

        By Stokes and unisolvence, dof_{F_j}(d psi_F) = sum_G [F_j : G] dof_G(psi_F)
        = [F_j : F], the incidence number of the cell Theta_F in the boundary of
        Theta_{F_j} in the blow-up, under the DOF orientations.  The tests derive it
        from the cells alone (exact chart determinants, no form) and find this sign
        on every (flag, j) on 2-6 vertices.  That derives the second step's unit
        coefficients; only that d(psi_F) lies in the span of the coarsenings' psi
        stays verified, not derived.

        Relabelling law, for sigma injective and eps = ``relabel_sign``:

            F.relabel(sigma).merge_sign(j) = eps(F, sigma) eps(F.coarsen(j), sigma) F.merge_sign(j).

        The block sizes, so the power of -1, do not change.  With sgn_X the parity
        of sigma on X, sorting sigma(A) + sigma(B) costs perm_sign(A + B) sgn_{A u B},
        or sgn_A sgn_B to sort within the blocks and then the new perm_sign; the
        other blocks' parities cancel in the eps product.  ``blowcx`` relies on it:
        each flag's column is its representative's proved column, relabelled.
        """
        A, B = self.blocks[j - 1], self.blocks[j]
        ahead = sum(len(b) - 1 for b in self.blocks[:j - 1])
        return perm_sign(A + B) * (-1) ** (ahead + len(A))

    def refines(self, other: "Flag") -> bool:
        """True iff self subdivides other's blocks in order (trivially allowed):
        every union of a leading run of other's blocks is one of self's."""
        if self.vertices != other.vertices:
            raise ValueError("flags must share the same vertex set")
        mine = set(accumulate(map(frozenset, self.blocks), frozenset.union))
        return set(accumulate(map(frozenset, other.blocks), frozenset.union)) <= mine

    def relabel(self, mapping) -> "Flag":
        """The flag with each vertex v replaced by ``mapping[v]``, blocks re-sorted.

        ``mapping`` is a dict or a sequence indexed by vertex id, injective on
        the vertex set: a permutation, or a cell's vertex tuple carrying the
        flags of {0..n} onto that cell.  A non-injective map raises ValueError.
        """
        return Flag(tuple(tuple(mapping[v] for v in b) for b in self.blocks))

    def relabel_sign(self, mapping) -> int:
        """eps(F, sigma): the parity of ``mapping`` on each block, multiplied over blocks.

        Blocks are kept ascending, so relabelling carries psi_F to
        ``eps * psi_{F.relabel(mapping)}``; the DOF pairing and d follow suit.
        """
        return math.prod(perm_sign(mapping[v] for v in b) for b in self.blocks)

    # -- text forms ---------------------------------------------------------

    def __str__(self) -> str:
        return "|".join(",".join(str(v) for v in b) for b in self.blocks)

    def compact(self) -> str:
        """Short display like ``01{23}`` when every id is a single digit."""
        if any(v > 9 for v in self.vertices):
            return str(self)
        out = []
        for b in self.blocks:
            s = "".join(str(v) for v in b)
            out.append(s if len(b) == 1 else "{" + s + "}")
        return "".join(out)

    @staticmethod
    def parse(text: str) -> "Flag":
        """Parse ``0|1|2,3`` (blocks by ``|``, vertex ids by ``,``), the inverse of ``str``."""
        blocks = []
        for part in text.strip().split("|"):
            if not part.strip():
                raise ValueError(f"empty block in flag text {text!r}")
            blocks.append(tuple(int(t) for t in part.split(",")))
        return Flag(blocks)

    def __repr__(self) -> str:
        return f"Flag({self})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __lt__(self, other: "Flag") -> bool:
        return (len(self.blocks), self.blocks) < (len(other.blocks), other.blocks)


def enumerate_flags(V, k: int):
    """All flags on V with the given k, lazily, in canonical lexicographic order.

    Nothing is sorted: the first block runs over the subsets in tuple order, by
    a depth-first walk that extends a prefix before it moves on to the next
    element, and the blocks after it recurse on the (sorted) vertices left.  A
    caller that indexes the flags, or walks them twice, takes ``list(...)``.
    """
    vs = vertex_set(V)
    n = len(vs) - 1
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for |V|={len(vs)}")

    def subsets(elems: tuple[int, ...], most: int):
        # nonempty subsets of at most `most` elements, in tuple order
        for i, v in enumerate(elems):
            yield (v,)
            if most > 1:
                for tail in subsets(elems[i + 1:], most - 1):
                    yield (v,) + tail

    def ordered_partitions(elems: tuple[int, ...], parts: int):
        # a first block that leaves at least parts - 1 elements, then the rest
        if parts == 1:
            yield (elems,)
            return
        for first in subsets(elems, len(elems) - parts + 1):
            rest = tuple(v for v in elems if v not in first)
            for tail in ordered_partitions(rest, parts - 1):
                yield (first,) + tail

    return (Flag(p) for p in ordered_partitions(vs, len(vs) - k))


def standard_representative(flag: Flag) -> tuple[Flag, dict[int, int]]:
    """The standard flag R of F's orbit under relabelling, and sigma with R.relabel(sigma) == F.

    R has F's block sizes, and its blocks are the consecutive runs of F's sorted
    vertex set.  sigma maps each block of R onto the same-place block of F in
    ascending order, so ``R.relabel_sign(sigma) == 1``.  Flags with the same
    block sizes on one vertex set share R: one per composition of |V|.
    """
    V = flag.vertices
    blocks, sigma, start = [], {}, 0
    for b in flag.blocks:
        run = V[start:start + len(b)]
        blocks.append(run)
        sigma.update(zip(run, b))
        start += len(b)
    return Flag(blocks), sigma


def push_forward(column: dict, sigma) -> dict:
    """DOF values ``{X: dof(X, w)}`` carried by sigma: ``{X.relabel(sigma): eps(X, sigma) c}``.

    eps is ``Flag.relabel_sign``.  The DOF law dof(sigma X, sigma_* w) =
    eps(X, sigma) dof(X, w) makes this the DOF column of sigma_* w; for w = psi_R
    and eps(R, sigma) = 1, as from ``standard_representative``, that is the column
    of psi_{R.relabel(sigma)}.  The relabelling-law tests of ``test_shadow.py``
    and ``test_dof.py`` check it for every sigma.
    """
    return {X.relabel(sigma): X.relabel_sign(sigma) * c for X, c in column.items()}


class ArrivalSequence:
    """Outcome record of a repeated receive-r-then-silence experiment.

    rounds: per round, a sorted tuple of (vertex id, particles received);
            counts in a round sum to r.  The sources hit in a round are
            silenced after it (``silenced``).
    r:      number of particles received per round.
    """

    __slots__ = ("r", "rounds")

    def __init__(self, r: int, rounds: tuple[tuple[tuple[int, int], ...], ...]):
        self.r = r
        self.rounds = rounds
        if r < 1:
            raise ValueError("degree r must be positive")
        seen: set[int] = set()
        for rnd, sil in zip(rounds, self.silenced):
            if sum(c for _, c in rnd) != r:
                raise ValueError(f"round counts must sum to r={r}")
            if seen.intersection(sil):
                raise ValueError("a source must not be hit after the round that silenced it")
            seen.update(sil)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArrivalSequence):
            return NotImplemented
        return (self.r, self.rounds) == (other.r, other.rounds)

    def __hash__(self) -> int:
        return hash((self.r, self.rounds))

    @property
    def silenced(self) -> tuple[tuple[int, ...], ...]:
        """Per round, the ascending sources with count >= 1, silenced afterwards."""
        return tuple(tuple(sorted(v for v, c in rnd if c >= 1)) for rnd in self.rounds)

    @property
    def flag(self) -> Flag:
        """The flag recording the silencing order."""
        return Flag(self.silenced)

    def compact(self) -> str:
        """Digit-string display like ``001|222`` (single-digit ids only)."""
        parts = []
        for rnd in self.rounds:
            parts.append("".join(str(v) * c for v, c in rnd))
        return "|".join(parts)
