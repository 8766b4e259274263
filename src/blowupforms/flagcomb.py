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
from dataclasses import dataclass
from itertools import combinations


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

    def refines(self, other: "Flag") -> bool:
        """True iff self subdivides other's blocks in order (trivially allowed)."""
        if self.vertices != other.vertices:
            raise ValueError("flags must share the same vertex set")
        i = 0
        for target in other.blocks:
            acc: set[int] = set()
            while acc != set(target):
                if i >= len(self.blocks) or not set(self.blocks[i]) <= set(target):
                    return False
                acc.update(self.blocks[i])
                i += 1
        return i == len(self.blocks)

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
        """Parse ``0|1|2,3`` (blocks by ``|``, vertices by ``,``)."""
        blocks = []
        for part in text.strip().split("|"):
            part = part.strip().strip("{}")
            if not part:
                raise ValueError(f"empty block in flag text {text!r}")
            if "," in part:
                blocks.append(tuple(int(t) for t in part.split(",")))
            else:
                # tolerate compact digit runs like "2" or "23"
                blocks.append(tuple(int(ch) for ch in part.replace(" ", "")))
        return Flag(blocks)

    def __repr__(self) -> str:
        return f"Flag({self})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __lt__(self, other: "Flag") -> bool:
        return (len(self.blocks), self.blocks) < (len(other.blocks), other.blocks)


def enumerate_flags(V, k: int) -> list[Flag]:
    """All flags on V with the given k, in canonical lexicographic order."""
    vs = vertex_set(V)
    n = len(vs) - 1
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for |V|={len(vs)}")

    def ordered_partitions(elems: tuple[int, ...], parts: int):
        # a first block that leaves at least parts - 1 elements, then the rest
        if parts == 1:
            yield (elems,)
            return
        for size in range(1, len(elems) - parts + 2):
            for first in combinations(elems, size):
                rest = tuple(v for v in elems if v not in first)
                for tail in ordered_partitions(rest, parts - 1):
                    yield (first,) + tail

    out = [Flag(p) for p in ordered_partitions(vs, len(vs) - k)]
    out.sort()
    return out


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
    """The column ``{X: c}`` of a flag R, carried to the flag R.relabel(sigma).

    The transport law: psi_X |-> eps(X, sigma) psi_{X.relabel(sigma)}, eps being
    ``Flag.relabel_sign``, and likewise for the DOF of X.  It carries both the
    coarsening coefficients of d(psi_R) and the DOF values of psi_R when
    eps(R, sigma) = 1, as from ``standard_representative``.  The relabelling-law
    tests of ``test_shadow.py`` and ``test_dof.py`` check it for every sigma.
    """
    return {X.relabel(sigma): X.relabel_sign(sigma) * c for X, c in column.items()}


@dataclass(frozen=True)
class ArrivalSequence:
    """Outcome record of a repeated receive-r-then-silence experiment.

    rounds: per round, a sorted tuple of (vertex id, particles received);
            counts in a round sum to r.  The sources hit in a round are
            silenced after it (``silenced``).
    r:      number of particles received per round.
    """

    r: int
    rounds: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("degree r must be positive")
        seen: set[int] = set()
        for rnd, sil in zip(self.rounds, self.silenced):
            if sum(c for _, c in rnd) != self.r:
                raise ValueError(f"round counts must sum to r={self.r}")
            if seen.intersection(sil):
                raise ValueError("a source must not be hit after the round that silenced it")
            seen.update(sil)

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
