"""The blown-up simplex as a combinatorial cell complex.

Cells in dimension k are the flags with k-complement block count.  The
coboundary is combinatorial: the column of F holds the one-merge coarsenings
F.coarsen(j), each signed by ``Flag.merge_sign``.  ``decompose`` proves that
column is d(psi_F), transported through the DOF isomorphism, once per block-size
composition, and checks d(d psi_F) = 0 on the columns, for this complex and for
``d-check``.
"""

from __future__ import annotations

from . import linalg
from .flagcomb import Flag, enumerate_flags, standard_representative, vertex_set
from .shadow import DecompositionFailed, d_decomposition

# the largest simplex, counted in vertices, whose complex is built
MAX_VERTICES = 6


class BlowupComplex:
    __slots__ = ("cells", "coboundary")

    def __init__(self, cells: dict[int, list[Flag]], coboundary: dict[int, list[dict[int, int]]]):
        self.cells = cells
        # column c of d_k, {index in cells[k + 1]: +-1}: the signed coarsenings of cells[k][c]
        self.coboundary = coboundary

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.cells[k]) for k in range(len(self.cells)))


def decompose(flags) -> tuple[list[Flag], dict[Flag, dict[Flag, int]], dict[Flag, str]]:
    """Write d(psi_F) for each flag as {F_j: merge_sign(j)}, then check d(d psi_F) = 0.

    ``shadow.d_decomposition``, with its full symbolic verification, proves the
    column once per orbit: on the ``standard_representative`` R of the first flag
    taken with R's block sizes.  Each F = R.relabel(sigma) of that orbit then has
    the column ``{F.coarsen(j): F.merge_sign(j)}``: it is R's proved column carried
    by sigma, by the relabelling law of ``Flag.merge_sign`` with eps(R, sigma) = 1.

    Returns the flags taken, ``{F: {F_j: c_j}}`` for each flag whose orbit was
    proved, and ``{F: reason}`` in flag order for each flag whose representative's
    ``d_decomposition`` raised (the reason names R for the rest of the orbit),
    or whose coarsenings all decomposed and d(d psi_F) = sum_j c_j d(psi_{F_j})
    is not zero: the psi of a degree are independent, so that is exact.
    """
    taken, columns, errors = [], {}, {}
    failed = {}  # per representative proved: the reason it failed, or None
    for F in flags:  # one at a time, so a budget is checked before each flag
        taken.append(F)
        R, _ = standard_representative(F)
        if R not in failed:
            try:
                d_decomposition(R)
                failed[R] = None
            except ArithmeticError as exc:  # DecompositionFailed and friends
                failed[R] = str(exc)
        if failed[R] is not None:
            errors[F] = failed[R] if F == R else f"transported from {R}: {failed[R]}"
            continue
        columns[F] = {F.coarsen(j): F.merge_sign(j) for j in range(1, len(F.blocks))}
    for F, col in columns.items():
        residual = linalg.combine(columns, col) if all(Fj in columns for Fj in col) else {}
        if residual:
            errors[F] = "dd != 0: " + ", ".join(f"{c} psi_{G}" for G, c in sorted(residual.items()))
    return taken, columns, {F: errors[F] for F in taken if F in errors}


def build_blowup_complex(V) -> BlowupComplex:
    """Cells, incidence, and coboundary columns for the blow-up of T_V.

    Raises ``DecompositionFailed`` on the first flag that ``decompose`` fails.
    """
    V = vertex_set(V)
    if len(V) > MAX_VERTICES:
        raise ValueError(f"blow-up complexes are supported for |V| <= {MAX_VERTICES}")
    n = len(V) - 1
    cells = {k: list(enumerate_flags(V, k)) for k in range(n + 1)}
    _, columns, failures = decompose(F for k in range(n) for F in cells[k])
    for F, reason in failures.items():
        raise DecompositionFailed(f"d(psi_{F}): {reason}")
    index = {F: i for flags in cells.values() for i, F in enumerate(flags)}
    coboundary = {k: [{index[Fj]: sign for Fj, sign in columns[F].items()} for F in cells[k]]
                  for k in range(n)}
    return BlowupComplex(cells=cells, coboundary=coboundary)


def betti_numbers(cx: BlowupComplex) -> tuple[int, ...]:
    """Exact rational cohomology ranks of the cellular cochain complex."""
    n = len(cx.cells) - 1
    # the columns of d_k are the rows of its transpose, which has the same rank
    ranks = [linalg.rank(cx.coboundary[k]) for k in range(n)]
    return tuple(linalg.betti(cx.f_vector, ranks))
