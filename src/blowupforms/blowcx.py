"""The blown-up simplex as a combinatorial cell complex.

Cells in dimension k are the flags with k-complement block count; the
coboundary is defined by transporting the symbolic exterior derivative
through the DOF isomorphism, i.e. the signs come from the verified
decomposition d(psi_F) = sum of signed psi over one-merge coarsenings.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .flagcomb import Flag, enumerate_flags, vertex_set
from .shadow import d_decomposition

# the largest simplex, counted in vertices, whose complex is built
MAX_VERTICES = 6


@dataclass(frozen=True)
class BlowupComplex:
    simplex_vertices: tuple[int, ...]
    cells: dict[int, list[Flag]]
    # column c of d_k, {index in cells[k + 1]: +-1}: the signed coarsenings of cells[k][c]
    coboundary: dict[int, list[dict[int, int]]]

    @property
    def f_vector(self) -> tuple[int, ...]:
        n = len(self.simplex_vertices) - 1
        return tuple(len(self.cells[k]) for k in range(n + 1))


def build_blowup_complex(V) -> BlowupComplex:
    """Cells, incidence, and coboundary columns for the blow-up of T_V.

    Verifies that the composite of consecutive coboundaries vanishes.
    """
    V = vertex_set(V)
    if len(V) > MAX_VERTICES:
        raise ValueError(f"blow-up complexes are supported for |V| <= {MAX_VERTICES}")
    n = len(V) - 1
    cells = {k: enumerate_flags(V, k) for k in range(n + 1)}
    coboundary: dict[int, list[dict[int, int]]] = {}
    for k in range(n):
        index = {F: i for i, F in enumerate(cells[k + 1])}
        coboundary[k] = [
            {index[Fj]: sign for sign, Fj in d_decomposition(F)} for F in cells[k]
        ]
    for k in range(n - 1):
        if any(linalg.combine(coboundary[k + 1], col) for col in coboundary[k]):
            raise ArithmeticError(f"coboundary composite nonzero at degree {k}")
    return BlowupComplex(simplex_vertices=V, cells=cells, coboundary=coboundary)


def betti_numbers(cx: BlowupComplex) -> tuple[int, ...]:
    """Exact rational cohomology ranks of the cellular cochain complex."""
    n = len(cx.simplex_vertices) - 1
    # the columns of d_k are the rows of its transpose, which has the same rank
    ranks = [linalg.rank(cx.coboundary[k]) for k in range(n)]
    return tuple(linalg.betti(cx.f_vector, ranks))
