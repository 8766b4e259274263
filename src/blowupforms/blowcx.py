"""The blown-up simplex as a combinatorial cell complex.

Cells in dimension k are the flags with k-complement block count; the
coboundary is defined by transporting the symbolic exterior derivative
through the DOF isomorphism, i.e. the signs come from the verified
decomposition d(psi_F) = sum of signed psi over one-merge coarsenings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .flagcomb import Flag, enumerate_flags, vertex_set
from .shadow import d_decomposition


@dataclass(frozen=True)
class BlowupComplex:
    simplex_vertices: tuple[int, ...]
    cells: dict[int, list[Flag]]
    coboundary: dict[int, list[list[Fraction]]]

    @property
    def f_vector(self) -> tuple[int, ...]:
        n = len(self.simplex_vertices) - 1
        return tuple(len(self.cells[k]) for k in range(n + 1))


def build_blowup_complex(V) -> BlowupComplex:
    """Cells, incidence, and coboundary matrices for the blow-up of T_V.

    Verifies that the composite of consecutive coboundaries vanishes.
    """
    V = vertex_set(V)
    if len(V) > 6:
        raise ValueError("blow-up complexes are supported for |V| <= 6")
    n = len(V) - 1
    cells = {k: enumerate_flags(V, k) for k in range(n + 1)}
    coboundary: dict[int, list[list[Fraction]]] = {}
    for k in range(n):
        rows = {F: i for i, F in enumerate(cells[k + 1])}
        matrix = [[Fraction(0)] * len(cells[k]) for _ in cells[k + 1]]
        for col, F in enumerate(cells[k]):
            for sign, Fj in d_decomposition(F):
                matrix[rows[Fj]][col] += sign
        coboundary[k] = matrix
    for k in range(n - 1):
        _assert_zero_product(coboundary[k + 1], coboundary[k], k)
    return BlowupComplex(simplex_vertices=V, cells=cells, coboundary=coboundary)


def _assert_zero_product(A, B, k: int):
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            val = sum(row[m] * B[m][j] for m in range(len(B)))
            if val:
                raise ArithmeticError(f"coboundary composite nonzero at degree {k}")


def betti_numbers(cx: BlowupComplex) -> tuple[int, ...]:
    """Exact rational cohomology ranks of the cellular cochain complex."""
    n = len(cx.simplex_vertices) - 1
    ranks = [linalg.rank(cx.coboundary[k]) for k in range(n)]
    return tuple(linalg.betti(cx.f_vector, ranks))
