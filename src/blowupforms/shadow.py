"""Blow-up Whitney (shadow) forms on a simplex.

Construction path: the classical Whitney form of a vertex set, its
dilation-invariant homogenization, arrival-order probabilities computed by
first-step recursion over the particles each block still needs, and the
basis forms

    psi_F = p_F * omega_F,   omega_F = wedge_j omega_{V_j}  (block order).

All identities asserted here are exact; anything that only holds on the
simplex is compared after tangential restriction to the slice l_V = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations

from .dof import dof_evaluate
from .flagcomb import (
    Flag,
    enumerate_flags,
    push_forward,
    standard_representative,
    vertex_set,
)
from .symexpr import Poly, RationalFn, RationalForm, forms_equal_on_simplex


class DecompositionFailed(ArithmeticError):
    """The exterior derivative could not be written with unit coefficients."""


class IdentityFailed(ArithmeticError):
    """A symbolic identity that must hold exactly failed to verify."""


def whitney_form(W) -> RationalForm:
    """The Whitney form of a vertex set, normalized to unit simplex integral.

    phi_W = n! * sum_i (-1)^i lambda_{w_i} dlambda_{W - w_i}, with n = |W| - 1,
    w_0 < ... < w_n the vertices of W and each wedge taken in ascending order.
    """
    W = vertex_set(W)
    c = math.factorial(len(W) - 1)
    return RationalForm(len(W) - 1, {
        frozenset(W) - {w}: RationalFn(Poly.var(w) * (-c if i % 2 else c))
        for i, w in enumerate(W)
    })


def omega_form(W) -> RationalForm:
    """Homogenized Whitney form: phi_W / l_W^{|W|}, dilation-invariant."""
    W = vertex_set(W)
    scale = RationalFn.one().over_subset_sum(W, len(W))
    return whitney_form(W) * scale


def poisson_probability(flag: Flag) -> RationalFn:
    """Probability that the blocks complete in flag order.

    Block j completes at the |V_j|-th arrival of its merged process of rate
    l_{V_j}, an Erlang race between the blocks.  First-step analysis on
    ``left``, the particles each block still needs (Norris 1997, 1.3): the
    next particle is block j's with odds l_{V_j} / l_A, A the union of the
    blocks not yet complete, so p(left) = sum_j l_{V_j} p(left - e_j) / l_A
    and p(0, ..., 0) = 1.  Block j may take a particle while it needs two or
    more, or its last one once every earlier block is complete.
    """
    blocks = flag.blocks

    @cache
    def p(left: tuple[int, ...]) -> RationalFn:
        if not any(left):
            return RationalFn.one()
        first = next(j for j, c in enumerate(left) if c)
        total = RationalFn.zero()
        for j, c in enumerate(left):
            if c >= 2 or j == first:
                total = total + p(left[:j] + (c - 1,) + left[j + 1:]) * Poly.subset_sum(blocks[j])
        return total.over_subset_sum(v for b, c in zip(blocks, left) if c for v in b)

    return p(flag.block_sizes)


@dataclass(frozen=True)
class ShadowBasisElement:
    flag: Flag
    form: RationalForm
    probability: RationalFn
    omega: RationalForm


def flag_omega(flag: Flag) -> RationalForm:
    """omega_F: the wedge of omega_form over the blocks, in flag order."""
    omega = RationalForm.function(RationalFn.one())
    for b in flag.blocks:
        omega = omega.wedge(omega_form(b))
    return omega


def basis_element(flag: Flag) -> ShadowBasisElement:
    p = poisson_probability(flag)
    omega = flag_omega(flag)
    return ShadowBasisElement(flag=flag, form=omega * p, probability=p, omega=omega)


def shadow_basis(V, k: int) -> list[ShadowBasisElement]:
    """The psi_F basis for all flags on V with the given k, canonical order."""
    return [basis_element(F) for F in enumerate_flags(V, k)]


def gram_matrix(V, k: int, rows=None) -> list[tuple[Fraction, ...]]:
    """The DOF/basis pairing on V in degree k: entry (G, F) is dof_evaluate(G, psi_F).

    Rows are the flags in ``rows``, taken one at a time so that a budget can
    stop between them (all flags by default); columns are all flags, both in
    canonical order.  Unisolvence makes the full matrix the identity.

    The first row taken fills every column: the nonzero values
    dof_evaluate(H, psi_R) once per ``standard_representative`` R, carried by
    ``push_forward`` to each F = R.relabel(sigma).  No row taken, no pairing.
    """
    flags = enumerate_flags(V, k)
    columns, out = [], []
    for G in (flags if rows is None else rows):
        if not columns:
            nonzero = {}  # per representative R: {H: dof_evaluate(H, psi_R)}, zeros left out
            for F in flags:
                R, sigma = standard_representative(F)
                if R not in nonzero:
                    psi = basis_element(R).form
                    nonzero[R] = {H: x for H in flags if (x := dof_evaluate(H, psi))}
                columns.append(push_forward(nonzero[R], sigma))
        out.append(tuple(col.get(G, 0) for col in columns))
    return out


def d_decomposition(flag: Flag) -> list[tuple[int, Flag]]:
    """Write d(psi_F) as a signed sum of psi over one-merge coarsenings, in merge order.

    The coefficients are solved for by applying the dual degrees of freedom,
    then the full identity is verified symbolically on the simplex; each
    coefficient must be +1 or -1.  Top-degree flags return the empty list.
    """
    V = flag.vertices
    if flag.k == flag.n:
        return []
    dpsi = basis_element(flag).form.exterior_derivative()
    out: list[tuple[int, Flag]] = []
    recon = RationalForm.zero(flag.k + 1)
    for j in range(1, len(flag.blocks)):
        Fj = flag.coarsen(j)
        c = dof_evaluate(Fj, dpsi)
        if c not in (1, -1):
            raise DecompositionFailed(f"coefficient {c} for {Fj} in d(psi_{flag})")
        out.append((int(c), Fj))
        recon = recon + basis_element(Fj).form * c
    if not forms_equal_on_simplex(dpsi, recon, V):
        raise DecompositionFailed(f"d(psi_{flag}) != signed sum of coarsenings")
    return out


def whitney_containment(W, V) -> list[Flag]:
    """Flags whose psi sum reproduces the classical Whitney form phi_W on T_V.

    These are the flags with first block W followed by the singletons of
    V - W in every order; the identity is verified before returning.
    """
    W = vertex_set(W)
    V = vertex_set(V)
    if not set(W) <= set(V):
        raise ValueError("W must be a subset of V")
    others = tuple(v for v in V if v not in set(W))
    flags = [Flag((W,) + tuple((v,) for v in order)) for order in permutations(others)]
    flags.sort()
    total = RationalForm.zero(len(W) - 1)
    for F in flags:
        total = total + basis_element(F).form
    if not forms_equal_on_simplex(total, whitney_form(W), V):
        raise IdentityFailed(f"sum of psi over {len(flags)} flags != phi_{W}")
    return flags
