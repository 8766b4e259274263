"""Blow-up Whitney (shadow) forms on a simplex.

Construction path: the classical Whitney form of a vertex set, its
dilation-invariant homogenization, arrival-order probabilities computed by
first-step recursion over the particles each block still needs, and the
basis forms

    psi_F = p_F * omega_F,   omega_F = wedge_j omega_{V_j}  (block order).

Every identity asserted here is an exact equality of rational forms in
R^{n+1}.  For the forms compared, that is equality on the simplex T_V.  With
E = sum_v lambda_v d/dlambda_v the Euler field:
* i_E psi_F = 0, since each phi_V is (|V| - 1)! i_E dlambda_V;
* L_E psi_F = 0, by the homogenization (coefficients of degree -k);
* so i_E d(psi_F) = L_E psi_F - d i_E psi_F = 0, and L_E d(psi_F) = 0;
  phi_W / l_V^{|W|} is basic and invariant likewise;
* a basic, invariant form is the pull-back of its restriction to the slice
  l_V = 1 along lambda -> lambda / l_V, so that restriction fixes it.
"""

from __future__ import annotations

import math
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
from .symexpr import Poly, RationalFn, RationalForm


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


def flag_omega(flag: Flag) -> RationalForm:
    """omega_F: the wedge of omega_form over the blocks, in flag order."""
    omega = RationalForm.function(RationalFn.one())
    for b in flag.blocks:
        omega = omega.wedge(omega_form(b))
    return omega


def basis_element(flag: Flag) -> RationalForm:
    """psi_F = p_F * omega_F, the shadow basis form of ``flag``."""
    return flag_omega(flag) * poisson_probability(flag)


def gram_matrix(V, k: int) -> list[dict[Flag, Fraction]]:
    """The DOF/basis pairing on V in degree k: column F is {G: dof_evaluate(G, psi_F)},
    nonzero rows only, for every flag F in canonical order; unisolvence makes it the
    identity.  Each psi_R is paired once per ``standard_representative`` R, and
    ``push_forward`` carries its column to each F = R.relabel(sigma).
    """
    flags = list(enumerate_flags(V, k))
    nonzero, columns = {}, []  # per representative R: {H: dof_evaluate(H, psi_R)}, zeros left out
    for F in flags:
        R, sigma = standard_representative(F)
        if R not in nonzero:
            nonzero[R] = orbit_pairing(R, basis_element(R), flags)
        columns.append(push_forward(nonzero[R], sigma))
    return columns


def orbit_pairing(R: Flag, form: RationalForm, rows) -> dict[Flag, Fraction]:
    """{H: dof_evaluate(H, form)} over ``rows``, zeros left out, paired once per orbit.

    ``form`` must be carried to eps(R, sigma) form by each sigma within R's blocks
    (R's stabiliser), as psi_R is.  The DOF law dof(sigma H, sigma_* w) =
    eps(H, sigma) dof(H, w) then gives dof(sigma H, form) = eps(R, sigma)
    eps(H, sigma) dof(H, form).  A row's orbit is fixed by the R-blocks of each of
    its blocks' vertices (the key).  Its first row H0 is paired; sigma maps H0's
    vertices onto H's, each listed by block, then by R-block, then ascending.
    """
    block_of = {v: j for j, b in enumerate(R.blocks) for v in b}
    first, column = {}, {}
    for H in rows:
        key = tuple(tuple(sorted(block_of[v] for v in b)) for b in H.blocks)
        listed = [v for b in H.blocks for v in sorted(b, key=block_of.__getitem__)]
        if key not in first:
            first[key] = H, listed, dof_evaluate(H, form)
        H0, listed0, x = first[key]
        if x:
            sigma = dict(zip(listed0, listed))
            column.update(push_forward({H0: R.relabel_sign(sigma) * x}, sigma))
    return column


def d_decomposition(flag: Flag) -> list[tuple[int, Flag]]:
    """Write d(psi_F) as a signed sum of psi over one-merge coarsenings, in merge order.

    The coefficients are solved for by applying the dual degrees of freedom,
    each must equal the closed-form ``Flag.merge_sign``, and then the full
    identity is verified as an exact equality of forms (see the module
    docstring).  Top-degree flags return the empty list.
    """
    if flag.k == flag.n:
        return []
    dpsi = basis_element(flag).exterior_derivative()
    out: list[tuple[int, Flag]] = []
    recon = RationalForm.zero(flag.k + 1)
    for j in range(1, len(flag.blocks)):
        Fj = flag.coarsen(j)
        c, sign = dof_evaluate(Fj, dpsi), flag.merge_sign(j)
        if c != sign:
            raise DecompositionFailed(
                f"coefficient {c} for {Fj} in d(psi_{flag}), closed-form sign {sign}")
        out.append((sign, Fj))
        recon = recon + basis_element(Fj) * sign
    if dpsi != recon:
        raise DecompositionFailed(f"d(psi_{flag}) != signed sum of coarsenings")
    return out


def whitney_containment(W, V) -> list[Flag]:
    """Flags whose psi sum reproduces the classical Whitney form phi_W on T_V.

    These are the flags with first block W followed by the singletons of
    V - W in every order.  Their sum is verified to equal phi_W / l_V^{|W|}
    exactly, which is phi_W on T_V, before returning.
    """
    W = vertex_set(W)
    V = vertex_set(V)
    if not set(W) <= set(V):
        raise ValueError("W must be a subset of V")
    others = tuple(v for v in V if v not in set(W))
    # permutations of the ascending others come in lexicographic order: flag order
    flags = [Flag((W,) + tuple((v,) for v in order)) for order in permutations(others)]
    total = RationalForm.zero(len(W) - 1)
    for F in flags:
        total = total + basis_element(F)
    if total != whitney_form(W) * RationalFn.one().over_subset_sum(V, len(W)):
        raise IdentityFailed(f"sum of psi over {len(flags)} flags != phi_{W}")
    return flags
