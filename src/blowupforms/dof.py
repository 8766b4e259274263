"""Degrees of freedom: one face limit plus exact integration.

The functional attached to a flag F works in two steps.  ``restrict_to_theta``
pulls a k-form back to the product of block simplices Theta_F = prod_j T_{V_j}
and takes the limit toward the corresponding blow-up face with
``symexpr.face_limit`` (every block infinitesimal relative to the one before
it, all steps in one pass).  The integrand is the form on Theta_F's tangent
frame e_t - e_{max B(t)}, t in T_F (the non-maximal vertices of F's blocks):
a signed sum, by ``tangent_sign``, of the terms that reach T_F, the rule the
Monte Carlo oracle uses too.  Modulo d l_B, dlambda_i = l_B dtheta_i for i in
a block B; the radial factor l_B tends to itself and is 1 on T_B, so the
limit counts its order and never multiplies it in.  ``dof_evaluate`` then
integrates that coefficient over Theta_F exactly.  Each block simplex carries
the ascending-vertex orientation with the block-maximal coordinate
eliminated, and Theta_F is the product in block order.

The integral is one closed formula, the Dirichlet integral (Eisenberg and
Malvern, IJNME 7, 1973).  Let eta_B be the reduced wedge of a block B with
n = |B| - 1: the ascending product of dtheta_i over its non-maximal vertices.
Then

    int_{T_B} prod_{i in B} theta_i^{a_i} eta_B  =  (-1)^n prod a_i! / (n + sum a_i)!,

and over Theta_F the blocks multiply; their n's sum to k.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .flagcomb import Flag, perm_sign
from .symexpr import RationalFn, RationalForm, face_limit


class NonPolynomialResidue(ArithmeticError):
    """The restricted integrand kept a denominator no block can absorb."""


def tangent_sign(flag: Flag, W) -> int:
    """The ascending dlambda_W on the ascending frame (e_t - e_{max B(t)}), t in T_F.

    T_F holds the non-maximal vertices of F's blocks; W is a k-subset.  On the
    frame, dlambda_{max B} = -sum of dlambda_i over the rest of B, and the
    dlambda_t, t in T_F, are its dual coframe.  The substitution keeps |W & B|,
    so dlambda_W reaches dlambda_{T_F} only if W misses exactly one vertex u_B
    of every block B, and is 0 otherwise.  Where u_B != max B, the one summand
    that W does not already hold is -dlambda_{u_B}, in max B's slot.  So
    dlambda_W = (-1)^s dlambda_seq = (-1)^s perm_sign(seq) dlambda_{T_F}, seq
    being sorted(W) with each such max B replaced in place by u_B and s the
    number of replacements; dlambda_{T_F} is 1 on the frame.
    """
    seq, s = sorted(W), 0
    for block in flag.blocks:
        missed = [v for v in block if v not in W]
        if len(missed) != 1:
            return 0
        if missed[0] != block[-1]:
            seq[seq.index(block[-1])] = missed[0]
            s += 1
    return (-1) ** s * perm_sign(seq)


def restrict_to_theta(form: RationalForm, flag: Flag) -> RationalFn:
    """Pull a k-form back to Theta_F and take its limit toward the face of F.

    Steps: (1) keep only the component tangential to Theta_F: the form on
    Theta_F's tangent frame is sum_W tangent_sign(F, W) f_W, one coefficient,
    since Theta_F is k-dimensional; (2) take its ``face_limit`` with radial set
    T_F: against dtheta the coefficient is f prod_{t in T_F} l_{B(t)}, and each
    l_{B(t)} tends to itself, which is 1 on Theta_F.

    Returns that coefficient of dtheta_{T_F} (zero if no term reaches T_F), in
    the lambda indices as coordinates theta_i on Theta_F, not yet restricted to
    the block simplices (see ``dof_evaluate``).  DivergentLimit propagates.
    """
    if form.degree != flag.k:
        raise ValueError(f"form degree {form.degree} != flag k {flag.k}")
    foreign = form.variables() - set(flag.vertices)
    if foreign:
        raise ValueError(f"form uses variables {sorted(foreign)} outside the flag's vertex set")
    tangent = None
    for W, f in form.terms.items():
        sign = tangent_sign(flag, W)
        if sign:
            f = f if sign > 0 else -f
            tangent = f if tangent is None else tangent + f
    if tangent is None:
        return RationalFn.zero()
    return face_limit(tangent, flag, frozenset(v for b in flag.blocks for v in b[:-1]))


def dof_evaluate(flag: Flag, form: RationalForm) -> Fraction:
    """The degree of freedom: restrict to Theta_F, then integrate exactly.

    On Theta_F each full-block sum l_{V_j} is 1, so those denominator factors
    drop; a singleton block integrates by the Dirichlet formula with n = 0, to 1.
    Any other factor raises NonPolynomialResidue.  The input class is forms with
    homogeneous coefficients, as every form the package builds has (blow-up
    basis forms, classical Whitney forms, the higher-order scalar candidates);
    a non-homogeneous coefficient can keep a factor that only pinning a
    singleton variable to 1 would cancel, and raises too.
    """
    f = restrict_to_theta(form, flag)
    blocks = flag.blocks
    full = {frozenset(b) for b in blocks}
    left = [S for S in f.den if S not in full]
    if left:
        raise NonPolynomialResidue(
            f"restriction to {flag} left denominator factors {sorted(map(sorted, left))}"
        )
    block_of = {i: j for j, b in enumerate(blocks) for i in b}
    # the blocks' (-1)^n, and the reordering of ascending T_F into block order
    sign = (-1) ** flag.k * perm_sign(tuple(v for b in blocks for v in b[:-1]))
    total = Fraction(0)
    for mono, coeff in f.num.terms.items():
        num = sign * coeff
        degree = [len(b) - 1 for b in blocks]
        for v, a in mono:
            num *= math.factorial(a)
            degree[block_of[v]] += a
        total += Fraction(num, math.prod(map(math.factorial, degree)))
    return total


def first_mismatch(flags, columns) -> tuple[int, int, object] | None:
    """The first entry ``(i, j, value)``, row-major, of a DOF/basis pairing off the
    identity, or None.  Column j is ``{G: value}`` over its nonzero rows G."""
    row = {G: i for i, G in enumerate(flags)}
    # {F: 0, **col}: a column that leaves out its own row has 0 on the diagonal
    return min(((row[G], j, x) for j, (F, col) in enumerate(zip(flags, columns))
                for G, x in {F: 0, **col}.items() if x != (1 if G == F else 0)), default=None)

