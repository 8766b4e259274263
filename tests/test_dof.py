from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from blowupforms.dof import (
    NonPolynomialResidue,
    dof_evaluate,
    first_mismatch,
    integrate_monomial_simplex,
    restrict_to_theta,
)
from blowupforms.flagcomb import Flag, enumerate_flags, perm_sign, push_forward
from blowupforms.shadow import basis_element, gram_matrix, omega_form, whitney_form
from blowupforms.symexpr import Poly, RationalFn, RationalForm
from form_helpers import d_lambda, relabel_form, var_fn


# -- independent quadrature oracle -------------------------------------------------

def gauss_integral_1d(poly_in_t, order=8):
    """Integral over [0,1] via Gauss-Legendre nodes."""
    x, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (x + 1.0)
    return float(np.sum(w * 0.5 * poly_in_t(t)))


def gauss_integral_triangle(f, order=12):
    """Integral over the corner triangle {u,v>=0, u+v<=1} by iterated Gauss."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    total = 0.0
    for ui, wi in zip(u, w):
        span = 1.0 - ui
        v = 0.5 * span * (x + 1.0)
        total += 0.5 * wi * np.sum(w * 0.5 * span * f(ui, v))
    return float(total)


def test_monomial_integral_constant_is_one():
    for W in [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        assert integrate_monomial_simplex(W, {}) == 1


def test_monomial_integral_formula_vs_quadrature_1d():
    # normalized length measure on the edge is dt over [0,1]
    exact = integrate_monomial_simplex((0, 1), {0: 1, 1: 1})
    assert exact == Fraction(1, 6)
    quad = gauss_integral_1d(lambda t: t * (1.0 - t))
    assert abs(float(exact) - quad) < 1e-12


def test_monomial_integral_formula_vs_quadrature_2d():
    exact = integrate_monomial_simplex((0, 1, 2), {0: 1})
    assert exact == Fraction(1, 3)
    # normalized measure on the triangle is 2 du dv over the corner triangle
    quad = gauss_integral_triangle(lambda u, v: 2.0 * u)
    assert abs(float(exact) - quad) < 1e-12
    exact2 = integrate_monomial_simplex((0, 1, 2), {0: 2, 1: 1})
    quad2 = gauss_integral_triangle(lambda u, v: 2.0 * u ** 2 * v)
    assert abs(float(exact2) - quad2) < 1e-12


def test_monomial_integral_validates_support():
    with pytest.raises(ValueError):
        integrate_monomial_simplex((0, 1), {2: 1})


# -- restriction to the product face ------------------------------------------------

def test_restrict_own_face_gives_normalized_volume_form():
    # psi_F restricted over Theta_F integrates to one, so restricting and
    # integrating the pieces reproduces the product volume form exactly
    for text in ("0,1|2", "0|1,2", "0,1|2,3", "0|1,2,3", "0,1,2"):
        F = Flag.parse(text)
        psi = basis_element(F).form
        assert dof_evaluate(F, psi) == 1


def test_restrict_reordered_partition_vanishes():
    F = Flag.parse("0,1|2,3")
    psi = basis_element(F).form
    reordered = Flag.parse("2,3|0,1")
    restricted = restrict_to_theta(psi, reordered)
    assert restricted.is_zero()


def test_restrict_scalar_vertex_values():
    lam0 = RationalForm.function(var_fn(0))
    at_120 = restrict_to_theta(lam0, Flag.parse("1|2|0"))
    assert at_120.is_zero()
    at_012 = restrict_to_theta(lam0, Flag.parse("0|1|2"))
    assert at_012.coefficient(()) == RationalFn.one()


def test_nonpolynomial_residue_raised():
    F = Flag.parse("0|1,2")
    bad = RationalForm(1, {frozenset((1,)): RationalFn(Poly.const(1), {frozenset((1,)): 1})})
    with pytest.raises(NonPolynomialResidue):
        dof_evaluate(F, bad)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        restrict_to_theta(d_lambda(0), Flag.parse("0|1|2"))


# -- degree of freedom evaluation ----------------------------------------------------

def test_edge_dof_of_classical_whitney_form():
    assert dof_evaluate(Flag.parse("0,1|2"), whitney_form((0, 1))) == 1


def test_dof_linearity():
    F = Flag.parse("0|1,2")
    a = basis_element(F).form
    b = basis_element(Flag.parse("1|0,2")).form
    lhs = dof_evaluate(F, a * Fraction(3, 7) + b * Fraction(-2, 5))
    assert lhs == Fraction(3, 7) * dof_evaluate(F, a) + Fraction(-2, 5) * dof_evaluate(F, b)


def test_fubini_top_degree():
    for W in [(0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        F = Flag([W])
        assert dof_evaluate(F, omega_form(W)) == 1


def _block_orientation_sign(flag, perm):
    # parity of the relabeling on each block under the ascending-order gauge
    sign = 1
    for b in flag.blocks:
        seq = [perm[v] for v in b]
        inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                  if seq[i] > seq[j])
        sign *= -1 if inv % 2 else 1
    return sign


@pytest.mark.parametrize("perm", [{0: 1, 1: 2, 2: 0}, {0: 2, 1: 1, 2: 0}, {0: 0, 1: 2, 2: 1}])
def test_permutation_equivariance_n2(perm):
    # relabeling probes equal values up to the per-block ascending-orientation
    # parity gauge; for block-order-preserving relabelings this is plain equality
    for k in range(3):
        for F in enumerate_flags((0, 1, 2), k):
            psi = basis_element(F).form
            for probe in enumerate_flags((0, 1, 2), k):
                lhs = dof_evaluate(probe.relabel(perm), relabel_form(psi, perm))
                rhs = dof_evaluate(probe, psi)
                assert lhs == _block_orientation_sign(probe, perm) * rhs


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_dof_evaluate_relabelling_law(nv):
    # dof_evaluate(F.relabel(sigma), relabel_form(w, sigma)) = eps(F, sigma) dof_evaluate(F, w)
    # for every sigma in S_{n+1}, eps the parity of sigma on each block of F.  The forms
    # lambda_v phi_W pair to 1/2, 1/3 and 1/4 as well as 0 and 1, and sigma carries each
    # to +-lambda_{sigma(v)} phi_{sigma(W)}, so every value is computed once and the law
    # is checked by lookup.
    V = range(nv)
    values = set()
    for k in range(nv):
        flags = list(enumerate_flags(V, k))
        forms = {(v, W): whitney_form(W) * var_fn(v)
                 for W in combinations(V, k + 1) for v in V}
        known = {(F, key): dof_evaluate(F, w) for F in flags for key, w in forms.items()}
        values |= set(known.values())
        for sigma in map(dict, map(enumerate, permutations(V))):
            for (v, W), w in forms.items():
                image = (sigma[v], tuple(sorted(sigma[u] for u in W)))
                sign = perm_sign(sigma[u] for u in W)
                assert relabel_form(w, sigma) == forms[image] * sign
                for F in flags:
                    assert sign * known[F.relabel(sigma), image] == (
                        _block_orientation_sign(F, sigma) * known[F, (v, W)]), (F, v, W, sigma)
                # push_forward carries the DOF column of w to that of its relabelled image
                assert push_forward({F: known[F, (v, W)] for F in flags}, sigma) == {
                    G: sign * known[G, image] for G in flags}, (v, W, sigma)
    assert values - {0, 1, -1}


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_gram_matrix_identity(nv):
    V = tuple(range(nv))
    for k in range(nv):
        m = gram_matrix(V, k)
        assert first_mismatch(m) is None
        assert all(len(row) == len(m) for row in m)


@pytest.mark.parametrize("nv", [3, 4])
def test_gram_matrix_equals_the_per_pair_pairing(nv):
    # gram_matrix fills every column from one column per composition at the first
    # row taken; the reference evaluates each (G, F) pair directly, for every row
    # set given: all rows, reversed, a strict subset, and the last row alone
    V = tuple(range(nv))
    for k in range(nv):
        flags = enumerate_flags(V, k)
        psi = [basis_element(F).form for F in flags]
        reference = [tuple(dof_evaluate(G, w) for w in psi) for G in flags]
        assert gram_matrix(V, k) == reference
        assert gram_matrix(V, k, reversed(flags)) == reference[::-1]
        assert gram_matrix(V, k, flags[1::3]) == reference[1::3]
        assert gram_matrix(V, k, flags[-1:]) == reference[-1:]


def test_gram_matrix_detects_non_identity(monkeypatch):
    # sabotaged basis (every form doubled) must trip the unisolvence check
    import dataclasses

    import blowupforms.shadow as shadow_mod

    orig = shadow_mod.basis_element

    def doubled(F):
        e = orig(F)
        return dataclasses.replace(e, form=e.form * 2)

    monkeypatch.setattr(shadow_mod, "basis_element", doubled)
    assert first_mismatch(gram_matrix((0, 1), 0)) == (0, 0, 2)


def test_divergent_limit_propagates():
    from blowupforms.symexpr import DivergentLimit

    # 1/lambda_1 blows up toward the face where block {1} degenerates
    singular = RationalForm.function(
        RationalFn(Poly.const(1), {frozenset((1,)): 1})
    )
    with pytest.raises(DivergentLimit):
        restrict_to_theta(singular, Flag.parse("0|1"))


def test_foreign_variables_rejected():
    with pytest.raises(ValueError):
        restrict_to_theta(RationalForm.function(var_fn(7)), Flag.parse("0|1"))
