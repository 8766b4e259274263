import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blowupforms.dof import (
    NonPolynomialResidue,
    dof_evaluate,
    first_mismatch,
    restrict_to_theta,
)
from blowupforms.flagcomb import (
    Flag,
    enumerate_flags,
    perm_sign,
    push_forward,
    standard_representative,
)
from blowupforms.shadow import (
    basis_element,
    gram_matrix,
    omega_form,
    orbit_pairing,
    whitney_form,
)
from blowupforms.symexpr import Poly, RationalFn, RationalForm, face_limit
from form_helpers import (
    d_lambda,
    dense_rows,
    integrate_monomial_simplex,
    reduce_mod_dlv,
    relabel_form,
    var_fn,
)


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
        psi = basis_element(F)
        assert dof_evaluate(F, psi) == 1


def test_restrict_reordered_partition_vanishes():
    F = Flag.parse("0,1|2,3")
    psi = basis_element(F)
    reordered = Flag.parse("2,3|0,1")
    restricted = restrict_to_theta(psi, reordered)
    assert restricted.is_zero()


def test_restrict_scalar_vertex_values():
    lam0 = RationalForm.function(var_fn(0))
    at_120 = restrict_to_theta(lam0, Flag.parse("1|2|0"))
    assert at_120.is_zero()
    # lambda_0 restricts to theta_0, which is 1 on Theta_F: every block is a singleton
    F = Flag.parse("0|1|2")
    assert restrict_to_theta(lam0, F).evaluate({0: 1, 1: 1, 2: 1}) == 1
    assert dof_evaluate(F, lam0) == 1


def test_nonpolynomial_residue_raised():
    F = Flag.parse("0|1,2")
    bad = RationalForm(1, {frozenset((1,)): RationalFn(Poly.const(1), {frozenset((1,)): 1})})
    with pytest.raises(NonPolynomialResidue):
        dof_evaluate(F, bad)


@pytest.mark.parametrize("num, want", [
    # homogeneous: the subset sum l_23 divides the numerator before any limit
    (Poly.var(0) * Poly.var(2) + Poly.var(0) * Poly.var(3), Fraction(1, 2)),
    # not homogeneous: l_23 divides it only once lambda_0, a singleton block, is 1
    (Poly.var(0) * Poly.var(2) + Poly.var(3), None),
])
def test_dof_input_class_is_homogeneous_coefficients(num, want):
    F = Flag.parse("0|2,3,4")
    form = RationalForm(2, {frozenset((2, 3)): RationalFn(num, {frozenset((2, 3)): 1,
                                                                 frozenset((2, 3, 4)): 2})})
    if want is None:
        with pytest.raises(NonPolynomialResidue, match=r"factors \[\[2, 3\]\]$"):
            dof_evaluate(F, form)
    else:
        assert dof_evaluate(F, form) == want


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        restrict_to_theta(d_lambda(0), Flag.parse("0|1|2"))


# -- degree of freedom evaluation ----------------------------------------------------

def test_edge_dof_of_classical_whitney_form():
    assert dof_evaluate(Flag.parse("0,1|2"), whitney_form((0, 1))) == 1


def test_dof_linearity():
    F = Flag.parse("0|1,2")
    a = basis_element(F)
    b = basis_element(Flag.parse("1|0,2"))
    lhs = dof_evaluate(F, a * Fraction(3, 7) + b * Fraction(-2, 5))
    assert lhs == Fraction(3, 7) * dof_evaluate(F, a) + Fraction(-2, 5) * dof_evaluate(F, b)


def test_fubini_top_degree():
    for W in [(0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        F = Flag([W])
        assert dof_evaluate(F, omega_form(W)) == 1


@st.composite
def monomial_forms(draw):
    """A flag of 1-4 blocks on at most 5 vertices, and a k-form on it whose terms
    are c lambda^a dlambda_W / prod_j l_{V_j}^{e_j}.  Each e_j is the degree of
    lambda^a dlambda_W on block j, so the face limit neither vanishes nor diverges."""
    m = draw(st.integers(1, 4))
    size = draw(st.integers(m, 5))
    order = draw(st.permutations(range(size)))
    cuts = sorted(draw(st.permutations(range(1, size)))[:m - 1])
    flag = Flag([sorted(order[i:j]) for i, j in zip([0] + cuts, cuts + [size])])
    terms: dict[frozenset, RationalFn] = {}
    for _ in range(draw(st.integers(1, 3))):
        W = frozenset(draw(st.lists(st.integers(0, size - 1), min_size=flag.k,
                                    max_size=flag.k, unique=True)))
        a = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        coeff = draw(st.integers(-3, 3).filter(bool))
        num = Poly({tuple((v, e) for v, e in enumerate(a) if e): coeff})
        den = {frozenset(b): sum(a[i] for i in b) + len(W & set(b)) for b in flag.blocks}
        f = RationalFn(num, {S: e for S, e in den.items() if e})
        terms[W] = terms[W] + f if W in terms else f
    return flag, RationalForm(flag.k, terms)


@settings(max_examples=80, deadline=None)
@given(monomial_forms())
# one block with k = 1: only the sign (-1)^k tells the value from its negative
@example((Flag([(0, 1)]),
          RationalForm(1, {frozenset({0}): RationalFn(Poly.const(1), {frozenset({0, 1}): 1})})))
def test_dof_integral_is_the_product_of_block_integrals(case):
    # the closed formula against the normalized-volume reference, block by
    # block: the reduced wedge of a block with n + 1 vertices is (-1)^n / n!
    # times the normalized volume form, and Theta_F is their product in block order.
    # Each l_{V_j} is 1 on Theta_F, so its factors drop; no other factor may be left
    flag, form = case
    want = Fraction(0)
    f = restrict_to_theta(form, flag)
    assert set(f.den) <= set(map(frozenset, flag.blocks))
    # the coefficient of dtheta_{T_F}, T_F ascending, against Theta_F's block order
    target = tuple(v for b in flag.blocks for v in b[:-1])
    for mono, coeff in f.num.terms.items():
        exps = dict(mono)
        value = Fraction(perm_sign(target) * coeff)
        for b in flag.blocks:
            n = len(b) - 1
            value *= (-1) ** n * integrate_monomial_simplex(
                b, {i: exps.get(i, 0) for i in b}) / math.factorial(n)
        want += value
    assert dof_evaluate(flag, form) == want


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
            psi = basis_element(F)
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
        flags, columns = list(enumerate_flags(V, k)), gram_matrix(V, k)
        assert first_mismatch(flags, columns) is None
        m = dense_rows(flags, columns)
        assert all(len(row) == len(m) for row in m)


@pytest.mark.parametrize("nv", [3, 4])
def test_gram_matrix_equals_the_per_pair_pairing(nv):
    # gram_matrix fills every column from one column per composition; the
    # reference evaluates each (G, F) pair directly
    V = tuple(range(nv))
    for k in range(nv):
        flags = list(enumerate_flags(V, k))
        psi = [basis_element(F) for F in flags]
        reference = [tuple(dof_evaluate(G, w) for w in psi) for G in flags]
        assert dense_rows(flags, gram_matrix(V, k)) == reference


@pytest.mark.parametrize("nv", [4, 5])
def test_orbit_pairing_of_psi_equals_the_per_pair_column(nv):
    # orbit_pairing pairs one row per orbit of R's stabiliser and fills the rest by
    # relabelling; the reference pairs psi_R with every row, zeros included
    V = tuple(range(nv))
    for k in range(nv):
        flags = list(enumerate_flags(V, k))
        for R in {standard_representative(F)[0] for F in flags}:
            psi = basis_element(R)
            column = orbit_pairing(R, psi, flags)
            assert {H: column.get(H, 0) for H in flags} == {
                H: dof_evaluate(H, psi) for H in flags}, R
            assert 0 not in column.values()


@pytest.mark.parametrize("nv", [3, 4])
def test_orbit_pairing_carries_values_with_both_signs(nv):
    # psi_R's only nonzero DOF is on R, which its stabiliser fixes, so psi_R alone
    # never tests the factor eps(R, sigma).  sum_sigma eps(R, sigma) sigma_*(lambda_v
    # phi_W) over the stabiliser has psi_R's symmetry and nonzero DOFs on whole
    # orbits of rows, which the carried values must match, sign for sign.  For a
    # standard R every sigma keeps each row's blocks ascending, eps(H, sigma) = 1,
    # so each R is also taken with its blocks interleaved: evens first, then odds
    V = tuple(range(nv))
    interleave = dict(zip(V, V[::2] + V[1::2]))
    carried = 0
    for k in range(nv):
        flags = list(enumerate_flags(V, k))
        reps = {standard_representative(F)[0] for F in flags}
        for R in reps | {R.relabel(interleave) for R in reps}:
            stabiliser = [{u: v for b, p in zip(R.blocks, images) for u, v in zip(b, p)}
                          for images in product(*map(permutations, R.blocks))]
            for W in combinations(V, k + 1):
                for v in V:
                    w = whitney_form(W) * var_fn(v)
                    w = sum((relabel_form(w, s) * R.relabel_sign(s) for s in stabiliser),
                            RationalForm.zero(k))
                    column = orbit_pairing(R, w, flags)
                    assert {H: column.get(H, 0) for H in flags} == {
                        H: dof_evaluate(H, w) for H in flags}, (R, v, W)
                    carried += len(column)
    assert carried


def test_gram_matrix_detects_non_identity(monkeypatch):
    # sabotaged basis (every form doubled) must trip the unisolvence check
    import blowupforms.shadow as shadow_mod

    orig = shadow_mod.basis_element

    def doubled(F):
        return orig(F) * 2

    monkeypatch.setattr(shadow_mod, "basis_element", doubled)
    assert first_mismatch(list(enumerate_flags((0, 1), 0)), gram_matrix((0, 1), 0)) == (0, 0, 2)


def test_first_mismatch_is_row_major():
    # mismatches at (row 1, column 0) and (row 0, column 1): the first in row-major
    # order is (0, 1), where a column-major scan would name (1, 0)
    F0, F1 = enumerate_flags((0, 1), 0)
    assert first_mismatch([F0, F1], [{F0: 1, F1: 3}, {F0: 5, F1: 1}]) == (0, 1, 5)
    assert first_mismatch([F0, F1], [{F0: 1}, {}]) == (1, 1, 0)
    assert first_mismatch([F0, F1], [{F0: 1}, {F1: 1}]) is None


def _multiply_then_limit(form, flag):
    """``restrict_to_theta`` with the radial factors multiplied in: each coefficient
    of the form reduced mod d l_B, times prod_{i in W} l_{B(i)} as a polynomial,
    then the limit with no radial set.  Theta_F is k-dimensional, so every such
    coefficient lies on T_F; the one on T_F is returned."""
    blocks = flag.blocks
    T_F = frozenset(v for b in blocks for v in b[:-1])
    out = {}
    for W, f in reduce_mod_dlv(form, blocks).terms.items():
        scale = Poly.const(1)
        for i in W:
            scale = scale * Poly.subset_sum(next(b for b in blocks if i in b))
        out[W] = face_limit(f * scale, flag)
    # nothing falls outside T_F
    assert out.keys() <= {T_F}, (flag, sorted(map(sorted, out)))
    return out.get(T_F, RationalFn.zero())


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_radial_order_shift_equals_multiplying_the_radial_factors(nv, monkeypatch):
    # on psi_R and lambda_v phi_W, for every flag: equal DOFs, and equal values at
    # rational points of Theta_F, where each block's theta sum to 1.  Not as
    # functions: the product can keep a factor l_B, or cancel one against the
    # denominator, and l_B is 1 on B's simplex.  Both keep the full-block
    # denominators, so a factor l_{V_j} that the product cancels counts in
    # kept_factor too: 1, 3 and 7 of the pinned counts
    import blowupforms.dof as dof_mod

    V = tuple(range(nv))
    pairs, kept_factor = 0, 0
    for k in range(nv):
        flags = list(enumerate_flags(V, k))
        forms = [basis_element(R) for R in {standard_representative(F)[0] for F in flags}]
        forms += [whitney_form(W) * var_fn(v) for W in combinations(V, k + 1) for v in V]
        for F in flags:
            points = [{v: Fraction(w(v), sum(map(w, b))) for b in F.blocks for v in b}
                      for w in (lambda v: v + 1, lambda v: 2 ** v + v * v)]
            for form in forms:
                new, old = restrict_to_theta(form, F), _multiply_then_limit(form, F)
                # Theta_F is k-dimensional: one coefficient, of dtheta_{T_F}
                assert isinstance(new, RationalFn), (F, form)
                for p in points:
                    assert new.evaluate(p) == old.evaluate(p), (F, form)
                kept_factor += new != old
                value = dof_evaluate(F, form)
                with monkeypatch.context() as m:
                    m.setattr(dof_mod, "restrict_to_theta", _multiply_then_limit)
                    assert dof_evaluate(F, form) == value, (F, form)
                pairs += 1
    assert (pairs, kept_factor) == {2: (13, 3), 3: (130, 12), 4: (1651, 47)}[nv]


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


@pytest.mark.parametrize("form, home, away", [
    (RationalForm.function(var_fn(2)), "0|1|2", "0|1"),
    (d_lambda(2), "0|1,2", "0,1"),
])
def test_foreign_variables_rejected_on_every_call(form, home, away):
    # a form finds its variables once, in a coefficient or a dlambda, but
    # every call checks them against its own flag
    dof_evaluate(Flag.parse(home), form)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"variables \[2\] outside"):
            dof_evaluate(Flag.parse(away), form)
    dof_evaluate(Flag.parse(home), form)
