"""An exact outside reference for the DOF pairing, built from its definition in sympy.

For a row flag G = (V_0 | ... | V_{m-1}) the oracle pulls a form back along

    lambda_i = eps^j theta_i / sum_l eps^j(l) theta_l   for i in V_j,

with theta on the product of block simplices and each block maximum
eliminated, takes sympy's limit as eps -> 0+, and integrates over the
product of standard simplices: each block simplex with its ascending-vertex
orientation, the product in block order.  It shares nothing with ``dof``
except the flag enumeration; the forms paired come from ``shadow``.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from blowupforms.dof import dof_evaluate
from blowupforms.flagcomb import enumerate_flags, standard_representative
from blowupforms.shadow import basis_element, gram_matrix, whitney_form
from form_helpers import var_fn

sympy = pytest.importorskip("sympy")

EPS = sympy.Symbol("eps", positive=True)
THETA = sympy.symbols("theta0:4", positive=True)


def _at(form, lam) -> dict[tuple[int, ...], "sympy.Expr"]:
    """The coefficient of each ascending wedge dlambda_W at the point ``lam``."""
    out = {}
    for W, f in form.terms.items():
        num = sum(sympy.Rational(c.numerator, c.denominator)
                  * sympy.Mul(*(lam[v] ** e for v, e in m)) for m, c in f.num.terms.items())
        den = sympy.Mul(*(sum(lam[i] for i in S) ** e for S, e in f.den.items()))
        out[tuple(sorted(W))] = num / den
    return out


def _orientation(r: int) -> int:
    """Sign of the ascending frame (v_1 - v_0, ..., v_r - v_0) of an r-simplex in the
    coordinates of v_0 .. v_{r-1}: there v_i is the unit vector e_i and v_r the origin."""
    if r == 0:
        return 1
    frame = [[(a == i) - (a == 0) for a in range(r)] for i in range(1, r)]
    frame.append([-(a == 0) for a in range(r)])
    return sympy.Matrix(frame).T.det()


def oracle(flag, form) -> Fraction:
    """The DOF of ``flag`` applied to ``form``, from the definition."""
    blocks = flag.blocks
    level = {v: j for j, b in enumerate(blocks) for v in b}
    free = [v for b in blocks for v in b[:-1]]
    theta = {v: THETA[v] for v in free}
    for b in blocks:
        theta[b[-1]] = 1 - sum(THETA[v] for v in b[:-1])
    total = sum(EPS ** level[v] * t for v, t in theta.items())
    lam = {v: EPS ** level[v] * t / total for v, t in theta.items()}
    # the pull-back's coefficient of the block-ordered wedge of the free dtheta
    coeff = 0
    for W, f in _at(form, lam).items():
        jac = sympy.Matrix([[sympy.diff(lam[w], THETA[c]) for c in free] for w in W])
        coeff += f * (jac.det() if W else 1)
    value = sympy.expand(sympy.cancel(sympy.limit(coeff, EPS, 0, "+")))
    for b in blocks:
        coords = b[:-1]
        for i in range(len(coords) - 1, -1, -1):
            value = sympy.integrate(value, (THETA[coords[i]], 0, 1 - sum(
                THETA[c] for c in coords[:i])))
        value *= _orientation(len(coords))
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_gram_matrix_is_the_identity(n):
    V = tuple(range(n + 1))
    for k in range(n + 1):
        flags = enumerate_flags(V, k)
        psi = [basis_element(F).form for F in flags]
        rows = [tuple(oracle(G, form) for form in psi) for G in flags]
        assert rows == [tuple(int(i == j) for j in range(len(flags)))
                        for i in range(len(flags))]
        assert gram_matrix(V, k) == rows


def test_oracle_matches_dof_on_every_lambda_phi_pairing():
    # lambda_v phi_W is not dilation invariant, and its pairings take the
    # values 0, 1/3, 1/2 and 1, so the oracle is not tested on 0 and 1 only
    values, count = set(), 0
    for n in (1, 2):
        V = tuple(range(n + 1))
        for k in range(n + 1):
            for W in combinations(V, k + 1):
                phi = whitney_form(W)
                for v in V:
                    form = phi * var_fn(v)
                    for G in enumerate_flags(V, k):
                        want = oracle(G, form)
                        assert dof_evaluate(G, form) == want, (G, W, v)
                        values.add(want)
                        count += 1
    assert count == 121
    assert values == {0, Fraction(1, 3), Fraction(1, 2), 1}


def test_oracle_matches_dof_on_every_d_psi_pairing():
    # d(psi_F) keeps denominators that straddle the blocks of the row flag, so
    # these entries depend on where face_limit truncates each l_S
    count = 0
    for n in (1, 2):
        V = tuple(range(n + 1))
        for k in range(n):
            for F in enumerate_flags(V, k):
                d_psi = basis_element(F).form.exterior_derivative()
                for G in enumerate_flags(V, k + 1):
                    assert dof_evaluate(G, d_psi) == oracle(G, d_psi), (G, F)
                    count += 1
    assert count == 44


def test_oracle_diagonal_of_every_n3_standard_representative():
    V = (0, 1, 2, 3)
    reps = {standard_representative(F)[0] for k in range(4) for F in enumerate_flags(V, k)}
    assert len(reps) == 8  # one per block-size composition of 4
    for R in sorted(reps, key=str):
        psi = basis_element(R).form
        assert oracle(R, psi) == 1 == dof_evaluate(R, psi), R
