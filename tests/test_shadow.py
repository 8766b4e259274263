import itertools
import math
from fractions import Fraction

import pytest

from blowupforms.flagcomb import Flag, enumerate_flags, perm_sign, standard_representative
from blowupforms.shadow import (
    basis_element,
    d_decomposition,
    omega_form,
    poisson_probability,
    shadow_basis,
    whitney_containment,
    whitney_form,
)
from blowupforms.symexpr import (
    Poly,
    RationalFn,
    RationalForm,
    face_limit,
    forms_equal_on_simplex,
)
from form_helpers import (
    contract_tautological,
    d_lambda,
    is_homogeneous,
    relabel_fn,
    relabel_form,
    var_fn,
    word_sum_probability,
)


def l(*ids):
    return frozenset(ids)


def v(i):
    return Poly.var(i)


def test_n3_basis_coefficients_are_ints():
    """p_F, psi_F and d(psi_F) are integer polynomials over subset sums, so a
    Fraction among their stored coefficients means a stray conversion."""
    for k in range(4):
        for F in enumerate_flags((0, 1, 2, 3), k):
            psi = basis_element(F).form
            fns = [poisson_probability(F), *psi.terms.values(),
                   *psi.exterior_derivative().terms.values()]
            for f in fns:
                assert all(type(c) is int for c in f.num.terms.values()), (str(F), f)


# -- Whitney forms ----------------------------------------------------------------

def test_whitney_form_vertex():
    assert whitney_form((0,)) == RationalForm.function(var_fn(0))


def test_whitney_form_edge():
    phi = whitney_form((1, 2))
    assert phi.coefficient((2,)) == var_fn(1)
    assert phi.coefficient((1,)) == -var_fn(2)


def test_whitney_form_triangle_hand_expansion():
    phi = whitney_form((0, 1, 2))
    assert phi.coefficient((1, 2)) == RationalFn(v(0) * 2)
    assert phi.coefficient((0, 2)) == RationalFn(v(1) * -2)
    assert phi.coefficient((0, 1)) == RationalFn(v(2) * 2)


def test_whitney_form_is_n_factorial_times_the_contraction():
    # the reference: phi_W = n! * i_X(dlambda_W), X the tautological field on W
    for size in range(1, 7):
        for W in itertools.combinations(range(6), size):
            top = RationalForm(size, {frozenset(W): RationalFn.one()})
            want = contract_tautological(top, W) * math.factorial(size - 1)
            got = whitney_form(W)
            assert got.degree == want.degree and got == want, W


def test_omega_examples():
    assert omega_form((0,)) == RationalForm.function(RationalFn.one())
    om = omega_form((1, 2))
    assert om.coefficient((2,)) == RationalFn(v(1), {l(1, 2): 2})
    om3 = omega_form((0, 1, 2))
    assert om3.coefficient((1, 2)) == RationalFn(v(0) * 2, {l(0, 1, 2): 3})


# -- arrival-order probabilities -----------------------------------------------------

def test_probability_single_block_is_one():
    assert poisson_probability(Flag.parse("0,1,2")) == RationalFn.one()


def test_probability_01_23_worked_example():
    p = poisson_probability(Flag.parse("0|1|2,3"))
    base = RationalFn(v(0) * v(1) * Poly.subset_sum((2, 3)),
                      {l(0, 1, 2, 3): 1, l(1, 2, 3): 1})
    expected = (base.over_subset_sum((0, 1, 2, 3))
                + base.over_subset_sum((1, 2, 3))
                + base.over_subset_sum((2, 3)))
    assert p == expected


def test_probability_0101_23_worked_example():
    p = poisson_probability(Flag.parse("0,1|2,3"))
    base = RationalFn(Poly.subset_sum((0, 1)) ** 2 * Poly.subset_sum((2, 3)),
                      {l(0, 1, 2, 3): 2})
    expected = base.over_subset_sum((0, 1, 2, 3)) * 2 + base.over_subset_sum((2, 3))
    assert p == expected


def test_probability_0_123_worked_example():
    p = poisson_probability(Flag.parse("0|1,2,3"))
    base = RationalFn(v(0) * Poly.subset_sum((1, 2, 3)) ** 2, {l(0, 1, 2, 3): 1})
    expected = (base.over_subset_sum((0, 1, 2, 3), 2)
                + base.over_subset_sum((0, 1, 2, 3)).over_subset_sum((1, 2, 3))
                + base.over_subset_sum((1, 2, 3), 2))
    assert p == expected


def test_probability_homogeneous_degree_zero_and_barycenter_in_unit_interval():
    for nv in (2, 3, 4):
        V = tuple(range(nv))
        point = {i: Fraction(1, nv) for i in V}
        for k in range(nv):
            for F in enumerate_flags(V, k):
                p = poisson_probability(F)
                assert is_homogeneous(p, 0)
                val = p.evaluate(point)
                assert 0 < val <= 1


def _set_partitions(nv):
    """Every set partition of {0..nv-1}, as its blocks in ascending order."""
    V = tuple(range(nv))
    return sorted({tuple(sorted(F.blocks)) for k in range(nv) for F in enumerate_flags(V, k)})


@pytest.mark.parametrize("partition", _set_partitions(4) + _set_partitions(5),
                         ids=lambda blocks: str(Flag(blocks)))
def test_orderings_of_one_partition_sum_to_one(partition):
    """Exactly one block order of a partition is the completion order."""
    total = RationalFn.zero()
    for order in itertools.permutations(partition):
        total = total + poisson_probability(Flag(order))
    assert total == RationalFn.one()


@pytest.mark.parametrize("nv", range(1, 7))
def test_probability_equals_the_sum_over_arrival_words(nv):
    """The first-step recursion against the sum over admissible particle words,
    on every flag of up to 4 vertices and every standard representative above."""
    V = tuple(range(nv))
    flags = [F for k in range(nv) for F in enumerate_flags(V, k)]
    if nv > 4:
        flags = sorted({standard_representative(F)[0] for F in flags})
    for F in flags:
        got, want = poisson_probability(F), word_sum_probability(F)
        assert (got.num.terms, got.den) == (want.num.terms, want.den), F


def test_equal_rate_full_flag_probability_is_one_over_factorial():
    p = poisson_probability(Flag.parse("0|1|2"))
    assert p.evaluate({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}) == Fraction(1, 6)


# -- the reference tables -------------------------------------------------------------

from reference_tables import table_n2, table_n3  # noqa: E402


@pytest.mark.parametrize("table,V", [(table_n2, (0, 1, 2)), (table_n3, (0, 1, 2, 3))])
def test_table_entries_exact(table, V):
    for text, expected in table().items():
        got = basis_element(Flag.parse(text)).form
        assert got == expected, f"psi for flag {text} does not match its table entry"


def test_basis_elements_are_probability_times_omega():
    for elem in shadow_basis((0, 1, 2, 3), 1):
        assert elem.form == elem.omega * elem.probability
        assert elem.form.degree == elem.flag.k


def test_psi_coefficients_homogeneous_of_degree_minus_k():
    for k in range(3):
        for elem in shadow_basis((0, 1, 2), k):
            for f in elem.form.terms.values():
                assert is_homogeneous(f, -k)


# -- exterior derivative decomposition --------------------------------------------

def test_d_decomposition_top_degree_empty():
    assert d_decomposition(Flag.parse("0,1,2")) == []


def test_d_decomposition_012_structure():
    dec = d_decomposition(Flag.parse("0|1|2"))
    assert {str(F) for _, F in dec} == {"0,1|2", "0|1,2"}
    assert all(s in (1, -1) for s, _ in dec)


def test_d_of_affine_identity():
    # psi_012 + psi_021 = lambda_0, so the d's agree with d(lambda_0)
    s = basis_element(Flag.parse("0|1|2")).form + basis_element(Flag.parse("0|2|1")).form
    assert forms_equal_on_simplex(
        s, RationalForm.function(var_fn(0)), (0, 1, 2)
    )
    ds = s.exterior_derivative()
    assert forms_equal_on_simplex(ds, d_lambda(0), (0, 1, 2))


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_d_decomposition_all_flags(nv):
    V = tuple(range(nv))
    for k in range(nv):
        for F in enumerate_flags(V, k):
            for sign, Fj in d_decomposition(F):
                assert sign in (1, -1)
                assert F.refines(Fj)


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_dd_zero_symbolically(nv):
    V = tuple(range(nv))
    for k in range(nv):
        for F in enumerate_flags(V, k):
            dd = basis_element(F).form.exterior_derivative().exterior_derivative()
            assert dd.is_zero()


# -- relabelling ---------------------------------------------------------------------

def _epsilon(F, sigma):
    """The orientation sign of sigma on F: perm_sign of sigma's image of each block."""
    return math.prod(perm_sign(sigma[v] for v in b) for b in F.blocks)


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_relabelling_laws(nv):
    # p_F is transported without sign; psi_F and the d coefficients carry the
    # parity of sigma on each block, the ascending-order gauge of a block.
    # Every sigma in S_{n+1} permutes the flags on {0..n}, so each value is
    # computed once per flag and the laws are checked by lookup.
    flags = [F for k in range(nv) for F in enumerate_flags(range(nv), k)]
    known = {F: (poisson_probability(F), basis_element(F).form,
                 {Fj: c for c, Fj in d_decomposition(F)}) for F in flags}
    for sigma in map(dict, map(enumerate, itertools.permutations(range(nv)))):
        for F, (p, psi, dec) in known.items():
            p_image, psi_image, dec_image = known[F.relabel(sigma)]
            eps = _epsilon(F, sigma)
            assert p_image == relabel_fn(p, sigma), (F, sigma)
            assert psi_image == relabel_form(psi, sigma) * eps, (F, sigma)
            assert dec_image == {Fj.relabel(sigma): c * eps * _epsilon(Fj, sigma)
                                 for Fj, c in dec.items()}, (F, sigma)


# -- containment and dimension reduction --------------------------------------------

def test_containment_whole_set():
    assert whitney_containment((0, 1, 2), (0, 1, 2)) == [Flag.parse("0,1,2")]


def test_containment_vertex_in_triangle():
    flags = whitney_containment((0,), (0, 1, 2))
    assert {str(F) for F in flags} == {"0|1|2", "0|2|1"}


def test_containment_edge_in_tetrahedron():
    flags = whitney_containment((0, 1), (0, 1, 2, 3))
    assert {str(F) for F in flags} == {"0,1|2|3", "0,1|3|2"}


def test_containment_all_subsets_n3():
    import math
    from itertools import combinations

    V = (0, 1, 2, 3)
    for size in range(1, 5):
        for W in combinations(V, size):
            flags = whitney_containment(W, V)
            assert len(flags) == math.factorial(4 - size)


def reduce_dimension(flag: Flag) -> tuple[Flag, bool]:
    """Drop the last block; verify p_{F'} is the limit of p_F at that block.

    Scaling the last block alone is the face limit of the two-block flag
    (the other vertices | the last block)."""
    if len(flag.blocks) < 2:
        raise ValueError("need at least two blocks to reduce")
    reduced = Flag(flag.blocks[:-1])
    limit = face_limit(poisson_probability(flag), Flag((reduced.vertices, flag.blocks[-1])))
    verified = limit == poisson_probability(reduced)
    return reduced, verified


def test_reduce_dimension_examples():
    F2, ok2 = reduce_dimension(Flag.parse("0|1|2,3"))
    assert F2 == Flag.parse("0|1") and ok2
    F3, ok3 = reduce_dimension(Flag.parse("0|1,2"))
    assert F3 == Flag.parse("0") and ok3
    F4, ok4 = reduce_dimension(Flag.parse("0,1|2,3"))
    assert F4 == Flag.parse("0,1") and ok4
    assert poisson_probability(F4) == RationalFn.one()


def test_reduce_dimension_everywhere_n3():
    for k in range(3):
        for F in enumerate_flags((0, 1, 2, 3), k):
            if len(F.blocks) >= 2:
                _, ok = reduce_dimension(F)
                assert ok, f"limit of p_F at last block mismatched for {F}"


# -- partition of unity ---------------------------------------------------------------

@pytest.mark.parametrize("nv", [2, 3, 4])
def test_partition_of_unity(nv):
    total = RationalForm.zero(0)
    for F in enumerate_flags(tuple(range(nv)), 0):
        total = total + basis_element(F).form
    assert total == RationalForm.function(RationalFn.one())
