from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from blowupforms.dof import tangent_sign
from blowupforms.flagcomb import Flag, enumerate_flags, perm_sign
from blowupforms.symexpr import (
    DivergentLimit,
    Poly,
    RationalFn,
    RationalForm,
    _probe,
    face_limit,
    rational_fn_latex,
    rational_fn_to_json,
)
from blowupforms.shadow import poisson_probability
from form_helpers import (
    contract_tautological,
    d_lambda,
    is_homogeneous,
    race_limit,
    reduce_mod_dlv,
    substitute_one,
    var_fn,
)

try:
    import sympy
except ImportError:  # the division oracle is optional
    sympy = None


def l(*ids):
    return frozenset(ids)


def fn(num, den=None):
    return RationalFn(num, den or {})


# -- random expression strategies ---------------------------------------------

# integral and small non-integral coefficients, so both stored types are drawn
coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
monos = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)), max_size=2).map(
    lambda ps: tuple(sorted(dict(ps).items()))
)
polys = st.dictionaries(monos, coeffs, max_size=3).map(Poly)
subsets = st.sets(st.integers(0, 3), min_size=1, max_size=3).map(frozenset)
dens = st.dictionaries(subsets, st.integers(1, 2), max_size=2)
rationals = st.builds(RationalFn, polys, dens)


# -- polynomial ring -------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_exact_division_by_subset_sum():
    p = Poly.var(0) * Poly.subset_sum((1, 2)) ** 2
    q = p.divide_by_subset_sum((1, 2))
    assert q == Poly.var(0) * Poly.subset_sum((1, 2))
    assert Poly.var(0).divide_by_subset_sum((1, 2)) is None
    assert (Poly.var(1) + Poly.var(2)).divide_by_subset_sum((1, 2)) == Poly.const(1)


@settings(max_examples=60, deadline=None)
@given(polys, subsets)
def test_division_inverts_multiplication(p, S):
    prod = p * Poly.subset_sum(S)
    q = prod.divide_by_subset_sum(S)
    assert q == p


# -- in-place monomial edits against the dict-and-sort rebuild ------------------------

def dict_sort_derivative(p: Poly, v: int) -> Poly:
    """Poly.derivative with each monomial rebuilt through a dict and a sort."""
    t = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.get(v, 0)
        if not e:
            continue
        if e == 1:
            del d[v]
        else:
            d[v] = e - 1
        key = tuple(sorted(d.items()))
        t[key] = t.get(key, 0) + c * e
    return Poly(t)


def dict_sort_division(p: Poly, S) -> "Poly | None":
    """Long division of p by l_S, each monomial split through a dict and a sort."""
    if p.is_zero():
        return Poly.zero()
    v = min(S)
    by_deg = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(v, 0)
        by_deg.setdefault(e, {})[tuple(sorted(d.items()))] = c
    top = max(by_deg)
    if top == 0:
        return None
    rest = Poly.subset_sum(frozenset(S) - {v})
    quotient, prev = Poly.zero(), Poly.zero()
    for d in range(top, 0, -1):
        prev = Poly(by_deg.get(d, {})) - rest * prev
        quotient = quotient + prev * (Poly.var(v, d - 1) if d > 1 else Poly.const(1))
    if not (Poly(by_deg.get(0, {})) - rest * prev).is_zero():
        return None
    return quotient


def assert_canonical(p: Poly):
    """Every key strictly ascending in its variables, every exponent positive."""
    for m in p.terms:
        assert all(a < b for (a, _), (b, _) in zip(m, m[1:])), m
        assert all(e > 0 for _, e in m), m


wide_monos = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=4).map(
    lambda ps: tuple(sorted(dict(ps).items()))
)
wide_polys = st.dictionaries(wide_monos, coeffs, max_size=5).map(Poly)


@settings(max_examples=150, deadline=None)
@given(wide_polys, wide_polys, st.sets(st.integers(0, 4), min_size=1, max_size=4),
       st.booleans(), st.integers(0, 4))
# lowering lambda_0 in, and dropping lambda_1 from, a monomial with pairs on both sides
@example(Poly({((0, 2), (2, 1)): 1}), Poly(), {1}, True, 0)
def test_monomial_edits_match_dict_and_sort(a, b, S, exact, v):
    p = a * Poly.subset_sum(S) + (Poly.zero() if exact else b)
    got, want = p.derivative(v), dict_sort_derivative(p, v)
    assert got.terms == want.terms
    assert_canonical(got)
    got, want = p.divide_by_subset_sum(S), dict_sort_division(p, S)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.terms == want.terms
        assert_canonical(got)


# -- coefficient types ----------------------------------------------------------------

def test_rational_coefficients_compute_as_their_equal_ints():
    # a coefficient keeps the type its arithmetic gives: 1/2 + 1/2 stays a
    # Fraction, and equals, hashes, serializes and prints as the int 1
    half = Poly.var(0) * Fraction(1, 2)
    assert half.terms == {((0, 1),): Fraction(1, 2)}
    whole = half + half
    assert whole == Poly.var(0)
    assert type(whole.terms[((0, 1),)]) is Fraction
    assert hash(whole.terms[((0, 1),)]) == hash(1)
    shifted = half * 2 - Poly.const(Fraction(3, 3))
    for a, b in [(whole, Poly.var(0)), (shifted, Poly.var(0) - Poly.const(1))]:
        fa, fb = RationalFn(a, {l(0, 1): 1}), RationalFn(b, {l(0, 1): 1})
        assert rational_fn_to_json(fa) == rational_fn_to_json(fb)
        assert rational_fn_latex(fa) == rational_fn_latex(fb)
        assert repr(fa) == repr(fb)


def test_evaluate_at_an_integer_point_stays_exact():
    f = RationalFn(Poly.var(0), {l(0, 1): 1})
    got = f.evaluate({0: 1, 1: 2})
    assert type(got) is Fraction and got == Fraction(1, 3)
    assert f.evaluate({0: 1.0, 1: 2.0}) == pytest.approx(1 / 3)


# -- trial division against sympy ------------------------------------------------

def _to_sympy(p: Poly):
    xs = sympy.symbols("x0:4")
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= xs[v] ** e
        expr += term
    return expr, xs


def _sympy_remainder(p: Poly, S) -> object:
    expr, xs = _to_sympy(p)
    _, r = sympy.div(expr, sum(xs[i] for i in S), *xs)
    return sympy.expand(r)


def _probe_point(S) -> dict:
    """The point of l_S = 0 at which divide_by_subset_sum evaluates first."""
    point = {v: Fraction(_probe(v)) for v in range(4)}
    v0 = min(S)
    point[v0] = -sum(point[w] for w in S if w != v0)
    return point


@st.composite
def division_cases(draw):
    """(p, S) with p arbitrary, a multiple l_S*q, or l_S*q + r with r zero at
    the probe point but not divisible by l_S, so the long division still runs."""
    S = draw(subsets)
    kind = draw(st.sampled_from(["random", "multiple", "hidden-remainder"]))
    p = draw(polys)
    if kind == "random":
        return kind, p, S
    lS = Poly.subset_sum(S)
    if kind == "multiple":
        return kind, lS * p, S
    # h = point[b]*lambda_a - point[a]*lambda_b vanishes at the probe point
    point = _probe_point(S)
    a, b = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    h = Poly.var(a) * point[b] - Poly.var(b) * point[a]
    r = draw(polys) * h
    assume(not r.is_zero() and _sympy_remainder(r, S) != 0)
    return kind, lS * p + r, S


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=150, deadline=None)
@given(division_cases())
# a multiple whose long division takes every step down to lambda_0^0
@example(("multiple", Poly.subset_sum({0, 1}) * Poly.var(0), l(0, 1)))
def test_divide_by_subset_sum_matches_sympy(case):
    kind, p, S = case
    q = p.divide_by_subset_sum(S)
    if kind == "hidden-remainder":
        assert p.evaluate(_probe_point(S)) == 0
        assert q is None
    if q is None:
        assert _sympy_remainder(p, S) != 0
    else:
        assert q * Poly.subset_sum(S) == p


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.integers(0, 3))
def test_rationalfn_results_are_canonical(f, g, v):
    for h in (f + g, f * g, f.derivative(v)):
        for S in h.den:
            assert _sympy_remainder(h.num, S) != 0


def _fn_to_sympy(f: RationalFn):
    expr, xs = _to_sympy(f.num)
    for S, e in f.den.items():
        expr /= sum(xs[i] for i in S) ** e
    return expr, xs


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.integers(0, 3))
def test_rationalfn_arithmetic_matches_sympy(f, g, v):
    (F, xs), (G, _) = _fn_to_sympy(f), _fn_to_sympy(g)
    cases = ((f + g, F + G), (f * g, F * G), (f.derivative(v), sympy.diff(F, xs[v])))
    for got, want in cases:
        assert sympy.cancel(_fn_to_sympy(got)[0] - want) == 0


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(rationals, st.lists(st.integers(1, 4), min_size=4, max_size=4), st.booleans())
def test_rationalfn_evaluate_matches_sympy(f, values, integral):
    # positive coordinates keep every subset sum of the denominator nonzero
    point = {v: x if integral else Fraction(x, 3) for v, x in enumerate(values)}
    got = f.evaluate(point)
    assert isinstance(got, (int, Fraction))
    F, xs = _fn_to_sympy(f)
    want = F.subs({xs[v]: sympy.Rational(x.numerator, x.denominator) for v, x in point.items()})
    assert sympy.Rational(got.numerator, got.denominator) == want


def test_pre_test_rejects_failing_divisions(monkeypatch):
    """Nearly every failing division in the d-structure of the 3-simplex must be
    rejected by the value at the hyperplane point alone, before any long division."""
    from blowupforms import symexpr
    from blowupforms.shadow import d_decomposition

    counts = {"failed": 0, "rejected": 0}
    divide = Poly.divide_by_subset_sum

    def counting_divide(p, S):
        point = symexpr._hyperplane_point(frozenset(S))
        assert sum(point[v] for v in S) == 0  # the point lies on l_S = 0
        counts["rejected"] += bool(p.evaluate(point))
        q = divide(p, S)
        counts["failed"] += q is None
        return q

    monkeypatch.setattr(Poly, "divide_by_subset_sum", counting_divide)
    for k in range(4):
        for F in enumerate_flags((0, 1, 2, 3), k):
            d_decomposition(F)
    assert counts["failed"]  # 15 362 when every construction is uncached
    assert counts["rejected"] >= 0.99 * counts["failed"]


# -- rational functions -----------------------------------------------------------

def test_canonicalization_cancels_shared_factors():
    f = RationalFn(Poly.var(0) * Poly.subset_sum((1, 2)), {l(1, 2): 2})
    assert f.den == {l(1, 2): 1}
    assert f.num == Poly.var(0)


def test_canonicalization_idempotent():
    f = RationalFn(Poly.var(0) * Poly.subset_sum((1, 2)), {l(1, 2): 2, l(0, 1, 2): 1})
    g = RationalFn(f.num, f.den)
    assert f.num == g.num and f.den == g.den


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_rationalfn_add_commutes(a, b):
    assert a + b == b + a


def test_equality_cross_multiplied():
    # lambda_0/l_01 + lambda_1/l_01 == 1
    a = RationalFn(Poly.var(0), {l(0, 1): 1}) + RationalFn(Poly.var(1), {l(0, 1): 1})
    assert a == RationalFn.one()


# -- wedge -------------------------------------------------------------------------

def test_wedge_examples():
    d0, d1, d2 = (d_lambda(i) for i in range(3))
    w = d0.wedge(d1)
    assert w.coefficient((0, 1)) == RationalFn.one()
    assert d1.wedge(d0).coefficient((0, 1)) == -RationalFn.one()
    a = d1 * var_fn(0)
    b = d2 * var_fn(1)
    prod = a.wedge(b)
    assert prod.coefficient((1, 2)) == fn(Poly.var(0) * Poly.var(1))
    assert d0.wedge(d0).is_zero()


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_wedge_graded_anticommutative_on_one_forms(f, g):
    a = RationalForm(1, {l(0): f, l(2): g})
    b = RationalForm(1, {l(1): g, l(3): f})
    assert a.wedge(b) == -(b.wedge(a))


# -- exterior derivative -----------------------------------------------------------

def test_d_of_variable():
    df = RationalForm.function(var_fn(0)).exterior_derivative()
    assert df == d_lambda(0)


def test_quotient_rule_hand_example():
    # d(l1/l12) = (l2 dl1 - l1 dl2)/l12^2
    f = RationalFn(Poly.var(1), {l(1, 2): 1})
    df = RationalForm.function(f).exterior_derivative()
    assert df.coefficient((1,)) == RationalFn(Poly.var(2), {l(1, 2): 2})
    assert df.coefficient((2,)) == RationalFn(-Poly.var(1), {l(1, 2): 2})


@settings(max_examples=50, deadline=None)
@given(rationals)
def test_dd_is_zero(f):
    form = RationalForm.function(f)
    assert form.exterior_derivative().exterior_derivative().is_zero()


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_leibniz_rule(f, g):
    a = RationalForm.function(f)
    b = RationalForm(1, {l(0): g})
    lhs = a.wedge(b).exterior_derivative()
    rhs = a.exterior_derivative().wedge(b) + a.wedge(b.exterior_derivative())
    assert lhs == rhs


# -- tautological contraction --------------------------------------------------------

def test_contraction_examples():
    d0, d1 = d_lambda(0), d_lambda(1)
    w = d0.wedge(d1)
    c = contract_tautological(w, (0, 1))
    assert c.coefficient((1,)) == var_fn(0)
    assert c.coefficient((0,)) == -var_fn(1)
    assert contract_tautological(d0, (0,)) == RationalForm.function(var_fn(0))
    assert contract_tautological(RationalForm.function(var_fn(0)), (0,)).is_zero()


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_double_contraction_vanishes(f, g):
    form = RationalForm(2, {l(0, 1): f, l(1, 2): g})
    once = contract_tautological(form, (0, 1, 2))
    assert contract_tautological(once, (0, 1, 2)).is_zero()


# -- face limits -----------------------------------------------------------------------

def _scaling(S) -> Flag:
    """The two-block flag (rest | S): its face limit scales S alone.

    Vertex 4 is in no drawn expression, so the first block is never empty."""
    S = frozenset(S)
    return Flag((tuple(sorted(set(range(5)) - S)), tuple(sorted(S))))


def test_flag_limit_examples():
    F = Flag.parse("0|1,2")
    invariant = RationalFn(Poly.var(1), {l(1, 2): 1})
    assert face_limit(invariant, F) == invariant
    order_one = var_fn(1)
    assert face_limit(order_one, F).is_zero()
    # the steps run last block first: lambda_0 vanishes before lambda_1 does,
    # and the other order would diverge
    assert face_limit(RationalFn(Poly.var(0), {l(1): 2}), Flag.parse("2|1|0")).is_zero()


def test_flag_limit_vertex_values():
    # the 0-form lambda_1*lambda_2/l_02 probed at three blow-up vertices
    f = RationalFn(Poly.var(1) * Poly.var(2), {l(0, 2): 1})
    for text, expect_zero in (("2|0|1", True), ("2|1|0", True), ("1|2|0", False)):
        g = face_limit(f, Flag.parse(text))
        assert g.is_zero() == expect_zero
    g = substitute_one(face_limit(f, Flag.parse("1|2|0")), 1)
    assert g == RationalFn.one()


def test_divergent_limit_detected():
    f = RationalFn(Poly.var(0), {l(1): 1})
    with pytest.raises(DivergentLimit):
        face_limit(f, _scaling({1}))


def _sympy_dilation_limit(F, xs, scaled):
    """sympy's limit of F(x_i -> eps*x_i for i in scaled) as eps -> 0+."""
    eps = sympy.Symbol("eps", positive=True)
    sub = {x: eps * x if i in scaled else x for i, x in enumerate(xs)}
    return sympy.limit(sympy.cancel(F.subs(sub, simultaneous=True)), eps, 0, "+")


def _assert_limit_matches_sympy(f: RationalFn, flag: Flag):
    """face_limit against sympy's limits taken one step at a time, last block first,
    over positive symbols."""
    F, xs = _fn_to_sympy(f)
    pos = sympy.symbols("x0:4", positive=True)
    want = F.subs(dict(zip(xs, pos)), simultaneous=True)
    infinite = False
    for j in range(len(flag.blocks) - 1, 0, -1):
        want = _sympy_dilation_limit(want, pos, {v for b in flag.blocks[j:] for v in b})
        infinite = want.has(sympy.oo, -sympy.oo, sympy.zoo)
        if infinite or want == 0:
            break
    try:
        got = face_limit(f, flag)
    except DivergentLimit:
        assert infinite, (f, flag, want)
        return
    assert not infinite, (f, flag, want)
    assert sympy.cancel(_fn_to_sympy(got)[0].subs(dict(zip(xs, pos)), simultaneous=True)
                        - want) == 0, (f, flag, want)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(rationals, subsets)
# orders equal (a finite nonzero limit), a straddling l_S that must be
# truncated, and a denominator of one order more (a divergence)
@example(RationalFn.one(), l(0))
@example(RationalFn(Poly.const(1), {l(0, 1): 1}), l(1))
@example(RationalFn(Poly.const(1), {l(1): 1}), l(1))
def test_dilation_limit_matches_sympy(f, S):
    _assert_limit_matches_sympy(f, _scaling(S))


FLAGS4 = [F for k in range(4) for F in enumerate_flags((0, 1, 2, 3), k)]


def _flag_witnesses() -> list[RationalFn]:
    """One f per flag of FLAGS4, zero but at four flags: a limit that is zero
    only when the steps run last block first, and the three cases pinned on
    test_dilation_limit_matches_sympy."""
    fs = [RationalFn.zero()] * len(FLAGS4)
    for text, f in (("2,3|1|0", RationalFn(Poly.var(0), {l(1): 2})),
                    ("0,1,2|3", RationalFn.one()),
                    ("0,2|1,3", RationalFn(Poly.const(1), {l(0, 1): 1})),
                    ("0|1,2|3", RationalFn(Poly.const(1), {l(3): 1}))):
        fs[FLAGS4.index(Flag.parse(text))] = f
    return fs


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
# one drawn f per flag; shrinking 75 draws through sympy takes minutes, and the
# failure message names the f and the flag, so a failure is reported unshrunk
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(rationals, min_size=len(FLAGS4), max_size=len(FLAGS4)))
@example(_flag_witnesses())
def test_flag_limit_matches_sympy(fs):
    for f, flag in zip(fs, FLAGS4):
        _assert_limit_matches_sympy(f, flag)


def test_flag_limit_of_p_F_is_the_race_limit():
    # lim p_F toward G's face, exactly, against the Poisson race read off (F, G),
    # on every pair of flags on up to 4 vertices at two rational points
    points = [{v: Fraction(v + 1, 2) for v in range(4)},
              {v: Fraction(7, 2 * v + 3) for v in range(4)}]
    nonzero = 0
    for n in range(1, 5):
        flags = [F for k in range(n) for F in enumerate_flags(tuple(range(n)), k)]
        for F in flags:
            p = poisson_probability(F)
            for G in flags:
                limit = face_limit(p, G)
                for point in points:
                    assert limit.evaluate(point) == race_limit(F, G, point), (F, G, point)
                nonzero += not limit.is_zero()
    assert nonzero == 1 + 7 + 85 + 1615  # on 1, 2, 3 and 4 vertices; the pairs number 5 804


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, subsets)
def test_limit_commutes_with_add_and_mul(f, g, S):
    face = _scaling(S)
    try:
        lf, lg = face_limit(f, face), face_limit(g, face)
    except DivergentLimit:
        return
    try:
        lsum = face_limit(f + g, face)
        assert lsum == lf + lg
    except DivergentLimit:
        # exact cancellation of leading orders cannot diverge if both exist
        raise AssertionError("sum limit diverged while parts exist")
    lprod = face_limit(f * g, face)
    assert lprod == lf * lg


# -- homogeneity and slice comparisons --------------------------------------------

def test_is_homogeneous_examples():
    f = RationalFn(Poly.var(0) * Poly.var(1), {l(0, 1, 2): 1, l(1, 2): 1})
    assert is_homogeneous(f, 0)
    assert is_homogeneous(var_fn(0), 1)
    mixed = var_fn(0) + RationalFn(Poly.var(0) * Poly.var(1))
    assert not is_homogeneous(mixed, 1)
    assert not is_homogeneous(mixed, 2)


FLAGS_UP_TO_3 = [F for n in range(4) for k in range(n + 1)
                 for F in enumerate_flags(range(n + 1), k)]


def value_on_vectors(form: RationalForm, point, vectors) -> Fraction:
    """The form at ``point`` on the tangent vectors ``vectors`` ({i: component})."""
    total = Fraction(0)
    for W, f in form.terms.items():
        cols = sorted(W)
        det = sum(perm_sign(p) * prod(vec.get(cols[c], 0) for vec, c in zip(vectors, p))
                  for p in permutations(range(len(cols))))
        total += f.evaluate(point) * det
    return total


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_reduce_mod_dlv_keeps_every_tangent_value(data):
    """An oracle for the multi-block reduction that does not substitute.  For every
    flag F with n <= 3 and a k-form with every dlambda_W on {0..3}, the form and its
    reduction take the same value on the tangent vectors e_i - e_{max B} of F's
    blocks, and no dlambda_{max B} is left.  Blocks whose maximum lies below members
    of W exercise the sign of the substitution.  ``dof.tangent_sign`` is each
    dlambda_W's value on the ascending frame, a determinant taken here directly."""
    forms = {k: RationalForm(k, {frozenset(W): data.draw(rationals)
                                 for W in combinations(range(4), k)})
             for k in range(4)}
    point = {v: data.draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 5)))
             for v in range(4)}
    for flag in FLAGS_UP_TO_3:
        form = forms[flag.k]
        reduced = reduce_mod_dlv(form, flag.blocks)
        tops = {max(B) for B in flag.blocks}
        assert not any(W & tops for W in reduced.terms), flag
        tangent = [{i: 1, max(B): -1} for B in flag.blocks for i in B if i != max(B)]
        assert value_on_vectors(reduced, point, tangent) == value_on_vectors(form, point, tangent), flag
        ascending = sorted(tangent, key=min)  # e_t - e_{max B} by t, its least index
        for W in combinations(range(4), flag.k):
            dlW = RationalForm(flag.k, {frozenset(W): RationalFn.one()})
            assert tangent_sign(flag, W) == value_on_vectors(dlW, point, ascending), (flag, W)


# -- serialization and display ---------------------------------------------------

def test_form_json_shape():
    from blowupforms.symexpr import form_to_json

    f = RationalFn(Poly.var(0) * Poly.var(1), {l(1, 2): 1})
    form = RationalForm(1, {l(2): f})
    doc = form_to_json(form)
    assert doc["degree"] == 1
    (term,) = doc["terms"]
    assert term["dlambda"] == [2]
    assert term["num"] == {"0:1 1:1": "1"}
    assert term["den"] == [{"S": [1, 2], "e": 1}]


def test_latex_emitter_uses_subset_shorthand():
    from blowupforms.symexpr import form_latex, rational_fn_latex

    f = RationalFn(Poly.var(0), {l(0, 1, 2): 1, l(1, 2): 2})
    tex = rational_fn_latex(f)
    assert r"\lambda_{012}" in tex and r"\lambda_{12}^{2}" in tex
    form = RationalForm(1, {l(1): f})
    assert r"d\lambda_{1}" in form_latex(form)
