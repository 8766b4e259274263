"""Small constructors, predicates and transforms that only the tests need."""

from blowupforms.flagcomb import perm_sign
from blowupforms.symexpr import Poly, RationalFn, RationalForm


def d_lambda(i: int) -> RationalForm:
    """The 1-form dlambda_i."""
    return RationalForm(1, {frozenset((i,)): RationalFn.one()})


def is_homogeneous(f: RationalFn, d: int) -> bool:
    """True iff f(t*lambda) = t^d f(lambda) identically."""
    if f.is_zero():
        return True
    comps = f.num.epsilon_split(f.num.variables())
    if len(comps) != 1:
        return False
    (deg,) = comps
    return deg - sum(f.den.values()) == d


def substitute_one(f: RationalFn, v: int) -> RationalFn:
    """Substitute lambda_v -> 1 (drops singleton denominator factors {v})."""
    den = {S: e for S, e in f.den.items() if S != frozenset((v,))}
    return RationalFn(f.num.substitute_one(v), den)


def relabel_poly(p: Poly, perm: dict[int, int]) -> Poly:
    """p with each lambda_v renamed lambda_{perm[v]} (unmapped variables kept)."""
    return Poly({
        tuple(sorted((perm.get(v, v), e) for v, e in m)): c
        for m, c in p.terms.items()
    })


def relabel_fn(f: RationalFn, perm: dict[int, int]) -> RationalFn:
    """f with each lambda_v renamed lambda_{perm[v]}, the denominator's subsets too."""
    return RationalFn(
        relabel_poly(f.num, perm),
        {frozenset(perm.get(i, i) for i in S): e for S, e in f.den.items()},
    )


def relabel_form(w: RationalForm, perm: dict[int, int]) -> RationalForm:
    """w with each lambda_v renamed lambda_{perm[v]}: dlambda_W (ascending wedge)
    goes to perm_sign(perm(W)) dlambda_{perm(W)}, each coefficient by ``relabel_fn``."""
    out: dict[frozenset, RationalFn] = {}
    for W, f in w.terms.items():
        sign = perm_sign(perm.get(u, u) for u in sorted(W))
        key = frozenset(perm.get(u, u) for u in W)
        contrib = relabel_fn(f, perm) * sign
        s = out.get(key)
        out[key] = contrib if s is None else s + contrib
    return RationalForm(w.degree, out)
