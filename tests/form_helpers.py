"""Small constructors, predicates and transforms that only the tests need."""

from blowupforms.flagcomb import Flag, perm_sign
from blowupforms.symexpr import Poly, RationalFn, RationalForm


def var_fn(i: int) -> RationalFn:
    """The rational function lambda_i."""
    return RationalFn(Poly.var(i))


def d_lambda(i: int) -> RationalForm:
    """The 1-form dlambda_i."""
    return RationalForm(1, {frozenset((i,)): RationalFn.one()})


def contract_tautological(form: RationalForm, S) -> RationalForm:
    """Interior product of form with the tautological field sum_{i in S} lambda_i d/dlambda_i."""
    S = frozenset(S)
    if form.degree == 0:
        return RationalForm.zero(0)
    out: dict[frozenset, RationalFn] = {}
    for W, f in form.terms.items():
        for pos, v in enumerate(sorted(W)):
            if v not in S:
                continue
            sign = -1 if pos % 2 else 1
            key = W - {v}
            contrib = f * Poly.var(v) * sign
            s = out.get(key)
            out[key] = contrib if s is None else s + contrib
    return RationalForm(form.degree - 1, out)


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


def arrival_words(flag: Flag) -> list[tuple[int, ...]]:
    """All admissible interleavings of block-labelled particle receipts, in lexicographic order.

    Block j contributes |V_j| particles of label j.  A word is admissible
    when, for every j >= 1, the final particle of label j-1 precedes the
    final particle of label j (blocks complete in flag order).
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: list[int]):
        if not any(remaining):
            out.append(tuple(prefix))
            return
        for j, c in enumerate(remaining):
            # completing block j is only allowed once all earlier blocks are done
            if c == 0 or (c == 1 and any(remaining[:j])):
                continue
            remaining[j] -= 1
            prefix.append(j)
            rec(prefix, remaining)
            prefix.pop()
            remaining[j] += 1

    rec([], list(flag.block_sizes))
    return out


def word_sum_probability(flag: Flag) -> RationalFn:
    """p_F as a sum over ``arrival_words``: each word is a product of per-receipt
    odds, a particle of block j arriving next with rate l_{V_j} out of the total
    rate of the blocks not yet complete."""
    blocks = flag.blocks
    total = RationalFn.zero()
    for word in arrival_words(flag):
        remaining = list(flag.block_sizes)
        num = Poly.const(1)
        den: dict[frozenset, int] = {}
        for label in word:
            active = frozenset(v for j, b in enumerate(blocks) if remaining[j] for v in b)
            num = num * Poly.subset_sum(blocks[label])
            den[active] = den.get(active, 0) + 1
            remaining[label] -= 1
        total = total + RationalFn(num, den)
    return total
