"""Small constructors, predicates and transforms that only the tests need."""

import math
from fractions import Fraction
from functools import cache
from itertools import groupby

from blowupforms.flagcomb import ArrivalSequence, Flag, perm_sign, vertex_set
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


def integrate_monomial_simplex(W, exponents: dict[int, int]) -> Fraction:
    """Integral of a barycentric monomial against the normalized volume form.

    For W of size n+1:  int_{T_W} prod theta_i^{a_i} omega_W
    = n! * (prod a_i!) / (n + sum a_i)!.
    """
    W = vertex_set(W)
    if any(v not in W for v in exponents):
        raise ValueError("exponents must be supported on W")
    n = len(W) - 1
    num = math.factorial(n)
    total = 0
    for a in exponents.values():
        if a < 0:
            raise ValueError("exponents must be non-negative")
        num *= math.factorial(a)
        total += a
    return Fraction(num, math.factorial(n + total))


def dense_rows(flags, columns) -> list[tuple]:
    """Sparse pairing columns ``{G: value}``, one per flag, as dense rows over ``flags``."""
    return [tuple(col.get(G, 0) for col in columns) for G in flags]


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
    num = sum((Poly({tuple((w, e) for w, e in m if w != v): c}) for m, c in f.num.terms.items()),
              Poly.zero())
    return RationalFn(num, den)


def reduce_mod_dlv(form: RationalForm, blocks) -> RationalForm:
    """Rewrite modulo d(l_B) for each block B: dlambda_{max B} -> -sum of the others.

    The result involves no dlambda_{max B} and represents the same form on
    vectors tangent to every slice l_B = const; a singleton block's dlambda
    drops.  Moving the substituted dlambda_i from the slot of max B to its
    own slot passes the members of W strictly between i and max B.  The
    blocks are disjoint, so substituting block by block is substituting all
    at once.  The reference for ``dof.tangent_sign``: the T_F coefficient of the
    result is sum_W tangent_sign(F, W) f_W.
    """
    terms = form.terms
    for B in blocks:
        *rest, vmax = sorted(B)
        out: dict[frozenset, RationalFn] = {}
        for W, f in terms.items():
            if vmax not in W:
                s = out.get(W)
                out[W] = f if s is None else s + f
                continue
            W0 = W - {vmax}
            for i in rest:
                if i in W0:
                    continue
                between = sum(1 for w in W0 if i < w < vmax)
                key = W0 | {i}
                contrib = f if between % 2 else -f  # -1 from the substitution itself
                s = out.get(key)
                out[key] = contrib if s is None else s + contrib
        terms = out
    return RationalForm(form.degree, terms)


def evaluate_by_fractions(f: RationalFn, point: dict):
    """f at ``point`` in Fraction arithmetic: the numerator's value by ``Poly.evaluate``,
    then one division per denominator factor, an int over an int kept exact.  The
    reference for ``RationalFn.evaluate``, which works in integers at an exact point."""
    val = f.num.evaluate(point)
    for S, e in f.den.items():
        q = sum(point[i] for i in S) ** e
        val = Fraction(val, q) if type(val) is int and type(q) is int else val / q
    return val


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


def determinant(rows) -> Fraction:
    """The determinant of a square matrix, by exact Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def cellular_incidence(flag: Flag, j: int) -> int:
    """[Theta_{F.coarsen(j)} : Theta_F], the incidence number of the cell Theta_F in
    the boundary of Theta_{F.coarsen(j)} in the blow-up, by geometry alone: no form.

    Each block simplex T_B carries the DOF orientation sigma_B = (-1)^{|B|-1}
    relative to its chart (the non-maximal coordinates, ascending), the sign of
    ``dof_evaluate``'s Dirichlet formula, and Theta_F is the product in block
    order.  With A = V_{j-1} and B = V_j, Theta_F is the face of T_{A u B}'s
    blow-up where B becomes infinitesimal against A, charted by theta_a = (1 - t)
    alpha_a, theta_b = t beta_b, alpha in T_A, beta in T_B and t -> 0+; the
    outward normal is -d/dt.  Boundary orientation puts the outward normal first,
    so the local incidence is the sign of det[-d/dt, alpha-frame, beta-frame] in
    T_{A u B}'s chart, at one interior point (t = 1/2, alpha and beta the
    barycentres; the positive column factors 1 - t and t are left out; a
    degenerate chart would read 0), times sigma_{A u B} sigma_A sigma_B.  The
    blocks ahead add the sign of the boundary of a product,
    (-1)^{sum_{i<j-1} (|V_i| - 1)}.
    """
    A, B = flag.blocks[j - 1], flag.blocks[j]
    chart = sorted(A + B)[:-1]
    normal = [Fraction(1, len(A)) if v in A else Fraction(-1, len(B)) for v in chart]
    frame = [[(v == i) - (v == block[-1]) for v in chart]
             for block in (A, B) for i in block[:-1]]
    det = determinant([normal] + frame)
    local = (det > 0) - (det < 0)
    sigma = (-1) ** (len(A) + len(B) - 1) * (-1) ** (len(A) - 1) * (-1) ** (len(B) - 1)
    ahead = sum(len(b) - 1 for b in flag.blocks[:j - 1])
    return local * sigma * (-1) ** ahead


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


def ordered_race(counts, rates) -> Fraction:
    """The chance that blocks complete in order when block j needs ``counts[j]``
    arrivals of a Poisson process of rate ``rates[j]``: ``poisson_probability``'s
    first-step recursion, with the counts and the rates decoupled."""

    @cache
    def p(left: tuple[int, ...]) -> Fraction:
        if not any(left):
            return Fraction(1)
        first = next(j for j, c in enumerate(left) if c)
        live = sum(r for r, c in zip(rates, left) if c)
        return sum((rates[j] * p(left[:j] + (c - 1,) + left[j + 1:])
                    for j, c in enumerate(left) if c >= 2 or j == first), Fraction(0)) / live

    return p(tuple(counts))


def race_limit(F: Flag, G: Flag, rates: dict) -> Fraction:
    """lim p_F toward the face of G at ``rates``, read off the Poisson race.

    Toward G's face every rate in G's block g is scaled by eps^g, so F's block
    V_j completes on the time scale of lo_j, the first G-block it meets, at
    rate l_{V_j & G_lo}; the slower vertices' arrivals come too late to count.
    Faster blocks complete first, so the limit is 0 unless lo_j never
    decreases along F.  Otherwise it is the product over each run of equal lo
    of that run's race, block j needing |V_j| arrivals at rate l_{V_j & G_lo}.
    """
    g = {v: i for i, b in enumerate(G.blocks) for v in b}
    lo = [min(g[v] for v in b) for b in F.blocks]
    if any(a > b for a, b in zip(lo, lo[1:])):
        return Fraction(0)
    total = Fraction(1)
    for low, run in groupby(zip(lo, F.blocks), key=lambda pair: pair[0]):
        blocks = [b for _, b in run]
        total *= ordered_race([len(b) for b in blocks],
                              [sum(rates[v] for v in b if g[v] == low) for b in blocks])
    return total


def round_limit(seq: ArrivalSequence, G: Flag, rates: dict) -> Fraction:
    """lim of a higher-order candidate's probability toward the face of G at
    ``rates``, taken round by round.

    The probability is the product over rounds of (r! / prod r_i!) prod
    (lambda_i / l_A)^{r_i}, A the round's active set.  Toward G's face,
    lambda_i / l_A tends to lambda_i / l_{A & G_lo} for i in G_lo, the first
    G-block that A meets, and to 0 for i in a later block, which is scaled
    faster.  Each factor lies in [0, 1], so the limit is the product of the
    round limits.
    """
    g = {v: i for i, b in enumerate(G.blocks) for v in b}
    total = Fraction(1)
    for rnd in seq.rounds:
        low = min(g[v] for v, _ in rnd)
        rate = sum(rates[v] for v, _ in rnd if g[v] == low)
        total *= math.factorial(seq.r)
        for v, c in rnd:
            if c and g[v] != low:
                return Fraction(0)
            total *= (rates[v] / rate) ** c / math.factorial(c)
    return total
