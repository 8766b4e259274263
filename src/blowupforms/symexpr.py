"""Exact symbolic arithmetic for barycentric rational differential forms.

Everything here is built from three layers:

* ``Poly`` -- multivariate polynomials in the variables ``lambda_i`` with
  exact rational coefficients, each stored as the type its arithmetic gives
  (see ``Poly``).
* ``RationalFn`` -- a polynomial numerator over a denominator that is a
  product of powers of subset sums ``l_S = sum_{i in S} lambda_i``.  This
  restricted class is closed under sums, products, partial derivatives and
  limits toward blow-up faces (``face_limit``), which keeps equality tests
  and limits exact and cheap.
* ``RationalForm`` -- differential k-forms whose coefficients are
  ``RationalFn``s, keyed by sorted index sets for the wedge monomials
  ``dlambda_{w_1} ^ ... ^ dlambda_{w_k}``.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .flagcomb import Flag, perm_sign


class DivergentLimit(ArithmeticError):
    """A face limit diverges (denominator vanishes faster than numerator)."""


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (variable, exponent) pairs
# ---------------------------------------------------------------------------

Mono = tuple  # tuple[tuple[int, int], ...]

_ONE: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _probe(v: int) -> int:
    """Integer coordinate of lambda_v at the non-divisibility probe point.

    Quadratic rather than linear in v: evenly spaced coordinates satisfy
    relations such as x_0 - x_1 - x_2 + x_3 = 0, and with them 2 of the
    15 362 failing divisions in the n = 3 local complex pass the test; with
    these coordinates none does.
    """
    return v * v + 3 * v + 7


class _ProbePoint(dict):
    """A point that gives every lambda_v not stored the value ``_probe(v)``."""

    def __missing__(self, v: int) -> int:
        self[v] = _probe(v)
        return self[v]


@lru_cache(maxsize=None)
def _hyperplane_point(S: frozenset) -> _ProbePoint:
    """A fixed integer point of l_S = 0: lambda_v = ``_probe(v)``, except
    lambda_{min S}, which takes minus the sum of the other probes in S."""
    v0 = min(S)
    return _ProbePoint({v0: -sum(_probe(w) for w in S if w != v0)})


class Poly:
    """Multivariate polynomial over exact rationals; a coefficient keeps the type
    its arithmetic gives.  The package's coefficients stay ints: every constructor
    is integral (factorials, subset sums, multinomials), and Z[lambda] is closed
    under +, -, *, ``derivative`` (c * e), ``epsilon_split`` and
    ``divide_by_subset_sum`` (l_S has unit coefficients).  A caller's ``Fraction``
    computes as exactly; an integral one equals, hashes, prints and serializes as
    its int."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Mono, int | Fraction] = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({_ONE: c})

    @staticmethod
    def var(i: int, exp: int = 1) -> "Poly":
        return Poly({((i, exp),): 1})

    @staticmethod
    def subset_sum(S) -> "Poly":
        """The linear form l_S = sum_{i in S} lambda_i."""
        return Poly({((i, 1),): 1 for i in S})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero()
            out = Poly.__new__(Poly)
            out.terms = {m: c * other for m, c in self.terms.items()}
            return out
        t: dict[Mono, int | Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = t.get(m, 0) + ca * cb
                if s:
                    t[m] = s
                else:
                    t.pop(m, None)
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------------

    def variables(self) -> frozenset[int]:
        return frozenset(v for m in self.terms for v, _ in m)

    def derivative(self, v: int) -> "Poly":
        # distinct monomials that contain lambda_v stay distinct once it is lowered
        t: dict[Mono, int | Fraction] = {}
        for m, c in self.terms.items():
            for i, (w, e) in enumerate(m):
                if w == v:
                    t[m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]] = c * e
                    break
        return Poly(t)

    def evaluate(self, point: dict[int, object]):
        """Evaluate at a point: exact at int or Fraction values, float at float ones."""
        total = None
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val = val * point[v] ** e
            total = val if total is None else total + val
        return 0 if total is None else total

    def epsilon_split(self, scaled: frozenset[int]) -> dict[int, "Poly"]:
        """Group terms by their order in eps under lambda_i -> eps*lambda_i, i in scaled."""
        comps: dict[int, dict] = {}
        for m, c in self.terms.items():
            order = sum(e for v, e in m if v in scaled)
            comps.setdefault(order, {})[m] = c
        return {d: Poly(t) for d, t in comps.items()}

    def divide_by_subset_sum(self, S) -> "Poly | None":
        """Exact quotient by l_S, or None when the division has a remainder.

        If l_S divides p then p = l_S * q vanishes wherever l_S does, so one
        nonzero value of p on the hyperplane l_S = 0 proves a remainder.  The
        division therefore starts by evaluating p at one fixed integer point
        of that hyperplane and returns None when the value is nonzero.  A
        zero value proves nothing, and the long division decides.
        """
        S = frozenset(S)
        if self.is_zero():
            return Poly.zero()
        if self.evaluate(_hyperplane_point(S)):
            return None
        v = min(S)
        rest = S - {v}
        by_deg: dict[int, dict] = {}
        top = 0
        for m, c in self.terms.items():
            e = 0
            for i, (w, x) in enumerate(m):
                if w == v:
                    e, m = x, m[:i] + m[i + 1:]
                    break
            top = max(top, e)
            by_deg.setdefault(e, {})[m] = c
        if top == 0:
            return None
        R = Poly.subset_sum(rest) if rest else Poly.zero()
        quotient = Poly.zero()
        prev = Poly.zero()  # q_d, descending
        for d in range(top, 0, -1):
            qd = Poly(by_deg.get(d, {})) - R * prev
            if not qd.is_zero():
                vpow = Poly.var(v, d - 1) if d > 1 else Poly.const(1)
                quotient = quotient + qd * vpow
            prev = qd
        remainder = Poly(by_deg.get(0, {})) - R * prev
        if not remainder.is_zero():
            return None
        return quotient

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in m)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# rational functions with subset-sum denominators
# ---------------------------------------------------------------------------

def _den_scale(target: dict, own: dict) -> Poly:
    out = Poly.const(1)
    for S, e in target.items():
        gap = e - own.get(S, 0)
        if gap:
            out = out * Poly.subset_sum(S) ** gap
    return out


class RationalFn:
    """Numerator polynomial over a product of subset-sum powers.

    The canonical form shares no subset-sum factor between numerator and
    denominator: construction attempts exact division by every factor.
    Most attempts fail, and each failure is usually proved without a long
    division, by a nonzero value of the numerator on the hyperplane l_S = 0
    (see ``Poly.divide_by_subset_sum``).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den=None):
        den = {frozenset(S): e for S, e in (den or {}).items() if e}
        if any(e < 0 for e in den.values()):
            raise ValueError("denominator exponents must be positive")
        if num.is_zero():
            den = {}
        else:
            for S in list(den):
                while den[S] > 0:
                    q = num.divide_by_subset_sum(S)
                    if q is None:
                        break
                    num = q
                    den[S] -= 1
                if not den[S]:
                    del den[S]
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn(Poly.zero())

    @staticmethod
    def one() -> "RationalFn":
        return RationalFn(Poly.const(1))

    # -- field-ish operations --------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        den = dict(self.den)
        for S, e in other.den.items():
            den[S] = max(den.get(S, 0), e)
        num = self.num * _den_scale(den, self.den) + other.num * _den_scale(den, other.den)
        return RationalFn(num, den)

    def __neg__(self) -> "RationalFn":
        out = RationalFn.__new__(RationalFn)
        out.num = -self.num
        out.den = dict(self.den)
        return out

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return RationalFn(self.num * other, self.den)
        den = dict(self.den)
        for S, e in other.den.items():
            den[S] = den.get(S, 0) + e
        return RationalFn(self.num * other.num, den)

    __rmul__ = __mul__

    def over_subset_sum(self, S, e: int = 1) -> "RationalFn":
        """Divide by l_S^e."""
        den = dict(self.den)
        key = frozenset(S)
        den[key] = den.get(key, 0) + e
        return RationalFn(self.num, den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return (self - other).is_zero()

    def variables(self) -> frozenset[int]:
        out = self.num.variables()
        for S in self.den:
            out |= S
        return out

    def derivative(self, v: int) -> "RationalFn":
        out = RationalFn(self.num.derivative(v), self.den)
        for S, e in self.den.items():
            if v in S:
                den = dict(self.den)
                den[S] = e + 1
                out = out + RationalFn(self.num * -e, den)
        return out

    def evaluate(self, point: dict[int, object]):
        """The value at a point: exact at int or Fraction points, float at float ones.

        With a denominator, an exact point is evaluated in integers.  Let D be
        the lcm of the point's denominators, so lambda_v = a_v / D with a_v an
        integer, and let top be the largest total degree in the numerator.  Then
        D^top num(lambda) = N = sum_m c_m a^m D^(top - |m|), which needs no
        homogeneity, and l_S(lambda)^e = (sum_{i in S} a_i)^e / D^e.  So the value
        is N D^(E - top) / Q, with Q = prod_S (sum_{i in S} a_i)^e and E the sum of
        the exponents: one Fraction, built at the end.  It is the rational that
        Fraction arithmetic term by term gives, so ``float`` of it is the same
        double.  A Fraction coefficient keeps N exact, and Q = 0 raises
        ZeroDivisionError.  Without a denominator, and at a float point, this is
        ``Poly.evaluate`` followed by one division per factor.
        """
        if self.den and all(isinstance(point[v], (int, Fraction)) for v in self.variables()):
            return self._evaluate_exact(point)
        val = self.num.evaluate(point)
        for S, e in self.den.items():
            val = val / sum(point[i] for i in S) ** e
        return val

    def _evaluate_exact(self, point: dict[int, int | Fraction]) -> Fraction:
        xs = {v: point[v] for v in self.variables()}
        D = math.lcm(*(x.denominator for x in xs.values()))
        a = {v: x.numerator * (D // x.denominator) for v, x in xs.items()}
        terms = []
        for m, c in self.num.terms.items():
            deg = 0
            for v, e in m:
                c = c * a[v] ** e
                deg += e
            terms.append((deg, c))
        top = max((deg for deg, _ in terms), default=0)
        N = sum(c * D ** (top - deg) for deg, c in terms)
        Q, E = 1, 0
        for S, e in self.den.items():
            Q *= sum(a[i] for i in S) ** e
            E += e
        return Fraction(N * D ** (E - top), Q) if E >= top else Fraction(N, Q * D ** (top - E))

    # -- display / serialization ----------------------------------------------

    def __repr__(self) -> str:
        if not self.den:
            return repr(self.num)
        dbits = []
        for S, e in sorted(self.den.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            name = "l" + "".join(str(i) for i in sorted(S))
            dbits.append(f"{name}^{e}" if e > 1 else name)
        return f"({self.num!r}) / ({' '.join(dbits)})"


def face_limit(f: RationalFn, flag: Flag, radial=()) -> RationalFn:
    """lim(f P) / P toward the blow-up face of ``flag``, taken in one pass, where
    P = prod_{i in radial} l_{B(i)} and B(i) is the block of vertex i.

    The face is reached by a sequential degeneration: for j = m-1 down to 1
    (m blocks), every variable in blocks j, j+1, ... is scaled by a common
    eps -> 0+, so each block becomes infinitesimal relative to the one before
    it.  A variable outside the flag counts as block 0, so it is never scaled.

    Let lo(S) be the first block that S meets.  Then l_S has order 1 in every
    step j <= lo(S), order 0 in the others, and tends to l_{S & V_lo(S)}.  The
    numerator keeps its least-order part at each step; a step whose numerator
    order exceeds the accumulated denominator order gives zero, and one with
    a lower order raises DivergentLimit.

    In a step, P has order |radial & scaled|: l_{B(i)} has order 1 exactly when
    B(i) is scaled, and tends to itself.  Nothing is cancelled between steps, and
    nothing needs to be: a common factor of numerator and denominator changes
    neither the order difference nor the limit, both properties of the function.

    On p_F = ``poisson_probability(F)`` the limit is the Poisson race's own
    (a reading, not how it is computed).  Toward G's face every rate in G's
    block g is scaled by eps^g, so F's block V_j completes on the time scale
    of lo_j, the first G-block it meets, at rate l_{V_j & G_lo}.  Faster
    blocks complete first, so the limit is 0 unless lo_j never decreases
    along F; otherwise it is the product over each run of equal lo of the
    chance that the run's blocks complete in order, block j needing |V_j|
    arrivals at rate l_{V_j & G_lo}.
    """
    blocks = flag.blocks
    if f.num.is_zero() or len(blocks) == 1:
        return f
    where = {v: j for j, b in enumerate(blocks) for v in b}
    lo = {S: min(where.get(v, 0) for v in S) for S in f.den}
    num = f.num
    scaled = frozenset()
    for j in range(len(blocks) - 1, 0, -1):
        scaled |= frozenset(blocks[j])
        orders = num.epsilon_split(scaled)
        a = min(orders)
        b = sum(e for S, e in f.den.items() if lo[S] >= j) - len(scaled.intersection(radial))
        if a > b:
            return RationalFn.zero()
        if a < b:
            raise DivergentLimit(
                f"limit toward the face of {flag} diverges at step {j}: "
                f"numerator order {a} < denominator order {b}"
            )
        num = orders[a]
    den: dict[frozenset, int] = {}
    for S, e in f.den.items():
        S2 = frozenset(v for v in S if where.get(v, 0) == lo[S])
        den[S2] = den.get(S2, 0) + e
    return RationalFn(num, den)


# ---------------------------------------------------------------------------
# differential forms
# ---------------------------------------------------------------------------

class RationalForm:
    """A differential k-form with RationalFn coefficients.

    Terms are keyed by sorted index subsets W, representing the ascending
    wedge of the dlambda_w; the coefficient sign absorbs any reordering.
    The terms are never changed after construction.
    """

    __slots__ = ("degree", "terms", "_variables")

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        t: dict[frozenset, RationalFn] = {}
        for W, f in (terms or {}).items():
            W = frozenset(W)
            if len(W) != degree:
                raise ValueError(f"term {sorted(W)} has wrong degree (expected {degree})")
            if not f.is_zero():
                t[W] = f
        self.terms = t
        self._variables = None

    @staticmethod
    def zero(degree: int = 0) -> "RationalForm":
        return RationalForm(degree)

    @staticmethod
    def function(f: RationalFn) -> "RationalForm":
        return RationalForm(0, {frozenset(): f})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalForm):
            return NotImplemented
        return (self - other).is_zero()

    def __add__(self, other: "RationalForm") -> "RationalForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        t = dict(self.terms)
        for W, f in other.terms.items():
            s = t.get(W)
            t[W] = f if s is None else s + f
        return RationalForm(self.degree, t)

    def __neg__(self) -> "RationalForm":
        return RationalForm(self.degree, {W: -f for W, f in self.terms.items()})

    def __sub__(self, other: "RationalForm") -> "RationalForm":
        return self + (-other)

    def __mul__(self, other):
        """Multiply by a scalar, Poly, or RationalFn (function times form)."""
        return RationalForm(self.degree, {W: f * other for W, f in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "RationalForm") -> "RationalForm":
        out: dict[frozenset, RationalFn] = {}
        for Wa, fa in self.terms.items():
            sa = tuple(sorted(Wa))
            for Wb, fb in other.terms.items():
                if Wa & Wb:
                    continue
                sign = perm_sign(sa + tuple(sorted(Wb)))
                W = Wa | Wb
                contrib = fa * fb * sign
                s = out.get(W)
                out[W] = contrib if s is None else s + contrib
        return RationalForm(self.degree + other.degree, out)

    def exterior_derivative(self) -> "RationalForm":
        out: dict[frozenset, RationalFn] = {}
        for W, f in self.terms.items():
            sw = tuple(sorted(W))
            for v in f.variables():
                if v in W:
                    continue
                df = f.derivative(v)
                if df.is_zero():
                    continue
                pos = sum(1 for w in sw if w < v)
                sign = -1 if pos % 2 else 1
                key = W | {v}
                contrib = df * sign
                s = out.get(key)
                out[key] = contrib if s is None else s + contrib
        return RationalForm(self.degree + 1, out)

    def variables(self) -> frozenset[int]:
        """Every index in a dlambda or a coefficient, found on the first call."""
        if self._variables is None:
            out = frozenset()
            for W, f in self.terms.items():
                out |= W | f.variables()
            self._variables = out
        return self._variables

    def coefficient(self, W) -> RationalFn:
        return self.terms.get(frozenset(W), RationalFn.zero())

    def __repr__(self) -> str:
        if not self.terms:
            return f"0 (degree {self.degree})"
        bits = []
        for W, f in sorted(self.terms.items(), key=lambda kv: sorted(kv[0])):
            wedge = "^".join(f"dx{w}" for w in sorted(W)) or "1"
            bits.append(f"[{f!r}] {wedge}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# display and serialization
# ---------------------------------------------------------------------------

def _subset_latex(S) -> str:
    ids = sorted(S)
    if all(i <= 9 for i in ids):
        return r"\lambda_{" + "".join(str(i) for i in ids) + "}"
    return r"\lambda_{\{" + ",".join(str(i) for i in ids) + r"\}}"


def _mono_latex(m: Mono) -> str:
    bits = []
    for v, e in m:
        base = rf"\lambda_{{{v}}}"
        bits.append(base if e == 1 else base + f"^{{{e}}}")
    return " ".join(bits)


def rational_fn_latex(f: RationalFn) -> str:
    if f.num.is_zero():
        return "0"
    parts = []
    for m, c in sorted(f.num.terms.items()):
        coeff = {1: "", -1: "-"}.get(c, str(c)) if m else str(c)
        body = _mono_latex(m)
        parts.append(coeff + (r"\," if coeff and body else "") + body)
    num = " + ".join(parts).replace("+ -", "- ")
    if not f.den:
        return num
    dbits = []
    for S, e in sorted(f.den.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        b = _subset_latex(S)
        dbits.append(b if e == 1 else b + f"^{{{e}}}")
    return rf"\frac{{{num}}}{{{' '.join(dbits)}}}"


def form_latex(form: RationalForm) -> str:
    if form.is_zero():
        return "0"
    bits = []
    for W, f in sorted(form.terms.items(), key=lambda kv: sorted(kv[0])):
        wedge_txt = r" \wedge ".join(rf"d\lambda_{{{w}}}" for w in sorted(W))
        coeff = rational_fn_latex(f)
        bits.append(rf"\left({coeff}\right) {wedge_txt}".strip())
    return " + ".join(bits)


def rational_fn_to_json(f: RationalFn) -> dict:
    return {
        "num": {
            " ".join(f"{v}:{e}" for v, e in m): str(c)
            for m, c in sorted(f.num.terms.items())
        },
        "den": [
            {"S": sorted(S), "e": e}
            for S, e in sorted(f.den.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ],
    }


def form_to_json(form: RationalForm) -> dict:
    return {
        "degree": form.degree,
        "terms": [
            {"dlambda": sorted(W), **rational_fn_to_json(f)}
            for W, f in sorted(form.terms.items(), key=lambda kv: sorted(kv[0]))
        ],
    }
