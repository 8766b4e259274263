"""Exact symbolic arithmetic for barycentric rational differential forms.

Everything here is built from three layers:

* ``Poly`` -- multivariate polynomials in the variables ``lambda_i`` with
  exact rational coefficients.  A coefficient is stored as a Python ``int``
  whenever it is integral and as a non-integral ``Fraction`` otherwise; the
  polynomials built from subset sums are integral, so their arithmetic
  never leaves ``int``.
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


def _exact(c):
    """c as an int when it is integral, else as a non-integral Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


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
    """Multivariate polynomial over exact rationals; integral coefficients are ints."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t: dict[Mono, int | Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    t[m] = c
        self.terms = t

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
                t[m] = s if type(s) is int else _exact(s)
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
            out.terms = {m: _exact(c * other) for m, c in self.terms.items()}
            return out
        t: dict[Mono, int | Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = t.get(m, 0) + ca * cb
                if s:
                    t[m] = s if type(s) is int else _exact(s)
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

    def substitute_one(self, v: int) -> "Poly":
        """Substitute lambda_v -> 1."""
        t: dict[Mono, int | Fraction] = {}
        for m, c in self.terms.items():
            key = tuple((w, e) for w, e in m if w != v)
            s = t.get(key, 0) + c
            if s:
                t[key] = s
            else:
                t.pop(key, None)
        return Poly(t)

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
        """The value at a point: exact at int or Fraction points, float at float ones."""
        val = self.num.evaluate(point)
        for S, e in self.den.items():
            q = sum(point[i] for i in S) ** e
            # int / int is float division; keep an all-int point exact
            val = Fraction(val, q) if type(val) is int and type(q) is int else val / q
        return val

    # -- display / serialization ----------------------------------------------

    def __repr__(self) -> str:
        if not self.den:
            return repr(self.num)
        dbits = []
        for S, e in sorted(self.den.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            name = "l" + "".join(str(i) for i in sorted(S))
            dbits.append(f"{name}^{e}" if e > 1 else name)
        return f"({self.num!r}) / ({' '.join(dbits)})"


def face_limit(f: RationalFn, flag: Flag) -> RationalFn:
    """The limit of f toward the blow-up face of ``flag``, taken in one pass.

    The face is reached by a sequential degeneration: for j = m-1 down to 1
    (m blocks), every variable in blocks j, j+1, ... is scaled by a common
    eps -> 0+, so each block becomes infinitesimal relative to the one before
    it.  The scaled variables survive as angular coordinates.  A variable
    outside the flag counts as block 0, so it is never scaled.

    Let lo(S) be the first block that S meets.  Then l_S has order 1 in every
    step j <= lo(S), order 0 in the others, and tends to l_{S & V_lo(S)}.  The
    numerator keeps its least-order part at each step; a step whose numerator
    order exceeds the accumulated denominator order gives zero, and one with
    a lower order raises DivergentLimit.

    Nothing is cancelled between steps, and nothing needs to be.  A common
    factor l_T of numerator and denominator has the same order and the same
    least-order part (the truncation of l_T) on both sides in every step, so
    it changes neither the order difference nor the limit: both are
    properties of the function, not of how it is written.
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
        b = sum(e for S, e in f.den.items() if lo[S] >= j)
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
    """

    __slots__ = ("degree", "terms")

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
        out = frozenset()
        for W, f in self.terms.items():
            out |= W | f.variables()
        return out

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
# equality on the simplex slice l_V = 1
# ---------------------------------------------------------------------------

def vanishes_on_slice(f: RationalFn, V) -> bool:
    """True iff f is identically zero on the slice l_V = 1.

    Splits the numerator into dilation-homogeneous components and
    rehomogenizes with powers of l_V; the result is zero as a rational
    function iff the restriction to the slice vanishes.
    """
    if f.num.is_zero():
        return True
    comps = f.num.epsilon_split(f.num.variables())
    top = max(comps)
    lv = Poly.subset_sum(V)
    total = Poly.zero()
    for d, p in comps.items():
        total = total + p * lv ** (top - d)
    return total.is_zero()


def reduce_mod_dlv(form: RationalForm, blocks) -> RationalForm:
    """Rewrite modulo d(l_B) for each block B: dlambda_{max B} -> -sum of the others.

    The result involves no dlambda_{max B} and represents the same form on
    vectors tangent to every slice l_B = const; a singleton block's dlambda
    drops.  Moving the substituted dlambda_i from the slot of max B to its
    own slot passes the members of W strictly between i and max B.  The
    blocks are disjoint, so substituting block by block is substituting all
    at once.
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


def forms_equal_on_simplex(a: RationalForm, b: RationalForm, V) -> bool:
    """Exact equality of two forms as forms on the simplex T_V.

    Both sides are restricted to vectors tangent to the slice l_V = 1 and
    the coefficients are compared after rehomogenization.
    """
    diff = reduce_mod_dlv(a - b, [V])
    return all(vanishes_on_slice(f, V) for f in diff.terms.values())


# ---------------------------------------------------------------------------
# display and serialization
# ---------------------------------------------------------------------------

def _subset_latex(S) -> str:
    ids = sorted(S)
    if all(i <= 9 for i in ids):
        return r"\lambda_{" + "".join(str(i) for i in ids) + "}"
    return r"\lambda_{\{" + ",".join(str(i) for i in ids) + r"\}}"


def _mono_latex(m: Mono) -> str:
    if not m:
        return "1"
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
        coeff = "" if c == 1 and m else str(c)
        if c == -1 and m:
            coeff = "-"
        body = _mono_latex(m) if m else ("" if coeff else "1")
        parts.append((coeff + (r"\," if coeff and body else "") + body) or "1")
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
