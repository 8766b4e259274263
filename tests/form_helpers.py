"""Small constructors and predicates that only the tests need."""

from blowupforms.symexpr import RationalFn, RationalForm


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
