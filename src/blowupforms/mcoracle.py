"""Monte Carlo oracle for the exact probabilities and face integrals.

Simulates the Poisson ensembles directly in 64-bit floats, firewalled from
the exact core: exact rationals cross the boundary only as float rates and
expected values, and the face integral evaluates the exact forms' rational
coefficients at float points, on the tangent frame by ``dof.tangent_sign``.
The samples are i.i.d., so a sample's index
carries no information and a probability's estimate needs only the number
of samples that hit.  Both races are therefore run on populations, never
on arrays of samples.  A flag's blocks finish in flag order or not according to the
block labels of the merged arrivals alone: the labels are i.i.d. with odds
l_{V_j} over the running blocks' rates and independent of the arrival times
(competing exponentials), so the race runs on its embedded jump chain, and
each occupied state splits its samples by one multinomial draw.  An
arrival sequence's rounds are chains of conditional binomials, one link per
source, and the samples whose counts still match after a link with success
probability q are Binomial(alive, q), one scalar draw.  Either way the hits
are Binomial(n, p), the law of the per-sample race, and the draws do not
grow with n.

The races draw from ``RaceRandom``, the standard library's Mersenne Twister
with a binomial sampler (a port of CPython 3.12's ``binomialvariate``) and
a multinomial built as a chain of conditional binomials (Devroye 1986,
ch. X), so they need no numpy.  The face integral draws Dirichlet points
for many samples at once from numpy's SFC64 (``generator``), the one place
that imports numpy.  The CLI seeds each case with (seed, trial, *label
bytes), so every estimate is reproducible from (seed, samples) and the case
label, in any process and on any supported Python.

The concordance rule shared by the CLI and the acceptance suite also lives
here: an estimate agrees with its exact value within 3 standard errors; a
miss is re-run once at 10x the samples, and at most 1% of cases may need
that re-run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, fabs, floor, fsum, lgamma, log, log2, sqrt

from .dof import tangent_sign
from .flagcomb import ArrivalSequence, Flag
from .shadow import flag_omega
from .symexpr import RationalForm

# the generators that draw the races (pF and degree-r cases) and the face
# integrals (DOF cases), as a report names them
RNG_ALGORITHM = "random.Random.MT19937"
FACE_RNG_ALGORITHM = "numpy.random.SFC64"
# the ratio of successive radii on a face integral's ladder.  The estimate's
# error is first order in it: on every (H, psi_F) pair on 3 and 4 vertices,
# k = 1 and 2, it stayed within 5.4e-9 at 1e-10 and 5.4e-7 at 1e-8.  The
# smallest radius, eps^5 times the blocks' smallest barycentres at 6 blocks
# (6 vertices), stays far inside double range.
FACE_EPS = 1e-10


class RaceRandom(random.Random):
    """The races' generator (``RNG_ALGORITHM``): ``random.Random`` under an int or int-tuple seed.

    The seed is read as the text of its ints joined by commas, an int as the
    1-tuple.  A text seed is hashed with sha512, so the stream depends neither
    on ``PYTHONHASHSEED`` nor on the Python version, and every case seeds a
    stream of its own.
    """

    def __init__(self, seed: int | tuple[int, ...]):
        super().__init__(",".join(map(str, seed if isinstance(seed, tuple) else (seed,))))

    def binomial(self, n: int, p: float) -> int:
        """A Binomial(n, p) draw: a port of CPython 3.12's ``Random.binomialvariate``.

        The geometric method (Devroye 1986, ch. X) when np < 10, else Hörmann's
        transformed rejection with squeeze, BTRS (J. Stat. Comput. Simul. 46,
        1993), after the symmetry p -> 1 - p for p > 0.5.  The port draws the
        same stream as ``binomialvariate`` on every Python, including those
        that lack it.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if p <= 0.0 or p >= 1.0:
            if p == 0.0:
                return 0
            if p == 1.0:
                return n
            raise ValueError("p must be in the range 0.0 <= p <= 1.0")
        uniform = self.random
        if n == 1:
            return int(uniform() < p)
        if p > 0.5:
            return n - self.binomial(n, 1.0 - p)
        if n * p < 10.0:
            # geometric: the gaps between successes are Geometric(p), O(np) draws
            x = y = 0
            c = log2(1.0 - p)
            if not c:
                return x
            while True:
                y += floor(log2(uniform()) / c) + 1
                if y > n:
                    return x
                x += 1
        # BTRS, np >= 10 and p <= 0.5
        setup_complete = False
        spq = sqrt(n * p * (1.0 - p))  # the standard deviation
        b = 1.15 + 2.53 * spq
        a = -0.0873 + 0.0248 * b + 0.01 * p
        c = n * p + 0.5
        vr = 0.92 - 4.2 / b
        while True:
            u = uniform()
            u -= 0.5
            us = 0.5 - fabs(u)
            k = floor((2.0 * a / us + b) * u + c)
            if k < 0 or k > n:
                continue
            # the squeeze accepts most draws without the acceptance test
            v = uniform()
            if us >= 0.07 and v <= vr:
                return k
            # the acceptance test, with the log(v) that the paper omits
            if not setup_complete:
                alpha = (2.83 + 5.1 / b) * spq
                lpq = log(p / (1.0 - p))
                m = floor((n + 1) * p)  # the mode
                h = lgamma(m + 1) + lgamma(n - m + 1)
                setup_complete = True
            v *= alpha / (a / (us * us) + b)
            if log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
                return k

    def multinomial(self, n: int, pvals: list[float]) -> list[int]:
        """A Multinomial(n, pvals) draw as a chain of conditional binomials.

        Category i takes Binomial(left, pvals[i] / sum(pvals[i:])) of the
        ``left`` draws not yet assigned (Devroye 1986, ch. X), and the last
        takes the rest; the chain stops drawing once none is left.  The sums
        are ``fsum``'s, correctly rounded: ``sum`` of floats rounds
        differently from Python 3.12 on.
        """
        counts = []
        for i, p in enumerate(pvals[:-1]):
            k = self.binomial(n, p / fsum(pvals[i:])) if n else 0
            counts.append(k)
            n -= k
        counts.append(n)
        return counts


def generator(seed):
    """The face integral's numpy generator: SFC64 (``FACE_RNG_ALGORITHM``) under ``seed``.

    Every case seeds its own generator, so the streams need no skip-ahead and
    a small-state generator serves; SFC64 draws uniforms and Gammas faster
    than the counter-based Philox.
    """
    import numpy as np

    return np.random.Generator(np.random.SFC64(seed))


class SimulationConfig:
    """Rates per vertex id (positive rationals), sample count, and an int or int-tuple seed."""

    def __init__(self, rates: dict[int, Fraction], samples: int, seed: int | tuple[int, ...]):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if any(r <= 0 for r in rates.values()):
            raise ValueError("rates must be positive")
        self.rates = rates
        self.samples = samples
        self.seed = seed

    def rng(self) -> RaceRandom:
        return RaceRandom(self.seed)


class Estimate:
    def __init__(self, mean: float, stderr: float, samples: int):
        self.mean = mean
        self.stderr = stderr
        self.samples = samples

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


def _hit_estimate(hits: int, n: int) -> Estimate:
    """The binomial estimate of a probability from ``hits`` successes in ``n`` samples."""
    mean = hits / n
    return Estimate(mean=mean, stderr=sqrt(mean * (1.0 - mean) / n), samples=n)


def estimate_pF(flag: Flag, cfg: SimulationConfig) -> Estimate:
    """Estimate the probability that blocks complete in flag order.

    Block j is a Poisson process of rate l_{V_j}, the sum of its vertices'
    rates, and completes at its |V_j|-th arrival.  Merged, the blocks'
    arrivals carry labels that are i.i.d., label j with probability l_{V_j}
    over the sum of the running blocks' rates, and independent of the
    arrival times (competing exponentials); a completed block drops out, by
    memorylessness.  So the completion order is a function of the label
    sequence alone (ties have probability 0), and the race runs on its
    embedded jump chain.  A state is (i, counts): block i must complete
    next, and ``counts`` holds the arrivals so far of blocks i, i + 1, ....
    Each step, the ``alive`` samples in each occupied state split over the
    next label by one Multinomial(alive, l_{V_j} / sum_{j' >= i} l_{V_j'})
    draw, a chain of scalar conditional binomials (``RaceRandom.multinomial``).
    The samples whose arrival fills a later block first are out of order and
    drop.  Those that fill block i move on to block i + 1,
    or hit if i is the second to last block, since the last one then
    completes last.  The samples in a state step independently, so the
    split is the per-sample chains grouped by state, and the hits are
    Binomial(n, p_F), the law of the per-sample race, drawn in one
    multinomial per state whatever n is.  A single block is in order with
    probability 1 and draws nothing.
    """
    n = cfg.samples
    if len(flag.blocks) == 1:
        return _hit_estimate(n, n)
    rng = cfg.rng()
    sizes = [len(block) for block in flag.blocks]
    rates = [float(sum(cfg.rates[v] for v in block)) for block in flag.blocks]
    odds = [[rate / fsum(rates[i:]) for rate in rates[i:]] for i in range(len(sizes) - 1)]
    hits = 0
    # the occupied states after the same number of arrivals, with their samples
    level = {(0, (0,) * len(sizes)): n}
    while level:
        after = {}
        for (i, counts), alive in level.items():
            for j, moved in enumerate(rng.multinomial(alive, odds[i])):
                if not moved:
                    continue
                if counts[j] + 1 < sizes[i + j]:
                    state = (i, counts[:j] + (counts[j] + 1,) + counts[j + 1:])
                elif j:  # a later block completes first: out of order
                    continue
                elif i + 2 == len(sizes):
                    hits += moved
                    continue
                else:
                    state = (i + 1, counts[1:])
                after[state] = after.get(state, 0) + moved
        level = after
    return _hit_estimate(hits, n)


def estimate_higher(seq: ArrivalSequence, cfg: SimulationConfig) -> Estimate:
    """Estimate the probability of one degree-r arrival sequence.

    Each round, the sources of the first r arrivals of the active streams
    are independent draws with odds lambda_i / l_A (competing exponentials),
    so their counts are Multinomial(r, lambda_A / l_A).  A multinomial is a
    chain of conditional binomials (Devroye 1986, ch. X): in sorted order,
    source v gets Binomial(left, p) of the ``left`` arrivals not yet
    assigned, p = lambda_v / mass, where ``mass`` is the rate of v and the
    sources after it.  A sample matches the link with probability
    q = comb(left, want) p^want (1 - p)^(left - want), independently of the
    other samples, so of the ``alive`` samples that have matched so far a
    Binomial(alive, q) number match this link too (binomial thinning), and
    the hits are Binomial(n, prod q), the law of the per-sample chain.  So
    each link is one scalar draw, and a link with nothing left to assign
    (q = 1) draws nothing.  The last source takes the remainder, which
    equals its target, since both the counts and the target sum to r.
    Sequences whose rounds reference already-silenced sources get estimate 0.
    """
    rng = cfg.rng()
    n = cfg.samples
    alive = n
    active = sorted(cfg.rates)
    for rnd, silenced in zip(seq.rounds, seq.silenced):
        target = {v: c for v, c in rnd if c}
        if not set(target) <= set(active):
            return Estimate(mean=0.0, stderr=0.0, samples=n)
        left, mass = seq.r, sum(cfg.rates[v] for v in active)
        for v in active[:-1]:
            if not left:
                break
            want = target.get(v, 0)
            p = float(cfg.rates[v] / mass)
            q = comb(left, want) * p ** want * (1.0 - p) ** (left - want)
            alive = rng.binomial(alive, q)
            left -= want
            mass -= cfg.rates[v]
        silenced = set(silenced)
        active = [v for v in active if v not in silenced]
    return _hit_estimate(alive, n)


# ---------------------------------------------------------------------------
# face integrals on a per-sample ladder
# ---------------------------------------------------------------------------

def _tangent_values(form: RationalForm, flag: Flag, point: dict):
    """The form at ``point`` on Theta_F's tangent frame, vectorized over samples:
    each term's value on the frame is the integer ``tangent_sign``."""
    import numpy as np

    total = np.zeros(next(iter(point.values())).shape[0])
    for W, f in form.terms.items():
        sign = tangent_sign(flag, W)
        if sign:
            total = total + f.evaluate(point) * sign
    return total


def estimate_face_integral(flag: Flag, form: RationalForm, samples: int,
                           seed: int | tuple[int, ...]) -> Estimate:
    """Monte Carlo value of the degree of freedom attached to ``flag``.

    Samples Theta_F uniformly (per-block Dirichlet theta) and places each
    sample on a ladder of its own: rho_0 = 1 and rho_{j+1} = rho_j * eps *
    min_{v in V_j} theta_v, eps = ``FACE_EPS``, at the point lambda_v =
    theta_v rho_j / sum(rho) for v in block j.  Every ratio lambda_w /
    lambda_v of a later block's vertex w to an earlier block's v is then at
    most eps, so the point tends to the sample's point of the face as
    eps -> 0, and the integrand differs from its value there by O(eps).  A
    ladder shared by all samples (rho_j = eps^j) does not: near a corner of
    Theta_F it crosses the neighbouring exceptional faces, and the estimate
    tends to the DOF of a chain of faces.  The form and omega_F are evaluated on
    the tangent frame e_v - e_{max V_j} as in ``dof.restrict_to_theta``; both
    are multilinear in it, so its scale and order cancel in their ratio,
    whose sample mean and standard error are the estimate.  A form whose face
    limit diverges gives an estimate of order 1/eps, not an error.  The
    ``samples`` draws come from ``generator(seed)``; no rate enters.
    """
    if form.degree != flag.k:
        raise ValueError("form degree must match the flag")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    import numpy as np

    rng = generator(seed)
    theta = {}
    for block in flag.blocks:
        draws = rng.dirichlet(np.ones(len(block)), size=samples)
        for idx, v in enumerate(block):
            theta[v] = draws[:, idx]
    radii = [np.ones(samples)]
    for block in flag.blocks[:-1]:
        radii.append(radii[-1] * FACE_EPS * np.minimum.reduce([theta[v] for v in block]))
    total_r = sum(radii)
    point = {v: theta[v] * radii[j] / total_r
             for j, block in enumerate(flag.blocks) for v in block}
    vals = _tangent_values(form, flag, point) / _tangent_values(flag_omega(flag), flag, point)
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return Estimate(mean=float(vals.mean()), stderr=stderr, samples=samples)


# ---------------------------------------------------------------------------
# concordance with exact values
# ---------------------------------------------------------------------------

def random_rates(rng: RaceRandom, V) -> dict[int, Fraction]:
    """A random rate per vertex: a ratio of two integers drawn from 1..4."""
    return {v: Fraction(rng.randrange(1, 5), rng.randrange(1, 5)) for v in V}


def concordant(est: Estimate, exact: float) -> bool:
    """True iff ``est`` lies within 3 standard errors of ``exact``.

    A run with zero observed spread still carries sampling noise, so it is
    judged against the binomial error of the exact probability instead.
    """
    stderr = est.stderr
    if stderr == 0.0 and 0 < exact < 1:
        stderr = (exact * (1 - exact) / est.samples) ** 0.5
    return abs(est.mean - exact) <= 3 * stderr


def check_concordance(run, exact: float, samples: int,
                      seed: tuple[int, ...]) -> tuple[Estimate, bool, bool]:
    """Apply the concordance rule to one case; returns (estimate, escalated, ok).

    ``run(samples, seed)`` draws one estimate.  The first run draws under
    ``seed``; the single re-run, at 10x the samples, under ``(*seed, 256)``.
    The re-run's stream is disjoint from every first run's unless some first-run
    seed is another one with 256 appended; it is enough that none ends in 256.
    """
    est = run(samples, seed)
    if concordant(est, exact):
        return est, False, True
    est = run(10 * samples, (*seed, 256))
    return est, True, concordant(est, exact)


def within_escalation_budget(escalated: int, cases: int) -> bool:
    """True iff at most 1% of the cases needed a re-run (vacuous for no cases)."""
    return 100 * escalated <= cases
