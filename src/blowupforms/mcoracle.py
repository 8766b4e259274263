"""Monte Carlo oracle for the exact probabilities and face integrals.

Simulates the Poisson ensembles directly in 64-bit floats, firewalled from
the exact core: exact rationals cross the boundary only as float rates and
expected values.  Draws are made only for what can still count.  A flag's
first block completes at an Erlang time, -log of a product of uniforms
(each drawn as 1 - u, in (0, 1], so the log is never of 0), for every
sample, and each later block only for the samples whose completion times
are still in flag order.  The samples run in chunks of ``CHUNK``, in one
workspace of chunk arrays that the process allocates once and every flag
race reuses, so a run holds the arrays of one chunk, not of all n samples,
and does not fault in fresh pages for each block.  The workspace is state
of the process, which is safe because estimates never run concurrently: the
package starts no threads.  An arrival sequence draws no array at all: its
rounds are chains of conditional binomials, one link per source, and the
samples whose counts still match after a link with success probability q
are Binomial(alive, q), one scalar draw.  The
samples are i.i.d., so a sample's index carries no information and the
estimate needs only the number that survive.  Never build a samples x
columns matrix and reduce it along axis 1: on 100 000 rows of 2-3 columns
``np.all(..., axis=1)`` costs about ten times a chain of 1-D tests.  This
is the one module of the package that imports numpy, and ``generator`` the
one place that builds its SFC64 generator.
The CLI seeds each case with (seed, trial, *label bytes), so every estimate
is reproducible from (seed, samples) and the case label, in any process.

The concordance rule shared by the CLI and the acceptance suite also lives
here: an estimate agrees with its exact value within 3 standard errors; a
miss is re-run once at 10x the samples, and at most 1% of cases may need
that re-run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb

import numpy as np

from .flagcomb import ArrivalSequence, Flag, perm_sign
from .shadow import flag_omega
from .symexpr import RationalForm

RNG_ALGORITHM = "numpy.random.SFC64"
# the two ladder parameters of a face integral, and the relative tolerance
# within which their estimates must agree (beyond sampling noise)
FACE_EPS = (1e-3, 1e-4)
FACE_RTOL = 1e-2
# samples per chunk of a flag race: the most any run holds in memory at once.
# It fixes which uniforms go to which block, so changing it changes every
# estimate of more than one chunk
CHUNK = 1 << 16


def generator(seed) -> np.random.Generator:
    """The oracle's one random generator: SFC64 (``RNG_ALGORITHM``) under ``seed``.

    Every case seeds its own generator, so the streams need no skip-ahead and
    a small-state generator serves; SFC64 draws uniforms, Gammas and
    binomials faster than the counter-based Philox.
    """
    return np.random.Generator(np.random.SFC64(seed))


class ExtrapolationUnstable(ArithmeticError):
    """Two-epsilon estimates of a limiting face integral disagree."""


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

    def rng(self) -> np.random.Generator:
        return generator(self.seed)


class Estimate:
    def __init__(self, mean: float, stderr: float, samples: int):
        self.mean = mean
        self.stderr = stderr
        self.samples = samples

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


class FaceEstimate(Estimate):
    """A face integral's estimate with ``bias``, the spread between the
    estimates at the two ``FACE_EPS`` before extrapolation.  It is not the
    error of the extrapolated ``mean``, which is far smaller, but a loose
    upper bound on it; on a DOF it is still far larger than the sampling
    noise that ``stderr`` measures."""

    def __init__(self, mean: float, stderr: float, samples: int, bias: float):
        super().__init__(mean, stderr, samples)
        self.bias = bias


def _hit_estimate(hits: int, n: int) -> Estimate:
    """The binomial estimate of a probability from ``hits`` successes in ``n`` samples."""
    mean = hits / n
    return Estimate(mean=mean, stderr=float(np.sqrt(mean * (1.0 - mean) / n)), samples=n)


@cache
def _chunk_workspace() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of one chunk that every flag race of the process reuses: the
    surviving samples' times, a block's times, a block's extra uniform
    factors, and the in-order mask (about 1.6 MB)."""
    return np.empty(CHUNK), np.empty(CHUNK), np.empty(CHUNK), np.empty(CHUNK, dtype=bool)


def estimate_pF(flag: Flag, cfg: SimulationConfig) -> Estimate:
    """Estimate the probability that blocks complete in flag order.

    Block j completes at the |V_j|-th arrival of its merged process of rate
    l_{V_j}: an Erlang time, which is -log of a product of |V_j| uniforms
    over l_{V_j} (Devroye 1986, IX.3).  Each uniform is drawn as 1 - u with
    u in [0, 1), so the product lies in (0, 1] and its log is finite.  The
    first block is drawn for every sample, each later block only for the
    samples whose times are still in order, and the hits are the samples in
    order after the last block, counted without compacting.  Ties count as
    satisfied.  A single block is in order with probability 1 and draws
    nothing.

    The samples run in chunks of ``CHUNK`` and the hits are summed across
    chunks.  Every draw and every ufunc writes into slices of one workspace,
    ``_chunk_workspace()``, allocated once per process and reused by every
    chunk of every estimate; fresh arrays of a chunk would come from mmap or
    from a heap top that malloc trims back, and fault in zeroed pages on
    every block.  So an estimate allocates no float array of samples: its one
    transient array is the index of the survivors that each middle block's
    compaction builds, at most a chunk of intp.  The workspace is state of
    the process; estimates never run concurrently, as the package starts no
    threads.
    """
    n = cfg.samples
    if len(flag.blocks) == 1:
        return _hit_estimate(n, n)
    rng = cfg.rng()
    first, *middle, last = [(len(block), float(sum(cfg.rates[v] for v in block)))
                            for block in flag.blocks]
    prev_buf, times_buf, factor_buf, mask_buf = _chunk_workspace()

    def completion_times(block, out: np.ndarray) -> np.ndarray:
        vertices, rate = block
        rng.random(out=out)
        np.subtract(1.0, out, out=out)
        factor = factor_buf[:out.size]
        for _ in range(vertices - 1):
            rng.random(out=factor)
            np.multiply(out, np.subtract(1.0, factor, out=factor), out=out)
        np.log(out, out=out)
        np.divide(out, -rate, out=out)
        return out

    def chunk_hits(size: int) -> int:
        prev = completion_times(first, prev_buf[:size])
        for block in middle:
            t = completion_times(block, times_buf[:prev.size])
            kept = np.flatnonzero(np.less_equal(prev, t, out=mask_buf[:prev.size]))
            # mode="clip" writes straight into ``out``; "raise" takes a copy first
            prev = np.take(t, kept, out=prev_buf[:kept.size], mode="clip")
        t = completion_times(last, times_buf[:prev.size])
        return int(np.count_nonzero(np.less_equal(prev, t, out=mask_buf[:prev.size])))

    hits = sum(chunk_hits(min(CHUNK, n - start)) for start in range(0, n, CHUNK))
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
            alive = int(rng.binomial(alive, q))
            left -= want
            mass -= cfg.rates[v]
        silenced = set(silenced)
        active = [v for v in active if v not in silenced]
    return _hit_estimate(alive, n)


# ---------------------------------------------------------------------------
# face integrals with small-epsilon extrapolation
# ---------------------------------------------------------------------------

def _form_values(form: RationalForm, point: dict[int, np.ndarray], vectors) -> np.ndarray:
    """Evaluate a k-form on a fixed tuple of lambda-space vectors, vectorized.

    ``vectors`` is a list of sparse columns {var: float}.  The frame is the
    same at every sample, so each term's determinant is one Python float.
    """
    k = form.degree
    n = next(iter(point.values())).shape[0]
    total = np.zeros(n)
    for W, f in form.terms.items():
        sw = tuple(sorted(W))
        det = 0.0
        for perm in permutations(range(k)):
            prod = float(perm_sign(perm))
            for row, col in enumerate(perm):
                prod = prod * vectors[col].get(sw[row], 0.0)
            det = det + prod
        total = total + f.evaluate(point) * det
    return total


def estimate_face_integral(flag: Flag, form: RationalForm, cfg: SimulationConfig) -> FaceEstimate:
    """Monte Carlo value of the degree of freedom attached to ``flag``.

    Samples Theta_F uniformly (per-block Dirichlet), embeds each sample at a
    point of T whose block radii follow the ladder rho_j ~ eps^j (a path
    realizing the sequential limits), evaluates the form on a tangential
    frame, and divides by the reference volume form.  The two values of
    ``FACE_EPS`` are compared; relative disagreement beyond ``FACE_RTOL``
    (plus sampling noise) raises ExtrapolationUnstable; their spread, taken
    before the extrapolation, is returned as the estimate's ``bias``.
    """
    if form.degree != flag.k:
        raise ValueError("form degree must match the flag")
    rng = cfg.rng()
    n = cfg.samples
    theta: dict[int, np.ndarray] = {}
    for block in flag.blocks:
        draws = rng.dirichlet(np.ones(len(block)), size=n)
        for idx, v in enumerate(block):
            theta[v] = draws[:, idx]
    omega = flag_omega(flag)

    per_eps = []
    means = []
    for eps in FACE_EPS:
        radii = [eps ** j for j in range(len(flag.blocks))]
        total_r = sum(radii)
        point = {
            v: theta[v] * (radii[j] / total_r)
            for j, block in enumerate(flag.blocks)
            for v in block
        }
        vectors = []
        for j, block in enumerate(flag.blocks):
            if len(block) == 1:
                continue
            vmax = max(block)
            scale = radii[j] / total_r
            for v in block:
                if v != vmax:
                    vectors.append({v: scale, vmax: -scale})
        num = _form_values(form, point, vectors)
        den = _form_values(omega, point, vectors)
        per_eps.append(num / den)
        means.append(float(per_eps[-1].mean()))
    spread = abs(means[0] - means[1])
    scale = max(1.0, abs(means[0]), abs(means[1]))
    errs = [float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0 for v in per_eps]
    if spread > FACE_RTOL * scale + 3.0 * (errs[0] + errs[1]):
        raise ExtrapolationUnstable(
            f"estimates {means[0]:.6g} and {means[1]:.6g} disagree beyond tolerance"
        )
    # first-order Richardson in eps, applied per sample for an honest stderr
    e1, e2 = FACE_EPS
    vals = (e1 * per_eps[1] - e2 * per_eps[0]) / (e1 - e2)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return FaceEstimate(mean=mean, stderr=stderr, samples=n, bias=spread)


# ---------------------------------------------------------------------------
# concordance with exact values
# ---------------------------------------------------------------------------

def random_rates(rng: np.random.Generator, V) -> dict[int, Fraction]:
    """A random rate per vertex: a ratio of two integers drawn from 1..4."""
    return {v: Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for v in V}


def concordant(est: Estimate, exact: float) -> bool:
    """True iff ``est`` lies within 3 standard errors of ``exact``.

    A run with zero observed spread still carries sampling noise, so it is
    judged against the binomial error of the exact probability instead.
    """
    stderr = est.stderr
    if stderr == 0.0 and 0 < exact < 1:
        stderr = (exact * (1 - exact) / est.samples) ** 0.5
    return abs(est.mean - exact) <= 3 * stderr


def check_concordance(run, exact: float, samples: int) -> tuple[Estimate, bool, bool]:
    """Apply the concordance rule to one case; returns (estimate, escalated, ok).

    ``run(samples, attempt)`` draws one estimate; ``attempt`` is 0 for the
    first run and 1 for the single re-run at 10x the samples.
    """
    est = run(samples, 0)
    if concordant(est, exact):
        return est, False, True
    est = run(10 * samples, 1)
    return est, True, concordant(est, exact)


def within_escalation_budget(escalated: int, cases: int) -> bool:
    """True iff at most 1% of the cases needed a re-run (vacuous for no cases)."""
    return 100 * escalated <= cases
