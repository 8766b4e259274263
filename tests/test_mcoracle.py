import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import factorial, prod
from types import SimpleNamespace

import numpy as np
import pytest

from blowupforms.flagcomb import ArrivalSequence, Flag, enumerate_flags, perm_sign
from blowupforms.hiord import enumerate_experiments
from blowupforms.mcoracle import (
    Estimate,
    SimulationConfig,
    check_concordance,
    concordant,
    estimate_face_integral,
    estimate_higher,
    estimate_pF,
    generator,
    random_rates,
    within_escalation_budget,
)
from blowupforms.shadow import (
    basis_element,
    flag_omega,
    gram_matrix,
    omega_form,
    poisson_probability,
)


EQUAL4 = {i: Fraction(1, 4) for i in range(4)}
EQUAL3 = {i: Fraction(1, 3) for i in range(3)}


def test_deterministic_given_seed():
    cfg = SimulationConfig(rates=EQUAL4, samples=5000, seed=11)
    F = Flag.parse("0|1|2,3")
    a = estimate_pF(F, cfg)
    b = estimate_pF(F, cfg)
    assert a == b
    c = estimate_pF(F, SimulationConfig(rates=EQUAL4, samples=5000, seed=12))
    assert a != c


def test_single_block_estimate_is_exactly_one():
    cfg = SimulationConfig(rates=EQUAL3, samples=100, seed=0)
    est = estimate_pF(Flag.parse("0,1,2"), cfg)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_pF_concordance_equal_rates():
    cfg = SimulationConfig(rates=EQUAL4, samples=100_000, seed=5)
    F = Flag.parse("0|1|2,3")
    exact = float(poisson_probability(F).evaluate(EQUAL4))
    est = estimate_pF(F, cfg)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_full_flag_equal_rates_is_one_sixth():
    cfg = SimulationConfig(rates=EQUAL3, samples=200_000, seed=9)
    est = estimate_pF(Flag.parse("0|1|2"), cfg)
    assert abs(est.mean - 1 / 6) <= 3 * est.stderr


def test_gamma_sum_consistency():
    # the estimator's products of uniforms against numpy's Gamma sampler
    F = Flag.parse("0|1,2|3")
    a = estimate_pF(F, SimulationConfig(rates=EQUAL4, samples=150_000, seed=21))
    b = matrix_estimate_pF(F, SimulationConfig(rates=EQUAL4, samples=150_000, seed=22),
                           gamma_times)
    tol = 3 * (a.stderr ** 2 + b.stderr ** 2) ** 0.5
    assert abs(a.mean - b.mean) <= tol


def clock_race_counts(rates, r, samples, rng):
    """Reference for one round of estimate_higher: every source races its own
    rate-lambda_i exponential clocks; count the sources of the first r arrivals."""
    lam = np.array([float(x) for x in rates])
    m = len(lam)
    arrivals = np.cumsum(rng.standard_exponential((samples, m, r)), axis=2) / lam[None, :, None]
    first = np.argpartition(arrivals.reshape(samples, m * r), r - 1, axis=1)[:, :r]
    counts = np.zeros((samples, m), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(samples), r), (first // r).ravel()), 1)
    return counts


@pytest.mark.parametrize("r", [1, 2, 3])
def test_clock_race_counts_are_multinomial(r):
    # competing exponentials: the first r sources are Multinomial(r, lambda / l_A)
    rates = (Fraction(1, 2), Fraction(1), Fraction(5, 2))
    total = sum(rates)
    samples = 100_000
    counts = clock_race_counts(rates, r, samples, generator(61 + r))
    for k in product(range(r + 1), repeat=len(rates)):
        if sum(k) != r:
            continue
        pmf = factorial(r) / prod(factorial(c) for c in k) * float(
            prod((lam / total) ** c for lam, c in zip(rates, k)))
        freq = float(np.all(counts == np.array(k)[None, :], axis=1).mean())
        assert abs(freq - pmf) <= 3 * (pmf * (1 - pmf) / samples) ** 0.5, (k, freq, pmf)


def test_higher_concordance_and_r1_bridge():
    cfg = SimulationConfig(rates=EQUAL3, samples=150_000, seed=31)
    cands = {c.sequence.compact(): c for c in enumerate_experiments((0, 1, 2), 3)}
    c = cands["012"]
    est = estimate_higher(c.sequence, cfg)
    assert abs(est.mean - 2 / 9) <= 3 * est.stderr
    # r = 1 experiments agree with the flag probability estimates
    r1 = {c.flag: c for c in enumerate_experiments((0, 1, 2), 1)}
    F = Flag.parse("0|1|2")
    est_seq = estimate_higher(r1[F].sequence, cfg)
    exact = float(poisson_probability(F).evaluate(EQUAL3))
    assert abs(est_seq.mean - exact) <= 3 * max(est_seq.stderr, 1e-4)


def test_impossible_sequence_estimates_zero():
    # round two references a source silenced in round one
    seq = ArrivalSequence(r=1, rounds=(((0, 1),), ((1, 1),)))
    cfg = SimulationConfig(rates={0: Fraction(1), 1: Fraction(1)}, samples=10, seed=1)
    # hand-build an inconsistent variant: reuse source 0 after silencing
    bad = ArrivalSequence.__new__(ArrivalSequence)
    object.__setattr__(bad, "r", 1)
    object.__setattr__(bad, "rounds", (((0, 1),), ((0, 1),)))
    est = estimate_higher(bad, cfg)
    assert est.mean == 0.0


# -- the population estimators against their per-sample (samples x columns) form --

def matrix_indicator(hits):
    n = hits.shape[0]
    mean = float(hits.mean())
    return Estimate(mean=mean, stderr=float(np.sqrt(mean * (1.0 - mean) / n)), samples=n)


def uniform_product_times(rng, size, n):
    """A block of ``size`` vertices completes at -log of a product of ``size``
    uniforms (an Erlang time), each drawn as 1 - u so the log is finite."""
    t = 1.0 - rng.random(n)
    for _ in range(size - 1):
        t *= 1.0 - rng.random(n)
    return -np.log(t)


def gamma_times(rng, size, n):
    """A block of ``size`` vertices completes at a Gamma(size) variate."""
    return rng.standard_gamma(size, size=n)


def matrix_estimate_pF(flag, cfg, block_times):
    """estimate_pF with every block drawn for every sample by ``block_times``,
    all completion times in one (samples x blocks) matrix, the order tested
    along axis 1."""
    rng = cfg.rng()
    n = cfg.samples
    times = np.empty((n, len(flag.blocks)))
    for j, block in enumerate(flag.blocks):
        rate = float(sum(cfg.rates[v] for v in block))
        times[:, j] = block_times(rng, len(block), n) / rate
    return matrix_indicator(np.all(times[:, :-1] <= times[:, 1:], axis=1))


def matrix_estimate_higher(seq, cfg):
    """estimate_higher with one multinomial count row per sample and round,
    matched as a whole row along axis 1."""
    rng = cfg.rng()
    n = cfg.samples
    alive = np.ones(n, dtype=bool)
    active = sorted(cfg.rates)
    for rnd, silenced in zip(seq.rounds, seq.silenced):
        target = {v: c for v, c in rnd if c}
        if not set(target) <= set(active):
            return Estimate(mean=0.0, stderr=0.0, samples=n)
        rates = np.array([float(cfg.rates[v]) for v in active])
        counts = rng.multinomial(seq.r, rates / rates.sum(), size=n)
        want = np.array([target.get(v, 0) for v in active])
        alive &= np.all(counts == want[None, :], axis=1)
        active = [v for v in active if v not in set(silenced)]
    return matrix_indicator(alive)


def silenced_source_sequence():
    # round two draws again from source 0, which round one silenced
    seq = ArrivalSequence.__new__(ArrivalSequence)
    object.__setattr__(seq, "r", 2)
    object.__setattr__(seq, "rounds", (((0, 2), (1, 0), (2, 0)), ((0, 1), (1, 1))))
    return seq


ALL_FLAGS = [F for nv in (2, 3, 4) for k in range(nv) for F in enumerate_flags(tuple(range(nv)), k)]
ALL_SEQUENCES = [(c.sequence, c.flag.vertices) for nv in (2, 3) for r in (1, 2, 3)
                 for c in enumerate_experiments(tuple(range(nv)), r)]


class RecordingBinomials:
    """A generator whose scalar binomial draws keep every trial, recording each
    draw's (trials, q) so the law of the thinning chain can be checked."""

    def __init__(self):
        self.calls = []

    def binomial(self, trials, q):
        self.calls.append((trials, q))
        return trials


def multinomial_pmf(seq, rates):
    """The exact probability of ``seq``: per round, the Multinomial(r, lambda_A / l_A)
    pmf at the round's counts, A the sources not yet silenced."""
    p = Fraction(1)
    active = set(rates)
    for rnd, silenced in zip(seq.rounds, seq.silenced):
        mass = sum(rates[v] for v in active)
        p *= Fraction(factorial(seq.r), prod(factorial(c) for _, c in rnd))
        p *= prod((rates[v] / mass) ** c for v, c in rnd)
        active -= set(silenced)
    return p


@pytest.mark.parametrize("seed", [7, 20240801])
def test_higher_chain_is_the_multinomial(seed):
    # the survivors of each link are thinned with the probability q that one
    # sample's conditional binomial hits its target count; the q multiply to
    # the multinomial pmf of the whole sequence
    rng = generator(seed)
    assert len(ALL_SEQUENCES) == 46
    for i, (seq, V) in enumerate(ALL_SEQUENCES):
        rates = random_rates(rng, V)
        fake = RecordingBinomials()
        cfg = SimulationConfig(rates=rates, samples=10, seed=(seed, i))
        object.__setattr__(cfg, "rng", lambda fake=fake: fake)
        assert estimate_higher(seq, cfg) == Estimate(mean=1.0, stderr=0.0, samples=10)
        # every sample is kept, and no link with nothing left to assign (q = 1) draws
        assert all(trials == 10 and q < 1 for trials, q in fake.calls)
        chain = prod(q for _, q in fake.calls)
        exact = float(multinomial_pmf(seq, rates))
        assert chain == pytest.approx(exact, rel=1e-12, abs=0), (seq, rates)
    # a round that names a silenced source estimates 0 without a draw
    fake = RecordingBinomials()
    cfg = SimulationConfig(rates=EQUAL3, samples=10, seed=0)
    object.__setattr__(cfg, "rng", lambda: fake)
    assert estimate_higher(silenced_source_sequence(), cfg).mean == 0.0
    # round one only: source 0 takes both arrivals, after which no link draws
    assert fake.calls == [(10, pytest.approx(1 / 9, rel=1e-12))]


class ExpectedSplits:
    """A generator whose multinomial draws split ``alive`` samples by their
    expectation alive * p, as floats, recording each draw's (alive, p): the
    chain's hits / n is then the exact probability of a hit."""

    def __init__(self):
        self.calls = []

    def multinomial(self, alive, p):
        self.calls.append((alive, p))
        return alive * np.asarray(p)


def expected_split_estimate(flag, rates, samples):
    fake = ExpectedSplits()
    cfg = SimulationConfig(rates=rates, samples=samples, seed=0)
    object.__setattr__(cfg, "rng", lambda: fake)
    return estimate_pF(flag, cfg), fake.calls


FLAGS_2_TO_5 = [F for nv in (2, 3, 4, 5) for k in range(nv)
                for F in enumerate_flags(tuple(range(nv)), k)]


@pytest.mark.parametrize("seed", [7, 20240801, 3])
def test_pF_chain_is_the_flag_probability(seed):
    # split by their expectations, the jump chain's samples hit in the exact
    # proportion p_F: in flag order, a block of l_{V_j} fills at its |V_j|-th
    # label, and a later block that fills first drops its samples
    rng = generator(seed)
    assert len(FLAGS_2_TO_5) == 632
    for F in FLAGS_2_TO_5:
        rates = random_rates(rng, F.vertices)
        est, calls = expected_split_estimate(F, rates, 10)
        exact = float(poisson_probability(F).evaluate(rates))
        assert est.mean == pytest.approx(exact, rel=1e-12, abs=0), (F, rates)
        # one draw per state (i, counts): counts below |V_j| for every j >= i
        sizes = [len(block) for block in F.blocks]
        assert est.samples == 10
        assert len(calls) == sum(prod(sizes[i:]) for i in range(len(sizes) - 1)), F


def test_pF_draws_do_not_grow_with_samples():
    # one scalar draw per occupied state and arrival: the same draws for ten
    # samples as for a billion, and a real generator draws no more
    F = Flag.parse("0,1|2|3,4")
    rates = {v: Fraction(v + 1, 3) for v in range(5)}
    _, few = expected_split_estimate(F, rates, 10)
    _, many = expected_split_estimate(F, rates, 10 ** 9)
    assert len(few) == len(many) == 4 + 2
    rng = generator(5)
    draws = []

    def multinomial(alive, p):
        draws.append(alive)
        return rng.multinomial(alive, p)

    cfg = SimulationConfig(rates=rates, samples=10 ** 9, seed=0)
    object.__setattr__(cfg, "rng", lambda: SimpleNamespace(multinomial=multinomial))
    est = estimate_pF(F, cfg)
    assert draws[0] == 10 ** 9 and len(draws) <= len(many)
    exact = float(poisson_probability(F).evaluate(rates))
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_pF_matches_the_erlang_race_in_law():
    # five vertices in up to five blocks: the chain, with real multinomial
    # draws, against every block drawn as an Erlang time for every sample
    rng = generator(17)
    samples = 100_000
    for i, flag in enumerate(["0|1|2|3|4", "0,1|2|3,4", "0|1,2,3|4", "0,1,2|3,4"]):
        F = Flag.parse(flag)
        rates = random_rates(rng, F.vertices)
        a = estimate_pF(F, SimulationConfig(rates=rates, samples=samples, seed=(17, i)))
        b = matrix_estimate_pF(F, SimulationConfig(rates=rates, samples=samples,
                                                   seed=(17, i, 1)), uniform_product_times)
        assert a.samples == b.samples == samples
        assert abs(a.mean - b.mean) <= 4 * (a.stderr ** 2 + b.stderr ** 2) ** 0.5, (F, rates)


@pytest.mark.parametrize("seed", [7, 20240801])
def test_estimators_match_matrix_forms_in_law(seed):
    # different draws, the same law: each survivor-only estimate lies within
    # 4 combined standard errors of its matrix form's at 20 000 samples; the
    # flag's matrix form draws Gamma variates, so this also checks the
    # estimator's products of uniforms against numpy's Gamma sampler
    rng = generator(seed)
    samples = 20_000
    matrix_gamma_pF = partial(matrix_estimate_pF, block_times=gamma_times)
    cases = [(estimate_pF, matrix_gamma_pF, F, F.vertices) for F in ALL_FLAGS]
    cases += [(estimate_higher, matrix_estimate_higher, seq, V) for seq, V in ALL_SEQUENCES]
    cases.append((estimate_higher, matrix_estimate_higher, silenced_source_sequence(), (0, 1, 2)))
    for i, (estimate, matrix_form, obj, V) in enumerate(cases):
        rates = random_rates(rng, V)
        a = estimate(obj, SimulationConfig(rates=rates, samples=samples, seed=(seed, i)))
        b = matrix_form(obj, SimulationConfig(rates=rates, samples=samples,
                                              seed=(seed, i, 1)))
        assert a.samples == b.samples == samples
        assert abs(a.mean - b.mean) <= 4 * (a.stderr ** 2 + b.stderr ** 2) ** 0.5, (obj, rates)
    assert a.mean == b.mean == 0.0  # the silenced-source sequence


def traced_peak(estimate, obj, rates, samples):
    """Run ``estimate`` on ``samples`` samples; return its peak traced memory in
    bytes, after checking that the estimate is a probability strictly inside (0, 1)."""
    # a first generator imports numpy's seeding modules; keep that out of the peak
    estimate(obj, SimulationConfig(rates=rates, samples=1, seed=13))
    cfg = SimulationConfig(rates=rates, samples=samples, seed=13)
    tracemalloc.start()
    try:
        est = estimate(obj, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples == samples and 0 < est.mean < 1
    return peak


def peak_floats_per_sample(estimate, obj, rates, samples=200_000):
    """The peak traced memory of ``estimate`` in float64 arrays of its samples."""
    return traced_peak(estimate, obj, rates, samples) / (8 * samples)


HIGHER_222_000_111 = ArrivalSequence(r=3, rounds=(((2, 3),), ((0, 3), (1, 0)), ((1, 3),)))


@pytest.mark.parametrize("estimate, obj", [
    (estimate_higher, HIGHER_222_000_111),
])
def test_estimate_peak_memory(estimate, obj):
    # at most two float arrays and a mask of the samples are live at once
    peak = peak_floats_per_sample(estimate, obj, EQUAL3)
    assert peak <= 2.5, peak


def test_higher_allocates_no_sample_array():
    # one scalar binomial per link: a million samples allocate no array of them
    peak = traced_peak(estimate_higher, HIGHER_222_000_111, EQUAL3, 1_000_000)
    assert peak < 64 * 1024, peak


def test_pF_allocates_no_sample_array():
    # one scalar multinomial per state: a million samples allocate no array of them
    peak = traced_peak(estimate_pF, Flag.parse("0|1|2,3"), EQUAL4, 1_000_000)
    assert peak < 64 * 1024, peak


def test_face_integral_duality():
    F = Flag.parse("0,1|2,3")
    psi = basis_element(F)
    dual = estimate_face_integral(F, psi, 4000, 17)
    assert abs(dual.mean - 1.0) <= max(3 * dual.stderr, 1e-6)
    other = Flag.parse("0,2|1,3")
    off = estimate_face_integral(other, basis_element(F), 4000, 17)
    assert abs(off.mean) <= max(3 * off.stderr, 1e-6)


def test_face_integral_volume_form():
    for W in [(0, 1), (0, 1, 2)]:
        F = Flag([W])
        est = estimate_face_integral(F, omega_form(W), 2000, 23)
        assert abs(est.mean - 1.0) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(rates={0: Fraction(0)}, samples=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(rates={0: Fraction(1)}, samples=0, seed=0)
    with pytest.raises(ValueError, match="samples"):
        estimate_face_integral(Flag.parse("0|1"), basis_element(Flag.parse("0|1")), 0, 0)


def frame_values(form, point, vectors):
    """The form at ``point`` on the frame ``vectors`` ({var: float}), each term's
    determinant a signed sum over the k! permutations."""
    total = 0.0
    for W, f in form.terms.items():
        cols = sorted(W)
        det = sum(perm_sign(p) * prod(vec.get(cols[c], 0.0) for vec, c in zip(vectors, p))
                  for p in permutations(range(form.degree)))
        total = total + f.evaluate(point) * det
    return total


def fixed_ladder_values(flag, form, samples, seed, eps):
    """The face integrand with every sample on one ladder, rho_j = eps^j."""
    rng = generator(seed)
    theta = {}
    for block in flag.blocks:
        draws = rng.dirichlet(np.ones(len(block)), size=samples)
        for idx, v in enumerate(block):
            theta[v] = draws[:, idx]
    radii = [eps ** j for j in range(len(flag.blocks))]
    point = {v: theta[v] * radii[j] / sum(radii) for j, block in enumerate(flag.blocks)
             for v in block}
    vectors = [{v: 1.0, max(b): -1.0} for b in flag.blocks for v in b if v != max(b)]
    return frame_values(form, point, vectors) / frame_values(flag_omega(flag), point, vectors)


def test_dof_face_integration_bridge_n2():
    # every (H, psi_F) pairing on 3 and 4 vertices, k = 1 and 2, sampled against
    # the exact DOF.  The per-sample ladder's error is O(FACE_EPS) bias, not
    # noise, so a fixed bound holds at a few samples.  The ladder it replaced,
    # rho_j = eps^j for every sample at eps = 1e-3 and 1e-4 with a Richardson
    # step, tends to a chain of faces near Theta_H's corners and misses the bound.
    bound, missed = 1e-6, 0
    for V, k in product([(0, 1, 2), (0, 1, 2, 3)], (1, 2)):
        flags = list(enumerate_flags(V, k))
        for F, column in zip(flags, gram_matrix(V, k)):
            psi = basis_element(F)
            for H in flags:
                exact = float(column.get(H, 0))
                assert abs(estimate_face_integral(H, psi, 20, 41).mean - exact) <= bound, (H, F)
                coarse, fine = (fixed_ladder_values(H, psi, 20, 41, eps) for eps in (1e-3, 1e-4))
                richardson = (1e-3 * fine - 1e-4 * coarse) / (1e-3 - 1e-4)
                missed += abs(float(richardson.mean()) - exact) > bound
    assert missed > 0


def test_divergent_face_integral_estimate_is_huge():
    from blowupforms.dof import dof_evaluate
    from blowupforms.symexpr import DivergentLimit, Poly, RationalFn, RationalForm

    # coefficient 1/l_{12}^2 makes the tangential part diverge like 1/eps: the
    # estimate fails any DOF tolerance, and the exact DOF raises
    singular = RationalForm(
        1, {frozenset((1,)): RationalFn(Poly.const(1), {frozenset((1, 2)): 2})}
    )
    F = Flag.parse("0|1,2")
    assert abs(estimate_face_integral(F, singular, 500, 2).mean) > 1e6
    with pytest.raises(DivergentLimit):
        dof_evaluate(F, singular)


# -- concordance rule --------------------------------------------------------------

def scripted_run(*means, stderr=0.01):
    """A run(samples, seed) callback that replays fixed estimates, one per call."""
    calls = []

    def run(samples, seed):
        calls.append((samples, seed))
        return Estimate(mean=means[len(calls) - 1], stderr=stderr, samples=samples)

    return run, calls


def test_concordance_passes_on_first_try():
    run, calls = scripted_run(0.52)
    est, escalated, ok = check_concordance(run, 0.5, 1000, (7, 1))
    assert (est.mean, escalated, ok) == (0.52, False, True)
    assert calls == [(1000, (7, 1))]


def test_concordance_escalates_to_ten_times_the_samples():
    run, calls = scripted_run(0.6, 0.505)
    est, escalated, ok = check_concordance(run, 0.5, 1000, (7, 1))
    assert (est.mean, est.samples, escalated, ok) == (0.505, 10_000, True, True)
    # the re-run draws under a seed of its own
    assert calls == [(1000, (7, 1)), (10_000, (7, 1, 256))]


def test_concordance_fails_after_escalation():
    run, calls = scripted_run(0.6, 0.6)
    est, escalated, ok = check_concordance(run, 0.5, 1000, (7, 1))
    assert (escalated, ok) == (True, False)
    assert len(calls) == 2


def test_concordance_binomial_fallback_on_zero_spread():
    # binomial stderr of p = 0.01 at 100 samples is about 0.00995
    assert concordant(Estimate(mean=0.0, stderr=0.0, samples=100), 0.01)
    assert not concordant(Estimate(mean=0.0, stderr=0.0, samples=100), 0.2)
    # exact 0 or 1 has no binomial noise: only an exact hit passes
    assert concordant(Estimate(mean=1.0, stderr=0.0, samples=100), 1.0)
    assert not concordant(Estimate(mean=0.999, stderr=0.0, samples=100), 1.0)


def test_escalation_budget_is_one_percent():
    assert within_escalation_budget(0, 0)
    assert within_escalation_budget(0, 5)
    assert within_escalation_budget(1, 100)
    assert not within_escalation_budget(1, 99)
    assert within_escalation_budget(7, 700)
    assert not within_escalation_budget(8, 700)
