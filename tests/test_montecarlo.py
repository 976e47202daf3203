import math

import numpy as np
import pytest
from scipy.stats import poisson

from phaserx import montecarlo
from phaserx.constellation import BinaryConstellation, make_bpsk, make_ook
from phaserx.montecarlo import (
    BLOCK_SIZE,
    SCHEME_HOMODYNE,
    SCHEME_KENNEDY,
    TrialConfig,
    poisson_inverse,
    simulate_perr,
)
from phaserx.phasenoise import PhaseNoise
from phaserx.receivers import (
    _RECURRENCE_LIMIT,
    ReceiverConfig,
    generalized_kennedy_detail,
    perr_bpsk_hom,
    perr_generalized_kennedy,
    perr_ook_dd,
    poisson_cdf,
)

NOISELESS = PhaseNoise(0.0)


def test_trial_config_validation():
    TrialConfig(trials=1, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(trials=0, seed=0)
    with pytest.raises(ValueError):
        TrialConfig(trials=10, seed=-1)
    TrialConfig(trials=10, seed=2**64 - 1)
    with pytest.raises(ValueError):
        TrialConfig(trials=10, seed=2**64)
    with pytest.raises(ValueError):
        TrialConfig(trials=10, seed=0, scheme="heterodyne")


def test_poisson_inverse_matches_quantile_function():
    u = np.array([0.013, 0.2, 0.41, 0.77, 0.995])
    for mu in (0.05, 0.7, 3.0, 24.0):
        got = poisson_inverse(u, np.full_like(u, mu))
        want = poisson.ppf(u, mu).astype(np.int64)
        assert np.array_equal(got, want)


def test_poisson_inverse_zero_mean():
    u = np.array([0.1, 0.9, 0.999999])
    assert np.array_equal(poisson_inverse(u, np.zeros(3)), np.zeros(3, dtype=np.int64))


def test_poisson_inverse_heterogeneous_means():
    u = np.array([0.5, 0.5, 0.5])
    mu = np.array([0.1, 2.0, 40.0])
    want = np.array([poisson.ppf(0.5, m) for m in mu], dtype=np.int64)
    assert np.array_equal(poisson_inverse(u, mu), want)


def test_poisson_inverse_stops_at_max_count():
    """Counts are capped at ``max_count``; the means put quantiles at and
    just above each cap."""
    mu = np.linspace(0.25, 60.0, 240)
    u = np.full(mu.shape, 0.4)
    for max_count in (0, 3, 50):
        want = np.minimum(poisson.ppf(u, mu), max_count).astype(np.int64)
        assert np.array_equal(poisson_inverse(u, mu, max_count), want)


def test_poisson_inverse_refuses_means_above_the_recurrence_limit():
    """Above ``-log(tiny)`` ``poisson_cdf`` takes ``pdtr``, which the
    recurrence does not match, so the sampler raises instead of disagreeing
    with the threshold decision; at the limit itself it still samples."""
    u = np.full(2, 0.5)
    at_limit = np.array([1.0, _RECURRENCE_LIMIT])
    counts = poisson_inverse(u, at_limit)
    assert np.array_equal(counts > 700, u >= poisson_cdf(700, at_limit))
    for mu in (np.nextafter(_RECURRENCE_LIMIT, math.inf), 800.0, 1200.0):
        with pytest.raises(ValueError, match=f"Poisson mean {mu} is above"):
            poisson_inverse(u, np.array([1.0, mu]))


def test_poisson_inverse_rejects_negative_and_nan_means():
    """As ``poisson_cdf`` does, rather than sampling 0 counts."""
    u = np.full(2, 0.5)
    for bad in (-1e-300, -1.0, math.nan):
        with pytest.raises(ValueError, match="Poisson means must be >= 0"):
            poisson_inverse(u, np.array([1.0, bad]))


def test_threshold_decision_matches_inverse_cdf_sampling():
    """``u >= P(count <= K)`` is exactly the event ``poisson_inverse(u) > K``."""
    rng = np.random.default_rng(12345)
    n = 1_000_000
    u = np.clip(rng.random(n), 2.0**-53, 1.0 - 2.0**-53)
    mu = rng.uniform(0.0, 12.0, n)
    mu[:1000] = 0.0
    mu[1000:2000] = rng.uniform(30.0, 60.0, 1000)
    u[2000:2100] = 1.0 - 2.0**-53
    counts = poisson_inverse(u, mu)
    for k in range(8):
        assert np.array_equal(u >= poisson_cdf(k, mu), counts > k)


def test_blocks_of_neighbouring_seeds_draw_distinct_streams(monkeypatch):
    """Block 1 of seed s must not replay block 0 of seed s + 1."""
    c = make_ook(1.0)
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    run_block = montecarlo._run_block
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 100)

    def block_keys(seed):
        keys = []

        def record(*args):
            keys.append(args[3])
            return run_block(*args)

        monkeypatch.setattr(montecarlo, "_run_block", record)
        simulate_perr(c, cfg, NOISELESS, TrialConfig(trials=300, seed=seed))
        return keys

    def stream(key):
        return np.random.Generator(np.random.Philox(key=key)).random(8)

    first, second = block_keys(40), block_keys(41)
    assert len(first) == len(second) == 3
    assert first[0] == 40
    assert not np.array_equal(stream(first[1]), stream(second[0]))
    assert len(set(first + second)) == 6


def test_single_trial_is_zero_or_one():
    c = make_ook(1.0)
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    est, se = simulate_perr(c, cfg, NOISELESS, TrialConfig(trials=1, seed=3))
    assert est in (0.0, 1.0)
    assert se == 0.0


def test_same_seed_is_bit_identical():
    c = make_bpsk(2.0)
    cfg = ReceiverConfig(beta=math.sqrt(2.0), threshold_k=0, pnr_ceiling=1)
    t = TrialConfig(trials=200_000, seed=7)
    a = simulate_perr(c, cfg, PhaseNoise(0.3), t)
    b = simulate_perr(c, cfg, PhaseNoise(0.3), t)
    assert a == b


def test_different_seeds_differ():
    c = make_ook(0.5)
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    a, _ = simulate_perr(c, cfg, NOISELESS, TrialConfig(trials=100_000, seed=1))
    b, _ = simulate_perr(c, cfg, NOISELESS, TrialConfig(trials=100_000, seed=2))
    assert a != b


def test_multi_block_path():
    c = make_ook(2.0)
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    t = TrialConfig(trials=BLOCK_SIZE + 3, seed=5)
    est, se = simulate_perr(c, cfg, NOISELESS, t)
    assert 0.0 < est < 1.0
    assert se == pytest.approx(math.sqrt(est * (1 - est) / t.trials), rel=1e-12)


def test_mirror_labelled_receiver_is_simulated_as_its_twin():
    """The near-OOK receiver whose bright symbol carries bit 0 is decoded
    better the other way round; the simulator counts ``bit1_high`` errors
    only, so it runs the twin, the same receiver with the symbols swapped,
    whose error is the mirror-labelled receiver's."""
    c = BinaryConstellation(-1.9, 0.15)
    cfg = ReceiverConfig(beta=-0.12, threshold_k=0, pnr_ceiling=8)
    noise = PhaseNoise(0.45)
    twin = BinaryConstellation(c.alpha1, c.alpha0)
    perr, _ = generalized_kennedy_detail(twin, cfg, noise)
    assert perr == pytest.approx(perr_generalized_kennedy(c, cfg, noise), rel=1e-12)
    est, se = simulate_perr(twin, cfg, noise, TrialConfig(trials=200_000, seed=9))
    assert abs(est - perr) < 5.0 * se


def test_scheme_and_orientation_guards():
    c = make_ook(1.0)
    with pytest.raises(TypeError):
        simulate_perr(c, 0.0, NOISELESS, TrialConfig(trials=10, seed=0))
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    # one rule is simulated: a label other than ``bit1_high`` is refused
    for bad in ("sideways", "bit0_high"):
        with pytest.raises(ValueError):
            simulate_perr(c, cfg, NOISELESS, TrialConfig(trials=10, seed=0), orientation=bad)
    # every comparison with nan is false, so a nan decision point would decode
    # every trial low; it is refused, while +-inf decode every trial one way
    homodyne = TrialConfig(trials=1000, seed=1, scheme=SCHEME_HOMODYNE)
    with pytest.raises(ValueError, match="decision point"):
        simulate_perr(make_bpsk(2.0), float("nan"), PhaseNoise(0.1), homodyne)
    low, _ = simulate_perr(make_bpsk(2.0), math.inf, PhaseNoise(0.1), homodyne)
    high, _ = simulate_perr(make_bpsk(2.0), -math.inf, PhaseNoise(0.1), homodyne)
    assert low + high == 1.0


def test_direct_detection_agrees_with_closed_form():
    c = make_ook(2.0)
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    t = TrialConfig(trials=1_000_000, seed=21)
    est, se = simulate_perr(c, cfg, NOISELESS, t)
    assert abs(est - perr_ook_dd(2.0)) < 5.0 * se


def test_homodyne_agrees_with_closed_form():
    c = make_bpsk(2.0)
    t = TrialConfig(trials=1_000_000, seed=22, scheme=SCHEME_HOMODYNE)
    est, se = simulate_perr(c, 0.0, NOISELESS, t)
    assert abs(est - perr_bpsk_hom(2.0, NOISELESS)) < 5.0 * se


def test_homodyne_with_phase_noise_agrees():
    c = make_bpsk(2.0)
    noise = PhaseNoise(0.45)
    t = TrialConfig(trials=1_000_000, seed=23, scheme=SCHEME_HOMODYNE)
    est, se = simulate_perr(c, 0.0, noise, t)
    assert abs(est - perr_bpsk_hom(2.0, noise)) < 5.0 * se


def test_displaced_counting_with_phase_noise_agrees():
    c = BinaryConstellation(-1.9, 0.15)
    cfg = ReceiverConfig(beta=-0.12, threshold_k=1, pnr_ceiling=3)
    noise = PhaseNoise(0.45)
    perr, _ = generalized_kennedy_detail(c, cfg, noise)
    t = TrialConfig(trials=1_000_000, seed=24, scheme=SCHEME_KENNEDY)
    est, se = simulate_perr(c, cfg, noise, t)
    assert abs(est - perr) < 5.0 * se
