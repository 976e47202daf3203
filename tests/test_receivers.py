import math
from itertools import islice

import numpy as np
import pytest
from scipy.special import pdtrc
from scipy.stats import poisson

from phaserx.constellation import BinaryConstellation, make_bpsk, make_ook, parametrize
from phaserx.helstrom import perr_helstrom
from phaserx.phasenoise import PhaseNoise, average, build_rule
from phaserx.receivers import (
    BIT1_HIGH,
    ReceiverConfig,
    _poisson_cdfs,
    _poisson_terms,
    displaced_intensity,
    generalized_kennedy_detail,
    perr_bpsk_hom,
    perr_generalized_kennedy,
    perr_ook_dd,
    perr_sql_baseline,
    photocount_distribution,
    poisson_cdf,
)

# Closed-form references at nbar = 2, high-precision:
OOK_DD_2 = 0.009157819444367090146        # exp(-4)/2
BPSK_HOM_2 = 0.002338867490523632918      # (1 - erf(2))/2
KENNEDY_2 = 1.677313139512559194e-4       # exp(-8)/2
HELSTROM_BPSK_2 = 8.387269160402486356e-5

# Independent adaptive-quadrature references over the Gaussian phase density:
BPSK_HOM_2_S45 = 1.039004445188384737e-2          # nbar=2, sigma=0.45
PK3_REAL = 2.696601080510940829e-2                # k=3, alpha=1.2, beta=-0.4, sigma=0.3
PK2_COMPLEX = 2.642918791579834670e-1             # k=2, alpha=1+0.5j, beta=0.3-0.2j, sigma=0.25
GK_NEAR_OOK_S45 = 1.101900162226365776e-2         # (-1.9, 0.15), beta=-0.12, K=0, sigma=0.45
GK_MIXED_S20 = 8.429804064392669091e-3            # (-1.0, 1.4), beta=1.3, K=1, sigma=0.2
# BPSK at nbar 2, beta = 26, K = 753, sigma = 0: Q(754, mu1)/2 + P(754, mu0)/2 with
# the regularized incomplete gammas at 40 digits (mpmath), mu0 = 604.46, mu1 = 751.54
GK_LARGE_MEAN = 0.2654585110615475630

NOISELESS = PhaseNoise(0.0)


def test_receiver_config_validation():
    ReceiverConfig(beta=0.5, threshold_k=0, pnr_ceiling=1)
    with pytest.raises(ValueError):
        ReceiverConfig(beta=0.0, threshold_k=1, pnr_ceiling=1)
    with pytest.raises(ValueError):
        ReceiverConfig(beta=0.0, threshold_k=-1, pnr_ceiling=2)
    with pytest.raises(ValueError):
        ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=0)
    with pytest.raises(ValueError):
        ReceiverConfig(beta=complex(float("nan"), 0.0), threshold_k=0, pnr_ceiling=1)


def test_displaced_intensity_only_signal_is_dephased():
    phases = np.array([0.0, 0.7, -1.3])
    alpha, beta = 1.2 - 0.3j, 0.4 + 0.9j
    expected = np.abs(alpha * np.exp(1j * phases) + beta) ** 2
    assert np.allclose(displaced_intensity(alpha, beta, phases), expected, rtol=1e-14)
    # beta alone gives a phase-independent intensity
    flat = displaced_intensity(0.0, beta, phases)
    assert np.allclose(flat, abs(beta) ** 2, rtol=1e-14)


def test_poisson_cdf_against_scipy():
    mus = np.array([0.0, 0.3, 1.0, 4.0, 17.5])
    for k in (0, 1, 2, 5, 12):
        assert np.allclose(poisson_cdf(k, mus), poisson.cdf(k, mus), rtol=1e-13, atol=1e-15)
    # large means, at counts below, at and above the mean: relative precision
    for mu in (100.0, 400.0, 650.0, 708.0):
        for k in (int(mu) - 60, int(mu), int(mu) + 60):
            want = poisson.cdf(k, mu)
            assert abs(poisson_cdf(k, mu) - want) <= 1e-13 * want, (k, mu)
    # above -log(tiny) the recurrence's first term exp(-mu) is no longer a
    # normal double, and the CDF comes from pdtr: against 40-digit mpmath
    limit = -math.log(np.finfo(float).tiny)
    for k, mu, want in ((700, np.nextafter(limit, np.inf), 0.38554035379709282249),
                        (700, 708.5, 0.38405569280783332064),
                        (700, 751.5, 0.030334070917470159467),
                        (753, 751.5, 0.5314846511915164239)):
        assert abs(poisson_cdf(k, mu) - want) <= 1e-14 * want, (k, mu)
    assert poisson_cdf(0, 800.0) == 0.0
    # one array takes both paths, each entry as it would alone
    mixed = np.array([1.0, 708.5, 2.0, 751.5])
    got = poisson_cdf(700, mixed)
    assert got.tolist() == [float(poisson_cdf(700, mu)) for mu in mixed]
    assert abs(got[1] - 0.38405569280783332064) <= 1e-14 * got[1]


def test_real_amplitudes_give_the_complex_paths_intensity_bit_for_bit():
    """Real amplitudes leave out the zero imaginary terms, which change no
    intensity: the real path equals the same amplitudes taken as complex,
    with real and complex beta, scalar and array phases."""
    rng = np.random.default_rng(31)
    alphas = rng.uniform(-6.0, 6.0, size=(50, 1))
    betas = rng.uniform(-9.0, 9.0, size=40)
    phases = rng.normal(0.0, 1.0, size=(50, 1))
    for beta in (betas, betas + 0.3j, 0.0, -0.0):
        got = displaced_intensity(alphas, beta, phases)
        assert np.array_equal(got, displaced_intensity(alphas.astype(complex), beta, phases))
        for phi in phases[:5, 0]:
            want = displaced_intensity(alphas.astype(complex), beta, phi)
            assert np.array_equal(displaced_intensity(alphas, beta, phi), want)


def _poisson_cdfs_out_of_place(mu):
    """Reference for ``_poisson_cdfs``: a fresh array per draw, each term
    the last times ``mu`` times ``1.0/j``."""
    term = np.exp(-mu)
    cdf = term
    yield cdf
    j = 0
    while True:
        j += 1
        term = term * mu * (1.0 / j)
        cdf = cdf + term
        yield cdf


@pytest.mark.parametrize("mu", [
    np.array([0.0, 1e-300, 0.3, 1.0, 4.0, 17.5, 120.0, 708.0, 745.0, 800.0]),
    np.linspace(0.0, 30.0, 12).reshape(3, 4),
    0.0, 2.5, 650.0, np.float64(3.7), np.array(9.25),
])
def test_in_place_poisson_recurrence_is_bit_identical(mu):
    """The in-place recurrence yields, draw by draw, the values and types of
    the out-of-place one, for array and scalar means; each yield is read
    before the next draw, which overwrites it, all but the first."""
    for j, (got, want) in enumerate(zip(_poisson_cdfs(mu), _poisson_cdfs_out_of_place(mu))):
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j
        if j == 120:
            break
    cdfs = _poisson_cdfs(mu)
    first = next(cdfs)
    next(islice(cdfs, 3, None))
    assert np.array_equal(first, np.exp(-np.asarray(mu)))
    # the terms from a weighted first term, as the grid scan draws them,
    # and that first term left as given
    weighted = 0.3 * np.exp(-np.asarray(mu))
    kept = np.copy(weighted)
    want = weighted
    for j, got in enumerate(islice(_poisson_terms(mu, weighted), 121)):
        if j:
            want = want * mu * (1.0 / j)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), j
    assert np.array_equal(weighted, kept)


def test_poisson_cdf_against_mpmath():
    """The recurrence against the 40-digit regularized incomplete gamma: to
    2e-15 relative at counts 0 to 40 and means 0.01 to 35, and to 1e-14 at
    counts up to 60 either side of means 100 to 708."""
    mp = pytest.importorskip("mpmath").mp

    def cdf(k, mu):
        with mp.workdps(40):
            return float(mp.gammainc(k + 1, mp.mpf(mu), mp.inf, regularized=True))

    mus = np.array([0.01, 0.5, 1.0, 2.0, 3.7, 8.0, 20.0, 35.0])
    for k in range(0, 41, 4):
        for mu, got in zip(mus, poisson_cdf(k, mus)):
            want = cdf(k, mu)
            assert abs(got - want) <= 2e-15 * want, (k, mu)
    for mu in (100.0, 400.0, 708.0):
        for k in range(int(mu) - 60, int(mu) + 61, 30):
            want = cdf(k, mu)
            assert abs(poisson_cdf(k, mu) - want) <= 1e-14 * want, (k, mu)


def test_poisson_cdf_keeps_its_return_types():
    """A scalar mean gives a numpy float through the recurrence and a 0-d
    array through ``pdtr``, an array mean an array, at every count."""
    for k in (0, 1, 5):
        assert type(poisson_cdf(k, 1.5)) is np.float64
        assert type(poisson_cdf(k, np.array(3.0))) is np.float64
        assert type(poisson_cdf(k, 800.0)) is np.ndarray
        assert poisson_cdf(k, np.array([1.0, 2.0])).shape == (2,)


@pytest.mark.parametrize("k, mu", [
    (0, -1.0),                        # read 2.718281828459045
    (2, -3.0),                        # read 50.2
    (2, math.nan),                    # read nan
    (3, np.array([1.0, -1e-300])),    # one bad mean in an array
    (3, np.array([800.0, math.nan])),  # beside a mean that takes pdtr
])
def test_poisson_cdf_rejects_negative_and_nan_means(k, mu):
    with pytest.raises(ValueError, match="Poisson means"):
        poisson_cdf(k, mu)


def test_perr_ook_dd_closed_form():
    assert perr_ook_dd(2.0) == pytest.approx(OOK_DD_2, rel=1e-14)
    assert perr_ook_dd(0.0) == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_nbar_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        perr_ook_dd(bad)
    with pytest.raises(ValueError, match="finite"):
        perr_bpsk_hom(bad, NOISELESS)


def test_perr_bpsk_hom_noiseless():
    assert perr_bpsk_hom(2.0, NOISELESS) == pytest.approx(BPSK_HOM_2, rel=1e-13)
    assert perr_bpsk_hom(0.0, NOISELESS) == pytest.approx(0.5, rel=1e-14)


def test_perr_bpsk_hom_with_noise_matches_independent_quadrature():
    assert perr_bpsk_hom(2.0, PhaseNoise(0.45)) == pytest.approx(BPSK_HOM_2_S45, rel=1e-11)


def test_perr_bpsk_hom_degrades_with_noise():
    values = [perr_bpsk_hom(2.0, PhaseNoise(s)) for s in (0.0, 0.2, 0.4, 0.8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_photocount_probability_noiseless_is_poisson():
    mu = abs(1.1 * 1.0 + 0.4) ** 2
    probs = photocount_distribution(1.1, 0.4, NOISELESS, truncation=5).probs
    for k in range(6):
        assert probs[k] == pytest.approx(poisson.pmf(k, mu), rel=1e-12)


def test_photocount_probability_against_independent_quadrature():
    real = photocount_distribution(1.2, -0.4, PhaseNoise(0.3), truncation=3)
    assert real.probs[3] == pytest.approx(PK3_REAL, rel=1e-11)
    cplx = photocount_distribution(1 + 0.5j, 0.3 - 0.2j, PhaseNoise(0.25), truncation=2)
    assert cplx.probs[2] == pytest.approx(PK2_COMPLEX, rel=1e-11)


def test_photocount_probability_nulled_vacuum():
    # displacement exactly cancels the signal: all mass at k = 0
    probs = photocount_distribution(1.3, -1.3, NOISELESS, truncation=2).probs
    assert probs[0] == pytest.approx(1.0, rel=1e-14)
    assert probs[2] == 0.0


def test_photocount_distribution_normalizes():
    dist = photocount_distribution(1.2, -0.4, PhaseNoise(0.3), truncation=40)
    assert dist.probs.shape == (41,)
    assert np.all(dist.probs >= 0.0)
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-14
    assert abs(dist.tail_mass) < 1e-10


def test_photocount_tail_mass_is_never_negative():
    # the probabilities here sum to one ulp above 1
    dist = photocount_distribution(0.5, 0.0, PhaseNoise(0.1), truncation=40)
    assert dist.tail_mass == 0.0
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-14


def test_photocount_probabilities_do_not_depend_on_the_truncation(monkeypatch):
    """p_k at truncations 3, 6, 15 and 30 equal truncation 10's bit for bit
    on their shared k wherever both ladders stop at the same order: each
    row of a stacked average is summed alone, where a matrix-vector
    product over 4 or more rows rounded it differently with the stack's
    height.  A ladder stops once every component agrees, so a truncation
    whose extra components need a finer rule ends on another order; at
    most 4 of the 80 pairs may, and they are skipped."""
    orders = []

    def recording(noise, order):
        orders.append(order)
        return build_rule(noise, order)

    def probs(alpha, beta, noise, truncation):
        orders.clear()
        return photocount_distribution(alpha, beta, noise, truncation).probs, max(orders)

    monkeypatch.setattr("phaserx.phasenoise.build_rule", recording)
    rng = np.random.default_rng(20)
    compared = 0
    for _ in range(20):
        alpha, beta, sigma = rng.uniform(0.2, 2.5), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 0.45)
        ref, ref_order = probs(alpha, beta, PhaseNoise(sigma), 10)
        for truncation in (3, 6, 15, 30):
            got, order = probs(alpha, beta, PhaseNoise(sigma), truncation)
            if order == ref_order:
                shared = min(truncation, 10) + 1
                assert np.array_equal(got[:shared], ref[:shared]), (alpha, beta, sigma, truncation)
                compared += 1
    assert compared >= 76


def test_photocount_validation():
    with pytest.raises(ValueError):
        photocount_distribution(1.0, 0.0, NOISELESS, truncation=-1)
    for bad in (math.nan, math.inf, -math.inf, complex(1.0, math.nan)):
        for alpha, beta in ((bad, 0.0), (1.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                photocount_distribution(alpha, beta, PhaseNoise(0.1), truncation=3)


def test_generalized_kennedy_reduces_to_direct_detection():
    """No displacement, K = 0, sigma = 0 on OOK is exactly OOK/DD.

    Bit-exact equality needs ``sqrt(2*nbar)**2`` to round back to ``2*nbar``,
    so the check sticks to perfect-square intensities.
    """
    cfg = ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=1)
    for nbar in (0.5, 2.0, 4.5, 8.0):
        perr, orientation = generalized_kennedy_detail(make_ook(nbar), cfg, NOISELESS)
        assert perr == perr_ook_dd(nbar)
        assert orientation == BIT1_HIGH
    # off the representable grid it still agrees to an ulp
    perr, _ = generalized_kennedy_detail(make_ook(1.0), cfg, NOISELESS)
    assert perr == pytest.approx(perr_ook_dd(1.0), rel=1e-15)


def test_kennedy_nulling_closed_form():
    """Displacing BPSK so one symbol becomes vacuum gives exp(-8*nbar')/2."""
    c = make_bpsk(2.0)
    cfg = ReceiverConfig(beta=math.sqrt(2.0), threshold_k=0, pnr_ceiling=1)
    perr = perr_generalized_kennedy(c, cfg, NOISELESS)
    assert perr == pytest.approx(KENNEDY_2, rel=1e-12)


@pytest.mark.xfail(reason="the bit0_high error is read as 1 - x, which loses "
                   "the value's relative precision once it is small (ROADMAP item 14)")
@pytest.mark.parametrize("nbar", [5.0, 8.0, 10.0])
def test_mirror_labelled_kennedy_nulling_has_relative_precision(nbar):
    """Tripwire for item 14: displacing BPSK by -sqrt(nbar) nulls the other
    symbol, so the receiver decodes bit0_high at the same exp(-4*nbar)/2.
    Today the relative errors are -7.39e-8, -6.02e-4 and -1 (the value reads
    exactly 0 at nbar 10)."""
    cfg = ReceiverConfig(beta=-math.sqrt(nbar), threshold_k=0, pnr_ceiling=1)
    want = 0.5 * math.exp(-4.0 * nbar)
    got = perr_generalized_kennedy(make_bpsk(nbar), cfg, NOISELESS)
    assert abs(got - want) <= 1e-12 * want


def test_generalized_kennedy_against_independent_quadrature():
    near_ook = (BinaryConstellation(-1.9, 0.15),
                ReceiverConfig(beta=-0.12, threshold_k=0, pnr_ceiling=8), PhaseNoise(0.45))
    assert perr_generalized_kennedy(*near_ook) == pytest.approx(GK_NEAR_OOK_S45, rel=1e-10)
    # the bright symbol carries bit 0 here, so the rule as stated errs with
    # the complement, and with the value itself once the symbols swap
    x, label = generalized_kennedy_detail(*near_ook)
    assert label == BIT1_HIGH
    assert 1.0 - x == pytest.approx(GK_NEAR_OOK_S45, rel=1e-10)
    c, cfg, noise = near_ook
    swapped, _ = generalized_kennedy_detail(BinaryConstellation(c.alpha1, c.alpha0), cfg, noise)
    assert swapped == pytest.approx(GK_NEAR_OOK_S45, rel=1e-10)
    p2, _ = generalized_kennedy_detail(
        BinaryConstellation(-1.0, 1.4),
        ReceiverConfig(beta=1.3, threshold_k=1, pnr_ceiling=2),
        PhaseNoise(0.2),
    )
    assert p2 == pytest.approx(GK_MIXED_S20, rel=1e-10)


def test_generalized_kennedy_equals_one_integrand_per_symbol():
    """Batching both symbols into one ``(2, n)`` evaluation changes no bit.

    A changed rounding shows on only some inputs, so 40 seeded points are
    compared, every fifth one noiseless and every other one with a complex
    displacement.
    """
    rng = np.random.default_rng(2026)
    for i in range(40):
        c = parametrize(rng.uniform(0.0, math.pi), rng.uniform(0.5, 4.0))
        k = int(rng.integers(0, 8))
        beta = complex(rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 0.5) if i % 2 else 0.0)
        cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=8)
        noise = PhaseNoise(0.0 if i % 5 == 0 else rng.uniform(0.05, 0.6))

        def per_symbol(phases):
            low1 = poisson_cdf(k, displaced_intensity(c.alpha1, cfg.beta, phases))
            high0 = pdtrc(k, displaced_intensity(c.alpha0, cfg.beta, phases))
            return 0.5 * low1 + 0.5 * high0

        perr = min(max(average(noise, per_symbol), 0.0), 1.0)
        assert generalized_kennedy_detail(c, cfg, noise) == (perr, BIT1_HIGH)
        assert perr_generalized_kennedy(c, cfg, noise) == min(perr, 1.0 - perr)


def test_large_mean_tail_is_accurate():
    """The error at counts in the hundreds and means above -log(tiny) is
    right to 1e-12 relative (an unguarded recurrence reads 1.29e-9 here)."""
    cfg = ReceiverConfig(beta=26.0, threshold_k=753, pnr_ceiling=754)
    perr, _ = generalized_kennedy_detail(make_bpsk(2.0), cfg, NOISELESS)
    assert perr == pytest.approx(GK_LARGE_MEAN, rel=1e-12)


def test_orientation_flip_under_symbol_swap():
    """Swapping the symbols complements the error of the stated rule, and
    leaves the error under the better labelling as it is."""
    c = BinaryConstellation(-1.9, 0.15)
    cs = BinaryConstellation(0.15, -1.9)
    cfg = ReceiverConfig(beta=-0.12, threshold_k=0, pnr_ceiling=8)
    noise = PhaseNoise(0.45)
    x, o = generalized_kennedy_detail(c, cfg, noise)
    xs, os_ = generalized_kennedy_detail(cs, cfg, noise)
    assert o == os_ == BIT1_HIGH
    assert xs == pytest.approx(1.0 - x, rel=1e-14)
    assert perr_generalized_kennedy(cs, cfg, noise) == pytest.approx(
        perr_generalized_kennedy(c, cfg, noise), rel=1e-14)


def test_detail_states_one_rule_and_perr_takes_the_better_labelling():
    """On seeded receivers, about half of them better decoded ``bit0_high``,
    the evaluator labels every error ``bit1_high`` and
    ``perr_generalized_kennedy`` is ``min(x, 1 - x)`` bit for bit."""
    rng = np.random.default_rng(2027)
    above_half = 0
    for _ in range(60):
        nbar = rng.uniform(0.5, 5.0)
        c = parametrize(rng.uniform(0.0, math.pi), nbar)
        pnr = int(rng.integers(1, 9))
        beta = rng.uniform(-1.0, 1.0) * 3.0 * math.sqrt(2.0 * nbar)
        cfg = ReceiverConfig(beta=beta, threshold_k=int(rng.integers(0, pnr)), pnr_ceiling=pnr)
        noise = PhaseNoise(rng.uniform(0.0, 0.5))
        x, label = generalized_kennedy_detail(c, cfg, noise)
        assert label == BIT1_HIGH and 0.0 <= x <= 1.0
        assert perr_generalized_kennedy(c, cfg, noise) == min(x, 1.0 - x)
        above_half += x > 0.5
    assert 10 <= above_half <= 50


def test_generalized_kennedy_never_exceeds_half():
    cfg = ReceiverConfig(beta=2.0, threshold_k=0, pnr_ceiling=1)
    perr = perr_generalized_kennedy(BinaryConstellation(0.1, 0.1), cfg, NOISELESS)
    assert 0.0 <= perr <= 0.5


def test_sql_baseline_branch_switch():
    # noiseless: homodyne wins; strong noise: direct detection wins
    assert perr_sql_baseline(2.0, NOISELESS) == pytest.approx(BPSK_HOM_2, rel=1e-13)
    assert perr_sql_baseline(2.0, PhaseNoise(1.0)) == pytest.approx(OOK_DD_2, rel=1e-13)


def test_helstrom_noiseless_values():
    assert perr_helstrom(make_bpsk(2.0), NOISELESS) == pytest.approx(HELSTROM_BPSK_2, rel=1e-13)
    # zero separation: coin toss
    assert perr_helstrom(BinaryConstellation(0.7, 0.7), NOISELESS) == 0.5
    # depends only on the separation
    a = perr_helstrom(BinaryConstellation(0.0, 1.5), NOISELESS)
    b = perr_helstrom(BinaryConstellation(2.0 - 1.0j, 2.0 - 1.0j + 1.5j), NOISELESS)
    assert a == pytest.approx(b, rel=1e-14)


def test_helstrom_is_below_every_receiver():
    for nbar in (0.5, 2.0):
        c = make_bpsk(nbar)
        cfg = ReceiverConfig(beta=math.sqrt(nbar), threshold_k=0, pnr_ceiling=1)
        assert perr_helstrom(c, NOISELESS) < perr_generalized_kennedy(c, cfg, NOISELESS)
        assert perr_helstrom(c, NOISELESS) < perr_bpsk_hom(nbar, NOISELESS)
