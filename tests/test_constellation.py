import math

import numpy as np
import pytest

from phaserx.constellation import (
    BinaryConstellation,
    check_count,
    make_bpsk,
    make_ook,
    parametrize,
    psd_watts_per_hz,
)
from phaserx.helstrom import perr_helstrom, phase_diffused_state
from phaserx.montecarlo import TrialConfig
from phaserx.optimizer import OptimizationProblem, sweep_sigma
from phaserx.phasenoise import PhaseNoise, build_rule
from phaserx.receivers import ReceiverConfig, photocount_distribution

# h*c/lambda at 1550 nm, from CODATA-exact h and c:
PSD_1550_PER_PHOTON = 1.281577972354147548e-19


def test_ook_symbols():
    c = make_ook(2.0)
    assert c.alpha0 == 0.0
    assert c.alpha1 == pytest.approx(2.0, rel=1e-15)
    assert c.mean_photon_number() == pytest.approx(2.0, rel=1e-15)


def test_bpsk_symbols():
    c = make_bpsk(2.0)
    assert c.alpha0 == pytest.approx(-math.sqrt(2.0), rel=1e-15)
    assert c.alpha1 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c.mean_photon_number() == pytest.approx(2.0, rel=1e-15)


def test_parametrize_hits_named_constellations():
    ook = parametrize(math.pi / 2.0, 3.0)
    assert abs(ook.alpha0 - make_ook(3.0).alpha0) < 1e-15
    assert abs(ook.alpha1 - make_ook(3.0).alpha1) < 1e-15
    bpsk = parametrize(3.0 * math.pi / 4.0, 3.0)
    assert abs(bpsk.alpha0 - make_bpsk(3.0).alpha0) < 1e-14
    assert abs(bpsk.alpha1 - make_bpsk(3.0).alpha1) < 1e-14


def test_parametrize_power_constraint():
    """Any angle spends exactly the average photon budget."""
    for theta in (0.0, 0.3, 1.1, 2.0, 3.0):
        c = parametrize(theta, 1.7)
        assert c.mean_photon_number() == pytest.approx(1.7, rel=1e-14)


def test_separation():
    c = BinaryConstellation(-1.0, 2.0)
    assert c.separation() == pytest.approx(3.0, rel=1e-15)
    assert BinaryConstellation(1j, 1j).separation() == 0.0


def test_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        BinaryConstellation(float("nan"), 1.0)
    with pytest.raises(ValueError):
        BinaryConstellation(0.0, complex(1.0, float("inf")))


def test_nbar_validation():
    with pytest.raises(ValueError):
        make_ook(-0.5)
    with pytest.raises(ValueError):
        parametrize(0.1, -1.0)
    make_ook(0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for build in (make_ook, make_bpsk, lambda n: parametrize(0.3, n),
                      lambda n: psd_watts_per_hz(n, 1550e-9)):
            with pytest.raises(ValueError, match="finite"):
                build(bad)


def test_check_count():
    assert check_count("n", 3, 1) == 3
    got = check_count("n", np.int64(3), 1)
    assert got == 3 and type(got) is int
    for bad in (2.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_count("n", bad, 1)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        check_count("n", 0, 1)


NOISE = PhaseNoise(0.3)


# Each entry point that takes a count, as (name, call with the count, a
# valid count).  The call returns the count the entry point went on to use,
# or the count itself once the call has passed where the entry point keeps
# none to read back.
COUNT_INPUTS = [
    ("ReceiverConfig.threshold_k",
     lambda n: ReceiverConfig(beta=0.0, threshold_k=n, pnr_ceiling=4).threshold_k, 1),
    ("ReceiverConfig.pnr_ceiling",
     lambda n: ReceiverConfig(beta=0.0, threshold_k=0, pnr_ceiling=n).pnr_ceiling, 2),
    ("OptimizationProblem.pnr_ceiling",
     lambda n: OptimizationProblem(nbar=2.0, noise=NOISE, pnr_ceiling=n).pnr_ceiling, 2),
    ("OptimizationProblem.grid_resolution",
     lambda n: OptimizationProblem(nbar=2.0, noise=NOISE, pnr_ceiling=1,
                                   grid_resolution=n).grid_resolution, 31),
    ("OptimizationProblem.beta_resolution",
     lambda n: OptimizationProblem(nbar=2.0, noise=NOISE, pnr_ceiling=1,
                                   beta_resolution=n).beta_resolution, 31),
    ("sweep_sigma.pnr_list", lambda n: sweep_sigma(2.0, [0.1], [n])[0].pnr_ceiling, 2),
    ("sweep_sigma.jobs", lambda n: sweep_sigma(2.0, [0.1], [1], jobs=n) and n, 1),
    ("TrialConfig.trials", lambda n: TrialConfig(trials=n, seed=1).trials, 10),
    ("TrialConfig.seed", lambda n: TrialConfig(trials=10, seed=n).seed, 1),
    ("photocount_distribution.truncation",
     lambda n: photocount_distribution(1.0, 0.0, NOISE, n).probs.size - 1, 2),
    ("build_rule.order", lambda n: build_rule(NOISE, n).order, 8),
    ("phase_diffused_state.dim", lambda n: phase_diffused_state(1.0, NOISE, n).dim, 40),
    ("perr_helstrom.dim", lambda n: perr_helstrom(make_bpsk(1.0), NOISE, n) and n, 40),
]


@pytest.mark.parametrize("call, valid", [c[1:] for c in COUNT_INPUTS],
                         ids=[c[0] for c in COUNT_INPUTS])
def test_count_inputs_reject_non_integers(call, valid, monkeypatch):
    """A float count, even an integral one, is a usage error at every entry
    point; a numpy integer is taken as the Python int it equals."""
    # sweep_sigma builds and checks every problem; no cell needs to run
    monkeypatch.setattr("phaserx.optimizer._sweep_cell", lambda problem: problem)
    for bad in (valid + 0.5, float(valid)):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    assert call(np.int64(valid)) == valid


def test_psd_per_photon_energy():
    assert psd_watts_per_hz(1.0, 1550e-9) == pytest.approx(PSD_1550_PER_PHOTON, rel=1e-14)
    assert psd_watts_per_hz(2.0, 1550e-9) == pytest.approx(2.0 * PSD_1550_PER_PHOTON, rel=1e-14)
    assert psd_watts_per_hz(0.0, 1550e-9) == 0.0
    # halving the wavelength doubles the photon energy
    assert psd_watts_per_hz(1.0, 775e-9) == pytest.approx(2.0 * PSD_1550_PER_PHOTON, rel=1e-13)


def test_psd_validation():
    with pytest.raises(ValueError):
        psd_watts_per_hz(1.0, 0.0)
    with pytest.raises(ValueError):
        psd_watts_per_hz(-1.0, 1550e-9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            psd_watts_per_hz(1.0, bad)
