import math

import pytest

from phaserx.constellation import (
    BinaryConstellation,
    make_bpsk,
    make_ook,
    parametrize,
    psd_watts_per_hz,
)

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
