import math

import numpy as np
import pytest
from scipy.stats import poisson

from phaserx.constellation import make_bpsk, make_ook
from phaserx.helstrom import (
    FockDensityMatrix,
    optimize_helstrom,
    perr_helstrom,
    phase_diffused_state,
    required_dim,
    trace_distance,
)
from phaserx.phasenoise import PhaseNoise
from phaserx.receivers import perr_helstrom_noiseless

# Pure-state closed-form references for BPSK at fixed nbar:
HELSTROM_BPSK = {
    0.5: 0.03506325248390311063,
    1.0: 0.004600070369588713113,
    2.0: 8.387269160402486356e-5,
    5.0: 5.152884058751615982e-10,
}
OOK_DD_2 = 0.009157819444367090146  # exp(-4)/2, the full-dephasing limit

NOISELESS = PhaseNoise(0.0)


def test_required_dim_monotone_and_padded():
    assert required_dim(0.0) >= 20
    dims = [required_dim(mu) for mu in (0.0, 1.0, 4.0, 10.0, 30.0)]
    assert dims == sorted(dims)
    assert required_dim(4.0) > 4


def test_state_is_normalized_hermitian_psd():
    rho = phase_diffused_state(1.3 - 0.6j, PhaseNoise(0.45))
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho.elements, rho.elements.conj().T, atol=1e-14)
    eigs = np.linalg.eigvalsh(rho.elements)
    assert eigs.min() > -1e-12


def test_diagonal_is_poisson_for_any_sigma():
    """Dephasing never touches the photon-number statistics."""
    mu = 1.8**2
    for sigma in (0.0, 0.45, 3.0):
        rho = phase_diffused_state(1.8, PhaseNoise(sigma))
        diag = np.real(np.diag(rho.elements))
        ks = np.arange(rho.dim)
        assert np.allclose(diag, poisson.pmf(ks, mu), rtol=1e-10, atol=1e-15)


def test_pure_state_purity_and_damping_factor():
    rho0 = phase_diffused_state(1.1, NOISELESS)
    assert rho0.purity() == pytest.approx(1.0, abs=1e-12)
    # off-diagonals damp by exp(-(m-n)^2 sigma^2/2) relative to sigma = 0
    sigma = 0.45
    rho = phase_diffused_state(1.1, PhaseNoise(sigma), dim=rho0.dim)
    for m, n in ((0, 1), (2, 5), (1, 4)):
        damp = math.exp(-((m - n) ** 2) * sigma**2 / 2.0)
        assert rho.elements[m, n] == pytest.approx(rho0.elements[m, n] * damp, rel=1e-12)
    assert rho.purity() < 1.0


def test_negative_amplitude_sign_pattern():
    plus = phase_diffused_state(1.2, PhaseNoise(0.3))
    minus = phase_diffused_state(-1.2, PhaseNoise(0.3), dim=plus.dim)
    m = np.arange(plus.dim)
    signs = np.where((m[:, None] - m[None, :]) % 2 == 0, 1.0, -1.0)
    assert np.allclose(minus.elements, plus.elements * signs, atol=1e-15)


def test_complex_amplitude_matches_rotation():
    """exp(i*t)*alpha conjugates the state by the number-operator phase."""
    t = 0.7
    rho = phase_diffused_state(1.1, PhaseNoise(0.2))
    rot = phase_diffused_state(1.1 * complex(math.cos(t), math.sin(t)), PhaseNoise(0.2), dim=rho.dim)
    phases = np.exp(1j * t * np.arange(rho.dim))
    expected = rho.elements * np.outer(phases, phases.conj())
    assert np.allclose(rot.elements, expected, atol=1e-14)


def test_vacuum_state():
    rho = phase_diffused_state(0.0, PhaseNoise(0.7), dim=32)
    assert rho.elements[0, 0] == 1.0
    assert np.count_nonzero(rho.elements) == 1


def test_small_dim_raises_with_requirement():
    with pytest.raises(ValueError, match="need at least"):
        phase_diffused_state(2.0, NOISELESS, dim=4)


def test_density_matrix_shape_and_hermiticity_guards():
    with pytest.raises(ValueError):
        FockDensityMatrix(dim=3, elements=np.zeros((2, 2)))
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1j  # not mirrored
    with pytest.raises(ValueError):
        FockDensityMatrix(dim=3, elements=bad)
    # equal infinities differ by nan, not by 0, and nan is never within the bound
    inf_pair = np.zeros((3, 3))
    inf_pair[0, 1] = inf_pair[1, 0] = math.inf
    nan_diag = np.zeros((3, 3))
    nan_diag[2, 2] = math.nan
    for bad in (inf_pair, nan_diag):
        with pytest.raises(ValueError, match="not Hermitian"):
            FockDensityMatrix(dim=3, elements=bad)
    assert FockDensityMatrix(dim=0, elements=np.zeros((0, 0))).trace() == 0.0


def test_state_rejects_non_finite_amplitude():
    for bad in (math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="alpha must be finite"):
            phase_diffused_state(bad, PhaseNoise(0.1))


def test_trace_distance_basic_properties():
    a = phase_diffused_state(1.0, NOISELESS, dim=40)
    b = phase_diffused_state(-1.0, NOISELESS, dim=40)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-13)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), rel=1e-13)
    # orthogonal projectors are at distance 1
    e0 = np.zeros((5, 5)); e0[0, 0] = 1.0
    e1 = np.zeros((5, 5)); e1[1, 1] = 1.0
    assert trace_distance(FockDensityMatrix(5, e0), FockDensityMatrix(5, e1)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        trace_distance(a, phase_diffused_state(1.0, NOISELESS, dim=41))


def test_noiseless_matches_pure_state_closed_form():
    for nbar, want in HELSTROM_BPSK.items():
        got = perr_helstrom(make_bpsk(nbar), NOISELESS)
        assert got == pytest.approx(want, abs=1e-12)


def test_truncation_is_converged():
    c = make_bpsk(2.0)
    noise = PhaseNoise(0.45)
    base = perr_helstrom(c, noise)
    padded = perr_helstrom(c, noise, dim=required_dim(2.0) + 25)
    assert padded == pytest.approx(base, abs=1e-13)


def test_full_dephasing_reduces_ook_to_photon_counting():
    got = perr_helstrom(make_ook(2.0), PhaseNoise(50.0))
    assert got == pytest.approx(OOK_DD_2, abs=1e-9)


def test_dephasing_monotonically_hurts():
    c = make_bpsk(2.0)
    values = [perr_helstrom(c, PhaseNoise(s)) for s in (0.0, 0.2, 0.45, 0.9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_noise_breaks_phase_keying_harder_than_intensity_keying():
    """Under strong dephasing the intensity-keyed pair stays distinguishable."""
    noise = PhaseNoise(0.8)
    assert perr_helstrom(make_ook(2.0), noise) < perr_helstrom(make_bpsk(2.0), noise)


def test_optimize_helstrom_noiseless_prefers_phase_keying():
    c, perr = optimize_helstrom(2.0, NOISELESS)
    # symmetric antipodal pair is optimal without noise
    assert abs(abs(c.alpha0) - abs(c.alpha1)) < 1e-3
    assert perr == pytest.approx(perr_helstrom_noiseless(make_bpsk(2.0)), rel=1e-4)


def test_optimize_helstrom_improves_on_named_constellations():
    noise = PhaseNoise(0.45)
    c, perr = optimize_helstrom(2.0, noise)
    assert c.mean_photon_number() == pytest.approx(2.0, rel=1e-12)
    assert perr <= perr_helstrom(make_bpsk(2.0), noise) + 1e-12
    assert perr <= perr_helstrom(make_ook(2.0), noise) + 1e-12


def test_optimize_helstrom_validation():
    with pytest.raises(ValueError):
        optimize_helstrom(0.0, NOISELESS)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            optimize_helstrom(bad, NOISELESS)
