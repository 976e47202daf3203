import cmath
import math

import numpy as np
import pytest
from scipy.stats import poisson

from phaserx import helstrom
from phaserx.constellation import BinaryConstellation, make_bpsk, make_ook, parametrize
from phaserx.golden import golden_minimize
from phaserx.helstrom import (
    HELSTROM_GRID,
    HELSTROM_STACK_BYTES,
    HELSTROM_XTOL,
    FockDensityMatrix,
    fock_dim,
    optimize_helstrom,
    perr_helstrom,
    phase_diffused_state,
    required_dim,
    trace_distance,
)
from phaserx.phasenoise import PhaseNoise
from phaserx.receivers import _poisson_pmf

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
    assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-12)
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
    assert np.vdot(rho0.elements, rho0.elements).real == pytest.approx(1.0, abs=1e-12)
    # off-diagonals damp by exp(-(m-n)^2 sigma^2/2) relative to sigma = 0
    sigma = 0.45
    rho = phase_diffused_state(1.1, PhaseNoise(sigma), dim=rho0.dim)
    for m, n in ((0, 1), (2, 5), (1, 4)):
        damp = math.exp(-((m - n) ** 2) * sigma**2 / 2.0)
        assert rho.elements[m, n] == pytest.approx(rho0.elements[m, n] * damp, rel=1e-12)
    assert np.vdot(rho.elements, rho.elements).real < 1.0


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
    for shape in ((2, 3), (3,), (4, 2, 3)):
        with pytest.raises(ValueError, match="expected square matrices"):
            FockDensityMatrix(np.zeros(shape))
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1j  # not mirrored
    with pytest.raises(ValueError):
        FockDensityMatrix(bad)
    # equal infinities differ by nan, not by 0, and nan is never within the bound
    inf_pair = np.zeros((3, 3))
    inf_pair[0, 1] = inf_pair[1, 0] = math.inf
    nan_diag = np.zeros((3, 3))
    nan_diag[2, 2] = math.nan
    for bad in (inf_pair, nan_diag):
        with pytest.raises(ValueError, match="not Hermitian"):
            FockDensityMatrix(bad)
    assert np.trace(FockDensityMatrix(np.zeros((0, 0))).elements).real == 0.0
    # dim is read off the elements, for one matrix or a stack
    assert FockDensityMatrix(np.eye(3)).dim == 3
    assert FockDensityMatrix(np.zeros((4, 2, 5, 5))).dim == 5


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
    assert trace_distance(FockDensityMatrix(e0), FockDensityMatrix(e1)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        trace_distance(a, phase_diffused_state(1.0, NOISELESS, dim=41))


def test_noiseless_matches_pure_state_closed_form():
    for nbar, want in HELSTROM_BPSK.items():
        got = perr_helstrom(make_bpsk(nbar), NOISELESS)
        assert got == pytest.approx(want, abs=1e-12)


def _pure_helstrom_40_digits(c):
    """``(1 - sqrt(1 - exp(-d)))/2``, ``d = |alpha1 - alpha0|**2`` from the
    amplitudes as stored, to 40 digits: the working precision carries the
    ``d/ln(10)`` digits that the subtraction from 1 cancels."""
    mp = pytest.importorskip("mpmath").mp
    lost = math.ceil(abs(c.alpha1 - c.alpha0) ** 2 / math.log(10.0))
    with mp.workdps(40 + lost):
        d = abs(mp.mpc(c.alpha1) - mp.mpc(c.alpha0)) ** 2
        return float((1 - mp.sqrt(1 - mp.exp(-d))) / 2)


# BPSK from nbar 0.5 to 30, and two complex pairs.
PURE_PAIRS = {f"bpsk{nbar:g}": make_bpsk(nbar)
              for nbar in (0.5, 1.0, 2.0, 5.0, 8.0, 10.0, 20.0, 30.0)}
PURE_PAIRS.update(complex1=BinaryConstellation(1.3 - 0.6j, -0.4 + 1.1j),
                  complex2=BinaryConstellation(2.0 - 1.0j, 0.5 + 2.5j))


@pytest.mark.parametrize("name", PURE_PAIRS)
def test_noiseless_value_has_relative_precision(name):
    """ROADMAP item 7's noiseless half: at nbar 5, 8 and 10 (1 -
    trace_distance)/2 was off by -1.15e-6, -0.334 and -1 relative; the
    closed form is within 1e-13 of 40 digits."""
    c = PURE_PAIRS[name]
    want = _pure_helstrom_40_digits(c)
    assert abs(perr_helstrom(c, NOISELESS) - want) <= 1e-13 * want


def test_noiseless_value_builds_no_state_and_keeps_its_input_checks(monkeypatch):
    """Where the channel keeps the states pure no density matrix is built
    and no eigensolve runs; an explicit ``dim`` is still checked as the
    state builder checks it."""
    def never(*args):
        raise AssertionError("a state or an eigensolve was computed")

    monkeypatch.setattr(helstrom, "phase_diffused_state", never)
    monkeypatch.setattr(helstrom, "trace_distance", never)
    c = make_bpsk(4.0)
    want = perr_helstrom(c, NOISELESS)
    assert perr_helstrom(c, NOISELESS, dim=fock_dim((c.alpha0, c.alpha1))) == want
    # a law whose first coefficient rounds to 1 keeps the states pure
    assert PhaseNoise(1e-9).characteristic(1) == 1.0
    assert perr_helstrom(c, PhaseNoise(1e-9)) == want
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="dim must be"):
            perr_helstrom(c, NOISELESS, dim=bad)
    with pytest.raises(ValueError, match="need at least"):
        perr_helstrom(c, NOISELESS, dim=4)


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
    assert perr == pytest.approx(HELSTROM_BPSK[2.0], rel=1e-4)


@pytest.mark.parametrize("nbar", [0.3, 2.0, 5.0, 8.0, 30.0])
def test_noiseless_optimize_helstrom_lands_on_bpsk(nbar):
    """Without noise the pure-state error falls with the separation, which
    BPSK maximizes at fixed power: the scan's last angle, 3*pi/4, wins
    outright and golden refinement cannot beat it."""
    c, perr = optimize_helstrom(nbar, NOISELESS)
    bpsk = parametrize(3 * math.pi / 4, nbar)
    assert (c.alpha0, c.alpha1) == (bpsk.alpha0, bpsk.alpha1)
    want = perr_helstrom(make_bpsk(nbar), NOISELESS)
    assert abs(perr - want) <= 1e-13 * want


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


# Amplitudes of every kind a state is built from: positive, negative, zero,
# complex, and real axis pairs of optimize_helstrom's scan.
MIXED_AMPLITUDES = [1.8, -1.2, 0.0, 1.3 - 0.6j, -0.4 + 1.1j, 2.1, -0.0, 0.7j, -0.4]


@pytest.mark.parametrize("sigma", [0.0, 0.45, 3.0])
def test_stacked_state_equals_per_amplitude_calls(sigma):
    noise = PhaseNoise(sigma)
    dim = required_dim(2.1**2)
    stack = phase_diffused_state(MIXED_AMPLITUDES, noise, dim)
    assert stack.dim == dim
    assert stack.elements.shape == (len(MIXED_AMPLITUDES), dim, dim)
    for alpha, elements in zip(MIXED_AMPLITUDES, stack.elements):
        assert np.array_equal(elements, phase_diffused_state(alpha, noise, dim).elements)
    # an all-real stack is real, and each matrix is the single call's bit for bit
    real = [a for a in MIXED_AMPLITUDES if complex(a).imag == 0.0]
    grid = np.reshape(real, (2, 3))
    stack = phase_diffused_state(grid, noise, dim)
    assert stack.elements.dtype == np.float64
    assert stack.elements.shape == (2, 3, dim, dim)
    for alpha, elements in zip(grid.ravel(), stack.elements.reshape(-1, dim, dim)):
        single = phase_diffused_state(alpha, noise, dim).elements
        assert single.dtype == np.float64
        assert elements.tobytes() == single.tobytes()


# Pairs for stacked trace distances: all real, then each with a complex
# member.  A real pair inside a complex stack is solved as a complex
# Hermitian matrix, which may differ from its real solve in the last bit.
REAL_PAIRS = ([1.8, -1.2, 0.0, 2.1, -0.0, -0.4], [-0.4, -0.0, 2.1, 0.0, -1.2, 1.8])
COMPLEX_PAIRS = ([1.3 - 0.6j, -0.4 + 1.1j, 0.7j, 1.8, 0.0, -1.2],
                 [-1.2, 0.0, 2.1, 0.7j, 1.3 - 0.6j, -0.4 + 1.1j])


@pytest.mark.parametrize("pairs", [REAL_PAIRS, COMPLEX_PAIRS], ids=["real", "complex"])
@pytest.mark.parametrize("sigma", [0.0, 0.45, 3.0])
def test_stacked_trace_distance_equals_per_pair_calls(sigma, pairs):
    noise = PhaseNoise(sigma)
    dim = required_dim(2.1**2)
    first, second = pairs
    distances = trace_distance(phase_diffused_state(first, noise, dim),
                               phase_diffused_state(second, noise, dim))
    assert distances.shape == (len(first),)
    for a, b, got in zip(first, second, distances.tolist()):
        want = trace_distance(phase_diffused_state(a, noise, dim), phase_diffused_state(b, noise, dim))
        assert type(want) is float
        assert got == want
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_distance(phase_diffused_state(first, noise, dim),
                       phase_diffused_state(second[:2], noise, dim))


def test_stack_with_one_non_hermitian_matrix_raises_like_a_single_one():
    good = phase_diffused_state([1.0, -0.5, 0.3j], PhaseNoise(0.2), dim=40).elements.copy()
    bad = good[1].copy()
    bad[0, 3] += 1e-9  # not mirrored
    with pytest.raises(ValueError) as single:
        FockDensityMatrix(bad)
    good[1] = bad
    with pytest.raises(ValueError) as stacked:
        FockDensityMatrix(good)
    assert str(stacked.value) == str(single.value) == "matrix is not Hermitian within 1e-12"


def test_stacked_state_validates_every_amplitude():
    with pytest.raises(ValueError, match="alpha must be finite"):
        phase_diffused_state([1.0, math.nan], PhaseNoise(0.1))
    # the default and the minimum dim follow the brightest amplitude
    assert phase_diffused_state([0.5, -3.0], PhaseNoise(0.1)).dim == required_dim(9.0)
    with pytest.raises(ValueError, match="need at least"):
        phase_diffused_state([0.5, -3.0], PhaseNoise(0.1), dim=required_dim(0.25))


def _per_angle_perr(c, noise, dim):
    """One Helstrom error as optimize_helstrom's per-angle scan took it before
    its states were stacked: ``abs(alpha) ** 2`` on Python floats, one outer
    product per state, one eigensolve per pair."""
    def state(alpha):
        m = np.arange(dim)
        amp = np.sqrt(_poisson_pmf(m, abs(alpha) ** 2)) * np.exp(1j * cmath.phase(alpha) * m)
        if alpha.imag == 0.0:
            amp = amp.real
        return np.outer(amp, amp.conj()) * noise.characteristic(m[:, None] - m[None, :])

    eigs = np.linalg.eigvalsh(state(c.alpha0) - state(c.alpha1))
    perr = 0.5 * (1.0 - 0.5 * float(np.abs(eigs).sum()))
    return min(max(perr, 0.0), 0.5)


# optimize_helstrom's grid on its fundamental domain, and the 121 angles on
# [0, pi) it scanned before, which cover every constellation twice.
DOMAIN_GRID = np.linspace(math.pi / 4, 3 * math.pi / 4, HELSTROM_GRID)
FULL_CIRCLE_GRID = np.linspace(0.0, math.pi, 121, endpoint=False)


def _per_angle_optimize(nbar, noise, thetas=DOMAIN_GRID):
    """optimize_helstrom's per-angle scan and golden refinement, the oracle:
    returns the scan values on ``thetas``, the constellation and its error."""
    dim = required_dim(2.0 * nbar)

    def objective(theta):
        return _per_angle_perr(parametrize(theta, nbar), noise, dim)

    values = [objective(t) for t in thetas]
    i = int(np.argmin(values))
    step = thetas[1] - thetas[0]
    refined = golden_minimize(objective, thetas[i] - step, thetas[i] + step, xtol=HELSTROM_XTOL)
    theta, perr = min(refined, (thetas[i], values[i]), key=lambda point: point[1])
    return values, parametrize(theta, nbar), perr


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("nbar", [0.3, 2.0, 8.0])
def test_stacked_scan_equals_per_angle_loop(monkeypatch, nbar, sigma):
    """Where the channel dephases, bit-equality with the per-angle oracle.
    At nbar 0.3 numpy's square of np.abs(alpha) and Python's abs(alpha) ** 2
    differ by an ulp at some angles, so a stack that squared in numpy would
    move values here.  Where it keeps the states pure, no eigensolve runs
    and every scan value is its angle's ``perr_helstrom`` bit for bit."""
    noise = PhaseNoise(sigma)
    scanned, closed, solves = [], [], []
    stacked, error = helstrom.trace_distance, helstrom._helstrom_error

    def spy(a, b):
        out = stacked(a, b)
        solves.append(a.elements.shape)
        if a.elements.ndim == 3:
            scanned.extend(np.clip(0.5 * (1.0 - out), 0.0, 0.5).tolist())
        return out

    def error_spy(alpha0, alpha1, noise, dim):
        out = error(alpha0, alpha1, noise, dim)
        if np.ndim(out):
            closed.extend(out.tolist())
        return out

    monkeypatch.setattr(helstrom, "trace_distance", spy)
    if sigma == 0.0:
        monkeypatch.setattr(helstrom, "_helstrom_error", error_spy)
    c, perr = optimize_helstrom(nbar, noise)
    assert type(perr) is float
    if sigma == 0.0:
        assert solves == []
        want = [perr_helstrom(parametrize(t, nbar), noise) for t in DOMAIN_GRID]
        assert [v.hex() for v in closed] == [v.hex() for v in want]
        return
    values, want_c, want_perr = _per_angle_optimize(nbar, noise)
    assert [v.hex() for v in scanned] == [v.hex() for v in values]
    assert perr.hex() == want_perr.hex()
    assert (c.alpha0, c.alpha1) == (want_c.alpha0, want_c.alpha1)


@pytest.mark.parametrize("theta", [0.1, 0.7, math.pi / 4 + 0.05, 2.0, 2.9])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("nbar", [0.3, 2.0, 5.0])
def test_scan_domain_symmetries(nbar, sigma, theta):
    """The two symmetries that make [pi/4, 3*pi/4] optimize_helstrom's
    fundamental domain: theta -> pi/2 - theta swaps the labels and
    theta -> theta + pi negates both amplitudes."""
    noise = PhaseNoise(sigma)
    dim = fock_dim([math.sqrt(2.0 * nbar)])
    want = perr_helstrom(parametrize(theta, nbar), noise, dim)
    for image in (math.pi / 2 - theta, theta + math.pi):
        assert abs(perr_helstrom(parametrize(image, nbar), noise, dim) - want) <= 2e-14


@pytest.mark.parametrize("sigma", [0.15, 0.2, 0.25, 0.3, 0.45])
@pytest.mark.parametrize("nbar", [1.0, 2.0, 5.0])
def test_domain_scan_loses_no_basin_of_the_full_circle(nbar, sigma):
    """Across the optimum's move from BPSK toward OOK (ROADMAP finding 6),
    the domain scan finds an error no higher than the [0, pi) scan's."""
    noise = PhaseNoise(sigma)
    _, perr = optimize_helstrom(nbar, noise)
    _, _, full_circle = _per_angle_optimize(nbar, noise, FULL_CIRCLE_GRID)
    assert perr <= full_circle + 2e-14


@pytest.mark.parametrize(("nbar", "dim"), [(5.0, 64), (20.0, 125)])
def test_scan_stacks_stay_within_the_byte_budget(monkeypatch, nbar, dim):
    """Every stack the scan hands to trace_distance fits HELSTROM_STACK_BYTES:
    at nbar 20 one 63-angle stack would take 7.9 MB."""
    assert required_dim(2.0 * nbar) == dim
    sizes = []
    stacked = helstrom.trace_distance

    def spy(a, b):
        if a.elements.ndim == 3:
            sizes.append((a.elements.shape[0], a.elements.nbytes, b.elements.nbytes))
        return stacked(a, b)

    monkeypatch.setattr(helstrom, "trace_distance", spy)
    optimize_helstrom(nbar, PhaseNoise(0.3))
    assert sum(n for n, _, _ in sizes) == HELSTROM_GRID
    assert max(max(a, b) for _, a, b in sizes) <= HELSTROM_STACK_BYTES
    assert HELSTROM_GRID * dim * dim * 8 > HELSTROM_STACK_BYTES
    # chunks are as large as the budget allows
    assert sizes[0][0] == HELSTROM_STACK_BYTES // (8 * dim * dim)


def test_optimize_helstrom_where_the_peak_energy_rounds_up():
    """At nbar 4, sqrt(8)**2 rounds to 8 + 2 ulp, whose required_dim is 59
    against required_dim(8) = 58: the scan takes the larger truncation."""
    assert required_dim(abs(parametrize(0.0, 4.0).alpha0) ** 2) == required_dim(8.0) + 1
    c, perr = optimize_helstrom(4.0, PhaseNoise(0.3))
    assert c.mean_photon_number() == pytest.approx(4.0, rel=1e-12)
    assert 0.0 < perr <= perr_helstrom(make_bpsk(4.0), PhaseNoise(0.3)) + 1e-12
