"""Acceptance gate: the quantitative and qualitative claims the package makes.

Each criterion prints one [PASS]/[FAIL] line (visible when run as a script,
``python tests/test_acceptance.py``, or under ``pytest -s``) and asserts, so
the module doubles as the pytest gate and a standalone verification run.
"""

import functools
import math
import sys

import numpy as np

from phaserx.constellation import make_bpsk, make_ook, parametrize
from phaserx.helstrom import perr_helstrom
from phaserx.montecarlo import TrialConfig, simulate_perr
from phaserx.optimizer import OptimizationProblem, optimize, sweep_sigma
from phaserx.phasenoise import PhaseNoise
from phaserx.receivers import (
    ReceiverConfig,
    generalized_kennedy_detail,
    perr_bpsk_hom,
    perr_generalized_kennedy,
    perr_ook_dd,
    photocount_distribution,
)

# High-precision closed-form references (>=20 significant digits at source):
OOK_DD_2 = 0.009157819444367090146          # exp(-4)/2
BPSK_HOM_2 = 0.002338867490523632918        # (1 - erf(2))/2
KENNEDY_2 = 1.677313139512559194e-4         # exp(-8)/2
HELSTROM_BPSK = {
    0.5: 0.03506325248390311063,
    1.0: 0.004600070369588713113,
    2.0: 8.387269160402486356e-5,
    5.0: 5.152884058751615982e-10,
}
EXP_M12_OVER_4 = 1.536053088332052439e-6    # exp(-12)/4, large-power asymptote

NBAR = 2.0
SWEEP_SIGMAS = [round(0.05 * i, 2) for i in range(13)]   # 0.00 .. 0.60
SWEEP_PNRS = [1, 2, 3, 8]


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


@functools.lru_cache(maxsize=1)
def sigma_sweep():
    """Default-knob optimizer sweep shared by the curve-level criteria."""
    cells = [cell for row in sweep_sigma(NBAR, SWEEP_SIGMAS, SWEEP_PNRS) for cell in row]
    for cell in cells:
        assert cell.error is None, cell.error
    return {(c.pnr_ceiling, c.sigma): c.result for c in cells}


def test_criterion_1_sql_closed_forms():
    got_dd = perr_ook_dd(NBAR)
    got_hom = perr_bpsk_hom(NBAR, PhaseNoise(0.0))
    rel_dd = abs(got_dd - OOK_DD_2) / OOK_DD_2
    rel_hom = abs(got_hom - BPSK_HOM_2) / BPSK_HOM_2
    report(
        "1",
        rel_dd <= 1e-12 and rel_hom <= 1e-12,
        f"OOK/DD rel err {rel_dd:.2e}, BPSK/hom rel err {rel_hom:.2e} (tol 1e-12)",
    )


def test_criterion_2_helstrom_consistency():
    worst = 0.0
    for nbar, want in HELSTROM_BPSK.items():
        got = perr_helstrom(make_bpsk(nbar), PhaseNoise(0.0))
        worst = max(worst, abs(got - want))
    dephased = perr_helstrom(make_ook(NBAR), PhaseNoise(50.0))
    dephased_err = abs(dephased - OOK_DD_2)
    ratio = perr_helstrom(make_bpsk(3.0), PhaseNoise(0.0)) / EXP_M12_OVER_4
    report(
        "2",
        worst <= 1e-8 and dephased_err <= 1e-6 and 0.99 <= ratio <= 1.01,
        f"pure-state worst abs err {worst:.2e} (tol 1e-8), full-dephasing err "
        f"{dephased_err:.2e} (tol 1e-6), large-power ratio {ratio:.6f} (in [0.99, 1.01])",
    )


def test_criterion_3_kennedy_factor_of_two():
    c = make_bpsk(NBAR)
    cfg = ReceiverConfig(beta=math.sqrt(NBAR), threshold_k=0, pnr_ceiling=1)
    got = perr_generalized_kennedy(c, cfg, PhaseNoise(0.0))
    rel = abs(got - KENNEDY_2) / KENNEDY_2
    ratio = got / perr_helstrom(c, PhaseNoise(0.0))
    report(
        "3",
        rel <= 1e-12 and 1.9 <= ratio <= 2.1,
        f"nulling rel err {rel:.2e} (tol 1e-12), ratio to Helstrom {ratio:.4f} "
        f"(in [1.9, 2.1])",
    )


def test_criterion_4_sampling_oracle_equivalence():
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for i in range(12):
        nbar = float(rng.uniform(0.5, 5.0))
        sigma = 0.0 if i == 0 else float(rng.uniform(0.0, 0.8))
        k = i % 3
        theta = float(rng.uniform(0.0, math.pi))
        beta = float(rng.uniform(-1.0, 1.0)) * 1.5 * math.sqrt(2.0 * nbar)
        c = parametrize(theta, nbar)
        cfg = ReceiverConfig(beta=beta, threshold_k=k, pnr_ceiling=k + 1)
        noise = PhaseNoise(sigma)
        perr, _ = generalized_kennedy_detail(c, cfg, noise)
        est, se = simulate_perr(c, cfg, noise, TrialConfig(trials=10**7, seed=40 + i))
        z = (est - perr) / se if se > 0.0 else 0.0
        worst = max(worst, abs(z))
    report("4", worst <= 4.0, f"12 configs at 1e7 trials, worst |z| = {worst:.2f} (limit 4)")


def test_criterion_5a_sub_sql_at_low_noise():
    results = sigma_sweep()
    bad = [s for s in SWEEP_SIGMAS if s <= 0.20
           and not results[(8, s)].perr < results[(8, s)].perr_sql]
    report("5a", not bad, f"PNR=8 below the SQL at every sigma <= 0.20 (violations: {bad})")


def test_criterion_5b_sub_sql_restored_at_high_noise():
    results = sigma_sweep()
    bad = [s for s in (0.45, 0.5, 0.55)
           if not results[(8, s)].perr < results[(8, s)].perr_sql]
    report("5b", not bad, f"PNR=8 below the SQL at sigma in {{0.45, 0.5, 0.55}} (violations: {bad})")


def test_criterion_5c_threshold_collapses_to_zero():
    k = sigma_sweep()[(8, 0.45)].config.threshold_k
    report("5c", k == 0, f"optimal threshold at sigma = 0.45 is K = {k} (expected 0)")


def test_criterion_5d_approaches_quantum_bound():
    r = sigma_sweep()[(8, 0.45)]
    ratio = r.perr / r.perr_helstrom
    report("5d", ratio <= 1.5, f"perr/Helstrom = {ratio:.3f} at sigma = 0.45 (limit 1.5)")


def test_criterion_5e_monotone_in_detector_resolution():
    results = sigma_sweep()
    bad = []
    for s in SWEEP_SIGMAS:
        perrs = [results[(p, s)].perr for p in SWEEP_PNRS]
        if not all(b <= a * (1.0 + 1e-12) for a, b in zip(perrs, perrs[1:])):
            bad.append(s)
    report("5e", not bad, f"perr non-increasing across PNR {{1,2,3,8}} (violations: {bad})")


def test_criterion_6_structural_invariants():
    problems = []

    dist = photocount_distribution(1.2, -0.4, PhaseNoise(0.3), truncation=60)
    if abs(float(dist.probs.sum()) + dist.tail_mass - 1.0) > 1e-12 or dist.probs.min() < 0.0:
        problems.append("photocount normalization")

    from phaserx.helstrom import phase_diffused_state

    rho = phase_diffused_state(1.3 - 0.6j, PhaseNoise(0.45))
    if not np.allclose(rho.elements, rho.elements.conj().T, atol=1e-12):
        problems.append("hermiticity")
    if abs(np.trace(rho.elements).real - 1.0) > 1e-12:
        problems.append("unit trace")
    if np.linalg.eigvalsh(rho.elements).min() < -1e-12:
        problems.append("positive semidefiniteness")

    for key, r in sigma_sweep().items():
        if abs(r.constellation.mean_photon_number() - NBAR) > 1e-9:
            problems.append(f"power constraint at {key}")
            break

    p = OptimizationProblem(nbar=NBAR, noise=PhaseNoise(0.2), pnr_ceiling=2)
    if optimize(p) != optimize(p):
        problems.append("optimize determinism")

    c = make_ook(NBAR)
    cfg = ReceiverConfig(beta=0.3, threshold_k=0, pnr_ceiling=1)
    t = TrialConfig(trials=300_000, seed=6)
    if simulate_perr(c, cfg, PhaseNoise(0.3), t) != simulate_perr(c, cfg, PhaseNoise(0.3), t):
        problems.append("sampling determinism")

    report("6", not problems, f"structural invariants (violations: {problems or 'none'})")


def test_criterion_7_power_sweep_regression(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    from phaserx.cli import main

    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "curves.csv"
        rc = main(["sweep-nbar", "--nbar-max", "10", "--step", "0.5", "--output", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    cols = {name: [float(r[i]) for r in rows]
            for i, name in enumerate(("nbar", "psd", "ook", "hom", "ken", "hel"))}
    for name in ("ook", "hom", "ken", "hel"):
        if not all(a > b for a, b in zip(cols[name], cols[name][1:])):
            problems.append(f"{name} not strictly decreasing")
    for i, nbar in enumerate(cols["nbar"]):
        if nbar == 0.0:
            continue  # every receiver is a coin toss without power
        if not cols["ook"][i] > cols["hom"][i] > cols["ken"][i] > cols["hel"][i]:
            problems.append(f"column ordering broken at nbar={nbar}")
    i2 = cols["nbar"].index(2.0)
    for name, want in (("ook", OOK_DD_2), ("hom", BPSK_HOM_2),
                       ("ken", KENNEDY_2), ("hel", HELSTROM_BPSK[2.0])):
        if abs(cols[name][i2] - want) / want > 1e-9:
            problems.append(f"{name} at nbar=2 off reference")
    report("7", not problems, f"power-sweep regression (violations: {problems or 'none'})")


# Every criterion defined above, in definition order: the script runs
# exactly what pytest collects.
CRITERIA = [check for name, check in globals().items() if name.startswith("test_criterion_")]


if __name__ == "__main__":
    failed = 0
    for check in CRITERIA:
        try:
            check()
        except AssertionError:
            failed += 1
    print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} acceptance checks passed")
    sys.exit(1 if failed else 0)
