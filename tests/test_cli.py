import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from phaserx import cli, optimizer
from phaserx.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main
from phaserx.phasenoise import PhaseNoise
from phaserx.helstrom import fock_dim, perr_helstrom
from phaserx.receivers import perr_bpsk_hom, perr_ook_dd
from phaserx.constellation import make_bpsk

OOK_DD_2 = 0.009157819444367090146
BPSK_HOM_2 = 0.002338867490523632918

FAST_GRID = ["--grid-resolution", "41", "--beta-resolution", "41"]


def parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def read_csv(path):
    manifest, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            manifest.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return manifest, header, rows


def test_sql_noiseless_point(capsys):
    assert main(["sql", "--nbar", "2", "--sigma", "0"]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["perr_ook_dd"]) == pytest.approx(OOK_DD_2, rel=1e-10)
    assert float(kv["perr_bpsk_hom"]) == pytest.approx(BPSK_HOM_2, rel=1e-10)
    assert float(kv["perr_sql"]) == pytest.approx(BPSK_HOM_2, rel=1e-10)
    assert kv["sql_branch"] == "bpsk_hom"


def test_sql_branch_switches_under_noise(capsys):
    assert main(["sql", "--nbar", "2", "--sigma", "1.0"]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["perr_sql"]) == pytest.approx(OOK_DD_2, rel=1e-10)
    assert kv["sql_branch"] == "ook_dd"


def test_sql_zero_power_is_coin_toss(capsys):
    assert main(["sql", "--nbar", "0", "--sigma", "0"]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["perr_sql"]) == pytest.approx(0.5, rel=1e-12)


def test_sweep_nbar_csv(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["sweep-nbar", "--nbar-max", "10", "--step", "0.5", "--output", str(out)])
    assert rc == EXIT_OK
    manifest, header, rows = read_csv(out)
    assert len(manifest) == 4
    assert manifest[0].startswith("# command: sweep-nbar")
    assert header == ["nbar", "psd_watts_per_hz", "perr_ook_dd", "perr_bpsk_hom",
                      "perr_kennedy", "perr_helstrom"]
    assert len(rows) == 21
    # zero-power row: every receiver is a coin toss
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0
    assert first[2:] == pytest.approx([0.5, 0.5, 0.5, 0.5], rel=1e-12)
    # nbar = 2 row keeps the known curve ordering
    row2 = [float(v) for v in rows[4]]
    assert row2[0] == 2.0
    assert row2[2] == pytest.approx(OOK_DD_2, rel=1e-9)
    assert row2[3] == pytest.approx(BPSK_HOM_2, rel=1e-9)
    assert row2[2] > row2[3] > row2[4] > row2[5]
    # strictly decreasing columns once power flows
    for col in (2, 3, 4, 5):
        vals = [float(r[col]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sweep_nbar_at_large_photon_numbers(tmp_path):
    """The Kennedy receiver's symbol mean 4*nbar passes -log(tiny) ~ 708.4
    above nbar ~ 177; its error e^(-4*nbar)/2 then underflows to 0."""
    out = tmp_path / "curves.csv"
    argv = ["sweep-nbar", "--nbar-min", "100", "--nbar-max", "200", "--step", "100"]
    assert main([*argv, "--output", str(out)]) == EXIT_OK
    _, header, rows = read_csv(out)
    kennedy = header.index("perr_kennedy")
    assert [row[kennedy] for row in rows] == ["9.5758479836e-175", "0.0000000000e+00"]
    assert all(len(row) == len(header) and all(row) for row in rows)


def test_sweep_nbar_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep-nbar", "--nbar-max", "2", "--step", "1.0", "--output"]
    assert main(argv + [str(a)]) == EXIT_OK
    assert main(argv + [str(b)]) == EXIT_OK
    data_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    data_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
    assert data_a == data_b


def test_sweep_nbar_writes_the_same_csv_to_stdout(tmp_path, capsys):
    """The default ``--output -`` prints what ``--output FILE`` writes,
    apart from the timestamp."""
    out = tmp_path / "curves.csv"
    argv = ["sweep-nbar", "--nbar-max", "2", "--step", "0.5"]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert main([*argv, "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    untimed = lambda text: [l for l in text.splitlines() if not l.startswith("# timestamp:")]  # noqa: E731
    assert untimed(printed) == untimed(out.read_text())
    assert len(untimed(printed)) == 3 + 1 + 5


def test_sweep_sigma_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-sigma", "--nbar", "2", "--sigma-max", "0.45", "--step", "0.45",
               "--pnr-list", "1,2", "--output", str(out), *FAST_GRID])
    assert rc == EXIT_OK
    manifest, header, rows = read_csv(out)
    assert header == ["sigma", "perr_sql", "perr_helstrom_at_optimum",
                      "perr_helstrom_independent", "perr_pnr1", "perr_pnr2",
                      "alpha0", "alpha1", "beta", "threshold_k", "orientation"]
    assert len(rows) == 2
    for row in rows:
        sigma = float(row[0])
        assert float(row[1]) == pytest.approx(
            min(perr_ook_dd(2.0), perr_bpsk_hom(2.0, PhaseNoise(sigma))), rel=1e-9
        )
        # the independently optimized bound cannot exceed the bound at the
        # receiver's constellation
        assert float(row[3]) <= float(row[2]) * (1.0 + 1e-9)
        assert float(row[5]) <= float(row[4]) * (1.0 + 1e-9)
        int(row[9])
        assert row[10] == "bit1_high"


def test_sweep_sigma_blank_cells_for_failed_optimizations(tmp_path, capsys):
    # sigma = 40 is far beyond the quadrature order cap, so every receiver
    # optimization fails; the closed-form Helstrom column does not.
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-sigma", "--nbar", "2", "--sigma-min", "40", "--sigma-max", "40",
               "--step", "1", "--pnr-list", "1,2", "--output", str(out), *FAST_GRID])
    assert rc == EXIT_OK
    _, header, rows = read_csv(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert 0.0 < float(row["perr_helstrom_independent"]) < 0.5
    blank = ["perr_sql", "perr_helstrom_at_optimum", "perr_pnr1", "perr_pnr2",
             "alpha0", "alpha1", "beta", "threshold_k", "orientation"]
    assert [row[c] for c in blank] == [""] * len(blank)
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert warnings == ["warning: optimization failed at sigma=40.0, pnr=1:",
                        "warning: optimization failed at sigma=40.0, pnr=2:"]


def test_sweep_sigma_perr_sql_from_any_filled_cell(tmp_path, capsys):
    # At nbar 2, sigma 1.3 only the PNR-8 optimization fails; perr_sql does
    # not depend on the ceiling, so the PNR-1 and PNR-2 cells give it.
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-sigma", "--nbar", "2", "--sigma-min", "1.3", "--sigma-max", "1.3",
               "--step", "1", "--pnr-list", "1,2,8", "--output", str(out), *FAST_GRID])
    assert rc == EXIT_OK
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["perr_sql"]) == pytest.approx(
        min(perr_ook_dd(2.0), perr_bpsk_hom(2.0, PhaseNoise(1.3))), rel=1e-9)
    assert row["perr_pnr1"] and row["perr_pnr2"]
    blank = ["perr_helstrom_at_optimum", "perr_pnr8",
             "alpha0", "alpha1", "beta", "threshold_k", "orientation"]
    assert [row[c] for c in blank] == [""] * len(blank)
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert warnings == ["warning: optimization failed at sigma=1.3, pnr=8:"]


SWEEP_ARGV = ["sweep-sigma", "--nbar", "2", "--sigma-max", "0.45", "--step", "0.15",
              "--pnr-list", "1,8", *FAST_GRID]


def test_sweep_sigma_jobs_do_not_change_the_csv(tmp_path):
    csvs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main([*SWEEP_ARGV, "--jobs", jobs, "--output", str(out)]) == EXIT_OK
        csvs.append([l for l in out.read_text().splitlines()
                     if not l.startswith("# timestamp:")])
    assert csvs[0] == csvs[1]


def test_sweep_sigma_runs_one_optimize_per_sigma(tmp_path, monkeypatch):
    # Each sigma's row searches once, at the highest ceiling, through the
    # module's ``optimize``, so a wrapper installed there times every search.
    plain, ceilings = optimizer.optimize, []

    def counted(problem):
        ceilings.append(problem.pnr_ceiling)
        return plain(problem)

    monkeypatch.setattr(optimizer, "optimize", counted)
    out = tmp_path / "sweep.csv"
    assert main([*SWEEP_ARGV, "--jobs", "1", "--output", str(out)]) == EXIT_OK
    assert ceilings == [8] * 4
    assert len(read_csv(out)[2]) == 4


def test_optimize_report_and_trace(tmp_path, capsys, monkeypatch):
    """The report's seed lines and the trace CSV come from the result's
    ``winner`` and ``seeds``."""
    results = []

    def recorded(problem):
        results.append(optimizer.optimize(problem))
        return results[-1]

    monkeypatch.setattr(cli, "optimize", recorded)
    trace = tmp_path / "trace.csv"
    rc = main(["optimize", "--nbar", "2", "--sigma", "0.45", "--pnr", "2",
               "--trace-output", str(trace), *FAST_GRID])
    assert rc == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["threshold_k"] == "0"
    assert kv["orientation"] == "bit1_high"
    assert float(kv["perr"]) < float(kv["perr_sql"])
    assert float(kv["perr_helstrom"]) <= float(kv["perr"])
    assert kv["sub_sql"] == "true"
    assert kv["capped_seeds"] == "0"
    assert 0.0 <= float(kv["gradient_norm"]) <= 1e-6 * float(kv["perr"])
    manifest, header, rows = read_csv(trace)
    assert header == ["iteration", "perr"]
    perrs = [float(r[1]) for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(perrs, perrs[1:]))
    [result] = results
    assert kv["gradient_norm"] == cli._fmt(result.winner.gradient_norm)
    assert kv["predicted_decrease"] == cli._fmt(result.winner.predicted_decrease)
    assert 0.0 <= float(kv["predicted_decrease"]) <= 1e-12
    assert kv["capped_seeds"] == str(sum(s.capped for s in result.seeds))
    assert rows == [[str(i), cli._fmt(p)] for i, p in result.winner.trace]


def test_optimize_validate_zscore(capsys):
    rc = main(["optimize", "--nbar", "1.0", "--sigma", "0.3", "--pnr", "1",
               "--validate", "200000", "--seed", "77", *FAST_GRID])
    assert rc == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["validate_trials"] == "200000"
    assert abs(float(kv["validate_z"])) < 5.0
    assert float(kv["validate_std_error"]) > 0.0


def test_optimize_validate_without_errors_is_consistent(capsys):
    """A run that sees no error at perr ~ 1e-9 agrees with it: the z-score
    divides by the binomial standard error of the analytic value, which is
    not 0 where the estimate's is."""
    rc = main(["optimize", "--nbar", "5", "--sigma", "0", "--pnr", "1",
               "--validate", "1000", "--grid-resolution", "31", "--beta-resolution", "31"])
    assert rc == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["validate_estimate"]) == 0.0
    perr = float(kv["perr"])
    assert float(kv["validate_std_error"]) == pytest.approx(
        (perr * (1.0 - perr) / 1000) ** 0.5, rel=1e-9)
    assert abs(float(kv["validate_z"])) < 1e-2


@pytest.mark.parametrize("nbar, z", [(5.0, "0.0000"), (1.0, "inf")])
def test_optimize_validate_z_where_the_analytic_error_is_zero(nbar, z, monkeypatch, capsys):
    """An analytic error of 0 has a standard error of 0: an estimate of 0
    agrees with it, z = 0, and any error seen refutes it, z = inf."""
    real = optimizer.optimize(optimizer.OptimizationProblem(
        nbar=nbar, noise=PhaseNoise(0.0), pnr_ceiling=1, grid_resolution=31, beta_resolution=31))
    monkeypatch.setattr(cli, "optimize", lambda problem: dataclasses.replace(real, perr=0.0))
    rc = main(["optimize", "--nbar", str(nbar), "--sigma", "0", "--pnr", "1",
               "--validate", "1000"])
    assert rc == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["validate_std_error"]) == 0.0
    assert (float(kv["validate_estimate"]) == 0.0) == (z == "0.0000")
    assert kv["validate_z"] == z


def test_optimize_where_the_error_underflows_to_zero(capsys):
    """At nbar 400, sigma 0 the optimum's error underflows to 0.0; the
    report says so, with nothing left to decrease, and exits 0."""
    assert main(["optimize", "--nbar", "400", "--sigma", "0", "--pnr", "1"]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert float(kv["perr"]) == 0.0
    assert float(kv["predicted_decrease"]) == 0.0
    assert kv["capped_seeds"] == "0"


def test_efficiency_rescales_photon_number(capsys):
    assert main(["sql", "--nbar", "4", "--sigma", "0", "--efficiency", "0.5"]) == EXIT_OK
    lossy = parse_kv(capsys.readouterr().out)
    assert main(["sql", "--nbar", "2", "--sigma", "0"]) == EXIT_OK
    ideal = parse_kv(capsys.readouterr().out)
    assert lossy["perr_sql"] == ideal["perr_sql"]


def test_pk_distribution_csv(tmp_path):
    out = tmp_path / "pk.csv"
    rc = main(["pk", "--alpha", "1.2", "--beta", "-0.4", "--sigma", "0.3",
               "--kmax", "12", "--output", str(out)])
    assert rc == EXIT_OK
    manifest, header, rows = read_csv(out)
    assert header == ["k", "probability"]
    assert [int(r[0]) for r in rows] == list(range(13))
    probs = [float(r[1]) for r in rows]
    assert all(p >= 0.0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-6)
    assert any("tail_mass" in line for line in manifest)


def test_pk_default_kmax_covers_the_bulk(tmp_path):
    # without --kmax the counts run to one below the Fock truncation of the
    # peak photon number mu = (|alpha| + |beta|)^2 = 1.44, fock_dim's
    # ceil(mu + 10*sqrt(mu + 1) + 20) = 38, so to 37
    out = tmp_path / "pk.csv"
    assert main(["pk", "--alpha", "1.2", "--sigma", "0.1", "--output", str(out)]) == EXIT_OK
    manifest, _, rows = read_csv(out)
    assert [int(r[0]) for r in rows] == list(range(38))
    (line,) = [l for l in manifest if l.startswith("# parameters: ")]
    assert "kmax=37" in line.split()


@pytest.mark.parametrize(("alpha", "beta", "sigma"),
                         [(1.5, -0.5, 0.3), (1 + 0.5j, 0.8j, 1.0), (4.0, -1.5, 0.45)])
def test_pk_default_kmax_is_the_fock_truncation(tmp_path, alpha, beta, sigma):
    # one truncation rule: the default count range is the Helstrom path's
    # fock_dim of the peak amplitude |alpha| + |beta|, less one, and leaves
    # the same tail bound
    out = tmp_path / "pk.csv"
    assert main(["pk", "--alpha", str(alpha), "--beta", str(beta), "--sigma", str(sigma),
                 "--output", str(out)]) == EXIT_OK
    manifest, _, rows = read_csv(out)
    (line,) = [l for l in manifest if l.startswith("# parameters: ")]
    params = dict(item.split("=", 1) for item in line.removeprefix("# parameters: ").split())
    kmax = fock_dim((abs(alpha) + abs(beta),)) - 1
    assert int(params["kmax"]) == kmax
    assert [int(r[0]) for r in rows] == list(range(kmax + 1))
    assert float(params["tail_mass"]) <= 1e-12


def test_helstrom_report(capsys):
    assert main(["helstrom", "--nbar", "2", "--sigma", "0"]) == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["constellation"] == "parametrized"
    assert float(kv["perr_helstrom"]) == pytest.approx(
        perr_helstrom(make_bpsk(2.0), PhaseNoise(0.0)), abs=1e-10
    )
    assert float(kv["perr_helstrom_noiseless"]) == pytest.approx(
        perr_helstrom(make_bpsk(2.0), PhaseNoise(0.0)), rel=1e-10
    )


def test_helstrom_explicit_amplitudes(capsys):
    rc = main(["helstrom", "--sigma", "0.45", "--alpha0", "-1.9", "--alpha1", "0.15"])
    assert rc == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["constellation"] == "explicit"
    assert 0.0 < float(kv["perr_helstrom"]) < 0.5


def test_helstrom_optimized_constellation(capsys):
    rc = main(["helstrom", "--nbar", "2", "--sigma", "0.45", "--optimize-constellation"])
    assert rc == EXIT_OK
    kv = parse_kv(capsys.readouterr().out)
    assert kv["constellation"] == "optimized"
    assert float(kv["mean_photon_number"]) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("argv, message", [
    (["--alpha0", "-1", "--alpha1", "1", "--theta", "1.0", "--nbar", "2"], "one constellation source"),
    (["--alpha0", "-1", "--alpha1", "1", "--optimize-constellation", "--nbar", "2"],
     "one constellation source"),
    (["--theta", "1.0", "--optimize-constellation", "--nbar", "2"], "one constellation source"),
    (["--alpha0", "-1", "--alpha1", "1", "--nbar", "1"], "not with --alpha0 and --alpha1"),
], ids=["amplitudes-theta", "amplitudes-optimize", "theta-optimize", "amplitudes-nbar"])
def test_helstrom_takes_one_constellation_source(argv, message, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("helstrom computed before its sources were checked")

    monkeypatch.setattr(cli, "optimize_helstrom", no_work)
    monkeypatch.setattr(cli, "perr_helstrom", no_work)
    assert main(["helstrom", "--sigma", "0.3", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# Options that change no number in the CSV a command writes.
NOT_IN_MANIFEST = {"subcommand", "func", "output", "jobs", "validate", "seed", "trace_output"}


@pytest.mark.parametrize("argv", [
    ["sweep-nbar", "--nbar-max", "1", "--step", "1"],
    ["sweep-sigma", "--nbar", "2", "--sigma-max", "0", "--step", "1", "--pnr-list", "1",
     "--grid-resolution", "5", "--beta-resolution", "5"],
    ["optimize", "--nbar", "2", "--sigma", "0", "--pnr", "1",
     "--grid-resolution", "5", "--beta-resolution", "5"],
    ["pk", "--alpha", "1.2", "--sigma", "0.3", "--kmax", "4"],
])
def test_manifest_records_every_number_changing_option(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    flag = "--trace-output" if argv[0] == "optimize" else "--output"
    # every average of sweep-nbar is at sigma 0: it has no tolerance to set
    tolerance = None if argv[0] == "sweep-nbar" else "1e-09"
    argv = [*argv, *(["--tolerance", "1e-9"] if tolerance else []),
            "--efficiency", "0.9", flag, str(out)]
    assert main(argv) == EXIT_OK
    manifest, _, _ = read_csv(out)
    (line,) = [l for l in manifest if l.startswith("# parameters: ")]
    params = dict(kv.split("=", 1) for kv in line.removeprefix("# parameters: ").split())
    options = set(vars(build_parser().parse_args(argv))) - NOT_IN_MANIFEST
    assert options <= set(params)
    assert params.get("tolerance") == tolerance
    assert params["efficiency"] == "0.9"


def test_usage_errors(capsys):
    assert main(["sql", "--nbar", "2"]) == EXIT_USAGE          # missing --sigma
    assert main(["sql", "--nbar", "abc", "--sigma", "0"]) == EXIT_USAGE
    assert main(["sweep-nbar", "--nbar-max", "2", "--step", "-1",
                 "--output", "-"]) == EXIT_USAGE
    assert main(["helstrom", "--nbar", "2", "--sigma", "0",
                 "--alpha0", "1.0"]) == EXIT_USAGE
    # --theta (the BPSK angle by default) and --optimize-constellation need --nbar
    for source in ([], ["--theta", "1.0"], ["--optimize-constellation"]):
        assert main(["helstrom", "--sigma", "0", *source]) == EXIT_USAGE
    # helstrom and sweep-nbar have no quadrature tolerance to set
    assert main(["helstrom", "--nbar", "2", "--sigma", "0.1",
                 "--tolerance", "1e-9"]) == EXIT_USAGE
    assert main(["sweep-nbar", "--nbar-max", "2", "--step", "1",
                 "--tolerance", "1e-9"]) == EXIT_USAGE
    for value in ("nan", "inf"):
        assert main(["sql", "--nbar", value, "--sigma", "0"]) == EXIT_USAGE
        assert "nbar must be finite" in capsys.readouterr().err
    assert main(["sql", "--nbar", "2", "--sigma", "0", "--efficiency", "nan"]) == EXIT_USAGE
    for bounds in (["--nbar-max", "inf", "--step", "1"],
                   ["--nbar-min=-inf", "--nbar-max", "1", "--step", "1"],
                   ["--nbar-max", "1", "--step", "nan"],
                   ["--nbar-max", "1", "--step", "inf"]):
        assert main(["sweep-nbar", *bounds]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
    # non-finite amplitudes fail before the default kmax or any average
    for amplitudes in (["--alpha", "1", "--beta", "inf"],
                       ["--alpha", "nan", "--beta", "0", "--kmax", "3"],
                       ["--alpha", "inf"],
                       ["--alpha", "1", "--beta", "nan", "--kmax", "3"]):
        assert main(["pk", *amplitudes, "--sigma", "0.1"]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["--validate", "-5"], ["--validate", "10", "--seed", "-1"]])
def test_optimize_validation_errors_fail_before_the_search(bad, monkeypatch, capsys):
    def no_search(problem):
        raise AssertionError("the search ran before the trial settings were checked")

    monkeypatch.setattr(cli, "optimize", no_search)
    assert main(["optimize", "--nbar", "2", "--sigma", "0", "--pnr", "1",
                 *FAST_GRID, *bad]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", [
    ["--grid-resolution", "1"],
    ["--pnr-list", "0"],
    ["--tolerance", "nan"],
    ["--tolerance", "inf"],
    ["--jobs", "0"],
    ["--efficiency", "3"],
    ["--sigma-min", "0.3"],
])
def test_sweep_sigma_usage_errors_fail_before_any_cell(bad, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep-sigma", "--nbar", "2", "--sigma-max", "0", "--step", "1",
            "--pnr-list", "1", "--output", str(out), *FAST_GRID, *bad]
    assert main(argv) == EXIT_USAGE
    assert not out.exists()
    assert "warning:" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep-nbar", "--nbar-max", "1e9", "--step", "1e-9"],
    ["sweep-sigma", "--nbar", "2", "--sigma-max", "1e9", "--step", "1e-9"],
])
def test_absurd_range_is_a_usage_error(argv, tmp_path, capsys):
    # 1e18 points: the range's allocation fails at once, so nothing is allocated
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == EXIT_USAGE
    assert "too many to allocate" in capsys.readouterr().err
    assert not out.exists()


ALLOCATE = "usage error: too many to allocate: "
REPRESENT = "usage error: too large to represent: "


@pytest.mark.parametrize("argv, message", [
    (["pk", "--alpha", "1", "--sigma", "0.1", "--kmax", "1000000000000000"], ALLOCATE),
    (["helstrom", "--nbar", "1e16", "--sigma", "0.1"], ALLOCATE),
    (["optimize", "--nbar", "2", "--sigma", "0.1", "--pnr", "100000000000"], ALLOCATE),
    # the default kmax squares the peak amplitude, past the largest float
    (["pk", "--alpha", "1e200", "--sigma", "0.1"], REPRESENT),
    (["pk", "--alpha", "2", "--beta", "1e200", "--sigma", "0"], REPRESENT),
    # Kennedy's photocount mean 4*nbar, past the float range
    (["sweep-nbar", "--nbar-max", "1e308", "--step", "1e308"], REPRESENT),
], ids=[f"argv{i}" for i in range(6)])
def test_absurd_size_is_a_usage_error(argv, message, capsys):
    # petabytes: beyond any address space, so the allocation is refused at
    # once; a magnitude past the float range fails before any average
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "no-such-dir" / "x.csv"
    rc = main(["sweep-nbar", "--nbar-max", "1", "--step", "1", "--output", str(missing)])
    assert rc == EXIT_IO


@pytest.mark.parametrize("argv, flag", [
    (["sweep-sigma", "--nbar", "2", "--sigma-max", "0", "--step", "1", "--pnr-list", "1"],
     "--output"),
    (["optimize", "--nbar", "2", "--sigma", "0", "--pnr", "1"], "--trace-output"),
])
@pytest.mark.parametrize("unwritable", ["no-such-dir/out.csv", "."])
def test_unwritable_output_fails_before_the_work(argv, flag, unwritable, tmp_path,
                                                 monkeypatch, capsys):
    def no_search(problem):
        raise AssertionError("the search ran before the output path was checked")

    monkeypatch.setattr(cli, "optimize", no_search)
    monkeypatch.setattr("phaserx.optimizer.optimize", no_search)
    path = tmp_path / unwritable
    assert main([*argv, *FAST_GRID, flag, str(path)]) == EXIT_IO
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == []


def test_numerical_failure_exit_code(capsys):
    # far beyond the quadrature order cap: the average cannot stabilize
    assert main(["sql", "--nbar", "2", "--sigma", "40"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "phaserx" in capsys.readouterr().out


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            line = line.removeprefix("$ ")
            if line.startswith("phaserx "):
                commands.append(shlex.split(line)[1:])
    assert len(commands) >= 4
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
