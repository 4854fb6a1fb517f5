import csv
import functools
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rabiotto import figure_preset, parse_config, spectral
from rabiotto.cli import _load_config, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST_CONFIG = {
    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 3},
    "cutoff": {"mode": "fixed", "n_max": 12},
    "n_levels": 6,
    "workers": 1,
}


PRESET_HASHES = {
    "fig2": "9db5b1bf61a8", "fig3": "692e703d9e44", "fig4": "25eb3fa81fa3",
    "fig5": "19452d2dfddd", "fig6": "fb641e11ce00", "fig7": "b08677a1aabe",
    "fig8": "b1645b4b7d50", "fig9": "e17d38089b5d", "fig10": "a838b78eb3bb",
}


@pytest.fixture
def fast_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    return str(path)


class TestPresetCommand:
    def test_prints_resolved_config(self, capsys):
        code, out, _ = run_cli(["preset", "fig7"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "qubit-frequency"
        assert doc["series"]["values"] == [1.0, 1.5, 2.0]

    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run_cli(["preset", "fig99"], capsys)
        assert code == 2
        assert "unknown preset" in err

    # keyed by preset, so a test keeps its name when its hash moves
    @pytest.mark.parametrize("name", PRESET_HASHES)
    def test_preset_path_keeps_the_config_hash(self, name, monkeypatch):
        expected = PRESET_HASHES[name]
        text = json.dumps(figure_preset(name).resolved_dict())
        assert parse_config(text, environ={}).config_hash() == expected
        for variable in [v for v in os.environ if v.startswith("RABIOTTO_")]:
            monkeypatch.delenv(variable)
        assert _load_config(build_parser().parse_args(["sweep", "--preset", name])).config_hash() == expected

    @pytest.mark.parametrize(
        "section, key, value",
        [("cutoff", "tol", 1e-6), ("discord", "refine", False), ("discord", "n_theta", 16), ("discord", "n_phi", 32),
         ("cutoff", "ceiling", 512)],
    )
    def test_removed_certificate_keys_are_config_errors(self, section, key, value, tmp_path, capsys):
        # the cutoff tolerance and ceiling, the discord refinement and the
        # discord grid are fixed, and discord is a boolean; a document saved by
        # an older `rabiotto preset` that still sets them is rejected
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**FAST_CONFIG, section: {key: value}}), encoding="utf-8")
        code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        if section == "discord":
            message = f"discord: expected a boolean, got {({key: value})!r}"
        else:
            message = f"{section}.{key}: unknown configuration key"
        assert err == f"rabiotto: config error: {message}\n"

    def test_round_trips_through_config_flag(self, tmp_path, capsys):
        cfg = tmp_path / "fig9.json"
        code, _, _ = run_cli(["preset", "fig9", "--out", str(cfg)], capsys)
        assert code == 0
        data = json.loads(cfg.read_text(encoding="utf-8"))
        data["sweep"]["n_points"] = 2
        data["cutoff"] = {"mode": "fixed", "n_max": 10}
        data["n_levels"] = 4
        data["workers"] = 1
        cfg.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("g_over_omega,level_index,energy_relative")


class TestSweepCommand:
    def test_stdout_csv(self, fast_config_path, capsys):
        code, out, _ = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:2] == ["g_over_omega_c", "theta"]
        assert len(lines) == 4

    def test_output_file_and_json(self, fast_config_path, tmp_path, capsys):
        out_path = tmp_path / "data.json"
        code, out, _ = run_cli(
            ["sweep", "--config", fast_config_path, "--out", str(out_path), "--format", "json"],
            capsys,
        )
        assert code == 0
        assert out == ""  # written to file, not stdout
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["config"]["n_levels"] == 6
        assert len(doc["rows"]) == 3

    def test_series_preset_runs(self, monkeypatch, capsys):
        # a series preset's resolved config must go back through the parser
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        monkeypatch.setenv("RABIOTTO_CUTOFF__MODE", "fixed")
        monkeypatch.setenv("RABIOTTO_CUTOFF__N_MAX", "16")
        code, out, err = run_cli(["sweep", "--preset", "fig7"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].split(",")[0] == "series_omega_qh"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "1", "1.5", "1.5", "2", "2"]

    @pytest.mark.parametrize("kind", ["cycle", "levels", "approx"])
    def test_truncation_warnings_name_their_points(self, kind, tmp_path, capsys):
        path = tmp_path / "two-levels.json"
        doc = {"kind": kind, "n_levels": 2, "t_hot": 1.0, "cutoff": {"mode": "fixed", "n_max": 16},
               "sweep": {"n_points": 3, "stop": 1.0}, "workers": 1}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 0
        warnings = err.splitlines()
        assert len(warnings) == 3
        tails = []
        for g, line in zip(("0.0", "0.5", "1.0"), warnings):
            prefix = f"rabiotto: warning: g_over_omega_c = {g}: truncated sums: hot-bath tail population "
            assert line.startswith(prefix) and line.endswith(" beyond 2 levels")
            tails.append(float(line[len(prefix):].split()[0]))
        # the table is untouched: a header and one row per point, no warning text
        lines = out.splitlines()
        assert len(lines) == 4 and "warning" not in out
        if kind == "cycle":
            column = lines[0].split(",").index("tail_mass_hot")
            rows = [float(line.split(",")[column]) for line in lines[1:]]
            assert rows == pytest.approx(tails, rel=1e-3)

    def test_basis_smaller_than_n_levels_warns_at_every_point(self, capsys, monkeypatch):
        # cutoff 4 holds 8 levels, so the sums stop short of n_levels = 24 and the
        # hot tail is empty by construction; the table is what the cutoff gives
        monkeypatch.setenv("RABIOTTO_CUTOFF__MODE", "fixed")
        monkeypatch.setenv("RABIOTTO_CUTOFF__N_MAX", "4")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["sweep", "--workers", "1"], capsys)
        assert code == 0
        assert err.splitlines() == [
            f"rabiotto: warning: g_over_omega_c = {g}: truncated sums: the basis holds 8 levels,"
            " fewer than n_levels 24"
            for g in ("0.0", "3.5")
        ]
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["W"], row["regime"], row["error"]) for row in rows] == [
            ("0.00729920828938", "engine", ""), ("-0.000252686363736", "refrigerator", ""),
        ]

    def test_spectrum_larger_than_its_fixed_basis_is_config_error(self, capsys, monkeypatch):
        # a cycle sweep at cutoff 4 warns (above); a spectrum row would need
        # 24 levels from a basis of 8, known before any point runs
        monkeypatch.setenv("RABIOTTO_CUTOFF__MODE", "fixed")
        monkeypatch.setenv("RABIOTTO_CUTOFF__N_MAX", "4")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["spectrum", "--workers", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "rabiotto: config error: cutoff.n_max: a spectrum of 24 levels needs 2 * n_max >= n_levels,"
            " got n_max 4\n"
        )

    def test_run_keys_leave_the_config_hash_alone(self, fast_config_path, tmp_path, capsys):
        # workers, --format and --out say how a run executes and where it writes
        def hashes(table: str) -> set[str]:
            return {row["config_hash"] for row in csv.DictReader(io.StringIO(table))}

        command = ["sweep", "--config", fast_config_path]
        found = set()
        for workers in ("1", "2"):
            code, out, _ = run_cli([*command, "--workers", workers], capsys)
            assert code == 0
            found |= hashes(out)
        code, out, _ = run_cli([*command, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        column = doc["columns"].index("config_hash")
        found |= {doc["config_hash"], *(row[column] for row in doc["rows"])}
        path = tmp_path / "out.csv"
        assert run_cli([*command, "--out", str(path)], capsys)[0] == 0
        found |= hashes(path.read_text(encoding="utf-8"))
        assert len(found) == 1

    def test_config_and_preset_conflict(self, fast_config_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--config", fast_config_path, "--preset", "fig2"], capsys
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["sweep", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "cannot read config file" in err

    def test_invalid_sweep_range_is_config_error(self, fast_config_path, capsys, monkeypatch):
        monkeypatch.setenv("RABIOTTO_SWEEP__START", "-1")
        code, out, err = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 2
        assert out == ""
        assert "g must be >= 0" in err

    def test_ceiling_below_scan_start_is_config_error(self, capsys, monkeypatch):
        # the scan would start at 600, above the ceiling 512, and certify nothing
        monkeypatch.setenv("RABIOTTO_N_LEVELS", "600")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["sweep"], capsys)
        assert code == 2
        assert out == ""
        assert err == "rabiotto: config error: n_levels: auto cutoffs certify at most 512 levels, got 600\n"

    @pytest.mark.parametrize("command", [["sweep"], ["discord", "--preset", "fig4"]])
    def test_cutoff_scan_failure_is_the_same_for_any_worker_count(self, command, capsys, monkeypatch):
        # the endpoint scans run on the sweep's executor: threads for sweep,
        # processes for discord; a scan that fails there fails the run as it does serially.
        # The partial pickles, so the process pool runs it too
        monkeypatch.setattr(
            "rabiotto.sweep.converged_cutoff", functools.partial(spectral.converged_cutoff, ceiling=24)
        )
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        message = "rabiotto: numerical failure: cutoff ceiling 24 reached without 24-level convergence to 1.0e-08\n"
        for workers in ("1", "2"):
            assert run_cli([*command, "--workers", workers], capsys) == (3, "", message)

    def test_every_point_failing_is_numerical_failure(self, fast_config_path, capsys, monkeypatch):
        # each failed point leaves its row with an error cell; when no point
        # computed anything the run exits 3, after printing the table
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("rabiotto.sweep.run_cycles", fail)
        code, out, err = run_cli(["sweep", "--config", fast_config_path, "--workers", "1"], capsys)
        assert code == 3
        assert err == "rabiotto: every sweep point failed\n"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == FAST_CONFIG["sweep"]["n_points"]
        assert all(row["error"] == "LinAlgError: Eigenvalues did not converge" for row in rows)

    def test_single_level_cycle_is_config_error(self, capsys, monkeypatch):
        # W and Q over the ground level alone are zero at every point
        monkeypatch.setenv("RABIOTTO_N_LEVELS", "1")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["sweep"], capsys)
        assert code == 2
        assert out == ""
        assert "config error: n_levels" in err

    def test_single_level_levels_sweep_is_config_error(self, capsys, monkeypatch):
        # a levels row reports E_1 and P_1, which one level cannot give
        monkeypatch.setenv("RABIOTTO_N_LEVELS", "1")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["sweep", "--preset", "fig3"], capsys)
        assert code == 2
        assert out == ""
        assert "config error: n_levels: kind levels" in err

    def test_series_parameter_of_another_variant_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(
            json.dumps({**FAST_CONFIG, "series": {"parameter": "alpha", "values": [0.5, 1.5]}}),
            encoding="utf-8",
        )
        code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "series.parameter: alpha is only swept in the coupled-coupling variant" in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sweep": {"n_points": 1}}', encoding="utf-8")
        code, _, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 2
        assert "n_points" in err


class TestCycleCommand:
    def test_single_row_summary(self, fast_config_path, capsys):
        code, out, _ = run_cli(["cycle", "--config", fast_config_path], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g_over_omega_c,theta,variant,W,Q_h,Q_c,eta,regime,config_hash"
        assert len(lines) == 2

    def test_json_format(self, fast_config_path, capsys):
        code, out, _ = run_cli(["cycle", "--config", fast_config_path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == [
            "g_over_omega_c", "theta", "variant", "W", "Q_h", "Q_c", "eta", "regime", "config_hash",
        ]
        assert len(doc["rows"]) == 1
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["config_hash"] == doc["config_hash"]
        assert row["variant"] == "resonator-frequency"
        assert abs(row["W"] - (row["Q_h"] + row["Q_c"])) < 1e-10

    def test_per_level_file(self, fast_config_path, tmp_path, capsys):
        per_level = tmp_path / "levels.csv"
        code, out, _ = run_cli(
            ["cycle", "--config", fast_config_path, "--per-level", str(per_level)], capsys
        )
        assert code == 0
        lines = per_level.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,E_n_h,E_n_c,P_n_h,P_n_c,W_n,config_hash"
        assert len(lines) == 1 + 6  # n_levels rows
        first = lines[1].split(",")
        assert first[0] == "0" and first[5] == "0"  # W_0 = 0 exactly

    @pytest.mark.parametrize(
        "variable, value, message",
        [
            ("RABIOTTO_G_OVER_OMEGA_C", "-1", "g must be >= 0"),
            ("RABIOTTO_G_OVER_OMEGA_C", "NaN", "g_over_omega_c: expected a finite number"),
            ("RABIOTTO_OMEGA_QC", "NaN", "omega_qc: expected a finite number"),
        ],
    )
    def test_invalid_physical_parameters_are_config_errors(
        self, fast_config_path, capsys, monkeypatch, variable, value, message
    ):
        monkeypatch.setenv(variable, value)
        code, out, err = run_cli(["cycle", "--config", fast_config_path], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_ignores_the_sweep_range(self, fast_config_path, capsys, monkeypatch):
        def summary():
            code, out, _ = run_cli(["cycle", "--config", fast_config_path], capsys)
            assert code == 0
            header, row = out.splitlines()
            return {k: v for k, v in zip(header.split(","), row.split(",")) if k != "config_hash"}

        expected = summary()
        monkeypatch.setenv("RABIOTTO_SWEEP__START", "-1")
        assert summary() == expected

    def test_discord_preset_runs_one_point_without_discord(self, capsys, monkeypatch):
        # the summary row has no discord column, so none is computed; the point
        # is the template's g = 0 on its theta = 0, not the sweep or the series
        calls = []
        monkeypatch.setattr("rabiotto.correlations.quantum_discord", lambda *args, **kw: calls.append(args))
        code, out, err = run_cli(["cycle", "--preset", "fig4", "--workers", "1"], capsys)
        assert (code, err, calls) == (0, "", [])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert (rows[0]["g_over_omega_c"], rows[0]["theta"]) == ("0", "0")

    def test_lapack_failure_is_numerical_failure(self, fast_config_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("rabiotto.cli.run_cycle", fail)
        code, _, err = run_cli(["cycle", "--config", fast_config_path], capsys)
        assert code == 3
        assert "numerical failure: Eigenvalues did not converge" in err


class TestParserReuse:
    """``main`` parses every call with one cached parser."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_keep_their_own_values(self, fast_config_path, tmp_path, capsys, monkeypatch):
        import rabiotto.cli

        seen = []
        run_sweep = rabiotto.cli.run_sweep

        def recording(config):
            seen.append((config.kind, config.workers, config.out_format))
            return run_sweep(config)

        monkeypatch.setattr(rabiotto.cli, "run_sweep", recording)
        per_level = tmp_path / "levels.csv"
        code, out, _ = run_cli(["sweep", "--config", fast_config_path, "--workers", "2", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["config"]["workers"] == 2
        code, out, _ = run_cli(["cycle", "--config", fast_config_path, "--per-level", str(per_level)], capsys)
        assert code == 0 and per_level.exists()
        per_level.unlink()
        code, out, _ = run_cli(["spectrum", "--config", fast_config_path], capsys)
        assert code == 0 and out.startswith("g_over_omega,level_index,")
        code, out, _ = run_cli(["cycle", "--config", fast_config_path], capsys)
        assert code == 0 and out.startswith("g_over_omega_c,") and not per_level.exists()
        code, out, _ = run_cli(["preset", "fig5"], capsys)
        assert code == 0 and json.loads(out)["series"]["parameter"] == "theta"
        code, out, _ = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 0 and out.startswith("g_over_omega_c,")
        # the document's workers (1) and the default format come back after --workers 2 --format json
        assert seen == [("cycle", 2, "json"), ("spectrum", 1, "csv"), ("cycle", 1, "csv")]


class TestDiscordCommand:
    def test_discord_forced_on(self, tmp_path, capsys):
        cfg = dict(FAST_CONFIG)
        cfg["sweep"] = {"start": 0.5, "stop": 1.0, "n_points": 2}
        cfg["discord"] = False
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run_cli(["discord", "--config", str(path)], capsys)
        assert code == 0
        header = out.splitlines()[0]
        for column in ("D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34"):
            assert column in header

    @pytest.mark.parametrize("name, kind", [("fig9", "spectrum"), ("fig3", "levels"), ("fig10", "approx")])
    def test_preset_of_a_kind_without_discord_is_config_error(self, name, kind, capsys, monkeypatch):
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["discord", "--preset", name, "--workers", "1"], capsys)
        assert code == 2
        assert out == ""
        assert f"discord: only cycle sweeps compute discord, got kind {kind}" in err


@pytest.mark.parametrize(
    "args",
    [["sweep", "--out", "{missing}/x.csv"], ["preset", "fig2", "--out", "{missing}/x.json"],
     ["cycle", "--per-level", "{missing}/p.csv"]],
    ids=["sweep-out", "preset-out", "cycle-per-level"],
)
def test_unwritable_output_is_config_error(args, fast_config_path, tmp_path, capsys):
    # the run comes first, so the directory's absence is found only when the file is written
    missing = tmp_path / "missing"
    args = [arg.format(missing=missing) for arg in args]
    if args[0] != "preset":
        args += ["--config", fast_config_path]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    # the last line, after any warnings of the run itself
    assert err.splitlines()[-1].startswith(
        f"rabiotto: config error: cannot write output: [Errno 2] No such file or directory: '{missing}/"
    )
    assert not missing.exists()


class TestApproxCommand:
    def test_empty_config_file_is_config_error(self, capsys):
        code, _, err = run_cli(["approx", "--config", "/dev/null"], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_with_inline_defaults(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "approx",
                    "sweep": {"start": 0.0, "stop": 1.5, "n_points": 3},
                    "cutoff": {"mode": "fixed", "n_max": 16},
                    "workers": 1,
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(["approx", "--config", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("g_over_omega,W1_numeric,W1_approx,bound")

    def test_ratio_without_a_bound_is_config_error(self, capsys, monkeypatch):
        # R = 1 has no positive-work bound; the sweep must not start
        monkeypatch.setenv("RABIOTTO_RATIO", "1")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["approx"], capsys)
        assert code == 2
        assert out == ""
        assert "config error: ratio" in err

    def test_single_level_is_config_error(self, capsys, monkeypatch):
        # the approx rows report W_1, which one level cannot give
        monkeypatch.setenv("RABIOTTO_N_LEVELS", "1")
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "2")
        code, out, err = run_cli(["approx"], capsys)
        assert code == 2
        assert out == ""
        assert "config error: n_levels" in err


class TestEnvOverride:
    def test_env_prefix(self, fast_config_path, capsys, monkeypatch):
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "4")
        code, out, _ = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_misspelled_variable_is_config_error(self, fast_config_path, capsys, monkeypatch):
        monkeypatch.setenv("RABIOTTO_SWEEP__NPOINTS", "2")
        code, out, err = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 2
        assert out == ""
        assert "sweep.npoints: unknown configuration key" in err


class TestConsoleScript:
    def test_installed_entry_point(self, fast_config_path, tmp_path):
        out_path = tmp_path / "w.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rabiotto.cli", "sweep",
             "--config", fast_config_path, "--out", str(out_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out_path.read_text(encoding="utf-8").startswith("g_over_omega_c,")


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# how each entry point loads the CLI: the console script imports rabiotto.cli
# and calls main; `python -m rabiotto.cli` runs the module as __main__
ENTRY_POINTS = {
    "console-script": "from rabiotto.cli import main",
    "python-m": (
        "import runpy\n"
        "sys.argv = ['rabiotto', 'preset', 'fig2', '--out', os.devnull]\n"
        "try:\n"
        "    runpy.run_module('rabiotto.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    ),
}


def _blas_environment_after(code, **variables):
    """The BLAS variables, and whether numpy is loaded, after ``code`` runs in a
    fresh interpreter whose environment has none of them but ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES} | variables
    probe = f"import os, sys\n{code}\nprint([os.environ.get(v) for v in {BLAS_VARIABLES!r}], 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestBlasThreads:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_cli_sets_unset_variables_to_one(self, entry):
        assert _blas_environment_after(ENTRY_POINTS[entry]) == "['1', '1', '1'] True"

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_value_the_user_set_wins(self, entry):
        assert _blas_environment_after(ENTRY_POINTS[entry], OMP_NUM_THREADS="2") == "['1', '2', '1'] True"

    @pytest.mark.parametrize(
        "code, numpy_loaded",
        [
            ("import rabiotto", False),
            # configs and presets resolve without the solvers
            ("import rabiotto; rabiotto.figure_preset('fig4')", False),
            ("import rabiotto; rabiotto.parse_config('{}')", False),
            pytest.param(
                "import rabiotto\n"
                "try:\n"
                "    rabiotto.SweepConfig(workers=-1)\n"
                "except rabiotto.ConfigError:\n"
                "    pass\n"
                "else:\n"
                "    raise AssertionError('workers = -1 passed the config rules')",
                False,
                id="a SweepConfig that breaks a rule-False",
            ),
            ("from rabiotto import run_cycle", True),
            ("from rabiotto import run_sweep", True),
        ],
    )
    def test_library_import_leaves_the_environment_alone(self, code, numpy_loaded):
        assert _blas_environment_after(code) == f"[None, None, None] {numpy_loaded}"

    @pytest.mark.parametrize("command, loaded", [("sweep fig2", False), ("discord fig4", True)])
    def test_only_a_process_pool_loads_multiprocessing(self, command, loaded):
        # discord sweeps run on processes, every other sweep on threads
        subcommand, preset = command.split()
        probe = (
            "import os, sys\n"
            "from rabiotto.cli import main\n"
            f"code = main([{subcommand!r}, '--preset', {preset!r}, '--workers', '2', '--out', os.devnull])\n"
            "print(code, 'multiprocessing' in sys.modules)"
        )
        env = os.environ | {"RABIOTTO_SWEEP__N_POINTS": "2"}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {loaded}"
