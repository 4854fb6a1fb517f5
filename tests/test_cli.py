import json

import numpy as np
import pytest

from rabiotto.cli import main


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

    def test_config_and_preset_conflict(self, fast_config_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--config", fast_config_path, "--preset", "fig2"], capsys
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["sweep", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    def test_invalid_sweep_range_is_config_error(self, fast_config_path, capsys, monkeypatch):
        monkeypatch.setenv("RABIOTTO_SWEEP__START", "-1")
        code, out, err = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 2
        assert out == ""
        assert "g must be >= 0" in err

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

    def test_lapack_failure_is_numerical_failure(self, fast_config_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("rabiotto.cli.run_cycle", fail)
        code, _, err = run_cli(["cycle", "--config", fast_config_path], capsys)
        assert code == 3
        assert "numerical failure: Eigenvalues did not converge" in err


class TestDiscordCommand:
    def test_discord_forced_on(self, tmp_path, capsys):
        cfg = dict(FAST_CONFIG)
        cfg["sweep"] = {"start": 0.5, "stop": 1.0, "n_points": 2}
        cfg["discord"] = {"enabled": False, "n_theta": 8, "n_phi": 16}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run_cli(["discord", "--config", str(path)], capsys)
        assert code == 0
        header = out.splitlines()[0]
        for column in ("D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34"):
            assert column in header

    def test_odd_phi_grid_is_config_error(self, tmp_path, capsys):
        cfg = {**FAST_CONFIG, "discord": {"n_theta": 8, "n_phi": 15}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run_cli(["discord", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "discord.n_phi: must be even and >= 2" in err


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


class TestEnvOverride:
    def test_env_prefix(self, fast_config_path, capsys, monkeypatch):
        monkeypatch.setenv("RABIOTTO_SWEEP__N_POINTS", "4")
        code, out, _ = run_cli(["sweep", "--config", fast_config_path], capsys)
        assert code == 0
        assert len(out.splitlines()) == 5


class TestConsoleScript:
    def test_installed_entry_point(self, fast_config_path, tmp_path):
        import subprocess
        import sys

        out_path = tmp_path / "w.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rabiotto.cli", "sweep",
             "--config", fast_config_path, "--out", str(out_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out_path.read_text(encoding="utf-8").startswith("g_over_omega_c,")
