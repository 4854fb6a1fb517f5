import dataclasses
import json
import math

import numpy as np
import pytest

from rabiotto import ConfigError, figure_preset, parse_config, run_sweep
from rabiotto.sweep import (
    SweepConfig,
    build_protocol,
    render_csv,
    render_json,
    write_output,
)

FAST = json.dumps(
    {
        "sweep": {"start": 0.0, "stop": 1.0, "n_points": 3},
        "cutoff": {"mode": "fixed", "n_max": 16},
        "n_levels": 8,
        "workers": 1,
    }
)


class TestParseConfig:
    def test_empty_document_is_fig2_default(self):
        config = parse_config("", environ={})
        assert config.kind == "cycle"
        assert config.variant == "resonator-frequency"
        assert config.theta == 0.0
        assert config.ratio == 2.0
        assert config.t_cold == 0.019
        assert abs(config.t_hot - 9 * 0.019) < 1e-15
        assert (config.sweep.start, config.sweep.stop) == (0.0, 3.5)
        assert config.sweep.parameter == "g_over_omega_c"
        assert config.sweep.n_points == 100
        assert not config.discord.enabled

    def test_qubit_variant_defaults(self):
        config = parse_config(
            json.dumps({"variant": "qubit-frequency", "t_cold": 0.019, "t_hot": 4 * 0.019}),
            environ={},
        )
        assert config.omega_qc == 0.5
        assert abs(config.t_hot / config.t_cold - 4.0) < 1e-12

    def test_t_hot_defaults_to_nine_t_cold(self):
        config = parse_config(json.dumps({"t_cold": 0.02}), environ={})
        assert abs(config.t_hot - 0.18) < 1e-15

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError, match="n_points"):
            parse_config(json.dumps({"sweep": {"n_points": 1}}), environ={})

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="frobnicate: unknown"):
            parse_config(json.dumps({"frobnicate": 3}), environ={})

    def test_rejects_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="sweep.steps: unknown"):
            parse_config(json.dumps({"sweep": {"steps": 5}}), environ={})

    def test_rejects_reversed_range(self):
        with pytest.raises(ConfigError, match="sweep.start"):
            parse_config(json.dumps({"sweep": {"start": 2.0, "stop": 1.0}}), environ={})

    def test_rejects_type_mismatch_with_path(self):
        with pytest.raises(ConfigError, match="cutoff.tol: expected a number"):
            parse_config(json.dumps({"cutoff": {"tol": "tight"}}), environ={})

    @pytest.mark.parametrize("text", ['{"omega_qc": NaN}', '{"sweep": {"stop": Infinity}}'])
    def test_rejects_non_finite_numbers(self, text):
        with pytest.raises(ConfigError, match="expected a finite number"):
            parse_config(text, environ={})

    @pytest.mark.parametrize("values", [[float("nan")], ["pi"]])
    def test_rejects_non_finite_series_values(self, values):
        doc = {"series": {"parameter": "theta", "values": values}}
        with pytest.raises(ConfigError, match="series.values: expected finite numbers"):
            parse_config(json.dumps(doc), environ={})

    def test_rejects_wrong_variant_for_swept_parameter(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(json.dumps({"sweep": {"parameter": "alpha"}}), environ={})

    @pytest.mark.parametrize("parameter", ["alpha", "omega_qh"])
    def test_rejects_series_parameter_the_variant_does_not_vary(self, parameter):
        doc = {"series": {"parameter": parameter, "values": [0.5, 1.5]}}
        with pytest.raises(ConfigError, match=f"series.parameter: {parameter} is only swept"):
            parse_config(json.dumps(doc), environ={})

    @pytest.mark.parametrize("kind", ["spectrum", "levels", "approx"])
    def test_non_cycle_kinds_sweep_only_g(self, kind):
        doc = {"kind": kind, "g_over_omega_c": 1.0, "sweep": {"parameter": "theta", "start": 0.0, "stop": 1.0}}
        with pytest.raises(ConfigError, match="sweep.parameter: kind .* sweeps only g_over_omega_c"):
            parse_config(json.dumps(doc), environ={})

    @pytest.mark.parametrize(
        "extra", [{"theta": 0.3}, {"series": {"parameter": "theta", "values": [0.0, 0.4]}}]
    )
    def test_approx_is_the_theta_zero_closed_form(self, extra):
        with pytest.raises(ConfigError, match="theta = 0 closed form"):
            parse_config(json.dumps({"kind": "approx", **extra}), environ={})

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"n_theta": 0}, "discord.n_theta: must be >= 2"),
            ({"n_theta": -3}, "discord.n_theta: must be >= 2"),
            ({"n_theta": 1}, "discord.n_theta: must be >= 2"),
            ({"n_phi": 0}, "discord.n_phi: must be even and >= 2"),
            ({"n_phi": 31}, "discord.n_phi: must be even and >= 2"),
        ],
        ids=["n_theta=0", "n_theta=-3", "n_theta=1", "n_phi=0", "n_phi=31"],
    )
    def test_rejects_discord_grid_without_antipodes(self, grid, message):
        doc = {"discord": {"enabled": True, **grid}}
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(doc), environ={})

    def test_rejects_ceiling_below_scan_start(self):
        # auto mode scans from max(n_levels, 8); fixed mode never reads the ceiling
        with pytest.raises(ConfigError, match="cutoff.ceiling: must be >= the scan start 24, got 4"):
            parse_config(json.dumps({"cutoff": {"ceiling": 4}}), environ={})
        with pytest.raises(ConfigError, match="cutoff.ceiling: must be >= the scan start 8, got -1"):
            parse_config(json.dumps({"n_levels": 4, "cutoff": {"ceiling": -1}}), environ={})
        parse_config(json.dumps({"cutoff": {"mode": "fixed", "n_max": 12, "ceiling": 4}}), environ={})

    def test_rejects_bad_temperatures(self):
        with pytest.raises(ConfigError, match="t_cold"):
            parse_config(json.dumps({"t_cold": 0.1, "t_hot": 0.05}), environ={})

    def test_env_overrides(self):
        env = {
            "RABIOTTO_N_LEVELS": "12",
            "RABIOTTO_SWEEP__N_POINTS": "7",
            "RABIOTTO_DISCORD__ENABLED": "true",
            "RABIOTTO_VARIANT": "coupled-coupling",
        }
        config = parse_config("{}", environ=env)
        assert config.n_levels == 12
        assert config.sweep.n_points == 7
        assert config.discord.enabled
        assert config.variant == "coupled-coupling"

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope", environ={})


class TestFigurePresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            figure_preset("fig99")

    def test_fig2(self):
        config = figure_preset("fig2")
        assert config.kind == "cycle" and config.theta == 0.0 and config.ratio == 2.0
        assert (config.sweep.start, config.sweep.stop) == (0.0, 3.5)

    def test_fig6_alpha_series(self):
        config = figure_preset("fig6")
        assert config.variant == "coupled-coupling"
        assert config.series.parameter == "alpha"
        assert 1.0 in config.series.values
        assert config.sweep.n_points == 50 and config.sweep.stop == 2.0

    def test_fig7_qubit_protocol(self):
        config = figure_preset("fig7")
        assert config.variant == "qubit-frequency"
        assert config.omega_qc == 0.5
        assert abs(config.t_hot - 4 * 0.019) < 1e-15
        assert config.series.parameter == "omega_qh"
        assert set(config.series.values) == {1.0, 1.5, 2.0}

    def test_fig9_spectrum(self):
        config = figure_preset("fig9")
        assert config.kind == "spectrum" and config.n_levels == 10
        assert (config.sweep.start, config.sweep.stop) == (0.0, 3.5)

    def test_fig10_approx(self):
        config = figure_preset("fig10")
        assert config.kind == "approx" and config.ratio == 2.0

    def test_all_presets_resolve(self):
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
            assert isinstance(figure_preset(name), SweepConfig)


class TestRunSweep:
    def test_basic_cycle_sweep(self):
        result = run_sweep(parse_config(FAST, environ={}))
        assert len(result.rows) == 3
        cols = result.columns
        for name in ("g_over_omega_c", "theta", "variant", "W", "Q_h", "Q_c", "eta", "regime"):
            assert name in cols
        g_idx = cols.index("g_over_omega_c")
        assert [row[g_idx] for row in result.rows] == [0.0, 0.5, 1.0]
        w_idx, qh_idx, qc_idx = cols.index("W"), cols.index("Q_h"), cols.index("Q_c")
        for row in result.rows:
            assert abs(row[w_idx] - (row[qh_idx] + row[qc_idx])) < 1e-10

    @pytest.mark.parametrize(
        "preset, scans, cutoffs",
        [
            # the cold side does not depend on omega_qh: 2 cold + 3 x 2 hot
            ("fig7", 8, [96, 96, 96]),
            # nor on alpha, and g = 0 makes every hot side (2, 2, 0): 2 + 1 + 3
            ("fig6", 6, [48, 48, 96]),
        ],
    )
    def test_each_distinct_side_is_scanned_once(self, preset, scans, cutoffs, monkeypatch):
        import rabiotto.cycle
        import rabiotto.sweep

        scanned, used = [], []
        converged_cutoff, run_cycle = rabiotto.cycle.converged_cutoff, rabiotto.sweep.run_cycle

        def counting_scan(params, *args, **kwargs):
            scanned.append(params)
            return converged_cutoff(params, *args, **kwargs)

        def recording_cycle(protocol, cutoff):
            used.append(cutoff)
            return run_cycle(protocol, cutoff=cutoff)

        monkeypatch.setattr(rabiotto.cycle, "converged_cutoff", counting_scan)
        monkeypatch.setattr(rabiotto.sweep, "run_cycle", recording_cycle)
        config = figure_preset(preset)
        config = dataclasses.replace(
            config, sweep=dataclasses.replace(config.sweep, n_points=2), workers=1
        )
        result = run_sweep(config)
        assert len(scanned) == len(set(scanned)) == scans
        assert used == [c for c in cutoffs for _ in range(2)]
        assert all(row[result.columns.index("error")] == "" for row in result.rows)

    def test_spectrum_scans_only_cold_sides(self, monkeypatch):
        import rabiotto.cycle

        scanned = []
        converged_cutoff = rabiotto.cycle.converged_cutoff

        def counting_scan(params, *args, **kwargs):
            scanned.append(params)
            return converged_cutoff(params, *args, **kwargs)

        monkeypatch.setattr(rabiotto.cycle, "converged_cutoff", counting_scan)
        config = figure_preset("fig9")
        config = dataclasses.replace(
            config, sweep=dataclasses.replace(config.sweep, n_points=2), workers=1
        )
        run_sweep(config)
        cold = {build_protocol(config, None, x).cold for x in (config.sweep.start, config.sweep.stop)}
        assert len(scanned) == len(set(scanned)) == 2
        assert set(scanned) == cold

    def test_rejects_invalid_physical_parameters_at_sweep_endpoints(self):
        config = parse_config(json.dumps({"sweep": {"start": -1.0}}), environ={})
        with pytest.raises(ConfigError, match="g_over_omega_c = -1.0: g must be >= 0"):
            run_sweep(config)
        doc = {"variant": "coupled-coupling", "series": {"parameter": "alpha", "values": [1.0, -0.5]}}
        config = parse_config(json.dumps(doc), environ={})
        with pytest.raises(ConfigError, match="g must be >= 0"):
            run_sweep(config)

    def test_degenerate_two_point_sweep(self):
        config = parse_config(
            json.dumps(
                {
                    "sweep": {"start": 0.7, "stop": 0.7, "n_points": 2},
                    "cutoff": {"mode": "fixed", "n_max": 12},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        assert len(result.rows) == 2
        assert result.rows[0] == result.rows[1]

    def test_series_produces_one_block_per_value(self):
        config = parse_config(
            json.dumps(
                {
                    "series": {"parameter": "theta", "values": [0.0, 0.4]},
                    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 2},
                    "cutoff": {"mode": "fixed", "n_max": 12},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        assert len(result.rows) == 4
        s_idx = result.columns.index("series_theta")
        t_idx = result.columns.index("theta")
        assert [row[s_idx] for row in result.rows] == [0.0, 0.0, 0.4, 0.4]
        assert [row[t_idx] for row in result.rows] == [0.0, 0.0, 0.4, 0.4]

    def test_rows_echo_config_hash(self):
        config = parse_config(FAST, environ={})
        result = run_sweep(config)
        h_idx = result.columns.index("config_hash")
        assert all(row[h_idx] == config.config_hash() for row in result.rows)
        assert len(config.config_hash()) == 12

    def test_determinism_bit_identical(self):
        config = parse_config(FAST, environ={})
        text_a = render_csv(run_sweep(config))
        text_b = render_csv(run_sweep(config))
        assert text_a == text_b

    def test_worker_count_does_not_change_output(self):
        base = json.loads(FAST)
        base["workers"] = 1
        serial = render_csv(run_sweep(parse_config(json.dumps(base), environ={})))
        base["workers"] = 2
        parallel_cfg = parse_config(json.dumps(base), environ={})
        parallel = render_csv(run_sweep(parallel_cfg))
        # worker count is part of the config (hence the hash); compare data columns
        serial_rows = [r.rsplit(",", 1)[0] for r in serial.splitlines()]
        parallel_rows = [r.rsplit(",", 1)[0] for r in parallel.splitlines()]
        assert serial_rows == parallel_rows

    def test_per_point_failure_recorded(self):
        # a cutoff too small for n_levels makes relative_spectrum/report fail
        # at no point; instead force failure via a fixed cutoff below requirements
        config = parse_config(
            json.dumps(
                {
                    "kind": "spectrum",
                    "n_levels": 40,
                    "cutoff": {"mode": "fixed", "n_max": 8},  # dim 16 < 40 levels
                    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 2},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        err_idx = result.columns.index("error")
        assert all(row[err_idx] for row in result.rows)
        g_idx = result.columns.index("g_over_omega")
        assert [row[g_idx] for row in result.rows] == [0.0, 1.0]

    def test_failed_row_keeps_its_grid_point(self, monkeypatch):
        import rabiotto.sweep

        run_cycle = rabiotto.sweep.run_cycle

        def fail_at_theta_one(protocol, cutoff):
            if protocol.cold.theta == 1.0:
                raise ArithmeticError("forced")
            return run_cycle(protocol, cutoff=cutoff)

        monkeypatch.setattr(rabiotto.sweep, "run_cycle", fail_at_theta_one)
        doc = {
            "g_over_omega_c": 0.7,
            "sweep": {"parameter": "theta", "start": 0.0, "stop": 1.0, "n_points": 2},
            "cutoff": {"mode": "fixed", "n_max": 12},
            "workers": 1,
        }
        result = run_sweep(parse_config(json.dumps(doc), environ={}))
        ok, failed = result.rows
        assert ok[result.columns.index("error")] == ""
        assert failed[result.columns.index("error")] == "ArithmeticError: forced"
        assert failed[:5] == (0.7, 1.0, None, None, "resonator-frequency")
        assert ok[:5] == (0.7, 0.0, None, None, "resonator-frequency")

    def test_spectrum_rows_long_format(self):
        config = parse_config(
            json.dumps(
                {
                    "kind": "spectrum",
                    "n_levels": 5,
                    "cutoff": {"mode": "fixed", "n_max": 12},
                    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 2},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        assert len(result.rows) == 10  # 2 grid points x 5 levels
        lvl_idx = result.columns.index("level_index")
        e_idx = result.columns.index("energy_relative")
        assert [row[lvl_idx] for row in result.rows[:5]] == [0, 1, 2, 3, 4]
        assert result.rows[0][e_idx] == 0.0

    def test_approx_rows(self):
        config = parse_config(
            json.dumps(
                {
                    "kind": "approx",
                    "cutoff": {"mode": "fixed", "n_max": 16},
                    "sweep": {"start": 0.2, "stop": 1.8, "n_points": 3},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        cols = result.columns
        b_idx = cols.index("bound")
        assert all(abs(row[b_idx] - 1.0013582098917) < 1e-10 for row in result.rows)

    def test_levels_rows(self):
        config = parse_config(
            json.dumps(
                {
                    "kind": "levels",
                    "cutoff": {"mode": "fixed", "n_max": 16},
                    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 2},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        cols = result.columns
        for name in ("E1_h", "E1_c", "kT_h", "kT_c", "P1_h", "P1_c"):
            assert name in cols
        row0 = result.rows[0]
        assert abs(row0[cols.index("E1_h")] - 2.0) < 1e-10  # g=0: hot gap = omega_h
        assert abs(row0[cols.index("E1_c")] - 1.0) < 1e-10

    def test_discord_columns_present_when_enabled(self):
        config = parse_config(
            json.dumps(
                {
                    "sweep": {"start": 0.5, "stop": 1.0, "n_points": 2},
                    "cutoff": {"mode": "fixed", "n_max": 10},
                    "discord": {"enabled": True, "n_theta": 8, "n_phi": 16},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        for name in ("D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34",
                      "theta_m_opt", "phi_m_opt"):
            assert name in result.columns


class TestSerialization:
    def test_csv_format(self, tmp_path):
        config = parse_config(FAST, environ={})
        result = run_sweep(config)
        path = tmp_path / "out.csv"
        text = write_output(result, str(path), "csv")
        assert path.read_text(encoding="utf-8") == text
        lines = text.splitlines()
        assert lines[0].startswith("g_over_omega_c,")
        assert len(lines) == 1 + len(result.rows)

    def test_json_mirrors_csv(self, tmp_path):
        config = parse_config(FAST, environ={})
        result = run_sweep(config)
        doc = json.loads(render_json(result))
        assert doc["columns"] == list(result.columns)
        assert doc["config_hash"] == config.config_hash()
        csv_lines = render_csv(result).splitlines()[1:]
        for row_json, row_csv in zip(doc["rows"], csv_lines):
            w_idx = result.columns.index("W")
            assert f"{row_json[w_idx]:.12g}" == row_csv.split(",")[w_idx]

    def test_twelve_significant_digits(self):
        config = parse_config(FAST, environ={})
        result = run_sweep(config)
        w_idx = result.columns.index("W")
        cell = render_csv(result).splitlines()[2].split(",")[w_idx]
        assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13


class TestBuildProtocol:
    def test_swept_parameter_applied(self):
        config = parse_config(FAST, environ={})
        protocol = build_protocol(config, None, 1.3)
        assert abs(protocol.cold.g - 1.3) < 1e-15
        assert abs(protocol.hot.omega_cav - 2.0) < 1e-15

    def test_coupled_coupling_scaling(self):
        config = parse_config(
            json.dumps({"variant": "coupled-coupling", "alpha": 0.8}), environ={}
        )
        protocol = build_protocol(config, None, 1.0)
        assert abs(protocol.hot.g - 0.8 * 2.0 * 1.0) < 1e-14
