import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from rabiotto import ConfigError, figure_preset, parse_config, run_sweep
from rabiotto.sweep import (
    CutoffPolicy,
    SeriesSpec,
    SweepAxis,
    SweepConfig,
    _series_cutoffs,
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
        config = parse_config("{}", environ={})
        assert config.kind == "cycle"
        assert config.variant == "resonator-frequency"
        assert config.theta == 0.0
        assert config.ratio == 2.0
        assert config.t_cold == 0.019
        assert abs(config.t_hot - 9 * 0.019) < 1e-15
        assert (config.sweep.start, config.sweep.stop) == (0.0, 3.5)
        assert config.sweep.parameter == "g_over_omega_c"
        assert config.sweep.n_points == 100
        assert not config.discord

    def test_empty_text_is_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("", environ={})

    def test_overrides_apply_after_the_environment(self):
        doc = json.dumps({"workers": 1, "sweep": {"stop": 1.0}})
        environ = {
            "RABIOTTO_WORKERS": "3", "RABIOTTO_DISCORD": "false", "RABIOTTO_SWEEP__N_POINTS": "5",
        }
        overrides = {"workers": 2, "discord": True, "sweep": {"start": 0.5}}
        config = parse_config(doc, environ=environ, overrides=overrides)
        assert (config.workers, config.discord) == (2, True)
        # the nested override keeps the document's and the environment's sibling keys
        assert (config.sweep.start, config.sweep.stop, config.sweep.n_points) == (0.5, 1.0, 5)

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
        # an integer t_cold still gives a float t_hot, so the hash sees 9.0
        assert repr(parse_config(json.dumps({"t_cold": 1}), environ={}).t_hot) == "9.0"
        with pytest.raises(ConfigError, match=r"^t_cold: expected a number, got 'cold'$"):
            parse_config(json.dumps({"t_cold": "cold"}), environ={})

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
        with pytest.raises(ConfigError, match="sweep.start: expected a number"):
            parse_config(json.dumps({"sweep": {"start": "zero"}}), environ={})

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

    def test_rejects_ceiling_below_scan_start(self):
        # auto mode scans from max(n_levels, 8) up to the fixed ceiling 512;
        # fixed mode never reads the ceiling
        with pytest.raises(ConfigError, match="^n_levels: auto cutoffs certify at most 512 levels, got 600$"):
            parse_config(json.dumps({"n_levels": 600}), environ={})
        parse_config(json.dumps({"n_levels": 512}), environ={})
        parse_config(json.dumps({"n_levels": 600, "cutoff": {"mode": "fixed", "n_max": 12}}), environ={})

    @pytest.mark.parametrize(
        "cutoff, message",
        [
            ({"mode": "per-point"}, "cutoff.mode: must be 'auto' or 'fixed', got 'per-point'"),
            ({"mode": "fixed"}, "cutoff.n_max: fixed cutoff requires n_max >= 2"),
            ({"mode": "fixed", "n_max": 1}, "cutoff.n_max: fixed cutoff requires n_max >= 2"),
            # an n_max in auto mode would be ignored: the scans pick the cutoffs
            ({"n_max": 8}, "cutoff.n_max: only fixed mode reads n_max, got 8"),
        ],
        ids=["mode", "no-n_max", "n_max=1", "n_max-in-auto-mode"],
    )
    def test_rejects_bad_cutoff_policy(self, cutoff, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(json.dumps({"cutoff": cutoff}), environ={})

    def test_rejects_spectrum_larger_than_its_fixed_basis(self):
        # cutoff 4 holds 8 levels; a spectrum row needs all n_levels of them,
        # while a cycle sweep only warns that its sums stop short
        doc = {"kind": "spectrum", "n_levels": 9, "cutoff": {"mode": "fixed", "n_max": 4}}
        message = "cutoff.n_max: a spectrum of 9 levels needs 2 * n_max >= n_levels, got n_max 4"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(doc), environ={})
        parse_config(json.dumps({**doc, "n_levels": 8}), environ={})
        parse_config(json.dumps({**doc, "kind": "cycle"}), environ={})

    def test_rejects_bad_temperatures(self):
        with pytest.raises(ConfigError, match="t_cold"):
            parse_config(json.dumps({"t_cold": 0.1, "t_hot": 0.05}), environ={})

    def test_env_overrides(self):
        env = {
            "RABIOTTO_N_LEVELS": "12",
            "RABIOTTO_SWEEP__N_POINTS": "7",
            "RABIOTTO_DISCORD": "true",
            "RABIOTTO_VARIANT": "coupled-coupling",
        }
        config = parse_config("{}", environ=env)
        assert config.n_levels == 12
        assert config.sweep.n_points == 7
        assert config.discord
        assert config.variant == "coupled-coupling"

    def test_misspelled_env_variable_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^sweep\.npoints: unknown configuration key$"):
            parse_config(FAST, environ={"RABIOTTO_SWEEP__NPOINTS": "2"})

    def test_env_path_through_a_null_object_starts_it_empty(self):
        doc = json.dumps({"series": None})
        config = parse_config(doc, environ={"RABIOTTO_SERIES__VALUES": "[0.1, 0.2]"})
        assert (config.series.parameter, config.series.values) == ("theta", (0.1, 0.2))

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope", environ={})

    @pytest.mark.parametrize("text", ["[]", "null"])
    def test_rejects_a_document_that_is_not_an_object(self, text):
        with pytest.raises(ConfigError, match="^config document must be a JSON object$"):
            parse_config(text, environ={})

    @pytest.mark.parametrize("key", ["cutoff", "series"])
    def test_rejects_a_section_that_is_not_an_object(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: expected an object$"):
            parse_config(json.dumps({key: [1.0]}), environ={})


class TestBuiltConfigsAreChecked:
    """A SweepConfig checks its rules when built, by any route, with parse_config's messages."""

    @pytest.mark.parametrize(
        "fields, document, message",
        [
            ({"variant": "coupled"}, {"variant": "coupled"}, "variant: unknown variant 'coupled'"),
            (
                {"sweep": SweepAxis("alpha", 0.5, 1.5, 3)},
                {"sweep": {"parameter": "alpha", "start": 0.5, "stop": 1.5, "n_points": 3}},
                "sweep.parameter: alpha is only swept in the coupled-coupling variant",
            ),
            (
                {"kind": "approx", "variant": "coupled-coupling"},
                {"kind": "approx", "variant": "coupled-coupling"},
                "kind: approx comparison requires the resonator-frequency variant",
            ),
            (
                {"kind": "spectrum", "sweep": SweepAxis("theta", 0.0, 1.0, 2)},
                {"kind": "spectrum", "sweep": {"parameter": "theta", "start": 0.0, "stop": 1.0, "n_points": 2}},
                "sweep.parameter: kind spectrum sweeps only g_over_omega_c (use a theta series)",
            ),
            (
                {"kind": "spectra"},
                {"kind": "spectra"},
                "kind: must be one of ('cycle', 'spectrum', 'levels', 'approx'), got 'spectra'",
            ),
            (
                # only cycle points compute discord
                {"kind": "spectrum", "discord": True},
                {"kind": "spectrum", "discord": True},
                "discord: only cycle sweeps compute discord, got kind spectrum",
            ),
            (
                {"out_format": "xml"},
                {"out_format": "xml"},
                "out_format: must be one of ('csv', 'json'), got 'xml'",
            ),
            (
                {"sweep": SweepAxis("omega_c", 0.5, 1.5, 3)},
                {"sweep": {"parameter": "omega_c", "start": 0.5, "stop": 1.5, "n_points": 3}},
                "sweep.parameter: must be one of ('g_over_omega_c', 'theta', 'alpha', 'omega_qh'), got 'omega_c'",
            ),
            (
                {"series": SeriesSpec("g_over_omega_c", (1.0,))},
                {"series": {"parameter": "g_over_omega_c", "values": [1.0]}},
                "series.parameter: must differ from sweep.parameter",
            ),
            (
                {"series": SeriesSpec("theta", ())},
                {"series": {"parameter": "theta", "values": []}},
                "series.values: must not be empty",
            ),
            ({"omega_ref": 0.0}, {"omega_ref": 0.0}, "omega_ref: must be > 0, got 0.0"),
            ({"n_levels": 0}, {"n_levels": 0}, "n_levels: must be >= 1, got 0"),
            ({"workers": -1}, {"workers": -1}, "workers: must be >= 0, got -1"),
        ],
        ids=["misspelled-variant", "alpha-axis", "approx-variant", "spectrum-theta-axis", "unknown-kind",
             "discord-on-spectrum", "out-format", "unknown-axis", "series-on-the-swept-axis", "empty-series",
             "omega-ref", "no-levels", "negative-workers"],
    )
    def test_invalid_config_fails_when_built(self, fields, document, message):
        built = {"cutoff": CutoffPolicy("fixed", 16), "workers": 1, **fields}
        for build in (
            lambda: SweepConfig(**built),
            lambda: dataclasses.replace(figure_preset("fig2"), **built),
            lambda: parse_config(json.dumps(document), environ={}),
        ):
            with pytest.raises(ConfigError) as raised:
                build()
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "cls, section, key, value, expected",
        [
            (SweepConfig, None, "workers", 1.5, "an integer"),
            (SweepConfig, None, "workers", True, "an integer"),
            (SweepConfig, None, "n_levels", 2.5, "an integer"),
            (SweepConfig, None, "omega_c", math.inf, "a finite number"),
            (SweepAxis, "sweep", "n_points", 2.5, "an integer"),
            (SweepConfig, None, "discord", 1, "a boolean"),
            (SweepAxis, "sweep", "start", "zero", "a number"),
            (SeriesSpec, "series", "values", "pi", "a list"),
        ],
    )
    def test_wrong_type_fails_when_built(self, cls, section, key, value, expected):
        message = f"{key}: expected {expected}, got {value!r}"
        with pytest.raises(ConfigError) as raised:
            cls(**{key: value})
        assert str(raised.value) == message
        if section is None:
            with pytest.raises(ConfigError) as raised:
                dataclasses.replace(figure_preset("fig2"), **{key: value})
            assert str(raised.value) == message
        document = {key: value} if section is None else {section: {key: value}}
        with pytest.raises(ConfigError) as raised:
            parse_config(json.dumps(document), environ={})
        assert str(raised.value) == (message if section is None else f"{section}.{message}")

    def test_built_series_values_are_floats(self):
        assert SeriesSpec(values=[0, 1]).values == (0.0, 1.0)

    def test_replace_reaches_the_cutoff_policy(self):
        with pytest.raises(ConfigError, match=r"^cutoff.n_max: fixed cutoff requires n_max >= 2$"):
            dataclasses.replace(figure_preset("fig2"), cutoff=CutoffPolicy("fixed"))
        with pytest.raises(ConfigError, match=r"^cutoff.n_max: only fixed mode reads n_max, got 8$"):
            dataclasses.replace(figure_preset("fig2"), cutoff=CutoffPolicy(n_max=8))

    def test_benchmark_warm_up_config_builds(self):
        # the benchmark harness runs this config before timing anything
        config = SweepConfig(sweep=SweepAxis(stop=0.5, n_points=2), cutoff=CutoffPolicy("fixed", 8), workers=1)
        result = run_sweep(config)
        assert [row[result.columns.index("error")] for row in result.rows] == ["", ""]


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

    def test_levels_outside_the_sums_are_blank(self):
        # n_levels = 2 sums levels 0 and 1 only: W_2 and W_3 were never evaluated
        result = run_sweep(parse_config(FAST, environ={}, overrides={"n_levels": 2}))
        cols = result.columns
        for row in result.rows:
            assert isinstance(row[cols.index("W_1")], float)
            assert row[cols.index("W_2")] is None and row[cols.index("W_3")] is None
        csv_rows = list(csv.DictReader(io.StringIO(render_csv(result))))
        assert all(r["W_1"] != "" and r["W_2"] == r["W_3"] == "" for r in csv_rows)
        json_rows = json.loads(render_json(result))["rows"]
        assert all(r[cols.index("W_2")] is None for r in json_rows)

    @pytest.mark.parametrize(
        "preset, scans, cutoffs",
        [
            # the cold side does not depend on omega_qh: 2 cold + 3 x 2 hot;
            # each side gets its own (cold, hot) cutoff
            ("fig7", 8, [(72, 72), (72, 72), (72, 72)]),
            # nor on alpha, and g = 0 makes every hot side (2, 2, 0): 2 + 1 + 3
            ("fig6", 6, [(48, 48), (48, 48), (48, 72)]),
        ],
    )
    def test_each_distinct_side_is_scanned_once(self, preset, scans, cutoffs, monkeypatch):
        import rabiotto.sweep

        scanned, used = [], []
        converged_cutoff, run_cycles = rabiotto.sweep.converged_cutoff, rabiotto.sweep.run_cycles

        def counting_scan(params, *args, **kwargs):
            scanned.append(params)
            return converged_cutoff(params, *args, **kwargs)

        def recording_cycles(protocols, cutoff):
            used.extend([cutoff] * len(protocols))
            return run_cycles(protocols, cutoff)

        monkeypatch.setattr(rabiotto.sweep, "converged_cutoff", counting_scan)
        monkeypatch.setattr(rabiotto.sweep, "run_cycles", recording_cycles)
        config = figure_preset(preset)
        config = dataclasses.replace(
            config, sweep=dataclasses.replace(config.sweep, n_points=2), workers=1
        )
        result = run_sweep(config)
        assert len(scanned) == len(set(scanned)) == scans
        assert used == [c for c in cutoffs for _ in range(2)]
        assert all(row[result.columns.index("error")] == "" for row in result.rows)

    def test_each_side_is_solved_at_its_own_cutoff(self, monkeypatch):
        # fig2's hot side, at half the cold side's g/omega, certifies at 48
        # where the cold side needs 72
        import rabiotto.cycle

        solved = []
        solve_hamiltonians = rabiotto.cycle.solve_hamiltonians

        def recording_solve(params, n_max):
            solved.extend((p, n_max) for p in params)
            return solve_hamiltonians(params, n_max)

        monkeypatch.setattr(rabiotto.cycle, "solve_hamiltonians", recording_solve)
        config = figure_preset("fig2")
        config = dataclasses.replace(
            config, sweep=dataclasses.replace(config.sweep, n_points=2), workers=1
        )
        result = run_sweep(config)
        assert all(row[result.columns.index("error")] == "" for row in result.rows)
        protocols = [build_protocol(config, None, x) for x in (config.sweep.start, config.sweep.stop)]
        # one chunk: both hot sides in one stacked solve, then both cold sides
        assert solved == [(p.hot, 48) for p in protocols] + [(p.cold, 72) for p in protocols]

    def test_proportional_fig6_series_shares_one_cutoff(self):
        # criterion 3's exact eta = 1 - 1/R rests on H_h = 2 H_c at alpha = 1,
        # which holds only when both sides are solved at one cutoff
        cold, hot = _series_cutoffs(figure_preset("fig6"))[1.0]
        assert cold == hot == 48

    def test_spectrum_scans_only_cold_sides(self, monkeypatch):
        import rabiotto.sweep

        scanned = []
        converged_cutoff = rabiotto.sweep.converged_cutoff

        def counting_scan(params, *args, **kwargs):
            scanned.append(params)
            return converged_cutoff(params, *args, **kwargs)

        monkeypatch.setattr(rabiotto.sweep, "converged_cutoff", counting_scan)
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
        for extra in (
            {},
            # the discord grid and its Nelder-Mead refinement, on processes
            {"discord": True},
            {"kind": "spectrum", "n_levels": 5},
            {"kind": "levels"},
            {"kind": "approx"},
            # the endpoint cutoff scans, on the same executor as the points
            {
                "cutoff": {"mode": "auto"},
                "sweep": {"parameter": "theta", "start": 0.0, "stop": 0.4, "n_points": 2},
                "series": {"parameter": "g_over_omega_c", "values": [0.5, 2.0]},
            },
        ):
            base = {**json.loads(FAST), **extra, "workers": 1}
            serial = render_csv(run_sweep(parse_config(json.dumps(base), environ={})))
            # 2 workers cut each series' 3 points into chunks of 2 and 1, and 3 into three of 1
            for workers in (2, 3):
                base["workers"] = workers
                parallel = render_csv(run_sweep(parse_config(json.dumps(base), environ={})))
                # the worker count is left out of the hash, so the whole table matches
                assert serial == parallel
            assert ("D_rho1" in serial.splitlines()[0]) == ("discord" in extra)
            assert all(row["error"] == "" for row in csv.DictReader(io.StringIO(serial)))

    def test_more_threads_than_cores_agree_with_serial(self):
        # threads switching often: a point that read or wrote another's state would show
        config = parse_config(FAST, environ={}, overrides={"sweep": {"n_points": 8}})
        serial = run_sweep(config).rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_sweep(dataclasses.replace(config, workers=8)).rows
        finally:
            sys.setswitchinterval(interval)
        assert [row[:-1] for row in pooled] == [row[:-1] for row in serial]

    @pytest.mark.parametrize(
        "kind, discord, pool",
        [
            ("cycle", False, ThreadPoolExecutor),
            ("cycle", True, ProcessPoolExecutor),
        ],
    )
    def test_executor_kind(self, kind, discord, pool):
        import rabiotto.sweep

        overrides = {"kind": kind, "workers": 2, "discord": discord}
        config = parse_config(FAST, environ={}, overrides=overrides)
        with rabiotto.sweep._executor(config, 3) as executor:
            assert type(executor) is pool
        with rabiotto.sweep._executor(config, 1) as executor:
            assert executor is None

    def test_all_cores_means_those_the_process_may_run_on(self, monkeypatch):
        import rabiotto.sweep

        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep on one CPU runs serially")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(rabiotto.sweep, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)  # _executor looks it up there
        result = run_sweep(parse_config(FAST, environ={}, overrides={"workers": 0}))
        assert [row[result.columns.index("error")] for row in result.rows] == ["", "", ""]

    def test_per_point_failure_recorded(self, monkeypatch):
        # a spectrum cutoff too small for n_levels is a config error, so force
        # the failure inside each point
        def fail(decomposition, n_levels):
            raise ValueError("forced")

        monkeypatch.setattr("rabiotto.sweep.relative_spectrum", fail)
        config = parse_config(
            json.dumps(
                {
                    "kind": "spectrum",
                    "n_levels": 4,
                    "cutoff": {"mode": "fixed", "n_max": 8},
                    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 2},
                    "workers": 1,
                }
            ),
            environ={},
        )
        result = run_sweep(config)
        err_idx = result.columns.index("error")
        assert [row[err_idx] for row in result.rows] == ["ValueError: forced"] * 2
        g_idx = result.columns.index("g_over_omega")
        assert [row[g_idx] for row in result.rows] == [0.0, 1.0]

    @pytest.mark.parametrize(
        "preset, n_points, chunks",
        [
            ("fig2", 10, [5, 5]),  # the fig2-work request: two tasks of five points
            ("fig4", 4, [2] * 8),  # fig4-discord: four theta series of two chunks each
        ],
    )
    def test_a_chunk_per_worker_per_series(self, preset, n_points, chunks, monkeypatch):
        import contextlib

        import rabiotto.sweep

        submitted, pools = [], []

        def recording(args):
            submitted.append(len(args[2]))
            return [([], (), "not run")] * len(args[2])

        def serial(config, n_tasks):
            pools.append(n_tasks)
            return contextlib.nullcontext()

        monkeypatch.setattr(rabiotto.sweep, "_chunk_task", recording)
        monkeypatch.setattr(rabiotto.sweep, "_executor", serial)
        config = figure_preset(preset)
        config = dataclasses.replace(
            config, sweep=dataclasses.replace(config.sweep, n_points=n_points),
            cutoff=CutoffPolicy("fixed", 8), workers=2,
        )
        run_sweep(config)
        assert submitted == chunks
        assert pools == [len(chunks)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "failure, error",
        [
            ("gate", "ConvergenceError: eigenvector orthonormality error 2.0"),
            ("lapack", "LinAlgError: Eigenvalues did not converge"),
        ],
        ids=["gate", "lapack"],
    )
    def test_a_failing_stack_member_errors_only_its_row(self, failure, error, workers, monkeypatch):
        # the chunk holding g = 0.5 fails its stacked solve and is solved again
        # one point at a time, so only that point's row carries the error
        import rabiotto.spectral

        doc = {
            "sweep": {"start": 0.0, "stop": 1.0, "n_points": 5},
            "cutoff": {"mode": "fixed", "n_max": 12},
            "n_levels": 6,
            "workers": workers,
        }
        config = parse_config(json.dumps(doc), environ={})
        clean = run_sweep(config).rows
        original = rabiotto.spectral.symmetric_eigh

        def failing(matrix, vectors=True):
            w, v = original(matrix, vectors)
            bad = [k for k, block in enumerate(matrix) if block[0, 1] == 0.5]  # a sector's g sqrt(1)
            if bad and failure == "lapack":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            v = v.copy()
            v[bad, :, 0] *= 1.0 + 1e-8
            return w, v

        monkeypatch.setattr(rabiotto.spectral, "symmetric_eigh", failing)
        result = run_sweep(config)
        rows = result.rows
        errors = [row[result.columns.index("error")] for row in rows]
        assert errors[:2] + errors[3:] == [""] * 4
        assert errors[2].startswith(error)
        assert rows[:2] + rows[3:] == clean[:2] + clean[3:]

    def test_failed_row_keeps_its_grid_point(self, monkeypatch):
        import rabiotto.sweep

        run_cycles = rabiotto.sweep.run_cycles

        def fail_at_theta_one(protocols, cutoff):
            # fails the chunk's stacked solve, then the theta = 1 point's own
            if any(protocol.cold.theta == 1.0 for protocol in protocols):
                raise ArithmeticError("forced")
            return run_cycles(protocols, cutoff)

        monkeypatch.setattr(rabiotto.sweep, "run_cycles", fail_at_theta_one)
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
                    "discord": True,
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
        text = write_output(result, str(path))
        assert path.read_text(encoding="utf-8") == text
        lines = text.splitlines()
        assert lines[0].startswith("g_over_omega_c,")
        assert len(lines) == 1 + len(result.rows)

    def test_json_format_follows_the_config(self, tmp_path):
        result = run_sweep(parse_config(FAST, environ={}, overrides={"out_format": "json"}))
        path = tmp_path / "out.json"
        text = write_output(result, str(path))
        assert path.read_text(encoding="utf-8") == text == render_json(result)
        assert json.loads(text)["config"]["out_format"] == "json"
        assert write_output(result, None) == text

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

    def test_error_cell_with_a_comma_keeps_the_columns(self, monkeypatch):
        def fail(protocols, cutoff):
            raise ValueError("density matrix must have unit trace, got 0.97")

        monkeypatch.setattr("rabiotto.sweep.run_cycles", fail)
        config = parse_config(FAST, environ={})
        rows = list(csv.DictReader(io.StringIO(render_csv(run_sweep(config)))))
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 16 and None not in row  # DictReader files surplus cells under None
            assert row["error"] == "ValueError: density matrix must have unit trace, got 0.97"
            assert row["config_hash"] == config.config_hash()

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
