"""Tests of the benchmark's own machinery (not of rabiotto).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# seeded inputs


def test_same_seed_gives_identical_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.sweep_config(workload, 7, 3, 2) == inputs.sweep_config(workload, 7, 3, 2)


def test_different_seed_gives_different_inputs():
    for workload in inputs.WORKLOADS:
        a = inputs.sweep_config(workload, 7, 0, 2)["sweep"]
        b = inputs.sweep_config(workload, 8, 0, 2)["sweep"]
        assert (a["start"], a["stop"]) != (b["start"], b["stop"])


def test_shifted_grid_keeps_spacing_and_range():
    for workload, (preset, _, n) in inputs.WORKLOADS.items():
        grid = sorted({g for _, g in inputs.expected_grid(inputs.sweep_config(workload, 5, 0, 1))})
        assert len(grid) == n
        assert 0.0 <= grid[0] and grid[-1] <= 3.5
        assert all(math.isclose(b - a, 3.5 / n) for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("leaf", 2.0, 3.5, parent=1),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 1.5, 4.0, 1.5]


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 5.0, parent=0), Span("b", 3.0, 6.0, parent=0)]
    assert self_times(spans)[0] == 10.0 - 5.0


def test_layer_metrics_on_synthetic_spans():
    spans = [
        Span("cli", 0.0, 10.0),
        Span("spectral.converged_cutoff", 0.0, 2.0, parent=0),
        Span("eigensolver", 0.5, 1.5, parent=1, counts={"dim3": 1000}),
        Span("spectral.eigendecompose", 3.0, 8.0, parent=0),
        Span("eigensolver", 3.0, 7.0, parent=3, counts={"dim3": 3000}),
        Span("optimize.nelder_mead", 8.0, 9.0, parent=0, counts={"evals": 7, "improved": 1}),
    ]
    m = {name: entry["value"] for name, entry in layer_metrics(spans, 10.0, 8.0).items()}
    assert m["eigensolver.calls"] == 2
    assert m["eigensolver.self_s"] == 5.0
    assert m["eigensolver.dim3_sum"] == 4000
    assert m["eigensolver.ns_per_dim3"] == 5.0e9 / 4000
    assert m["eigensolver.wall_share"] == 0.5
    assert m["spectral.converged_cutoff.scan_solves"] == 1
    assert m["spectral.converged_cutoff.s"] == 2.0
    assert m["spectral.eigendecompose.self_s"] == 1.0
    assert m["optimize.nelder_mead.evals"] == 7
    assert m["optimize.nelder_mead.improved_ratio"] == 1.0
    assert m["cli.self_s"] == 10.0 - 2.0 - 5.0 - 1.0
    assert m["trace.overhead_frac"] == 0.25


def test_tracer_nests_spans_and_instrument_restores_attributes():
    import rabiotto.spectral as spectral
    from tracing import instrument

    original = spectral.symmetric_eigh
    tracer = Tracer()
    with instrument(tracer):
        assert spectral.symmetric_eigh is not original
        with tracer.span("outer"):
            spectral.symmetric_eigh(__import__("numpy").eye(3))
    assert spectral.symmetric_eigh is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("eigensolver", 0)]
    assert tracer.spans[1].counts["dim3"] == 27


# ---------------------------------------------------------------------------
# oracle

GOOD_ROW = {
    "W": 0.0101540361992, "Q_h": 0.0181658091064, "Q_c": -0.0080117729072,
    "eta": 0.558964158421, "regime": "engine",
    "D_rho1": 0.02, "D_rho3": 0.09, "D_rho4": 0.03,
    "diff_41": 0.01, "diff_31": 0.07, "diff_34": 0.06,
}


def test_oracle_accepts_a_consistent_row():
    assert oracle.check_thermo(dict(GOOD_ROW)) == []


def test_oracle_rejects_perturbed_work():
    row = dict(GOOD_ROW, W=GOOD_ROW["W"] + 1e-8)
    problems = oracle.check_thermo(row)
    assert any("first law" in p for p in problems)


def test_oracle_rejects_wrong_regime_eta_and_discord():
    assert oracle.check_thermo(dict(GOOD_ROW, regime="refrigerator"))
    assert oracle.check_thermo(dict(GOOD_ROW, eta=0.5))
    assert oracle.check_thermo(dict(GOOD_ROW, D_rho1=-0.01))
    assert oracle.check_thermo(dict(GOOD_ROW, diff_31=0.0700001))


def test_oracle_rejects_perturbed_work_against_the_reference():
    reference = oracle.load_reference("fig2-work")
    rows = [dict(r) for r in reference]
    assert oracle.check_reference(rows, reference) == [[] for _ in rows]
    rows[3]["W"] += 1e-7
    found = oracle.check_reference(rows, reference)
    assert found[3] and not any(found[:3] + found[4:])


def test_tail_is_p90_with_ten_samples_beyond_or_lower():
    assert run.tail(list(range(1, 201))) == (180, 90.0, 20)
    value, pct, beyond = run.tail(list(range(1, 51)))
    assert (value, beyond) == (40, 10) and pct == 80.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail(list(range(1, 20))) == (19, 100.0, 0)
    assert run.tail(list(range(1, 21)))[1:] == (50.0, 10)
