"""The library names that the benchmark reads must keep resolving.

The benchmark's tracer replaces each ``TARGETS`` attribute where it is
imported and restores it afterwards; it reads and sets these names and calls
only what the library itself calls. A library change that drops one of them
breaks the traced benchmark, and this test catches that without running it.
It reads bench/tracing.py and changes nothing there.

Two kinds of target are placeholders until the tracer's spans move onto the
paths that run (ROADMAP item 13): ``eigendecompose`` in ``cycle`` and
``sweep`` is None, since the solve it named is gone, and
``spectral.hermitian_eigh`` is an alias of ``symmetric_eigh``. Sweeps solve
their points through ``cycle.run_cycles``; ``sweep.run_cycle`` stays
importable only for its target, which reads 0 calls on sweeps.
``build_hamiltonian`` still returns an ``OperatorMatrix``, because the tracer
counts the bytes of its ``.matrix`` on every build.

The harness reads library names outside ``TARGETS`` too: bench/run.py's
``warm_up`` runs a cycle and a two-point sweep, and bench/inputs.py builds
each request from ``rabiotto.sweep.figure_preset``. Their calls are repeated
here as those files write them.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from rabiotto import RabiParams, spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_bench_module(monkeypatch, path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(monkeypatch):
    targets = load_bench_module(monkeypatch, TRACING).TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_a_parity_breaking_build_has_a_matrix():
    # theta != 0 is the one path that builds the whole H through spectral.build_hamiltonian
    h = spectral.build_hamiltonian(RabiParams.resonant(1.0, g=0.7, theta=0.3), 8)
    assert h.matrix.shape == (16, 16) and h.matrix.nbytes == 16 * 16 * 8


def test_the_warm_up_calls_run():
    # bench/run.py warm_up, call for call
    from rabiotto import cycle, sweep

    cycle.run_cycle(cycle.resonator_frequency_protocol(0.5), cutoff=8)
    text = sweep.render_csv(sweep.run_sweep(sweep.SweepConfig(
        sweep=sweep.SweepAxis(stop=0.5, n_points=2), cutoff=sweep.CutoffPolicy("fixed", 8), workers=1,
    )))
    assert len(text.splitlines()) == 3


def test_every_workload_resolves_its_preset(monkeypatch):
    import rabiotto.sweep

    inputs = load_bench_module(monkeypatch, BENCH / "inputs.py")
    for workload, (preset, _, n_points) in inputs.WORKLOADS.items():
        assert rabiotto.sweep.figure_preset(preset).resolved_dict()["sweep"]["n_points"] > n_points
        document = inputs.sweep_config(workload, 0, 0, 1)
        config = rabiotto.sweep.parse_config(json.dumps(document), environ={})
        assert config.sweep.n_points == n_points and config.workers == 1
