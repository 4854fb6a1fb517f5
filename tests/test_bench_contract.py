"""The library names that bench/tracing.py wraps must keep resolving.

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
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from rabiotto import RabiParams, spectral

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(monkeypatch):
    targets = load_tracing(monkeypatch).TARGETS
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
