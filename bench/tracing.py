"""Spans around calls into rabiotto's modules, timed from the benchmark side.

``instrument`` replaces module attributes with timing wrappers *where they are
imported* (for example ``rabiotto.cycle.eigendecompose``) and restores them
on exit; the library source is not touched. Each call becomes a span with a
name, start, end, parent and counts taken at the same boundary. Spans stay in
memory and are written once, at the end of the run.

A span's self time is its duration minus the part of its interval covered by
its children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "counts": s.counts}
                    for s in self.spans
                ],
                handle,
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# instrumentation


def _dim3(args, kwargs, result, counts):
    n = args[0].shape[0]
    counts["dim3"] = n**3


def _hamiltonian_bytes(args, kwargs, result, counts):
    counts["bytes"] = result.matrix.nbytes


def timed(tracer: Tracer, name: str, original, count=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result, span.counts)
            return result

    return wrapper


def _nelder_mead(tracer: Tracer, name: str, original, count=None):
    """Counts objective evaluations and whether refinement beat its start.

    The first evaluation is at the start point, the best grid point, so
    ``improved`` matches the library's test ``f_opt < best grid value``.
    """

    def wrapper(func, x0, *args, **kwargs):
        values = []

        def counted(x):
            value = func(x)
            values.append(float(value))
            return value

        with tracer.span(name) as span:
            result = original(counted, x0, *args, **kwargs)
            span.counts["evals"] = len(values)
            span.counts["improved"] = int(bool(values) and result[1] < values[0])
            return result

    return wrapper


# (module, attribute, span name, wrapper factory, count)
TARGETS = (
    ("rabiotto.spectral", "symmetric_eigh", "eigensolver", timed, _dim3),
    ("rabiotto.spectral", "hermitian_eigh", "eigensolver", timed, _dim3),
    ("rabiotto.spectral", "build_hamiltonian", "hamiltonian", timed, _hamiltonian_bytes),
    ("rabiotto.cycle", "build_hamiltonian", "hamiltonian", timed, _hamiltonian_bytes),
    ("rabiotto.sweep", "build_hamiltonian", "hamiltonian", timed, _hamiltonian_bytes),
    ("rabiotto.cycle", "converged_cutoff", "spectral.converged_cutoff", timed, None),
    ("rabiotto.sweep", "converged_cutoff", "spectral.converged_cutoff", timed, None),
    ("rabiotto.cli", "converged_cutoff", "spectral.converged_cutoff", timed, None),
    ("rabiotto.cycle", "eigendecompose", "spectral.eigendecompose", timed, None),
    ("rabiotto.sweep", "eigendecompose", "spectral.eigendecompose", timed, None),
    ("rabiotto.sweep", "run_cycle", "cycle.run_cycle", timed, None),
    ("rabiotto.cli", "run_cycle", "cycle.run_cycle", timed, None),
    ("rabiotto.correlations", "quantum_discord", "correlations.discord", timed, None),
    ("rabiotto.correlations", "nelder_mead", "optimize.nelder_mead", _nelder_mead, None),
    ("rabiotto.cli", "run_sweep", "sweep", timed, None),
    ("rabiotto.cli", "write_output", "sweep.render", timed, None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every TARGETS attribute for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, factory, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(tracer, name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    ("eigensolver.calls", "count"),
    ("eigensolver.self_s", "s"),
    ("eigensolver.dim3_sum", "count"),
    ("eigensolver.ns_per_dim3", "ns"),
    ("eigensolver.wall_share", "fraction"),
    ("spectral.converged_cutoff.calls", "count"),
    ("spectral.converged_cutoff.s", "s"),
    ("spectral.converged_cutoff.scan_solves", "count"),
    ("spectral.eigendecompose.calls", "count"),
    ("spectral.eigendecompose.self_s", "s"),
    ("hamiltonian.calls", "count"),
    ("hamiltonian.self_s", "s"),
    ("hamiltonian.bytes", "bytes"),
    ("cycle.run_cycle.calls", "count"),
    ("cycle.run_cycle.self_s", "s"),
    ("correlations.discord.calls", "count"),
    ("correlations.discord.self_s", "s"),
    ("optimize.nelder_mead.self_s", "s"),
    ("optimize.nelder_mead.evals", "count"),
    ("optimize.nelder_mead.improved_ratio", "fraction"),
    ("sweep.self_s", "s"),
    ("sweep.render_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics over all spans; walls are summed over the traced requests."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
        for key, value in s.counts.items():
            sums[f"{s.name}.{key}"] = sums.get(f"{s.name}.{key}", 0) + value
    scan_solves = sum(
        1 for s in spans
        if s.name == "eigensolver" and s.parent is not None
        and spans[s.parent].name == "spectral.converged_cutoff"
    )
    eig_self = self_s.get("eigensolver", 0.0)
    dim3 = sums.get("eigensolver.dim3", 0)
    nm_calls = calls.get("optimize.nelder_mead", 0)
    values = {
        "eigensolver.calls": calls.get("eigensolver", 0),
        "eigensolver.self_s": eig_self,
        "eigensolver.dim3_sum": dim3,
        "eigensolver.ns_per_dim3": eig_self * 1e9 / dim3 if dim3 else 0.0,
        "eigensolver.wall_share": eig_self / traced_wall,
        "spectral.converged_cutoff.calls": calls.get("spectral.converged_cutoff", 0),
        "spectral.converged_cutoff.s": total_s.get("spectral.converged_cutoff", 0.0),
        "spectral.converged_cutoff.scan_solves": scan_solves,
        "spectral.eigendecompose.calls": calls.get("spectral.eigendecompose", 0),
        "spectral.eigendecompose.self_s": self_s.get("spectral.eigendecompose", 0.0),
        "hamiltonian.calls": calls.get("hamiltonian", 0),
        "hamiltonian.self_s": self_s.get("hamiltonian", 0.0),
        "hamiltonian.bytes": sums.get("hamiltonian.bytes", 0),
        "cycle.run_cycle.calls": calls.get("cycle.run_cycle", 0),
        "cycle.run_cycle.self_s": self_s.get("cycle.run_cycle", 0.0),
        "correlations.discord.calls": calls.get("correlations.discord", 0),
        "correlations.discord.self_s": self_s.get("correlations.discord", 0.0),
        "optimize.nelder_mead.self_s": self_s.get("optimize.nelder_mead", 0.0),
        "optimize.nelder_mead.evals": sums.get("optimize.nelder_mead.evals", 0),
        "optimize.nelder_mead.improved_ratio": (
            sums.get("optimize.nelder_mead.improved", 0) / nm_calls if nm_calls else 0.0
        ),
        "sweep.self_s": self_s.get("sweep", 0.0),
        "sweep.render_s": total_s.get("sweep.render", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
