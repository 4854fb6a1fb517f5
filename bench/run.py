"""rabiotto benchmark: one closed-loop client driving one of two workloads.

    python3 bench/run.py --workload fig2-work --seed 0 --seconds 50 --trace 0

Run from the repository root (or anywhere: paths are taken from this file).
The package is imported from ``src/`` of the same checkout; nothing is
installed. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the machine record and run details, also written with the result to
``.bench_out/``. See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread per process; sweeps get their parallelism from worker
# processes (workers = nproc). Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
MAX_PROBLEMS_SHOWN = 20

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import rabiotto\n"
    "{resolve}\n"
    "print(time.perf_counter() - t)\n"
)


def import_library():
    """Import rabiotto from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import rabiotto

    if Path(rabiotto.__file__).resolve().parent != (SRC / "rabiotto").resolve():
        raise ImportError(f"rabiotto imported from {rabiotto.__file__}, not from {SRC}")
    return rabiotto


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(args, workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workers": workers,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(preset: str) -> float:
    """Fresh-interpreter time to import rabiotto and resolve the preset config."""
    resolve = f"rabiotto.figure_preset({preset!r})"
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(resolve=resolve)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the reported tail latency.

    Nearest-rank p90, lowered until at least TAIL_BEYOND samples lie beyond
    it; when that would fall below the median (fewer than 2 * TAIL_BEYOND
    samples) it is the maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = min(math.ceil(TAIL_PERCENTILE * n / 100), n - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident memory (MiB) of this process and of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


class Run:
    """Counters and samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.points = 0
        self.problems: list[str] = []
        self.setup: list[float] = []

    def sample_setup(self, preset: str, share: float) -> None:
        """Top the setup samples up to ``share`` of SETUP_REPEATS (at least one).

        Called between requests with the share of the run elapsed, so the
        samples are spread over the run and see the host as the requests do;
        the host's speed drifts over tens of seconds.
        """
        while len(self.setup) < max(1, math.ceil(SETUP_REPEATS * min(share, 1.0))):
            self.setup.append(setup_seconds(preset))

    def record(self, label: str, point_problems: list[list[str]]) -> None:
        self.attempted += len(point_problems)
        for k, found in enumerate(point_problems):
            if found:
                self.failed += 1
                if len(self.problems) < MAX_PROBLEMS_SHOWN:
                    self.problems.append(f"{label} #{k}: {'; '.join(found)}")


# ---------------------------------------------------------------------------
# one request is one `rabiotto sweep|discord --config` call


def sweep_argv(workload: str, config: dict) -> list[str]:
    """Write the request's config document; the CLI arguments that run it."""
    path = OUT / f"{workload}-config.json"
    path.write_text(json.dumps(config))
    return [inputs.WORKLOADS[workload][1], "--config", str(path)]


def sweep_request(workload: str, seed: int, index: int, workers: int, run: Run, tracer=None) -> float:
    """Run one sweep request through the CLI, check it, return its latency."""
    from rabiotto import cli

    config = inputs.sweep_config(workload, seed, index, workers)
    grid = inputs.expected_grid(config)
    argv = sweep_argv(workload, config)
    buffer = io.StringIO()
    problem = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.instrument(tracer))
            stack.enter_context(tracer.span("cli"))
        stack.enter_context(contextlib.redirect_stdout(buffer))
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails every point of the request
            code, problem = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    label = f"{workload} request {index}"
    if problem is not None or code != 0:
        run.record(label, [[problem or f"exit code {code}"]] * len(grid))
        return latency
    rows = oracle.parse_sweep_csv(buffer.getvalue())
    point_problems = oracle.check_sweep(rows, grid)
    if seed == inputs.DEFAULT_SEED and index == 0 and len(rows) == len(grid):
        reference = oracle.check_reference(rows, oracle.load_reference(workload))
        point_problems = [a + b for a, b in zip(point_problems, reference)]
    run.record(label, point_problems)
    run.points += len(grid)
    return latency


def run_sweeps(args, run: Run, tracer) -> tuple[float, float]:
    """Closed loop of sweep requests; returns (traced, untraced) wall for --trace 1."""
    begin = time.perf_counter()
    deadline = begin + args.seconds
    if not args.trace:
        workers = nproc()
        preset = inputs.WORKLOADS[args.workload][0]
        index = 0
        while True:
            run.sample_setup(preset, (time.perf_counter() - begin) / args.seconds)
            run.latencies.append(sweep_request(args.workload, args.seed, index, workers, run))
            index += 1
            # stop when a further request would end more than half a request
            # past the deadline, so runs end within half a request of it
            if time.perf_counter() + statistics.median(run.latencies) / 2 > deadline:
                run.sample_setup(preset, 1.0)
                return 0.0, 0.0
    traced = untraced = 0.0
    index = 0
    while True:  # both halves of a pair see the same input; their order alternates
        start = time.perf_counter()
        for traced_half in (index % 2 == 1, index % 2 == 0):
            latency = sweep_request(
                args.workload, args.seed, index, 1, run, tracer if traced_half else None
            )
            if traced_half:
                traced += latency
            else:
                untraced += latency
        index += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return traced, untraced


def warm_up() -> None:
    """Load numpy's lazily imported parts once, outside every timed region."""
    from rabiotto import cycle, sweep

    cycle.run_cycle(cycle.resonator_frequency_protocol(0.5), cutoff=8)
    sweep.render_csv(sweep.run_sweep(sweep.SweepConfig(
        sweep=sweep.SweepAxis(stop=0.5, n_points=2), cutoff=sweep.CutoffPolicy("fixed", 8), workers=1,
    )))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import rabiotto from {SRC}: {exc}\n")
        return 1
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {list(inputs.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    OUT.mkdir(exist_ok=True)

    workers = 1 if args.trace else nproc()
    machine = machine_record(args, workers)
    print("machine " + json.dumps(machine), flush=True)

    warm_up()

    run = Run()
    tracer = tracing.Tracer() if args.trace else None
    traced_wall, untraced_wall = run_sweeps(args, run, tracer)

    detail = {"attempted": run.attempted, "failed": run.failed, "problems": run.problems}
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, traced_wall, untraced_wall)
        detail.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall, spans=len(tracer.spans))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        tail_value, tail_pct, beyond = tail(run.latencies)
        own_rss, child_rss = peak_rss_mb()
        metrics = {
            "points_per_s": {"value": run.points / sum(run.latencies), "unit": "1/s"},
            "request_p50_ms": {"value": 1e3 * statistics.median(run.latencies), "unit": "ms"},
            "request_tail_ms": {"value": 1e3 * tail_value, "unit": "ms"},
            "setup_s": {"value": statistics.median(run.setup), "unit": "s"},
            "peak_rss_mb": {"value": max(own_rss, child_rss), "unit": "MiB"},
        }
        detail.update(
            requests=len(run.latencies), request_s=run.latencies, points=run.points,
            tail_percentile=tail_pct, tail_samples_beyond=beyond, setup_samples_s=run.setup,
            rss_parent_mb=own_rss, rss_largest_child_mb=child_rss,
            failed_frac=run.failed / max(run.attempted, 1),
        )
    print("detail " + json.dumps(detail), flush=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "detail": detail, "result": result}, indent=1)
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
