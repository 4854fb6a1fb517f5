"""Regenerate the reference tables the oracle compares default-seed runs with.

    python3 bench/make_reference.py

Writes ``reference/<workload>.json``: the rows of request 0 of each
workload at the default seed. Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import inputs
import oracle
import run


def main() -> int:
    run.import_library()
    run.OUT.mkdir(exist_ok=True)
    from rabiotto import cli

    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    seed = inputs.DEFAULT_SEED
    for workload in inputs.WORKLOADS:
        config = inputs.sweep_config(workload, seed, 0, run.nproc())
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(run.sweep_argv(workload, config))
        rows = oracle.parse_sweep_csv(buffer.getvalue())
        problems = oracle.check_sweep(rows, inputs.expected_grid(config))
        if code != 0 or any(problems):
            raise SystemExit(f"{workload}: refusing to store failing output: {problems}")
        write(workload, seed, [oracle.reference_row(row, oracle.NUMERIC_COLUMNS) for row in rows])
    return 0


def write(workload: str, seed: int, rows: list[dict]) -> None:
    path = oracle.REFERENCE_DIR / f"{workload}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "rows": rows}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(rows)} rows to {path}")


if __name__ == "__main__":
    sys.exit(main())
