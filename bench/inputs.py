"""Seeded inputs for the two benchmark workloads.

Everything a request needs is derived from ``(workload, seed, request index)``
through ``random.Random`` seeded with a string, which is stable across Python
versions, so the same seed always gives the same inputs. The program receives
only what these functions produce: a sweep config document. rabiotto is
imported inside the functions, after the caller has put the checkout's
``src/`` on the path.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# workload -> (figure preset, CLI subcommand, grid points per series)
WORKLOADS = {
    # 10 points over the whole fig2 range (about 5 s on 2 workers)
    "fig2-work": ("fig2", "sweep", 10),
    # 4 points per theta series: per-point eigensolves and discords (about
    # 13 s on 2 workers) outweigh the serial per-series cutoff scans (about
    # 5 s), and a 50 s run holds two or three requests
    "fig4-discord": ("fig4", "discord", 4),
}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def sweep_config(workload: str, seed: int, index: int, workers: int) -> dict:
    """Resolved config document for request ``index`` of a workload.

    The preset's grid keeps its spacing h = (stop - start) / n and is shifted
    by a seeded fraction u of it: g_k = start + (k + u) h, so every point stays
    inside the preset's range.
    """
    from rabiotto.sweep import figure_preset

    preset, _, n_points = WORKLOADS[workload]
    config = figure_preset(preset).resolved_dict()
    axis = config["sweep"]
    u = _rng(workload, seed, index).random()
    h = (axis["stop"] - axis["start"]) / n_points
    axis["start"], axis["stop"] = axis["start"] + u * h, axis["stop"] - (1.0 - u) * h
    axis["n_points"] = n_points
    config["workers"] = workers
    if config["series"] is not None:
        config["series"]["values"] = list(config["series"]["values"])
    return config


def expected_grid(config: dict) -> list[tuple[float | None, float]]:
    """(series value, g) of every row the sweep must return, in row order."""
    axis = config["sweep"]
    n = axis["n_points"]
    step = (axis["stop"] - axis["start"]) / (n - 1)
    grid = [axis["start"] + k * step for k in range(n)]
    series = config["series"]["values"] if config["series"] is not None else [None]
    return [(s, g) for s in series for g in grid]
