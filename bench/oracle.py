"""Correctness oracle run on every output of every benchmark run.

Invariant checks (every row, every seed):
  * first law       |W - (Q_h + Q_c)| <= FIRST_LAW_TOL (1e-10)
  * regime          'engine' if W > 1e-12, 'refrigerator' if W < -1e-12,
                    else 'idle' (the library's WORK_REGIME_TOL)
  * efficiency      eta = W/Q_h within ETA_TOL * max(1, |eta|) when Q_h > 0,
                    NaN otherwise
  * discord         every D >= 0 and diff_41 = D4 - D1, diff_31 = D3 - D1,
                    diff_34 = D3 - D4 within DIFF_TOL
  * sweep shape     no error cell, and the rows are exactly the requested
                    (series, g) grid, in order

Sweep rows are read back from the 12-significant-digit CSV, so the
tolerances above carry the printing round-off (about 5e-13 relative per
cell); none is looser than the library's own gates (residual 1e-9,
orthonormality 1e-10, cutoff stability 1e-8).

Reference check (default seed only): the first request of each workload
is compared with
``reference/<workload>.json``, generated at the commit that introduced the
benchmark (``make_reference.py``). Every numeric column must agree within
REFERENCE_TOL * max(1, |ref|) = 1e-9, the residual gate. Swapping the
hand-written eigensolver for LAPACK ``eigh`` stays well inside it (only
round-off moves); a change of physics or of the converged cutoff, whose
levels are certified to 1e-8, need not. The regime must match wherever
|W_ref| > 1e-9.
The optimal measurement angles are not compared: at degenerate or symmetric
optima any of several equivalent angles is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

FIRST_LAW_TOL = 1e-10
WORK_REGIME_TOL = 1e-12
ETA_TOL = 1e-10
DIFF_TOL = 1e-10
GRID_TOL = 1e-10
REFERENCE_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NUMERIC_COLUMNS = (
    "W", "Q_h", "Q_c", "eta", "W_1", "W_2", "W_3", "tail_mass_hot",
    "D_rho1", "D_rho3", "D_rho4", "diff_41", "diff_31", "diff_34",
)


def regime_of(work: float) -> str:
    if work > WORK_REGIME_TOL:
        return "engine"
    if work < -WORK_REGIME_TOL:
        return "refrigerator"
    return "idle"


def _close(value: float, target: float, tol: float) -> bool:
    if math.isnan(target):
        return math.isnan(value)
    return abs(value - target) <= tol * max(1.0, abs(target))


def check_thermo(row: dict) -> list[str]:
    """First law, regime and efficiency of one row of floats (plus 'regime')."""
    problems = []
    w, q_h, q_c, eta = row["W"], row["Q_h"], row["Q_c"], row["eta"]
    if not abs(w - (q_h + q_c)) <= FIRST_LAW_TOL:
        problems.append(f"first law: W={w!r}, Q_h+Q_c={q_h + q_c!r}")
    if row["regime"] != regime_of(w):
        problems.append(f"regime {row['regime']!r} for W={w!r}")
    if q_h > 0.0:
        if not _close(eta, w / q_h, ETA_TOL):
            problems.append(f"eta={eta!r} but W/Q_h={w / q_h!r}")
    elif not math.isnan(eta):
        problems.append(f"eta={eta!r} with Q_h={q_h!r} <= 0")
    if "D_rho1" in row:
        d1, d3, d4 = row["D_rho1"], row["D_rho3"], row["D_rho4"]
        if min(d1, d3, d4) < 0.0:
            problems.append(f"negative discord {(d1, d3, d4)!r}")
        for name, value in (("diff_41", d4 - d1), ("diff_31", d3 - d1), ("diff_34", d3 - d4)):
            if not abs(row[name] - value) <= DIFF_TOL:
                problems.append(f"{name}={row[name]!r} but D difference is {value!r}")
    return problems


def parse_sweep_csv(text: str) -> list[dict]:
    """CSV rows as dicts; numeric columns become floats (empty cells stay '')."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = dict(raw)
        for key in (*NUMERIC_COLUMNS, "g_over_omega_c", "series_theta"):
            if row.get(key, "") != "":
                row[key] = float(row[key])
        rows.append(row)
    return rows


def check_sweep(rows: list[dict], grid: list[tuple[float | None, float]]) -> list[list[str]]:
    """Problems per expected grid point (an empty list means the point passed)."""
    problems: list[list[str]] = [[] for _ in grid]
    if len(rows) != len(grid):
        return [[f"expected {len(grid)} rows, got {len(rows)}"] for _ in grid]
    for found, row, (series, g) in zip(problems, rows, grid):
        if row.get("error"):
            found.append(f"error cell: {row['error']}")
            continue
        if abs(row["g_over_omega_c"] - g) > GRID_TOL:
            found.append(f"g={row['g_over_omega_c']!r}, expected {g!r}")
        if series is not None and abs(row["series_theta"] - series) > GRID_TOL:
            found.append(f"series={row['series_theta']!r}, expected {series!r}")
        found.extend(check_thermo(row))
    return problems


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    for row in rows:  # JSON has no NaN; the reference stores it as null
        for key, value in row.items():
            if value is None:
                row[key] = float("nan")
    return rows


def check_reference(rows: list[dict], reference: list[dict]) -> list[list[str]]:
    """Problems per row against the stored reference rows (same order)."""
    problems: list[list[str]] = []
    for k, row in enumerate(rows):
        found: list[str] = []
        problems.append(found)
        if k >= len(reference):
            continue
        ref = reference[k]
        for key, target in ref.items():
            if key == "regime":
                if abs(ref["W"]) > REFERENCE_TOL and row["regime"] != target:
                    found.append(f"regime {row['regime']!r}, reference {target!r}")
            elif not _close(row[key], target, REFERENCE_TOL):
                found.append(f"{key}={row[key]!r}, reference {target!r}")
    return problems


def reference_row(row: dict, columns: tuple[str, ...]) -> dict:
    """The part of a row the reference stores (NaN as null)."""
    out = {key: (None if math.isnan(row[key]) else row[key]) for key in columns if key in row}
    out["regime"] = row["regime"]
    return out
