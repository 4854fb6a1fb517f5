"""Minimal Nelder-Mead simplex minimizer.

Used to refine the discord measurement angles after the coarse grid search.
The objective there is smooth, periodic and defined for all real angles, so
no bound handling is needed. Deterministic for a given start; returns the
best vertex ever seen.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["nelder_mead"]


def nelder_mead(
    func: Callable[[np.ndarray], float],
    x0: Sequence[float],
    step: Sequence[float] | float = 0.1,
    ftol: float = 1e-12,
    max_iter: int = 400,
) -> tuple[np.ndarray, float]:
    """Minimize ``func`` from ``x0``; returns (x_best, f_best).

    ``step`` sets the initial simplex edge per coordinate. Terminates when the
    simplex function spread drops below ``ftol`` or after ``max_iter``
    iterations.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    steps = np.broadcast_to(np.asarray(step, dtype=float), (dim,))

    def f(x: np.ndarray) -> float:
        return float(func(x))

    simplex = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += steps[i]
        simplex.append(v)
    values = [f(v) for v in simplex]

    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if abs(values[-1] - values[0]) <= ftol:
            break
        centroid = np.mean(simplex[:-1], axis=0)

        reflected = centroid + alpha * (centroid - simplex[-1])
        f_r = f(reflected)
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[0]:
            expanded = centroid + gamma * (centroid - simplex[-1])
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
            continue
        contracted = centroid + beta * (simplex[-1] - centroid)
        f_c = f(contracted)
        if f_c < values[-1]:
            simplex[-1], values[-1] = contracted, f_c
            continue
        # shrink toward the best vertex
        best = simplex[0]
        for i in range(1, len(simplex)):
            simplex[i] = best + delta * (simplex[i] - best)
            values[i] = f(simplex[i])

    i_best = int(np.argmin(values))
    return simplex[i_best], values[i_best]
