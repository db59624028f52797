"""Per-emotion centroid optimization.

The center of an emotion's spherical coordinate system maximizes the ratio
of the mean distance to that emotion's points over the mean distance to the
neutral points. The ratio is smooth but non-convex in the 3-D cube, so the
search has two phases: an exhaustive scan of the step-0.1 lattice picks the
basin, then a bounded compass search (Hooke & Jeeves 1961; Kolda, Lewis &
Torczon 2003) polishes the lattice winner. The compass search moves only to
a strictly higher point, so the result is never below any lattice value.
The lattice scan is ``grid_search_centroid``, at any step; the solver runs
it at step 0.1.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from . import _kernels
from .geometry import Centroid, VadPoint, as_points

logger = logging.getLogger(__name__)

# Global phase of solve_centroid: 11^3 = 1331 lattice points.
_LATTICE_STEP = 0.1
# Compass polish of the lattice winner: first step h, the h at which it
# stops, and the six directions +-e along each axis.
_COMPASS_STEP = 0.05
_COMPASS_MIN_STEP = 1e-9
_COMPASS_DIRECTIONS = np.vstack([np.eye(3), -np.eye(3)])


class SolverConfig:
    """The objective's denominator epsilon, fixed and recorded in every model
    file; no function takes it. A class only because perfbench/traced.py reads
    ``SolverConfig.denominator_epsilon``."""

    denominator_epsilon = 1e-6


def _points(points: Sequence[VadPoint] | np.ndarray) -> np.ndarray:
    """The points as a non-empty (n, 3) float array."""
    arr = as_points(points)
    if len(arr) == 0:
        raise ValueError("empty point sequence")
    return arr


def objective(m, targets: Sequence, neutrals: Sequence) -> float:
    """Distance-ratio objective at candidate center m.

    mean distance to the target-class points divided by (mean distance to
    the neutral points + SolverConfig.denominator_epsilon). Larger is better.
    """
    t_arr = _points(targets)
    n_arr = _points(neutrals)
    m_arr = np.asarray(m, dtype=np.float64)
    if m_arr.shape != (3,):
        raise ValueError("candidate center must have 3 components")
    return float(_kernels.distance_ratio(m_arr, t_arr, n_arr,
                                         SolverConfig.denominator_epsilon))


def solve_centroid(targets: Sequence, neutrals: Sequence) -> Centroid:
    """Maximize the distance-ratio objective over the VAD cube.

    Runs ``grid_search_centroid`` at step 0.1, then a compass search from
    its point: each step scores the six points +-h along each axis, clipped to
    [0, 1]^3, and moves to the best of them if its objective is strictly
    higher, else halves h, from h = 0.05 down to 1e-9. The stencil values
    are the objective's exact values (``_kernels.objective_values`` equals
    ``_kernels.distance_ratio`` bit for bit), so the re-score of the chosen
    point returns the same value. The result lies in the cube and its
    objective is at least that of every lattice point. No randomness: the
    same inputs give the same Centroid, bit for bit.
    """
    t_arr = _points(targets)
    n_arr = _points(neutrals)
    eps = SolverConfig.denominator_epsilon
    start = grid_search_centroid(t_arr, n_arr, _LATTICE_STEP)
    best_point, best_value = np.array(start.point), start.objective
    h = _COMPASS_STEP
    moves = halvings = 0
    while h > _COMPASS_MIN_STEP:
        stencil = np.clip(best_point + h * _COMPASS_DIRECTIONS, 0.0, 1.0)
        values = _kernels.objective_values(stencil, t_arr, n_arr, eps)
        point = stencil[int(np.argmax(values))]
        value = _kernels.distance_ratio(point, t_arr, n_arr, eps)
        if value > best_value:
            best_point, best_value = point, value
            moves += 1
        else:
            h *= 0.5
            halvings += 1
    logger.debug("solve_centroid: best objective %.6f at %s; lattice winner %.6f, "
                 "compass gain %.3g in %d moves and %d halvings",
                 best_value, best_point, start.objective, best_value - start.objective,
                 moves, halvings)
    return Centroid(point=tuple(float(x) for x in best_point), objective=float(best_value))


def grid_search_centroid(targets: Sequence, neutrals: Sequence, step: float) -> Centroid:
    """Exhaustive maximizer over the lattice {0, step, 2*step, ..., 1}^3.

    The lattice scan of solve_centroid, which runs it at step 0.1. Ties
    break to the lexicographically smallest lattice point (first maximum in
    C scan order).
    """
    if not (0.0 < step <= 0.5):
        raise ValueError(f"step {step} must be in (0, 0.5]")
    t_arr = _points(targets)
    n_arr = _points(neutrals)
    m = int(math.floor(1.0 / step + 1e-9))
    axis = np.minimum(np.arange(m + 1, dtype=np.float64) * step, 1.0)
    values = _kernels.grid_objective_values(axis, t_arr, n_arr,
                                            SolverConfig.denominator_epsilon)
    idx = np.unravel_index(int(np.argmax(values)), (axis.size,) * 3)
    point = tuple(float(axis[i]) for i in idx)
    return Centroid(point=point, objective=objective(point, t_arr, n_arr))
