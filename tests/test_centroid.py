import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import (
    VadPoint,
    _kernels,
    grid_search_centroid,
    objective,
    solve_centroid,
)

from conftest import random_solver_instance


def test_objective_equal_distances():
    value = objective((0, 0, 0), [VadPoint(1, 0, 0)], [VadPoint(0, 1, 0)])
    assert value == pytest.approx(1.0 / (1.0 + 1e-6))


def test_objective_closed_form():
    value = objective((0, 0.5, 0), [VadPoint(1, 0, 0)], [VadPoint(0, 1, 0)])
    assert value == pytest.approx(math.sqrt(1.25) / (0.5 + 1e-6), rel=1e-12)


def test_objective_epsilon_floor():
    value = objective((0, 1, 0), [VadPoint(1, 0, 0)], [VadPoint(0, 1, 0)])
    assert value == pytest.approx(math.sqrt(2.0) / 1e-6, rel=1e-9)
    assert math.isfinite(value)


def test_objective_rejects_empty():
    with pytest.raises(ValueError):
        objective((0, 0, 0), [], [VadPoint(0, 1, 0)])
    with pytest.raises(ValueError):
        objective((0, 0, 0), [VadPoint(0, 1, 0)], [])


def test_objective_continuity_property():
    # small-perturbation bound with an empirical Lipschitz constant
    rng = np.random.default_rng(11)
    targets, neutrals = random_solver_instance(rng, n=50)
    for _ in range(100):
        m = rng.uniform(0.1, 0.9, 3)
        delta = rng.uniform(-1e-4, 1e-4, 3)
        f0 = objective(m, targets, neutrals)
        f1 = objective(m + delta, targets, neutrals)
        assert abs(f1 - f0) <= 1e4 * np.linalg.norm(delta)


def test_solver_spike_instance_matches_grid():
    targets = [VadPoint(0.9, 0.9, 0.9)] * 5
    neutrals = [VadPoint(0.5, 0.5, 0.5)] * 5
    sol = solve_centroid(targets, neutrals)
    oracle = grid_search_centroid(targets, neutrals, step=0.01)
    assert sol.objective >= oracle.objective - 1e-3


def test_solver_identical_sets_degenerate():
    points = [VadPoint(0.3, 0.6, 0.4), VadPoint(0.5, 0.5, 0.5), VadPoint(0.7, 0.4, 0.6)]
    sol = solve_centroid(points, points)
    assert sol.objective == pytest.approx(1.0, abs=0.05)


def test_solver_stays_in_cube_and_is_deterministic():
    rng = np.random.default_rng(23)
    targets, neutrals = random_solver_instance(rng, n=80)
    a = solve_centroid(targets, neutrals)
    b = solve_centroid(targets, neutrals)
    assert a.point == b.point  # bit-identical
    assert a.objective == b.objective
    assert all(0.0 <= c <= 1.0 for c in a.point)


def test_solver_beats_every_start():
    rng = np.random.default_rng(31)
    targets, neutrals = random_solver_instance(rng, n=60)
    sol = solve_centroid(targets, neutrals)
    t = np.array([p.as_tuple() for p in targets])
    n = np.array([p.as_tuple() for p in neutrals])
    starts = [n.mean(axis=0), t.mean(axis=0)]
    starts += [np.array((float(i), float(j), float(k)))
               for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    starts += list(np.random.default_rng(3).uniform(0, 1, (8, 3)))
    axis = np.arange(11) * 0.1
    starts += [np.array((a, b, c)) for a in axis for b in axis for c in axis]
    # the solution's axis neighbours: a local polish must leave none higher
    starts += [np.clip(np.array(sol.point) + sign * h * e, 0.0, 1.0)
               for h in (1e-3, 1e-5, 1e-7) for sign in (1, -1) for e in np.eye(3)]
    for x0 in starts:
        assert sol.objective >= objective(x0, targets, neutrals) - 1e-12


def test_grid_step_half_exhaustive():
    targets = [VadPoint(1, 1, 1)]
    neutrals = [VadPoint(0, 0, 0)]
    result = grid_search_centroid(targets, neutrals, step=0.5)
    lattice = [(i, j, k) for i in (0.0, 0.5, 1.0) for j in (0.0, 0.5, 1.0)
               for k in (0.0, 0.5, 1.0)]
    assert len(lattice) == 27
    assert result.point in lattice
    best = max(objective(p, targets, neutrals) for p in lattice)
    assert result.objective == pytest.approx(best, rel=1e-12)


def test_grid_step_validation():
    targets = [VadPoint(1, 1, 1)]
    with pytest.raises(ValueError):
        grid_search_centroid(targets, targets, step=0.0)
    with pytest.raises(ValueError):
        grid_search_centroid(targets, targets, step=0.6)


def test_grid_tie_break_lexicographic():
    # identical target/neutral sets make every lattice point (except the point
    # itself) tie at the same ratio; the lexicographically smallest wins
    points = [VadPoint(0.5, 0.5, 0.5)]
    result = grid_search_centroid(points, points, step=0.5)
    assert result.point == (0.0, 0.0, 0.0)


def test_grid_lattice_reaches_exact_endpoint():
    # optimum sits exactly on the neutral point (1,1,1) where the denominator
    # collapses to eps; the lattice must include 1.0 exactly on every axis
    targets = [VadPoint(0.05, 0.05, 0.05)]
    neutrals = [VadPoint(1.0, 1.0, 1.0)]
    result = grid_search_centroid(targets, neutrals, step=0.01)
    assert result.point == (1.0, 1.0, 1.0)


def test_oracle_dominance_small():
    rng = np.random.default_rng(404)
    for _ in range(3):
        targets, neutrals = random_solver_instance(rng, n=60)
        sol = solve_centroid(targets, neutrals)
        oracle = grid_search_centroid(targets, neutrals, step=0.02)
        assert sol.objective >= oracle.objective - 1e-3


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_cloud = st.lists(st.tuples(_unit, _unit, _unit), min_size=4, max_size=40)


@settings(max_examples=30, deadline=None)
@given(targets=_cloud, neutrals=_cloud)
def test_solver_dominates_lattice_property(targets, neutrals):
    sol = solve_centroid(targets, neutrals)
    assert all(0.0 <= c <= 1.0 for c in sol.point)
    assert sol.objective >= grid_search_centroid(targets, neutrals, step=0.1).objective
    assert solve_centroid(targets, neutrals) == sol  # bit-identical rerun


def test_rescores_return_the_kernel_values(monkeypatch):
    # the lattice winner's re-score equals the lattice maximum, and every
    # compass re-score equals the largest stencil value it was chosen by
    calls = []

    def recorded(name, fn):
        def wrapper(*args):
            calls.append((name, fn(*args)))
            return calls[-1][1]
        return wrapper

    monkeypatch.setattr(_kernels, "objective_values",
                        recorded("stencil", _kernels.objective_values))
    monkeypatch.setattr(_kernels, "distance_ratio",
                        recorded("rescore", _kernels.distance_ratio))
    axis = np.minimum(np.arange(11) * 0.1, 1.0)
    rng = np.random.default_rng(2024)
    for _ in range(4):
        targets, neutrals = random_solver_instance(rng, n=80)
        t = np.array([p.as_tuple() for p in targets])
        n = np.array([p.as_tuple() for p in neutrals])
        lattice_max = _kernels.grid_objective_values(axis, t, n, 1e-6).max()
        calls.clear()
        sol = solve_centroid(targets, neutrals)
        assert calls[0] == ("rescore", lattice_max)
        compass = calls[1:]
        assert compass and len(compass) % 2 == 0
        best = lattice_max
        for (stencil, values), (rescore, value) in zip(compass[::2], compass[1::2]):
            assert (stencil, rescore) == ("stencil", "rescore")
            assert value == values.max()
            best = max(best, value)  # the compass accepts only a higher value
        assert sol.objective == best
        assert grid_search_centroid(targets, neutrals, 0.1).objective == lattice_max
