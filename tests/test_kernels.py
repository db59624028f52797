import numpy as np
import pytest

from vadsphere import _kernels

rng = np.random.default_rng(1234)
TARGETS = np.clip(rng.normal((0.8, 0.7, 0.6), 0.1, (60, 3)), 0, 1)
NEUTRALS = np.clip(rng.normal((0.5, 0.5, 0.5), 0.08, (60, 3)), 0, 1)
AXIS = np.minimum(np.arange(21, dtype=float) * 0.05, 1.0)
FRAMES = np.ascontiguousarray(
    np.lib.stride_tricks.sliding_window_view(rng.normal(0, 0.3, 6000), 1466)[::256])


def test_numpy_grid_values_deterministic():
    a = _kernels.grid_objective_values(AXIS, TARGETS, NEUTRALS, 1e-6)
    b = _kernels.grid_objective_values(AXIS, TARGETS, NEUTRALS, 1e-6)
    assert np.array_equal(a, b)


def test_yin_difference_zero_lag_is_zero():
    d = _kernels.yin_difference(FRAMES, 1024, 442)
    assert np.abs(d[:, 0]).max() < 1e-9
    assert (d >= 0.0).all()


def test_yin_difference_matches_direct_sum():
    d = _kernels.yin_difference(FRAMES, 1024, 442)
    for tau in (1, 37, 200, 441):
        direct = ((FRAMES[:, :1024] - FRAMES[:, tau:tau + 1024]) ** 2).sum(axis=1)
        assert np.abs(d[:, tau] - direct).max() < 1e-9


def test_grid_values_match_scalar_objective():
    values = _kernels.grid_objective_values(AXIS, TARGETS, NEUTRALS, 1e-6)
    n = AXIS.size
    probe = np.random.default_rng(7).integers(0, n ** 3, size=20)
    for idx in probe:
        i, j, k = idx // (n * n), (idx // n) % n, idx % n
        m = np.array([AXIS[i], AXIS[j], AXIS[k]])
        direct = _kernels.distance_ratio(m, TARGETS, NEUTRALS, 1e-6)
        assert values[idx] == pytest.approx(direct, abs=1e-9)
