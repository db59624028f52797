import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the default frames, window 1024 plus tau_max = ceil(sr / 50), at 16, 22.05,
    # 44.1 and 48 kHz: 1344, 1465, 1906 and 1984 samples
    for tau_max in (320, 441, 882, 960):
        signal = np.random.default_rng(tau_max).normal(0, 0.3, 6000)
        frames = np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(signal, 1024 + tau_max)[::256])
        d = _kernels.yin_difference(frames, 1024, tau_max)
        for tau in range(tau_max + 1):
            direct = ((frames[:, :1024] - frames[:, tau:tau + 1024]) ** 2).sum(axis=1)
            assert np.abs(d[:, tau] - direct).max() < 1e-9, (tau_max, tau)


def test_yin_difference_rows_do_not_depend_on_the_batch():
    # 100 frames of 1344 samples: the whole batch's spectra are over 256 KiB,
    # a single frame's or a 16-frame block's are not
    signal = np.random.default_rng(5).normal(0, 0.3, 100 * 256 + 1344)
    frames = np.lib.stride_tricks.sliding_window_view(signal, 1344)[::256][:100]
    whole = _kernels.yin_difference(np.ascontiguousarray(frames), 1024, 320)
    for rows in (1, 16, 48):
        parts = [_kernels.yin_difference(frames[lo:lo + rows], 1024, 320)
                 for lo in range(0, len(frames), rows)]
        assert np.array_equal(np.concatenate(parts), whole), rows


@settings(max_examples=200, deadline=None)
@given(window=st.integers(2, 400), hop_fraction=st.floats(0.0, 1.0),
       tau_max=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3]))
def test_yin_difference_is_the_sum_over_hop_chunks(window, hop_fraction, tau_max, seed, scale):
    # d over a window is the sum of d over its hop-long chunks and the remainder
    hop = max(1, round(hop_fraction * window))
    frame = np.random.default_rng(seed).normal(0, scale, (1, window + tau_max))
    whole = _kernels.yin_difference(frame, window, tau_max)
    q, r = divmod(window, hop)
    heads = [(c * hop, hop) for c in range(q)] + ([(q * hop, r)] if r else [])
    chunked = sum(_kernels.yin_difference(frame[:, lo:lo + head + tau_max], head, tau_max)
                  for lo, head in heads)
    assert np.abs(chunked - whole).max() <= 1e-12 * whole.max()


def test_fft_length_is_smallest_five_smooth():
    def five_smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 4097):
        m = n
        while not five_smooth(m):
            m += 1
        assert _kernels._fft_length(n) == m, n


def test_grid_values_match_scalar_objective():
    values = _kernels.grid_objective_values(AXIS, TARGETS, NEUTRALS, 1e-6)
    n = AXIS.size
    probe = np.random.default_rng(7).integers(0, n ** 3, size=20)
    for idx in probe:
        i, j, k = idx // (n * n), (idx // n) % n, idx % n
        m = np.array([AXIS[i], AXIS[j], AXIS[k]])
        direct = _kernels.distance_ratio(m, TARGETS, NEUTRALS, 1e-6)
        assert values[idx] == pytest.approx(direct, abs=1e-9)
    points = np.random.default_rng(8).uniform(0.0, 1.0, (20, 3))
    values = _kernels.objective_values(points, TARGETS, NEUTRALS, 1e-6)
    assert values.shape == (20,)
    for m, value in zip(points, values):
        direct = _kernels.distance_ratio(m, TARGETS, NEUTRALS, 1e-6)
        assert value == pytest.approx(direct, abs=1e-9)


_STEPS = (0.5, 0.3, 0.25, 0.1, 0.1 + 1e-12)  # the last puts 10 * step above 1.0
_unit = st.floats(0.0, 1.0, allow_nan=False)


def _lattice_axis(step):
    """The axis grid_search_centroid scans at `step`."""
    return np.minimum(np.arange(int(np.floor(1.0 / step + 1e-9)) + 1) * step, 1.0)


@st.composite
def _cloud(draw, axis):
    """1-40 points: free points, lattice nodes (zero distances), repeats."""
    node = st.tuples(*[st.sampled_from(axis.tolist())] * 3)
    base = draw(st.lists(st.one_of(st.tuples(_unit, _unit, _unit), node),
                         min_size=1, max_size=20))
    repeats = draw(st.lists(st.sampled_from(base), max_size=40 - len(base)))
    return np.array(base + repeats, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), step=st.sampled_from(_STEPS),
       chunk=st.sampled_from([1, 5, 23, 64, 300, 1 << 18]),
       eps=st.sampled_from([1e-6, 0.25]))
def test_batched_values_equal_distance_ratio(data, step, chunk, eps):
    # bit for bit, at every lattice point and every candidate row, whatever
    # the chunk size; small chunks split the lattice's last axis mid-way
    axis = _lattice_axis(step)
    targets, neutrals = data.draw(_cloud(axis)), data.draw(_cloud(axis))
    points = np.array(data.draw(st.lists(
        st.one_of(st.tuples(_unit, _unit, _unit), st.sampled_from(targets.tolist())),
        min_size=1, max_size=12)), dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_GRID_CHUNK_ELEMENTS", chunk)
        grid = _kernels.grid_objective_values(axis, targets, neutrals, eps)
        rows = _kernels.objective_values(points, targets, neutrals, eps)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    assert grid.shape == (len(lattice),) and rows.shape == (len(points),)
    for m, value in zip(lattice, grid):
        assert value == _kernels.distance_ratio(m, targets, neutrals, eps), m
    for m, value in zip(points, rows):
        assert value == _kernels.distance_ratio(m, targets, neutrals, eps), m
