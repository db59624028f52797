"""Hot numeric kernels of the centroid search and the pitch tracker.

- ``distance_ratio``: the centroid objective at one candidate center, the
  mean Euclidean distance to the emotion's points over the mean distance to
  the neutral points (plus a guard epsilon).
- ``objective_values``: the same objective at each row of a (k, 3) point
  array; the compass stencil of ``solve_centroid``.
- ``grid_objective_values``: the same objective at every point of a cubic
  lattice, in C order; the lattice scan of ``grid_search_centroid``, which
  ``solve_centroid`` starts from. Every class of a fit is scored against
  the same neutral cloud, so the neutral half (the lattice's mean distances
  to the neutral points) is computed once per cloud and axis and kept, read
  only, until another cloud or axis comes.
- ``yin_difference``: the squared difference function d(tau) of YIN
  (de Cheveigne & Kawahara 2002) for any batch of frames, via FFT
  correlation at the smallest 5-smooth length >= the frame (1350, not 2048,
  for 1344). d is a sum over the window, so d over a window equals the sum
  of d over consecutive sub-windows of it, each with its own tau_max tail;
  ``prosody.estimate_f0`` builds each frame's d from such sub-windows.

The three centroid kernels share one arithmetic: the squared column
differences added in axis order, the square root, and the mean over the
cloud. So each value of the two batched kernels equals ``distance_ratio``
at that point bit for bit, and the solver compares the objective itself,
never an approximation of it.

``centroid`` and ``prosody`` call them as ``_kernels.<name>``, so wrapping a
module attribute reaches every call; the traced benchmark run counts
``distance_ratio`` calls that way: one per solve, the re-score of
``grid_search_centroid``'s winner (the compass takes its values from the
stencil).
"""

from __future__ import annotations

import functools

import numpy as np

# Read by perfbench/traced.py for its kernels.using_numba label; always False.
USING_NUMBA = False

# Elements of one (candidates, points) block of squared distances: 2 MB, so
# the temporaries stay small at any class size and lattice step.
_GRID_CHUNK_ELEMENTS = 1 << 18


def distance_ratio(m: np.ndarray, targets: np.ndarray,
                   neutrals: np.ndarray, eps: float) -> float:
    """Mean distance to targets over mean distance to neutrals (plus eps)."""
    dist_t = np.sqrt(((targets - m) ** 2).sum(axis=1)).mean()
    dist_n = np.sqrt(((neutrals - m) ** 2).sum(axis=1)).mean()
    return float(dist_t / (dist_n + eps))


def _mean_distances(squared, shape: tuple[int, int], n: int) -> np.ndarray:
    """Mean distance from each candidate of a (rows, cols) array to n points.

    ``squared(rows, cols)`` gives the (rows, cols, n) squared distances for two
    slices of the candidates, sized so that each block holds at most
    ``_GRID_CHUNK_ELEMENTS`` elements (one candidate's n at least). Each block
    is rooted in place and averaged over its last axis, as ``distance_ratio``
    averages one candidate's distances.
    """
    out = np.empty(shape)
    cols = min(shape[1], max(1, _GRID_CHUNK_ELEMENTS // n))
    rows = max(1, _GRID_CHUNK_ELEMENTS // (cols * n))
    for r in range(0, shape[0], rows):
        for c in range(0, shape[1], cols):
            sq = squared(slice(r, r + rows), slice(c, c + cols))
            out[r:r + rows, c:c + cols] = np.sqrt(sq, out=sq).mean(axis=2)
    return out


def objective_values(points: np.ndarray, targets: np.ndarray,
                     neutrals: np.ndarray, eps: float) -> np.ndarray:
    """Objective at each row of a (k, 3) array of candidate centers."""
    m = points[:, :, None, None]  # candidate, axis, then two broadcast axes

    def mean_distances(cloud: np.ndarray) -> np.ndarray:
        def squared(rows: slice, _: slice) -> np.ndarray:
            return (((cloud[:, 0] - m[rows, 0]) ** 2 + (cloud[:, 1] - m[rows, 1]) ** 2)
                    + (cloud[:, 2] - m[rows, 2]) ** 2)
        return _mean_distances(squared, (len(points), 1), len(cloud))[:, 0]

    return mean_distances(targets) / (mean_distances(neutrals) + eps)


def _lattice_mean_distances(axis: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Mean distance from every lattice point of axis x axis x axis, C order,
    to the points of cloud.

    Each axis's squared differences are formed once per axis value, and a
    point's squared distances are (Dx[i] + Dy[j]) + Dz[k].
    """
    a = axis.size
    dx, dy, dz = ((cloud[:, c] - axis[:, None]) ** 2 for c in range(3))
    out = np.empty((a, a, a))
    for i in range(a):
        out[i] = _mean_distances(lambda j, k: (dx[i] + dy[j])[:, None] + dz[k],
                                 (a, a), len(cloud))
    return out.ravel()


def _array_key(arr: np.ndarray) -> tuple:
    """An array's exact value as a hashable key: dtype, shape and bytes."""
    return arr.dtype.str, arr.shape, arr.tobytes()


@functools.lru_cache(maxsize=1)  # one neutral cloud per fit
def _neutral_lattice(axis_key: tuple, cloud_key: tuple) -> np.ndarray:
    """_lattice_mean_distances of the arrays the two keys hold, read-only."""
    axis, cloud = (np.frombuffer(data, dtype).reshape(shape)
                   for dtype, shape, data in (axis_key, cloud_key))
    out = _lattice_mean_distances(axis, cloud)
    out.flags.writeable = False
    return out


def grid_objective_values(axis: np.ndarray, targets: np.ndarray,
                          neutrals: np.ndarray, eps: float) -> np.ndarray:
    """Objective at every lattice point of axis x axis x axis, C order.

    The neutral half is computed once per (axis, neutral cloud): every class
    of a fit is scored against the same neutral cloud.
    """
    neutral = _neutral_lattice(_array_key(axis), _array_key(neutrals))
    return _lattice_mean_distances(axis, targets) / (neutral + eps)


@functools.lru_cache(maxsize=64)  # one entry per frame length in use
def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length the FFT splits into small radices."""
    k = n.bit_length()  # 3^k and 5^k both exceed n
    return min(m << ((n - 1) // m).bit_length()  # m doubled up to >= n
               for m in (3 ** b * 5 ** c for b in range(k) for c in range(k)))


def yin_difference(frames: np.ndarray, window: int, tau_max: int) -> np.ndarray:
    """Per-frame squared difference function d(tau) for tau in [0, tau_max].

    FFT-based: d(tau) = E(0) + E(tau) - 2*corr(tau), with E(tau) the energy
    of the length-`window` slice starting at tau and corr the linear
    autocorrelation of the frame against its first `window` samples; with
    n_fft >= frame_len no index window - 1 + tau <= frame_len - 1 wraps.
    """
    n_frames, frame_len = frames.shape
    n_fft = _fft_length(frame_len)
    # conj(head) *= full, in this operand order at every batch size: written
    # `full * conj(head)`, numpy reuses the conj temporary from 256 KiB up and
    # swaps the operands, and the complex product rounds differently, so a
    # frame's bits would depend on how many frames share the call
    cross = np.fft.rfft(frames[:, :window], n_fft, axis=1)
    np.conj(cross, out=cross)
    cross *= np.fft.rfft(frames, n_fft, axis=1)
    corr = np.fft.irfft(cross, n_fft, axis=1)[:, :tau_max + 1]
    csum = np.zeros((n_frames, frame_len + 1))
    np.square(frames, out=csum[:, 1:])
    np.cumsum(csum[:, 1:], axis=1, out=csum[:, 1:])
    d = csum[:, window:window + tau_max + 1] - csum[:, :tau_max + 1]  # E(tau)
    d += d[:, :1].copy()  # + E(0)
    corr *= 2.0
    d -= corr
    return np.maximum(d, 0.0, out=d)
