"""Hot numeric kernels of the centroid search and the pitch tracker.

- ``distance_ratio``: the centroid objective at one candidate center, the
  mean Euclidean distance to the emotion's points over the mean distance to
  the neutral points (plus a guard epsilon).
- ``objective_values``: the same objective at each row of a (k, 3) point
  array, batched as BLAS matmuls; the compass stencil of ``solve_centroid``.
- ``grid_objective_values``: ``objective_values`` at every point of a cubic
  lattice, in C order; the lattice scan of ``solve_centroid`` and
  ``grid_search_centroid``.
- ``yin_difference``: the squared difference function d(tau) of YIN
  (de Cheveigne & Kawahara 2002) for any batch of frames, via FFT
  correlation at the smallest 5-smooth length >= the frame (1350, not 2048,
  for 1344). d is a sum over the window, so d over a window equals the sum
  of d over consecutive sub-windows of it, each with its own tau_max tail.
  ``prosody.estimate_f0`` relies on that: per block of
  ``prosody._F0_BLOCK`` frames it calls the kernel on the hop-strided
  sub-window rows it does not carry over from the previous block (576
  samples at 16 kHz and the default hop, so one 576-point FFT per row) and
  on the block's remainder rows, and sums each frame's rows. The
  benchmark's kernel timing and the tests call it on whole frames.

``centroid`` and ``prosody`` call them as ``_kernels.<name>``, so wrapping a
module attribute reaches every call; the traced benchmark run counts
objective evaluations that way.
"""

from __future__ import annotations

import functools

import numpy as np

# Read by perfbench/traced.py for its kernels.using_numba label; always False.
USING_NUMBA = False

# Elements of one (candidate rows, points) distance matrix in
# objective_values: 2 MB each, so the temporaries stay small at any class size.
_GRID_CHUNK_ELEMENTS = 1 << 18


def distance_ratio(m: np.ndarray, targets: np.ndarray,
                   neutrals: np.ndarray, eps: float) -> float:
    """Mean distance to targets over mean distance to neutrals (plus eps)."""
    dist_t = np.sqrt(((targets - m) ** 2).sum(axis=1)).mean()
    dist_n = np.sqrt(((neutrals - m) ** 2).sum(axis=1)).mean()
    return float(dist_t / (dist_n + eps))


def objective_values(points: np.ndarray, targets: np.ndarray,
                     neutrals: np.ndarray, eps: float) -> np.ndarray:
    """Objective at each row of a (k, 3) array of candidate centers."""
    t_sq = (targets ** 2).sum(axis=1)
    n_sq = (neutrals ** 2).sum(axis=1)
    out = np.empty(points.shape[0])
    rows = max(1, _GRID_CHUNK_ELEMENTS // max(len(targets), len(neutrals)))
    for lo in range(0, points.shape[0], rows):
        chunk = points[lo:lo + rows]
        m_sq = (chunk ** 2).sum(axis=1)[:, None]
        # |m - e|^2 expanded so the cross term is a BLAS matmul
        dt = np.sqrt(np.maximum(m_sq - 2.0 * chunk @ targets.T + t_sq, 0.0))
        dn = np.sqrt(np.maximum(m_sq - 2.0 * chunk @ neutrals.T + n_sq, 0.0))
        out[lo:lo + rows] = dt.mean(axis=1) / (dn.mean(axis=1) + eps)
    return out


def grid_objective_values(axis: np.ndarray, targets: np.ndarray,
                          neutrals: np.ndarray, eps: float) -> np.ndarray:
    """Objective at every lattice point of axis x axis x axis, C order."""
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return objective_values(pts.reshape(-1, 3), targets, neutrals, eps)


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
