"""Hot numeric kernels of the centroid search and the pitch tracker.

- ``distance_ratio``: the centroid objective at one candidate center, the
  mean Euclidean distance to the emotion's points over the mean distance to
  the neutral points (plus a guard epsilon).
- ``grid_objective_values``: the same objective at every point of a cubic
  lattice, in C order; the exhaustive oracle behind ``grid_search_centroid``.
- ``yin_difference``: the squared difference function d(tau) of YIN
  (de Cheveigne & Kawahara 2002) for a batch of frames, via FFT correlation.

``centroid`` and ``prosody`` call them as ``_kernels.<name>``, so wrapping a
module attribute reaches every call; the traced benchmark run counts
objective evaluations that way.
"""

from __future__ import annotations

import numpy as np

# Read by perfbench/traced.py for its kernels.using_numba label; always False.
USING_NUMBA = False

# Lattice rows per chunk in the grid scan; keeps the (chunk, n_points)
# distance matrix around 100 MB at 500 points/class.
_GRID_CHUNK = 32768


def distance_ratio(m: np.ndarray, targets: np.ndarray,
                   neutrals: np.ndarray, eps: float) -> float:
    """Mean distance to targets over mean distance to neutrals (plus eps)."""
    dist_t = np.sqrt(((targets - m) ** 2).sum(axis=1)).mean()
    dist_n = np.sqrt(((neutrals - m) ** 2).sum(axis=1)).mean()
    return float(dist_t / (dist_n + eps))


def grid_objective_values(axis: np.ndarray, targets: np.ndarray,
                          neutrals: np.ndarray, eps: float) -> np.ndarray:
    """Objective at every lattice point of axis x axis x axis, C order."""
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    pts = pts.reshape(-1, 3)
    t_sq = (targets ** 2).sum(axis=1)
    n_sq = (neutrals ** 2).sum(axis=1)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _GRID_CHUNK):
        chunk = pts[lo:lo + _GRID_CHUNK]
        m_sq = (chunk ** 2).sum(axis=1)[:, None]
        # |m - e|^2 expanded so the cross term is a BLAS matmul
        dt = np.sqrt(np.maximum(m_sq - 2.0 * chunk @ targets.T + t_sq, 0.0))
        dn = np.sqrt(np.maximum(m_sq - 2.0 * chunk @ neutrals.T + n_sq, 0.0))
        out[lo:lo + _GRID_CHUNK] = dt.mean(axis=1) / (dn.mean(axis=1) + eps)
    return out


def yin_difference(frames: np.ndarray, window: int, tau_max: int) -> np.ndarray:
    """Per-frame squared difference function d(tau) for tau in [0, tau_max].

    FFT-based: d(tau) = E(0) + E(tau) - 2*corr(tau), with E(tau) the energy
    of the length-`window` slice starting at tau and corr the linear
    autocorrelation of the frame against its first `window` samples.
    """
    n_frames, frame_len = frames.shape
    n_fft = 1 << int(frame_len).bit_length()
    spec_full = np.fft.rfft(frames, n_fft, axis=1)
    spec_head = np.fft.rfft(frames[:, :window], n_fft, axis=1)
    corr = np.fft.irfft(spec_full * np.conj(spec_head), n_fft, axis=1)
    corr = corr[:, :tau_max + 1]
    sq = frames ** 2
    csum = np.concatenate([np.zeros((n_frames, 1)), np.cumsum(sq, axis=1)], axis=1)
    energy = csum[:, window:window + tau_max + 1] - csum[:, :tau_max + 1]
    d = energy[:, :1] + energy - 2.0 * corr
    return np.maximum(d, 0.0)
