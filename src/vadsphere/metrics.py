"""Objective emotion metrics over VAD points, embeddings, and labels.

All functions are pure. Embeddings and labels arrive as data; no model
inference happens here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import Centroid, shift, to_spherical
from .manifest import RowError, first_fault

# Below this shifted radius the style angle is undefined.
MIN_ANGLE_RADIUS = 1e-9


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, as np.dot computes it for one pair; no
    (n, d) temporary."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_cosines(a, b) -> np.ndarray:
    """Cosine similarity of each row pair of two (n, d) arrays; a zero-norm
    row is a RowError naming it (arg 0 for a, 1 for b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norms = np.sqrt(np.column_stack([_row_dots(a, a), _row_dots(b, b)]))
    if (norms == 0.0).any():
        row, arg = first_fault(norms == 0.0)
        raise RowError("cosine similarity undefined for a zero-norm vector", row, arg)
    return _row_dots(a, b) / (norms[:, 0] * norms[:, 1])


def svas(synth_vad, ref_vad, neutral_center: Centroid) -> np.ndarray:
    """Spherical vector angle similarity of each synth/ref point pair about a
    fixed neutral center.

    Both (n, 3) point arrays are shifted by the neutral mean (never the
    adaptive per-emotion center) and each pair is compared by the cosine of
    its (theta, phi) angle vectors; every score lies in [-1, 1]. A point on
    the center has no angle: a RowError naming its row (arg 0 for synth,
    1 for ref).
    """
    synth = to_spherical(shift(synth_vad, neutral_center))
    ref = to_spherical(shift(ref_vad, neutral_center))
    if synth.shape != ref.shape:
        raise ValueError(f"length mismatch: {len(synth)} synth vs {len(ref)} ref points")
    degenerate = np.column_stack([synth[:, 0], ref[:, 0]]) < MIN_ANGLE_RADIUS
    if degenerate.any():
        row, arg = first_fault(degenerate)
        raise RowError("degenerate radius: point coincides with the center, "
                       "angle undefined", row, arg)
    return _row_cosines(synth[:, 1:], ref[:, 1:])


def eecs(a, b) -> np.ndarray:
    """Emotion embedding cosine similarity of each row pair of two (n, d) arrays."""
    return _row_cosines(a, b)


def eca(predicted: Sequence[str], reference: Sequence[str]) -> float:
    """Emotion classification accuracy; labels match case-insensitively."""
    if len(predicted) != len(reference):
        raise ValueError(f"length mismatch: {len(predicted)} vs {len(reference)}")
    if len(predicted) == 0:
        raise ValueError("eca requires at least one label pair")
    hits = sum(p.strip().casefold() == r.strip().casefold()
               for p, r in zip(predicted, reference))
    return hits / len(predicted)


def orthogonality_loss(speaker: np.ndarray, emotion: np.ndarray) -> float:
    """All-pairs normalized squared dot product between two batches.

    sum over (i, j) of (s_i . e_j)^2 / (|s_i|^2 |e_j|^2). Zero when the
    batches are mutually orthogonal, n^2 when every pair is parallel. A
    zero-norm row is a RowError naming it (arg 0 for speaker, 1 for emotion).
    """
    s = np.asarray(speaker, dtype=np.float64)
    e = np.asarray(emotion, dtype=np.float64)
    if s.ndim != 2 or e.ndim != 2:
        raise ValueError("batches must be 2-D")
    if s.shape != e.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {e.shape}")
    s_norms = np.linalg.norm(s, axis=1)
    e_norms = np.linalg.norm(e, axis=1)
    zero = np.column_stack([s_norms, e_norms]) == 0.0
    if zero.any():
        row, arg = first_fault(zero)
        raise RowError("zero-norm row in embedding batch", row, arg)
    gram = (s / s_norms[:, None]) @ (e / e_norms[:, None]).T
    return float((gram ** 2).sum())


def pair_order_accuracy(
        pairs: Sequence[tuple[float, float, bool]]) -> float:
    """Fraction of intensity pairs whose judgment matches the true ordering.

    Each pair is (r_low, r_high, judged_high_is_second): the boolean says
    the rater picked the second sample as the stronger one. A pair with
    equal radii counts as incorrect regardless of the judgment.
    """
    if len(pairs) == 0:
        raise ValueError("pair_order_accuracy requires at least one pair")
    correct = 0
    for r_low, r_high, judged_high_is_second in pairs:
        if r_high > r_low:
            correct += bool(judged_high_is_second)
        elif r_high < r_low:
            correct += not judged_high_is_second
        # equal radii: no credit
    return correct / len(pairs)
