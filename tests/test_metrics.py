import math

import numpy as np
import pytest

from vadsphere import (
    AngleVector,
    Centroid,
    EmbeddingBatch,
    VadPoint,
    angle_cosine,
    eca,
    eecs,
    neutral_center,
    orthogonality_loss,
    pair_order_accuracy,
    svas,
)


CENTER = Centroid((0.5, 0.5, 0.5), "neutral-mean")


def test_svas_self_similarity():
    p = VadPoint(0.8, 0.7, 0.6)
    assert svas(p, p, CENTER) == pytest.approx(1.0, abs=1e-12)


def test_svas_requires_neutral_mean_center():
    adaptive = Centroid((0.5, 0.5, 0.5), "emotion-adaptive", emotion="happy")
    with pytest.raises(ValueError, match="neutral-mean"):
        svas(VadPoint(0.8, 0.7, 0.6), VadPoint(0.7, 0.6, 0.5), adaptive)


def test_svas_degenerate_radius():
    with pytest.raises(ValueError, match="degenerate radius"):
        svas(VadPoint(0.5, 0.5, 0.5), VadPoint(0.8, 0.7, 0.6), CENTER)


def test_svas_bounded_and_symmetric():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = VadPoint(*rng.uniform(0, 1, 3))
        b = VadPoint(*rng.uniform(0, 1, 3))
        if min((np.array(a.as_tuple()) - 0.5) ** 2 @ np.ones(3),
               (np.array(b.as_tuple()) - 0.5) ** 2 @ np.ones(3)) < 1e-12:
            continue
        value = svas(a, b, CENTER)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(svas(b, a, CENTER), abs=1e-12)


def test_svas_jumps_at_the_phi_branch_cut():
    # phi = atan2(v, a) flips from +pi to -pi where v crosses the center with
    # a below it; svas compares raw (theta, phi) pairs, as the paper defines
    # it, so two directions 2e-4 apart score far below 1
    a = VadPoint(0.5 + 1e-4, 0.3, 0.6)
    b = VadPoint(0.5 - 1e-4, 0.3, 0.6)
    assert svas(a, a, CENTER) == pytest.approx(1.0, abs=1e-12)
    assert svas(b, b, CENTER) == pytest.approx(1.0, abs=1e-12)
    assert svas(a, b, CENTER) == pytest.approx(-0.77898, abs=1e-5)


def test_angle_cosine_orthogonal():
    assert angle_cosine(AngleVector(1.0, 0.0), AngleVector(0.0, 1.0)) == 0.0


def test_angle_cosine_closed_form():
    value = angle_cosine(AngleVector(1.0, 1.0), AngleVector(1.0, 0.0))
    assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_eecs_identity():
    assert eecs([0.6, 0.8], [0.6, 0.8]) == pytest.approx(1.0)


def test_eecs_orthogonal():
    assert eecs([1, 0], [0, 1]) == 0.0
    assert eecs([1, 1], [1, -1]) == 0.0


def test_eecs_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        eecs([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="zero-norm"):
        eecs([0, 0], [1, 0])


def test_eca_examples():
    assert eca(["h", "s"], ["h", "h"]) == 0.5
    assert eca(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert eca(["x", "y"], ["a", "b"]) == 0.0


def test_eca_case_folds_and_trims():
    assert eca([" Happy "], ["happy"]) == 1.0


def test_eca_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        eca(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        eca([], [])


def test_eca_permutation_invariant():
    rng = np.random.default_rng(2)
    pred = [str(x) for x in rng.integers(0, 3, 40)]
    ref = [str(x) for x in rng.integers(0, 3, 40)]
    base = eca(pred, ref)
    perm = rng.permutation(40)
    assert eca([pred[i] for i in perm], [ref[i] for i in perm]) == base


def test_orthogonality_orthogonal_batches():
    s = np.tile([1.0, 0.0, 0.0], (3, 1))
    e = np.tile([0.0, 1.0, 0.0], (3, 1))
    assert orthogonality_loss(s, e) < 1e-12


def test_orthogonality_identical_unit_rows():
    rows = np.tile([1.0, 0.0], (4, 1))
    assert orthogonality_loss(rows, rows) == 16.0


def test_orthogonality_double_loop_oracle():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(3, 2))
    e = rng.normal(size=(3, 2))
    expected = 0.0
    for j in range(3):
        for i in range(3):
            num = float(np.dot(s[i], e[j])) ** 2
            expected += num / (np.dot(s[i], s[i]) * np.dot(e[j], e[j]))
    assert orthogonality_loss(s, e) == pytest.approx(expected, abs=1e-12)


def test_orthogonality_scale_invariance():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(5, 4))
    e = rng.normal(size=(5, 4))
    base = orthogonality_loss(s, e)
    s_scaled = s * rng.uniform(0.1, 10.0, size=(5, 1))
    e_scaled = e * rng.uniform(0.1, 10.0, size=(5, 1))
    assert orthogonality_loss(s_scaled, e_scaled) == pytest.approx(base, abs=1e-12)


def test_orthogonality_symmetric_in_batches():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(4, 3))
    e = rng.normal(size=(4, 3))
    assert orthogonality_loss(s, e) == pytest.approx(orthogonality_loss(e, s), abs=1e-12)


def test_orthogonality_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        orthogonality_loss(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        orthogonality_loss(np.ones((2, 2)), np.ones((3, 2)))


def test_embedding_batch_validation():
    with pytest.raises(ValueError):
        EmbeddingBatch(np.empty((0, 3)))
    batch = EmbeddingBatch(np.ones((2, 3)))
    assert batch.n == 2 and batch.dim == 3


def test_pair_order_accuracy_examples():
    assert pair_order_accuracy([(0.1, 0.9, True)]) == 1.0
    assert pair_order_accuracy([(0.5, 0.5, True)]) == 0.0
    with pytest.raises(ValueError):
        pair_order_accuracy([])


def test_pair_order_reversed_judgment():
    # rater picked the first sample even though it was the low one
    assert pair_order_accuracy([(0.1, 0.9, False)]) == 0.0
    # pairs presented high-first are encoded with r_high < r_low
    assert pair_order_accuracy([(0.9, 0.1, False)]) == 1.0


def test_pair_order_weak_medium_strong():
    weak, medium, strong = 0.1, 0.5, 0.9
    pairs = [(weak, medium, True), (medium, strong, True), (weak, strong, True)]
    assert pair_order_accuracy(pairs) == 1.0
