import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import (
    Centroid,
    StyleOctant,
    VadPoint,
    neutral_center,
    octant_codes,
    shift,
    to_cartesian,
    to_spherical,
)
from vadsphere.geometry import OCTANT_ORDER

from conftest import ordered_sum


def test_neutral_center_symmetry():
    c = neutral_center([VadPoint(0, 0, 0), VadPoint(1, 1, 1)])
    assert c.point == (0.5, 0.5, 0.5)
    assert c.objective is None


def test_centroid_objective_is_keyword_only():
    assert Centroid((0.5, 0.5, 0.5), objective=2.0).objective == 2.0
    with pytest.raises(TypeError):
        Centroid((0.5, 0.5, 0.5), "neutral-mean")


def test_neutral_center_singleton():
    c = neutral_center([VadPoint(0.2, 0.4, 0.6)])
    assert c.point == (0.2, 0.4, 0.6)


def test_neutral_center_mean():
    c = neutral_center([VadPoint(0, 0, 0), VadPoint(0, 0, 0), VadPoint(0.3, 0, 0)])
    assert c.point == pytest.approx((0.1, 0.0, 0.0))


def test_neutral_center_empty():
    with pytest.raises(ValueError):
        neutral_center([])


def test_shift_zero():
    c = Centroid((0.5, 0.5, 0.5))
    assert shift(VadPoint(0.5, 0.5, 0.5), c).tolist() == [[0.0, 0.0, 0.0]]


def test_shift_identity():
    c = Centroid((0.0, 0.0, 0.0))
    assert shift([VadPoint(1, 0, 1), VadPoint(0, 1, 0)], c).tolist() == [[1.0, 0.0, 1.0],
                                                                         [0.0, 1.0, 0.0]]


def test_shift_arithmetic():
    c = Centroid((0.5, 0.5, 0.5))
    s = shift(np.array([[0.2, 0.9, 0.4]]), c)
    assert s.shape == (1, 3)
    assert s[0] == pytest.approx((-0.3, 0.4, -0.1))


def test_shift_rejects_other_shapes():
    c = Centroid((0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match=r"expected \(n, 3\) points"):
        shift(np.zeros((4, 2)), c)


def test_to_spherical_345():
    r, theta, phi = to_spherical([0.3, 0.4, 0.0])[0]
    assert r == pytest.approx(0.5)
    assert theta == pytest.approx(math.pi / 2)
    assert phi == pytest.approx(math.atan2(0.3, 0.4))


def test_to_spherical_pole():
    assert to_spherical([[0.0, 0.0, 0.5]]).tolist() == [[0.5, 0.0, 0.0]]


def test_to_spherical_degenerate():
    # at the center and below the degeneracy cutoff, beside a live point
    sv = to_spherical([[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [0.0, 0.0, 0.5]])
    assert sv.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]


def test_to_cartesian_345_inverse():
    s = to_cartesian([[0.5, math.pi / 2, math.atan2(0.3, 0.4)]])
    assert s[0] == pytest.approx((0.3, 0.4, 0.0), abs=1e-12)


def test_to_cartesian_pole():
    s = to_cartesian([1.0, 0.0, 0.0])
    assert s[0] == pytest.approx((0.0, 0.0, 1.0))


def test_to_cartesian_zero():
    assert to_cartesian([0.0, 0.0, 0.0]).tolist() == [[0.0, 0.0, 0.0]]


def test_octant_examples():
    codes = octant_codes([[0.1, 0.1, 0.1], [-0.1, -0.1, -0.1],
                          # zero valence ties break positive: signs (+, +, -) -> V
                          [0.0, 0.2, -0.3]])
    assert [OCTANT_ORDER[c] for c in codes] == [StyleOctant.I, StyleOctant.VII, StyleOctant.V]


def test_octant_codes_follow_sign_table():
    signs = np.array([octant.signs for octant in OCTANT_ORDER], dtype=np.float64)
    assert octant_codes(0.25 * signs).tolist() == list(range(len(OCTANT_ORDER)))


def test_octant_bijection_matches_sign_table():
    expected = {
        "I": (1, 1, 1), "II": (-1, 1, 1), "III": (-1, -1, 1), "IV": (1, -1, 1),
        "V": (1, 1, -1), "VI": (-1, 1, -1), "VII": (-1, -1, -1), "VIII": (1, -1, -1),
    }
    for tag, signs in expected.items():
        assert StyleOctant[tag].signs == signs
        assert StyleOctant(signs) is StyleOctant[tag]


def test_octant_from_tag_validates():
    assert StyleOctant.from_tag(" iii ") is StyleOctant.III
    with pytest.raises(ValueError, match="unknown style octant"):
        StyleOctant.from_tag("IX")


def _phi_delta(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def test_round_trip_property():
    rng = np.random.default_rng(321)
    rows = []
    for _ in range(2000):
        r = rng.uniform(1e-6, 2.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        if phi <= -math.pi:
            phi = math.pi
        rows.append((r, theta, phi))
    for (r, theta, phi), back in zip(rows, to_spherical(to_cartesian(rows)).tolist()):
        assert back[0] == pytest.approx(r, abs=1e-9)
        assert back[1] == pytest.approx(theta, abs=1e-9)
        assert _phi_delta(back[2], phi) < 1e-9 or math.sin(theta) < 1e-9


def test_norm_preservation_property():
    rng = np.random.default_rng(99)
    s = np.array([rng.uniform(-1, 1, 3) for _ in range(500)])
    assert to_spherical(s)[:, 0] == pytest.approx(np.linalg.norm(s, axis=1), abs=1e-12)


def test_octant_consistency_property():
    rng = np.random.default_rng(17)
    comps = np.array([rng.uniform(-1, 1, 3) for _ in range(500)])
    s = comps[~np.any(comps == 0.0, axis=1)]
    direct = octant_codes(s)
    sv = to_spherical(s)
    assert octant_codes(to_cartesian(sv)).tolist() == direct.tolist()
    sv[:, 0] = 1.0  # the unit direction with the same angles
    assert octant_codes(to_cartesian(sv)).tolist() == direct.tolist()


def _spherical_reference(v: float, a: float, d: float) -> tuple[float, float, float]:
    """to_spherical of one point with the scalar math functions."""
    r = math.sqrt(v * v + a * a + d * d)
    if r < 1e-12:
        return (0.0, 0.0, 0.0)
    theta = math.acos(max(-1.0, min(1.0, d / r)))
    phi = math.atan2(v, a)
    return (r, theta, math.pi if phi <= -math.pi else phi)


_component = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_component, _component, _component), min_size=1, max_size=40))
def test_to_spherical_matches_scalar_math_bit_for_bit(points):
    # the transform pins extraction output, so not even the last bit may move:
    # same radius sum order, libm acos/atan2, -pi folded to pi, r < 1e-12 to zero
    expected = np.array([_spherical_reference(*p) for p in points])
    assert to_spherical(points).view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_shift_by_own_center_is_exact_zero():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = VadPoint(*rng.uniform(0, 1, 3))
        s = shift(p, neutral_center([p]))
        assert s.tolist() == [[0.0, 0.0, 0.0]]


def test_neutral_center_sums_in_order():
    rng = np.random.default_rng(6)
    points = [VadPoint(*p) for p in rng.uniform(0, 1, (1000, 3))]
    # the mean a plain left-to-right sum gives, bit for bit
    expected = tuple(ordered_sum(p[i] for p in points) / len(points) for i in range(3))
    assert neutral_center(points).point == expected
    assert neutral_center(np.asfortranarray(points)).point == expected  # any memory order


def test_vad_point_validation():
    with pytest.raises(ValueError, match="valence component 1.2 outside"):
        VadPoint(1.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="arousal component -0.1 outside"):
        VadPoint(0.0, -0.1, 0.0)
    p = VadPoint(0.1, 0.2, 0.3)
    assert (p.v, p.a, p.d) == p.as_tuple() == (0.1, 0.2, 0.3)
    assert np.asarray([p, p]).shape == (2, 3)
