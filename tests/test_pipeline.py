import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vadsphere import (
    Centroid,
    DatasetManifest,
    EasvModel,
    IqrBounds,
    SolverConfig,
    StyleOctant,
    UtteranceRecord,
    VadPoint,
    _kernels,
    extract_easv_set,
    fit_easv_model,
    intensity_label_to_value,
    iqr_bounds,
    make_control_vector,
    normalize_radius,
    objective,
    shift,
    to_spherical,
)
from vadsphere.pipeline import (
    easv_set_from_jsonl,
    easv_set_to_jsonl,
    model_from_json,
    model_to_json,
)

from conftest import CLASS_CENTERS, manifest_of, synthetic_manifest


def test_iqr_bounds_outlier_example():
    b = iqr_bounds([1, 2, 3, 4, 100])
    assert b.q1 == pytest.approx(2.0)
    assert b.q3 == pytest.approx(4.0)
    assert b.r_min == pytest.approx(-1.0)
    assert b.r_max == pytest.approx(7.0)


def test_iqr_bounds_constant_degenerate():
    b = iqr_bounds([5, 5, 5, 5])
    assert b.q1 == b.q3 == 5.0
    assert b.r_min == b.r_max == 5.0
    assert b.degenerate


def test_iqr_bounds_two_points():
    b = iqr_bounds([0, 1])
    assert b.q1 == pytest.approx(0.25)
    assert b.q3 == pytest.approx(0.75)
    assert b.r_min == pytest.approx(-0.5)
    assert b.r_max == pytest.approx(1.5)


def test_iqr_bounds_empty():
    with pytest.raises(ValueError):
        iqr_bounds([])


def test_normalize_radius_examples():
    b = IqrBounds(q1=2.0, q3=4.0, r_min=-1.0, r_max=7.0)
    assert normalize_radius(100.0, b) == 1.0
    assert normalize_radius(-1.0, b) == 0.0
    assert normalize_radius(3.0, b) == pytest.approx(0.5)


_finite = st.floats(min_value=-1e6, max_value=1e6)


@settings(max_examples=100, deadline=None)
@given(fences=st.lists(_finite, min_size=4, max_size=4).map(sorted),
       radii=st.lists(_finite, min_size=2, max_size=2).map(sorted))
def test_normalize_radius_monotone_in_unit_interval(fences, radii):
    r_min, q1, q3, r_max = fences
    assume(r_min < r_max)
    b = IqrBounds(q1=q1, q3=q3, r_min=r_min, r_max=r_max)
    low, high = (normalize_radius(r, b) for r in radii)
    assert 0.0 <= low <= high <= 1.0


@pytest.mark.parametrize("field", ["q1", "q3", "r_min", "r_max"])
def test_iqr_bounds_reject_non_finite(field):
    for value in (math.nan, math.inf, -math.inf):
        fences = {"q1": 2.0, "q3": 4.0, "r_min": -1.0, "r_max": 7.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} {value} is not finite$"):
            IqrBounds(**fences)


def test_normalize_radius_degenerate():
    b = IqrBounds(q1=5.0, q3=5.0, r_min=5.0, r_max=5.0)
    with pytest.raises(ValueError, match="degenerate"):
        normalize_radius(5.0, b)


def test_normalize_radius_monotone_property():
    rng = np.random.default_rng(77)
    for _ in range(300):
        data = rng.uniform(0, 2, 12)
        b = iqr_bounds(data)
        if b.degenerate:
            continue
        r1, r2 = sorted(rng.uniform(-3, 5, 2))
        assert normalize_radius(r1, b) <= normalize_radius(r2, b)


def test_intensity_labels():
    assert intensity_label_to_value("weak") == 0.1
    assert intensity_label_to_value("medium") == 0.5
    assert intensity_label_to_value("strong") == 0.9
    assert intensity_label_to_value(" Strong ") == 0.9
    with pytest.raises(ValueError, match="unknown intensity label"):
        intensity_label_to_value("mild")


def test_control_vector_octant_one():
    easv = make_control_vector("happy", StyleOctant.I, 0.5)
    assert len(easv) == 1 and easv.ids == ("",)
    assert easv.r_iqr[0] == 0.5
    assert easv.theta[0] == pytest.approx(math.acos(1.0 / math.sqrt(3.0)), abs=1e-12)
    assert easv.phi[0] == pytest.approx(math.pi / 4, abs=1e-12)
    assert easv.emotions == ("happy",)


def test_control_vector_octant_seven():
    easv = make_control_vector("sad", StyleOctant.VII, 0.0)
    assert easv.r_iqr[0] == 0.0
    assert easv.theta[0] == pytest.approx(math.acos(-1.0 / math.sqrt(3.0)), abs=1e-12)
    assert easv.phi[0] == pytest.approx(-3.0 * math.pi / 4, abs=1e-12)


def test_control_vector_intensity_validation():
    with pytest.raises(ValueError, match="r_iqr 1.5 outside"):
        make_control_vector("happy", StyleOctant.I, 1.5)


def _toy_manifest(n_happy=6, with_neutral=True):
    rng = np.random.default_rng(1)
    records = []
    if with_neutral:
        for i in range(5):
            records.append(UtteranceRecord(f"n{i}", "s", "neutral",
                                           VadPoint(*np.clip(rng.normal(0.5, 0.05, 3), 0, 1))))
    for i in range(n_happy):
        records.append(UtteranceRecord(f"h{i}", "s", "happy",
                                       VadPoint(*np.clip(rng.normal((0.8, 0.7, 0.6), 0.1, 3), 0, 1))))
    return manifest_of(records)


def test_fit_structure_two_classes():
    model = fit_easv_model(_toy_manifest())
    assert set(model.centroids) == {"happy"}
    assert set(model.bounds) == {"happy"}
    assert model.neutral_label == "neutral"


def test_fit_requires_neutral():
    with pytest.raises(ValueError, match="no neutral records"):
        fit_easv_model(_toy_manifest(with_neutral=False))


def test_fit_requires_four_records_per_class():
    with pytest.raises(ValueError, match="at least 4"):
        fit_easv_model(_toy_manifest(n_happy=3))


def test_fit_bounds_recomputation_oracle():
    manifest = synthetic_manifest(per_class=40, seed=9)
    model = fit_easv_model(manifest)
    for emotion, bounds in model.bounds.items():
        assert bounds.r_min < bounds.q1 <= bounds.q3 < bounds.r_max
        # recompute the radii independently and compare the quartiles
        centroid = model.centroids[emotion]
        radii = sorted(to_spherical(shift([r.vad for r in manifest.class_records(emotion)],
                                          centroid))[:, 0])
        q1, q3 = np.percentile(radii, [25, 75])
        assert bounds.q1 == pytest.approx(q1, abs=1e-12)
        assert bounds.q3 == pytest.approx(q3, abs=1e-12)


def _one_record(rec: UtteranceRecord) -> DatasetManifest:
    return manifest_of([rec])


def test_extract_neutral_is_exact_zero():
    model = fit_easv_model(_toy_manifest())
    rec = UtteranceRecord("x", "s", "neutral", VadPoint(0.9, 0.1, 0.7))
    easv = extract_easv_set(_one_record(rec), model)
    assert (easv.r_iqr[0], easv.theta[0], easv.phi[0]) == (0.0, 0.0, 0.0)
    easvs = extract_easv_set(_toy_manifest(), model)
    neutral = np.array(easvs.emotions) == "neutral"
    rows = np.column_stack([easvs.r_iqr, easvs.theta, easvs.phi])[neutral]
    assert rows.tolist() == [[0.0, 0.0, 0.0]] * 5


def test_extract_worked_example():
    centroid = Centroid((0.5, 0.4, 0.6), objective=2.0)
    bounds = IqrBounds(q1=2.0, q3=4.0, r_min=-1.0, r_max=7.0)
    model = EasvModel(centroids={"happy": centroid}, bounds={"happy": bounds},
                      neutral_label="neutral")
    # shifted vad = (0.3, 0.4, 0.0), radius 0.5
    rec = UtteranceRecord("u", "s", "happy", VadPoint(0.8, 0.8, 0.6))
    easv = extract_easv_set(_one_record(rec), model)
    assert (easv.ids, easv.emotions) == (("u",), ("happy",))
    assert easv.r_iqr[0] == pytest.approx((0.5 + 1.0) / 8.0)
    assert easv.theta[0] == pytest.approx(math.pi / 2)
    assert easv.phi[0] == pytest.approx(math.atan2(0.3, 0.4))


def test_extract_unknown_class():
    model = fit_easv_model(_toy_manifest())
    rec = UtteranceRecord("x", "s", "fear", VadPoint(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="unknown emotion class 'fear'"):
        extract_easv_set(_one_record(rec), model)


def test_extract_angle_passthrough_bit_for_bit():
    manifest = synthetic_manifest(per_class=30, seed=12)
    model = fit_easv_model(manifest)
    easvs = extract_easv_set(manifest, model)
    for row, record in enumerate(manifest.records):
        if record.emotion == "neutral":
            continue
        sv = to_spherical(shift(record.vad, model.centroids[record.emotion]))[0]
        assert easvs.ids[row] == record.id
        assert easvs.theta[row] == sv[1]
        assert easvs.phi[row] == sv[2]


def test_extract_set_r_iqr_in_unit_interval():
    manifest = synthetic_manifest(per_class=50, seed=3)
    model = fit_easv_model(manifest)
    easvs = extract_easv_set(manifest, model)
    assert len(easvs) == len(manifest)
    assert np.all((0.0 <= easvs.r_iqr) & (easvs.r_iqr <= 1.0))


def test_model_determinism_and_serialization_round_trip():
    manifest = synthetic_manifest(per_class=30, seed=8)
    model_a = fit_easv_model(manifest)
    model_b = fit_easv_model(manifest)
    text_a = model_to_json(model_a)
    text_b = model_to_json(model_b)
    assert text_a == text_b  # byte-identical
    restored = model_from_json(text_a)
    assert restored.neutral_label == model_a.neutral_label
    for emotion in model_a.centroids:
        assert restored.centroids[emotion].point == model_a.centroids[emotion].point
        assert restored.bounds[emotion] == model_a.bounds[emotion]


def test_model_json_rejects_other_documents():
    with pytest.raises(ValueError, match="not an EASV model"):
        model_from_json(json.dumps({"format": "something-else"}))


def test_easv_jsonl_round_trip():
    manifest = synthetic_manifest(per_class=10, seed=4)
    model = fit_easv_model(manifest)
    easvs = extract_easv_set(manifest, model)
    text = easv_set_to_jsonl(easvs)
    back = easv_set_from_jsonl(text)
    assert (back.ids, back.emotions) == (easvs.ids, easvs.emotions)
    for column in ("r_iqr", "theta", "phi"):
        assert getattr(back, column).tolist() == getattr(easvs, column).tolist()
    assert easv_set_to_jsonl(back) == text


def test_easv_model_validation():
    centroid = Centroid((0.5, 0.5, 0.5))
    bounds = IqrBounds(q1=0.1, q3=0.2, r_min=0.0, r_max=0.4)
    with pytest.raises(ValueError, match="same emotions"):
        EasvModel(centroids={"happy": centroid}, bounds={}, neutral_label="neutral")


def test_fit_records_the_fixed_denominator_epsilon():
    manifest = synthetic_manifest(per_class=25, seed=6)
    doc = json.loads(model_to_json(fit_easv_model(manifest)))
    assert doc["solver"] == {"denominator_epsilon": SolverConfig.denominator_epsilon}
    rows = manifest.class_rows()
    neutrals = manifest.vad[rows["neutral"]]
    assert sorted(doc["centroids"]) == ["angry", "happy", "sad"]
    for emotion, entry in doc["centroids"].items():
        targets = manifest.vad[rows[emotion]]
        assert entry["objective"] == objective(entry["point"], targets, neutrals)


def test_fit_computes_each_neutral_lattice_once(monkeypatch):
    # every class is scored against the same neutral cloud, so one fit
    # computes the cloud's lattice half once; a fit against another cloud of
    # the same shape, whose lattice moves the winners, never gets the kept one
    manifest_a = synthetic_manifest(per_class=30, seed=11)
    manifest_b = synthetic_manifest(per_class=30, seed=12, classes={
        **CLASS_CENTERS, "neutral": (0.70, 0.30, 0.40)})

    def fresh(manifest):
        _kernels._neutral_lattice.cache_clear()
        return fit_easv_model(manifest)

    expected = {"a": fresh(manifest_a), "b": fresh(manifest_b)}
    lattice = _kernels._lattice_mean_distances
    clouds = []

    def counted(axis, cloud):
        clouds.append(cloud)
        return lattice(axis, cloud)

    monkeypatch.setattr(_kernels, "_lattice_mean_distances", counted)
    _kernels._neutral_lattice.cache_clear()
    for name in "aba":
        manifest = {"a": manifest_a, "b": manifest_b}[name]
        neutrals = manifest.vad[manifest.class_rows()["neutral"]]
        clouds.clear()
        assert fit_easv_model(manifest) == expected[name]
        assert len(clouds) == 4  # the three classes and the neutral cloud
        assert sum(np.array_equal(cloud, neutrals) for cloud in clouds) == 1
