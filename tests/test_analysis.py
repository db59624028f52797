import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadsphere import (
    EasvSet,
    ProsodySet,
    ProsodyStats,
    StyleOctant,
    UtteranceRecord,
    VadPoint,
    bin_intensity,
    build_report,
    make_control_vector,
    range_rc,
    render_report,
)
from vadsphere.analysis import FEATURES, REGION_ORDER

from conftest import manifest_of, ordered_sum

REGION_R_IQR = {"R1": 0.2, "R2": 0.5, "R3": 0.8}

# (emotion, octant) -> region -> record count
PLAN = {
    ("angry", "I"): {"R1": 3, "R2": 5, "R3": 2},
    ("angry", "V"): {"R2": 4},
    ("happy", "III"): {"R1": 2, "R3": 3},
    ("happy", "VII"): {"R1": 1, "R2": 1, "R3": 1},
}


def _octant_angles(tag: str) -> tuple[float, float]:
    probe = make_control_vector("probe", StyleOctant[tag], 0.5)
    return float(probe.theta[0]), float(probe.phi[0])


def _rows(easvs: EasvSet) -> dict[str, tuple[str, float, float, float]]:
    """{id: (emotion, r_iqr, theta, phi)}: an EASV set's rows, to edit and rebuild."""
    return dict(zip(easvs.ids, zip(easvs.emotions, easvs.r_iqr.tolist(),
                                   easvs.theta.tolist(), easvs.phi.tolist())))


def build_synthetic_inputs(with_neutral: bool = True):
    """Dataset whose cell assignments are known by construction."""
    records, easvs, prosody = [], {}, {}
    expected: dict[tuple[str, str, str], list[str]] = {}
    pitch_value = 60.0
    for (emotion, octant_tag), regions in PLAN.items():
        theta, phi = _octant_angles(octant_tag)
        for region_tag, count in regions.items():
            key = (emotion, octant_tag, region_tag)
            expected[key] = []
            for i in range(count):
                rec_id = f"{emotion}-{octant_tag}-{region_tag}-{i}"
                records.append(UtteranceRecord(rec_id, "s", emotion,
                                               VadPoint(0.5, 0.5, 0.5)))
                easvs[rec_id] = (emotion, REGION_R_IQR[region_tag], theta, phi)
                pitch_value += 1.7
                prosody[rec_id] = ProsodyStats(pitch_mean_hz=pitch_value,
                                               energy_mean=pitch_value / 10.0,
                                               duration_s=pitch_value / 20.0)
                expected[key].append(rec_id)
    if with_neutral:
        for i in range(4):
            rec_id = f"neutral-{i}"
            records.append(UtteranceRecord(rec_id, "s", "neutral",
                                           VadPoint(0.5, 0.5, 0.5)))
            easvs[rec_id] = ("neutral", 0.0, 0.0, 0.0)
            prosody[rec_id] = ProsodyStats(pitch_mean_hz=50.0 + i,
                                           energy_mean=2.0, duration_s=3.0)
    manifest = manifest_of(records)
    return manifest, EasvSet.from_rows(easvs), prosody, expected


def test_bin_intensity_examples():
    codes = bin_intensity([0.0, 0.3299, 0.33, 0.6599, 0.66, 1.0])
    assert [REGION_ORDER[c] for c in codes] == ["R1", "R1", "R2", "R2", "R3", "R3"]
    with pytest.raises(ValueError, match="r_iqr 1.01 outside"):
        bin_intensity([0.5, 1.01])
    with pytest.raises(ValueError, match="r_iqr -0.01 outside"):
        bin_intensity(-0.01)


def test_range_rc_examples():
    assert range_rc([66.5, 72.9, 79.0], [10, 10, 10]) == pytest.approx(12.5)
    assert range_rc([5.0, None, None], [3, 0, 0]) is None
    assert range_rc([3.0, 3.0, 3.0], [1, 1, 1]) == 0.0


def test_build_report_counts_and_means_match_oracle():
    manifest, easvs, prosody, expected = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    assert set(report.cells) == set(expected)
    for key, ids in expected.items():
        cell = report.cells[key]
        assert cell.count == len(ids)
        # independent single-pass recomputation from the same inputs
        assert cell.pitch_mean == pytest.approx(
            np.mean([prosody[i].pitch_mean_hz for i in ids]), abs=1e-9)
        assert cell.energy_mean == pytest.approx(
            np.mean([prosody[i].energy_mean for i in ids]), abs=1e-9)
        assert cell.duration_mean == pytest.approx(
            np.mean([prosody[i].duration_s for i in ids]), abs=1e-9)


def test_build_report_partition_property():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    non_neutral = sum(1 for e in easvs.emotions if e != "neutral")
    assert sum(c.count for c in report.cells.values()) == non_neutral


def test_build_report_rc_and_avg_consistency():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    feature_of = {"pitch": "pitch_mean", "energy": "energy_mean",
                  "duration": "duration_mean"}
    for (emotion, octant, feature), rc_value in report.rc.items():
        means = [getattr(cell, feature_of[feature])
                 for key, cell in report.cells.items()
                 if key[0] == emotion and key[1] == octant]
        assert min(means) + rc_value == pytest.approx(max(means), abs=1e-9)
    for (emotion, octant, feature), avg_value in report.avg.items():
        cells = [cell for key, cell in report.cells.items()
                 if key[0] == emotion and key[1] == octant]
        weighted = sum(getattr(c, feature_of[feature]) * c.count for c in cells)
        total = sum(c.count for c in cells)
        assert avg_value == pytest.approx(weighted / total, abs=1e-9)


def test_build_report_single_region_omits_rc():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    for feature in ("pitch", "energy", "duration"):
        assert ("angry", "V", feature) not in report.rc
        assert ("angry", "I", feature) in report.rc


def test_build_report_neutral_summary():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    assert report.neutral.count == 4
    assert report.neutral.pitch_mean == pytest.approx(51.5)
    assert report.neutral.energy_mean == pytest.approx(2.0)


def test_build_report_unresolvable_id():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    rows = _rows(easvs)
    rows["ghost"] = ("angry", 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="'ghost' not found"):
        build_report(EasvSet.from_rows(rows), ProsodySet.from_stats(prosody), manifest)


def test_build_report_missing_prosody_names_id():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    victim = next(i for i, e in zip(easvs.ids, easvs.emotions) if e != "neutral")
    del prosody[victim]
    with pytest.raises(ValueError, match=victim):
        build_report(easvs, ProsodySet.from_stats(prosody), manifest)


def test_build_report_emotion_mismatch():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    rows = _rows(easvs)
    victim = next(i for i, row in rows.items() if row[0] == "angry")
    rows[victim] = ("happy", 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="emotion mismatch"):
        build_report(EasvSet.from_rows(rows), ProsodySet.from_stats(prosody), manifest)


def test_render_markdown_deterministic():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    first = render_report(report, "markdown")
    second = render_report(report, "markdown")
    assert first == second
    # counts carry thousands separators in markdown, means one decimal
    assert "| angry | I | 3 | 5 | 2 | 10 |" in first


def test_render_markdown_thousands_separators():
    from vadsphere.analysis import AnalysisCell, AnalysisReport
    cells = {}
    for region_tag, count in (("R1", 611), ("R2", 2558), ("R3", 480)):
        cells[("angry", "I", region_tag)] = AnalysisCell(
            count=count, pitch_mean=66.5, energy_mean=6.0, duration_mean=4.1)
    report = AnalysisReport(cells=cells, rc={}, avg={},
                            neutral=AnalysisCell(0, None, None, None),
                            neutral_label="neutral", emotion_order=("angry",))
    text = render_report(report, "markdown")
    assert "| angry | I | 611 | 2,558 | 480 | 3,649 |" in text


def test_render_markdown_empty_report_is_header_only():
    manifest = manifest_of(())
    report = build_report(EasvSet.from_rows({}), ProsodySet.from_stats({}), manifest)
    text = render_report(report, "markdown")
    table_lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    assert len(table_lines) == 2  # header and separator only


def test_render_csv_single_cell():
    records = (UtteranceRecord("u1", "s", "angry", VadPoint(0.5, 0.5, 0.5)),)
    manifest = manifest_of(records)
    theta, phi = _octant_angles("I")
    easvs = EasvSet.from_rows({"u1": ("angry", 0.5, theta, phi)})
    prosody = {"u1": ProsodyStats(70.0, 5.0, 3.0)}
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    text = render_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "emotion,octant,region,count,pitch_mean,energy_mean,duration_mean"
    assert len(lines) == 2
    assert lines[1] == "angry,I,R2,1,70.0,5.0,3.0"


def test_render_csv_empty_fields_for_absent_means():
    records = (UtteranceRecord("u1", "s", "angry", VadPoint(0.5, 0.5, 0.5)),)
    manifest = manifest_of(records)
    theta, phi = _octant_angles("I")
    easvs = EasvSet.from_rows({"u1": ("angry", 0.5, theta, phi)})
    prosody = {"u1": ProsodyStats(None, 5.0, 3.0)}  # unvoiced utterance
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    lines = render_report(report, "csv").splitlines()
    assert lines[1] == "angry,I,R2,1,,5.0,3.0"


def _labelled_report(emotion: str, neutral_label: str):
    """A report of one emotional cell and one neutral record, under these labels."""
    records = (UtteranceRecord("u1", "s", emotion, VadPoint(0.5, 0.5, 0.5)),
               UtteranceRecord("u2", "s", neutral_label, VadPoint(0.5, 0.5, 0.5)))
    theta, phi = _octant_angles("I")
    easvs = EasvSet.from_rows({"u1": (emotion, 0.5, theta, phi),
                               "u2": (neutral_label, 0.0, 0.0, 0.0)})
    prosody = {"u1": ProsodyStats(70.0, 5.0, 3.0), "u2": ProsodyStats(None, 2.0, 1.0)}
    return build_report(easvs, ProsodySet.from_stats(prosody),
                        manifest_of(records, neutral_label))


@pytest.mark.parametrize("label", ['calm, "soft"', "a|b", "two\nlines", "plain"])
def test_render_csv_quotes_labels(label):
    text = render_report(_labelled_report(label, f"neutral {label}"), "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert [rows[1][0], rows[2][0]] == [f"neutral {label}", label]
    if label == "plain":  # written as before: no label needs quotes
        assert text.splitlines()[1:] == ["neutral plain,,,1,,2.0,1.0", "plain,I,R2,1,70.0,5.0,3.0"]


def test_render_markdown_escapes_pipes_in_labels():
    text = render_report(_labelled_report("a|b", "n|x"), "markdown")
    header, _, *rows = [line for line in text.splitlines() if line.startswith("|")]

    def columns(line: str) -> int:
        return len(re.split(r"(?<!\\)\|", line))
    assert len(rows) == 2
    assert [columns(row) for row in rows] == [columns(header)] * 2
    assert rows[0].startswith("| n\\|x | All |") and rows[1].startswith("| a\\|b | I |")


def test_render_unknown_format():
    manifest = manifest_of(())
    report = build_report(EasvSet.from_rows({}), ProsodySet.from_stats({}), manifest)
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(report, "html")


def test_report_emotion_order_follows_manifest():
    manifest, easvs, prosody, _ = build_synthetic_inputs()
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    assert report.emotion_order == ("angry", "happy")
    text = render_report(report, "csv")
    first_angry = text.index("angry,")
    first_happy = text.index("happy,")
    assert first_angry < first_happy


def _report_reference(rows, prosody):
    """Cells, Rc and AVG of build_report, from plain Python over the records in
    order; the octant from the signs of the unit direction's math.sin/cos."""
    cells = {}  # (emotion, octant, region) -> [count, {feature: [values]}]
    for rec_id, (emotion, r_iqr, theta, phi) in rows.items():
        if emotion == "neutral":
            continue
        direction = (math.sin(theta) * math.sin(phi), math.sin(theta) * math.cos(phi),
                     math.cos(theta))
        octant = StyleOctant(tuple(1 if x >= 0.0 else -1 for x in direction))
        region = "R1" if r_iqr < 0.33 else "R2" if r_iqr < 0.66 else "R3"
        cell = cells.setdefault((emotion, octant.tag, region), [0, {f: [] for f in FEATURES}])
        cell[0] += 1
        stats = prosody[rec_id]
        for feature, value in zip(FEATURES, (stats.pitch_mean_hz, stats.energy_mean,
                                             stats.duration_s)):
            if value is not None:
                cell[1][feature].append(value)
    rc, avg = {}, {}
    for emotion, octant, _ in cells:
        for feature in FEATURES:
            groups = [values[feature] for (e, o, _), (_, values) in cells.items()
                      if (e, o) == (emotion, octant) and values[feature]]
            means = [ordered_sum(values) / len(values) for values in groups]
            if len(means) >= 2:
                rc[(emotion, octant, feature)] = max(means) - min(means)
            if groups:
                avg[(emotion, octant, feature)] = (sum(map(sum, groups))
                                                   / sum(map(len, groups)))
    return cells, rc, avg


_angle_theta = st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi / 2, math.pi])
_angle_phi = (st.floats(-math.pi, math.pi, exclude_min=True)
              | st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]))
_record = st.tuples(st.sampled_from(["neutral", "angry", "happy", "sad"]),
                    st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.33, 0.66, 1.0]),
                    _angle_theta, _angle_phi,
                    st.none() | st.floats(50.0, 400.0), st.floats(0.0, 10.0),
                    st.floats(0.1, 10.0), st.booleans())


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_record, max_size=20), data=st.data())
def test_build_report_matches_python_reference(records, data):
    ids = [f"u{k:03d}" for k in range(len(records))]
    manifest = manifest_of(UtteranceRecord(rec_id, "s", rec[0], VadPoint(0.5, 0.5, 0.5))
                           for rec_id, rec in zip(ids, records))
    prosody, rows = {}, {}
    for rec_id in data.draw(st.permutations(ids)):  # EASV order is not id order
        emotion, r_iqr, theta, phi, pitch, energy, duration, has_prosody = (
            records[ids.index(rec_id)])
        rows[rec_id] = (emotion, r_iqr, theta, phi)
        if has_prosody or emotion != "neutral":  # prosody is optional for neutral
            prosody[rec_id] = ProsodyStats(pitch, energy, duration)

    report = build_report(EasvSet.from_rows(rows), ProsodySet.from_stats(prosody), manifest)
    cells, rc, avg = _report_reference(rows, prosody)

    # counts partition the non-neutral records
    assert sum(c.count for c in report.cells.values()) == sum(
        1 for row in rows.values() if row[0] != "neutral")
    assert set(report.cells) == set(cells)
    for key, (count, values) in cells.items():
        cell = report.cells[key]
        assert cell.count == count
        for feature in FEATURES:  # each mean summed in record order, so exact
            expected = (ordered_sum(values[feature]) / len(values[feature])
                        if values[feature] else None)
            assert getattr(cell, f"{feature}_mean") == expected
    assert report.rc == rc  # max - min of the populated region means
    assert set(report.avg) == set(avg)
    for key, value in avg.items():  # record-weighted, summed region by region
        assert report.avg[key] == pytest.approx(value, rel=1e-12)

    neutral_ids = [i for i, row in rows.items() if row[0] == "neutral"]
    assert report.neutral.count == len(neutral_ids)
    energies = [prosody[i].energy_mean for i in neutral_ids if i in prosody]
    assert report.neutral.energy_mean == (ordered_sum(energies) / len(energies)
                                          if energies else None)


def test_build_report_sums_each_cell_in_record_order():
    # 40 records in one cell, in EASV order (not id order): numpy's pairwise
    # sum, or a sum in id order, moves the last bits of the means
    theta, phi = _octant_angles("I")
    rng = np.random.default_rng(3)
    ids = [f"u{i:02d}" for i in range(40)]
    manifest = manifest_of(UtteranceRecord(i, "s", "angry", VadPoint(0.5, 0.5, 0.5))
                           for i in ids)
    order = [ids[i] for i in rng.permutation(len(ids))]
    easvs = EasvSet.from_rows({i: ("angry", 0.5, theta, phi) for i in order})
    prosody = {i: ProsodyStats(p, p / 7.0, p / 3.0)
               for i, p in zip(ids, rng.uniform(50.0, 400.0, len(ids)).tolist())}
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    cell = report.cells[("angry", "I", "R2")]
    for feature, field in zip(FEATURES, ("pitch_mean_hz", "energy_mean", "duration_s")):
        total = 0.0
        for rec_id in order:
            total += getattr(prosody[rec_id], field)
        assert getattr(cell, f"{feature}_mean") == total / len(ids)


def test_build_report_avg_adds_region_sums_left_to_right():
    # one record per region: 100.1 + 200.3 + 300.7 added left to right rounds
    # away from the exact (and the compensated) sum, so this pins the order
    theta, phi = _octant_angles("I")
    pitch = {"R1": 100.1, "R2": 200.3, "R3": 300.7}
    manifest = manifest_of(UtteranceRecord(region, "s", "angry", VadPoint(0.5, 0.5, 0.5))
                           for region in pitch)
    easvs = EasvSet.from_rows({region: ("angry", REGION_R_IQR[region], theta, phi)
                               for region in pitch})
    prosody = {region: ProsodyStats(hz, 1.0, 1.0) for region, hz in pitch.items()}
    report = build_report(easvs, ProsodySet.from_stats(prosody), manifest)
    avg = report.avg[("angry", "I", "pitch")]
    assert avg == ((0.0 + 100.1) + 200.3 + 300.7) / 3
    assert avg != math.fsum(pitch.values()) / 3
