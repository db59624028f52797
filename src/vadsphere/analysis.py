"""Style-by-intensity prosodic variation reports.

Groups extracted spherical vectors by (emotion, style octant, intensity
region), aggregates prosody statistics per group, and derives the
per-octant variation range Rc (max - min over populated regions) and the
record-weighted average AVG. Neutral records are summarized separately
since their intensity is fixed at zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .geometry import OCTANT_ORDER, octant_codes, to_cartesian
from .manifest import DatasetManifest
from .pipeline import EasvSet
from .prosody import ProsodySet

FEATURES = ("pitch", "energy", "duration")

REGION_SPLITS = (0.33, 0.66)

# Intensity regions by tag: the thirds [0, 0.33), [0.33, 0.66), [0.66, 1].
REGION_ORDER = ("R1", "R2", "R3")


def bin_intensity(r_iqr) -> np.ndarray:
    """Region of each normalized intensity, as its index in REGION_ORDER:
    half-open binning at the 0.33 and 0.66 thresholds."""
    r = np.asarray(r_iqr, dtype=np.float64)
    outside = ~((0.0 <= r) & (r <= 1.0))
    if outside.any():
        raise ValueError(f"r_iqr {float(r[outside][0])} outside [0, 1]")
    return np.searchsorted(REGION_SPLITS, r, side="right")


@dataclass
class AnalysisCell:
    """Record count and feature means of one group of records."""

    count: int
    pitch_mean: float | None
    energy_mean: float | None
    duration_mean: float | None


@dataclass
class AnalysisReport:
    """Populated cells keyed (emotion, octant tag, region tag), Rc and AVG keyed
    (emotion, octant tag, feature), and the whole neutral class as one cell."""

    cells: dict[tuple[str, str, str], AnalysisCell]
    rc: dict[tuple[str, str, str], float]
    avg: dict[tuple[str, str, str], float]
    neutral: AnalysisCell
    neutral_label: str
    emotion_order: tuple[str, ...]


def range_rc(values: Sequence[float | None],
             counts: Sequence[int]) -> float | None:
    """max - min over populated regions; None with fewer than 2 populated."""
    populated = [v for v, c in zip(values, counts) if c > 0 and v is not None]
    if len(populated) < 2:
        return None
    return max(populated) - min(populated)


def build_report(easvs: EasvSet,
                 prosody: ProsodySet,
                 manifest: DatasetManifest) -> AnalysisReport:
    """Assign every record to its (emotion, octant, region) cell and aggregate.

    The octant comes from each vector's own angles (the same class-adaptive
    shift that produced it), the region from its normalized intensity.
    Prosody is required for non-neutral records and optional for neutral
    ones. Means are arithmetic, each sum taken in record order; a cell's
    pitch mean covers only the records that have a voiced pitch estimate.
    """
    emotion_order = tuple(e for e in manifest.class_rows() if e != manifest.neutral_label)
    # cells are numbered (emotion, octant, region) in C order; neutral
    # records share the one bin after them
    per_emotion = len(OCTANT_ORDER) * len(REGION_ORDER)
    neutral_bin = len(emotion_order) * per_emotion
    first_bin = {e: i * per_emotion for i, e in enumerate(emotion_order)}
    first_bin[manifest.neutral_label] = neutral_bin
    # per record: its emotion in the manifest, and its prosody row; a record
    # without prosody reads the row of NaNs after the last
    listed = list(map(dict(zip(manifest.ids, manifest.emotions)).get, easvs.ids))
    no_row = len(prosody)
    rows = list(map(dict(zip(prosody.ids, range(no_row))).get, easvs.ids, repeat(no_row)))
    if listed != list(easvs.emotions) or no_row in rows:
        for rec_id, emotion, listed_as, row in zip(easvs.ids, easvs.emotions, listed, rows):
            if listed_as is None:
                raise ValueError(f"easv id '{rec_id}' not found in manifest")
            if listed_as != emotion:
                raise ValueError(
                    f"emotion mismatch for id '{rec_id}': manifest says "
                    f"'{listed_as}', easv says '{emotion}'")
            if row == no_row and emotion != manifest.neutral_label:
                raise ValueError(f"missing prosody for record '{rec_id}'")
    values = np.vstack([np.column_stack([prosody.pitch_mean_hz, prosody.energy_mean,
                                         prosody.duration_s]),
                        np.full(len(FEATURES), math.nan)])[rows]

    cell = np.array(list(map(first_bin.__getitem__, easvs.emotions)), dtype=np.intp)
    octants = octant_codes(to_cartesian(np.column_stack(
        [np.ones(len(easvs)), easvs.theta, easvs.phi])))
    emotional = cell != neutral_bin
    cell[emotional] += (octants * len(REGION_ORDER) + bin_intensity(easvs.r_iqr))[emotional]
    count = np.bincount(cell, minlength=neutral_bin + 1).tolist()
    sums, counts = [], []  # per feature, per bin
    for column in values.T:
        present = ~np.isnan(column)
        sums.append(np.bincount(cell[present], weights=column[present],
                                minlength=neutral_bin + 1).tolist())
        counts.append(np.bincount(cell[present], minlength=neutral_bin + 1).tolist())

    def mean(f: int, b: int) -> float | None:
        return sums[f][b] / counts[f][b] if counts[f][b] else None

    def cell_at(b: int) -> AnalysisCell:
        return AnalysisCell(count[b], *(mean(f, b) for f in range(len(FEATURES))))

    cells: dict[tuple[str, str, str], AnalysisCell] = {}
    rc: dict[tuple[str, str, str], float] = {}
    avg: dict[tuple[str, str, str], float] = {}
    for emotion in emotion_order:
        for o, octant in enumerate(OCTANT_ORDER):
            start = first_bin[emotion] + o * len(REGION_ORDER)
            group = range(start, start + len(REGION_ORDER))
            for region, b in zip(REGION_ORDER, group):
                if count[b]:
                    cells[(emotion, octant.tag, region)] = cell_at(b)
            for f, feature in enumerate(FEATURES):
                spread = range_rc([mean(f, b) for b in group], [counts[f][b] for b in group])
                if spread is not None:
                    rc[(emotion, octant.tag, feature)] = spread
                total_count = sum(counts[f][b] for b in group)
                if total_count > 0:
                    # region sums added left to right in region order; sum()
                    # compensates float sums from Python 3.12 on
                    total = 0.0
                    for b in group:
                        total += sums[f][b]
                    avg[(emotion, octant.tag, feature)] = total / total_count

    return AnalysisReport(cells=cells, rc=rc, avg=avg, neutral=cell_at(neutral_bin),
                          neutral_label=manifest.neutral_label,
                          emotion_order=emotion_order)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_mean(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def _fmt_count(value: int | None) -> str:
    return "-" if value is None else f"{value:,}"


def _md_label(label: str) -> str:
    """A label as a markdown table cell: `|` escaped, so it adds no column."""
    return label.replace("|", "\\|")


def _markdown(report: AnalysisReport) -> str:
    header = ["Emotion", "Style"]
    header += [f"N {r}" for r in REGION_ORDER] + ["N All"]
    for label in ("Pitch", "Energy", "Duration"):
        header += [f"{label} {r}" for r in REGION_ORDER]
        header += [f"{label} Rc", f"{label} AVG"]

    lines = [
        "# Prosodic variation by emotion style and intensity",
        "",
        "Intensity regions: R1 = [0, 0.33), R2 = [0.33, 0.66), R3 = [0.66, 1].",
        "Angles underlying the octants are in radians. Rc is the spread",
        "(max - min) of a feature's region means; AVG is the record-weighted",
        "mean. Neutral intensity is fixed at 0, so it carries no split.",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]

    if report.neutral.count > 0:
        neutral_row = [_md_label(report.neutral_label), "All", "-", "-", "-",
                       _fmt_count(report.neutral.count)]
        for feature in FEATURES:
            neutral_row += ["-", "-", "-", "-",
                            _fmt_mean(getattr(report.neutral, f"{feature}_mean"))]
        lines.append("| " + " | ".join(neutral_row) + " |")

    for emotion in report.emotion_order:
        for octant in OCTANT_ORDER:
            row_cells = [report.cells.get((emotion, octant.tag, r)) for r in REGION_ORDER]
            if all(c is None for c in row_cells):
                continue
            counts = [c.count if c else 0 for c in row_cells]
            row = [_md_label(emotion), octant.tag]
            row += [_fmt_count(c.count) if c else "-" for c in row_cells]
            row.append(_fmt_count(sum(counts)))
            for feature in FEATURES:
                row += [_fmt_mean(getattr(c, f"{feature}_mean")) if c else "-"
                        for c in row_cells]
                row.append(_fmt_mean(report.rc.get((emotion, octant.tag, feature))))
                row.append(_fmt_mean(report.avg.get((emotion, octant.tag, feature))))
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _csv(report: AnalysisReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a label holding , " or a line break

    def row(key: tuple[str, str, str], c: AnalysisCell) -> None:
        means = (c.pitch_mean, c.energy_mean, c.duration_mean)
        writer.writerow([*key, c.count, *("" if m is None else repr(m) for m in means)])

    writer.writerow(["emotion", "octant", "region", "count", "pitch_mean", "energy_mean",
                     "duration_mean"])
    if report.neutral.count > 0:
        row((report.neutral_label, "", ""), report.neutral)
    for emotion in report.emotion_order:
        for octant in OCTANT_ORDER:
            for region in REGION_ORDER:
                key = (emotion, octant.tag, region)
                if key in report.cells:
                    row(key, report.cells[key])
    return out.getvalue()


def render_report(report: AnalysisReport, format: str = "markdown") -> str:
    """Render deterministically: manifest emotion order, octants I..VIII, R1..R3."""
    if format == "markdown":
        return _markdown(report)
    if format == "csv":
        return _csv(report)
    raise ValueError(f"unknown report format {format!r}; expected markdown or csv")
