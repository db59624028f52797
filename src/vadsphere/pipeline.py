"""End-to-end extraction of emotion-adaptive spherical vectors.

Fitting walks the manifest per emotion class: solve the class centroid,
shift every class point to it, take spherical coordinates, and derive
robust intensity bounds from the interquartile range of the radii. Neutral
utterances bypass all of it and are fixed at (0, 0, 0). Extraction then
maps any record to (r_iqr, theta, phi) with r_iqr clamped into [0, 1].

Control vectors for synthesis-time steering are built from an octant's cube
diagonal and a requested intensity, so "the same style, stronger" is just a
longer vector at the same angles.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .centroid import SolverConfig, solve_centroid
from .geometry import Centroid, RowError, StyleOctant, first_fault, shift, to_spherical
from .manifest import (
    DatasetManifest,
    JsonLines,
    json_object,
    number_field,
    number_list,
    object_value,
)

logger = logging.getLogger(__name__)

INTENSITY_LABELS = {"weak": 0.1, "medium": 0.5, "strong": 0.9}

# Quartiles need spread; fewer points make the bounds ill-conditioned.
MIN_CLASS_RECORDS = 4

MODEL_FORMAT = "easv-model"

# The package version (vadsphere.__version__ and pyproject.toml read it), written
# into model files
TOOL_VERSION = "0.1.0"


def intensity_label_to_value(label: str) -> float:
    """weak -> 0.1, medium -> 0.5, strong -> 0.9."""
    try:
        return INTENSITY_LABELS[label.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown intensity label {label!r}; expected one of {sorted(INTENSITY_LABELS)}"
        ) from None


@dataclass(frozen=True)
class IqrBounds:
    """Tukey-style radius bounds: [q1 - 1.5*IQR, q3 + 1.5*IQR]."""

    q1: float
    q3: float
    r_min: float
    r_max: float

    def __post_init__(self) -> None:
        for name in ("q1", "q3", "r_min", "r_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if self.q1 > self.q3:
            raise ValueError("q1 must not exceed q3")
        if self.r_min > self.q1 or self.r_max < self.q3:
            raise ValueError("bounds must bracket the quartiles")

    @property
    def degenerate(self) -> bool:
        return self.r_min == self.r_max


@dataclass(frozen=True, eq=False)
class EasvSet:
    """Emotion-adaptive spherical vectors of many records, one column per field.

    Row i is record ids[i] of class emotions[i]: its normalized intensity
    r_iqr[i] in [0, 1] and its style angles theta[i] in [0, pi] and phi[i]
    in (-pi, pi]. The number columns are float arrays; a value out of range
    is a RowError naming its row.
    """

    ids: Sequence[str]
    emotions: Sequence[str]
    r_iqr: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("r_iqr", "theta", "phi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (len(self.ids) == len(self.emotions) == len(self.r_iqr)
                == len(self.theta) == len(self.phi)):
            raise ValueError("EASV columns must have one entry per record")
        in_range = np.column_stack([(0.0 <= self.r_iqr) & (self.r_iqr <= 1.0),
                                    (0.0 <= self.theta) & (self.theta <= math.pi),
                                    (-math.pi < self.phi) & (self.phi <= math.pi)])
        if not in_range.all():
            row, column = first_fault(~in_range)
            name, bounds = (("r_iqr", "[0, 1]"), ("theta", "[0, pi]"),
                            ("phi", "(-pi, pi]"))[column]
            value = float(getattr(self, name)[row])
            raise RowError(f"{name} {value} outside {bounds}", row)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_rows(cls, rows: Mapping[str, tuple[str, float, float, float]]) -> "EasvSet":
        """The set of {id: (emotion, r_iqr, theta, phi)}, in the mapping's order."""
        emotions, r_iqr, theta, phi = zip(*rows.values()) if rows else ((),) * 4
        return cls(tuple(rows), emotions, r_iqr, theta, phi)


@dataclass(frozen=True)
class EasvModel:
    """Fitted per-emotion centroids and radius bounds; neutral stays implicit."""

    centroids: Mapping[str, Centroid]
    bounds: Mapping[str, IqrBounds]
    neutral_label: str

    def __post_init__(self) -> None:
        if set(self.centroids) != set(self.bounds):
            raise ValueError("centroids and bounds must cover the same emotions")
        if self.neutral_label in self.centroids:
            raise ValueError("neutral class must not appear in the fitted maps")

    def emotions(self) -> list[str]:
        return sorted(self.centroids)


def iqr_bounds(radii: Sequence[float]) -> IqrBounds:
    """Quartiles by linear interpolation between closest ranks, Tukey fences."""
    if len(radii) == 0:
        raise ValueError("iqr_bounds requires a non-empty sequence")
    arr = np.asarray(radii, dtype=np.float64)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    iqr = q3 - q1
    return IqrBounds(q1=float(q1), q3=float(q3),
                     r_min=float(q1 - 1.5 * iqr), r_max=float(q3 + 1.5 * iqr))


def normalize_radius(r, b: IqrBounds):
    """Clamp r (a number or an array) into [r_min, r_max], rescale affinely to [0, 1]."""
    if b.degenerate:
        raise ValueError("degenerate IQR bounds (r_min = r_max); cannot normalize")
    return (np.clip(r, b.r_min, b.r_max) - b.r_min) / (b.r_max - b.r_min)


def fit_easv_model(manifest: DatasetManifest) -> EasvModel:
    """Fit centroids and per-class radius bounds for every non-neutral class.

    Requires at least one neutral record, at least one non-neutral class and
    at least MIN_CLASS_RECORDS records per non-neutral class. Radii of
    constant spread (all class points equidistant from the centroid) are
    rejected because they leave nothing to normalize.
    """
    vad, rows = manifest.vad, manifest.class_rows()
    neutrals = vad[rows.pop(manifest.neutral_label, [])]
    if len(neutrals) == 0:
        raise ValueError("no neutral records")

    centroids: dict[str, Centroid] = {}
    bounds: dict[str, IqrBounds] = {}
    for emotion, class_rows in rows.items():
        if len(class_rows) < MIN_CLASS_RECORDS:
            raise ValueError(
                f"class '{emotion}' has {len(class_rows)} records; "
                f"need at least {MIN_CLASS_RECORDS}")
        targets = vad[class_rows]
        centroid = solve_centroid(targets, neutrals)
        class_bounds = iqr_bounds(to_spherical(shift(targets, centroid))[:, 0])
        if class_bounds.degenerate:
            raise ValueError(f"degenerate radius bounds for class '{emotion}'")
        centroids[emotion] = centroid
        bounds[emotion] = class_bounds
        logger.info("fit class '%s': centroid %s objective %.4f",
                    emotion, centroid.point, centroid.objective)
    if not centroids:
        raise ValueError("no non-neutral class")
    return EasvModel(centroids=centroids, bounds=bounds,
                     neutral_label=manifest.neutral_label)


def extract_easv_set(manifest: DatasetManifest, model: EasvModel) -> EasvSet:
    """Map every record to its spherical vector under the fitted model, in
    manifest (id-sorted) order.

    Neutral records are exactly (0, 0, 0). Every other record is shifted by
    its class centroid; theta and phi pass through unchanged and only the
    radius is normalized.
    """
    vad = manifest.vad
    easv = np.zeros_like(vad)
    for emotion, class_rows in manifest.class_rows().items():
        if emotion == model.neutral_label:
            continue
        centroid = model.centroids.get(emotion)
        if centroid is None:
            raise ValueError(f"unknown emotion class '{emotion}'")
        spherical = to_spherical(shift(vad[class_rows], centroid))
        spherical[:, 0] = normalize_radius(spherical[:, 0], model.bounds[emotion])
        easv[class_rows] = spherical
    return EasvSet(ids=manifest.ids, emotions=manifest.emotions,
                   r_iqr=easv[:, 0], theta=easv[:, 1], phi=easv[:, 2])


def make_control_vector(emotion: str, octant: StyleOctant, intensity: float) -> EasvSet:
    """One spherical vector pointing down the octant's cube diagonal.

    The diagonal is the symmetric representative direction of a style
    octant; the intensity, in [0, 1], becomes the normalized radius directly.
    A control vector belongs to no record, so its id is empty.
    """
    direction = np.array([octant.signs]) * (1.0 / np.sqrt(3.0))
    _, theta, phi = to_spherical(direction).T
    return EasvSet(ids=("",), emotions=(emotion,), r_iqr=[intensity], theta=theta, phi=phi)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_json(model: EasvModel) -> str:
    """Serialize a model (with provenance) to a deterministic JSON document."""
    doc = {
        "format": MODEL_FORMAT,
        "tool_version": TOOL_VERSION,
        "neutral_label": model.neutral_label,
        "solver": {"denominator_epsilon": SolverConfig.denominator_epsilon},
        "centroids": {
            emotion: {"point": list(c.point), "objective": c.objective}
            for emotion, c in model.centroids.items()
        },
        "bounds": {
            emotion: {"q1": b.q1, "q3": b.q3, "r_min": b.r_min, "r_max": b.r_max}
            for emotion, b in model.bounds.items()
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> EasvModel:
    """Parse a model document; a malformed one is a ValueError naming the key."""
    doc = json_object(text, "EASV model")
    fmt = doc.get("format")
    if fmt != MODEL_FORMAT:
        raise ValueError(f"not an EASV model document (format={fmt!r})")
    where = ""  # the entry being read, as a message prefix
    try:
        neutral_label = doc["neutral_label"]
        if not isinstance(neutral_label, str):
            raise ValueError(f"neutral_label {neutral_label!r} is not a string")
        centroid_entries = object_value(doc["centroids"], "centroids")
        bound_entries = object_value(doc["bounds"], "bounds")
        centroids = {}
        for emotion, entry in centroid_entries.items():
            where = f"centroids[{emotion!r}]: "
            objective = object_value(entry, "entry").get("objective")
            centroids[emotion] = Centroid(
                point=tuple(number_list(entry["point"], "point")),
                objective=None if objective is None else number_field(entry, "objective"))
        bounds = {}
        for emotion, entry in bound_entries.items():
            where = f"bounds[{emotion!r}]: "
            object_value(entry, "entry")
            bounds[emotion] = IqrBounds(*(number_field(entry, key)
                                          for key in ("q1", "q3", "r_min", "r_max")))
        where = ""
        return EasvModel(centroids=centroids, bounds=bounds, neutral_label=neutral_label)
    except KeyError as exc:
        raise ValueError(f"{where}missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


# the EASV file: one record per line, angles in radians
_EASV_LINES = JsonLines("EASV record", ("id", str), ("emotion", str), ("r_iqr", float),
                        ("theta", float), ("phi", float))


def easv_set_to_jsonl(easvs: EasvSet) -> str:
    """One (id, emotion, r_iqr, theta, phi) object per line; angles in radians."""
    return _EASV_LINES.write(easvs.ids, easvs.emotions, easvs.r_iqr, easvs.theta, easvs.phi)


def easv_set_from_jsonl(text: str) -> EasvSet:
    """Parse easv_set_to_jsonl output; every fault names its line."""
    return _EASV_LINES.read(text, EasvSet)
