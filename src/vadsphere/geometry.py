"""VAD cube geometry: centers, shifting, spherical transforms, style octants.

Every operation here is a pure function on small immutable values. Points
live in the unit cube (valence, arousal, dominance), each axis in [0, 1];
shifted coordinates are relative to a center point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

# Radii below this are treated as coincident with the center and map to the
# canonical zero vector.
DEGENERATE_RADIUS = 1e-12

MODE_NEUTRAL_MEAN = "neutral-mean"
MODE_EMOTION_ADAPTIVE = "emotion-adaptive"


@dataclass(frozen=True)
class VadPoint:
    """A (valence, arousal, dominance) triple in [0, 1]^3."""

    v: float
    a: float
    d: float

    def __post_init__(self) -> None:
        for name, value in (("valence", self.v), ("arousal", self.a), ("dominance", self.d)):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} component {value} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.v, self.a, self.d)


@dataclass(frozen=True)
class ShiftedVad:
    """A VAD point expressed relative to a center.

    Differences of two cube points land in [-1, 1] per component. The range
    is not enforced at construction because the inverse spherical transform
    (used for round-trip checks with radii up to 2) legitimately produces
    larger components.
    """

    v: float
    a: float
    d: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.v, self.a, self.d)

    def norm(self) -> float:
        return math.sqrt(self.v * self.v + self.a * self.a + self.d * self.d)


@dataclass(frozen=True)
class SphericalVector:
    """Spherical form (r, theta, phi) of a shifted VAD point.

    theta is the polar angle from the +dominance axis in [0, pi]; phi is the
    azimuth of (arousal, valence) measured from the +arousal axis, in
    (-pi, pi]. The zero vector is canonically (0, 0, 0).
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if self.r < 0.0:
            raise ValueError(f"radius {self.r} must be >= 0")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not (-math.pi < self.phi <= math.pi):
            raise ValueError(f"phi {self.phi} outside (-pi, pi]")
        if self.r == 0.0 and (self.theta != 0.0 or self.phi != 0.0):
            raise ValueError("zero radius requires canonical theta = phi = 0")


class StyleOctant(Enum):
    """The eight sign regions of the shifted VAD space.

    Values are the (valence, arousal, dominance) sign patterns; the tag
    ordering I..VIII is fixed and used everywhere reports are rendered.
    """

    I = (1, 1, 1)
    II = (-1, 1, 1)
    III = (-1, -1, 1)
    IV = (1, -1, 1)
    V = (1, 1, -1)
    VI = (-1, 1, -1)
    VII = (-1, -1, -1)
    VIII = (1, -1, -1)

    @property
    def signs(self) -> tuple[int, int, int]:
        return self.value

    @property
    def tag(self) -> str:
        return self.name

    @classmethod
    def from_signs(cls, signs: tuple[int, int, int]) -> "StyleOctant":
        return _SIGNS_TO_OCTANT[signs]

    @classmethod
    def from_tag(cls, tag: str) -> "StyleOctant":
        try:
            return cls[tag.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown style octant {tag!r}; expected I..VIII") from None


_SIGNS_TO_OCTANT = {octant.value: octant for octant in StyleOctant}

OCTANT_ORDER = tuple(StyleOctant)


@dataclass(frozen=True)
class Centroid:
    """A representative center point in the VAD cube.

    mode is "neutral-mean" for the plain average of neutral points or
    "emotion-adaptive" for an optimized per-emotion center. Adaptive
    centroids stored in a model always carry their emotion label; the label
    is attached by the fitting layer.
    """

    point: tuple[float, float, float]
    mode: str
    emotion: str | None = None
    objective: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (MODE_NEUTRAL_MEAN, MODE_EMOTION_ADAPTIVE):
            raise ValueError(f"unknown centroid mode {self.mode!r}")
        if len(self.point) != 3:
            raise ValueError("centroid point must have 3 components")
        for value in self.point:
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"centroid component {value} outside [0, 1]")


def neutral_center(neutral_points: Sequence[VadPoint]) -> Centroid:
    """Component-wise mean of the neutral-class points."""
    if len(neutral_points) == 0:
        raise ValueError("neutral_center requires a non-empty point sequence")
    n = len(neutral_points)
    v = sum(p.v for p in neutral_points) / n
    a = sum(p.a for p in neutral_points) / n
    d = sum(p.d for p in neutral_points) / n
    return Centroid(point=(v, a, d), mode=MODE_NEUTRAL_MEAN)


def shift(p: VadPoint, c: Centroid) -> ShiftedVad:
    """Express p relative to the center c."""
    cv, ca, cd = c.point
    return ShiftedVad(p.v - cv, p.a - ca, p.d - cd)


def to_spherical(s: ShiftedVad) -> SphericalVector:
    """Cartesian-to-spherical transform of a shifted point.

    r is the Euclidean norm, theta = arccos(d/r), and phi is the
    two-argument arctangent of (v, a) so every octant keeps a distinct
    angle pair. Radii below DEGENERATE_RADIUS collapse to (0, 0, 0).
    """
    r = s.norm()
    if r < DEGENERATE_RADIUS:
        return SphericalVector(0.0, 0.0, 0.0)
    theta = math.acos(max(-1.0, min(1.0, s.d / r)))
    phi = math.atan2(s.v, s.a)
    if phi <= -math.pi:
        phi = math.pi
    return SphericalVector(r, theta, phi)


def to_cartesian(sv: SphericalVector) -> ShiftedVad:
    """Inverse of to_spherical."""
    sin_theta = math.sin(sv.theta)
    return ShiftedVad(
        sv.r * sin_theta * math.sin(sv.phi),
        sv.r * sin_theta * math.cos(sv.phi),
        sv.r * math.cos(sv.theta),
    )


def octant_of(s: ShiftedVad) -> StyleOctant:
    """Classify a shifted point by component signs; exact zeros count as +."""
    signs = tuple(1 if value >= 0.0 else -1 for value in s.as_tuple())
    return StyleOctant.from_signs(signs)


def octant_from_angles(theta: float, phi: float) -> StyleOctant:
    """Style octant of the unit direction with the given angles."""
    return octant_of(to_cartesian(SphericalVector(1.0, theta, phi)))
