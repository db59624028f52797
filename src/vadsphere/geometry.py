"""VAD cube geometry: centers, shifting, spherical transforms, style octants.

Points live in the unit cube (valence, arousal, dominance), each axis in
[0, 1]; shifted coordinates are relative to a center point. The transforms
take (n, 3) arrays, one point per row, so a single point is n = 1, and
return new arrays; nothing here keeps state.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

# Radii below this are treated as coincident with the center and map to the
# canonical zero vector.
DEGENERATE_RADIUS = 1e-12

AXES = ("valence", "arousal", "dominance")

# libm's acos and atan2, elementwise: numpy's SIMD versions differ from them
# in the last bit for some inputs, and extraction output keeps libm's bits.
_acos = np.frompyfunc(math.acos, 1, 1)
_atan2 = np.frompyfunc(math.atan2, 2, 1)


class RowError(ValueError):
    """A fault in row `row` of the array passed as argument `arg` (0 = the first)
    of a function over arrays; the caller that read the rows names the line."""

    def __init__(self, message: str, row: int, arg: int = 0) -> None:
        super().__init__(message)
        self.row, self.arg = row, arg


def first_fault(faults: np.ndarray) -> tuple[int, int]:
    """(row, column) of the first True in an (n, k) mask, row by row."""
    return divmod(int(np.argmax(faults)), faults.shape[1])


def check_in_cube(points) -> None:
    """Raise a RowError naming the first VAD component of the (n, 3) points
    outside [0, 1], row by row."""
    points = np.asarray(points, dtype=np.float64)
    outside = ~((0.0 <= points) & (points <= 1.0))
    if outside.any():
        row, axis = first_fault(outside)
        raise RowError(f"{AXES[axis]} component {float(points[row, axis])} outside [0, 1]", row)


class VadPoint(namedtuple("VadPoint", "v a d")):
    """A (valence, arousal, dominance) triple in [0, 1]^3.

    A tuple, so ``np.asarray(points)`` of a sequence of them is the (n, 3)
    array the geometry functions take.
    """

    __slots__ = ()

    def __new__(cls, v: float, a: float, d: float) -> "VadPoint":
        check_in_cube([(v, a, d)])
        return super().__new__(cls, v, a, d)

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


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
    def from_tag(cls, tag: str) -> "StyleOctant":
        try:
            return cls[tag.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown style octant {tag!r}; expected I..VIII") from None


OCTANT_ORDER = tuple(StyleOctant)


@dataclass(frozen=True)
class Centroid:
    """A representative center point in the VAD cube.

    Where a centroid is kept says which kind it is: a model's per-emotion
    centers are optimized (objective is the distance ratio they reach), and
    SVAS takes the plain neutral mean.
    """

    point: tuple[float, float, float]
    objective: float | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if len(self.point) != 3:
            raise ValueError("centroid point must have 3 components")
        for value in self.point:
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"centroid component {value} outside [0, 1]")


def as_points(points) -> np.ndarray:
    """points (a sequence of triples, an (n, 3) array or one triple) as an
    (n, 3) float array."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.shape == (3,) or arr.size == 0:
        arr = arr.reshape(-1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got shape {arr.shape}")
    return arr


def neutral_center(neutral_points: Sequence[VadPoint] | np.ndarray) -> Centroid:
    """Component-wise mean of the neutral-class points, summed in order."""
    points = as_points(neutral_points)
    if len(points) == 0:
        raise ValueError("neutral_center requires a non-empty point sequence")
    mean = points.cumsum(axis=0)[-1] / len(points)
    return Centroid(point=tuple(mean.tolist()))


def shift(points: Sequence[VadPoint] | np.ndarray, c: Centroid) -> np.ndarray:
    """Points relative to the center c: an (n, 3) array of differences."""
    return as_points(points) - np.asarray(c.point)


def to_spherical(shifted: np.ndarray) -> np.ndarray:
    """Cartesian-to-spherical transform of (n, 3) shifted points: (n, 3) (r, theta, phi).

    r is the Euclidean norm, theta = arccos(d/r) is the polar angle from the
    +dominance axis in [0, pi], and phi = atan2(v, a) is the azimuth from the
    +arousal axis in (-pi, pi], so every octant keeps a distinct angle pair.
    Radii below DEGENERATE_RADIUS collapse to (0, 0, 0).
    """
    v, a, d = as_points(shifted).T
    r = np.sqrt(v * v + a * a + d * d)
    live = r >= DEGENERATE_RADIUS
    theta = _acos(np.clip(d / np.where(live, r, 1.0), -1.0, 1.0)).astype(np.float64)
    phi = _atan2(v, a).astype(np.float64)
    phi[phi <= -math.pi] = math.pi
    return np.where(live[:, None], np.column_stack([r, theta, phi]), 0.0)


def to_cartesian(spherical: np.ndarray) -> np.ndarray:
    """Inverse of to_spherical: (n, 3) (r, theta, phi) to (n, 3) shifted points."""
    r, theta, phi = as_points(spherical).T
    rho = r * np.sin(theta)
    return np.column_stack([rho * np.sin(phi), rho * np.cos(phi), r * np.cos(theta)])


# Index in OCTANT_ORDER of each sign pattern, looked up by the bits
# (v < 0) + 2 (a < 0) + 4 (d < 0).
_OCTANT_CODE = np.array([
    OCTANT_ORDER.index(StyleOctant(tuple(-1 if bits >> i & 1 else 1 for i in range(3))))
    for bits in range(8)])


def octant_codes(shifted: np.ndarray) -> np.ndarray:
    """Style octant of each (n, 3) shifted point, as its index in OCTANT_ORDER;
    exact zeros count as +."""
    negative = as_points(shifted) < 0.0
    return _OCTANT_CODE[negative @ np.array([1, 2, 4])]
