"""Scalar geometry of sensing and loitering.

``LATTICES`` holds the constants that tell square packing from hexagon
packing; the radii relations here, the layout march and the radius solver
read them from that one table. Also here: the circle-overlap areas of the
paper's Table 1, and ``pairs_within``, the one sweep for near pairs of many
boxes or points. All operations are pure functions over immutable value
types or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Slack (meters) for boundary-inclusive comparisons: a point at distance
# exactly equal to a radius counts as covered, and float rounding must not
# flip that. Matches the span tolerance used by the packing construction.
BOUNDARY_TOL = 1e-9


class PackingKind(Enum):
    SQUARE = "square"
    HEXAGON = "hexagon"


@dataclass(frozen=True)
class Lattice:
    """The centre lattice of one packing kind, in loiter radii r: centres sit
    ``pitch`` r apart along a row and rows ``row_pitch`` r apart, the cell
    polygon has sides of ``side`` r, each circle has ``neighbours`` nearest
    neighbours ``pitch`` r away, and a row's circle count changes ``steps``
    times per ``pitch`` of width (hexagon rows alternate two offsets)."""

    pitch: float
    row_pitch: float
    side: float
    neighbours: int
    steps: int


SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
LATTICES = {
    PackingKind.SQUARE: Lattice(SQRT2, SQRT2, SQRT2, 4, 1),
    PackingKind.HEXAGON: Lattice(SQRT3, 1.5, 1.0, 6, 2),
}


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def dist(self, other: Vec2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class AreaSpec:
    """Rectangular coverage area, anchored at the origin."""

    x_extent: float
    y_extent: float

    def __post_init__(self) -> None:
        if not (self.x_extent > 0 and self.y_extent > 0):
            raise ValueError(
                f"area extents must be positive, got {self.x_extent} x {self.y_extent}"
            )


@dataclass(frozen=True)
class SensorModel:
    """Downward-looking sensor: half-angle of the field of view and altitude."""

    fov_half_angle: float
    altitude: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fov_half_angle < math.pi / 2:
            raise ValueError(f"fov_half_angle must be in (0, pi/2), got {self.fov_half_angle}")
        if not self.altitude > 0:
            raise ValueError(f"altitude must be positive, got {self.altitude}")


@dataclass(frozen=True)
class PlatformModel:
    """Fixed-wing platform: cruise speed, bank-angle limit, gravity."""

    speed: float
    max_bank: float
    gravity: float = 9.81

    def __post_init__(self) -> None:
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if not 0.0 < self.max_bank < math.pi / 2:
            raise ValueError(f"max_bank must be in (0, pi/2), got {self.max_bank}")
        if not self.gravity > 0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        for name, value in (("speed", self.speed), ("gravity", self.gravity)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class LoiterCircle:
    """A loiter circle; every UAV flies its circle counter-clockwise."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"loiter radius must be positive, got {self.radius}")

    def point_at(self, phase: float) -> Vec2:
        return Vec2(
            self.center.x + self.radius * math.cos(phase),
            self.center.y + self.radius * math.sin(phase),
        )


@dataclass(frozen=True)
class PackingParams:
    """The paper's Table 1 row of one packing kind at one radius: the cell
    side, the centre pitches, the angle between neighbours, and the half
    overlap and effective areas of a circle twice over, from the exact lens
    and from the paper's closed forms (``paper_`` fields)."""

    side_length: float
    x_pitch: float
    y_pitch: float
    overlap_angle: float
    half_overlap_area: float
    effective_area: float
    paper_half_overlap_area: float
    paper_effective_area: float


def coverage_radius(sensor: SensorModel) -> float:
    """Radius of the ground footprint: altitude times tan of the FOV half-angle."""
    return sensor.altitude * math.tan(sensor.fov_half_angle)


def min_turn_radius(platform: PlatformModel) -> float:
    """Smallest feasible turn radius for the platform, the paper's
    v^2 * psi_max / g."""
    return platform.speed**2 * platform.max_bank / platform.gravity


def max_loiter_radius(r_c: float, kind: PackingKind) -> float:
    """Largest loiter radius that still sweeps full coverage of a packed cell."""
    if not r_c > 0:
        raise ValueError(f"coverage radius must be positive, got {r_c}")
    return r_c / (LATTICES[kind].pitch - 1.0)


def min_comm_radius(r_l_max: float, kind: PackingKind) -> float:
    """Smallest communication radius that keeps packed neighbors connected."""
    if not r_l_max > 0:
        raise ValueError(f"r_l_max must be positive, got {r_l_max}")
    return LATTICES[kind].pitch * r_l_max


def lens_area(d: float, r: float) -> float:
    """Exact intersection area of two radius-r circles with centers d apart."""
    if d < 0:
        raise ValueError(f"center distance must be non-negative, got {d}")
    if not r > 0:
        raise ValueError(f"circle radius must be positive, got {r}")
    if d >= 2.0 * r:
        return 0.0
    if d == 0.0:
        return math.pi * r * r
    return 2.0 * r * r * math.acos(d / (2.0 * r)) - 0.5 * d * math.sqrt(4.0 * r * r - d * d)


def packing_params(r_l: float, kind: PackingKind) -> PackingParams:
    """The Table 1 row of ``kind`` at loiter radius ``r_l``. With k
    neighbours, the exact areas come from the lens of two circles one pitch
    apart: half of it, and the circle less k lenses. The paper's closed
    forms are (pi - k/2) r^2 / k and (k - pi) r^2; for square packing they
    equal the exact areas, for hexagon packing they do not. No computation
    reads this row: the layout march and the solver read ``LATTICES``.
    """
    if not r_l > 0:
        raise ValueError(f"loiter radius must be positive, got {r_l}")
    lat = LATTICES[kind]
    k = lat.neighbours
    r2 = r_l * r_l
    lens = lens_area(lat.pitch * r_l, r_l)
    return PackingParams(
        side_length=lat.side * r_l,
        x_pitch=lat.pitch * r_l,
        y_pitch=lat.row_pitch * r_l,
        overlap_angle=2.0 * math.pi / k,
        half_overlap_area=0.5 * lens,
        effective_area=math.pi * r2 - k * lens,
        paper_half_overlap_area=(math.pi - k / 2) * r2 / k,
        paper_effective_area=(k - math.pi) * r2,
    )


def _spans(entries, budget):
    """Consecutive spans [i0, i1) of items, given the entries of the items up
    to each: at most ``budget`` entries per span, and at least one item."""
    i0 = 0
    while i0 < entries.size:
        done = int(entries[i0 - 1]) if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(entries, done + budget, "right")))
        yield i0, i1
        i0 = i1


# Candidate pairs that pairs_within tests at a time, so that its arrays do
# not grow with the boxes: 5,120 points of an 8000x8000 m hexagon layout at
# a 160 m gap make about 590,000 candidates.
_PAIR_CANDIDATES = 1 << 13


def pairs_within(x0, y0, x1, y1, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (first, second) of the boxes [x0, x1] x [y0, y1], each
    unordered pair once, whose gap is at most ``gap``: the ``np.hypot`` of
    their x and y gaps, each 0 where the extents overlap. A point is a box
    with x0 == x1 and y0 == y1, and its gap is its distance. Boxes are sorted
    by x0, and each is tested only against the later ones that start within
    ``gap`` of its x1, so no N x N matrix is built, in spans of boxes of at
    most ``_PAIR_CANDIDATES`` such candidates (and at least one box). The
    window end x1 + ``gap`` is rounded: a caller that must keep a pair at
    exactly its gap widens ``gap``."""
    order = np.argsort(x0, kind="stable")
    ends = np.searchsorted(x0[order], x1[order] + gap, "right")
    counts = np.maximum(ends - np.arange(1, x0.size + 1), 0)
    firsts, seconds = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for i0, i1 in _spans(np.cumsum(counts), _PAIR_CANDIDATES):
        span = counts[i0:i1]
        first = np.repeat(np.arange(i0, i1), span)
        # Each box's partners run first + 1, first + 2, ... up to its window end.
        second = np.arange(first.size) - np.repeat(np.cumsum(span) - span - 1, span) + first
        first, second = order[first], order[second]
        # A later box in x0 order never ends left of an earlier one's start,
        # and for points the gaps are the coordinate differences up to sign.
        gap_x = np.maximum(x0[second] - x1[first], 0.0)
        gap_y = np.maximum(np.maximum(y0[second] - y1[first], y0[first] - y1[second]), 0.0)
        near = np.hypot(gap_x, gap_y) <= gap
        firsts.append(first[near])
        seconds.append(second[near])
    return np.concatenate(firsts), np.concatenate(seconds)
