"""Scalar geometry of sensing and loitering.

Radii relations and circle-overlap areas used by every other module, and
``pairs_within``, the one sweep for near pairs of many boxes or points. All
operations are pure functions over immutable value types or arrays.
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

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class PackingKind(Enum):
    SQUARE = "square"
    HEXAGON = "hexagon"


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
    """Per-circle layout parameters for one packing kind at one radius.

    ``table_mode`` records which overlap/effective-area variant the instance
    carries ("exact" or "paper"); the two are never mixed silently.
    """

    side_length: float
    x_pitch: float
    y_pitch: float
    overlap_angle: float
    half_overlap_area: float
    effective_area: float
    table_mode: str


def coverage_radius(sensor: SensorModel) -> float:
    """Radius of the ground footprint: altitude times tan of the FOV half-angle."""
    return sensor.altitude * math.tan(sensor.fov_half_angle)


def min_turn_radius(platform: PlatformModel, formula: str = "paper") -> float:
    """Smallest feasible turn radius for the platform.

    ``formula="paper"`` evaluates v^2 * psi_max / g; ``"standard"`` uses the
    aeronautics form v^2 / (g * tan(psi_max)).
    """
    if formula == "paper":
        return platform.speed**2 * platform.max_bank / platform.gravity
    if formula == "standard":
        return platform.speed**2 / (platform.gravity * math.tan(platform.max_bank))
    raise ValueError(f"unknown min-turn formula {formula!r}")


def max_loiter_radius(r_c: float, kind: PackingKind) -> float:
    """Largest loiter radius that still sweeps full coverage of a packed cell."""
    if not r_c > 0:
        raise ValueError(f"coverage radius must be positive, got {r_c}")
    if kind is PackingKind.HEXAGON:
        return r_c / (SQRT3 - 1.0)
    return r_c / (SQRT2 - 1.0)


def min_comm_radius(r_l_max: float, kind: PackingKind) -> float:
    """Smallest communication radius that keeps packed neighbors connected."""
    if not r_l_max > 0:
        raise ValueError(f"r_l_max must be positive, got {r_l_max}")
    return (SQRT3 if kind is PackingKind.HEXAGON else SQRT2) * r_l_max


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


def packing_params(r_l: float, kind: PackingKind, table_mode: str = "exact") -> PackingParams:
    """Layout parameters (pitches, overlap, effective area) for one circle.

    For hexagon packing the tabulated closed forms for the overlap and the
    effective area ("paper" mode) disagree with the exact lens geometry;
    ``table_mode`` selects which variant to report. Square packing is
    identical in both modes. "exact" is authoritative for downstream
    computation.
    """
    if not r_l > 0:
        raise ValueError(f"loiter radius must be positive, got {r_l}")
    if table_mode not in ("exact", "paper"):
        raise ValueError(f"table_mode must be 'exact' or 'paper', got {table_mode!r}")
    r2 = r_l * r_l
    if kind is PackingKind.SQUARE:
        lens = lens_area(SQRT2 * r_l, r_l)  # == (pi - 2) r^2 / 2
        if table_mode == "exact":
            a_s = 0.5 * lens
            eff = math.pi * r2 - 4.0 * lens
        else:
            a_s = (math.pi - 2.0) * r2 / 4.0
            eff = (4.0 - math.pi) * r2
        return PackingParams(
            side_length=SQRT2 * r_l,
            x_pitch=SQRT2 * r_l,
            y_pitch=SQRT2 * r_l,
            overlap_angle=math.pi / 2,
            half_overlap_area=a_s,
            effective_area=eff,
            table_mode=table_mode,
        )
    lens = lens_area(SQRT3 * r_l, r_l)
    if table_mode == "exact":
        a_s = 0.5 * lens
        eff = math.pi * r2 - 6.0 * lens
    else:
        a_s = (math.pi - 3.0) * r2 / 6.0
        eff = (6.0 - math.pi) * r2
    return PackingParams(
        side_length=r_l,
        x_pitch=SQRT3 * r_l,
        y_pitch=1.5 * r_l,
        overlap_angle=math.pi / 3,
        half_overlap_area=a_s,
        effective_area=eff,
        table_mode=table_mode,
    )


def pairs_within(x0, y0, x1, y1, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (first, second) of the boxes [x0, x1] x [y0, y1], each
    unordered pair once, whose gap is at most ``gap``: the ``np.hypot`` of
    their x and y gaps, each 0 where the extents overlap. A point is a box
    with x0 == x1 and y0 == y1, and its gap is its distance. Boxes are sorted
    by x0, and each is tested only against the later ones that start within
    ``gap`` of its x1, so no N x N matrix is built. The window end
    x1 + ``gap`` is rounded: a caller that must keep a pair at exactly its
    gap widens ``gap``."""
    order = np.argsort(x0, kind="stable")
    ends = np.searchsorted(x0[order], x1[order] + gap, "right")
    counts = np.maximum(ends - np.arange(1, x0.size + 1), 0)
    first = np.repeat(np.arange(x0.size), counts)
    # Each box's partners run first + 1, first + 2, ... up to its window end.
    second = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - 1, counts) + first
    first, second = order[first], order[second]
    # A later box in x0 order never ends left of an earlier one's start, and
    # for points the gaps are the coordinate differences up to sign.
    gap_x = np.maximum(x0[second] - x1[first], 0.0)
    gap_y = np.maximum(np.maximum(y0[second] - y1[first], y0[first] - y1[second]), 0.0)
    near = np.hypot(gap_x, gap_y) <= gap
    return first[near], second[near]
