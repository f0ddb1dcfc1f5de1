"""Loiter-circle center layouts over a rectangular area.

Square packing tiles the area with squares of side sqrt(2)*r inscribed in the
loiter circles; hexagon packing tiles it with pointy-top hexagons of side r.
One axis march places every layout: rows, and the circles of each row
template, are appended until the polygon footprints span the extent, which
adds one fractionally-outside circle per direction when the last full
footprint falls short. ``pack``, ``uav_count`` and the optimizer's row and
column counts all read that march. ``grid_points`` gives the axes of the
uniform sample grid that coverage is measured on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SQRT2, SQRT3, AreaSpec, PackingKind, Vec2

# A new circle is appended while the footprint span falls short of the extent
# by more than this (meters); exact-fit layouts do not gain a spurious circle.
SPAN_TOL = 1e-9

# Most samples a coverage grid may hold (64 Mi points).
MAX_GRID_POINTS = 1 << 26

# Most circles a layout may hold (1 Mi circles).
MAX_LAYOUT_CIRCLES = 1 << 20


@dataclass(frozen=True)
class PackingLayout:
    """Ordered loiter-circle centers, grouped by row."""

    kind: PackingKind
    loiter_radius: float
    rows: tuple[tuple[Vec2, ...], ...]
    area: AreaSpec

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def per_row_counts(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def centers(self) -> tuple[Vec2, ...]:
        return tuple(c for row in self.rows for c in row)

    @property
    def count(self) -> int:
        return sum(len(row) for row in self.rows)


def _march(first: float, pitch: float, extent: float, half_span: float) -> list[float]:
    """Center coordinates along one axis, appended until the span is reached.

    The running sum is deliberate: binding radii sit exactly where a count
    changes, and a closed form could round the other way there.
    """
    xs = [first]
    while xs[-1] + half_span < extent - SPAN_TOL:
        xs.append(xs[-1] + pitch)
    return xs


def _pitches(r_l: float, kind: PackingKind) -> tuple[float, float]:
    """(x, y) pitches of the centres at loiter radius ``r_l``."""
    x_pitch = (SQRT3 if kind is PackingKind.HEXAGON else SQRT2) * r_l
    return x_pitch, 1.5 * r_l if kind is PackingKind.HEXAGON else x_pitch


def _circle_bound(area: AreaSpec, r_l: float, kind: PackingKind) -> float:
    """Closed-form bound on the circles of a layout: floor(extent / pitch) + 2
    per axis. It does not grow with ``r_l``; it is 4 from one extent up."""
    x_pitch, y_pitch = _pitches(r_l, kind)
    return (area.x_extent // x_pitch + 2) * (area.y_extent // y_pitch + 2)


def check_layout_size(area: AreaSpec, r_l: float, kind: PackingKind) -> None:
    """Raises ``ValueError`` when the closed-form bound exceeds
    ``MAX_LAYOUT_CIRCLES`` or is NaN."""
    bound = _circle_bound(area, r_l, kind)
    if not bound <= MAX_LAYOUT_CIRCLES:
        raise ValueError(
            f"a {kind.value} layout at r_l={r_l!r} m may hold up to {bound:.3g} circles, "
            f"over the limit of {MAX_LAYOUT_CIRCLES}"
        )


def min_layout_radius(area: AreaSpec, kind: PackingKind) -> float:
    """Smallest loiter radius whose closed-form bound fits
    ``MAX_LAYOUT_CIRCLES``, by bisection down to adjacent floats."""
    lo, hi = 0.0, max(area.x_extent, area.y_extent)
    mid = 0.5 * hi
    while lo < mid < hi:
        if _circle_bound(area, mid, kind) <= MAX_LAYOUT_CIRCLES:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def axis_march(area: AreaSpec, r_l: float, kind: PackingKind) -> tuple[list[list[float]], list[float]]:
    """(x coordinates of each row template, y coordinates of the rows).

    Row i uses template i modulo the template count. Hexagon rows alternate
    between a half-pitch-offset template and one anchored on the x = 0
    boundary, with vertical pitch 1.5*r_l and a footprint reaching one vertex
    height (r_l) above each row; square rows share one template with pitch
    sqrt(2)*r_l in both directions.

    Raises ``ValueError`` as ``check_layout_size`` does, before marching.
    """
    if not r_l > 0:
        raise ValueError(f"loiter radius must be positive, got {r_l}")
    check_layout_size(area, r_l, kind)
    hexagon = kind is PackingKind.HEXAGON
    x_pitch, y_pitch = _pitches(r_l, kind)
    if hexagon:
        templates = ((0.5 * x_pitch, 0.5 * x_pitch), (0.0, 0.5 * x_pitch))
        ys = _march(0.5 * r_l, y_pitch, area.y_extent, r_l)
    else:
        half = r_l / SQRT2
        templates = ((half, half),)
        ys = _march(half, y_pitch, area.y_extent, half)
    xs = [_march(first, x_pitch, area.x_extent, half_span) for first, half_span in templates]
    return xs, ys


def pack(area: AreaSpec, r_l: float, kind: PackingKind) -> PackingLayout:
    """Generate the loiter-circle layout for ``area`` at radius ``r_l``."""
    xs, ys = axis_march(area, r_l, kind)
    rows = tuple(tuple(Vec2(x, y) for x in xs[i % len(xs)]) for i, y in enumerate(ys))
    return PackingLayout(kind=kind, loiter_radius=r_l, rows=rows, area=area)


def uav_count(area: AreaSpec, r_l: float, kind: PackingKind) -> int:
    """Number of circles ``pack`` would place, without building the centers."""
    xs, ys = axis_march(area, r_l, kind)
    return sum(len(xs[i % len(xs)]) for i in range(len(ys)))


def grid_shape(area: AreaSpec, grid_pitch: float) -> tuple[int, int]:
    """Sample counts (nx, ny) along the axes of the grid ``grid_points``
    builds. Raises ``ValueError`` on a pitch that is not positive or gives an
    unbounded grid, or a grid of more than ``MAX_GRID_POINTS`` samples."""
    if not grid_pitch > 0:
        raise ValueError(f"grid pitch must be positive, got {grid_pitch}")
    cells = (area.x_extent / grid_pitch, area.y_extent / grid_pitch)
    if not all(math.isfinite(c) for c in cells):
        raise ValueError(f"grid pitch {grid_pitch} gives an unbounded sample grid")
    nx, ny = (max(1, round(c)) for c in cells)
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(
            f"a {nx} x {ny} sample grid exceeds the limit of {MAX_GRID_POINTS} points"
        )
    return nx, ny


def grid_points(area: AreaSpec, grid_pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """Axes (xs, ys) of the cell-centered sample grid over the area at roughly
    the requested pitch; the samples are every (x, y) pair.

    Raises ``ValueError`` as ``grid_shape`` does, before allocating anything.
    """
    nx, ny = grid_shape(area, grid_pitch)
    xs = (np.arange(nx) + 0.5) * (area.x_extent / nx)
    ys = (np.arange(ny) + 0.5) * (area.y_extent / ny)
    return xs, ys
