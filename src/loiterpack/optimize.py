"""Loiter-radius optimization for a fleet budget.

The feasible set is defined operationally by the placement construction: a
radius is feasible when the packed layout needs at most the budgeted number
of UAVs. Candidate radii are the analytic binding radii at which a row or
column count changes, so the minimum feasible candidate is the exact left
edge of the feasible interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError
from .geometry import LATTICES, AreaSpec, PackingKind, max_loiter_radius
from .packing import axis_march, check_layout_size, min_layout_radius, uav_count

# Lower bound on any solved radius (meters): prevents degenerate zero-radius
# layouts when the budget is effectively unlimited.
RADIUS_FLOOR = 1e-3


@dataclass(frozen=True)
class FleetBudget:
    uav_count: int

    def __post_init__(self) -> None:
        if self.uav_count < 0:
            raise ValueError(f"UAV budget must be >= 0, got {self.uav_count}")


@dataclass(frozen=True)
class RadiusSolution:
    """The smallest feasible loiter radius, or None when the budget is
    infeasible. ``r_cap`` is the radius cap clipped to the coverage bound;
    when infeasible, ``min_required`` is the UAV count at ``r_cap`` if the
    minimum turn radius allows it."""

    loiter_radius: float | None
    n_x: int
    n_y: int
    r_min_turn: float
    r_cap: float
    min_required: int | None = None


def _shortage(n: int, solution: RadiusSolution, noun: str = "UAVs") -> InfeasibleError:
    """The ``InfeasibleError`` of ``n`` UAVs (called ``noun``) for which
    ``solution`` found no radius: the one sentence of a shortage, naming the
    deficit when the fleet has a UAV count to reach, or else the smallest
    radius searched (the minimum turn radius, or ``RADIUS_FLOOR``) and the
    radius cap under it."""
    if solution.min_required is not None:
        return InfeasibleError(f"{n} {noun} cannot cover the area; deficit {solution.min_required - n}")
    turn = solution.r_min_turn > solution.r_cap
    name, r_min = ("minimum turn radius", solution.r_min_turn) if turn else ("radius floor", RADIUS_FLOOR)
    return InfeasibleError(
        f"the {name} {r_min:.6g} m exceeds the radius cap {solution.r_cap:.6g} m: "
        f"no number of {noun} can cover the area"
    )


def ideal_radius_after_loss(r_init: float, loss_fraction: float) -> float:
    """Radius scaling under the continuous tiling model: per-UAV tiled area
    grows as r^2, so the survivors' radius is r_init / sqrt(1 - loss)."""
    if not 0.0 <= loss_fraction < 1.0:
        raise ValueError(f"loss fraction must be in [0, 1), got {loss_fraction}")
    return r_init / math.sqrt(1.0 - loss_fraction)


def revisit_period(r_l: float, v: float) -> float:
    """Time between successive visits of a point on the loiter circle."""
    if not v > 0:
        raise ValueError(f"speed must be positive, got {v}")
    return 2.0 * math.pi * r_l / v


def _binding_radii(area: AreaSpec, kind: PackingKind, lo: float, hi: float) -> list[float]:
    """Radii in [lo, hi] where any row/column count of the layout changes.

    A row's count changes ``steps`` times per pitch p of the width X, at
    r = steps*X/(p j) for integer j: hexagon rows bind at n*sqrt(3)*r = X
    (offset template) and at (n - 1/2)*sqrt(3)*r = X (boundary template),
    square rows at n*sqrt(2)*r = X. The row count changes once per row
    pitch q of the height Y, at r = Y/(q j).
    """
    out: list[float] = []

    def family(scale: float) -> None:
        # r = scale / j for j = 1, 2, ...
        j = max(1, math.floor(scale / hi))
        while True:
            r = scale / j
            if r < lo:
                break
            if r <= hi:
                out.append(r)
            j += 1

    lat = LATTICES[kind]
    family(lat.steps * area.x_extent / lat.pitch)
    family(area.y_extent / lat.row_pitch)
    return out


def solve_radius(
    budget: FleetBudget,
    area: AreaSpec,
    kind: PackingKind,
    r_c: float,
    r_min_turn: float,
    r_l_max: float | None = None,
) -> RadiusSolution:
    """Smallest loiter radius whose layout fits the budget.

    Searches [max(r_min_turn, floor), r_cap] over the analytic binding radii,
    each verified against the placement-derived count, where r_cap is
    ``r_l_max`` clipped to the coverage bound (the bound when ``r_l_max`` is
    None); a smaller radius means a shorter revisit period, so the left edge
    of the feasible interval is optimal. Returns an infeasible solution
    carrying the minimum required fleet size when even r_cap needs more UAVs
    than budgeted. A NaN or negative ``r_min_turn`` raises ``ValueError``.
    """
    bound = max_loiter_radius(r_c, kind)
    r_cap = bound if r_l_max is None else min(r_l_max, bound)  # keeps a NaN r_l_max
    if not r_cap > 0:
        raise ValueError(f"radius cap must be positive, got {r_cap}")
    if not r_min_turn >= 0:
        raise ValueError(f"minimum turn radius must be >= 0, got {r_min_turn}")
    lo = max(r_min_turn, RADIUS_FLOOR)
    n = budget.uav_count
    min_required = uav_count(area, r_cap, kind) if lo <= r_cap else None
    if min_required is None or min_required > n:
        return RadiusSolution(None, 0, 0, r_min_turn, r_cap, min_required)

    # The layout needs at least area / (cell area) circles, so radii below
    # the continuous tiling bound are always infeasible; skip them. Radii
    # below the layout limit cannot be placed; skip them too.
    lat = LATTICES[kind]
    r_inf = math.sqrt(area.x_extent * area.y_extent / (lat.pitch * lat.row_pitch * n))
    cand_lo = max(lo, r_inf * (1.0 - 1e-9))
    r_placeable = min_layout_radius(area, kind)
    clipped = cand_lo < r_placeable
    cand_lo = max(cand_lo, r_placeable)
    candidates = _binding_radii(area, kind, cand_lo, r_cap) + [r_cap]
    if lo >= cand_lo:
        candidates.append(lo)
    candidates = sorted(set(candidates))
    # Feasibility (count <= n) is monotone in r: binary-search the left edge.
    lo_i, hi_i = 0, len(candidates) - 1  # hi_i is known feasible
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if uav_count(area, candidates[mid], kind) <= n:
            hi_i = mid
        else:
            lo_i = mid + 1
    r_best = candidates[hi_i]
    if clipped and hi_i == 0:
        # The smallest placeable candidate fits the budget, so a smaller
        # radius might too: report the layout limit just below it.
        check_layout_size(area, math.nextafter(r_placeable, 0.0), kind)

    xs, ys = axis_march(area, r_best, kind)
    return RadiusSolution(r_best, len(xs[0]), len(ys), r_min_turn, r_cap)
