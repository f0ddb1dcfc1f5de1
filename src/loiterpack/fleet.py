"""Discrete-time fleet simulation and the super-agent recovery workflow.

A deployed fleet loiters phase-synchronized on a packed layout, maintains a
communication graph and per-UAV neighbor state vectors, and survives seeded
multi-UAV failure events. Recovery re-optimizes the homogeneous loiter radius
for the survivor count, packs the new layout, assigns survivors to circles by
minimum-total-distance matching and plans phase-synchronized transitions with
pairwise-separation staggering. ``coverage_report`` measures the coverage
fractions of any set of loiter circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernels
from .dubins import TWO_PI, TransitionPlan, closest_approach, plan_transition
from .errors import InfeasibleError, PlanningError
from .geometry import (
    BOUNDARY_TOL,
    AreaSpec,
    LoiterCircle,
    PackingKind,
    PlatformModel,
    Vec2,
    max_loiter_radius,
    min_comm_radius,
    min_turn_radius,
)
from .optimize import (
    FleetBudget,
    RadiusSolution,
    Regime,
    ideal_radius_after_loss,
    revisit_period,
    solve_radius,
)
from .packing import PackingLayout, grid_points, grid_shape, pack, uav_count

DEFAULT_SEPARATION_THRESHOLD = 2.0  # meters
DEFAULT_SEPARATION_DT = 0.25  # seconds
MAX_STAGGER_ROUNDS = 10


class RecoveryOutcome(Enum):
    PERSISTENT_RESTORED = "persistent-restored"
    FULL_RESTORED = "full-restored"
    RECOVERY_FAILED = "recovery-failed"


@dataclass
class UavState:
    id: int
    assigned_circle: LoiterCircle
    alive: bool = True
    neighbor_ids: list[int] = field(default_factory=list)
    neighbor_state: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class CommGraph:
    edges: frozenset[tuple[int, int]]  # (i, j) with i < j


@dataclass(frozen=True)
class FailureEvent:
    """Simultaneous loss of UAVs: explicit ids, or a seeded random draw."""

    time: float = 0.0
    lost_ids: frozenset[int] | None = None
    seed: int | None = None
    loss_count: int | None = None

    def __post_init__(self) -> None:
        explicit = self.lost_ids is not None
        seeded = self.seed is not None or self.loss_count is not None
        if explicit == seeded:
            raise ValueError("specify either lost_ids or (seed, loss_count), not both")
        if seeded and (self.seed is None or self.loss_count is None or self.loss_count < 0):
            raise ValueError("seeded selection needs seed and a non-negative loss_count")


@dataclass(frozen=True)
class SurvivorReport:
    survivor_count: int
    survivor_ids: tuple[int, ...]
    positions: dict[int, Vec2]
    circles: dict[int, LoiterCircle]
    clusters: tuple[frozenset[int], ...]
    phase: float
    loiter_radius: float
    detected_by: str  # "neighbor-report" | "base-timeout"
    detection_delay: float


@dataclass(frozen=True)
class CoverageReport:
    instant_min_fraction: float
    cycle_fraction: float
    grid_pitch: float
    phase_samples: int


@dataclass(frozen=True)
class RecoveryPlan:
    solution: RadiusSolution
    new_layout: PackingLayout | None
    assignment: dict[int, int]  # survivor id -> index into new layout centers
    transitions: tuple[TransitionPlan, ...]
    outcome: RecoveryOutcome
    spare_ids: tuple[int, ...] = ()
    min_separation: float | None = None
    deficit: int | None = None
    reason: str | None = None


@dataclass
class FleetState:
    area: AreaSpec
    kind: PackingKind
    platform: PlatformModel
    uavs: list[UavState]
    loiter_radius: float
    phase: float
    time: float
    r_com: float
    base: Vec2
    comm: CommGraph
    layout: PackingLayout

    @property
    def alive_ids(self) -> list[int]:
        return [u.id for u in self.uavs if u.alive]

    def position_of(self, uav: UavState) -> Vec2:
        return uav.assigned_circle.point_at(self.phase)


def _build_comm_graph(circles: dict[int, LoiterCircle], r_com: float) -> CommGraph:
    ids = sorted(circles)
    reach = r_com + BOUNDARY_TOL
    edges = set()
    for a_pos, i in enumerate(ids):
        ci = circles[i].center
        for j in ids[a_pos + 1 :]:
            if ci.dist(circles[j].center) <= reach:
                edges.add((i, j))
    return CommGraph(edges=frozenset(edges))


def _fleet(area, kind, platform, layout, circles, r_com, base, phase, time) -> FleetState:
    """Fleet of live UAVs loitering on ``circles`` (id -> circle) with every
    neighbor bit set; the neighbor lists come from one pass over the edges."""
    comm = _build_comm_graph(circles, r_com)
    neighbors: dict[int, list[int]] = {i: [] for i in circles}
    for i, j in comm.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    uavs = [
        UavState(
            id=i,
            assigned_circle=circles[i],
            neighbor_ids=sorted(neighbors[i]),
            neighbor_state=[1] * len(neighbors[i]),
        )
        for i in sorted(circles)
    ]
    return FleetState(
        area=area,
        kind=kind,
        platform=platform,
        uavs=uavs,
        loiter_radius=layout.loiter_radius,
        phase=phase,
        time=time,
        r_com=r_com,
        base=base,
        comm=comm,
        layout=layout,
    )


def deploy(
    area: AreaSpec,
    kind: PackingKind,
    platform: PlatformModel,
    radius: float | None = None,
    budget: int | None = None,
    r_c: float | None = None,
    r_l_max: float | None = None,
    base: Vec2 = Vec2(0.0, 0.0),
    r_com: float | None = None,
    min_turn_formula: str = "paper",
) -> FleetState:
    """Deploy a synchronized fleet, radius-driven or budget-driven.

    Budget-driven deployment solves for the smallest feasible radius and
    raises :class:`InfeasibleError` when the budget cannot cover the area.
    """
    if (radius is None) == (budget is None):
        raise ValueError("specify exactly one of radius or budget")
    if radius is None:
        if r_c is None:
            raise ValueError("budget-driven deployment needs the coverage radius")
        if budget == 0:
            raise InfeasibleError("cannot deploy a fleet of zero UAVs")
        sol = solve_radius(
            FleetBudget(budget),
            area,
            kind,
            r_c,
            min_turn_radius(platform, min_turn_formula),
            r_l_max=r_l_max,
        )
        if sol.regime is Regime.INFEASIBLE:
            deficit = sol.min_required - budget if sol.min_required is not None else None
            raise InfeasibleError(f"budget of {budget} UAVs cannot cover the area", deficit)
        radius = sol.loiter_radius
    layout = pack(area, radius, kind)
    circles = {i: LoiterCircle(c, radius) for i, c in enumerate(layout.centers)}
    r_com = r_com if r_com is not None else min_comm_radius(radius, kind)
    return _fleet(area, kind, platform, layout, circles, r_com, base, phase=0.0, time=0.0)


def step(state: FleetState, dt: float) -> FleetState:
    """Advance the synchronized loiter phase by omega * dt."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    omega = state.platform.speed / state.loiter_radius
    state.phase = (state.phase + omega * dt) % TWO_PI
    state.time += dt
    return state


def inject_failure(state: FleetState, event: FailureEvent) -> FleetState:
    """Mark the event's UAVs as lost and rebuild the survivor comm graph."""
    alive = sorted(state.alive_ids)
    if event.lost_ids is not None:
        lost = set(event.lost_ids)
        unknown = lost - set(alive)
        if unknown:
            raise ValueError(f"cannot lose unknown or already-lost UAVs: {sorted(unknown)}")
    else:
        if event.loss_count > len(alive):
            raise ValueError(f"cannot lose {event.loss_count} of {len(alive)} alive UAVs")
        rng = np.random.default_rng(event.seed)
        lost = set(int(i) for i in rng.choice(alive, size=event.loss_count, replace=False))
    for uav in state.uavs:
        if uav.id in lost:
            uav.alive = False
    survivors = {u.id: u.assigned_circle for u in state.uavs if u.alive}
    state.comm = _build_comm_graph(survivors, state.r_com)
    return state


def _connected_components(vertices, edges) -> list[frozenset]:
    adjacency = {v: set() for v in vertices}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen: set = set()
    components = []
    for v in vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adjacency[node] - comp)
        seen |= comp
        components.append(frozenset(comp))
    return components


def detect_failures(state: FleetState) -> SurvivorReport:
    """Flip neighbor-state bits for lost neighbors and cluster the survivors.

    The failure message reaches the base through the comm graph when some
    survivor in the base's component borders a loss; otherwise the base
    detects the outage by itself after one loiter period without heartbeats.
    """
    alive = {u.id for u in state.uavs if u.alive}
    detectors = set()
    for uav in state.uavs:
        if not uav.alive:
            continue
        for k, nid in enumerate(uav.neighbor_ids):
            if nid not in alive and uav.neighbor_state[k] == 1:
                uav.neighbor_state[k] = 0
            if nid not in alive:
                detectors.add(uav.id)
    survivors = {u.id: u.assigned_circle for u in state.uavs if u.alive}
    clusters = _connected_components(sorted(survivors), state.comm.edges)

    base_reach = state.r_com + BOUNDARY_TOL
    base_component: set[int] = set()
    for comp in clusters:
        if any(survivors[i].center.dist(state.base) <= base_reach for i in comp):
            base_component |= comp
    any_loss = len(alive) < len(state.uavs)
    if any_loss and base_component & detectors:
        detected_by = "neighbor-report"
        detection_delay = 0.0
    else:
        detected_by = "base-timeout"
        detection_delay = (
            revisit_period(state.loiter_radius, state.platform.speed) if any_loss else 0.0
        )
    return SurvivorReport(
        survivor_count=len(survivors),
        survivor_ids=tuple(sorted(survivors)),
        positions={i: survivors[i].center for i in sorted(survivors)},
        circles=dict(survivors),
        clusters=tuple(clusters),
        phase=state.phase,
        loiter_radius=state.loiter_radius,
        detected_by=detected_by,
        detection_delay=detection_delay,
    )


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment``, imported on first use: the
    import costs more than most commands that never assign anything."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _assign_survivors(report: SurvivorReport, centers) -> tuple[dict[int, int], tuple[int, ...]]:
    """Minimum-total-distance matching of survivors onto the new circles.

    With more survivors than circles, the unmatched ones become spares.
    """
    ids = list(report.survivor_ids)
    cost = np.array(
        [[report.positions[i].dist(c) for c in centers] for i in ids], dtype=np.float64
    )
    rows, cols = linear_sum_assignment(cost)
    assignment = {ids[r]: int(c) for r, c in zip(rows, cols)}
    spares = tuple(i for i in ids if i not in assignment)
    return assignment, spares


def super_agent_recover(
    report: SurvivorReport,
    area: AreaSpec,
    kind: PackingKind,
    r_c: float,
    platform: PlatformModel,
    r_l_max: float | None = None,
    r_turn: float | None = None,
    separation_threshold: float = DEFAULT_SEPARATION_THRESHOLD,
    separation_dt: float = DEFAULT_SEPARATION_DT,
    min_turn_formula: str = "paper",
) -> RecoveryPlan:
    """Compute the survivors' new radius, layout, assignment and transitions."""
    n_new = report.survivor_count

    def failed(reason: str, solution: RadiusSolution | None = None, deficit=None) -> RecoveryPlan:
        solution = solution or RadiusSolution(None, 0, 0, Regime.INFEASIBLE)
        return RecoveryPlan(
            solution=solution,
            new_layout=None,
            assignment={},
            transitions=(),
            outcome=RecoveryOutcome.RECOVERY_FAILED,
            deficit=deficit,
            reason=reason,
        )

    if n_new == 0:
        return failed("no survivors")
    r_min = min_turn_radius(platform, min_turn_formula)
    solution = solve_radius(FleetBudget(n_new), area, kind, r_c, r_min, r_l_max=r_l_max)
    if solution.regime is Regime.INFEASIBLE:
        deficit = solution.min_required - n_new if solution.min_required is not None else None
        return failed(f"{n_new} survivors cannot cover the area", solution, deficit)

    layout = pack(area, solution.loiter_radius, kind)
    circles = [LoiterCircle(c, solution.loiter_radius) for c in layout.centers]
    assignment, spares = _assign_survivors(report, layout.centers)

    turn_radius = r_turn if r_turn is not None else r_min
    v = platform.speed
    try:
        plans = {
            uav_id: plan_transition(
                uav_id, report.circles[uav_id], report.phase, circles[idx], turn_radius, v
            )
            for uav_id, idx in sorted(assignment.items())
        }
    except PlanningError as exc:
        return failed(f"transition planning failed: {exc}", solution)

    # Stagger the later-departing UAV of the closest pair until separated.
    ordered = sorted(plans)
    extra_delay = {uav_id: 0.0 for uav_id in ordered}
    sep = math.inf
    for _ in range(MAX_STAGGER_ROUNDS):
        track = [plans[i] for i in ordered]
        sep, i, j = closest_approach(track, v=v, dt=separation_dt)
        if sep >= separation_threshold:
            break
        pair = sorted((ordered[i], ordered[j]), key=lambda u: (plans[u].depart_delay, u))
        late = pair[-1]
        extra_delay[late] += TWO_PI * plans[late].source.radius / v
        try:
            plans[late] = plan_transition(
                late,
                report.circles[late],
                report.phase,
                circles[assignment[late]],
                turn_radius,
                v,
                base_delay=extra_delay[late],
            )
        except PlanningError as exc:
            return failed(f"transition planning failed while staggering: {exc}", solution)

    outcome = (
        RecoveryOutcome.PERSISTENT_RESTORED
        if solution.regime is Regime.PERSISTENT
        else RecoveryOutcome.FULL_RESTORED
    )
    return RecoveryPlan(
        solution=solution,
        new_layout=layout,
        assignment=assignment,
        transitions=tuple(plans[i] for i in sorted(plans)),
        outcome=outcome,
        spare_ids=spares,
        min_separation=sep if len(plans) > 1 else None,
    )


def apply_recovery(state: FleetState, plan: RecoveryPlan) -> FleetState:
    """Fleet state after all transitions complete: survivors loiter on the new
    layout with the synchronized phase clock advanced to the last arrival.

    Spare survivors (more survivors than circles) are retired to the base and
    leave the active fleet.
    """
    if plan.outcome is RecoveryOutcome.RECOVERY_FAILED:
        raise InfeasibleError("cannot apply a failed recovery plan", plan.deficit)
    r_new = plan.solution.loiter_radius
    t_end = max((p.arrival_time for p in plan.transitions), default=0.0)
    omega_new = state.platform.speed / r_new
    circles = {
        uav_id: LoiterCircle(plan.new_layout.centers[idx], r_new)
        for uav_id, idx in plan.assignment.items()
    }
    return _fleet(
        state.area,
        state.kind,
        state.platform,
        plan.new_layout,
        circles,
        min_comm_radius(r_new, state.kind),
        state.base,
        phase=(state.phase + omega_new * t_end) % TWO_PI,
        time=state.time + t_end,
    )


def check_coverage_inputs(area: AreaSpec, r_c: float, grid_pitch: float, phase_samples: int):
    """Raise ``ValueError`` on the inputs ``coverage_report`` rejects: a coverage
    radius that is not positive, fewer than 8 phases or a bad or oversized
    grid. Allocates nothing, so a command can check before its first output."""
    if not r_c > 0:
        raise ValueError(f"coverage radius must be positive, got {r_c}")
    if phase_samples < 8:
        raise ValueError(f"phase_samples must be >= 8, got {phase_samples}")
    grid_shape(area, grid_pitch)


def coverage_report(
    area: AreaSpec,
    centers,
    r_l: float,
    r_c: float,
    grid_pitch: float,
    phase_samples: int,
) -> CoverageReport:
    """Coverage fractions of the area's sample grid by circles of radius r_l.

    The cycle fraction counts points that some UAV's footprint (radius r_c)
    sweeps during one loiter cycle; the instant fraction is the worst, over
    ``phase_samples`` evenly spaced common phases, of the points covered at
    that instant by the phase-synchronized CCW fleet.
    """
    check_coverage_inputs(area, r_c, grid_pitch, phase_samples)
    xs, ys = grid_points(area, grid_pitch)
    centers = list(centers)
    if not centers:
        return CoverageReport(0.0, 0.0, grid_pitch, phase_samples)
    cx = np.array([c.x for c in centers])
    cy = np.array([c.y for c in centers])
    covered = kernels.cycle_cover_count(xs, ys, cx, cy, r_l, r_c, BOUNDARY_TOL)
    cycle = covered / (xs.size * ys.size)
    phases = np.arange(phase_samples) * (TWO_PI / phase_samples)
    instant = kernels.min_instant_fraction(xs, ys, cx, cy, r_l, r_c, phases, BOUNDARY_TOL)
    return CoverageReport(
        instant_min_fraction=instant,
        cycle_fraction=cycle,
        grid_pitch=grid_pitch,
        phase_samples=phase_samples,
    )


@dataclass(frozen=True)
class SweepPoint:
    r_init: float
    loss_fraction: float
    survivors: int
    r_new: float | None
    regime: Regime
    ideal_r_new: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    max_recoverable: dict[float, float]  # r_init -> exact largest recoverable fraction


def max_recoverable_loss(
    area: AreaSpec, kind: PackingKind, r_init: float, r_l_max: float
) -> float:
    """Largest loss fraction from which full coverage is still recoverable."""
    n = uav_count(area, r_init, kind)
    n_min = uav_count(area, r_l_max, kind)
    return max(0.0, (n - n_min) / n)


def loss_sweep(
    area: AreaSpec,
    kind: PackingKind,
    r_inits,
    loss_fractions,
    r_c: float,
    r_min_turn: float = 0.0,
    r_l_max: float | None = None,
) -> SweepResult:
    """Re-optimized radius for every (initial radius, loss fraction) pair.

    Losing a fraction removes ceil(fraction * N) UAVs. Which individuals are
    lost does not affect the homogeneous radius, so the sweep works on
    counts. Emits the simulated radius next to the continuous-tiling ideal
    value.
    """
    cap = r_l_max if r_l_max is not None else max_loiter_radius(r_c, kind)
    points = []
    max_rec = {}
    for r_init in r_inits:
        n = uav_count(area, r_init, kind)
        max_rec[r_init] = max_recoverable_loss(area, kind, r_init, cap)
        for frac in loss_fractions:
            if not 0.0 <= frac < 1.0:
                raise ValueError(f"loss fraction must be in [0, 1), got {frac}")
            survivors = n - math.ceil(frac * n)
            sol = solve_radius(
                FleetBudget(survivors), area, kind, r_c, r_min_turn, r_l_max=cap
            )
            points.append(
                SweepPoint(
                    r_init=r_init,
                    loss_fraction=frac,
                    survivors=survivors,
                    r_new=sol.loiter_radius,
                    regime=sol.regime,
                    ideal_r_new=ideal_radius_after_loss(r_init, frac),
                )
            )
    return SweepResult(points=tuple(points), max_recoverable=max_rec)
