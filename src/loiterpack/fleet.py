"""Discrete-time fleet simulation and the super-agent recovery workflow.

A deployed fleet loiters phase-synchronized on a packed layout. Each
formation (the deployment, then every recovered layout) has one
communication graph: the pairs of circles whose centers lie within the
layout's comm radius. A failure only marks UAVs lost; survivors on an edge
with one lost end report it, and the edges with two live ends cluster the
survivors. Recovery re-optimizes the homogeneous loiter radius for the
survivor count, packs the new layout, assigns survivors to circles by
minimum-total-distance matching and plans phase-synchronized transitions with
pairwise-separation staggering. ``coverage_report`` measures the coverage
fractions of any set of loiter circles.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
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
    min_comm_radius,
    min_turn_radius,
    pairs_within,
)
from .optimize import (
    FleetBudget,
    RadiusSolution,
    Regime,
    _shortage,
    ideal_radius_after_loss,
    revisit_period,
    solve_radius,
)
from .packing import PackingLayout, grid_points, grid_shape, pack, uav_count

DEFAULT_SEPARATION_THRESHOLD = 2.0  # meters
DEFAULT_SEPARATION_DT = 0.25  # seconds
MAX_STAGGER_ROUNDS = 10
# Most phases coverage_report samples. The phases and the instant kernel's
# per-phase offsets are allocated up front, 57-69 bytes a phase at the
# tracemalloc peak, so this bound holds them to about 70 MB, under the
# 256 MB of position arrays that dubins.MAX_SEPARATION_ENTRIES allows.
MAX_PHASE_SAMPLES = 1 << 20
BASE = Vec2(0.0, 0.0)  # the base station, which hears UAVs within the comm radius


class RecoveryOutcome(Enum):
    PERSISTENT_RESTORED = "persistent-restored"
    FULL_RESTORED = "full-restored"
    RECOVERY_FAILED = "recovery-failed"


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
            raise ValueError("specify exactly one of lost_ids or (seed, loss_count)")
        if seeded and (self.seed is None or self.loss_count is None or self.loss_count < 0):
            raise ValueError("seeded selection needs seed and a non-negative loss_count")


@dataclass(frozen=True)
class SurvivorReport:
    circles: dict[int, LoiterCircle]  # survivor id -> circle, ids ascending
    clusters: tuple[frozenset[int], ...]
    phase: float
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
    solution: RadiusSolution | None  # None when there are no survivors
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
    """One formation: every UAV's loiter circle, the UAVs failures removed
    from it, its comm graph and the clock."""

    platform: PlatformModel
    layout: PackingLayout
    uavs: dict[int, LoiterCircle]  # every UAV of the formation, id -> circle, ids ascending
    edges: frozenset[tuple[int, int]]  # comm graph of the formation, (i, j) with i < j
    phase: float
    time: float
    lost: set[int] = field(default_factory=set)  # ids of the UAVs failures removed

    @property
    def alive_ids(self) -> list[int]:
        return [i for i in self.uavs if i not in self.lost]

    @property
    def r_com(self) -> float:
        return min_comm_radius(self.layout.loiter_radius, self.layout.kind)


def _build_comm_graph(circles: dict[int, LoiterCircle], r_com: float) -> frozenset[tuple[int, int]]:
    """Edges between circles whose centers are within ``r_com`` (``Vec2.dist``
    plus the boundary slack), found by the sorted sweep ``pairs_within``."""
    reach = r_com + BOUNDARY_TOL
    ids = np.array(sorted(circles), dtype=np.int64)
    x = np.array([circles[i].center.x for i in ids.tolist()])
    y = np.array([circles[i].center.y for i in ids.tolist()])
    # The sweep's gap is a little wider than reach, so its rounding cannot
    # drop a pair; the distance test below is exact.
    slack = 1e-9 * (reach + float(np.abs(x).max(initial=0.0)))
    first, second = pairs_within(x, y, x, y, reach + slack)
    dist = np.hypot(x[second] - x[first], y[second] - y[first])
    near = np.abs(dist - reach) <= 1e-12 * reach
    keep = ~near & (dist <= reach)
    # np.hypot may round differently from math.hypot: decide pairs at the
    # boundary with the scalar distance the rest of the code uses.
    for k in np.flatnonzero(near).tolist():
        keep[k] = math.hypot(x[first[k]] - x[second[k]], y[first[k]] - y[second[k]]) <= reach
    a, b = ids[first[keep]], ids[second[keep]]
    return frozenset(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def _fleet(platform, layout, circles, phase, time) -> FleetState:
    """Fleet of live UAVs loitering on ``circles`` (id -> circle) of ``layout``,
    with the formation's comm graph."""
    uavs = {i: circles[i] for i in sorted(circles)}
    edges = _build_comm_graph(uavs, min_comm_radius(layout.loiter_radius, layout.kind))
    return FleetState(platform, layout, uavs, edges, phase, time)


def deploy(
    area: AreaSpec,
    kind: PackingKind,
    platform: PlatformModel,
    radius: float | None = None,
    budget: int | None = None,
    r_c: float | None = None,
    r_l_max: float | None = None,
    r_turn: float | None = None,
) -> FleetState:
    """Deploy a synchronized fleet, radius-driven or budget-driven.

    ``r_turn`` is the platform's minimum turn radius,
    ``min_turn_radius(platform)`` when None, and bounds the loiter radius
    from below: a radius-driven deployment under it raises ``ValueError``.
    Budget-driven deployment solves for the smallest feasible radius and
    raises :class:`InfeasibleError` when the budget cannot cover the area
    (a budget of zero UAVs included).
    """
    if (radius is None) == (budget is None):
        raise ValueError("specify exactly one of radius or budget")
    r_turn = min_turn_radius(platform) if r_turn is None else r_turn
    if radius is None:
        if r_c is None:
            raise ValueError("budget-driven deployment needs the coverage radius")
        sol = solve_radius(FleetBudget(budget), area, kind, r_c, r_turn, r_l_max=r_l_max)
        if sol.loiter_radius is None:
            raise _shortage(budget, sol)
        radius = sol.loiter_radius
    else:
        check_deploy_radius(radius, r_turn)
    layout = pack(area, radius, kind)
    circles = {i: LoiterCircle(c, radius) for i, c in enumerate(layout.centers)}
    return _fleet(platform, layout, circles, phase=0.0, time=0.0)


def check_deploy_radius(radius: float, r_turn: float) -> None:
    """Raise ``ValueError``, naming both radii, when a deploy radius lies below
    the minimum turn radius ``r_turn``: the platform cannot loiter on it."""
    if radius < r_turn:
        raise ValueError(
            f"the deploy radius {radius:.6g} m is below the minimum turn radius {r_turn:.6g} m"
        )


def step(state: FleetState, dt: float) -> FleetState:
    """Advance the synchronized loiter phase by omega * dt."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    omega = state.platform.speed / state.layout.loiter_radius
    state.phase = (state.phase + omega * dt) % TWO_PI
    state.time += dt
    return state


def inject_failure(state: FleetState, event: FailureEvent) -> FleetState:
    """Add the event's UAVs to the lost ids. The comm graph stays the formation's."""
    alive = state.alive_ids
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
    state.lost |= lost
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
    """Report the losses to the base and cluster the survivors.

    A survivor on a formation edge whose other end is lost detects the loss;
    the edges with two live ends cluster the survivors. The report reaches the
    base through the comm graph when some detector shares a cluster with a
    survivor in the base's comm radius. Otherwise the base detects the outage
    by itself after one loiter period without heartbeats, and the clock
    advances to that instant (a whole period leaves the phase unchanged).
    """
    survivors = {i: c for i, c in state.uavs.items() if i not in state.lost}
    detectors, links = set(), []
    for i, j in state.edges:
        if i in survivors and j in survivors:
            links.append((i, j))
        elif i in survivors or j in survivors:
            detectors.add(i if i in survivors else j)
    clusters = _connected_components(survivors, links)

    base_reach = state.r_com + BOUNDARY_TOL
    base_component: set[int] = set()
    for comp in clusters:
        if any(survivors[i].center.dist(BASE) <= base_reach for i in comp):
            base_component |= comp
    if state.lost and base_component & detectors:
        detected_by = "neighbor-report"
        detection_delay = 0.0
    else:
        detected_by = "base-timeout"
        detection_delay = (
            revisit_period(state.layout.loiter_radius, state.platform.speed) if state.lost else 0.0
        )
    state.time += detection_delay
    return SurvivorReport(
        circles=survivors,
        clusters=tuple(clusters),
        phase=state.phase,
        detected_by=detected_by,
        detection_delay=detection_delay,
    )


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment``, loaded on first use."""
    return _lsap().linear_sum_assignment(cost)


@functools.cache
def _lsap():
    """The extension module that holds scipy's assignment solver,
    ``scipy.optimize._lsap``, loaded alone. Importing it through
    ``scipy.optimize`` also loads the rest of that package (sparse, linalg,
    special): measured after ``import loiterpack.cli`` on a 2-core host,
    540 ms instead of 1 ms, 44 MB more resident memory and every later full
    garbage collection 33 ms instead of 7 ms. Falls back to that import if
    scipy keeps the module elsewhere."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "optimize"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec("scipy.optimize._lsap")
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.optimize import _lsap

    return _lsap


def _assign_survivors(report: SurvivorReport, centers) -> tuple[dict[int, int], tuple[int, ...]]:
    """Minimum-total-distance matching of survivors onto the new circles.

    With more survivors than circles, the unmatched ones become spares.
    """
    ids = list(report.circles)
    sx = np.array([report.circles[i].center.x for i in ids], dtype=float)
    sy = np.array([report.circles[i].center.y for i in ids], dtype=float)
    cx = np.array([c.x for c in centers], dtype=float)
    cy = np.array([c.y for c in centers], dtype=float)
    # ``Vec2.dist`` on arrays; np.hypot may differ from math.hypot in the
    # last bit, which left every tested assignment unchanged.
    cost = np.hypot(sx[:, None] - cx, sy[:, None] - cy)
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
) -> RecoveryPlan:
    """Compute the survivors' new radius, layout, assignment and transitions.

    ``r_turn`` is the platform's minimum turn radius,
    ``min_turn_radius(platform)`` when None: the smallest loiter radius the
    solve accepts and the turn radius of every transit. Round 0 plans every
    assigned UAV. While the closest pair is under the separation threshold, a
    later round delays its later-departing UAV by one more source period and
    plans that UAV again; a breach left after ``MAX_STAGGER_ROUNDS`` rounds
    fails the recovery."""
    n_new = len(report.circles)

    def failed(reason: str, solution: RadiusSolution | None = None, deficit=None) -> RecoveryPlan:
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
    r_turn = min_turn_radius(platform) if r_turn is None else r_turn
    solution = solve_radius(FleetBudget(n_new), area, kind, r_c, r_turn, r_l_max=r_l_max)
    if solution.loiter_radius is None:
        error = _shortage(n_new, solution, "survivors")
        return failed(str(error), solution, error.deficit)

    layout = pack(area, solution.loiter_radius, kind)
    circles = [LoiterCircle(c, solution.loiter_radius) for c in layout.centers]
    assignment, spares = _assign_survivors(report, layout.centers)

    v = platform.speed
    ordered = sorted(assignment)
    delay = dict.fromkeys(ordered, 0.0)
    plans: dict[int, TransitionPlan] = {}
    replan = ordered
    for stagger_round in range(MAX_STAGGER_ROUNDS + 1):
        try:
            for uav_id in replan:
                plans[uav_id] = plan_transition(
                    uav_id,
                    report.circles[uav_id],
                    report.phase,
                    circles[assignment[uav_id]],
                    r_turn,
                    v,
                    base_delay=delay[uav_id],
                )
        except PlanningError as exc:
            while_staggering = " while staggering" if stagger_round else ""
            return failed(f"transition planning failed{while_staggering}: {exc}", solution)
        sep, i, j = closest_approach([plans[u] for u in ordered], v=v, dt=DEFAULT_SEPARATION_DT)
        if sep >= DEFAULT_SEPARATION_THRESHOLD or stagger_round == MAX_STAGGER_ROUNDS:
            break
        late = max(ordered[i], ordered[j], key=lambda u: (plans[u].depart_delay, u))
        delay[late] += TWO_PI * plans[late].source.radius / v
        replan = (late,)
    if sep < DEFAULT_SEPARATION_THRESHOLD:
        return failed(
            f"UAVs {ordered[i]} and {ordered[j]} come within {sep!r} m, under the "
            f"{DEFAULT_SEPARATION_THRESHOLD!r} m separation, after "
            f"{MAX_STAGGER_ROUNDS} stagger rounds",
            solution,
        )

    outcome = (
        RecoveryOutcome.PERSISTENT_RESTORED
        if solution.regime is Regime.PERSISTENT
        else RecoveryOutcome.FULL_RESTORED
    )
    return RecoveryPlan(
        solution=solution,
        new_layout=layout,
        assignment=assignment,
        transitions=tuple(plans[i] for i in ordered),
        outcome=outcome,
        spare_ids=spares,
        min_separation=sep if len(plans) > 1 else None,
    )


def apply_recovery(state: FleetState, plan: RecoveryPlan) -> FleetState:
    """Fleet state after all transitions complete: survivors loiter on the new
    layout, and the clock (at the detection instant, where the transitions
    start) and the synchronized phase advance to the last arrival.

    Spare survivors (more survivors than circles) leave the fleet. No path
    is planned for them, and the separation check does not see them.
    """
    if plan.outcome is RecoveryOutcome.RECOVERY_FAILED:
        raise InfeasibleError("cannot apply a failed recovery plan", plan.deficit)
    r_new = plan.solution.loiter_radius
    t_end = max((p.arrival_time for p in plan.transitions), default=0.0)
    omega_new = state.platform.speed / r_new
    centers = plan.new_layout.centers
    circles = {uav_id: LoiterCircle(centers[idx], r_new) for uav_id, idx in plan.assignment.items()}
    return _fleet(
        state.platform,
        plan.new_layout,
        circles,
        phase=(state.phase + omega_new * t_end) % TWO_PI,
        time=state.time + t_end,
    )


def check_coverage_inputs(area: AreaSpec, r_c: float, grid_pitch: float, phase_samples: int):
    """Raise ``ValueError`` on the inputs ``coverage_report`` rejects: a coverage
    radius that is not positive, fewer than 8 or more than
    ``MAX_PHASE_SAMPLES`` phases or a bad or oversized grid. Allocates
    nothing, so a command can check before its first output."""
    if not r_c > 0:
        raise ValueError(f"coverage radius must be positive, got {r_c}")
    if phase_samples < 8:
        raise ValueError(f"phase_samples must be >= 8, got {phase_samples}")
    if phase_samples > MAX_PHASE_SAMPLES:
        raise ValueError(f"phase_samples must be <= {MAX_PHASE_SAMPLES}, got {phase_samples}")
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
    max_recoverable: dict[float, float | None]  # r_init -> largest recoverable fraction, or None
    r_cap: float  # the radius cap that solve_radius searches up to


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
    value. The largest recoverable loss is (N - m) / N, m the smallest fleet
    ``solve_radius`` accepts, or None when it accepts none or m exceeds N.
    """
    smallest = solve_radius(FleetBudget(0), area, kind, r_c, r_min_turn, r_l_max=r_l_max)
    m = smallest.min_required
    points = []
    max_rec = {}
    for r_init in r_inits:
        n = uav_count(area, r_init, kind)
        max_rec[r_init] = None if m is None or m > n else (n - m) / n
        for frac in loss_fractions:
            if not 0.0 <= frac < 1.0:
                raise ValueError(f"loss fraction must be in [0, 1), got {frac}")
            survivors = n - math.ceil(frac * n)
            sol = solve_radius(
                FleetBudget(survivors), area, kind, r_c, r_min_turn, r_l_max=r_l_max
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
    return SweepResult(points=tuple(points), max_recoverable=max_rec, r_cap=smallest.r_cap)
