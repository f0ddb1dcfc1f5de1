"""Bounded-curvature shortest paths and phase-synchronized loiter transitions.

Shortest paths are the classical six-word family (LSL, LSR, RSL, RSR, RLR,
LRL) solved in the radius-normalized frame. Every candidate word is verified
by forward application before it can win, so a numerically degenerate branch
can never produce a path that misses the goal pose.

Transitions depart a source loiter circle tangentially and join a target
circle tangentially at a phase consistent with the fleet-wide synchronized
phase clock, solved by fixed-point iteration over the arrival time. ``track``
evaluates a planned transition (loiter, path, loiter) at an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PlanningError
from .geometry import LoiterCircle, Vec2

TWO_PI = 2.0 * math.pi

# Convergence target for the arrival-time fixed point (seconds); also caps
# the join-phase residual via the target angular rate.
SYNC_TOL = 1e-6
MAX_SYNC_ITERATIONS = 100

_POSE_EPS = 1e-12


def mod2pi(angle: float) -> float:
    return angle % TWO_PI


class DubinsWord(Enum):
    LSL = "LSL"
    LSR = "LSR"
    RSL = "RSL"
    RSR = "RSR"
    RLR = "RLR"
    LRL = "LRL"


_WORD_ORDER = (
    DubinsWord.LSL,
    DubinsWord.LSR,
    DubinsWord.RSL,
    DubinsWord.RSR,
    DubinsWord.RLR,
    DubinsWord.LRL,
)


@dataclass(frozen=True)
class Pose:
    position: Vec2
    heading: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.heading):
            raise ValueError(f"heading must be finite, got {self.heading}")
        object.__setattr__(self, "heading", mod2pi(self.heading))


@dataclass(frozen=True)
class DubinsPath:
    word: DubinsWord
    segment_lengths: tuple[float, float, float]
    turn_radius: float
    start: Pose

    @property
    def length(self) -> float:
        return sum(self.segment_lengths)


@dataclass(frozen=True)
class TransitionPlan:
    uav_id: int
    source: LoiterCircle
    target: LoiterCircle
    start_phase: float
    break_off_phase: float
    depart_delay: float
    path: DubinsPath
    join_phase: float
    arrival_time: float


# ---------------------------------------------------------------------------
# word solvers in the normalized frame (unit radius, start at origin heading
# alpha, goal at (d, 0) heading beta); return (t, p, q) segment lengths.


def _lsl(alpha: float, beta: float, d: float):
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(alpha) - math.sin(beta))
    if p_sq < 0.0:
        return None
    psi = math.atan2(math.cos(beta) - math.cos(alpha), d + math.sin(alpha) - math.sin(beta))
    return mod2pi(psi - alpha), math.sqrt(p_sq), mod2pi(beta - psi)


def _rsr(alpha: float, beta: float, d: float):
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(beta) - math.sin(alpha))
    if p_sq < 0.0:
        return None
    psi = math.atan2(math.cos(alpha) - math.cos(beta), d - math.sin(alpha) + math.sin(beta))
    return mod2pi(alpha - psi), math.sqrt(p_sq), mod2pi(psi - beta)


def _lsr(alpha: float, beta: float, d: float):
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(alpha) + math.sin(beta))
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    psi = math.atan2(-math.cos(alpha) - math.cos(beta), d + math.sin(alpha) + math.sin(beta)) + math.atan2(2.0, p)
    return mod2pi(psi - alpha), p, mod2pi(psi - beta)


def _rsl(alpha: float, beta: float, d: float):
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) - 2.0 * d * (math.sin(alpha) + math.sin(beta))
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    psi = math.atan2(math.cos(alpha) + math.cos(beta), d - math.sin(alpha) - math.sin(beta)) - math.atan2(2.0, p)
    return mod2pi(alpha - psi), p, mod2pi(beta - psi)


def _rlr(alpha: float, beta: float, d: float):
    cos_mid = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(alpha) - math.sin(beta))) / 8.0
    if abs(cos_mid) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(cos_mid))
    psi = math.atan2(math.cos(alpha) - math.cos(beta), d - math.sin(alpha) + math.sin(beta))
    t = mod2pi(alpha - psi + 0.5 * p)
    return t, p, mod2pi(alpha - beta - t + p)


def _lrl(alpha: float, beta: float, d: float):
    cos_mid = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(beta) - math.sin(alpha))) / 8.0
    if abs(cos_mid) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(cos_mid))
    psi = math.atan2(math.cos(beta) - math.cos(alpha), d + math.sin(alpha) - math.sin(beta))
    t = mod2pi(psi - alpha + 0.5 * p)
    return t, p, mod2pi(beta - alpha - t + p)


_SOLVERS = {
    DubinsWord.LSL: _lsl,
    DubinsWord.LSR: _lsr,
    DubinsWord.RSL: _rsl,
    DubinsWord.RSR: _rsr,
    DubinsWord.RLR: _rlr,
    DubinsWord.LRL: _lrl,
}


def _advance(x, y, th, kind: str, length, r: float, trig=math):
    """State after ``length`` along one segment from (x, y, th); arcs are
    exact, no integration. Scalar with ``trig=math``; with ``trig=np`` the
    start state is scalar and ``length`` an array of lengths."""
    if kind == "S":
        return x + length * trig.cos(th), y + length * trig.sin(th), th
    phi = length / r
    if kind == "L":
        return (
            x + r * (trig.sin(th + phi) - trig.sin(th)),
            y - r * (trig.cos(th + phi) - trig.cos(th)),
            th + phi,
        )
    return (
        x - r * (trig.sin(th - phi) - trig.sin(th)),
        y + r * (trig.cos(th - phi) - trig.cos(th)),
        th - phi,
    )


def _breakpoints(path: DubinsPath) -> list[tuple[float, float, float]]:
    """States (x, y, heading) at the start of each segment and at the end."""
    state = (path.start.position.x, path.start.position.y, path.start.heading)
    states = [state]
    for kind, length in zip(path.word.value, path.segment_lengths):
        if length > 0.0:
            state = _advance(*state, kind, length, path.turn_radius)
        states.append(state)
    return states


def path_end(path: DubinsPath) -> Pose:
    x, y, th = _breakpoints(path)[-1]
    return Pose(Vec2(x, y), th)


def sample(path: DubinsPath, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and headings (x, y, heading in [0, 2pi)) after the arc
    lengths ``s`` along the path."""
    s = np.asarray(s, dtype=float)
    total = path.length
    outside = (s < -_POSE_EPS) | (s > total + max(1e-9, 1e-12 * total))
    if outside.any():
        raise ValueError(f"arc length {s[outside].flat[0]} outside [0, {total}]")
    rest = np.clip(s, 0.0, total)
    states = _breakpoints(path)
    # Lengths that rounding puts past the last segment keep the end state.
    x, y, th = (np.full(s.shape, value) for value in states[-1])
    todo = np.ones(s.shape, dtype=bool)
    for start, kind, length in zip(states, path.word.value, path.segment_lengths):
        here = todo & (rest <= length)
        x[here], y[here], th[here] = _advance(
            *start, kind, rest[here], path.turn_radius, np
        )
        todo &= ~here
        rest = rest - length
    return x, y, np.mod(th, TWO_PI)


def _angle_diff(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def shortest_path(a: Pose, b: Pose, r_turn: float) -> DubinsPath:
    """Minimum-length bounded-curvature path from ``a`` to ``b``."""
    if not r_turn > 0:
        raise ValueError(f"turn radius must be positive, got {r_turn}")
    dx = b.position.x - a.position.x
    dy = b.position.y - a.position.y
    dist = math.hypot(dx, dy)
    scale = max(1.0, dist, r_turn)
    if dist <= _POSE_EPS * scale and _angle_diff(a.heading, b.heading) <= 1e-12:
        return DubinsPath(DubinsWord.LSL, (0.0, 0.0, 0.0), r_turn, a)

    theta = math.atan2(dy, dx)
    alpha = mod2pi(a.heading - theta)
    beta = mod2pi(b.heading - theta)
    d = dist / r_turn

    best: DubinsPath | None = None
    best_len = math.inf
    tol = 1e-9 * scale
    for word in _WORD_ORDER:
        tpq = _SOLVERS[word](alpha, beta, d)
        if tpq is None:
            continue
        lengths = tuple(seg * r_turn for seg in tpq)
        candidate = DubinsPath(word, lengths, r_turn, a)
        total = candidate.length
        if total >= best_len:
            continue
        end = path_end(candidate)
        if (
            end.position.dist(b.position) <= tol
            and _angle_diff(end.heading, b.heading) <= 1e-9
        ):
            best = candidate
            best_len = total
    if best is None:
        # All six closed forms exist for every pose pair; reaching this means
        # a verification tolerance failure, which is a bug worth surfacing.
        raise PlanningError(f"no verified Dubins word connects {a} to {b}")
    return best


# ---------------------------------------------------------------------------
# loiter transitions


def loiter_pose(circle: LoiterCircle, phase: float) -> Pose:
    """Pose of a UAV loitering CCW on ``circle`` at the given phase angle."""
    return Pose(circle.point_at(phase), mod2pi(phase + 0.5 * math.pi))


def plan_transition(
    uav_id: int,
    source: LoiterCircle,
    start_phase: float,
    target: LoiterCircle,
    r_turn: float,
    v: float,
    base_delay: float = 0.0,
) -> TransitionPlan:
    """Plan a tangential break-off/join-in transfer between loiter circles.

    The UAV loiters on the source through ``base_delay`` seconds, departs
    tangentially, and must arrive tangentially on the target at the phase the
    synchronized fleet clock (advancing at the target rate) will show at the
    arrival instant. Solved by fixed-point iteration over the arrival time;
    non-convergent geometries retry with the departure postponed, first by
    one full target period, then by fractional-period offsets.
    """
    if not v > 0:
        raise ValueError(f"speed must be positive, got {v}")
    if base_delay < 0:
        raise ValueError(f"base delay must be >= 0, got {base_delay}")
    if r_turn > min(source.radius, target.radius) + 1e-12:
        raise PlanningError(
            f"transit turn radius {r_turn} exceeds a loiter radius "
            f"(source {source.radius}, target {target.radius})"
        )
    omega_src = v / source.radius
    omega_tgt = v / target.radius
    target_period = TWO_PI / omega_tgt
    tol = min(SYNC_TOL, SYNC_TOL / omega_tgt)

    def build_plan(delay, break_phase, join_phase, path, arrival):
        return TransitionPlan(
            uav_id=uav_id,
            source=source,
            target=target,
            start_phase=mod2pi(start_phase),
            break_off_phase=break_phase,
            depart_delay=delay,
            path=path,
            join_phase=join_phase,
            arrival_time=arrival,
        )

    # Attempt schedule: the nominal delay, the one-period extension, then
    # fractional-period jitters. The jitters matter when the arrival-time
    # equation jumps across zero at a discontinuity of the path length (the
    # jump recurs every lap for a fixed delay, so only a delay shift helps).
    offsets = [0.0, 1.0] + [k / 8.0 for k in range(1, 8)] + [1.0 + k / 8.0 for k in range(1, 8)]
    for offset in offsets:
        delay = base_delay + offset * target_period
        break_phase = mod2pi(start_phase + omega_src * delay)
        depart = loiter_pose(source, break_phase)

        def arrival_for(t):
            join_phase = mod2pi(start_phase + omega_tgt * t)
            path = shortest_path(depart, loiter_pose(target, join_phase), r_turn)
            return delay + path.length / v, join_phase, path

        t = delay
        for _ in range(MAX_SYNC_ITERATIONS):
            t_new, join_phase, path = arrival_for(t)
            if abs(t_new - t) < tol:
                return build_plan(delay, break_phase, join_phase, path, t_new)
            t = t_new

        # The plain iteration can oscillate when the goal pose swings the
        # path length faster than the phase clock; fall back to bisecting
        # the same arrival-time equation g(t) = arrival_for(t) - t, which
        # starts non-negative at t = delay and goes negative once t exceeds
        # every reachable path time.
        t_lo = delay
        g_lo = arrival_for(t_lo)[0] - t_lo
        t_hi, g_hi = t_lo, g_lo
        probe_step = target_period / 8.0
        for _ in range(256):
            if g_hi <= 0.0:
                break
            t_lo, g_lo = t_hi, g_hi
            t_hi = t_hi + probe_step
            g_hi = arrival_for(t_hi)[0] - t_hi
        if g_hi <= 0.0:
            for _ in range(200):
                t_mid = 0.5 * (t_lo + t_hi)
                t_new, join_phase, path = arrival_for(t_mid)
                g_mid = t_new - t_mid
                if abs(g_mid) < tol:
                    return build_plan(delay, break_phase, join_phase, path, t_new)
                if g_mid > 0.0:
                    t_lo = t_mid
                else:
                    t_hi = t_mid
    raise PlanningError(
        f"transition for UAV {uav_id} did not phase-synchronize within "
        f"{MAX_SYNC_ITERATIONS} iterations over {len(offsets)} departure delays"
    )


def _loiter(circle: LoiterCircle, phase: float, dt: np.ndarray, v: float):
    """(x, y, heading) of a CCW loiterer ``dt`` seconds after it showed ``phase``."""
    phase = phase + (v / circle.radius) * dt
    return (
        circle.center.x + circle.radius * np.cos(phase),
        circle.center.y + circle.radius * np.sin(phase),
        np.mod(phase + 0.5 * math.pi, TWO_PI),
    )


def track(plan: TransitionPlan, times, v: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and headings (x, y, heading) of a transiting UAV at the given
    absolute times: loiter on the source before ``depart_delay``, fly the
    Dubins path until ``arrival_time``, then loiter on the target."""
    times = np.asarray(times, dtype=float)
    x, y, heading = np.empty_like(times), np.empty_like(times), np.empty_like(times)
    before = times < plan.depart_delay
    during = ~before & (times < plan.arrival_time)
    after = ~before & ~during
    x[before], y[before], heading[before] = _loiter(
        plan.source, plan.start_phase, times[before], v
    )
    s = np.minimum(v * (times[during] - plan.depart_delay), plan.path.length)
    x[during], y[during], heading[during] = sample(plan.path, s)
    x[after], y[after], heading[after] = _loiter(
        plan.target, plan.join_phase, times[after] - plan.arrival_time, v
    )
    return x, y, heading


def _timeline(plans, loitering, v: float, dt: float) -> np.ndarray:
    t_end = max((p.arrival_time for p in plans), default=0.0)
    radii = [p.target.radius for p in plans] + [c.radius for c, _ in loitering]
    if radii:
        t_end += TWO_PI * max(radii) / v  # one steady-state period past last arrival
    n = max(2, int(math.ceil(t_end / dt)) + 1)
    return np.linspace(0.0, t_end, n)


def closest_approach(plans, loitering=(), v: float = 1.0, dt: float = 0.25):
    """(distance, index_i, index_j) of the closest pair over the sampled timeline.

    ``loitering`` holds (circle, phase-at-t0) pairs for UAVs that stay on
    their circles; indices run over plans first, then loitering entries.
    Ties go to the lexicographically first pair. Returns (inf, -1, -1) when
    fewer than two UAVs are involved.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    plans = list(plans)
    loitering = list(loitering)
    n = len(plans) + len(loitering)
    if n < 2:
        return math.inf, -1, -1
    times = _timeline(plans, loitering, v, dt)
    xs = np.empty((n, times.size))
    ys = np.empty((n, times.size))
    for k, plan in enumerate(plans):
        xs[k], ys[k], _ = track(plan, times, v)
    for k, (circle, phase) in enumerate(loitering, start=len(plans)):
        xs[k], ys[k], _ = _loiter(circle, phase, times, v)
    best = (math.inf, -1, -1)
    for i in range(n - 1):
        dx = xs[i + 1 :] - xs[i]
        dy = ys[i + 1 :] - ys[i]
        # Per-pair minima against every j > i; argmin keeps the first j on ties.
        d_min = np.sqrt((dx * dx + dy * dy).min(axis=1))
        k = int(d_min.argmin())
        if d_min[k] < best[0]:
            best = (float(d_min[k]), i, i + 1 + k)
    return best
