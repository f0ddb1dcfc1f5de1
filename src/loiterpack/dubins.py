"""Bounded-curvature shortest paths and phase-synchronized loiter transitions.

Shortest paths are the classical six-word family (LSL, LSR, RSL, RSR, RLR,
LRL) solved in the radius-normalized frame. Candidate words are verified by
forward application, shortest first, and the first that reaches the goal
wins, so a numerically degenerate branch can never produce a path that misses
the goal pose.

``_shortest`` is that solve as a float kernel: poses in as (x, y, heading)
floats, the word index and the segment lengths out, with the forward walk
inlined. ``shortest_path`` is the object boundary around it (checks, then
the kernel, then a ``DubinsPath``). Transitions depart a source loiter
circle tangentially and join a target circle tangentially at a phase
consistent with the fleet-wide synchronized phase clock: ``plan_transition``
takes the root of the arrival-time equation that a forward scan with
Illinois refinement verifies in its first sign change (``_earliest_root``),
evaluating the kernel on floats, and builds the plan's one ``DubinsPath``
through ``shortest_path`` from the root's poses.

One numpy step, ``_step``, moves any number of states along a line or an
arc. ``_legs`` reads paths into arrays once and applies it three times for
each path's breakpoints; ``_walk`` applies it once more from the breakpoint
each sample falls after. ``track`` evaluates N planned transitions (loiter,
path, loiter) at one sorted array of times: it reads the plans once, each
plan's three parts are index ranges of the times, the loiter arcs are
evaluated over blocks of plans and the Dubins legs by ``_walk`` at the
in-flight samples only. ``sample`` is ``_walk`` on one path.
``closest_approach`` samples every UAV at once by ``_track_into`` and
evaluates only the pairs whose tracks' bounding boxes are near, found by
``geometry.pairs_within``, in one chunked array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PlanningError
from .geometry import LoiterCircle, Vec2, pairs_within

TWO_PI = 2.0 * math.pi

# Tolerance on the arrival-time residual g(t) = arrival(t) - t (seconds); also
# caps the join-phase residual via the target angular rate.
SYNC_TOL = 1e-6

# A bracket [a, b] of the arrival-time residual is skipped as a jump of the
# path length when |g(a)| + |g(b)| > JUMP_SLOPE * (b - a), in seconds of g per
# second of t: no continuous g that steep crosses zero inside it. The test can
# only skip a root, never accept one (acceptance is |g| < tolerance).
JUMP_SLOPE = 100.0

# Departure delays tried, in target periods after the base delay, in order.
DELAY_OFFSETS = tuple(k / 8.0 for k in range(16))

_POSE_EPS = 1e-12

# Most (UAV, sample) entries one separation check may hold: its position
# arrays are (UAVs, samples), and a crawling speed stretches the timeline.
MAX_SEPARATION_ENTRIES = 1 << 24

# At most this many (plan, time) entries per block of ``track`` (a block
# holds at least one plan), so its (plans, times) temporaries stay at 64 KB
# each. On the coverage-1km separation checks 2**13 was as fast as 2**14 and
# 2**15 at a lower tracemalloc peak (1.07 against 1.63 and 2.04 MiB median).
_TRACK_ENTRIES = 2**13


def mod2pi(angle: float) -> float:
    return angle % TWO_PI


class DubinsWord(Enum):
    LSL = "LSL"
    LSR = "LSR"
    RSL = "RSL"
    RSR = "RSR"
    RLR = "RLR"
    LRL = "LRL"


_WORD_ORDER = tuple(DubinsWord)

# The segment kinds of each word, looked up without the enum in the kernel.
_WORD_KINDS = tuple(word.value for word in _WORD_ORDER)

# Turn sign of each segment of each word, +1 left (CCW), -1 right and
# 0 straight, and 0 past the last segment.
_WORD_TURNS = {
    word: tuple({"L": 1.0, "S": 0.0, "R": -1.0}[kind] for kind in word.value) + (0.0,)
    for word in DubinsWord
}


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
        # Left to right on purpose: sum() rounds differently from Python 3.12.
        t, p, q = self.segment_lengths
        return t + p + q


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
# word solutions in the normalized frame (unit radius, start at origin heading
# alpha, goal at (d, 0) heading beta).


def _words(alpha: float, beta: float, d: float):
    """(t, p, q) segment lengths of each word in ``_WORD_ORDER``, or None
    where the word does not exist; the trigonometry is shared by all six.
    Angles are reduced with ``% TWO_PI`` inline, as ``mod2pi`` does."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    c_ab = math.cos(alpha - beta)
    dd = d * d
    # Shared by LSL and LRL, and by RSR and RLR.
    psi_l = math.atan2(cb - ca, d + sa - sb)
    psi_r = math.atan2(ca - cb, d - sa + sb)

    p_sq = 2.0 + dd - 2.0 * c_ab + 2.0 * d * (sa - sb)
    lsl = None if p_sq < 0.0 else ((psi_l - alpha) % TWO_PI, math.sqrt(p_sq), (beta - psi_l) % TWO_PI)

    p_sq = -2.0 + dd + 2.0 * c_ab + 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        lsr = None
    else:
        p = math.sqrt(p_sq)
        psi = math.atan2(-ca - cb, d + sa + sb) + math.atan2(2.0, p)
        lsr = ((psi - alpha) % TWO_PI, p, (psi - beta) % TWO_PI)

    p_sq = -2.0 + dd + 2.0 * c_ab - 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        rsl = None
    else:
        p = math.sqrt(p_sq)
        psi = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        rsl = ((alpha - psi) % TWO_PI, p, (beta - psi) % TWO_PI)

    p_sq = 2.0 + dd - 2.0 * c_ab + 2.0 * d * (sb - sa)
    rsr = None if p_sq < 0.0 else ((alpha - psi_r) % TWO_PI, math.sqrt(p_sq), (psi_r - beta) % TWO_PI)

    cos_mid = (6.0 - dd + 2.0 * c_ab + 2.0 * d * (sa - sb)) / 8.0
    if abs(cos_mid) > 1.0:
        rlr = None
    else:
        p = (TWO_PI - math.acos(cos_mid)) % TWO_PI
        t = (alpha - psi_r + 0.5 * p) % TWO_PI
        rlr = (t, p, (alpha - beta - t + p) % TWO_PI)

    cos_mid = (6.0 - dd + 2.0 * c_ab + 2.0 * d * (sb - sa)) / 8.0
    if abs(cos_mid) > 1.0:
        lrl = None
    else:
        p = (TWO_PI - math.acos(cos_mid)) % TWO_PI
        t = (psi_l - alpha + 0.5 * p) % TWO_PI
        lrl = (t, p, (beta - alpha - t + p) % TWO_PI)

    return lsl, lsr, rsl, rsr, rlr, lrl


def _step(x, y, th, turn, along, r):
    """State after ``along`` from (x, y, th) on a segment that turns ``turn``
    (+1 left, -1 right, 0 straight) at radius ``r``; arrays broadcast.

    Arcs are exact, no integration. Left and right share one expression:
    negating ``r`` and ``phi`` is exact, so ``x + (-r) * d`` is ``x - r * d``
    bit for bit. A zero ``along`` keeps the state."""
    cos_th, sin_th = np.cos(th), np.sin(th)
    heading = th + turn * (along / r)
    signed_r = turn * r
    straight = turn == 0.0
    return (
        np.where(straight, x + along * cos_th, x + signed_r * (np.sin(heading) - sin_th)),
        np.where(straight, y + along * sin_th, y - signed_r * (np.cos(heading) - cos_th)),
        heading,
    )


def _legs(paths):
    """The N ``paths`` as arrays, read in one pass: (states, turns, lengths,
    radii). ``states`` (3, N, 4) holds (x, y, heading) at each segment start
    and at the end, three ``_step`` applications from the start pose;
    ``turns`` (N, 4) is each segment's turn sign and 0 past the end,
    ``lengths`` (N, 3) the segment lengths and ``radii`` (N,) the turn
    radii."""
    rows = np.array(
        [
            (p.start.position.x, p.start.position.y, p.start.heading, *_WORD_TURNS[p.word])
            + (*p.segment_lengths, p.turn_radius)
            for p in paths
        ],
        dtype=float,
    ).reshape(-1, 11)
    turns, lengths, radii = rows[:, 3:7], rows[:, 7:10], rows[:, 10]
    states = np.empty((3, len(rows), 4))
    states[:, :, 0] = rows[:, :3].T
    for k in range(3):
        states[:, :, k + 1] = _step(*states[:, :, k], turns[:, k], lengths[:, k], radii)
    return states, turns, lengths, radii


def _walk(legs, owner: np.ndarray, s: np.ndarray):
    """(x, y, heading) after the arc lengths ``s`` (each in [0, length])
    along the paths ``owner`` of ``legs`` (``_legs``); the heading is not
    reduced to [0, 2pi), which callers that return it do.

    A length goes to the first segment it does not exceed, counting it down
    segment by segment, and is applied from that segment's start state by
    ``_step``; a length that rounding puts past the last segment keeps the
    end state.
    """
    states, turns, lengths, radii = legs
    segment = np.full(s.shape, 3)
    along = np.zeros_like(s)
    rest = s
    for k in range(3):
        length = lengths[owner, k]
        here = (segment == 3) & (rest <= length)
        segment[here] = k
        along[here] = rest[here]
        rest = rest - length
    x, y, th = _step(*states[:, owner, segment], turns[owner, segment], along, radii[owner])
    return x, y, th


def sample(path: DubinsPath, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and headings (x, y, heading in [0, 2pi)) after the arc
    lengths ``s`` along the path."""
    s = np.asarray(s, dtype=float)
    total = path.length
    inside = (s >= -_POSE_EPS) & (s <= total + max(1e-9, 1e-12 * total))
    if not inside.all():
        raise ValueError(f"arc length {s[~inside].flat[0]} outside [0, {total}]")
    rest = np.clip(s, 0.0, total).ravel()
    x, y, heading = _walk(_legs([path]), np.zeros(rest.shape, dtype=np.intp), rest)
    return x.reshape(s.shape), y.reshape(s.shape), np.mod(heading, TWO_PI).reshape(s.shape)


def _unverified(a: Pose, b: Pose) -> PlanningError:
    # All six closed forms exist for every pose pair; reaching this means
    # a verification tolerance failure, which is a bug worth surfacing.
    return PlanningError(f"no verified Dubins word connects {a} to {b}")


def _shortest(ax, ay, ah, bx, by, bh, r_turn):
    """(index into ``_WORD_ORDER``, (t, p, q) segment lengths) of the
    minimum-length path from pose (ax, ay, ah) to pose (bx, by, bh), headings
    in [0, 2pi) and ``r_turn`` > 0, or None when no word verifies.

    Shortest first, the earlier word on equal lengths: the first candidate
    whose forward walk reaches the goal is the shortest verified word. The
    walk is ``_step``'s arithmetic on scalars, inlined with one sine and
    cosine per turn, so the hot loop makes no call per segment."""
    dx = bx - ax
    dy = by - ay
    dist = math.hypot(dx, dy)
    scale = max(1.0, dist, r_turn)
    if dist <= _POSE_EPS * scale and abs((ah - bh + math.pi) % TWO_PI - math.pi) <= 1e-12:
        return 0, (0.0, 0.0, 0.0)

    theta = math.atan2(dy, dx)
    candidates = []
    words = _words((ah - theta) % TWO_PI, (bh - theta) % TWO_PI, dist / r_turn)
    for k, tpq in enumerate(words):
        if tpq is not None:
            t, p, q = tpq[0] * r_turn, tpq[1] * r_turn, tpq[2] * r_turn
            candidates.append((t + p + q, k, (t, p, q)))
    candidates.sort()
    tol = 1e-9 * scale
    sin0, cos0 = math.sin(ah), math.cos(ah)
    for _, k, lengths in candidates:
        x, y, th, sin_th, cos_th = ax, ay, ah, sin0, cos0
        for kind, length in zip(_WORD_KINDS[k], lengths):
            if length > 0.0:
                if kind == "S":
                    x, y = x + length * cos_th, y + length * sin_th
                    continue
                end = th + length / r_turn if kind == "L" else th - length / r_turn
                sin_end, cos_end = math.sin(end), math.cos(end)
                if kind == "L":
                    x, y = x + r_turn * (sin_end - sin_th), y - r_turn * (cos_end - cos_th)
                else:
                    x, y = x - r_turn * (sin_end - sin_th), y + r_turn * (cos_end - cos_th)
                th, sin_th, cos_th = end, sin_end, cos_end
        if (
            math.hypot(x - bx, y - by) <= tol
            and abs((th % TWO_PI - bh + math.pi) % TWO_PI - math.pi) <= 1e-9
        ):
            return k, lengths
    return None


def shortest_path(a: Pose, b: Pose, r_turn: float) -> DubinsPath:
    """Minimum-length bounded-curvature path from ``a`` to ``b``."""
    if not r_turn > 0:
        raise ValueError(f"turn radius must be positive, got {r_turn}")
    found = _shortest(
        a.position.x, a.position.y, a.heading, b.position.x, b.position.y, b.heading, r_turn
    )
    if found is None:
        raise _unverified(a, b)
    return DubinsPath(_WORD_ORDER[found[0]], found[1], r_turn, a)


# ---------------------------------------------------------------------------
# loiter transitions


def _check_speed(v: float) -> None:
    if not (v > 0 and math.isfinite(v)):
        raise ValueError(f"speed must be positive and finite, got {v}")


def loiter_pose(circle: LoiterCircle, phase: float) -> Pose:
    """Pose of a UAV loitering CCW on ``circle`` at the given phase angle."""
    return Pose(circle.point_at(phase), mod2pi(phase + 0.5 * math.pi))


def _earliest_root(arrival, t0: float, t_max: float, step: float, tol: float):
    """(c, arrival(c)) at the root of g(t) = arrival(t) - t on [t0, t_max]
    that the scan finds, or None.

    g is scanned at t0 + k * step until a point at or past ``t_max``; a point
    with |g| < ``tol`` is the root. The first sign change between
    neighbouring points is refined by the Illinois method (Dowell & Jarratt
    1971), a regula falsi that halves the function value of an end kept
    twice in a row, and accepted only at |g| < ``tol``. A bracket whose true
    g values fail the ``JUMP_SLOPE`` test straddles a jump of the path
    length, and one that cannot shrink in floating point holds no root
    either; the scan then ends with None.

    No later bracket can hold a root, because g never increases: the target
    loiter arc of length v (t' - t) appended to the shortest path to the join
    pose of t reaches the join pose of t' > t (the clock moves the join pose
    along the circle at speed v), with turns no tighter than the target
    radius >= r_turn (``plan_transition`` checks it), so L(t') <= L(t) +
    v (t' - t). Since g(t0) = L(t0) / v >= 0, the first sign change is the
    only one.
    """
    a, arr_a = t0, arrival(t0)
    k = 0
    while abs(arr_a - a) >= tol:
        if a >= t_max:
            return None
        k += 1
        b = t0 + k * step
        arr_b = arrival(b)
        g_a, g_b = arr_a - a, arr_b - b
        if abs(g_b) >= tol and (g_a < 0.0) != (g_b < 0.0):
            return _illinois(arrival, a, g_a, b, g_b, tol)
        a, arr_a = b, arr_b
    return a, arr_a


def _illinois(arrival, a: float, g_a: float, b: float, g_b: float, tol: float):
    """(c, arrival(c)) with |g(c)| < ``tol`` inside the sign-change bracket
    (a, b) of g(t) = arrival(t) - t, or None at a jump."""
    f_a, f_b = g_a, g_b  # g at the ends, halved where Illinois keeps an end
    kept = 0  # +1 when a moved last, -1 when b moved last
    while abs(g_a) + abs(g_b) <= JUMP_SLOPE * (b - a):
        c = b - f_b * (b - a) / (f_b - f_a)
        if not a < c < b:
            return None  # the bracket cannot shrink
        arr_c = arrival(c)
        g_c = arr_c - c
        if abs(g_c) < tol:
            return c, arr_c
        if (g_c < 0.0) == (g_b < 0.0):
            b, g_b, f_b = c, g_c, g_c
            if kept == -1:
                f_a *= 0.5
            kept = -1
        else:
            a, g_a, f_a = c, g_c, g_c
            if kept == 1:
                f_b *= 0.5
            kept = 1
    return None


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

    The UAV loiters on the source through a departure delay, departs
    tangentially, and must arrive tangentially on the target at the phase the
    synchronized fleet clock (advancing at the target rate) will show at the
    arrival instant: a root of g(t) = delay + L(t) / v - t, where L(t) is the
    shortest path to the join pose the clock shows at t.

    For each delay, ``base_delay`` plus ``DELAY_OFFSETS`` target periods in
    increasing order, the earliest root is sought by ``_earliest_root`` at a
    pitch of one eighth of the target period, up to the horizon past which no
    root exists: a CSC path of at most |c_src - c_tgt| + r_src + r_tgt +
    (2 + 4 pi) r_turn joins any pose of one circle to any pose of the other,
    so g < 0 beyond delay plus that length over v. The first delay with a
    root gives the plan. At the root c the join phase is the clock's at c and
    the arrival time is delay + L(c) / v, within the tolerance of c.

    A delay can have no root only where g jumps across zero at a
    discontinuity of the path length; the jump recurs every lap for one
    delay, so only a delay shift helps.

    Each evaluation is one ``_shortest`` call on floats; the goal pose is
    ``loiter_pose``'s arithmetic inlined, so the root's poses rebuilt as
    ``Pose`` objects give ``shortest_path`` the same path.
    """
    _check_speed(v)
    if base_delay < 0:
        raise ValueError(f"base delay must be >= 0, got {base_delay}")
    if r_turn > min(source.radius, target.radius) + 1e-12:
        raise PlanningError(
            f"transit turn radius {r_turn} exceeds a loiter radius "
            f"(source {source.radius}, target {target.radius})"
        )
    if not r_turn > 0:
        raise ValueError(f"turn radius must be positive, got {r_turn}")
    omega_src = v / source.radius
    omega_tgt = v / target.radius
    target_period = TWO_PI / omega_tgt
    tol = min(SYNC_TOL, SYNC_TOL / omega_tgt)
    cx, cy, radius = target.center.x, target.center.y, target.radius
    reach = source.center.dist(target.center) + source.radius + radius + (2.0 + 4.0 * math.pi) * r_turn

    for offset in DELAY_OFFSETS:
        delay = base_delay + offset * target_period
        break_phase = mod2pi(start_phase + omega_src * delay)
        depart = loiter_pose(source, break_phase)
        ax, ay, ah = depart.position.x, depart.position.y, depart.heading

        def arrival_for(t):
            """Arrival time for the guessed arrival ``t``."""
            join_phase = (start_phase + omega_tgt * t) % TWO_PI
            found = _shortest(
                ax,
                ay,
                ah,
                cx + radius * math.cos(join_phase),
                cy + radius * math.sin(join_phase),
                (join_phase + 0.5 * math.pi) % TWO_PI,
                r_turn,
            )
            if found is None:
                raise _unverified(depart, loiter_pose(target, join_phase))
            t_seg, p_seg, q_seg = found[1]
            return delay + (t_seg + p_seg + q_seg) / v

        root = _earliest_root(arrival_for, delay, delay + reach / v, target_period / 8.0, tol)
        if root is not None:
            c, arrival = root
            join_phase = (start_phase + omega_tgt * c) % TWO_PI
            return TransitionPlan(
                uav_id=uav_id,
                source=source,
                target=target,
                start_phase=mod2pi(start_phase),
                break_off_phase=break_phase,
                depart_delay=delay,
                path=shortest_path(depart, loiter_pose(target, join_phase), r_turn),
                join_phase=join_phase,
                arrival_time=arrival,
            )
    raise PlanningError(
        f"transition for UAV {uav_id} did not phase-synchronize over "
        f"{len(DELAY_OFFSETS)} departure delays"
    )


def _loiter(cx, cy, radius, phase, dt, v: float):
    """(x, y, heading) of a CCW loiterer on the circle (cx, cy, radius)
    ``dt`` seconds after it showed ``phase``; arrays broadcast. The heading
    is not reduced to [0, 2pi), as in ``_walk``."""
    phase = phase + (v / radius) * dt
    return cx + radius * np.cos(phase), cy + radius * np.sin(phase), phase + 0.5 * math.pi


def track(plans, times, v: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, T) positions and headings (x, y, heading) of N transiting UAVs at
    the sorted, finite absolute times ``times`` and the speed ``v``: each
    loiters on its source before ``depart_delay``, flies its Dubins path
    until ``arrival_time``, then loiters on its target.
    """
    _check_speed(v)
    plans = list(plans)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all() or (np.diff(times) < 0.0).any():
        raise ValueError("track needs a sorted 1-D array of finite times")
    shape = (len(plans), times.size)
    x, y, heading = np.empty(shape), np.empty(shape), np.empty(shape)
    _track_into(plans, times, v, x, y, heading)
    return x, y, heading


def _track_into(plans, times: np.ndarray, v: float, x, y, heading=None) -> None:
    """``track`` written into the (N, T) arrays ``x``, ``y`` and, unless it
    is None, ``heading``; the only full-size arrays are the caller's.

    The plans are read once: their circles, phases and times into one
    (N, 10) array, their paths by ``_legs``. Times are sorted, so each plan's
    three parts are index ranges. Plans go in blocks of at most
    ``_TRACK_ENTRIES`` (plan, time) entries: the loiter arcs of a block are
    one array expression over the whole block, and its Dubins legs are one
    ``_walk`` over its in-flight samples. Headings are reduced to [0, 2pi)
    only when ``heading`` is given: the separation check needs none.
    """
    ends = np.array(
        [
            (p.source.center.x, p.source.center.y, p.source.radius)
            + (p.target.center.x, p.target.center.y, p.target.radius)
            + (p.start_phase, p.join_phase, p.depart_delay, p.arrival_time)
            for p in plans
        ],
        dtype=float,
    ).reshape(-1, 10)
    legs = _legs([p.path for p in plans])
    lengths = legs[2]
    total = lengths[:, 0] + lengths[:, 1] + lengths[:, 2]  # as ``DubinsPath.length``
    rows = max(1, _TRACK_ENTRIES // max(1, times.size))
    for first in range(0, len(plans), rows):
        block = slice(first, first + rows)
        sx, sy, sr, tx, ty, tr, start, join_phase, depart, arrive = ends[block].T[:, :, None]
        # Samples [0, leave) are on the source, [leave, land) in flight, the
        # rest on the target.
        leave = np.searchsorted(times, depart[:, 0])
        land = np.maximum(leave, np.searchsorted(times, arrive[:, 0]))
        on_source = np.arange(times.size) < leave[:, None]
        bx, by, bh = _loiter(
            np.where(on_source, sx, tx),
            np.where(on_source, sy, ty),
            np.where(on_source, sr, tr),
            np.where(on_source, start, join_phase),
            np.where(on_source, times, times - arrive),
            v,
        )
        counts = land - leave
        owner = np.repeat(np.arange(len(counts)), counts)
        if owner.size:
            starts = np.cumsum(counts) - counts
            cols = np.arange(owner.size) - np.repeat(starts - leave, counts)
            s = np.minimum(v * (times[cols] - depart[owner, 0]), total[first + owner])
            bx[owner, cols], by[owner, cols], bh[owner, cols] = _walk(legs, first + owner, s)
        x[block], y[block] = bx, by
        if heading is not None:
            heading[block] = np.mod(bh, TWO_PI)


def _timeline(plans, loitering, v: float, dt: float) -> np.ndarray:
    """Sample times of ``closest_approach``; raises ``ValueError`` before
    allocating when the (UAVs, samples) arrays would exceed
    ``MAX_SEPARATION_ENTRIES`` (or the timeline is not finite)."""
    t_end = max((p.arrival_time for p in plans), default=0.0)
    radii = [p.target.radius for p in plans] + [c.radius for c, _ in loitering]
    if radii:
        t_end += TWO_PI * max(radii) / v  # one steady-state period past last arrival
    entries = len(radii) * (t_end / dt + 2.0)
    if not entries <= MAX_SEPARATION_ENTRIES:
        raise ValueError(
            f"a separation check of {len(radii)} UAVs over {t_end} s at dt {dt} s exceeds "
            f"the limit of {MAX_SEPARATION_ENTRIES} (UAV, sample) entries"
        )
    n = max(2, int(math.ceil(t_end / dt)) + 1)
    return np.linspace(0.0, t_end, n)


def closest_approach(plans, loitering=(), v: float = 1.0, dt: float = 0.25):
    """(distance, index_i, index_j) of the closest pair over the sampled timeline.

    ``loitering`` holds (circle, phase-at-t0) pairs for UAVs that stay on
    their circles; indices run over plans first, then loitering entries.
    Ties go to the lexicographically first pair. Returns (inf, -1, -1) when
    fewer than two UAVs are involved.

    Only near pairs are evaluated. Each UAV's samples lie in a bounding box,
    and the gap between two boxes, taken with the same subtract, square, add
    and sqrt steps as a sampled distance, is by monotone rounding at most
    every sampled distance of the pair. ``pairs_within`` finds the pairs of
    overlapping boxes, whose smallest sampled distance bounds the answer,
    then every other pair whose box gap is within that bound (with no
    overlapping boxes, every pair). Any pair left out is farther apart than
    the answer at every sample.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_speed(v)
    plans = list(plans)
    loitering = list(loitering)
    n = len(plans) + len(loitering)
    if n < 2:
        return math.inf, -1, -1
    times = _timeline(plans, loitering, v, dt)
    xs, ys = np.empty((n, times.size)), np.empty((n, times.size))
    _track_into(plans, times, v, xs[: len(plans)], ys[: len(plans)])
    for k, (c, phase) in enumerate(loitering, start=len(plans)):
        xs[k], ys[k], _ = _loiter(c.center.x, c.center.y, c.radius, phase, times, v)
    x0, x1, y0, y1 = xs.min(axis=1), xs.max(axis=1), ys.min(axis=1), ys.max(axis=1)
    first, second = pairs_within(x0, y0, x1, y1, 0.0)
    d = _pair_minima(xs, ys, first, second)
    bound = float(d.min(initial=math.inf))
    # The sweep's window and np.hypot round; its gap is widened so that they
    # cannot drop a pair, and the box gap below decides exactly.
    extent = max(-float(x0.min()), float(x1.max()), -float(y0.min()), float(y1.max()), 0.0)
    a, b = pairs_within(x0, y0, x1, y1, bound + 1e-9 * (bound + extent))
    gap_x = np.maximum(np.maximum(x0[b] - x1[a], x0[a] - x1[b]), 0.0)
    gap_y = np.maximum(np.maximum(y0[b] - y1[a], y0[a] - y1[b]), 0.0)
    # Overlapping boxes were evaluated above.
    keep = ((gap_x > 0.0) | (gap_y > 0.0)) & (np.sqrt(gap_x * gap_x + gap_y * gap_y) <= bound)
    first = np.concatenate((first, a[keep]))
    second = np.concatenate((second, b[keep]))
    d = np.concatenate((d, _pair_minima(xs, ys, a[keep], b[keep])))
    lo, hi = np.minimum(first, second), np.maximum(first, second)
    tied = np.flatnonzero(d == d.min())
    k = tied[np.argmin(lo[tied] * n + hi[tied])]
    return float(d[k]), int(lo[k]), int(hi[k])


def _pair_minima(xs, ys, first, second) -> np.ndarray:
    """Smallest sampled distance of each pair of rows (first[k], second[k])
    of the (N, T) positions ``xs``, ``ys``, over at most ``_TRACK_ENTRIES``
    (pair, sample) entries at a time."""
    d2 = np.empty(first.size)
    rows = max(1, _TRACK_ENTRIES // xs.shape[1])
    for k in range(0, first.size, rows):
        i, j = first[k : k + rows], second[k : k + rows]
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        dx *= dx
        dy *= dy
        dx += dy
        dx.min(axis=1, out=d2[k : k + rows])
    return np.sqrt(d2)
