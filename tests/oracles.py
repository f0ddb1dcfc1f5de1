"""Independent oracles the tests check the library against.

Most oracles re-derive their result from first principles with no shared
code: numeric quadrature for lens areas, a literal marching rule for
placement counts, a discretized control-space search for shortest
bounded-curvature paths, scalar segment walks for transition tracks,
per-point coverage predicates and dense points x circles kernels for the
grid fractions, union-find for clusters and permutation search for
assignments. The rest keep an earlier, simpler version of an optimized
routine (the Dubins solver, the all-pairs comm graph, the sweep over points
and the scalar assignment cost matrix), so a test can require the same
result bit for bit. The arrival-time oracle is a plain fine-pitch
scan with bisection, for the earliest root the library's coarser scan should
find.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment

# The Dubins oracles build the library's path and plan types, so results
# compare with ``==``.
from loiterpack.dubins import (
    _WORD_ORDER,
    DELAY_OFFSETS,
    SYNC_TOL,
    DubinsPath,
    DubinsWord,
    Pose,
    TransitionPlan,
    loiter_pose,
)
from loiterpack.errors import PlanningError
from loiterpack.geometry import Vec2

TWO_PI = 2.0 * math.pi

# Boundary slack of the coverage predicates (meters), as in the library.
BOUNDARY_TOL = 1e-9


def lens_area_quad(d: float, r: float) -> float:
    """Circle-circle intersection area by quadrature of the chord height."""
    if d >= 2 * r:
        return 0.0
    # Each circle contributes the segment beyond the midline x = d/2.
    segment, _ = quad(lambda x: 2.0 * math.sqrt(max(r * r - x * x, 0.0)), d / 2.0, r)
    return 2.0 * segment


def count_hexagon_placement(x_extent: float, y_extent: float, r: float) -> int:
    """March hexagon centers exactly as described: first row starts at
    (r cos pi/6, r sin pi/6), second row at x=0 and 3r/2 higher, rows
    alternate; a center is added while the tiled span leaves any uncovered
    strip (tolerance 1e-9)."""
    width = math.sqrt(3.0) * r
    total = 0
    y = r * math.sin(math.pi / 6.0)
    row_index = 0
    while True:
        x = r * math.cos(math.pi / 6.0) if row_index % 2 == 0 else 0.0
        n = 1
        while x + width / 2.0 < x_extent - 1e-9:
            x += width
            n += 1
        total += n
        if y + r >= y_extent - 1e-9:
            break
        y += 1.5 * r
        row_index += 1
    return total


def count_square_placement(x_extent: float, y_extent: float, r: float) -> int:
    half = r / math.sqrt(2.0)
    def axis(extent: float) -> int:
        pos = half
        n = 1
        while pos + half < extent - 1e-9:
            pos += 2.0 * half
            n += 1
        return n
    return axis(x_extent) * axis(y_extent)


def dubins_discretized_length(a, b, r: float, n_grid: int = 200_000) -> float:
    """Shortest bounded-curvature length by marching the first turn angle.

    For each turn-direction program (CSC and CCC families) the first arc
    angle is discretized; heading closure fixes the remaining angles and a
    residual check accepts geometrically consistent programs. Entirely
    independent of the closed-form word identities.
    """
    ax, ay, ah = a
    bx, by, bh = b
    step = TWO_PI / n_grid
    t = np.arange(n_grid) * step
    best = math.inf
    for s1 in (+1, -1):  # +1 turns left, -1 turns right
        h1 = ah + s1 * t
        c1x = ax - s1 * r * math.sin(ah)
        c1y = ay + s1 * r * math.cos(ah)
        p1x = c1x + s1 * r * np.sin(h1)
        p1y = c1y - s1 * r * np.cos(h1)
        for s2 in (+1, -1):
            # CSC: straight keeps heading h1; final arc closes the heading.
            q = (s2 * (bh - h1)) % TWO_PI
            c2x = bx - s2 * r * math.sin(bh)
            c2y = by + s2 * r * math.cos(bh)
            p2x = c2x + s2 * r * np.sin(bh - s2 * q)
            p2y = c2y - s2 * r * np.cos(bh - s2 * q)
            dx = p2x - p1x
            dy = p2y - p1y
            dist = np.hypot(dx, dy)
            residual = np.abs(dx - dist * np.cos(h1)) + np.abs(dy - dist * np.sin(h1))
            ok = residual < 3.0 * step * (r + dist)
            if ok.any():
                lengths = (t[ok] + q[ok]) * r + dist[ok]
                best = min(best, float(lengths.min()))
        # CCC: middle circle on the opposite side, tangent to the goal circle.
        sm = -s1
        cmx = p1x - sm * r * np.sin(h1)
        cmy = p1y + sm * r * np.cos(h1)
        cfx = bx - s1 * r * math.sin(bh)
        cfy = by + s1 * r * math.cos(bh)
        dcm = np.hypot(cfx - cmx, cfy - cmy)
        ok = np.abs(dcm - 2.0 * r) < 3.0 * step * 4.0 * r
        if ok.any():
            entry = np.arctan2(p1y[ok] - cmy[ok], p1x[ok] - cmx[ok])
            exit_ = np.arctan2(cfy - cmy[ok], cfx - cmx[ok])
            p_mid = ((exit_ - entry) * sm) % TWO_PI
            h_exit = h1[ok] + sm * p_mid
            q_f = (s1 * (bh - h_exit)) % TWO_PI
            tangent_x = cmx[ok] + r * np.cos(exit_)
            tangent_y = cmy[ok] + r * np.sin(exit_)
            final_x = cfx + s1 * r * np.sin(h_exit)
            final_y = cfy - s1 * r * np.cos(h_exit)
            residual = np.hypot(final_x - tangent_x, final_y - tangent_y)
            ok2 = residual < 3.0 * step * 8.0 * r
            if ok2.any():
                lengths = (t[ok][ok2] + p_mid[ok2] + q_f[ok2]) * r
                best = min(best, float(lengths.min()))
    return best


# ---------------------------------------------------------------------------
# The Dubins solver as first written: one function per word, each with its
# own trigonometry, tried in word order and kept when shorter than the best
# verified word so far; and the arrival-time solver that runs every loop to
# its cap. The library must return the same paths and plans, bit for bit.


def mod2pi(angle):
    return angle % TWO_PI


def _angle_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _lsl(alpha, beta, d):
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(alpha) - math.sin(beta))
    if p_sq < 0.0:
        return None
    psi = math.atan2(math.cos(beta) - math.cos(alpha), d + math.sin(alpha) - math.sin(beta))
    return mod2pi(psi - alpha), math.sqrt(p_sq), mod2pi(beta - psi)


def _rsr(alpha, beta, d):
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(beta) - math.sin(alpha))
    if p_sq < 0.0:
        return None
    psi = math.atan2(math.cos(alpha) - math.cos(beta), d - math.sin(alpha) + math.sin(beta))
    return mod2pi(alpha - psi), math.sqrt(p_sq), mod2pi(psi - beta)


def _lsr(alpha, beta, d):
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(alpha) + math.sin(beta))
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    psi = math.atan2(-math.cos(alpha) - math.cos(beta), d + math.sin(alpha) + math.sin(beta)) + math.atan2(2.0, p)
    return mod2pi(psi - alpha), p, mod2pi(psi - beta)


def _rsl(alpha, beta, d):
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) - 2.0 * d * (math.sin(alpha) + math.sin(beta))
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    psi = math.atan2(math.cos(alpha) + math.cos(beta), d - math.sin(alpha) - math.sin(beta)) - math.atan2(2.0, p)
    return mod2pi(alpha - psi), p, mod2pi(beta - psi)


def _rlr(alpha, beta, d):
    cos_mid = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(alpha) - math.sin(beta))) / 8.0
    if abs(cos_mid) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(cos_mid))
    psi = math.atan2(math.cos(alpha) - math.cos(beta), d - math.sin(alpha) + math.sin(beta))
    t = mod2pi(alpha - psi + 0.5 * p)
    return t, p, mod2pi(alpha - beta - t + p)


def _lrl(alpha, beta, d):
    cos_mid = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (math.sin(beta) - math.sin(alpha))) / 8.0
    if abs(cos_mid) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(cos_mid))
    psi = math.atan2(math.cos(beta) - math.cos(alpha), d + math.sin(alpha) - math.sin(beta))
    t = mod2pi(psi - alpha + 0.5 * p)
    return t, p, mod2pi(beta - alpha - t + p)


# One solver per word, in the library's word order (LSL, LSR, RSL, RSR, RLR, LRL).
WORD_SOLVERS = (_lsl, _lsr, _rsl, _rsr, _rlr, _lrl)


def shortest_path_loop(a, b, r_turn):
    """Shortest verified Dubins path from pose ``a`` to pose ``b``: every word
    in order, each verified by forward application when shorter than the
    best so far."""
    if not r_turn > 0:
        raise ValueError(f"turn radius must be positive, got {r_turn}")
    dx = b.position.x - a.position.x
    dy = b.position.y - a.position.y
    dist = math.hypot(dx, dy)
    scale = max(1.0, dist, r_turn)
    if dist <= 1e-12 * scale and _angle_diff(a.heading, b.heading) <= 1e-12:
        return DubinsPath(DubinsWord.LSL, (0.0, 0.0, 0.0), r_turn, a)
    theta = math.atan2(dy, dx)
    alpha = mod2pi(a.heading - theta)
    beta = mod2pi(b.heading - theta)
    d = dist / r_turn
    best = None
    best_len = math.inf
    tol = 1e-9 * scale
    for word, solver in zip(_WORD_ORDER, WORD_SOLVERS):
        tpq = solver(alpha, beta, d)
        if tpq is None:
            continue
        lengths = tuple(seg * r_turn for seg in tpq)
        candidate = DubinsPath(word, lengths, r_turn, a)
        total = candidate.length
        if total >= best_len:
            continue
        end = path_end(candidate)
        if end.position.dist(b.position) <= tol and _angle_diff(end.heading, b.heading) <= 1e-9:
            best = candidate
            best_len = total
    if best is None:
        raise PlanningError(f"no verified Dubins word connects {a} to {b}")
    return best


def arrival_function(source, start_phase, target, r_turn, v, delay):
    """(departure pose, arrival(t)) at one departure delay:
    arrival(t) is the arrival time for the guessed arrival ``t``, each
    evaluation one ``shortest_path_loop`` call."""
    depart = loiter_pose(source, mod2pi(start_phase + (v / source.radius) * delay))
    omega_tgt = v / target.radius

    def arrival(t):
        join = loiter_pose(target, mod2pi(start_phase + omega_tgt * t))
        return delay + shortest_path_loop(depart, join, r_turn).length / v

    return depart, arrival


def arrival_horizon(source, target, r_turn, v):
    """Seconds after departure past which every path is shorter than the
    wait: a CSC path has two arcs of at most a full turn and a straight of at
    most the pose distance plus two turn radii."""
    reach = source.center.dist(target.center) + source.radius + target.radius
    return (reach + (2.0 + 4.0 * math.pi) * r_turn) / v


def arrival_tolerance(target, v):
    return min(SYNC_TOL, SYNC_TOL / (v / target.radius))


def bisect_root(arrival, a, b, tol):
    """(c, arrival(c)) with |arrival(c) - c| < tol found by bisecting the
    sign change of g(t) = arrival(t) - t on [a, b], or None when the bracket
    collapses to neighbouring floats first (g jumps across zero)."""
    g_a = arrival(a) - a
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return None
        arr = arrival(mid)
        if abs(arr - mid) < tol:
            return mid, arr
        if (arr - mid < 0.0) == (g_a < 0.0):
            a, g_a = mid, arr - mid
        else:
            b = mid


def scan_root(arrival, t0, t_end, step, tol):
    """Earliest root of g(t) = arrival(t) - t on [t0, t_end] by a scan at
    ``step`` and a bisection of each sign change: (c, arrival(c)) or None."""
    a, arr_a = t0, arrival(t0)
    k = 0
    while abs(arr_a - a) >= tol:
        if a >= t_end:
            return None
        k += 1
        b = t0 + k * step
        arr_b = arrival(b)
        if abs(arr_b - b) >= tol and (arr_a - a < 0.0) != (arr_b - b < 0.0):
            root = bisect_root(arrival, a, b, tol)
            if root is not None:
                return root
        a, arr_a = b, arr_b
    return a, arr_a


def plan_transition_scan(uav_id, source, start_phase, target, r_turn, v, base_delay=0.0, pitch=1 / 64):
    """The arrival-time solver as a plain scan: at each delay offset in
    order, the earliest root ``scan_root`` finds at ``pitch`` target periods,
    every evaluation one ``shortest_path_loop`` call."""
    omega_tgt = v / target.radius
    target_period = TWO_PI / omega_tgt
    tol = arrival_tolerance(target, v)
    for offset in DELAY_OFFSETS:
        delay = base_delay + offset * target_period
        depart, arrival = arrival_function(source, start_phase, target, r_turn, v, delay)
        t_end = delay + arrival_horizon(source, target, r_turn, v)
        root = scan_root(arrival, delay, t_end, pitch * target_period, tol)
        if root is not None:
            join_phase = mod2pi(start_phase + omega_tgt * root[0])
            return TransitionPlan(
                uav_id=uav_id,
                source=source,
                target=target,
                start_phase=mod2pi(start_phase),
                depart_delay=delay,
                path=shortest_path_loop(depart, loiter_pose(target, join_phase), r_turn),
                join_phase=join_phase,
                arrival_time=root[1],
            )
    raise PlanningError(f"transition for UAV {uav_id} did not phase-synchronize")


def _advance_scalar(x, y, th, kind, length, r):
    """State after one segment of a Dubins path, one scalar at a time."""
    if length <= 0.0:
        return x, y, th
    if kind == "S":
        return x + length * math.cos(th), y + length * math.sin(th), th
    phi = length / r
    if kind == "L":
        return (
            x + r * (math.sin(th + phi) - math.sin(th)),
            y - r * (math.cos(th + phi) - math.cos(th)),
            th + phi,
        )
    return (
        x - r * (math.sin(th - phi) - math.sin(th)),
        y + r * (math.cos(th - phi) - math.cos(th)),
        th - phi,
    )


def path_end(path):
    """End pose of a Dubins path, advancing through its segments in turn."""
    x, y, th = path.start.position.x, path.start.position.y, path.start.heading
    for kind, length in zip(path.word.value, path.segment_lengths):
        x, y, th = _advance_scalar(x, y, th, kind, length, path.turn_radius)
    return Pose(Vec2(x, y), th)


def path_state_loop(path, s):
    """(x, y, heading) after arc length ``s`` along a Dubins path, walking the
    segments one by one; the heading is not reduced."""
    total = sum(path.segment_lengths)
    s = min(max(s, 0.0), total)
    x, y, th = path.start.position.x, path.start.position.y, path.start.heading
    for kind, length in zip(path.word.value, path.segment_lengths):
        if s <= length:
            return _advance_scalar(x, y, th, kind, s, path.turn_radius)
        x, y, th = _advance_scalar(x, y, th, kind, length, path.turn_radius)
        s -= length
    return x, y, th


def plan_pose_loop(plan, t, v):
    """(x, y, heading in [0, 2pi)) of a transiting UAV at absolute time ``t``:
    source loiter, Dubins path, target loiter, decided one time at a time."""
    if t < plan.depart_delay:
        circle, phase = plan.source, plan.start_phase + (v / plan.source.radius) * t
    elif t < plan.arrival_time:
        s = min(v * (t - plan.depart_delay), sum(plan.path.segment_lengths))
        x, y, th = path_state_loop(plan.path, s)
        return x, y, th % TWO_PI
    else:
        circle = plan.target
        phase = plan.join_phase + (v / plan.target.radius) * (t - plan.arrival_time)
    x = circle.center.x + circle.radius * math.cos(phase)
    y = circle.center.y + circle.radius * math.sin(phase)
    return x, y, ((phase + 0.5 * math.pi) % TWO_PI) % TWO_PI


def tracks_loop(plans, loitering, v, times):
    """(T, 2) position tracks of transiting UAVs, then of loiterers given as
    (circle, phase at t = 0) pairs, sampled one time at a time."""
    tracks = [np.array([plan_pose_loop(p, t, v)[:2] for t in times]) for p in plans]
    for circle, phase in loitering:
        cx, cy, r = circle.center.x, circle.center.y, circle.radius
        phases = [phase + (v / r) * t for t in times]
        tracks.append(np.array([(cx + r * math.cos(a), cy + r * math.sin(a)) for a in phases]))
    return tracks


def covered_over_cycle(p, circle, r_c: float) -> bool:
    """True iff the UAV sweeping ``circle`` covers ``p`` at some point of the cycle.

    The footprint sweeps an annulus of width 2*r_c around the loiter circle;
    boundary distances count as covered.
    """
    if not r_c > 0:
        raise ValueError(f"coverage radius must be positive, got {r_c}")
    return abs(p.dist(circle.center) - circle.radius) <= r_c + BOUNDARY_TOL


def covered_at_instant(p, positions, r_c: float) -> bool:
    """True iff some UAV position is within the footprint radius of ``p``."""
    if not r_c > 0:
        raise ValueError(f"coverage radius must be positive, got {r_c}")
    threshold = r_c + BOUNDARY_TOL
    return any(p.dist(pos) <= threshold for pos in positions)


def grid_samples(xs, ys):
    """Every sample (x, y) of the grid with axes ``xs`` and ``ys``, flattened."""
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def _dense_count(px, py, cx, cy, hit) -> int:
    """Number of points for which ``hit(dx, dy)`` holds for some circle."""
    if cx.size == 0 or px.size == 0:
        return 0
    dx = px[:, None] - cx[None, :]
    dy = py[:, None] - cy[None, :]
    return int(hit(dx, dy).any(axis=1).sum())


def dense_cycle_cover_count(px, py, cx, cy, r_l, r_c, tol):
    """Cycle-covered points, testing every point against every circle."""
    reach = r_c + tol
    return _dense_count(
        px, py, cx, cy, lambda dx, dy: np.abs(np.sqrt(dx * dx + dy * dy) - r_l) <= reach
    )


def dense_min_instant_fraction(px, py, cx, cy, r_l, r_c, phases, tol):
    """Worst-phase instant fraction, testing every point against every UAV."""
    if px.size == 0:
        return 0.0
    reach2 = (r_c + tol) ** 2
    worst = 1.0
    for phi in phases:
        ux = cx + r_l * math.cos(phi)
        uy = cy + r_l * math.sin(phi)
        covered = _dense_count(px, py, ux, uy, lambda dx, dy: dx * dx + dy * dy <= reach2)
        worst = min(worst, covered / px.size)
    return worst


def closest_pair_loop(tracks):
    """(distance, i, j) of the closest pair of (T, 2) position tracks.

    Visits the pairs one by one in lexicographic order and keeps the first
    pair at the smallest distance.
    """
    best = (math.inf, -1, -1)
    for i, j in itertools.combinations(range(len(tracks)), 2):
        d = tracks[i] - tracks[j]
        d_min = float(np.sqrt((d * d).sum(axis=1).min()))
        if d_min < best[0]:
            best = (d_min, i, j)
    return best


def union_find_clusters(ids, positions, reach: float):
    """Connected components of the distance graph via union-find."""
    ids = list(ids)
    edges = [
        (i, j)
        for i, j in itertools.combinations(ids, 2)
        if math.hypot(positions[i][0] - positions[j][0], positions[i][1] - positions[j][1]) <= reach
    ]
    return edge_components(ids, edges)


def edge_components(ids, edges):
    """Connected components (a set of frozensets) of a graph via union-find."""
    ids = list(ids)
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict = {}
    for i in ids:
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum total cost over all complete assignments (small instances)."""
    n_rows, n_cols = cost.shape
    best = math.inf
    if n_rows >= n_cols:
        for rows in itertools.permutations(range(n_rows), n_cols):
            best = min(best, sum(cost[r, c] for c, r in enumerate(rows)))
    else:
        for cols in itertools.permutations(range(n_cols), n_rows):
            best = min(best, sum(cost[r, c] for r, c in enumerate(cols)))
    return best


def comm_edges_loop(circles, r_com):
    """Comm graph edges (i, j), i < j, testing every pair of circle centers."""
    ids = sorted(circles)
    reach = r_com + BOUNDARY_TOL
    edges = set()
    for a_pos, i in enumerate(ids):
        ci = circles[i].center
        for j in ids[a_pos + 1 :]:
            if ci.dist(circles[j].center) <= reach:
                edges.add((i, j))
    return frozenset(edges)


def pairs_within_points(x, y, gap: float):
    """(first, second) index pairs of the points (x, y) whose ``np.hypot``
    distance is at most ``gap``, in the order of the sorted sweep over
    points that ``geometry.pairs_within`` ran before it took boxes."""
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    counts = np.maximum(np.searchsorted(x, x + gap, "right") - np.arange(1, x.size + 1), 0)
    first = np.repeat(np.arange(x.size), counts)
    second = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - 1, counts) + first
    near = np.hypot(x[second] - x[first], y[second] - y[first]) <= gap
    return order[first[near]], order[second[near]]


def assignment_by_dist(circles, centers):
    """(assignment, spares) of the survivors ``circles`` (id -> circle) onto
    ``centers``, solved by scipy on a cost matrix of one ``Vec2.dist`` per
    (survivor, centre)."""
    ids = list(circles)
    cost = np.array([[circles[i].center.dist(c) for c in centers] for i in ids], dtype=np.float64)
    rows, cols = linear_sum_assignment(cost)
    assignment = {ids[r]: int(c) for r, c in zip(rows, cols)}
    return assignment, tuple(i for i in ids if i not in assignment)
