"""Independent oracles the tests check the library against.

Each oracle re-derives its result from first principles with no shared code:
numeric quadrature for lens areas, a literal marching rule for placement
counts, a discretized control-space search for shortest bounded-curvature
paths, scalar segment walks for transition tracks, per-point coverage predicates and dense points x circles kernels for
the grid fractions, union-find for clusters and permutation search for
assignments.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad

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
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(ids, 2):
        dx = positions[i][0] - positions[j][0]
        dy = positions[i][1] - positions[j][1]
        if math.hypot(dx, dy) <= reach:
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
