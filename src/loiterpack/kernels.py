"""Grid-coverage kernels in numpy, by runs of samples along grid rows.

The sample grid is given by its ascending axes ``xs`` (nx) and ``ys`` (ny),
regular ones in practice; the kernels are exact on any ascending axes.
Distances at exactly the coverage reach r_c count as covered, up to ``tol``.
Row windows are found by ``searchsorted`` on ``ys`` and padded by one sample
on each side, so rounding never drops a boundary row.

Along a row, a predicate monotone in d2 = dx*dx + dy*dy, with dx = x - ux,
is monotone in |dx|, because rounded subtraction, squaring and addition are
monotone; so the samples of a row for which it holds form one run [a, b)
around the sample nearest the centre. The instant kernel's predicate is
d2 <= reach2. The cycle's annulus |sqrt(d2) - r_l| <= reach is not monotone
(a row can hold two runs of it), but it is O and not I, with O the monotone
sqrt(d2) - r_l <= reach and I the monotone sqrt(d2) - r_l < -reach. I lies
inside O, so with I's ends clipped into O's run [a, b), the row's annulus is
[a, a_I) and [b_I, b).

Run ends are certified, not searched. With u the entry's x and h the
half-width sqrt(q - dy2), both in pitches from the first sample (q the
squared radius of the predicate), the run is [ceil(u - h), floor(u + h)],
exactly, whenever u - h and u + h lie at least ``_DELTA`` from every integer
and h >= ``_H_MIN``: the rounding of u, h, d2 and the square root, and the
axis's largest deviation from xs[0] + k * pitch (measured once per call),
move no sample across the edge by that margin (the bound is beside the
constants). A row where the predicate fails at dx = 0 is empty, exactly,
because d2 >= dy2. The other entries (none on the perfbench layouts) take
the exact search: the same ends, widened to the sample nearest the centre,
then stepped one sample at a time against the predicate itself until
neither moves.

The runs of one group (a row, or a row at one phase) are merged with their
starts and their ends sorted apart: the k-th end adds what it reaches beyond
the k-th start and beyond the (k-1)-th end, and these parts sum to the union
of the runs. All UAVs share one phase offset, so a UAV with no other centre
within two reaches (plus ``_ISOLATION_MARGIN``) never shares a sample with
another: the instant kernel adds the run lengths of those UAVs per phase
directly and merges only the others' runs. The instant kernel takes the
phases in blocks of at most ``_RUN_ENTRIES`` (phase, UAV, row) entries, and
at least one phase; the cycle kernel takes its (circle, row) entries in bands
of grid rows of at most ``_RUN_ENTRIES`` entries, and at least one row, and
sums the bands' unions. A block's arrays hold 32 KB each unless one phase or
one row alone has more. No array spans the grid.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import pairs_within

# (phase, UAV, row) entries of one block of the instant kernel, and
# (circle, row) entries of one band of the cycle kernel.
_RUN_ENTRIES = 1 << 12

# The run-end certificate, in pitches, with eps the machine epsilon:
# - the computed u -/+ h are within 3 eps (|u| + h) of their real values,
#   and each sample is within the axis's measured deviation (plus 2 eps of
#   the largest coordinate, for measuring it) of xs[0] + k * pitch; ``_axis``
#   sums these into E;
# - where u -/+ h lie _DELTA from every integer, every sample is then at
#   least m = _DELTA - E pitches inside or outside the real run, so that
#   |d2 - q| >= m * h * pitch**2 and |sqrt(d2) - sqrt(q)| >= m * h * pitch
#   / (2 R), with R the call's largest predicate radius in pitches;
# - the computed predicates differ from the real ones only within 2.5 eps
#   R**2 pitch**2 of q in d2 (rounded dx, square and sum, against q =
#   reach2), or within 4 eps R pitch of sqrt(q) in sqrt(d2) (the square
#   root, the subtraction of r_l, and q the rounded square of r_l -/+ reach);
# so h >= _H_MIN and m * _H_MIN > 9 eps R**2 make each certified end exact.
# On a regular axis that holds up to R of about 700 pitches (coverage-1km has
# 44); a call beyond it certifies nothing and searches every entry.
_DELTA = 1e-6
_H_MIN = 1e-3
_EPS = float(np.finfo(float).eps)

# Two UAVs whose centres are more than 2 * reach apart share no covered
# sample at any common phase, up to rounding: a covered sample lies within
# reach (1 + 3 eps) of each UAV, and each UAV's position is rounded by at
# most eps times the largest coordinate. This margin, relative to reach plus
# that coordinate, covers those terms and the rounding of the centre
# distance many times over.
_ISOLATION_MARGIN = 1e-9


def _window(axis, c, half):
    """Index windows [lo, hi) of ``axis`` holding every sample within
    ``half`` of each ``c``, padded by one sample per side."""
    lo = np.maximum(np.searchsorted(axis, c - half, "left") - 1, 0)
    hi = np.minimum(np.searchsorted(axis, c + half, "right") + 1, axis.size)
    return lo, hi


def _axis(xs, extent, radius):
    """(xp, pitch, certified) of the x axis: ``xs`` padded with -inf and
    +inf, so an index just outside the axis tests false; the pitch
    (xs[-1] - xs[0]) / (nx - 1), or 1 for one sample; and whether run ends
    from the half-width are certified (see ``_DELTA``) for x within
    ``extent`` of 0 and predicates of radius up to ``radius``."""
    nx = xs.size
    pitch = (xs[-1] - xs[0]) / (nx - 1) if nx > 1 else 1.0
    deviation = float(np.abs(xs - (xs[0] + np.arange(nx) * pitch)).max())
    extent = max(extent, abs(xs[0]), abs(xs[-1]))
    r = radius / pitch
    error = (deviation + 8.0 * _EPS * extent) / pitch + 3.0 * _EPS * (r + 1.0)
    certified = bool((_DELTA - error) * _H_MIN > 9.0 * _EPS * r * r)
    return np.concatenate(([-np.inf], xs, [np.inf])), pitch, certified


def cycle_cover_count(xs, ys, cx, cy, r_l, r_c, tol):
    """Number of grid samples within the swept annulus of any loiter circle."""
    if cx.size == 0 or xs.size == 0 or ys.size == 0:
        return 0
    reach = r_c + tol
    inner = max(r_l - reach, 0.0)
    axis = _axis(xs, float(np.abs(cx).max()), r_l + reach)
    width = xs.size + 1
    y0, y1 = _window(ys, cy, r_l + reach)
    # The windows holding each grid row, and bands of rows [r0, r1) of at
    # most _RUN_ENTRIES (window, row) entries.
    opened = np.bincount(y0, minlength=ys.size + 1) - np.bincount(y1, minlength=ys.size + 1)
    holding = np.cumsum(opened)[:-1]
    count = 0
    for r0, r1 in _spans(np.cumsum(holding)):
        here = np.flatnonzero((y0 < r1) & (y1 > r0))
        first = np.maximum(y0[here], r0)
        row, x, dy2 = _entries(ys, cx[here], cy[here], first, np.minimum(y1[here], r1) - first)
        # O's run [a, b) and I's [a_in, b_in); I is empty when r_l <= reach.
        a, b = _runs(axis, x, dy2, (r_l + reach) ** 2, lambda d2: np.sqrt(d2) - r_l <= reach)
        a_in, b_in = _runs(axis, x, dy2, inner * inner, lambda d2: np.sqrt(d2) - r_l < -reach)
        a_in, b_in = np.clip(a_in, a, b), np.clip(b_in, a, b)
        group = np.tile(row * width - 1, 2)
        _, length = _union(group, np.concatenate((a, b_in)), np.concatenate((a_in, b)))
        count += int(length.sum())
    return count


def _spans(entries):
    """Consecutive spans [i0, i1) of items, given the entries of the items up
    to each: at most ``_RUN_ENTRIES`` entries per span, and at least one
    item."""
    i0 = 0
    while i0 < entries.size:
        done = int(entries[i0 - 1]) if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(entries, done + _RUN_ENTRIES, "right")))
        yield i0, i1
        i0 = i1


def min_instant_fraction(xs, ys, cx, cy, r_l, r_c, phases, tol):
    """Minimum over the common loiter phases of the instant-coverage fraction."""
    n = xs.size * ys.size
    if n == 0:
        return 0.0
    reach = r_c + tol
    reach2 = reach**2
    off_x = np.array([r_l * math.cos(phi) for phi in phases])
    off_y = np.array([r_l * math.sin(phi) for phi in phases])
    extent = float(np.abs(cx).max(initial=0.0)) + abs(r_l)
    axis = _axis(xs, extent, reach)
    # The isolated UAVs first: their entries then come first in each block.
    isolated = _isolated(cx, cy, reach, extent + float(np.abs(cy).max(initial=0.0)))
    order = np.concatenate((np.flatnonzero(isolated), np.flatnonzero(~isolated)))
    cx, cy = cx[order], cy[order]
    n_isolated = int(isolated.sum())
    worst = 1.0
    for block in _phase_blocks(ys, cx, cy, off_x, off_y, reach):
        covered = _covered_per_phase(axis, ys, *block, n_isolated, reach2)
        worst = min(worst, int(covered.min()) / n)
        if worst == 0.0:
            break
    return worst


def _isolated(cx, cy, reach, extent):
    """Which centres have no other centre within 2 * ``reach`` plus the
    isolation margin, ``extent`` bounding their coordinates."""
    gap = 2.0 * reach + _ISOLATION_MARGIN * (reach + extent)
    crowded = np.zeros(cx.size, dtype=bool)
    for side in pairs_within(cx, cy, gap):
        crowded[side] = True
    return ~crowded


def _phase_blocks(ys, cx, cy, off_x, off_y, reach):
    """UAV positions and r_c row windows (ux, uy, y0, rows), each a (phases,
    UAVs) array, of consecutive blocks of phases: at most ``_RUN_ENTRIES``
    (phase, UAV, row) entries per block, and at least one phase. The windows
    are found for at most ``_RUN_ENTRIES`` (phase, UAV) pairs at a time."""
    per_pass = max(1, _RUN_ENTRIES // max(1, cx.size))
    for q0 in range(0, off_x.size, per_pass):
        ux = cx[None, :] + off_x[q0 : q0 + per_pass, None]
        uy = cy[None, :] + off_y[q0 : q0 + per_pass, None]
        y0, y1 = _window(ys, uy, reach)
        rows = y1 - y0
        for p0, p1 in _spans(np.cumsum(rows.sum(axis=1))):
            yield ux[p0:p1], uy[p0:p1], y0[p0:p1], rows[p0:p1]


def _covered_per_phase(axis, ys, ux, uy, y0, rows, n_isolated, reach2):
    """Covered samples at each phase of one block.

    ``axis`` is ``_axis``'s result. ``ux``, ``uy``, ``y0`` and ``rows`` are
    (phases, UAVs) arrays: the UAV positions and their row windows
    [y0, y0 + rows); the first ``n_isolated`` UAVs are isolated.
    """
    n_phases = rows.shape[0]
    # UAV-major entries, so the isolated UAVs' entries come first.
    counts = rows.T.ravel()
    row, x, dy2 = _entries(ys, ux.T, uy.T, y0.T, rows.T)
    a, b = _runs(axis, x, dy2, reach2, lambda d2: d2 <= reach2)
    pairs = n_isolated * n_phases
    ends = np.cumsum(counts[:pairs])
    split = int(ends[-1]) if pairs else 0
    # Run lengths of the isolated UAVs summed per (UAV, phase), then per
    # phase; no sum is empty, as a row window holds at least one row.
    covered = np.zeros(n_phases, dtype=np.intp)
    if pairs:
        lengths = np.add.reduceat(b[:split] - a[:split], ends - counts[:pairs])
        covered += lengths.reshape(-1, n_phases).sum(axis=0)
    if split < row.size:
        width = axis[0].size - 1
        phase = np.repeat(np.tile(np.arange(n_phases), rows.shape[1] - n_isolated), counts[pairs:])
        start, length = _union((phase * ys.size + row[split:]) * width - 1, a[split:], b[split:])
        covered = covered + np.bincount(
            start // (ys.size * width), weights=length, minlength=n_phases
        )
    return covered


def _entries(ys, ux, uy, y0, rows):
    """(row, x, dy2) of one entry per row of each centre's row window
    [y0, y0 + rows), flattened in the order of the centres."""
    counts = rows.ravel()
    first = np.cumsum(counts) - counts
    row = np.repeat(y0.ravel() - first, counts)
    row += np.arange(row.size)
    dy = ys[row] - np.repeat(uy.ravel(), counts)
    return row, np.repeat(ux.ravel(), counts), dy * dy


def _union(group, a, b):
    """Sorted starts, and the length each run [group + a, group + b) adds to
    the union of those before it. ``group`` puts each group in its own range
    of width nx + 1, its - 1 unpadding the ends, which then lie in [0, nx].
    """
    start = np.sort(group + a)
    end = np.sort(group + b)
    reached = np.concatenate((start[:1], end[:-1]))
    return start, end - np.maximum(start, reached)


def _runs(axis, x, dy2, q, hold):
    """Ends [a, b), in padded indices, of the runs of samples xp[k] of each
    entry for which ``hold(d2)`` is true, with d2 = (xp[k] - x)**2 + dy2,
    ``hold`` monotone in d2 and ``q`` the squared radius where it changes.

    Ends from the half-width sqrt(q - dy2) are kept where the certificate
    holds (see ``_DELTA``) and where the row is empty; the other entries are
    seeded and settled.
    """
    xp, pitch, certified = axis
    nx = xp.size - 2
    u = (x - xp[1]) * (1.0 / pitch)
    h = np.sqrt(np.maximum(q - dy2, 0.0)) * (1.0 / pitch)
    lo = u - h
    hi = u + h
    a = np.ceil(lo)
    b = np.floor(hi)
    empty = ~hold(dy2)
    if certified:
        near = (np.abs(a - lo - 0.5) > 0.5 - _DELTA) | (np.abs(hi - b - 0.5) > 0.5 - _DELTA)
        fallback = np.flatnonzero((near | (h < _H_MIN)) & ~empty)
    else:
        fallback = np.flatnonzero(~empty)
    a = np.clip(a + 1.0, 1, nx + 1).astype(np.intp)
    b = np.clip(b + 2.0, 1, nx + 1).astype(np.intp)
    np.copyto(b, a, where=empty)
    if fallback.size:
        x, dy2 = x[fallback], dy2[fallback]
        a_f, b_f = _seeds(xp, x, a[fallback], b[fallback])
        _settle(xp, hold, a_f, b_f, x, dy2)
        a[fallback], b[fallback] = a_f, b_f
    return a, b


def _seeds(xp, x, a, b):
    """Seed ends [a, b), in padded indices in [1, nx + 1], widened to hold m
    = searchsorted(xp, x), so that a <= m <= b on any ascending axis, which
    is all ``_settle`` needs."""
    m = np.minimum(np.searchsorted(xp, x), xp.size - 1)
    return np.minimum(a, m), np.maximum(b, m)


def _settle(xp, hold, a, b, x, dy2):
    """Steps the run ends [a, b) in place until each run holds exactly the
    samples xp[k] for which ``hold(d2)`` is true, with d2 = (xp[k] - x)**2 +
    dy2 and ``hold`` monotone in d2.

    Exact when each seed has a <= m <= b, where xp[m - 1] < x <= xp[m]:
    the samples that hold are one run around m - 1 or m, so either the ends
    reach that run, or they meet after every sample of [a - 1, b] failed,
    m - 1 and m among them, and then no sample holds.
    """
    moving = np.flatnonzero(_step(xp, hold, a, b, x, dy2))
    while moving.size:
        am, bm = a[moving], b[moving]
        moved = _step(xp, hold, am, bm, x[moving], dy2[moving])
        a[moving], b[moving] = am, bm
        moving = moving[moved]


def _step(xp, hold, a, b, x, dy2):
    """Moves each run end [a, b) one sample towards the samples that satisfy
    the predicate, in place, and returns which runs moved."""

    def covered(k):
        dx = xp[k] - x
        return hold(dx * dx + dy2)

    grow = covered(a - 1)
    a -= grow
    shrink = (a < b) & ~covered(a)
    a += shrink
    moved = grow | shrink
    grow = covered(b)
    b += grow
    shrink = (b > a) & ~covered(b - 1)
    b -= shrink
    return moved | grow | shrink
