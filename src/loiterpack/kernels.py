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
directly and merges only the others' runs.

No array spans the grid, and no block grows with the fleet. The cycle kernel
takes its (circle, row) entries in bands of grid rows of at most
``_RUN_ENTRIES`` entries, and at least one row, and sums the bands' unions.
The instant kernel takes the phases in passes, and a pass in blocks of at
most ``_INSTANT_ENTRIES`` (phase, UAV, row) entries, so a phase may span
blocks: the isolated UAVs' row windows in order, at least one window per
block, as their integer run lengths add up across blocks; then the other
UAVs' entries in bands of the pass's (phase, row) groups, at least one group
per band, as a group's union needs only its own runs. A block's arrays hold
32 KB (cycle) or 64 KB (instant) each unless one row or one window alone
has more, and a pass's (UAV, phase) windows and (phase, row) counts number
at most ``_INSTANT_ENTRIES`` unless one phase alone has more.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _spans, pairs_within

# (circle, row) entries of one band of the cycle kernel. On 4000x4000 m (700
# circles, 4 m grid) its time hardly depends on the band size (5.7-7.0 ms at
# 4,096, 6,144 and 8,192 entries on a shared 2-core Xeon host), and 4,096
# keeps its peak at 0.89 MiB (1.31 and 1.73 MiB at the others).
_RUN_ENTRIES = 1 << 12

# (phase, UAV, row) entries of one block of the instant kernel, sized for
# speed: the kernel's CPU time inside perfbench's simulate loop, one process
# per size on the same host, was 2.04, 1.77, 1.74 and 2.07 ms on the
# coverage-1km layout at 4,096, 8,192, 12,288 and 16,384 entries, and 0.87,
# 0.76, 0.94 and 1.02 ms on the paper-35 layout. Larger blocks take fewer
# numpy calls, until a block's arrays outgrow the caches and the allocator's
# reuse of freed memory.
_INSTANT_ENTRIES = 1 << 13

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
    for r0, r1 in _spans(np.cumsum(holding), _RUN_ENTRIES):
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


def min_instant_fraction(xs, ys, cx, cy, r_l, r_c, phases, tol):
    """Minimum over the common loiter phases of the instant-coverage fraction."""
    n = xs.size * ys.size
    if n == 0 or cx.size == 0:
        return 0.0
    reach = r_c + tol
    off_x = np.array([r_l * math.cos(phi) for phi in phases])
    off_y = np.array([r_l * math.sin(phi) for phi in phases])
    extent = float(np.abs(cx).max()) + abs(r_l)
    axis = _axis(xs, extent, reach)
    # The isolated UAVs first: their windows then come first in each pass.
    isolated = _isolated(cx, cy, reach, extent + float(np.abs(cy).max()))
    order = np.concatenate((np.flatnonzero(isolated), np.flatnonzero(~isolated)))
    cx, cy = cx[order], cy[order]
    n_isolated = int(isolated.sum())
    # Passes of phases whose (UAV, phase) windows, and (phase, row) counts
    # when some UAVs are crowded, number at most _INSTANT_ENTRIES, and at
    # least one phase.
    per_pass = max(1, _INSTANT_ENTRIES // (cx.size + (ys.size if n_isolated < cx.size else 0)))
    worst = 1.0
    for q0 in range(0, off_x.size, per_pass):
        q1 = q0 + per_pass
        covered = _covered_per_phase(axis, ys, cx, cy, off_x[q0:q1], off_y[q0:q1], n_isolated, reach)
        worst = min(worst, int(covered.min()) / n)
        if worst == 0.0:
            break
    return worst


def _isolated(cx, cy, reach, extent):
    """Which centres have no other centre within 2 * ``reach`` plus the
    isolation margin, ``extent`` bounding their coordinates."""
    gap = 2.0 * reach + _ISOLATION_MARGIN * (reach + extent)
    crowded = np.zeros(cx.size, dtype=bool)
    for side in pairs_within(cx, cy, cx, cy, gap):
        crowded[side] = True
    return ~crowded


def _covered_per_phase(axis, ys, cx, cy, off_x, off_y, n_isolated, reach):
    """Covered samples at each phase of one pass, a float array.

    ``axis`` is ``_axis``'s result, ``cx`` and ``cy`` the centres, of which
    the first ``n_isolated`` are isolated, and ``off_x`` and ``off_y`` the
    UAVs' offsets from them at each phase. Each block holds at most
    ``_INSTANT_ENTRIES`` (phase, UAV, row) entries. The isolated UAVs' row
    windows are taken in order, at least one per block, and their run
    lengths add up per phase across the blocks. The other UAVs' windows are
    cut into bands of the pass's grid rows at every phase, g = phase * ny +
    row, at least one row per band, so that the runs of each (phase, row)
    are merged within one band.
    """
    n_phases, ny = off_x.size, ys.size
    reach2 = reach * reach
    # The (UAV, phase) windows, UAV-major, so the isolated UAVs' come first.
    ux = (cx[:, None] + off_x).ravel()
    uy = (cy[:, None] + off_y).ravel()
    phase = np.tile(np.arange(n_phases), cx.size)
    y0, y1 = _window(ys, uy, reach)
    rows = y1 - y0
    split = n_isolated * n_phases
    covered = np.zeros(n_phases)
    for w0, w1 in _spans(np.cumsum(rows[:split]), _INSTANT_ENTRIES):
        counts = rows[w0:w1]
        x, dy2 = _entries(ys, ux[w0:w1], uy[w0:w1], y0[w0:w1], counts)[1:]
        a, b = _runs(axis, x, dy2, reach2, lambda d2: d2 <= reach2)
        # Summed per window, then per phase; no window is empty.
        lengths = np.add.reduceat(b - a, np.cumsum(counts) - counts)
        covered += np.bincount(phase[w0:w1], weights=lengths, minlength=n_phases)
    if split == phase.size:
        return covered
    width = axis[0].size - 1
    ux, uy, phase = ux[split:], uy[split:], phase[split:]
    g0, g1 = phase * ny + y0[split:], phase * ny + y1[split:]
    opened = np.bincount(g0, minlength=n_phases * ny + 1) - np.bincount(g1, minlength=n_phases * ny + 1)
    for r0, r1 in _spans(np.cumsum(np.cumsum(opened)[:-1]), _INSTANT_ENTRIES):
        here = np.flatnonzero((g0 < r1) & (g1 > r0))
        first = np.maximum(g0[here], r0)
        counts = np.minimum(g1[here], r1) - first
        at = phase[here]
        row, x, dy2 = _entries(ys, ux[here], uy[here], first - at * ny, counts)
        a, b = _runs(axis, x, dy2, reach2, lambda d2: d2 <= reach2)
        start, length = _union((np.repeat(at * ny, counts) + row) * width - 1, a, b)
        covered += np.bincount(start // (ny * width), weights=length, minlength=n_phases)
    return covered


def _entries(ys, ux, uy, y0, rows):
    """(row, x, dy2) of one entry per row of each centre's row window
    [y0, y0 + rows), flattened in the order of the centres."""
    counts = rows.ravel()
    first = np.cumsum(counts) - counts
    row = np.repeat(y0.ravel() - first, counts)
    row += np.arange(row.size)
    dy = ys[row]
    dy -= np.repeat(uy.ravel(), counts)
    dy *= dy
    return row, np.repeat(ux.ravel(), counts), dy


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
    # In place where an array is done with, to keep a block's arrays few.
    hi = x - xp[1]
    hi *= 1.0 / pitch
    h = q - dy2
    np.maximum(h, 0.0, out=h)
    np.sqrt(h, out=h)
    h *= 1.0 / pitch
    lo = hi - h
    hi += h
    a = np.ceil(lo)
    b = np.floor(hi)
    empty = ~hold(dy2)
    if certified:
        # |a - lo - 0.5| and |hi - b - 0.5| against 0.5 - _DELTA.
        np.subtract(a, lo, out=lo)
        lo -= 0.5
        near = np.abs(lo, out=lo) > 0.5 - _DELTA
        np.subtract(hi, b, out=hi)
        hi -= 0.5
        near |= np.abs(hi, out=hi) > 0.5 - _DELTA
        near |= h < _H_MIN
        fallback = np.flatnonzero(near & ~empty)
    else:
        fallback = np.flatnonzero(~empty)
    del lo, hi, h
    a += 1.0
    b += 2.0
    a = np.clip(a, 1, nx + 1, out=a).astype(np.intp)
    b = np.clip(b, 1, nx + 1, out=b).astype(np.intp)
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
