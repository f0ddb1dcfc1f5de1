"""Grid-coverage kernels in numpy, by runs of samples along grid rows.

The sample grid is regular, given by its ascending axes ``xs`` (nx) and
``ys`` (ny). Distances at exactly the coverage reach r_c count as covered, up
to ``tol``. Row windows are found by ``searchsorted`` on ``ys`` and padded by
one sample on each side, so rounding never drops a boundary row.

Along a row, a predicate monotone in d2 = dx*dx + dy*dy, with dx = x - ux,
is monotone in |dx|, because rounded subtraction, squaring and addition are
monotone; so the samples of a row for which it holds form one run [a, b)
around the sample nearest the centre. The instant kernel's predicate is
d2 <= reach2. The cycle's annulus |sqrt(d2) - r_l| <= reach is not monotone
(a row can hold two runs of it), but it is O and not I, with O the monotone
sqrt(d2) - r_l <= reach and I the monotone sqrt(d2) - r_l < -reach. I lies
inside O, so with I's ends clipped into O's run [a, b), the row's annulus is
[a, a_I) and [b_I, b).

Each run's ends are seeded from the exact half-width and the grid pitch,
then stepped one sample at a time against the predicate itself until
neither moves, which makes the run exact; an empty run is exact too. The
runs of one group (a row, or a row at one phase) are merged with their
starts and their ends sorted apart: the k-th end adds what it reaches beyond
the k-th start and beyond the (k-1)-th end, and these parts sum to the union
of the runs. The cycle kernel has one entry per (circle, row of its window).
The instant kernel takes the phases in blocks of at most ``_RUN_ENTRIES``
(phase, UAV, row) entries, and at least one phase, so a block's arrays hold
32 KB each unless one phase alone has more. No array spans the grid.
"""

from __future__ import annotations

import math

import numpy as np

# (phase, UAV, row) entries of one block of the instant kernel.
_RUN_ENTRIES = 1 << 12


def _window(axis, c, half):
    """Index windows [lo, hi) of ``axis`` holding every sample within
    ``half`` of each ``c``, padded by one sample per side."""
    lo = np.maximum(np.searchsorted(axis, c - half, "left") - 1, 0)
    hi = np.minimum(np.searchsorted(axis, c + half, "right") + 1, axis.size)
    return lo, hi


def cycle_cover_count(xs, ys, cx, cy, r_l, r_c, tol):
    """Number of grid samples within the swept annulus of any loiter circle."""
    if cx.size == 0 or xs.size == 0 or ys.size == 0:
        return 0
    reach = r_c + tol
    y0, y1 = _window(ys, cy, r_l + reach)
    xp = np.concatenate(([-np.inf], xs, [np.inf]))
    row, x, dy2 = _entries(ys, cx, cy, y0, y1 - y0)
    # O's run [a, b) and I's [a_in, b_in); I is empty when r_l <= reach.
    a, b = _seeds(xp, x, np.sqrt(np.maximum((r_l + reach) ** 2 - dy2, 0.0)))
    _settle(xp, lambda d2: np.sqrt(d2) - r_l <= reach, a, b, x, dy2)
    inner = max(r_l - reach, 0.0)
    a_in, b_in = _seeds(xp, x, np.sqrt(np.maximum(inner * inner - dy2, 0.0)))
    _settle(xp, lambda d2: np.sqrt(d2) - r_l < -reach, a_in, b_in, x, dy2)
    a_in, b_in = np.clip(a_in, a, b), np.clip(b_in, a, b)
    group = np.tile(row * (xp.size - 1) - 1, 2)
    _, length = _union(group, np.concatenate((a, b_in)), np.concatenate((a_in, b)))
    return int(length.sum())


def min_instant_fraction(xs, ys, cx, cy, r_l, r_c, phases, tol):
    """Minimum over the common loiter phases of the instant-coverage fraction."""
    n = xs.size * ys.size
    if n == 0:
        return 0.0
    reach = r_c + tol
    reach2 = reach**2
    off_x = np.array([r_l * math.cos(phi) for phi in phases])
    off_y = np.array([r_l * math.sin(phi) for phi in phases])
    xp = np.concatenate(([-np.inf], xs, [np.inf]))
    worst = 1.0
    for block in _phase_blocks(ys, cx, cy, off_x, off_y, reach):
        covered = _covered_per_phase(xp, ys, *block, reach2)
        worst = min(worst, int(covered.min()) / n)
        if worst == 0.0:
            break
    return worst


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
        entries = np.cumsum(rows.sum(axis=1))  # entries of the phases up to each
        p0 = 0
        while p0 < rows.shape[0]:
            done = int(entries[p0 - 1]) if p0 else 0
            p1 = max(p0 + 1, int(np.searchsorted(entries, done + _RUN_ENTRIES, "right")))
            yield ux[p0:p1], uy[p0:p1], y0[p0:p1], rows[p0:p1]
            p0 = p1


def _covered_per_phase(xp, ys, ux, uy, y0, rows, reach2):
    """Covered samples at each phase of one block.

    ``xp`` is the x axis padded with -inf and +inf, so an index just outside
    the axis tests false. ``ux``, ``uy``, ``y0`` and ``rows`` are (phases,
    UAVs) arrays: the UAV positions and their row windows [y0, y0 + rows).
    """
    n_phases = rows.shape[0]
    row, x, dy2 = _entries(ys, ux, uy, y0, rows)
    # A row out of reach gets half-width 0 and an empty run.
    a, b = _seeds(xp, x, np.sqrt(np.maximum(reach2 - dy2, 0.0)))
    _settle(xp, lambda d2: d2 <= reach2, a, b, x, dy2)
    width = xp.size - 1
    phase = np.repeat(np.arange(n_phases), rows.sum(axis=1))
    start, length = _union((phase * ys.size + row) * width - 1, a, b)
    return np.bincount(start // (ys.size * width), weights=length, minlength=n_phases)


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


def _seeds(xp, x, half):
    """Seed ends [a, b), in padded indices, of the runs of samples within
    ``half`` of each ``x``: estimates of searchsorted(xp, x -/+ half) from
    the grid pitch, widened around m_hat = ceil(u) + 1, with u = x in pitches
    from the first sample. Rounding moves m_hat at most one sample from
    m = searchsorted(xp, x), so a <= m <= b, which is all ``_settle`` needs.
    """
    nx = xp.size - 2
    pitch = (xp[-2] - xp[1]) / (nx - 1) if nx > 1 else 1.0
    u = (x - xp[1]) / pitch
    h = half / pitch
    m_hat = np.ceil(u) + 1.0
    a = np.minimum(np.ceil(u - h) + 1.0, m_hat - 1.0)
    b = np.maximum(np.floor(u + h) + 2.0, m_hat + 1.0)
    return np.clip(a, 1, nx + 1).astype(np.intp), np.clip(b, 1, nx + 1).astype(np.intp)


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
