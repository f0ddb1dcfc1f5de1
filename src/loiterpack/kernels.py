"""Grid-coverage kernels in numpy.

The sample grid is regular, given by its ascending axes ``xs`` (nx) and
``ys`` (ny). Distances at exactly the coverage reach r_c count as covered, up
to ``tol``. Index windows are found by ``searchsorted`` on the axes and padded
by one sample on each side, so rounding never drops a boundary sample.

The cycle kernel stamps each circle's predicate into a boolean grid mask.
Over the cycle the footprint sweeps the annulus |d - r_l| <= r_c + tol, so a
circle touches only the window of samples within r_l + r_c + tol of its
centre; the work grows with the stamped area, not with points x circles.
Each stamp is split by window rows so that every floating-point intermediate
stays under ``_CHUNK_ELEMENTS`` (8 MB). It stays a mask: the annulus
predicate is not monotone along a row (a row can hold two runs of it), and
the stamp takes about a fifth of the time of the instant kernel.

The instant kernel counts, at each phase, the samples within r_c + tol of
some UAV, one run of samples per grid row. Along a row, the predicate
``dx*dx + dy*dy <= reach2`` with ``dx = x - ux`` is monotone in |dx|,
because rounded subtraction, squaring and addition are monotone. So the
samples of one row covered by one UAV form one contiguous run [a, b). The
kernel seeds each run's ends from the exact half-width by ``searchsorted``,
then steps each end by one sample against the predicate itself until
neither moves, which makes the run exact. The seeds bracket the sample
nearest the UAV, and the first step tests one sample beyond each seed, so
an empty run is exact too. The runs of one (phase, row) are merged with
their starts and their ends sorted apart: the k-th end adds what it reaches
beyond the k-th start and beyond the (k-1)-th end, and these parts sum to
the union of the runs. The phases go in blocks of at most ``_RUN_ENTRIES``
(phase, UAV, row) entries, and at least one phase, so a block's arrays hold
32 KB each unless one phase alone has more entries; none of them spans the
grid, and none grows with phases x UAVs.
"""

from __future__ import annotations

import math

import numpy as np

# Elements of each floating-point intermediate of a cycle stamp.
_CHUNK_ELEMENTS = 1 << 20
# (phase, UAV, row) entries of one block of the instant kernel.
_RUN_ENTRIES = 1 << 12


def _window(axis, c, half):
    """Index windows [lo, hi) of ``axis`` holding every sample within
    ``half`` of each ``c``, padded by one sample per side."""
    lo = np.maximum(np.searchsorted(axis, c - half, "left") - 1, 0)
    hi = np.minimum(np.searchsorted(axis, c + half, "right") + 1, axis.size)
    return lo, hi


def _row_chunks(y0, y1, per_row):
    """Row ranges of a window whose stamps stay under ``_CHUNK_ELEMENTS``."""
    step = max(1, _CHUNK_ELEMENTS // per_row)
    for lo in range(y0, y1, step):
        yield lo, min(lo + step, y1)


def cycle_cover_count(xs, ys, cx, cy, r_l, r_c, tol):
    """Number of grid samples within the swept annulus of any loiter circle."""
    if cx.size == 0 or xs.size == 0 or ys.size == 0:
        return 0
    reach = r_c + tol
    mask = np.zeros((ys.size, xs.size), dtype=bool)
    bounds = (*_window(xs, cx, r_l + reach), *_window(ys, cy, r_l + reach))
    for x, y, x0, x1, y0, y1 in zip(cx, cy, *(w.tolist() for w in bounds)):
        dx = xs[x0:x1] - x
        dx2 = dx * dx
        for lo, hi in _row_chunks(y0, y1, x1 - x0):
            dy = ys[lo:hi, None] - y
            mask[lo:hi, x0:x1] |= np.abs(np.sqrt(dx2 + dy * dy) - r_l) <= reach
    return int(np.count_nonzero(mask))


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
    # One entry per (phase, UAV, row of its window).
    counts = rows.ravel()
    first = np.cumsum(counts) - counts
    row = np.repeat(y0.ravel() - first, counts)
    row += np.arange(row.size)
    x = np.repeat(ux.ravel(), counts)
    dy = ys[row] - np.repeat(uy.ravel(), counts)
    dy2 = dy * dy
    # Runs [a, b) in padded indices, where xp[j + 1] is sample j, seeded from
    # the half-width. A row out of reach gets half-width 0 and an empty run.
    half = np.sqrt(np.maximum(reach2 - dy2, 0.0))
    a = np.searchsorted(xp, x - half, "left")
    b = np.searchsorted(xp, x + half, "right")
    _settle(xp, reach2, a, b, x, dy2)
    # Shift each (phase, row) to its own range of width nx + 1 (unpadded ends
    # lie in [0, nx]), so that one sort of the starts and one of the ends
    # order the runs of every group; then merge as the module text says.
    width = xp.size - 1
    phase = np.repeat(np.arange(n_phases), rows.sum(axis=1))
    group = (phase * ys.size + row) * width - 1  # the - 1 unpads the ends
    start = np.sort(group + a)
    end = np.sort(group + b)
    reached = np.concatenate((start[:1], end[:-1]))
    length = end - np.maximum(start, reached)
    return np.bincount(start // (ys.size * width), weights=length, minlength=n_phases)


def _settle(xp, reach2, a, b, x, dy2):
    """Steps the run ends [a, b) in place until each run holds exactly the
    samples xp[k] with (xp[k] - x)**2 + dy2 <= reach2.

    Exact when each seed has a <= m <= b, where xp[m - 1] < x <= xp[m]:
    the samples that hold are one run around m - 1 or m, so either the ends
    reach that run, or they meet after every sample of [a - 1, b] failed,
    m - 1 and m among them, and then no sample holds.
    """
    moving = np.flatnonzero(_step(xp, reach2, a, b, x, dy2))
    while moving.size:
        am, bm = a[moving], b[moving]
        moved = _step(xp, reach2, am, bm, x[moving], dy2[moving])
        a[moving], b[moving] = am, bm
        moving = moving[moved]


def _step(xp, reach2, a, b, x, dy2):
    """Moves each run end [a, b) one sample towards the samples that satisfy
    the predicate, in place, and returns which runs moved."""

    def covered(k):
        dx = xp[k] - x
        return dx * dx + dy2 <= reach2

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
