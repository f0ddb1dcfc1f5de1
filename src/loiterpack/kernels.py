"""Grid-coverage kernels in numpy, stamped per circle.

The sample grid is regular, given by its ascending axes ``xs`` (nx) and
``ys`` (ny). A sample can be covered only by a circle whose centre lies within
r_l + r_c + tol of it: over the cycle the footprint sweeps the annulus
|d - r_l| <= r_c + tol, and at any phase the UAV sits r_l from the centre.
So each circle touches only an index window of the grid, found by
``searchsorted`` on the axes and padded by one sample on each side so that
rounding never drops a boundary sample. The predicate is evaluated inside
the window and OR-ed into a boolean mask; the work grows with the stamped
area, not with points x circles.

The instant kernel stamps all phases of a circle at once into a
(phases, ny, nx) mask, one block of phases at a time: as many phases as fit
in ``_MASK_ELEMENTS`` samples (8 MB), and at least one. Each stamp is split
by window rows so that every floating-point intermediate stays under
``_CHUNK_ELEMENTS`` (8 MB). Distances at exactly the coverage reach count as
covered, up to ``tol``.
"""

from __future__ import annotations

import math

import numpy as np

# Elements of each floating-point intermediate of a stamp.
_CHUNK_ELEMENTS = 1 << 20
# Elements (phases x samples) of one block of the instant mask.
_MASK_ELEMENTS = 1 << 23


def _windows(xs, ys, cx, cy, half):
    """Index windows [x0, x1) x [y0, y1) holding every sample within ``half``
    of each centre along both axes, padded by one sample per side."""
    x0 = np.maximum(np.searchsorted(xs, cx - half, "left") - 1, 0)
    x1 = np.minimum(np.searchsorted(xs, cx + half, "right") + 1, xs.size)
    y0 = np.maximum(np.searchsorted(ys, cy - half, "left") - 1, 0)
    y1 = np.minimum(np.searchsorted(ys, cy + half, "right") + 1, ys.size)
    return zip(cx, cy, x0.tolist(), x1.tolist(), y0.tolist(), y1.tolist())


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
    for x, y, x0, x1, y0, y1 in _windows(xs, ys, cx, cy, r_l + reach):
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
    block = max(1, _MASK_ELEMENTS // n)
    worst = 1.0
    for p0 in range(0, off_x.size, block):
        ox, oy = off_x[p0 : p0 + block], off_y[p0 : p0 + block]
        mask = np.zeros((ox.size, ys.size, xs.size), dtype=bool)
        for x, y, x0, x1, y0, y1 in _windows(xs, ys, cx, cy, r_l + reach):
            dx = xs[None, x0:x1] - (x + ox)[:, None]
            dx2 = (dx * dx)[:, None, :]
            uy = (y + oy)[:, None, None]
            for lo, hi in _row_chunks(y0, y1, ox.size * (x1 - x0)):
                dy = ys[None, lo:hi, None] - uy
                mask[:, lo:hi, x0:x1] |= dx2 + dy * dy <= reach2
        covered = np.count_nonzero(mask, axis=(1, 2))
        worst = min(worst, int(covered.min()) / n)
        if worst == 0.0:
            break
    return worst
