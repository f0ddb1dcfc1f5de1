"""Grid-coverage kernels in numpy.

Both kernels test every sample point against every circle (or UAV), in
chunks of points so that each (points x circles) intermediate stays near 8 MB
whatever the layout size. Distances at exactly the coverage reach count as
covered, up to ``tol``.
"""

from __future__ import annotations

import math

import numpy as np

# Elements (points x circles) per chunk intermediate.
_CHUNK_ELEMENTS = 1 << 20


def _count_covered(px, py, cx, cy, hit) -> int:
    """Number of points for which ``hit(dx, dy)`` holds for some circle."""
    if cx.size == 0 or px.size == 0:
        return 0
    step = max(1, _CHUNK_ELEMENTS // cx.size)
    covered = 0
    for lo in range(0, px.size, step):
        hi = min(lo + step, px.size)
        dx = px[lo:hi, None] - cx[None, :]
        dy = py[lo:hi, None] - cy[None, :]
        covered += int(hit(dx, dy).any(axis=1).sum())
    return covered


def cycle_cover_count(px, py, cx, cy, r_l, r_c, tol):
    """Number of grid points within the swept annulus of any loiter circle."""
    reach = r_c + tol
    return _count_covered(
        px, py, cx, cy, lambda dx, dy: np.abs(np.sqrt(dx * dx + dy * dy) - r_l) <= reach
    )


def min_instant_fraction(px, py, cx, cy, r_l, r_c, phases, tol):
    """Minimum over the common loiter phases of the instant-coverage fraction."""
    if px.size == 0:
        return 0.0
    reach2 = (r_c + tol) ** 2
    worst = 1.0
    for phi in phases:
        ux = cx + r_l * math.cos(phi)
        uy = cy + r_l * math.sin(phi)
        covered = _count_covered(px, py, ux, uy, lambda dx, dy: dx * dx + dy * dy <= reach2)
        worst = min(worst, covered / px.size)
        if worst == 0.0:
            break
    return worst
