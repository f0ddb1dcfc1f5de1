import math
import tracemalloc

import numpy as np
import pytest

from loiterpack import dubins, fleet, kernels
from loiterpack.dubins import _timeline, closest_approach, plan_transition
from loiterpack.fleet import (
    FailureEvent,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    super_agent_recover,
)
from loiterpack.geometry import (
    AreaSpec,
    LoiterCircle,
    PackingKind,
    PlatformModel,
    Vec2,
    pairs_within,
)
from loiterpack.packing import grid_points, pack
from oracles import (
    closest_pair_loop,
    covered_at_instant,
    covered_over_cycle,
    dense_cycle_cover_count,
    dense_min_instant_fraction,
    grid_samples,
    tracks_loop,
)

TOL = 1e-9


def oracle_fractions(area, centers, r_l, r_c, grid_pitch, phase_samples):
    """(cycle, worst instant) fractions by per-point predicates."""
    px, py = grid_samples(*grid_points(area, grid_pitch))
    points = [Vec2(float(x), float(y)) for x, y in zip(px, py)]
    circles = [LoiterCircle(c, r_l) for c in centers]
    cycle = sum(any(covered_over_cycle(p, c, r_c) for c in circles) for p in points)
    worst = 1.0
    for k in range(phase_samples):
        phase = k * (2.0 * math.pi / phase_samples)
        positions = [c.point_at(phase) for c in circles]
        covered = sum(covered_at_instant(p, positions, r_c) for p in points)
        worst = min(worst, covered / len(points))
    return cycle / len(points), worst


class TestCoverageReportOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_layouts_match_the_predicates(self, seed):
        rng = np.random.default_rng(seed)
        area = AreaSpec(rng.uniform(30.0, 80.0), rng.uniform(30.0, 80.0))
        centers = [
            Vec2(rng.uniform(0.0, area.x_extent), rng.uniform(0.0, area.y_extent))
            for _ in range(rng.integers(1, 7))
        ]
        r_l = rng.uniform(3.0, 20.0)
        r_c = rng.uniform(3.0, 20.0)
        report = coverage_report(area, centers, r_l, r_c, 2.0, 8)
        cycle, instant = oracle_fractions(area, centers, r_l, r_c, 2.0, 8)
        assert report.cycle_fraction == cycle
        assert report.instant_min_fraction == instant

    def test_boundary_distance_counts_as_covered(self):
        # One grid point at (1, 1); the circle's annulus edge passes through it.
        area = AreaSpec(2.0, 2.0)
        report = coverage_report(area, [Vec2(1.0, 6.0)], 2.0, 3.0, 2.0, 8)
        assert report.cycle_fraction == 1.0

    def test_empty_fleet_covers_nothing(self):
        report = coverage_report(AreaSpec(10.0, 10.0), [], 5.0, 5.0, 1.0, 8)
        assert (report.cycle_fraction, report.instant_min_fraction) == (0.0, 0.0)

    def test_rejects_bad_arguments(self):
        area = AreaSpec(10.0, 10.0)
        with pytest.raises(ValueError):
            coverage_report(area, [Vec2(5.0, 5.0)], 5.0, 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            coverage_report(area, [Vec2(5.0, 5.0)], 5.0, 5.0, 1.0, 7)
        with pytest.raises(ValueError):
            coverage_report(area, [Vec2(5.0, 5.0)], 5.0, 5.0, 0.0, 8)


class TestKernelEmptyInputs:
    def test_no_circles(self):
        z = np.zeros(0)
        axis = np.arange(3.0)
        assert kernels.cycle_cover_count(axis, axis, z, z, 1.0, 1.0, TOL) == 0
        assert kernels.min_instant_fraction(axis, axis, z, z, 1.0, 1.0, np.zeros(8), TOL) == 0.0

    def test_no_points(self):
        z = np.zeros(0)
        c = np.zeros(3)
        assert kernels.cycle_cover_count(z, z, c, c, 1.0, 1.0, TOL) == 0
        assert kernels.min_instant_fraction(z, z, c, c, 1.0, 1.0, np.zeros(8), TOL) == 0.0


def assert_matches_dense(xs, ys, cx, cy, r_l, r_c, phases, tol=TOL):
    px, py = grid_samples(xs, ys)
    assert kernels.cycle_cover_count(xs, ys, cx, cy, r_l, r_c, tol) == dense_cycle_cover_count(
        px, py, cx, cy, r_l, r_c, tol
    )
    assert kernels.min_instant_fraction(
        xs, ys, cx, cy, r_l, r_c, phases, tol
    ) == dense_min_instant_fraction(px, py, cx, cy, r_l, r_c, phases, tol)


class TestStampedMatchesDense:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_layouts(self, seed):
        # Centres up to one loiter-plus-footprint reach outside the area,
        # r_l below r_c on odd seeds and above it on even ones, and every
        # fourth grid a single row or column.
        rng = np.random.default_rng(seed)
        area = AreaSpec(rng.uniform(20.0, 120.0), rng.uniform(20.0, 120.0))
        small, large = sorted(rng.uniform(2.0, 30.0, size=2))
        r_l, r_c = (small, large) if seed % 2 else (large, small)
        pitch = rng.uniform(0.5, 7.0)
        xs, ys = grid_points(area, pitch)
        if seed % 4 == 1:
            xs = xs[:1]
        elif seed % 4 == 3:
            ys = ys[:1]
        n = int(rng.integers(1, 12))
        margin = r_l + r_c
        cx = rng.uniform(-margin, area.x_extent + margin, size=n)
        cy = rng.uniform(-margin, area.y_extent + margin, size=n)
        phases = np.arange(36) * (2.0 * math.pi / 36)
        assert_matches_dense(xs, ys, cx, cy, r_l, r_c, phases)

    @pytest.mark.parametrize("seed", range(40))
    def test_samples_exactly_at_the_reach(self, seed):
        # The centre sits on a grid row and, with no slack, r_c is one
        # sample's distance from the annulus (cycle) or from the UAV at phase
        # 0 (instant), as the kernels compute it. That sample lies on the edge
        # of the circle's window, which rounding can move to just inside it.
        # The transposed grid puts the edge on the other axis.
        rng = np.random.default_rng(seed)
        axis, rows = grid_points(AreaSpec(60.0, 40.0), rng.uniform(0.7, 3.0))
        c = np.array([rng.uniform(-40.0, 100.0)])
        row = rows[rng.integers(rows.size), None]
        r_l = rng.uniform(2.0, 25.0)
        d = axis[rng.integers(axis.size)] - c[0]
        for r_c in (abs(abs(d) - r_l), abs(d - r_l)):
            assert kernels.cycle_cover_count(axis, rows, c, row, r_l, r_c, 0.0) >= 1
            assert_matches_dense(axis, rows, c, row, r_l, r_c, np.zeros(1), tol=0.0)
            assert_matches_dense(rows, axis, row, c, r_l, r_c, np.array([math.pi / 2]), tol=0.0)

    def test_phase_blocks_and_row_chunks(self, monkeypatch):
        # A budget small enough that every phase gets its own block of runs.
        monkeypatch.setattr(kernels, "_RUN_ENTRIES", 1)
        xs, ys = grid_points(AreaSpec(90.0, 70.0), 1.5)
        rng = np.random.default_rng(7)
        cx, cy = rng.uniform(-10.0, 100.0, size=6), rng.uniform(-10.0, 80.0, size=6)
        phases = np.arange(12) * (math.pi / 6)
        # Every phase first once, so that no block can borrow the first one's.
        for k in range(phases.size):
            assert_matches_dense(xs, ys, cx, cy, 14.0, 11.0, np.roll(phases, -k))

    @pytest.mark.parametrize("seed", range(12))
    def test_crowded_layouts(self, seed):
        # r_c many times the spacing of the centres, some centres repeated:
        # the runs of one row nest, overlap, touch and coincide.
        rng = np.random.default_rng(100 + seed)
        area = AreaSpec(rng.uniform(20.0, 60.0), rng.uniform(20.0, 60.0))
        xs, ys = grid_points(area, rng.uniform(0.4, 2.0))
        n = int(rng.integers(8, 40))
        cx = rng.uniform(0.0, area.x_extent, size=n)
        cy = rng.uniform(0.0, area.y_extent, size=n)
        cx[: n // 4], cy[: n // 4] = cx[-(n // 4) :], cy[-(n // 4) :]
        r_l, r_c = rng.uniform(0.5, 5.0), rng.uniform(8.0, 40.0)
        phases = np.arange(16) * (math.pi / 8)
        assert_matches_dense(xs, ys, cx, cy, r_l, r_c, phases)

    @pytest.mark.parametrize("seed", range(12))
    def test_fine_pitch_and_centres_outside(self, seed):
        # Pitch at most 0.05 m, radii of a few pitches to a few metres, and
        # centres up to one reach outside the area on every side.
        rng = np.random.default_rng(200 + seed)
        area = AreaSpec(rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0))
        xs, ys = grid_points(area, rng.uniform(0.01, 0.05))
        r_l, r_c = rng.uniform(0.02, 2.0), rng.uniform(0.02, 2.0)
        margin = r_l + r_c
        n = int(rng.integers(1, 10))
        cx = rng.uniform(-margin, area.x_extent + margin, size=n)
        cy = rng.uniform(-margin, area.y_extent + margin, size=n)
        phases = np.arange(8) * (math.pi / 4)
        assert_matches_dense(xs, ys, cx, cy, r_l, r_c, phases, tol=TOL if seed % 2 else 0.0)


class TestRecoveredLayoutFractions:
    """The fractions the benchmark checks bit for bit: the hexagon layouts of
    the recovered radii (17 survivors on 500x650, 54 on 1000x1000, r_c 80 m,
    r_l_max 100 m), on a 4 m grid at 36 phases."""

    @pytest.mark.parametrize(
        "x, y, r_l, instant",
        [
            (500.0, 650.0, 96.22504486493763, 0.7239012345679012),
            (1000.0, 1000.0, 95.23809523809523, 0.745728),
        ],
    )
    def test_pinned_fractions(self, x, y, r_l, instant):
        area = AreaSpec(x, y)
        layout = pack(area, r_l, PackingKind.HEXAGON)
        report = coverage_report(area, layout.centers, r_l, 80.0, 4.0, 36)
        assert report.cycle_fraction == 1.0
        assert report.instant_min_fraction == instant


class TestRowRuns:
    @pytest.mark.parametrize("seed", range(4))
    def test_runs_settle_from_any_bracketing_seeds(self, seed):
        # Seeds a <= m <= b around the sample m nearest each UAV, up to ten
        # samples off, step to the exact run of the predicate, empty or not.
        rng = np.random.default_rng(300 + seed)
        xs = (np.arange(40) + 0.5) * rng.uniform(0.05, 3.0)
        xp = np.concatenate(([-np.inf], xs, [np.inf]))
        x = rng.uniform(xs[0] - 5.0, xs[-1] + 5.0, size=500)
        reach2 = rng.uniform(0.0, 10.0) ** 2
        dy2 = reach2 * rng.uniform(0.0, 1.2, size=x.size)
        m = np.searchsorted(xp, x, "left")
        a = np.maximum(m - rng.integers(0, 10, size=x.size), 1)
        b = np.minimum(m + rng.integers(0, 10, size=x.size), xs.size + 1)
        kernels._settle(xp, lambda d2: d2 <= reach2, a, b, x, dy2)
        hold = (xs[None, :] - x[:, None]) ** 2 + dy2[:, None] <= reach2
        for i in range(x.size):
            (k,) = np.nonzero(hold[i])
            run = (k[0] + 1, k[-1] + 2) if k.size else (a[i], a[i])
            assert (a[i], b[i]) == run
            assert k.size == 0 or np.array_equal(k, np.arange(k[0], k[-1] + 1))

    def test_instant_kernel_memory(self):
        # The coverage-1km check (49 circles, 4 m grid, 36 phases) stays
        # under 3 MiB of Python-visible allocations; a (phases, ny, nx) mask
        # block took 4.7 MiB.
        area = AreaSpec(1000.0, 1000.0)
        centers = pack(area, 95.23809523809523, PackingKind.HEXAGON).centers
        cx = np.array([c.x for c in centers])
        cy = np.array([c.y for c in centers])
        xs, ys = grid_points(area, 4.0)
        phases = np.arange(36) * (2.0 * math.pi / 36)
        tracemalloc.start()
        try:
            kernels.min_instant_fraction(xs, ys, cx, cy, 95.23809523809523, 80.0, phases, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_cycle_kernel_memory(self):
        # The same layout's cycle count stays under 7/8 MiB of Python-visible
        # allocations (0.71 MiB measured): its arrays hold one entry per
        # (circle, row of its window), about 4,000 here, all in one band.
        area = AreaSpec(1000.0, 1000.0)
        centers = pack(area, 95.23809523809523, PackingKind.HEXAGON).centers
        cx = np.array([c.x for c in centers])
        cy = np.array([c.y for c in centers])
        xs, ys = grid_points(area, 4.0)
        tracemalloc.start()
        try:
            kernels.cycle_cover_count(xs, ys, cx, cy, 95.23809523809523, 80.0, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20 // 8

    def test_cycle_kernel_memory_in_row_bands(self):
        # On 4000x4000 m (700 circles, about 61,000 entries in 16 bands) the
        # cycle count stays under 3/2 MiB (0.88 MiB measured); all entries at
        # once took 10.8 MiB.
        area = AreaSpec(4000.0, 4000.0)
        centers = pack(area, 95.23809523809523, PackingKind.HEXAGON).centers
        cx = np.array([c.x for c in centers])
        cy = np.array([c.y for c in centers])
        xs, ys = grid_points(area, 4.0)
        tracemalloc.start()
        try:
            kernels.cycle_cover_count(xs, ys, cx, cy, 95.23809523809523, 80.0, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20 // 2


class TestSeeds:
    @pytest.mark.parametrize("nx", [1, 2, 37, 20_000])
    @pytest.mark.parametrize("pitch", [0.01, 0.37, 7.0])
    def test_seeds_bracket_the_nearest_sample(self, nx, pitch):
        # x on each sample and each midpoint, one ulp either side of them,
        # and beyond both ends; any ends in [1, nx + 1], from the half-width
        # or not, are widened to bracket the sample nearest x.
        xs, _ = grid_points(AreaSpec(nx * pitch, pitch), pitch)
        assert xs.size == nx
        xp = np.concatenate(([-np.inf], xs, [np.inf]))
        ends = [xs[0] - pitch, xs[-1] + pitch, xs[0] - 1e6, xs[-1] + 1e6]
        base = np.concatenate((xs, (xs[:-1] + xs[1:]) / 2, ends))
        x = np.concatenate((base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)))
        m = np.searchsorted(xp, x, "left")
        rng = np.random.default_rng(nx)
        for _ in range(4):
            a, b = np.sort(rng.integers(1, nx + 2, size=(2, x.size)), axis=0)
            a, b = kernels._seeds(xp, x, a.astype(np.intp), b.astype(np.intp))
            assert a.dtype == b.dtype == np.intp
            assert np.all((1 <= a) & (a <= m) & (m <= b) & (b <= nx + 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeds_bracket_on_irregular_axes(self, seed):
        # A geometric axis and a regular one with samples moved by up to
        # 0.45 pitch, where ends estimated from the pitch miss the nearest
        # sample: the widened ends bracket it.
        rng = np.random.default_rng(1200 + seed)
        regular = np.arange(200) * 0.5
        for xs in (0.5 * 1.03 ** np.arange(120), regular + rng.uniform(-0.225, 0.225, 200)):
            xp = np.concatenate(([-np.inf], xs, [np.inf]))
            x = rng.uniform(xs[0] - 2.0, xs[-1] + 2.0, size=2000)
            m = np.searchsorted(xp, x, "left")
            pitch = (xs[-1] - xs[0]) / (xs.size - 1)
            u = (x - xs[0]) / pitch
            for half in (0.0, 0.3, 2.0, 20.0):
                a = np.clip(np.ceil(u - half / pitch) + 1.0, 1, xs.size + 1).astype(np.intp)
                b = np.clip(np.floor(u + half / pitch) + 2.0, 1, xs.size + 1).astype(np.intp)
                a, b = kernels._seeds(xp, x, a, b)
                assert np.all((1 <= a) & (a <= m) & (m <= b) & (b <= xs.size + 1))


def random_layout(seed):
    """(xs, ys, cx, cy, r_l, r_c) shaped like ``test_random_layouts``."""
    rng = np.random.default_rng(seed)
    area = AreaSpec(rng.uniform(20.0, 120.0), rng.uniform(20.0, 120.0))
    xs, ys = grid_points(area, rng.uniform(0.5, 7.0))
    n = int(rng.integers(1, 12))
    r_l, r_c = rng.uniform(2.0, 30.0, size=2)
    margin = r_l + r_c
    cx = rng.uniform(-margin, area.x_extent + margin, size=n)
    cy = rng.uniform(-margin, area.y_extent + margin, size=n)
    return xs, ys, cx, cy, r_l, r_c


def isolated_loop(cx, cy, reach):
    """Which centres have no other centre within 2 * reach, pair by pair."""
    isolated = np.ones(cx.size, dtype=bool)
    for i in range(cx.size):
        for j in range(i + 1, cx.size):
            if math.hypot(cx[i] - cx[j], cy[i] - cy[j]) <= 2.0 * reach:
                isolated[i] = isolated[j] = False
    return isolated


def recovered_layout(x, y, r_l):
    area = AreaSpec(x, y)
    centers = pack(area, r_l, PackingKind.HEXAGON).centers
    xs, ys = grid_points(area, 4.0)
    return xs, ys, np.array([c.x for c in centers]), np.array([c.y for c in centers])


class TestCertifiedRuns:
    """Run ends taken from the half-width, the exact search they fall back to,
    and the isolated UAVs' direct sum, each against the dense predicates."""

    PHASES = np.arange(12) * (math.pi / 6)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_entry_through_the_fallback(self, monkeypatch, seed):
        # A margin of half a pitch certifies no end: every entry that is not
        # empty is seeded and settled.
        monkeypatch.setattr(kernels, "_DELTA", 0.5)
        settled = []
        settle = kernels._settle

        def counted(xp, hold, a, b, x, dy2):
            settled.append(x.size)
            settle(xp, hold, a, b, x, dy2)

        monkeypatch.setattr(kernels, "_settle", counted)
        assert_matches_dense(*random_layout(700 + seed), self.PHASES)
        assert sum(settled) > 0

    @pytest.mark.parametrize("jitter", [0.0, 1e-9, 1e-5, 0.3])
    def test_non_uniform_axis(self, jitter):
        # Samples moved off the regular axis by up to ``jitter`` pitches, on
        # either axis: within the margin the ends stay certified, beyond it
        # no end is. A geometric axis is as far from regular as it gets; with
        # footprints of a few of its samples, the pitch misplaces them by
        # dozens.
        rng = np.random.default_rng(int(jitter * 1e9) % 1000)
        xs, ys = grid_points(AreaSpec(90.0, 80.0), 1.5)
        moved = xs + rng.uniform(-jitter, jitter, size=xs.size) * 1.5
        cx, cy = rng.uniform(-10.0, 100.0, size=8), rng.uniform(-10.0, 90.0, size=8)
        geometric = 1.5 * 1.04 ** np.arange(60)
        for xs_, ys_ in ((moved, ys), (ys, moved), (geometric, ys)):
            assert np.all(np.diff(xs_) > 0)
            assert_matches_dense(xs_, ys_, cx, cy, 14.0, 11.0, self.PHASES)
        cx = rng.uniform(0.0, 16.0, size=8)
        assert_matches_dense(geometric, ys, cx, cy, 0.6, 0.9, self.PHASES)

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_tangent_to_the_footprint(self, seed):
        # A row just inside, exactly on, or just outside the reach of a UAV
        # (the centre at phase 0, the circle's outer and inner edge): the
        # half-width there is tiny or zero, and the UAV sits on a sample or
        # between two.
        rng = np.random.default_rng(800 + seed)
        xs, ys = grid_points(AreaSpec(60.0, 50.0), rng.uniform(0.5, 3.0))
        r_l, r_c = rng.uniform(3.0, 12.0), rng.uniform(3.0, 12.0)
        j = rng.integers(ys.size)
        for offset in (r_c, r_l + r_c, abs(r_l - r_c)):
            for nudge in (-1e-9, 0.0, 1e-9):
                cy = np.array([ys[j] - (offset + nudge)])
                for cx in (xs[rng.integers(xs.size), None] - r_l, rng.uniform(0.0, 60.0, 1)):
                    assert_matches_dense(xs, ys, cx, cy, r_l, r_c, np.zeros(1), tol=0.0)
                    assert_matches_dense(ys, xs, cy, cx, r_l, r_c, np.array([math.pi / 2]), tol=0.0)

    @pytest.mark.parametrize(
        "reach_pitches, half_pitches, off_edge",
        [((100.0, 450.0), (1e-9, 1e-6), False), ((1e3, 2e4), (1e-3, 1e-2), True)],
    )
    def test_rows_far_from_the_centre(self, reach_pitches, half_pitches, off_edge):
        # One row at a reach of hundreds to thousands of pitches from the
        # UAV, where the row's half-width is tiny: the UAV sits a few
        # micro-pitches off a sample, or off the edge of its run. The
        # rounding of d2 then exceeds the gap between a sample and the real
        # footprint, which only the floor on h (first case) and the call's
        # radius limit (second case) keep out of the certified ends.
        rng = np.random.default_rng(1100)
        for _ in range(200):
            pitch = rng.uniform(0.5, 2.0)
            xs = (np.arange(40) + 0.5) * pitch
            reach = rng.uniform(*reach_pitches) * pitch
            half = 10 ** rng.uniform(*np.log10(half_pitches))
            off = rng.uniform(1e-6, 3e-6) * rng.choice([-1.0, 1.0])
            off = (half + off if off_edge else off) * rng.choice([-1.0, 1.0])
            ys = np.array([rng.uniform(0.0, 10.0)])
            cx = xs[rng.integers(5, 35), None] + off * pitch
            cy = ys - math.sqrt(reach * reach - (half * pitch) ** 2)
            px, py = grid_samples(xs, ys)
            expected = dense_min_instant_fraction(px, py, cx, cy, 0.0, reach, np.zeros(1), 0.0)
            instant = kernels.min_instant_fraction(xs, ys, cx, cy, 0.0, reach, np.zeros(1), 0.0)
            assert instant == expected

    @pytest.mark.parametrize("pitch", [0.25, 1.0, 2.0])
    def test_centres_on_samples_at_whole_pitches(self, pitch):
        # Exact pitches, centres on samples and radii of whole pitches put
        # many samples exactly on the edges, where u -/+ h are integers.
        xs, ys = grid_points(AreaSpec(64.0 * pitch, 48.0 * pitch), pitch)
        rng = np.random.default_rng(int(pitch * 4))
        cx, cy = xs[rng.integers(xs.size, size=6)], ys[rng.integers(ys.size, size=6)]
        phases = np.arange(4) * (math.pi / 2)
        for r_l, r_c in ((5 * pitch, 3 * pitch), (3 * pitch, 5 * pitch), (4 * pitch, 4 * pitch)):
            assert_matches_dense(xs, ys, cx, cy, r_l, r_c, phases, tol=0.0)
            assert_matches_dense(xs, ys, cx, cy, r_l, r_c, phases)

    @pytest.mark.parametrize("seed", range(8))
    def test_isolated_and_clustered_uavs(self, seed):
        # Centres on a coarse lattice more than two reaches apart, some with
        # a partner within two reaches: both kinds in one call, and the
        # sweep's isolated set is the pair loop's.
        rng = np.random.default_rng(900 + seed)
        r_l, r_c = rng.uniform(2.0, 10.0), rng.uniform(3.0, 8.0)
        spacing = 2.0 * r_c + rng.uniform(0.5, 3.0)
        gx, gy = np.meshgrid(np.arange(4) * spacing, np.arange(3) * spacing)
        cx, cy = gx.ravel(), gy.ravel()
        partners = rng.choice(cx.size, size=3, replace=False)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=3)
        distance = rng.uniform(0.0, 2.0 * r_c, size=3)
        cx = np.concatenate((cx, cx[partners] + distance * np.cos(angle)))
        cy = np.concatenate((cy, cy[partners] + distance * np.sin(angle)))
        isolated = kernels._isolated(cx, cy, r_c + TOL, 4.0 * spacing)
        assert np.array_equal(isolated, isolated_loop(cx, cy, r_c + TOL))
        assert 0 < isolated.sum() < cx.size
        xs, ys = grid_points(AreaSpec(4.0 * spacing, 3.0 * spacing), rng.uniform(0.4, 1.5))
        assert_matches_dense(xs, ys, cx, cy, r_l, r_c, self.PHASES)

    @pytest.mark.parametrize(
        "x, y, r_l", [(1000.0, 1000.0, 95.23809523809523), (500.0, 650.0, 96.22504486493763)]
    )
    def test_few_entries_fall_back_on_the_recovered_layouts(self, monkeypatch, x, y, r_l):
        # The perfbench layouts: under 1 % of the run entries of either
        # kernel are searched, so a degenerate margin shows here, not only
        # as a slowdown.
        xs, ys, cx, cy = recovered_layout(x, y, r_l)
        counts = {"entries": 0, "settled": 0}
        runs, settle = kernels._runs, kernels._settle

        def counted_runs(axis, x, *args):
            counts["entries"] += x.size
            return runs(axis, x, *args)

        def counted_settle(xp, hold, a, b, x, dy2):
            counts["settled"] += x.size
            settle(xp, hold, a, b, x, dy2)

        monkeypatch.setattr(kernels, "_runs", counted_runs)
        monkeypatch.setattr(kernels, "_settle", counted_settle)
        phases = np.arange(36) * (2.0 * math.pi / 36)
        kernels.min_instant_fraction(xs, ys, cx, cy, r_l, 80.0, phases, TOL)
        kernels.cycle_cover_count(xs, ys, cx, cy, r_l, 80.0, TOL)
        assert counts["entries"] > 10_000
        assert counts["settled"] < 0.01 * counts["entries"]

    @pytest.mark.parametrize("entries", [1, 7, 100])
    def test_cycle_row_bands(self, monkeypatch, entries):
        # Bands of one row, of a few rows and of a few windows' rows.
        monkeypatch.setattr(kernels, "_RUN_ENTRIES", entries)
        for seed in range(4):
            xs, ys, cx, cy, r_l, r_c = random_layout(1000 + seed)
            px, py = grid_samples(xs, ys)
            expected = dense_cycle_cover_count(px, py, cx, cy, r_l, r_c, TOL)
            assert kernels.cycle_cover_count(xs, ys, cx, cy, r_l, r_c, TOL) == expected


class TestAnnulusRuns:
    """The cycle kernel against the dense predicate at tol 0, where rounding
    decides the samples on the edges of the annulus."""

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_tangent_to_the_inner_and_outer_circle(self, seed):
        # The centre sits on a sample, and r_c puts the sample k rows above it
        # exactly on the outer circle or exactly on the inner one, as the
        # kernel computes them; the transposed grid makes those columns.
        rng = np.random.default_rng(400 + seed)
        xs, ys = grid_points(AreaSpec(80.0, 90.0), rng.uniform(0.5, 3.0))
        i, j = rng.integers(xs.size), rng.integers(ys.size // 3)
        cx, cy = xs[i : i + 1], ys[j : j + 1]
        d_in, d_out = sorted(ys[j + rng.choice(np.arange(1, ys.size - j), 2, replace=False)] - cy[0])
        r_l = rng.uniform(d_in, d_out)
        for r_c in (d_out - r_l, r_l - d_in):
            for xs_, ys_, cx_, cy_ in ((xs, ys, cx, cy), (ys, xs, cy, cx)):
                px, py = grid_samples(xs_, ys_)
                expected = dense_cycle_cover_count(px, py, cx_, cy_, r_l, r_c, 0.0)
                assert kernels.cycle_cover_count(xs_, ys_, cx_, cy_, r_l, r_c, 0.0) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_annulus_without_a_hole(self, seed):
        # r_l < r_c leaves no hole; r_l = r_c + tol leaves one of zero radius,
        # and a centre on a sample then puts that sample in it or on its edge.
        rng = np.random.default_rng(500 + seed)
        xs, ys = grid_points(AreaSpec(60.0, 50.0), rng.uniform(0.5, 3.0))
        n = int(rng.integers(1, 6))
        cx = np.concatenate((xs[rng.integers(xs.size, size=1)], rng.uniform(-10.0, 70.0, n)))
        cy = np.concatenate((ys[rng.integers(ys.size, size=1)], rng.uniform(-10.0, 60.0, n)))
        r_c = rng.uniform(2.0, 15.0)
        for r_l, tol in ((rng.uniform(0.5, r_c), 0.0), (r_c, 0.0), (r_c + TOL, TOL)):
            px, py = grid_samples(xs, ys)
            expected = dense_cycle_cover_count(px, py, cx, cy, r_l, r_c, tol)
            assert kernels.cycle_cover_count(xs, ys, cx, cy, r_l, r_c, tol) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_single_row_and_single_column_grids(self, seed):
        rng = np.random.default_rng(600 + seed)
        axis, _ = grid_points(AreaSpec(70.0, 1.0), rng.uniform(0.3, 4.0))
        other = np.array([rng.uniform(0.0, 1.0)])
        n = int(rng.integers(1, 8))
        c_along = rng.uniform(-30.0, 100.0, size=n)
        c_across = rng.uniform(-30.0, 30.0, size=n)
        r_l, r_c = rng.uniform(1.0, 25.0), rng.uniform(1.0, 25.0)
        for xs, ys, cx, cy in ((axis, other, c_along, c_across), (other, axis, c_across, c_along)):
            px, py = grid_samples(xs, ys)
            expected = dense_cycle_cover_count(px, py, cx, cy, r_l, r_c, 0.0)
            assert kernels.cycle_cover_count(xs, ys, cx, cy, r_l, r_c, 0.0) == expected


def loiterers(*xs):
    """Equal circles on the x axis, all at phase 0."""
    return [(LoiterCircle(Vec2(x, 0.0), 30.0), 0.0) for x in xs]


class TestClosestApproach:
    def test_fewer_than_two_uavs(self):
        assert closest_approach([], v=15.0) == (math.inf, -1, -1)
        assert closest_approach([], loitering=loiterers(0.0), v=15.0) == (math.inf, -1, -1)

    def test_ties_go_to_the_lexicographically_first_pair(self):
        # Repeated circles fly identical tracks, so their pairs tie at exactly 0.
        assert closest_approach([], loitering=loiterers(0, 100, 0, 0), v=15.0) == (0.0, 0, 2)
        tracks = loiterers(0, 100, 200, 100, 200)
        assert closest_approach([], loitering=tracks, v=15.0) == (0.0, 1, 3)

    def test_closest_pair_in_a_later_row(self):
        sep, i, j = closest_approach([], loitering=loiterers(0, 100, 250, 260), v=15.0)
        assert (i, j) == (2, 3)
        assert sep == pytest.approx(10.0, abs=1e-9)

    def test_plans_are_indexed_before_loiterers(self):
        src = LoiterCircle(Vec2(0.0, 0.0), 30.0)
        tgt = LoiterCircle(Vec2(400.0, 0.0), 30.0)
        plan = plan_transition(0, src, 0.0, tgt, 10.0, 15.0)
        # After arrival the plan loiters on the target antipodal to the
        # second loiterer (index 2), 60 m away; the first one stays far off.
        far = (LoiterCircle(Vec2(-1000.0, 0.0), 30.0), 0.0)
        sep, i, j = closest_approach([plan], loitering=[far, (tgt, math.pi)], v=15.0)
        assert (i, j) == (0, 2)
        assert sep <= 60.0 + 1e-9

    def test_loiterers_on_one_vertical_line(self):
        # Every box spans the same x extent, so every sweep window holds
        # every pair; only the y gaps prune.
        tracks = [(LoiterCircle(Vec2(0.0, 45.0 * k), 30.0), 0.4 * k) for k in range(12)]
        times = _timeline((), tracks, 15.0, 0.25)
        expected = closest_pair_loop(tracks_loop((), tracks, 15.0, times))
        assert closest_approach([], loitering=tracks, v=15.0) == expected

    @pytest.mark.parametrize("entries", [1, dubins._TRACK_ENTRIES])
    def test_second_pass_widens_to_the_closest_pair(self, monkeypatch, entries):
        # Two clusters 10 km apart, farther than any box. In each, one
        # circle carries an antipodal pair (overlapping boxes, 60 m apart at
        # every sample), and two circles side by side carry a pair whose
        # boxes are 1.5 or 1 m apart and which pass within a few metres at
        # the samples: the first pass bounds the answer at 60 m, the second
        # finds it.
        monkeypatch.setattr(dubins, "_TRACK_ENTRIES", entries)
        gaps = []

        def recorded(x0, y0, x1, y1, gap):
            gaps.append(gap)
            return pairs_within(x0, y0, x1, y1, gap)

        monkeypatch.setattr(dubins, "pairs_within", recorded)
        tracks = []
        for x, spacing in ((0.0, 61.5), (10_000.0, 61.0)):
            tracks += [
                (LoiterCircle(Vec2(x, 0.0), 30.0), 0.0),
                (LoiterCircle(Vec2(x, 0.0), 30.0), math.pi),
                (LoiterCircle(Vec2(x + 200.0, 0.0), 30.0), math.pi),
                (LoiterCircle(Vec2(x + 200.0 + spacing, 0.0), 30.0), 0.0),
            ]
        times = _timeline((), tracks, 15.0, 0.25)
        expected = closest_pair_loop(tracks_loop((), tracks, 15.0, times))
        assert closest_approach([], loitering=tracks, v=15.0) == expected
        assert expected[1:] == (6, 7) and 1.0 <= expected[0] < 10.0
        assert gaps[0] == 0.0 and gaps[1] > 60.0

    @pytest.mark.parametrize("entries", [1, dubins._TRACK_ENTRIES])
    def test_repeated_tracks_in_both_clusters_tie_at_zero(self, monkeypatch, entries):
        # UAVs 0 and 3 repeat a track of the far cluster and UAVs 1 and 4 one
        # of the near cluster, which the sweep meets first; both pairs tie at
        # exactly 0 and the lexicographically first wins.
        monkeypatch.setattr(dubins, "_TRACK_ENTRIES", entries)
        far = (LoiterCircle(Vec2(10_000.0, 0.0), 30.0), 1.0)
        near = (LoiterCircle(Vec2(0.0, 0.0), 30.0), 2.0)
        tracks = [far, near, (LoiterCircle(Vec2(40.0, 0.0), 30.0), 0.0), far, near]
        times = _timeline((), tracks, 15.0, 0.25)
        assert closest_pair_loop(tracks_loop((), tracks, 15.0, times)) == (0.0, 0, 3)
        assert closest_approach([], loitering=tracks, v=15.0) == (0.0, 0, 3)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_2km_rung_evaluates_few_pairs(self, monkeypatch, seed):
        # The 2 km rung (340 UAVs, lose 136): both draws stagger once, so
        # each recovery checks separation twice. Every check equals the pair
        # loop over ``track``'s own arrays and evaluates under 5 % of the
        # pairs.
        area, platform = AreaSpec(2000.0, 2000.0), PlatformModel(speed=15.0, max_bank=0.5)
        calls, evaluated = [], []
        pair_minima = dubins._pair_minima

        def counted(xs, ys, first, second):
            evaluated[-1] += first.size
            return pair_minima(xs, ys, first, second)

        def recorded(plans, loitering=(), v=1.0, dt=0.25):
            evaluated.append(0)
            result = closest_approach(plans, loitering, v=v, dt=dt)
            calls.append((list(plans), v, dt, result))
            return result

        monkeypatch.setattr(dubins, "_pair_minima", counted)
        monkeypatch.setattr(fleet, "closest_approach", recorded)
        state = fleet.step(deploy(area, PackingKind.HEXAGON, platform, radius=70.0), 60.0)
        inject_failure(state, FailureEvent(time=60.0, seed=seed, loss_count=136))
        super_agent_recover(
            detect_failures(state), area, PackingKind.HEXAGON, 80.0, platform, r_l_max=100.0
        )
        assert len(calls) == 2
        for (plans, v, dt, result), count in zip(calls, evaluated):
            x, y, _ = dubins.track(plans, _timeline(plans, (), v, dt), v)
            assert result == closest_pair_loop(np.stack((x, y), axis=2))
            n = len(plans)
            assert count < 0.05 * (n * (n - 1) // 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_pair_loop(self, seed):
        # Recovery transitions of the Table II scenario, plus loiterers that
        # repeat one circle (exact ties) and sit among the transit tracks,
        # and the untied loiterers alone.
        area, platform = AreaSpec(500.0, 650.0), PlatformModel(speed=15.0, max_bank=0.5)
        state = deploy(area, PackingKind.HEXAGON, platform, radius=70.0)
        inject_failure(state, FailureEvent(seed=seed, loss_count=18))
        plan = super_agent_recover(
            detect_failures(state), area, PackingKind.HEXAGON, 80.0, platform, r_l_max=100.0
        )
        rng = np.random.default_rng(seed)
        circle = LoiterCircle(Vec2(rng.uniform(0, 500), rng.uniform(0, 650)), 70.0)
        loitering = [(circle, 1.0), (circle, 1.0)] + [
            (LoiterCircle(Vec2(rng.uniform(0, 500), rng.uniform(0, 650)), 70.0), rng.uniform(0, 6))
            for _ in range(3)
        ]
        cases = ((plan.transitions, ()), (plan.transitions, loitering), ((), loitering[2:]))
        for plans, extra in cases:
            times = _timeline(plans, extra, 15.0, 0.25)
            expected = closest_pair_loop(tracks_loop(plans, extra, 15.0, times))
            assert closest_approach(plans, extra, v=15.0, dt=0.25) == expected

    @pytest.mark.parametrize("entries", [1, 700, 5000])
    def test_track_blocks_beside_loiterers(self, monkeypatch, entries):
        # The plans' rows are written in blocks of one, two and about
        # fourteen plans (about 355 samples each), ahead of the loiterers' rows.
        monkeypatch.setattr(dubins, "_TRACK_ENTRIES", entries)
        area, platform = AreaSpec(500.0, 650.0), PlatformModel(speed=15.0, max_bank=0.5)
        state = deploy(area, PackingKind.HEXAGON, platform, radius=70.0)
        inject_failure(state, FailureEvent(seed=5, loss_count=18))
        plans = super_agent_recover(
            detect_failures(state), area, PackingKind.HEXAGON, 80.0, platform, r_l_max=100.0
        ).transitions
        loitering = [(LoiterCircle(Vec2(90.0 * k, 300.0), 70.0), 0.7 * k) for k in range(4)]
        times = _timeline(plans, loitering, 15.0, 0.25)
        expected = closest_pair_loop(tracks_loop(plans, loitering, 15.0, times))
        assert closest_approach(plans, loitering, v=15.0, dt=0.25) == expected

    # (area x, area y, UAVs lost, failure seeds) of the perfbench workloads
    # paper-35 and coverage-1km.
    @pytest.mark.parametrize(
        "x, y, loss_count, draws", [(500.0, 650.0, 18, 32), (1000.0, 1000.0, 36, 16)]
    )
    def test_matches_the_scalar_track_oracle_on_recoveries(
        self, monkeypatch, x, y, loss_count, draws
    ):
        # Every separation check of every recovery (stagger rounds included)
        # against the pair loop over tracks sampled one time at a time.
        area, platform = AreaSpec(x, y), PlatformModel(speed=15.0, max_bank=0.5)
        calls = []

        def recorded(plans, loitering=(), v=1.0, dt=0.25):
            result = closest_approach(plans, loitering, v=v, dt=dt)
            calls.append((list(plans), list(loitering), v, dt, result))
            return result

        monkeypatch.setattr(fleet, "closest_approach", recorded)
        for seed in range(draws):
            state = fleet.step(deploy(area, PackingKind.HEXAGON, platform, radius=70.0), 60.0)
            inject_failure(state, FailureEvent(time=60.0, seed=seed, loss_count=loss_count))
            super_agent_recover(
                detect_failures(state), area, PackingKind.HEXAGON, 80.0, platform, r_l_max=100.0
            )
        assert len(calls) >= draws
        for plans, loitering, v, dt, result in calls:
            times = _timeline(plans, loitering, v, dt)
            assert result == closest_pair_loop(tracks_loop(plans, loitering, v, times))
