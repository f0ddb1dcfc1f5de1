import math

import numpy as np
import pytest

from loiterpack import fleet, kernels
from loiterpack.dubins import _timeline, closest_approach, plan_transition
from loiterpack.fleet import (
    FailureEvent,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    super_agent_recover,
)
from loiterpack.geometry import AreaSpec, LoiterCircle, PackingKind, PlatformModel, Vec2
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
        # Budgets small enough that every phase gets its own mask block and
        # every stamp is split into several row chunks.
        monkeypatch.setattr(kernels, "_MASK_ELEMENTS", 1)
        monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 64)
        xs, ys = grid_points(AreaSpec(90.0, 70.0), 1.5)
        rng = np.random.default_rng(7)
        cx, cy = rng.uniform(-10.0, 100.0, size=6), rng.uniform(-10.0, 80.0, size=6)
        assert_matches_dense(xs, ys, cx, cy, 14.0, 11.0, np.arange(12) * (math.pi / 6))


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
