import math

import numpy as np
import pytest

from loiterpack import geometry
from loiterpack.geometry import (
    AreaSpec,
    LoiterCircle,
    PackingKind,
    PlatformModel,
    SensorModel,
    Vec2,
    coverage_radius,
    lens_area,
    max_loiter_radius,
    min_comm_radius,
    min_turn_radius,
    packing_params,
    pairs_within,
)
from oracles import covered_at_instant, covered_over_cycle, lens_area_quad, pairs_within_points

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestTypes:
    def test_vec2_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, math.inf)

    def test_area_rejects_degenerate_extents(self):
        with pytest.raises(ValueError):
            AreaSpec(0.0, 10.0)
        with pytest.raises(ValueError):
            AreaSpec(10.0, -1.0)

    def test_sensor_model_validation(self):
        with pytest.raises(ValueError):
            SensorModel(fov_half_angle=math.pi / 2, altitude=100.0)
        with pytest.raises(ValueError):
            SensorModel(fov_half_angle=0.5, altitude=0.0)

    def test_platform_model_validation(self):
        with pytest.raises(ValueError):
            PlatformModel(speed=10.0, max_bank=0.0)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="speed must be"):
                PlatformModel(speed=bad, max_bank=0.5)
            with pytest.raises(ValueError, match="gravity must be"):
                PlatformModel(speed=10.0, max_bank=0.5, gravity=bad)

    def test_loiter_circle_requires_positive_radius(self):
        with pytest.raises(ValueError):
            LoiterCircle(Vec2(0, 0), 0.0)


class TestCoverageRadius:
    def test_unit_tangent(self):
        assert coverage_radius(SensorModel(math.pi / 4, 100.0)) == pytest.approx(100.0)

    def test_vanishes_with_altitude(self):
        assert coverage_radius(SensorModel(math.pi / 4, 1e-9)) == pytest.approx(0.0, abs=1e-8)

    def test_direct_evaluation(self):
        assert coverage_radius(SensorModel(math.pi / 6, 50.0)) == pytest.approx(28.8675, abs=1e-4)


class TestMinTurnRadius:
    def test_vanishes_with_speed(self):
        # The platform type requires positive speed; the zero-speed limit is 0.
        assert min_turn_radius(PlatformModel(1e-9, 0.5, 9.81)) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert min_turn_radius(PlatformModel(15.0, 0.5, 9.81)) == pytest.approx(11.4679, abs=1e-4)
        assert min_turn_radius(PlatformModel(10.0, 1.0, 10.0)) == pytest.approx(10.0)


class TestMaxLoiterRadius:
    def test_hexagon_bound(self):
        assert max_loiter_radius(73.205, PackingKind.HEXAGON) == pytest.approx(100.0, abs=1e-3)
        assert max_loiter_radius(1.0, PackingKind.HEXAGON) == pytest.approx(1.36603, abs=1e-5)

    def test_square_bound(self):
        assert max_loiter_radius(1.0, PackingKind.SQUARE) == pytest.approx(2.41421, abs=1e-5)

    def test_requires_positive_footprint(self):
        with pytest.raises(ValueError):
            max_loiter_radius(0.0, PackingKind.HEXAGON)


class TestMinCommRadius:
    def test_values(self):
        assert min_comm_radius(100.0, PackingKind.HEXAGON) == pytest.approx(173.205, abs=1e-3)
        assert min_comm_radius(100.0, PackingKind.SQUARE) == pytest.approx(141.421, abs=1e-3)
        assert min_comm_radius(1.0, PackingKind.HEXAGON) == pytest.approx(1.73205, abs=1e-5)


class TestLensArea:
    def test_tangent_and_coincident(self):
        assert lens_area(2.0, 1.0) == 0.0
        assert lens_area(5.0, 1.0) == 0.0
        assert lens_area(0.0, 1.0) == pytest.approx(math.pi)

    def test_hexagon_pitch_value(self):
        assert lens_area(SQRT3, 1.0) == pytest.approx(0.18117, abs=1e-5)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = rng.uniform(0.1, 100.0)
            d = rng.uniform(0.0, 2.2 * r)
            assert lens_area(d, r) == pytest.approx(lens_area_quad(d, r), abs=1e-6 * r * r)

    def test_monotone_non_increasing_in_distance(self):
        r = 3.7
        ds = np.linspace(0.0, 2.5 * r, 200)
        areas = [lens_area(d, r) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(areas, areas[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lens_area(-1.0, 1.0)
        with pytest.raises(ValueError):
            lens_area(1.0, 0.0)


class TestPackingParams:
    def test_square_half_overlap(self):
        p = packing_params(1.0, PackingKind.SQUARE)
        assert p.paper_half_overlap_area == pytest.approx((math.pi - 2.0) / 4.0, abs=1e-9)
        assert p.paper_half_overlap_area == pytest.approx(0.28540, abs=1e-5)

    def test_square_paper_equals_exact(self):
        p = packing_params(2.5, PackingKind.SQUARE)
        assert p.paper_half_overlap_area == pytest.approx(p.half_overlap_area, abs=1e-9)
        assert p.paper_effective_area == pytest.approx(p.effective_area, abs=1e-9)

    def test_hexagon_variants(self):
        p = packing_params(1.0, PackingKind.HEXAGON)
        assert p.paper_half_overlap_area == pytest.approx((math.pi - 3.0) / 6.0, abs=1e-9)
        assert p.paper_half_overlap_area == pytest.approx(0.02360, abs=1e-5)
        assert p.half_overlap_area == pytest.approx(0.09059, abs=1e-5)
        assert p.paper_effective_area == pytest.approx(6.0 - math.pi, abs=1e-9)
        assert p.effective_area == pytest.approx(math.pi - 6.0 * lens_area(SQRT3, 1.0))

    def test_hexagon_discrepancy_is_a_fixed_scale_offset(self):
        # exact - paper is a constant multiple of r^2, never silently mixed away
        offset = None
        for r in (0.5, 1.0, 7.0, 60.0):
            p = packing_params(r, PackingKind.HEXAGON)
            scaled = (p.half_overlap_area - p.paper_half_overlap_area) / (r * r)
            if offset is None:
                offset = scaled
            assert scaled == pytest.approx(offset, abs=1e-12)
        assert offset == pytest.approx(0.09059 - 0.02360, abs=1e-4)

    def test_pitches(self):
        hx = packing_params(2.0, PackingKind.HEXAGON)
        assert hx.side_length == pytest.approx(2.0)
        assert hx.x_pitch == pytest.approx(2.0 * SQRT3)
        assert hx.y_pitch == pytest.approx(3.0)
        assert hx.overlap_angle == pytest.approx(math.pi / 3)
        sq = packing_params(2.0, PackingKind.SQUARE)
        assert sq.side_length == pytest.approx(2.0 * SQRT2)
        assert sq.x_pitch == sq.y_pitch == pytest.approx(2.0 * SQRT2)
        assert sq.overlap_angle == pytest.approx(math.pi / 2)

    def test_square_closed_form_matches_lens_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = rng.uniform(1e-6, 100.0)
            closed = (math.pi - 2.0) * r * r / 2.0
            assert abs(closed - lens_area(SQRT2 * r, r)) <= 1e-6 * r * r

    def test_hexagon_overlap_smaller_than_square(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = rng.uniform(1e-3, 500.0)
            assert 6.0 * lens_area(SQRT3 * r, r) < 4.0 * lens_area(SQRT2 * r, r)


def _hex_cluster(r_l: float) -> list[Vec2]:
    """Central circle center plus its six packed neighbors."""
    centers = [Vec2(0.0, 0.0)]
    for k in range(6):
        ang = math.radians(60 * k)
        centers.append(Vec2(SQRT3 * r_l * math.cos(ang), SQRT3 * r_l * math.sin(ang)))
    return centers


class TestCoveredOverCycle:
    def test_center_inside_annulus(self):
        circle = LoiterCircle(Vec2(0, 0), 1.0)
        assert covered_over_cycle(Vec2(0, 0), circle, r_c=1.0)
        assert not covered_over_cycle(Vec2(0, 0), LoiterCircle(Vec2(0, 0), 1.2), r_c=1.0)

    def test_neighbor_center_at_max_loiter_is_boundary_covered(self):
        # r_l = 1, r_c = (sqrt(3)-1) r_l: the neighbor-center distance sqrt(3) r_l
        # is exactly on the swept annulus edge.
        r_l = 1.0
        r_c = SQRT3 - 1.0
        circle = LoiterCircle(Vec2(0, 0), r_l)
        assert covered_over_cycle(Vec2(SQRT3, 0.0), circle, r_c)

    def test_max_loiter_is_the_coverage_boundary(self):
        r_c = 0.9
        p = lambda r_l: Vec2(SQRT3 * r_l, 0.0)
        r_max = max_loiter_radius(r_c, PackingKind.HEXAGON)
        assert covered_over_cycle(p(r_max * (1 - 1e-6)), LoiterCircle(Vec2(0, 0), r_max * (1 - 1e-6)), r_c)
        r_over = r_max * (1 + 1e-6)
        assert not covered_over_cycle(p(r_over), LoiterCircle(Vec2(0, 0), r_over), r_c)

    def test_agrees_with_sampled_phase_oracle(self):
        rng = np.random.default_rng(7)
        n_phases = 720
        phases = np.arange(n_phases) * (2 * math.pi / n_phases)
        for _ in range(200):
            r_l = rng.uniform(0.5, 5.0)
            r_c = rng.uniform(0.2, 3.0)
            circle = LoiterCircle(Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)), r_l)
            p = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            xs = circle.center.x + r_l * np.cos(phases)
            ys = circle.center.y + r_l * np.sin(phases)
            sampled = float(np.min(np.hypot(p.x - xs, p.y - ys)))
            margin = abs(abs(p.dist(circle.center) - r_l) - r_c)
            band = r_l * (2 * math.pi / n_phases)
            if margin > band:  # outside the sampling ambiguity band
                assert covered_over_cycle(p, circle, r_c) == (sampled <= r_c)


class TestCoveredAtInstant:
    def test_zero_distance_and_boundary(self):
        assert covered_at_instant(Vec2(1, 2), [Vec2(1, 2)], r_c=0.5)
        assert covered_at_instant(Vec2(0, 0), [Vec2(3.0, 0.0)], r_c=3.0)
        assert not covered_at_instant(Vec2(0, 0), [Vec2(3.1, 0.0)], r_c=3.0)

    def test_empty_positions(self):
        assert not covered_at_instant(Vec2(0, 0), [], r_c=1.0)

    def test_hex_cluster_covers_central_disk_at_phase_pi_over_3(self):
        # Synchronized neighbors keep the central circle's disk fully covered
        # at the sampled instant when the loiter radius equals the footprint.
        r_l = r_c = 1.0
        phase = math.pi / 3.0
        positions = [
            Vec2(c.x + r_l * math.cos(phase), c.y + r_l * math.sin(phase))
            for c in _hex_cluster(r_l)
        ]
        rng = np.random.default_rng(3)
        for _ in range(500):
            rho = r_l * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2 * math.pi)
            p = Vec2(rho * math.cos(ang), rho * math.sin(ang))
            assert covered_at_instant(p, positions, r_c)

    def test_central_point_needs_the_far_side_neighbor(self):
        # At phase pi/3 the disk center is reached by the neighbor opposite
        # the flight direction (plus its own UAV exactly at distance r_c).
        r_l = r_c = 1.0
        phase = math.pi / 3.0
        cluster = _hex_cluster(r_l)
        own = Vec2(r_l * math.cos(phase), r_l * math.sin(phase))
        far = cluster[5]  # neighbor at 240 degrees
        far_pos = Vec2(far.x + r_l * math.cos(phase), far.y + r_l * math.sin(phase))
        assert covered_at_instant(Vec2(0, 0), [own], r_c)
        assert covered_at_instant(Vec2(0, 0), [far_pos], r_c)


class TestPairsWithin:
    @pytest.mark.parametrize("seed", range(6))
    def test_points_are_zero_size_boxes(self, seed):
        # Points on a 5 m lattice, so many pairs lie at exactly the gap
        # (3-4-5 offsets), repeated points, and points in general position:
        # the same pairs, in the same order, as the sweep over points.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        lattice = rng.integers(0, 12, size=(2, n)) * 5.0
        uniform = rng.uniform(-300.0, 300.0, size=(2, n))
        for x, y in (lattice, uniform):
            for gap in (0.0, 5.0, 25.0, float(rng.uniform(0.0, 80.0)), math.inf):
                first, second = pairs_within(x, y, x, y, gap)
                expected_first, expected_second = pairs_within_points(x, y, gap)
                assert np.array_equal(first, expected_first)
                assert np.array_equal(second, expected_second)
        x, y = lattice
        first, second = pairs_within(x, y, x, y, 25.0)
        assert (np.hypot(x[second] - x[first], y[second] - y[first]) == 25.0).any()

    @pytest.mark.parametrize("candidates", [1, 7, 100])
    def test_spans_of_candidates(self, monkeypatch, candidates):
        # Spans of one box, of a few candidates and of a few boxes' windows
        # give the same pairs, in the same order, as the sweep over points.
        monkeypatch.setattr(geometry, "_PAIR_CANDIDATES", candidates)
        rng = np.random.default_rng(70)
        lattice = rng.integers(0, 12, size=(2, 150)) * 5.0
        for x, y in (lattice, rng.uniform(-300.0, 300.0, size=(2, 150))):
            for gap in (0.0, 25.0, math.inf):
                first, second = pairs_within(x, y, x, y, gap)
                expected_first, expected_second = pairs_within_points(x, y, gap)
                assert np.array_equal(first, expected_first)
                assert np.array_equal(second, expected_second)
        empty = np.zeros(0)
        assert all(side.size == 0 for side in pairs_within(empty, empty, empty, empty, 1.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_boxes_match_every_pair(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = 60
        x0, y0 = rng.uniform(0.0, 200.0, size=(2, n))
        x1, y1 = x0 + rng.uniform(0.0, 30.0, n), y0 + rng.uniform(0.0, 30.0, n)
        for gap in (0.0, 4.0, 20.0):
            expected = set()
            for i in range(n):
                for j in range(i + 1, n):
                    gx = max(x0[j] - x1[i], x0[i] - x1[j], 0.0)
                    gy = max(y0[j] - y1[i], y0[i] - y1[j], 0.0)
                    if np.hypot(gx, gy) <= gap:
                        expected.add((i, j))
            first, second = pairs_within(x0, y0, x1, y1, gap)
            got = set(zip(np.minimum(first, second).tolist(), np.maximum(first, second).tolist()))
            assert got == expected and len(first) == len(expected)
