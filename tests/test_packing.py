import math

import numpy as np
import pytest

from loiterpack.fleet import coverage_report
from loiterpack.geometry import AreaSpec, PackingKind, Vec2, max_loiter_radius
from loiterpack import packing
from loiterpack.packing import PackingLayout, grid_points, pack, uav_count
from oracles import count_hexagon_placement, count_square_placement

SQRT3 = math.sqrt(3.0)
AREA = AreaSpec(500.0, 650.0)


class TestPack:
    def test_hexagon_70_gives_35(self):
        layout = pack(AREA, 70.0, PackingKind.HEXAGON)
        assert layout.count == 35
        assert layout.n_rows == 7
        assert layout.per_row_counts == (5,) * 7

    def test_square_70_gives_42(self):
        layout = pack(AREA, 70.0, PackingKind.SQUARE)
        assert layout.count == 42
        assert layout.n_rows == 7
        assert layout.per_row_counts == (6,) * 7

    def test_hexagon_50_alternates_rows(self):
        layout = pack(AREA, 50.0, PackingKind.HEXAGON)
        assert layout.count == 58
        assert layout.n_rows == 9
        assert layout.per_row_counts == (6, 7, 6, 7, 6, 7, 6, 7, 6)

    def test_first_centers_match_construction(self):
        hx = pack(AREA, 70.0, PackingKind.HEXAGON)
        first = hx.rows[0][0]
        assert first.x == pytest.approx(70.0 * math.cos(math.pi / 6))
        assert first.y == pytest.approx(70.0 * math.sin(math.pi / 6))
        assert hx.rows[1][0].x == 0.0
        assert hx.rows[1][0].y == pytest.approx(first.y + 1.5 * 70.0)
        sq = pack(AREA, 70.0, PackingKind.SQUARE)
        assert sq.rows[0][0].x == pytest.approx(70.0 * math.cos(math.pi / 4))
        assert sq.rows[0][0].y == pytest.approx(70.0 * math.sin(math.pi / 4))

    def test_pitches_are_exact(self):
        layout = pack(AREA, 70.0, PackingKind.HEXAGON)
        for row in layout.rows:
            for a, b in zip(row, row[1:]):
                assert b.x - a.x == pytest.approx(SQRT3 * 70.0, abs=1e-9)
        for r0, r1 in zip(layout.rows, layout.rows[1:]):
            assert r1[0].y - r0[0].y == pytest.approx(1.5 * 70.0, abs=1e-9)

    def test_hexagon_row_counts_take_at_most_two_values(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            r = rng.uniform(20.0, 120.0)
            layout = pack(AREA, r, PackingKind.HEXAGON)
            assert len(set(layout.per_row_counts)) <= 2

    def test_determinism(self):
        a = pack(AREA, 61.7, PackingKind.HEXAGON)
        b = pack(AREA, 61.7, PackingKind.HEXAGON)
        assert a == b
        assert a.rows == b.rows

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            pack(AREA, 0.0, PackingKind.HEXAGON)

    def test_at_most_one_fractionally_outside_circle_per_direction(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            r = rng.uniform(15.0, 130.0)
            kind = PackingKind.HEXAGON if rng.uniform() < 0.5 else PackingKind.SQUARE
            layout = pack(AREA, r, kind)
            for row in layout.rows:
                assert sum(1 for c in row if c.x > AREA.x_extent) <= 1
            outside_rows = sum(1 for row in layout.rows if row[0].y > AREA.y_extent)
            assert outside_rows <= 1

    def test_row_spans_cover_the_extent(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            r = rng.uniform(15.0, 130.0)
            layout = pack(AREA, r, PackingKind.HEXAGON)
            for row in layout.rows:
                assert row[-1].x + SQRT3 * r / 2.0 >= AREA.x_extent - 1e-9
            assert layout.rows[-1][0].y + r >= AREA.y_extent - 1e-9


class TestUavCount:
    def test_survivor_radius_gives_17(self):
        assert uav_count(AREA, 96.22504486493763, PackingKind.HEXAGON) == 17
        assert uav_count(AREA, 100.0, PackingKind.HEXAGON) == 17

    def test_tiny_area_single_circle(self):
        assert uav_count(AreaSpec(1.0, 1.0), 10.0, PackingKind.HEXAGON) == 1

    def test_equals_flattened_pack(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            r = rng.uniform(10.0, 150.0)
            kind = PackingKind.HEXAGON if rng.uniform() < 0.5 else PackingKind.SQUARE
            assert uav_count(AREA, r, kind) == pack(AREA, r, kind).count

    def test_matches_textual_marching_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            r = rng.uniform(10.0, 150.0)
            assert uav_count(AREA, r, PackingKind.HEXAGON) == count_hexagon_placement(
                AREA.x_extent, AREA.y_extent, r
            )
            assert uav_count(AREA, r, PackingKind.SQUARE) == count_square_placement(
                AREA.x_extent, AREA.y_extent, r
            )

    def test_non_increasing_in_radius(self):
        radii = np.linspace(10.0, 150.0, 300)
        counts = [uav_count(AREA, r, PackingKind.HEXAGON) for r in radii]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_hexagon_beats_square_on_the_sweep(self):
        for r in (50.0, 60.0, 70.0, 80.0, 90.0):
            hex_n = uav_count(AREA, r, PackingKind.HEXAGON)
            sq_n = uav_count(AREA, r, PackingKind.SQUARE)
            assert hex_n <= sq_n


def hex_cluster_layout(r_l: float) -> tuple[AreaSpec, PackingLayout]:
    """Seven-circle packed cluster and its area rectangle, which is inscribed
    in the central loiter circle (the persistently-covered test region)."""
    side = math.sqrt(2.0) * r_l
    area = AreaSpec(side, side)
    cx, cy = side / 2.0, side / 2.0
    rows = (
        tuple(Vec2(cx + dx, cy - 1.5 * r_l) for dx in (-SQRT3 * r_l / 2, SQRT3 * r_l / 2)),
        tuple(Vec2(cx + dx, cy) for dx in (-SQRT3 * r_l, 0.0, SQRT3 * r_l)),
        tuple(Vec2(cx + dx, cy + 1.5 * r_l) for dx in (-SQRT3 * r_l / 2, SQRT3 * r_l / 2)),
    )
    return area, PackingLayout(kind=PackingKind.HEXAGON, loiter_radius=r_l, rows=rows)


def layout_coverage(layout, r_c, grid_pitch, phase_samples=8, area=AREA):
    """Coverage fractions of a layout's circles on ``area``."""
    return coverage_report(area, layout.centers, layout.loiter_radius, r_c, grid_pitch, phase_samples)


class TestValidateFullCoverage:
    # The interior closest-approach cap r_c/(sqrt(3)-1) is not attainable over
    # a bounded rectangle: corner circles lack outboard neighbors, so the
    # area-facing part of their interior hole is reachable only by the two
    # remaining neighbors, which bounds hexagon full coverage at
    # r_l <= (4+sqrt(3))/(3+sqrt(3)) * r_c (about 1.2113 r_c). All reproduced
    # scenarios sit below that (e.g. 96.225 m against 1.2113 * 80 = 96.9 m).
    def test_packed_layouts_reach_full_coverage(self):
        r_c = 30.0
        corner_bound = (4.0 + SQRT3) / (3.0 + SQRT3)
        for r_l in (0.5 * r_c, r_c, 1.15 * r_c, corner_bound * r_c * 0.999):
            layout = pack(AREA, r_l, PackingKind.HEXAGON)
            assert layout_coverage(layout, r_c, r_c / 20.0).cycle_fraction == 1.0

    def test_square_layout_reaches_full_coverage(self):
        r_c = 30.0
        for r_l in (r_c, 1.45 * r_c):
            layout = pack(AREA, r_l, PackingKind.SQUARE)
            assert layout_coverage(layout, r_c, r_c / 20.0).cycle_fraction == 1.0

    def test_boundary_rows_limit_coverage_near_the_cap(self):
        r_c = 30.0
        cap = max_loiter_radius(r_c, PackingKind.HEXAGON)
        layout = pack(AREA, 0.999 * cap, PackingKind.HEXAGON)
        frac = layout_coverage(layout, r_c, r_c / 20.0).cycle_fraction
        assert 0.99 < frac < 1.0  # only the boundary-row holes leak

    def test_hole_breaks_coverage(self):
        layout = pack(AREA, 70.0, PackingKind.HEXAGON)
        rows = list(layout.rows)
        middle = list(rows[3])
        del middle[2]  # remove an interior circle
        rows[3] = tuple(middle)
        broken = PackingLayout(layout.kind, layout.loiter_radius, tuple(rows))
        assert layout_coverage(broken, 70.0 * (SQRT3 - 1), 2.0).cycle_fraction < 1.0

    def test_empty_layout(self):
        empty = PackingLayout(PackingKind.HEXAGON, 10.0, ())
        cov = layout_coverage(empty, 5.0, 10.0)
        assert (cov.cycle_fraction, cov.instant_min_fraction) == (0.0, 0.0)


class TestValidatePersistentCoverage:
    def test_cluster_is_persistent_at_footprint_radius(self):
        r_l = 70.0
        area, layout = hex_cluster_layout(r_l)
        frac = layout_coverage(layout, r_l, r_l / 20.0, 360, area).instant_min_fraction
        assert frac == 1.0

    def test_persistence_lost_above_footprint_radius(self):
        layout = pack(AREA, 91.0, PackingKind.HEXAGON)  # r_l = 1.3 r_c
        frac = layout_coverage(layout, 70.0, 5.0, 60).instant_min_fraction
        assert frac < 1.0

    def test_single_circle_covers_its_center_at_all_phases(self):
        layout = PackingLayout(PackingKind.HEXAGON, 5.0, ((Vec2(0.5, 0.5),),))
        assert layout_coverage(layout, 6.0, 0.2, 36, AreaSpec(1.0, 1.0)).instant_min_fraction == 1.0

    def test_requires_enough_phase_samples(self):
        area, layout = hex_cluster_layout(10.0)
        with pytest.raises(ValueError):
            layout_coverage(layout, 10.0, 1.0, 4, area)


class TestGridPoints:
    def test_counts_and_bounds(self):
        xs, ys = grid_points(AreaSpec(10.0, 5.0), 1.0)
        assert xs.size * ys.size == 50
        assert xs.min() > 0 and xs.max() < 10.0
        assert ys.min() > 0 and ys.max() < 5.0

    def test_rejects_bad_pitch(self):
        with pytest.raises(ValueError):
            grid_points(AreaSpec(10.0, 5.0), 0.0)

    @pytest.mark.parametrize("pitch", [1e-3, 1e-300])
    def test_rejects_oversized_grids_before_allocating(self, pitch):
        # 1e18 samples at 1 mm, or an unbounded count: either would exhaust
        # memory if the limit were checked after allocating.
        with pytest.raises(ValueError, match="grid"):
            grid_points(AreaSpec(1e6, 1e6), pitch)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(packing, "MAX_GRID_POINTS", 50)
        xs, ys = grid_points(AreaSpec(10.0, 5.0), 1.0)
        assert xs.size * ys.size == 50
        with pytest.raises(ValueError):
            grid_points(AreaSpec(11.0, 5.0), 1.0)

    def test_coverage_report_checks_the_limit(self):
        with pytest.raises(ValueError, match="grid"):
            coverage_report(AreaSpec(1e6, 1e6), [Vec2(0.0, 0.0)], 50.0, 40.0, 1e-3, 36)
