import math

import numpy as np
import pytest

from loiterpack import optimize
from loiterpack.geometry import AreaSpec, PackingKind, max_loiter_radius, min_comm_radius, packing_params
from loiterpack.optimize import (
    RADIUS_FLOOR,
    FleetBudget,
    ideal_radius_after_loss,
    revisit_period,
    solve_radius,
)
from loiterpack.packing import MAX_LAYOUT_CIRCLES, min_layout_radius, pack, uav_count

AREA = AreaSpec(500.0, 650.0)
HEX = PackingKind.HEXAGON
R_C = 80.0
R_MIN_TURN = 11.467889908256879  # 15 m/s, 0.5 rad bank, g = 9.81


def solve(n, r_c=R_C, r_min=R_MIN_TURN, cap=100.0, kind=HEX, area=AREA):
    return solve_radius(FleetBudget(n), area, kind, r_c, r_min, r_l_max=cap)


class TestSolveRadius:
    def test_seventeen_survivors(self, table2):
        sol = solve(17)
        assert sol.loiter_radius == pytest.approx(table2["r_new"], abs=0.01)
        assert sol.loiter_radius == pytest.approx(96.22, abs=0.01)
        assert (sol.n_x, sol.n_y) == (3, 5)
        assert R_C < sol.loiter_radius <= max_loiter_radius(R_C, HEX)

    def test_sixteen_is_infeasible(self):
        sol = solve(16)
        assert sol.loiter_radius is None
        assert sol.min_required == 17

    def test_large_budget_reaches_persistence(self):
        sol = solve(58, r_c=50.0, cap=None)
        assert sol.loiter_radius <= 50.0

    def test_zero_budget(self):
        assert solve(0).loiter_radius is None

    def test_min_turn_above_cap(self):
        sol = solve(100, r_min=150.0, cap=100.0)
        assert sol.loiter_radius is None

    def test_huge_budget_clamps_to_floor(self):
        # On a small area the floor itself is feasible, so the radius
        # saturates there instead of shrinking without bound.
        sol = solve_radius(
            FleetBudget(10**6), AreaSpec(1.0, 1.0), HEX, r_c=1.0, r_min_turn=0.0
        )
        assert sol.loiter_radius == RADIUS_FLOOR

    def test_radii_below_the_layout_limit_are_not_listed(self, monkeypatch):
        lengths = []
        binding_radii = optimize._binding_radii

        def counted(*args):
            radii = binding_radii(*args)
            lengths.append(len(radii))
            return radii

        monkeypatch.setattr(optimize, "_binding_radii", counted)
        with pytest.raises(ValueError, match=f"over the limit of {MAX_LAYOUT_CIRCLES}"):
            solve(10**12, r_min=0.0)
        assert lengths and max(lengths) < 5000

    @pytest.mark.parametrize("scale", [1.001, 1.1, 2.0])
    def test_answers_just_above_the_layout_limit(self, scale):
        # Budgets whose left edge lies just above the smallest placeable
        # radius: the answer is still the exact left edge.
        r_min = min_layout_radius(AREA, HEX)
        n = uav_count(AREA, scale * r_min, HEX)
        r = solve(n, r_min=0.0).loiter_radius
        assert r_min <= r <= scale * r_min
        assert uav_count(AREA, r, HEX) <= n
        probe = r * (1.0 - 1e-6)
        assert probe < r_min or uav_count(AREA, probe, HEX) > n

    def test_solution_is_left_edge_of_feasible_set(self):
        rng = np.random.default_rng(8)
        for n in rng.integers(17, 120, size=25):
            sol = solve(int(n))
            r = sol.loiter_radius
            assert uav_count(AREA, r, HEX) <= n
            lo = max(R_MIN_TURN, RADIUS_FLOOR)
            probe = r - 1e-3
            assert probe < lo or uav_count(AREA, probe, HEX) > n

    def test_monotone_in_budget(self):
        radii = [solve(n).loiter_radius for n in range(17, 90)]
        assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))

    def test_dims_match_placement(self):
        for n in (17, 20, 35, 58, 80):
            sol = solve(n)
            layout = pack(AREA, sol.loiter_radius, HEX)
            assert sol.n_x == len(layout.rows[0])
            assert sol.n_y == layout.n_rows

    @pytest.mark.parametrize(
        "kind, bound",
        [(HEX, R_C / (math.sqrt(3.0) - 1.0)), (PackingKind.SQUARE, R_C / (math.sqrt(2.0) - 1.0))],
        ids=["hexagon", "square"],
    )
    def test_uncapped_search_ends_at_the_coverage_bound(self, kind, bound):
        # Without a cap the search runs up to the coverage bound, edge
        # included: the fleet counted at the bound is accepted, one UAV fewer
        # is not, and no budget solves above the bound.
        assert max_loiter_radius(R_C, kind) == bound
        smallest = solve(0, cap=None, kind=kind)
        assert smallest.r_cap == bound
        m = smallest.min_required
        assert m == uav_count(AREA, bound, kind)
        assert solve(m - 1, cap=None, kind=kind).loiter_radius is None
        for n in range(m, m + 40):
            assert solve(n, cap=None, kind=kind).loiter_radius <= bound

    def test_square_kind(self):
        sol = solve(42, kind=PackingKind.SQUARE, cap=None)
        assert sol.loiter_radius is not None
        assert uav_count(AREA, sol.loiter_radius, PackingKind.SQUARE) <= 42


def random_areas():
    rng = np.random.default_rng(32)
    return [AreaSpec(*rng.uniform(60.0, 1000.0, 2)) for _ in range(40)]


@pytest.mark.parametrize("kind", list(PackingKind), ids=lambda kind: kind.value)
class TestLatticeMatchesMarch:
    """The lattice table that the solver and the radii relations read agrees
    with the layout march, over seeded random areas."""

    def test_counts_change_only_at_binding_radii(self, kind):
        for area in random_areas():
            longest = max(area.x_extent, area.y_extent)
            radii = sorted(set(optimize._binding_radii(area, kind, longest / 40.0, longest)))
            for a, b in zip(radii, radii[1:]):
                w = b - a
                probes = (a + 1e-6 * w, a + 0.5 * w, b - 1e-6 * w)
                assert len({uav_count(area, r, kind) for r in probes}) == 1, (area, a, b)

    def test_nearest_centre_distance_and_pitches(self, kind):
        rng = np.random.default_rng(33)
        for area in random_areas():
            r = rng.uniform(0.05, 0.3) * min(area.x_extent, area.y_extent)
            layout = pack(area, r, kind)
            xy = np.array([(c.x, c.y) for c in layout.centers])
            d = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
            np.fill_diagonal(d, np.inf)
            assert d.min() == pytest.approx(min_comm_radius(r, kind), rel=1e-12)
            p = packing_params(r, kind)
            rows = layout.rows
            assert rows[0][1].x - rows[0][0].x == pytest.approx(p.x_pitch, rel=1e-12)
            assert rows[1][0].y - rows[0][0].y == pytest.approx(p.y_pitch, rel=1e-12)


class TestIdealRadiusAfterLoss:
    def test_no_loss(self):
        assert ideal_radius_after_loss(70.0, 0.0) == 70.0

    def test_values(self):
        assert ideal_radius_after_loss(50.0, 0.75) == pytest.approx(100.0)
        assert ideal_radius_after_loss(70.0, 0.5) == pytest.approx(98.99, abs=0.01)

    def test_strictly_increasing(self):
        fractions = np.linspace(0.0, 0.99, 100)
        radii = [ideal_radius_after_loss(10.0, f) for f in fractions]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_composition_law(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            l1, l2 = rng.uniform(0.0, 0.9, size=2)
            seq = ideal_radius_after_loss(ideal_radius_after_loss(30.0, l1), l2)
            combined = ideal_radius_after_loss(30.0, 1.0 - (1.0 - l1) * (1.0 - l2))
            assert seq == pytest.approx(combined, rel=1e-12)

    def test_rejects_total_loss(self):
        with pytest.raises(ValueError):
            ideal_radius_after_loss(10.0, 1.0)


class TestRevisitPeriod:
    def test_zero_radius(self):
        assert revisit_period(0.0, 10.0) == 0.0

    def test_values(self):
        assert revisit_period(100.0, 10.0) == pytest.approx(62.832, abs=1e-3)
        assert revisit_period(96.22, 15.0) == pytest.approx(40.31, abs=0.01)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            revisit_period(10.0, 0.0)
