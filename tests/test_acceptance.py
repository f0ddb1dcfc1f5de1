"""Acceptance suite: every scenario-level criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold; timing budgets are
asserted after the numeric checks.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from loiterpack.dubins import TWO_PI, mod2pi, sample, shortest_path, Pose
from loiterpack.fleet import (
    FailureEvent,
    RecoveryOutcome,
    apply_recovery,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    loss_sweep,
    super_agent_recover,
)
from loiterpack.geometry import (
    AreaSpec,
    PackingKind,
    PlatformModel,
    Vec2,
    lens_area,
)
from loiterpack.optimize import FleetBudget, Regime, ideal_radius_after_loss, solve_radius
from loiterpack.packing import pack, uav_count
from oracles import lens_area_quad
from test_packing import hex_cluster_layout, layout_coverage

AREA = AreaSpec(500.0, 650.0)
HEX = PackingKind.HEXAGON
SQUARE = PackingKind.SQUARE
PLATFORM = PlatformModel(speed=15.0, max_bank=0.5, gravity=9.81)
R_C = 80.0
R_L_MAX = 100.0
R_MIN_TURN = 15.0**2 * 0.5 / 9.81


@contextmanager
def budget(seconds, label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s (budget {seconds}s)"
    print(f"PASS: {label} ({elapsed:.2f}s < {seconds}s)")


def test_criterion_1_hexagon_packs_35_circles():
    with budget(1.0, "criterion 1: hexagon 500x650 at r_l=70 gives exactly 35 circles (7x5)"):
        layout = pack(AREA, 70.0, HEX)
        assert layout.count == 35
        assert layout.n_rows == 7
        assert layout.per_row_counts == (5,) * 7


def test_criterion_2_square_packs_42_circles():
    with budget(1.0, "criterion 2: square 500x650 at r_l=70 gives exactly 42 circles"):
        layout = pack(AREA, 70.0, SQUARE)
        assert layout.count == 42


def test_criterion_3_radius_for_17_uavs():
    with budget(1.0, "criterion 3: solve_radius(N=17) = 96.22 +/- 0.01 with n_x=3, n_y=5"):
        sol = solve_radius(FleetBudget(17), AREA, HEX, R_C, R_MIN_TURN, r_l_max=R_L_MAX)
        assert sol.loiter_radius == pytest.approx(96.22, abs=0.01)
        assert sol.n_x == 3
        assert sol.n_y == 5
        assert sol.regime is not Regime.INFEASIBLE


def test_criterion_4_end_to_end_recovery():
    with budget(30.0, "criterion 4: Table II scenario recovers 17 circles at 96.22 with full cycle coverage"):
        state = deploy(AREA, HEX, PLATFORM, radius=70.0)
        assert len(state.uavs) == 35
        inject_failure(state, FailureEvent(time=60.0, seed=42, loss_count=18))
        report = detect_failures(state)
        assert len(report.circles) == 17
        plan = super_agent_recover(report, AREA, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
        assert plan.outcome is RecoveryOutcome.FULL_RESTORED
        assert plan.solution.loiter_radius == pytest.approx(96.22, abs=0.01)
        assert plan.new_layout.count == 17
        recovered = apply_recovery(state, plan)
        cov = coverage_report(
            AREA,
            [c.center for c in recovered.uavs.values()],
            recovered.layout.loiter_radius,
            R_C,
            grid_pitch=R_C / 20.0,
            phase_samples=36,
        )
        assert cov.cycle_fraction == 1.0


def test_criterion_5_loss_sweep_max_recoverable():
    with budget(60.0, "criterion 5: r_init=50 max recoverable loss in [0.70, 0.71]; 5-curve sweep"):
        fractions = tuple(round(0.05 * i, 2) for i in range(19))
        result = loss_sweep(
            AREA, HEX, (50.0, 60.0, 70.0, 80.0, 90.0), fractions, R_C,
            r_min_turn=R_MIN_TURN, r_l_max=R_L_MAX,
        )
        assert len(result.points) == 5 * len(fractions)
        frac_50 = result.max_recoverable[50.0]
        assert 0.70 <= frac_50 <= 0.71
        assert frac_50 == pytest.approx(41.0 / 58.0)
        # The recovery agrees: losing round(max_recoverable * N) UAVs is
        # recoverable, and one more fails one UAV short.
        for kind in (HEX, SQUARE):
            r_inits = (50.0, 60.0, 70.0, 80.0, 90.0)
            sweep = loss_sweep(AREA, kind, r_inits, (0.0,), R_C, r_min_turn=R_MIN_TURN, r_l_max=R_L_MAX)
            for r_init in r_inits:
                n = uav_count(AREA, r_init, kind)
                lost = round(sweep.max_recoverable[r_init] * n)
                for extra in (0, 1):
                    state = deploy(AREA, kind, PLATFORM, radius=r_init)
                    inject_failure(state, FailureEvent(time=60.0, seed=0, loss_count=lost + extra))
                    plan = super_agent_recover(
                        detect_failures(state), AREA, kind, R_C, PLATFORM, r_l_max=R_L_MAX
                    )
                    failed = plan.outcome is RecoveryOutcome.RECOVERY_FAILED
                    assert failed == bool(extra), (kind, r_init, extra, plan.reason)
                    assert plan.deficit == (1 if extra else None), (kind, r_init, extra)


def test_criterion_6_hexagon_never_needs_more_than_square():
    with budget(5.0, "criterion 6: hexagon count <= square count for r_l in {50..90}"):
        for r_l in (50.0, 60.0, 70.0, 80.0, 90.0):
            assert uav_count(AREA, r_l, HEX) <= uav_count(AREA, r_l, SQUARE)


def test_criterion_7_geometry_oracles_and_sweep_properties():
    with budget(30.0, "criterion 7: overlap closed forms vs lens oracle; sweep monotone; ideal curve exact"):
        rng = np.random.default_rng(2024)
        sqrt2, sqrt3 = math.sqrt(2.0), math.sqrt(3.0)
        for _ in range(100):
            r = rng.uniform(1e-3, 100.0)
            square_closed = (math.pi - 2.0) * r * r / 2.0
            assert abs(square_closed - lens_area_quad(sqrt2 * r, r)) <= 1e-6 * r * r
            assert abs(lens_area(sqrt3 * r, r) - lens_area_quad(sqrt3 * r, r)) <= 1e-6 * r * r
        # Documented fixed discrepancy of the published hexagon overlap.
        exact_unit = lens_area(sqrt3, 1.0) / 2.0
        paper_unit = (math.pi - 3.0) / 6.0
        assert exact_unit == pytest.approx(0.0906, abs=5e-5)
        assert paper_unit == pytest.approx(0.0236, abs=5e-5)
        assert exact_unit != pytest.approx(paper_unit, abs=1e-3)
        # Sweep properties; the published per-point radii are NOT targets.
        fractions = tuple(np.linspace(0.0, 0.7, 36))
        result = loss_sweep(AREA, HEX, (50.0,), fractions, R_C, r_min_turn=R_MIN_TURN, r_l_max=R_L_MAX)
        radii = [p.r_new for p in result.points if p.r_new is not None]
        assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))
        for p in result.points:
            assert p.ideal_r_new == ideal_radius_after_loss(p.r_init, p.loss_fraction)
            assert p.ideal_r_new == pytest.approx(p.r_init / math.sqrt(1.0 - p.loss_fraction))


def test_criterion_8_dubins_property_suite():
    with budget(10.0, "criterion 8: 10^4 Dubins pose pairs satisfy length and endpoint bounds; phase sync < 1e-6"):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            r = rng.uniform(0.3, 3.0)
            a = Pose(Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0, TWO_PI))
            b = Pose(Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0, TWO_PI))
            path = shortest_path(a, b, r)
            assert path.length >= a.position.dist(b.position) - 1e-9
            x, y, heading = sample(path, path.length)
            assert Vec2(x, y).dist(b.position) < 1e-6
            assert abs(mod2pi(heading - b.heading + math.pi) - math.pi) < 1e-6
        from loiterpack.dubins import plan_transition
        from loiterpack.geometry import LoiterCircle

        for _ in range(50):
            src = LoiterCircle(Vec2(rng.uniform(-300, 300), rng.uniform(-300, 300)), rng.uniform(40, 100))
            tgt = LoiterCircle(Vec2(rng.uniform(-300, 300), rng.uniform(-300, 300)), rng.uniform(40, 100))
            phase0 = rng.uniform(0, TWO_PI)
            plan = plan_transition(0, src, phase0, tgt, R_MIN_TURN, PLATFORM.speed)
            omega = PLATFORM.speed / tgt.radius
            residual = (phase0 + omega * plan.arrival_time - plan.join_phase) % TWO_PI
            assert min(residual, TWO_PI - residual) < 1e-6


def test_criterion_9_persistent_coverage_regimes():
    with budget(20.0, "criterion 9: cluster instant coverage 1.0 at r_l=r_c; 1.3 r_c loses instant, keeps cycle"):
        r_c = 70.0
        persistent = hex_cluster_layout(r_c)  # r_l = r_c
        frac = layout_coverage(persistent, r_c, r_c / 20.0, 360).instant_min_fraction
        assert frac == 1.0
        stretched = layout_coverage(hex_cluster_layout(1.3 * r_c), r_c, r_c / 20.0, 360)
        assert stretched.instant_min_fraction < 1.0
        assert stretched.cycle_fraction == 1.0
