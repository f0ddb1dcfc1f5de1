import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from loiterpack.dubins import TWO_PI, closest_approach
from loiterpack.errors import InfeasibleError
from loiterpack.fleet import (
    FailureEvent,
    RecoveryOutcome,
    apply_recovery,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    loss_sweep,
    max_recoverable_loss,
    step,
    super_agent_recover,
)
from loiterpack.geometry import AreaSpec, PackingKind, PlatformModel, Vec2
from loiterpack.optimize import Regime
from oracles import brute_force_assignment, union_find_clusters

AREA = AreaSpec(500.0, 650.0)
HEX = PackingKind.HEXAGON
PLATFORM = PlatformModel(speed=15.0, max_bank=0.5, gravity=9.81)
R_C = 80.0
R_L_MAX = 100.0


def fleet_coverage(state, grid_pitch, phase_samples):
    """Coverage fractions of the UAVs still alive, as ``simulate`` reports them."""
    centers = [u.assigned_circle.center for u in state.uavs if u.alive]
    return coverage_report(
        state.area, centers, state.loiter_radius, R_C, grid_pitch, phase_samples
    )


def table2_fleet():
    return deploy(AREA, HEX, PLATFORM, radius=70.0)


class TestDeploy:
    def test_radius_driven(self):
        state = table2_fleet()
        assert len(state.uavs) == 35
        assert all(u.alive for u in state.uavs)
        assert all(all(b == 1 for b in u.neighbor_state) for u in state.uavs)
        assert state.phase == 0.0

    def test_interior_uav_has_six_neighbors(self):
        state = table2_fleet()
        assert max(len(u.neighbor_ids) for u in state.uavs) == 6

    def test_budget_driven(self, table2):
        state = deploy(AREA, HEX, PLATFORM, budget=17, r_c=R_C, r_l_max=R_L_MAX)
        assert len(state.uavs) == 17
        assert state.loiter_radius == pytest.approx(table2["r_new"], abs=0.01)

    def test_zero_budget_fails(self):
        with pytest.raises(InfeasibleError):
            deploy(AREA, HEX, PLATFORM, budget=0, r_c=R_C)

    def test_infeasible_budget_fails(self):
        with pytest.raises(InfeasibleError) as err:
            deploy(AREA, HEX, PLATFORM, budget=16, r_c=R_C, r_l_max=R_L_MAX)
        assert err.value.deficit == 1

    def test_comm_graph_edges_are_packed_neighbors(self):
        state = table2_fleet()
        reach = state.r_com + 1e-6
        for i, j in state.comm.edges:
            d = state.uavs[i].assigned_circle.center.dist(state.uavs[j].assigned_circle.center)
            assert d <= reach

    def test_neighbor_lists_are_the_sorted_edge_ends(self):
        state, _, plan = run_recovery()
        for fleet in (table2_fleet(), apply_recovery(state, plan)):
            for uav in fleet.uavs:
                ends = [j if i == uav.id else i for i, j in fleet.comm.edges if uav.id in (i, j)]
                assert uav.neighbor_ids == sorted(ends)
                assert uav.neighbor_state == [1] * len(ends)


class TestStep:
    def test_full_period_is_identity(self):
        state = table2_fleet()
        period = TWO_PI * state.loiter_radius / PLATFORM.speed
        p0 = state.position_of(state.uavs[0])
        step(state, period)
        p1 = state.position_of(state.uavs[0])
        assert p0.dist(p1) < 1e-6

    def test_quarter_period(self):
        state = table2_fleet()
        period = TWO_PI * state.loiter_radius / PLATFORM.speed
        step(state, period / 4)
        assert state.phase == pytest.approx(math.pi / 2)

    def test_shared_phase_stays_synchronized(self):
        state = table2_fleet()
        for _ in range(5):
            step(state, 3.7)
        for uav in state.uavs:
            expected = uav.assigned_circle.point_at(state.phase)
            assert state.position_of(uav).dist(expected) == 0.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step(table2_fleet(), 0.0)


class TestInjectFailure:
    def test_seeded_loss_of_18(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(seed=42, loss_count=18))
        assert len(state.alive_ids) == 17

    def test_seed_is_reproducible(self):
        s1, s2 = table2_fleet(), table2_fleet()
        inject_failure(s1, FailureEvent(seed=7, loss_count=18))
        inject_failure(s2, FailureEvent(seed=7, loss_count=18))
        assert s1.alive_ids == s2.alive_ids

    def test_lose_none_and_all(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset()))
        assert len(state.alive_ids) == 35
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(35))))
        assert state.alive_ids == []

    def test_unknown_ids_rejected(self):
        state = table2_fleet()
        with pytest.raises(ValueError):
            inject_failure(state, FailureEvent(lost_ids=frozenset({99})))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(lost_ids=frozenset({1}), seed=2, loss_count=1)
        with pytest.raises(ValueError):
            FailureEvent()


class TestDetectFailures:
    def test_neighbor_bits_flip(self):
        state = table2_fleet()
        interior = next(u for u in state.uavs if len(u.neighbor_ids) == 6)
        third = interior.neighbor_ids[2]
        inject_failure(state, FailureEvent(lost_ids=frozenset({third})))
        detect_failures(state)
        assert interior.neighbor_state == [1, 1, 0, 1, 1, 1]

    def test_no_losses(self):
        state = table2_fleet()
        report = detect_failures(state)
        assert report.survivor_count == 35
        assert len(report.clusters) == 1
        assert all(all(b == 1 for b in u.neighbor_state) for u in state.uavs)

    def test_two_cluster_split(self):
        state = table2_fleet()
        # Rows are 5 wide; kill rows 2 and 3 entirely to cut row 0-1 off.
        lost = frozenset(range(10, 20))
        inject_failure(state, FailureEvent(lost_ids=lost))
        report = detect_failures(state)
        assert len(report.clusters) == 2
        assert set().union(*report.clusters) == set(report.survivor_ids)

    def test_clusters_match_union_find_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            state = table2_fleet()
            k = int(rng.integers(1, 25))
            inject_failure(state, FailureEvent(seed=int(rng.integers(0, 2**32)), loss_count=k))
            report = detect_failures(state)
            positions = {
                i: (report.positions[i].x, report.positions[i].y) for i in report.survivor_ids
            }
            expected = union_find_clusters(report.survivor_ids, positions, state.r_com + 1e-9)
            assert set(report.clusters) == expected

    def test_detection_reaches_base_through_neighbors(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset({1})))
        report = detect_failures(state)
        assert report.detected_by == "neighbor-report"
        assert report.detection_delay == 0.0

    def test_base_self_detects_when_cut_off(self):
        state = table2_fleet()
        # UAV 0 is the base's only comm link at r_com = sqrt(3) * 70.
        inject_failure(state, FailureEvent(lost_ids=frozenset({0})))
        report = detect_failures(state)
        assert report.detected_by == "base-timeout"
        assert report.detection_delay == pytest.approx(TWO_PI * 70.0 / PLATFORM.speed)


def run_recovery(loss_count=18, seed=42):
    state = table2_fleet()
    inject_failure(state, FailureEvent(seed=seed, loss_count=loss_count))
    report = detect_failures(state)
    plan = super_agent_recover(report, AREA, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
    return state, report, plan


class TestSuperAgentRecover:
    def test_table2_recovery(self, table2):
        state, report, plan = run_recovery()
        assert plan.outcome is RecoveryOutcome.FULL_RESTORED
        assert plan.solution.loiter_radius == pytest.approx(table2["r_new"], abs=0.01)
        assert plan.new_layout.count == 17
        assert len(plan.transitions) == 17

    def test_assignment_is_a_bijection(self):
        _, report, plan = run_recovery()
        assert sorted(plan.assignment) == list(report.survivor_ids)
        assert sorted(plan.assignment.values()) == list(range(plan.new_layout.count))
        assert plan.spare_ids == ()

    def test_no_survivors(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(35))))
        plan = super_agent_recover(detect_failures(state), AREA, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
        assert plan.outcome is RecoveryOutcome.RECOVERY_FAILED

    def test_sixteen_survivors_reports_deficit(self):
        _, _, plan = run_recovery(loss_count=19)
        assert plan.outcome is RecoveryOutcome.RECOVERY_FAILED
        assert plan.deficit == 1

    def test_spares_when_survivors_exceed_circles(self):
        _, _, plan = run_recovery(loss_count=17)  # 18 survivors, 17 circles
        assert plan.outcome is RecoveryOutcome.FULL_RESTORED
        assert len(plan.spare_ids) == 1
        assert sorted(plan.assignment.values()) == list(range(17))

    def test_recovery_radius_monotone_in_losses(self):
        radii = []
        for lost in (0, 10, 15, 18):
            _, _, plan = run_recovery(loss_count=lost)
            radii.append(plan.solution.loiter_radius)
        assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_deterministic_plans(self):
        _, _, p1 = run_recovery()
        _, _, p2 = run_recovery()
        assert p1.assignment == p2.assignment
        assert p1.transitions == p2.transitions
        assert p1.min_separation == p2.min_separation

    def test_matching_minimizes_total_distance(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(5, 35))))  # keep 0..4
        report = detect_failures(state)
        plan = super_agent_recover(report, AreaSpec(300.0, 220.0), HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
        assert plan.outcome is not RecoveryOutcome.RECOVERY_FAILED
        centers = plan.new_layout.centers
        cost = np.array(
            [[report.positions[i].dist(c) for c in centers] for i in report.survivor_ids]
        )
        total = sum(
            report.positions[i].dist(centers[j]) for i, j in plan.assignment.items()
        )
        assert total == pytest.approx(brute_force_assignment(cost), rel=1e-12)

    def test_transitions_keep_separation(self):
        _, report, plan = run_recovery()
        sep = closest_approach(plan.transitions, v=PLATFORM.speed, dt=0.25)[0]
        assert sep == pytest.approx(plan.min_separation)
        assert sep >= 2.0

    def test_phase_sync_for_all_transitions(self):
        _, report, plan = run_recovery()
        omega = PLATFORM.speed / plan.solution.loiter_radius
        for tr in plan.transitions:
            residual = (report.phase + omega * tr.arrival_time - tr.join_phase) % TWO_PI
            assert min(residual, TWO_PI - residual) < 1e-6


class TestApplyRecoveryAndCoverage:
    def test_recovered_state_fully_covers_per_cycle(self):
        state, _, plan = run_recovery()
        recovered = apply_recovery(state, plan)
        assert len(recovered.uavs) == 17
        report = fleet_coverage(recovered, grid_pitch=R_C / 20.0, phase_samples=36)
        assert report.cycle_fraction == 1.0

    def test_cycle_dominates_instant(self):
        state = table2_fleet()
        report = fleet_coverage(state, grid_pitch=8.0, phase_samples=16)
        assert report.cycle_fraction >= report.instant_min_fraction

    def test_rectangle_instant_coverage_leaks_at_the_boundary(self):
        # Interior cells are persistently covered at r_l <= r_c, but over a
        # bounded rectangle the boundary strips fall outside every footprint
        # at some phases, so the worst-phase instant fraction stays below 1.
        state = table2_fleet()
        report = fleet_coverage(state, grid_pitch=R_C / 20.0, phase_samples=90)
        assert report.cycle_fraction == 1.0
        assert 0.9 < report.instant_min_fraction < 1.0

    def test_initial_fleet_cycle_coverage(self):
        state = table2_fleet()
        report = fleet_coverage(state, grid_pitch=R_C / 20.0, phase_samples=16)
        assert report.cycle_fraction == 1.0

    def test_every_successful_recovery_restores_cycle_coverage(self):
        for lost in (3, 8, 12, 15, 18):
            state, _, plan = run_recovery(loss_count=lost)
            assert plan.outcome is not RecoveryOutcome.RECOVERY_FAILED
            recovered = apply_recovery(state, plan)
            report = fleet_coverage(recovered, grid_pitch=R_C / 20.0, phase_samples=16)
            assert report.cycle_fraction == 1.0

    def test_empty_fleet(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(35))))
        report = fleet_coverage(state, grid_pitch=10.0, phase_samples=16)
        assert report.cycle_fraction == 0.0
        assert report.instant_min_fraction == 0.0

    def test_apply_failed_plan_rejected(self):
        state, _, plan = run_recovery(loss_count=19)
        with pytest.raises(InfeasibleError):
            apply_recovery(state, plan)


class TestLossSweep:
    def test_r50_max_recoverable_window(self):
        frac = max_recoverable_loss(AREA, HEX, 50.0, R_L_MAX)
        assert 0.70 <= frac <= 0.71
        assert frac == pytest.approx(41.0 / 58.0)

    def test_sweep_points(self):
        result = loss_sweep(AREA, HEX, (70.0,), (0.0, 0.5, 0.75), R_C, r_l_max=R_L_MAX)
        by_frac = {p.loss_fraction: p for p in result.points}
        assert by_frac[0.0].r_new <= 70.0
        assert by_frac[0.75].survivors == 8
        assert by_frac[0.75].regime is Regime.INFEASIBLE
        assert by_frac[0.75].r_new is None

    def test_ideal_column(self):
        fractions = (0.0, 0.1, 0.25, 0.5)
        result = loss_sweep(AREA, HEX, (60.0,), fractions, R_C, r_l_max=R_L_MAX)
        for p in result.points:
            assert p.ideal_r_new == pytest.approx(60.0 / math.sqrt(1.0 - p.loss_fraction))

    def test_radius_non_decreasing_in_loss(self):
        fractions = tuple(np.linspace(0.0, 0.69, 24))
        result = loss_sweep(AREA, HEX, (50.0,), fractions, R_C, r_l_max=R_L_MAX)
        radii = [p.r_new for p in result.points if p.r_new is not None]
        assert len(radii) == len(fractions)
        assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            loss_sweep(AREA, HEX, (50.0,), (1.0,), R_C)


class TestScipyAssignmentOracle:
    def test_linear_sum_assignment_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, m = rng.integers(2, 7), rng.integers(2, 7)
            cost = rng.uniform(0, 100, size=(n, m))
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].sum() == pytest.approx(brute_force_assignment(cost))
