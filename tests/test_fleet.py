import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from loiterpack import fleet
from loiterpack.dubins import TWO_PI, closest_approach
from loiterpack.errors import InfeasibleError
from loiterpack.fleet import (
    FailureEvent,
    _build_comm_graph,
    RecoveryOutcome,
    apply_recovery,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    loss_sweep,
    step,
    super_agent_recover,
)
from loiterpack.geometry import AreaSpec, LoiterCircle, PackingKind, PlatformModel, Vec2, min_turn_radius
from oracles import (
    assignment_by_dist,
    brute_force_assignment,
    comm_edges_loop,
    edge_components,
    union_find_clusters,
)
from test_cli import base_config, run, write_config

AREA = AreaSpec(500.0, 650.0)
HEX = PackingKind.HEXAGON
PLATFORM = PlatformModel(speed=15.0, max_bank=0.5, gravity=9.81)
R_C = 80.0
R_L_MAX = 100.0


def fleet_coverage(state, grid_pitch, phase_samples):
    """Coverage fractions of the UAVs still alive, as ``simulate`` reports them."""
    centers = [c.center for i, c in state.uavs.items() if i not in state.lost]
    return coverage_report(AREA, centers, state.layout.loiter_radius, R_C, grid_pitch, phase_samples)


def table2_fleet():
    return deploy(AREA, HEX, PLATFORM, radius=70.0)


def assignment(plan):
    """Survivor id -> index of its transition's target among the new layout's
    centers; every target is a circle of the solved radius."""
    centers = plan.new_layout.centers
    assert all(tr.target.radius == plan.solution.loiter_radius for tr in plan.transitions)
    return {tr.uav_id: centers.index(tr.target.center) for tr in plan.transitions}


def simulate_budget(tmp_path, budget):
    """Exit code of ``simulate`` deploying ``budget`` UAVs on the Table II
    area with no failure, and its output directory."""
    out = tmp_path / "out"
    cfg = base_config(out, deployment={"budget_n": budget}, validation={"phase_samples": 8})
    return run("simulate", write_config(tmp_path, cfg)), out


class TestDeploy:
    def test_radius_driven(self):
        state = table2_fleet()
        assert list(state.uavs) == list(range(35))
        assert state.lost == set()
        assert state.phase == 0.0

    def test_interior_uav_has_six_neighbors(self):
        state = table2_fleet()
        degree = np.bincount(np.array(sorted(_build_comm_graph(state.uavs, state.r_com))).ravel())
        assert degree.max() == 6

    # A budget deployment is simulate's: it solves the radius with
    # solve_radius, then deploys at that radius.
    def test_budget_driven(self, tmp_path, capsys, table2):
        code, out = simulate_budget(tmp_path, 17)
        assert code == 0
        assert capsys.readouterr().out == "final cycle coverage 1.0000 with 17 UAVs\n"
        assert "0.000,deploy,17 UAVs at r_l=96.2250" in (out / "events.log").read_text().splitlines()
        radii = {row.split(",")[-1] for row in (out / "initial_layout.csv").read_text().splitlines()[1:]}
        assert len(radii) == 1 and float(radii.pop()) == pytest.approx(table2["r_new"], abs=0.01)

    def test_radius_below_the_turn_radius_fails(self):
        with pytest.raises(ValueError, match="below the minimum turn radius 11.4679 m"):
            deploy(AREA, HEX, PLATFORM, radius=11.0)
        fast = PlatformModel(speed=40.0, max_bank=0.5, gravity=9.81)  # turns at 81.5 m
        with pytest.raises(ValueError, match="deploy radius 70 m is below the minimum turn radius 81.5494 m"):
            deploy(AREA, HEX, fast, radius=70.0)

    def test_zero_budget_fails(self, tmp_path, capsys):
        code, out = simulate_budget(tmp_path, 0)
        assert code == 3
        assert capsys.readouterr().err == "infeasible: 0 UAVs cannot cover the area; deficit 17\n"
        assert not out.exists()

    def test_infeasible_budget_fails(self, tmp_path, capsys):
        code, out = simulate_budget(tmp_path, 16)
        assert code == 3
        assert capsys.readouterr().err == "infeasible: 16 UAVs cannot cover the area; deficit 1\n"
        assert not out.exists()

    def test_comm_graph_edges_are_packed_neighbors(self):
        state = table2_fleet()
        reach = state.r_com + 1e-6
        edges = _build_comm_graph(state.uavs, state.r_com)
        assert len(edges) == 82  # 7 rows of 4 in-row pairs, 6 row gaps of 9 cross-row pairs
        for i, j in edges:
            d = state.uavs[i].center.dist(state.uavs[j].center)
            assert d <= reach


class TestCommGraph:
    # (area x, area y, UAVs lost, failure seeds) of the perfbench workloads
    # paper-35 and coverage-1km.
    @pytest.mark.parametrize(
        "x, y, loss_count, draws", [(500.0, 650.0, 18, 32), (1000.0, 1000.0, 36, 16)]
    )
    def test_matches_the_pair_loop_on_perfbench_layouts(self, x, y, loss_count, draws):
        area = AreaSpec(x, y)
        state = deploy(area, HEX, PLATFORM, radius=70.0)
        assert _build_comm_graph(state.uavs, state.r_com) == comm_edges_loop(state.uavs, state.r_com)
        for seed in range(draws):
            state = deploy(area, HEX, PLATFORM, radius=70.0)
            inject_failure(state, FailureEvent(seed=seed, loss_count=loss_count))
            # Detection builds the formation's graph, lost UAVs included; the
            # survivors' clusters are the components of the graph built on
            # the survivors alone.
            survivors = {i: c for i, c in state.uavs.items() if i not in state.lost}
            report = detect_failures(state)
            rebuilt = comm_edges_loop(survivors, state.r_com)
            assert set(report.clusters) == edge_components(survivors, rebuilt)
            recovered = apply_recovery(
                state, super_agent_recover(report, area, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
            )
            assert _build_comm_graph(recovered.uavs, recovered.r_com) == comm_edges_loop(
                recovered.uavs, recovered.r_com
            )

    def test_second_round_detection_clusters_as_union_find(self):
        # Detection on a recovered formation builds its graph at the
        # recovered layout's comm radius, not the deployment's.
        split = 0
        for seed in range(12):
            state, _, plan = run_recovery(seed=seed)
            recovered = apply_recovery(state, plan)
            assert recovered.r_com > state.r_com
            inject_failure(recovered, FailureEvent(seed=seed, loss_count=6))
            report = detect_failures(recovered)
            positions = {i: (c.center.x, c.center.y) for i, c in report.circles.items()}
            expected = union_find_clusters(list(report.circles), positions, recovered.r_com + 1e-9)
            assert set(report.clusters) == expected
            split += len(expected) > 1
        assert split > 0

    def test_matches_the_pair_loop_at_the_reach(self):
        # Random layouts plus partners placed at reach - 1e-12, reach and
        # reach + 1e-12 in random directions and along the axes (reach is
        # r_com plus the 1e-9 boundary slack), under shuffled ids.
        rng = np.random.default_rng(30)
        for _ in range(200):
            r_com = rng.uniform(1.0, 200.0)
            reach = r_com + 1e-9
            points = [tuple(rng.uniform(-500.0, 500.0, 2)) for _ in range(rng.integers(2, 40))]
            for k in range(len(points)):
                px, py = points[k]
                offset = reach + rng.choice([-1e-12, 0.0, 1e-12])
                angle = rng.choice([rng.uniform(0, TWO_PI), 0.0, 0.5 * math.pi, math.pi])
                points.append((px + offset * math.cos(angle), py + offset * math.sin(angle)))
            ids = rng.permutation(3 * len(points))[: len(points)].tolist()
            circles = {i: LoiterCircle(Vec2(*p), 10.0) for i, p in zip(ids, points)}
            assert _build_comm_graph(circles, r_com) == comm_edges_loop(circles, r_com)

    def test_small_and_degenerate_layouts(self):
        one = {4: LoiterCircle(Vec2(1.0, 1.0), 5.0)}
        same = {4: LoiterCircle(Vec2(1.0, 1.0), 5.0), 2: LoiterCircle(Vec2(1.0, 1.0), 5.0)}
        assert _build_comm_graph({}, 10.0) == frozenset()
        assert _build_comm_graph(one, 10.0) == frozenset()
        assert _build_comm_graph(same, 10.0) == frozenset({(2, 4)})
        assert _build_comm_graph(same, -1.0) == comm_edges_loop(same, -1.0) == frozenset()


class TestStep:
    def test_full_period_is_identity(self):
        state = table2_fleet()
        period = TWO_PI * state.layout.loiter_radius / PLATFORM.speed
        circle = state.uavs[0]
        p0 = circle.point_at(state.phase)
        step(state, period)
        p1 = circle.point_at(state.phase)
        assert p0.dist(p1) < 1e-6

    def test_quarter_period(self):
        state = table2_fleet()
        period = TWO_PI * state.layout.loiter_radius / PLATFORM.speed
        step(state, period / 4)
        assert state.phase == pytest.approx(math.pi / 2)

    def test_shared_phase_stays_synchronized(self):
        state = table2_fleet()
        for _ in range(5):
            step(state, 3.7)
        omega = PLATFORM.speed / state.layout.loiter_radius
        assert state.time == pytest.approx(18.5)
        assert state.phase == pytest.approx((omega * 18.5) % TWO_PI, abs=1e-12)

    def test_rejects_bad_dt(self):
        # An infinite dt used to leave the phase NaN and the clock infinite.
        state = table2_fleet()
        for dt in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                step(state, dt)
        assert state.phase == 0.0 and state.time == 0.0


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

    def test_failure_keeps_the_formation_and_adds_the_drawn_ids_to_lost(self):
        state = table2_fleet()
        uavs = dict(state.uavs)
        inject_failure(state, FailureEvent(seed=42, loss_count=18))
        drawn = np.random.default_rng(42).choice(list(range(35)), size=18, replace=False)
        assert state.uavs == uavs
        assert state.lost == set(drawn.tolist())
        extra = set(state.alive_ids[:2])
        before = set(state.lost)
        inject_failure(state, FailureEvent(lost_ids=frozenset(extra)))
        assert state.uavs == uavs
        assert state.lost == before | extra and len(state.lost) == 20

    def test_already_lost_ids_rejected(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset({3})))
        with pytest.raises(ValueError, match=r"already-lost UAVs: \[3\]"):
            inject_failure(state, FailureEvent(lost_ids=frozenset({3, 4})))
        assert state.lost == {3}

    @pytest.mark.parametrize("time", [-5.0, math.inf, math.nan])
    def test_event_rejects_a_bad_time(self, time):
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            FailureEvent(time=time, seed=1, loss_count=1)
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            FailureEvent(time=time, lost_ids=frozenset())

    def test_event_rejects_a_negative_seed(self):
        # numpy's own error named neither the event nor the seed.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            FailureEvent(seed=-1, loss_count=1)
        state = table2_fleet()
        inject_failure(state, FailureEvent(seed=0, loss_count=1))
        assert len(state.lost) == 1

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(lost_ids=frozenset({1}), seed=2, loss_count=1)
        with pytest.raises(ValueError):
            FailureEvent()


class TestDetectFailures:
    def test_no_losses(self):
        state = table2_fleet()
        report = detect_failures(state)
        assert len(report.circles) == 35
        assert len(report.clusters) == 1

    def test_survivors_are_the_formation_less_the_lost(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(seed=7, loss_count=12))
        report = detect_failures(state)
        assert list(report.circles) == sorted(state.uavs.keys() - state.lost)
        assert all(report.circles[i] is state.uavs[i] for i in report.circles)

    def test_two_cluster_split(self):
        state = table2_fleet()
        # Rows are 5 wide; kill rows 2 and 3 entirely to cut row 0-1 off.
        lost = frozenset(range(10, 20))
        inject_failure(state, FailureEvent(lost_ids=lost))
        report = detect_failures(state)
        assert len(report.clusters) == 2
        assert set().union(*report.clusters) == set(report.circles)

    def test_clusters_match_union_find_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            state = table2_fleet()
            k = int(rng.integers(1, 25))
            inject_failure(state, FailureEvent(seed=int(rng.integers(0, 2**32)), loss_count=k))
            report = detect_failures(state)
            positions = {i: (c.center.x, c.center.y) for i, c in report.circles.items()}
            expected = union_find_clusters(list(report.circles), positions, state.r_com + 1e-9)
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

    @pytest.mark.parametrize(
        "platform",
        [
            pytest.param(PLATFORM, id="table2-platform"),  # turns at 11.47 m
            pytest.param(PlatformModel(15.0, 20 * 9.81 / 225, 9.81), id="20m-platform"),
        ],
    )
    def test_transits_turn_at_the_solved_turn_radius(self, platform):
        # One turn radius, the platform's, bounds the solve and shapes every
        # transit.
        state = deploy(AREA, HEX, platform, radius=70.0)
        inject_failure(state, FailureEvent(seed=42, loss_count=18))
        plan = super_agent_recover(detect_failures(state), AREA, HEX, R_C, platform, R_L_MAX)
        assert plan.solution.r_min_turn == min_turn_radius(platform)
        assert len(plan.transitions) == 17
        assert all(tr.path.turn_radius == plan.solution.r_min_turn for tr in plan.transitions)

    def test_assignment_is_a_bijection(self):
        _, report, plan = run_recovery()
        assert sorted(assignment(plan)) == list(report.circles)
        assert sorted(assignment(plan).values()) == list(range(plan.new_layout.count))
        assert plan.spare_ids == ()

    def test_no_survivors(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(35))))
        plan = super_agent_recover(detect_failures(state), AREA, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
        assert plan.outcome is RecoveryOutcome.RECOVERY_FAILED

    def test_spares_when_survivors_exceed_circles(self):
        _, _, plan = run_recovery(loss_count=17)  # 18 survivors, 17 circles
        assert plan.outcome is RecoveryOutcome.FULL_RESTORED
        assert len(plan.spare_ids) == 1
        assert sorted(assignment(plan).values()) == list(range(17))

    def test_recovery_radius_monotone_in_losses(self):
        radii = []
        for lost in (0, 10, 15, 18):
            _, _, plan = run_recovery(loss_count=lost)
            radii.append(plan.solution.loiter_radius)
        assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_deterministic_plans(self):
        _, _, p1 = run_recovery()
        _, _, p2 = run_recovery()
        assert assignment(p1) == assignment(p2)
        assert p1.transitions == p2.transitions
        assert p1.min_separation == p2.min_separation

    def test_matching_minimizes_total_distance(self):
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(5, 35))))  # keep 0..4
        report = detect_failures(state)
        plan = super_agent_recover(report, AreaSpec(300.0, 220.0), HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
        assert plan.outcome is not RecoveryOutcome.RECOVERY_FAILED
        centers = plan.new_layout.centers
        positions = {i: c.center for i, c in report.circles.items()}
        cost = np.array([[positions[i].dist(c) for c in centers] for i in positions])
        total = sum(positions[i].dist(centers[j]) for i, j in assignment(plan).items())
        assert total == pytest.approx(brute_force_assignment(cost), rel=1e-12)

    def test_transitions_keep_separation(self):
        _, report, plan = run_recovery()
        sep = closest_approach(plan.transitions, v=PLATFORM.speed, dt=0.25)[0]
        assert plan.min_separation == sep
        assert sep >= 2.0

    def test_breach_after_the_last_stagger_round_fails(self, monkeypatch):
        # Every check breaches, so the transitions of the tenth re-plan are
        # checked once more and the recovery fails, naming the pair.
        checks = []

        def always_breach(plans, v, dt):
            plans = list(plans)
            checks.append(plans)
            return 1.5, 0, 1

        monkeypatch.setattr(fleet, "closest_approach", always_breach)
        _, _, plan = run_recovery()
        assert len(checks) == fleet.MAX_STAGGER_ROUNDS + 1
        assert plan.outcome is RecoveryOutcome.RECOVERY_FAILED
        assert plan.transitions == () and plan.new_layout is None
        a, b = checks[-1][0].uav_id, checks[-1][1].uav_id
        assert plan.reason.startswith(f"UAVs {a} and {b} come within 1.5 m")

    def test_stagger_replans_the_later_departure(self, monkeypatch):
        # The first separation check reports one breach between a UAV that
        # departs late and the next one by id, which departs at once; the
        # later-departing UAV (not the higher id) is planned again with a
        # base delay of one source period, and the second check passes.
        checks, calls = [], []

        def breach_once(plans, v, dt):
            checks.append(list(plans))
            if len(checks) > 1:
                return 10.0, 0, 1
            i = next(k for k, p in enumerate(plans) if p.depart_delay > 0.0)
            assert plans[i + 1].depart_delay < plans[i].depart_delay
            return 1.0, i, i + 1

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return fleet_plan_transition(*args, **kwargs)

        fleet_plan_transition = fleet.plan_transition
        monkeypatch.setattr(fleet, "closest_approach", breach_once)
        monkeypatch.setattr(fleet, "plan_transition", recording)
        _, _, plan = run_recovery()

        first = checks[0]
        late = next(p for p in first if p.depart_delay > 0.0)
        assert len(checks) == 2 and len(calls) == len(first) + 1
        args, kwargs = calls[-1]
        assert args[0] == late.uav_id
        assert kwargs["base_delay"] == TWO_PI * late.source.radius / PLATFORM.speed
        replanned = {p.uav_id: p for p in plan.transitions}[late.uav_id]
        assert replanned.depart_delay >= kwargs["base_delay"]
        assert [p for p in plan.transitions if p is not replanned] == [p for p in first if p is not late]
        assert plan.min_separation == 10.0

    def test_phase_sync_for_all_transitions(self):
        _, report, plan = run_recovery()
        omega = PLATFORM.speed / plan.solution.loiter_radius
        for tr in plan.transitions:
            residual = (report.phase + omega * tr.arrival_time - tr.join_phase) % TWO_PI
            assert min(residual, TWO_PI - residual) < 1e-6


class TestSeparationRegressions:
    """Draws whose recovered transitions truly came within 2 m under the old
    arrival-time solver: coverage-1km failure seeds 3 and 4 (pair 57/67 at
    0.398 m, one UAV still on its source circle, the other on its target) and
    the 2 km draw 2 (1.46 m). Sampled at dt 0.01 s, not certified: a sample
    can still miss a minimum by up to v * dt."""

    @pytest.mark.parametrize(
        "extent, loss_count, seed", [(1000.0, 36, 3), (1000.0, 36, 4), (2000.0, 136, 2)]
    )
    def test_fine_sampled_separation_clears_2_m(self, extent, loss_count, seed):
        area = AreaSpec(extent, extent)
        state = step(deploy(area, HEX, PLATFORM, radius=70.0), 60.0)
        inject_failure(state, FailureEvent(time=60.0, seed=seed, loss_count=loss_count))
        plan = super_agent_recover(detect_failures(state), area, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
        assert plan.outcome is RecoveryOutcome.FULL_RESTORED
        assert closest_approach(plan.transitions, v=15.0, dt=0.01)[0] >= 2.0


class TestApplyRecoveryAndCoverage:
    def test_recovered_state_fully_covers_per_cycle(self):
        state, _, plan = run_recovery()
        recovered = apply_recovery(state, plan)
        assert len(recovered.uavs) == 17
        report = fleet_coverage(recovered, grid_pitch=R_C / 20.0, phase_samples=36)
        assert report.cycle_fraction == 1.0

    def test_recovered_formation_has_no_losses_and_no_spares(self):
        state, _, plan = run_recovery(loss_count=17)  # 18 survivors, 17 circles
        assert len(plan.spare_ids) == 1
        recovered = apply_recovery(state, plan)
        assert recovered.lost == set()
        assert list(recovered.uavs) == sorted(assignment(plan))
        centers, r_new = plan.new_layout.centers, plan.solution.loiter_radius
        assert recovered.uavs == {i: LoiterCircle(centers[j], r_new) for i, j in assignment(plan).items()}
        assert not recovered.uavs.keys() & set(plan.spare_ids)

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
        frac = loss_sweep(AREA, HEX, (50.0,), (0.0,), R_C, r_l_max=R_L_MAX).max_recoverable[50.0]
        assert 0.70 <= frac <= 0.71
        assert frac == pytest.approx(41.0 / 58.0)

    def test_sweep_points(self):
        result = loss_sweep(AREA, HEX, (70.0,), (0.0, 0.5, 0.75), R_C, r_l_max=R_L_MAX)
        by_frac = {p.loss_fraction: p for p in result.points}
        assert by_frac[0.0].r_new <= 70.0
        assert by_frac[0.75].survivors == 8
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


class TestAssignment:
    """``fleet.linear_sum_assignment`` is scipy's solver, loaded alone."""

    def test_matches_scipy(self):
        rng = np.random.default_rng(22)
        for shape in ((1, 1), (3, 3), (4, 7), (7, 4), (40, 38)):
            for cost in (rng.uniform(0, 100, size=shape), rng.integers(0, 3, size=shape) * 1.0):
                rows, cols = fleet.linear_sum_assignment(cost)
                expected_rows, expected_cols = linear_sum_assignment(cost)
                assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)

    def test_falls_back_to_the_package_import(self, monkeypatch):
        monkeypatch.setattr(fleet.importlib.util, "find_spec", lambda name: None)
        module = fleet._lsap.__wrapped__()
        assert module.linear_sum_assignment is linear_sum_assignment


class TestAssignSurvivors:
    """The array-built cost matrix gives the assignment and spares of the
    ``Vec2.dist`` matrix."""

    @pytest.mark.parametrize(
        "x, y, loss_count, draws", [(500.0, 650.0, 18, 32), (1000.0, 1000.0, 36, 16)]
    )
    def test_matches_the_scalar_cost_matrix_on_recoveries(self, x, y, loss_count, draws):
        # The perfbench workloads paper-35 and coverage-1km; every
        # coverage-1km draw leaves 5 spares (54 survivors, 49 circles).
        area = AreaSpec(x, y)
        for seed in range(draws):
            state = step(deploy(area, HEX, PLATFORM, radius=70.0), 60.0)
            inject_failure(state, FailureEvent(time=60.0, seed=seed, loss_count=loss_count))
            report = detect_failures(state)
            plan = super_agent_recover(report, area, HEX, R_C, PLATFORM, r_l_max=R_L_MAX)
            centers = plan.new_layout.centers
            expected = assignment_by_dist(report.circles, centers)
            assert fleet._assign_survivors(report, centers) == expected
            assert (assignment(plan), plan.spare_ids) == expected

    def test_more_survivors_than_circles(self):
        rng = np.random.default_rng(7)
        state = table2_fleet()
        inject_failure(state, FailureEvent(lost_ids=frozenset(range(0, 35, 4))))
        report = detect_failures(state)
        centers = [Vec2(*rng.uniform(0.0, 500.0, 2)) for _ in range(11)]
        assignment, spares = fleet._assign_survivors(report, centers)
        assert (assignment, spares) == assignment_by_dist(report.circles, centers)
        assert len(assignment) == 11 and len(spares) == len(report.circles) - 11
