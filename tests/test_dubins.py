import math

import numpy as np
import pytest

from loiterpack.dubins import (
    DubinsPath,
    DubinsWord,
    Pose,
    _SOLVERS,
    closest_approach,
    loiter_pose,
    mod2pi,
    path_end,
    plan_pose,
    plan_transition,
    sample,
    shortest_path,
)
from loiterpack.errors import PlanningError
from loiterpack.geometry import LoiterCircle, Vec2
from oracles import dubins_discretized_length

TWO_PI = 2 * math.pi


def pose(x, y, heading):
    return Pose(Vec2(x, y), heading)


def random_pose(rng, span=10.0):
    return pose(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(0, TWO_PI))


class TestShortestPath:
    def test_identical_poses(self):
        p = pose(3.0, -2.0, 1.1)
        assert shortest_path(p, p, 1.0).length == 0.0

    def test_collinear_same_heading_is_straight(self):
        r = 2.5
        path = shortest_path(pose(0, 0, 0), pose(10 * r, 0, 0), r)
        assert path.length == pytest.approx(10 * r, abs=1e-9)
        assert path.segment_lengths[0] == pytest.approx(0.0, abs=1e-9)
        assert path.segment_lengths[2] == pytest.approx(0.0, abs=1e-9)

    def test_lateral_offset_against_discretized_oracle(self):
        r = 1.3
        a = (0.0, 0.0, 0.0)
        b = (0.0, 4 * r, 0.0)
        path = shortest_path(pose(*a), pose(*b), r)
        oracle = dubins_discretized_length(a, b, r)
        assert path.length == pytest.approx(oracle, rel=0.01)
        assert path.length == pytest.approx(TWO_PI * r, rel=1e-6)  # LSR with p = 0

    def test_random_pairs_against_discretized_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(12):
            r = rng.uniform(0.5, 2.5)
            a = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
            b = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
            impl = shortest_path(pose(*a), pose(*b), r).length
            # The oracle's residual acceptance can under- or over-shoot the
            # true optimum by its grid resolution, hence the 1% band.
            oracle = dubins_discretized_length(a, b, r, n_grid=120_000)
            assert impl == pytest.approx(oracle, rel=0.01)

    def test_word_optimality_and_triangle_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            r = rng.uniform(0.3, 3.0)
            a = random_pose(rng)
            b = random_pose(rng)
            best = shortest_path(a, b, r)
            euclid = a.position.dist(b.position)
            assert best.length >= euclid - 1e-9
            theta = math.atan2(
                b.position.y - a.position.y, b.position.x - a.position.x
            )
            alpha = mod2pi(a.heading - theta)
            beta = mod2pi(b.heading - theta)
            d = euclid / r
            for word, solver in _SOLVERS.items():
                tpq = solver(alpha, beta, d)
                if tpq is None:
                    continue
                assert best.length <= sum(tpq) * r + 1e-9

    def test_endpoint_fidelity(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            r = rng.uniform(0.3, 3.0)
            a, b = random_pose(rng), random_pose(rng)
            path = shortest_path(a, b, r)
            end = sample(path, path.length)
            assert end.position.dist(b.position) < 1e-6
            assert abs(mod2pi(end.heading - b.heading + math.pi) - math.pi) < 1e-6

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            r = rng.uniform(0.3, 3.0)
            a, b = random_pose(rng), random_pose(rng)
            mirror = lambda p: pose(p.position.x, -p.position.y, mod2pi(-p.heading))
            direct = shortest_path(a, b, r).length
            mirrored = shortest_path(mirror(a), mirror(b), r).length
            assert direct == pytest.approx(mirrored, rel=1e-9, abs=1e-9)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            r = rng.uniform(0.3, 3.0)
            a, b = random_pose(rng), random_pose(rng)
            rev = lambda p: pose(p.position.x, p.position.y, mod2pi(p.heading + math.pi))
            assert shortest_path(a, b, r).length == pytest.approx(
                shortest_path(rev(b), rev(a), r).length, rel=1e-9, abs=1e-9
            )

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            shortest_path(pose(0, 0, 0), pose(1, 1, 0), 0.0)


class TestSample:
    def test_start_pose(self):
        path = shortest_path(pose(1, 2, 0.4), pose(5, -1, 2.0), 1.0)
        start = sample(path, 0.0)
        assert start.position.dist(Vec2(1, 2)) < 1e-12
        assert start.heading == pytest.approx(0.4)

    def test_straight_midpoint(self):
        path = shortest_path(pose(0, 0, 0), pose(10, 0, 0), 1.0)
        mid = sample(path, 5.0)
        assert mid.position.dist(Vec2(5, 0)) < 1e-12
        assert mid.heading == pytest.approx(0.0)

    def test_ccc_position_continuity(self):
        # A pure three-arc path: nearby start/goal with flipped heading.
        a = pose(0, 0, 0)
        b = pose(0.5, 0.2, math.pi)
        path = shortest_path(a, b, 1.0)
        assert path.word in (DubinsWord.RLR, DubinsWord.LRL)
        ds = path.length / 400
        prev = sample(path, 0.0).position
        for i in range(1, 401):
            cur = sample(path, i * ds).position
            assert cur.dist(prev) < 2 * ds
            prev = cur

    def test_out_of_range(self):
        path = shortest_path(pose(0, 0, 0), pose(10, 0, 0), 1.0)
        with pytest.raises(ValueError):
            sample(path, -0.5)
        with pytest.raises(ValueError):
            sample(path, path.length + 1.0)


class TestPlanTransition:
    def test_same_circle_aligned_is_zero_plan(self):
        circle = LoiterCircle(Vec2(0, 0), 50.0)
        plan = plan_transition(1, circle, 0.7, circle, 10.0, 15.0)
        assert plan.depart_delay == 0.0
        assert plan.path.length == 0.0
        assert plan.arrival_time == 0.0
        assert plan.join_phase == pytest.approx(0.7)

    def test_path_length_lower_bound(self):
        src = LoiterCircle(Vec2(0, 0), 30.0)
        tgt = LoiterCircle(Vec2(300, 0), 30.0)
        plan = plan_transition(0, src, 0.0, tgt, 10.0, 15.0)
        assert plan.path.length >= 300.0 - 2 * 30.0

    def test_phase_sync_invariant(self):
        rng = np.random.default_rng(15)
        v = 15.0
        for _ in range(100):
            src = LoiterCircle(Vec2(rng.uniform(-200, 200), rng.uniform(-200, 200)), rng.uniform(40, 90))
            tgt = LoiterCircle(Vec2(rng.uniform(-200, 200), rng.uniform(-200, 200)), rng.uniform(40, 90))
            phase0 = rng.uniform(0, TWO_PI)
            plan = plan_transition(0, src, phase0, tgt, 11.5, v)
            omega = v / tgt.radius
            residual = (phase0 + omega * plan.arrival_time - plan.join_phase) % TWO_PI
            residual = min(residual, TWO_PI - residual)
            assert residual < 1e-6

    def test_tangential_break_off_and_join(self):
        src = LoiterCircle(Vec2(0, 0), 60.0)
        tgt = LoiterCircle(Vec2(250, 120), 90.0)
        plan = plan_transition(0, src, 1.2, tgt, 11.5, 15.0)
        depart = loiter_pose(src, plan.break_off_phase)
        assert plan.path.start.position.dist(depart.position) < 1e-9
        assert abs(plan.path.start.heading - depart.heading) < 1e-9
        end = sample(plan.path, plan.path.length)
        join = loiter_pose(tgt, plan.join_phase)
        assert end.position.dist(join.position) < 1e-6
        assert abs(mod2pi(end.heading - join.heading + math.pi) - math.pi) < 1e-6

    def test_base_delay_keeps_sync(self):
        src = LoiterCircle(Vec2(0, 0), 60.0)
        tgt = LoiterCircle(Vec2(250, 120), 90.0)
        v = 15.0
        plan = plan_transition(0, src, 0.3, tgt, 11.5, v, base_delay=31.0)
        assert plan.depart_delay >= 31.0
        omega = v / tgt.radius
        residual = (0.3 + omega * plan.arrival_time - plan.join_phase) % TWO_PI
        assert min(residual, TWO_PI - residual) < 1e-6

    def test_turn_radius_precondition(self):
        src = LoiterCircle(Vec2(0, 0), 30.0)
        tgt = LoiterCircle(Vec2(100, 0), 8.0)
        with pytest.raises(PlanningError):
            plan_transition(0, src, 0.0, tgt, 10.0, 15.0)

    def test_plan_pose_piecewise(self):
        src = LoiterCircle(Vec2(0, 0), 60.0)
        tgt = LoiterCircle(Vec2(400, 0), 80.0)
        v = 15.0
        plan = plan_transition(0, src, 0.0, tgt, 11.5, v, base_delay=10.0)
        before = plan_pose(plan, 1.0, v)
        assert before.position.dist(src.center) == pytest.approx(src.radius, abs=1e-9)
        after = plan_pose(plan, plan.arrival_time + 3.0, v)
        assert after.position.dist(tgt.center) == pytest.approx(tgt.radius, abs=1e-9)


class TestMinSeparation:
    # closest_approach(...)[0] is the minimum pairwise separation.
    def test_single_agent_sentinel(self):
        src = LoiterCircle(Vec2(0, 0), 30.0)
        tgt = LoiterCircle(Vec2(200, 0), 30.0)
        plan = plan_transition(0, src, 0.0, tgt, 10.0, 15.0)
        assert closest_approach([plan], v=15.0)[0] == math.inf

    def test_antipodal_loiterers(self):
        circle = LoiterCircle(Vec2(0, 0), 35.0)
        sep = closest_approach([], loitering=[(circle, 0.0), (circle, math.pi)], v=15.0, dt=0.1)[0]
        assert sep == pytest.approx(70.0, rel=1e-9)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            closest_approach([], loitering=[], v=1.0, dt=0.0)
