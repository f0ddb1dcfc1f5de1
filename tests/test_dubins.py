import math

import numpy as np
import pytest

from loiterpack import dubins, fleet
from loiterpack.dubins import (
    DubinsPath,
    DubinsWord,
    Pose,
    TransitionPlan,
    _WORD_ORDER,
    _shortest,
    _words,
    closest_approach,
    loiter_pose,
    mod2pi,
    plan_transition,
    sample,
    shortest_path,
    track,
)
from loiterpack.errors import PlanningError
from loiterpack.fleet import FailureEvent, deploy, detect_failures, inject_failure, super_agent_recover
from loiterpack.geometry import AreaSpec, LoiterCircle, PackingKind, PlatformModel, Vec2
from oracles import (
    WORD_SOLVERS,
    arrival_function,
    arrival_horizon,
    arrival_tolerance,
    bisect_root,
    dubins_discretized_length,
    path_state_loop,
    plan_pose_loop,
    plan_transition_scan,
    scan_root,
    shortest_path_loop,
    tracks_loop,
)

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
            for tpq in _words(alpha, beta, d):
                if tpq is None:
                    continue
                assert best.length <= sum(tpq) * r + 1e-9

    def test_endpoint_fidelity(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            r = rng.uniform(0.3, 3.0)
            a, b = random_pose(rng), random_pose(rng)
            path = shortest_path(a, b, r)
            x, y, heading = sample(path, path.length)
            assert Vec2(x, y).dist(b.position) < 1e-6
            assert abs(mod2pi(heading - b.heading + math.pi) - math.pi) < 1e-6

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


def kernel(a, b, r):
    """The float kernel's answer as a DubinsPath, or None."""
    found = _shortest(
        a.position.x, a.position.y, a.heading, b.position.x, b.position.y, b.heading, r
    )
    return None if found is None else DubinsPath(_WORD_ORDER[found[0]], found[1], r, a)


def tie_pairs():
    """Collinear poses with one heading (LSL, LSR and RSR are all the
    straight line), coincident positions with two headings, and coincident
    poses; the earlier word must win every tie."""
    pairs = []
    for r in (0.5, 1.0, 2.5):
        for length in (0.1, 1.0, 2.0 * r, 4.0 * r, 100.0):
            for heading, (ux, uy) in ((0.0, (1, 0)), (0.5 * math.pi, (0, 1)), (math.pi, (-1, 0))):
                start = pose(1.0, -2.0, heading)
                goal = pose(1.0 + length * ux, -2.0 + length * uy, heading)
                pairs.append((start, goal, r))
        for turn in (0.3, math.pi, 5.0):
            pairs.append((pose(3.0, 4.0, 0.25), pose(3.0, 4.0, 0.25 + turn), r))
        pairs.append((pose(3.0, 4.0, 0.25), pose(3.0, 4.0, 0.25), r))
    return pairs


class TestMatchesTheFirstSolver:
    """The shared-trigonometry solver and its shortest-first forward check
    return exactly what the per-word solvers and the loop return."""

    def test_words_match_the_per_word_solvers(self):
        rng = np.random.default_rng(20)
        for _ in range(10_000):
            alpha, beta = rng.uniform(0, TWO_PI, 2)
            d = float(rng.choice([rng.uniform(0, 0.5), rng.uniform(0, 4), rng.uniform(0, 50)]))
            assert _words(alpha, beta, d) == tuple(f(alpha, beta, d) for f in WORD_SOLVERS)

    def test_random_pose_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            r = rng.uniform(0.3, 3.0)
            a, b = random_pose(rng), random_pose(rng)
            assert shortest_path(a, b, r) == shortest_path_loop(a, b, r)

    def test_float_kernel_on_the_random_pose_pairs(self):
        # The same 10k pairs straight into the float kernel.
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            r = rng.uniform(0.3, 3.0)
            a, b = random_pose(rng), random_pose(rng)
            assert kernel(a, b, r) == shortest_path_loop(a, b, r)

    def test_float_kernel_on_the_ties(self):
        for a, b, r in tie_pairs():
            assert kernel(a, b, r) == shortest_path_loop(a, b, r)

    def test_equal_length_ties(self):
        ties = 0
        for a, b, r in tie_pairs():
            path = shortest_path(a, b, r)
            assert path == shortest_path_loop(a, b, r)
            theta = math.atan2(b.position.y - a.position.y, b.position.x - a.position.x)
            lengths = [
                tpq[0] * r + tpq[1] * r + tpq[2] * r
                for tpq in _words(
                    mod2pi(a.heading - theta), mod2pi(b.heading - theta), a.position.dist(b.position) / r
                )
                if tpq is not None
            ]
            ties += lengths.count(min(lengths)) > 1
        assert ties >= 20


def perfbench_recoveries(x, y, loss_count, draws):
    """Run the recovery of each failure draw of a perfbench workload (hexagon
    at 70 m, failure at 60 s, r_c 80 m, r_l at most 100 m)."""
    area, platform = AreaSpec(x, y), PlatformModel(speed=15.0, max_bank=0.5)
    for seed in range(draws):
        state = fleet.step(deploy(area, PackingKind.HEXAGON, platform, radius=70.0), 60.0)
        inject_failure(state, FailureEvent(time=60.0, seed=seed, loss_count=loss_count))
        super_agent_recover(detect_failures(state), area, PackingKind.HEXAGON, 80.0, platform, r_l_max=100.0)


def angle_gap(a, b):
    """|a - b| reduced to [0, pi]."""
    gap = (a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


class TestEarliestRoot:
    """The arrival-time solver returns a verified, phase-synchronized plan at
    the earliest root its scan can find: no earlier delay offset and no
    earlier bracket of its scan grid holds a root, only jumps of the path
    length, and a scan at an eighth of the pitch finds the same root."""

    @staticmethod
    def assert_no_root_before(arrival, delay, t_end, step, tol, until=math.inf):
        """No point of the scan grid (delay + k * step up to the first at or
        past ``t_end``) before ``until`` meets the tolerance, and every sign
        change of g(t) = arrival(t) - t between two such points is a jump: a
        bisection finds no root in it."""
        a, g_a = delay, arrival(delay) - delay
        k = 0
        while a < t_end:
            if a < until:
                assert abs(g_a) >= tol
            k += 1
            b = delay + k * step
            if not b < until:
                return
            g_b = arrival(b) - b
            if (g_a < 0.0) != (g_b < 0.0):
                assert bisect_root(arrival, a, b, tol) is None
            a, g_a = b, g_b

    # (area x, area y, UAVs lost, failure seeds, most solver evaluations) of
    # the perfbench workloads; the old fixed-point solver took 23,789 and
    # 39,333 evaluations here.
    @pytest.mark.parametrize(
        "x, y, loss_count, draws, max_evaluations",
        [
            pytest.param(500.0, 650.0, 18, 32, 10_000, id="paper-35"),
            pytest.param(1000.0, 1000.0, 36, 16, 15_000, id="coverage-1km"),
        ],
    )
    def test_every_transition_of_the_perfbench_recoveries(
        self, monkeypatch, x, y, loss_count, draws, max_evaluations
    ):
        calls = []
        evaluations = 0
        shortest = dubins._shortest

        def recording(*args, **kwargs):
            plan = plan_transition(*args, **kwargs)
            calls.append((args, kwargs.get("base_delay", 0.0), plan))
            return plan

        def counted(*a):
            nonlocal evaluations
            evaluations += 1
            return shortest(*a)

        monkeypatch.setattr(fleet, "plan_transition", recording)
        monkeypatch.setattr(dubins, "_shortest", counted)
        perfbench_recoveries(x, y, loss_count, draws)
        assert evaluations <= max_evaluations  # plan builds included
        monkeypatch.undo()

        for args, base_delay, plan in calls:
            _, source, start_phase, target, r_turn, v = args
            tol = arrival_tolerance(target, v)
            period = TWO_PI / (v / target.radius)  # as the library computes it
            step = period / 8.0
            delays = [base_delay + offset * period for offset in dubins.DELAY_OFFSETS]
            chosen = delays.index(plan.depart_delay)
            # The word verifies, and the arrival is within tolerance of the
            # guess the join phase was taken at.
            depart = loiter_pose(source, mod2pi(start_phase + (v / source.radius) * plan.depart_delay))
            assert depart == plan.path.start
            assert plan.path == shortest_path_loop(depart, loiter_pose(target, plan.join_phase), r_turn)
            assert plan.arrival_time == plan.depart_delay + plan.path.length / v
            omega = v / target.radius
            assert angle_gap(start_phase + omega * plan.arrival_time, plan.join_phase) <= omega * tol + 1e-12
            # Earlier offsets, and the grid before the root, hold only jumps.
            for k, delay in enumerate(delays[: chosen + 1]):
                arrival = arrival_function(source, start_phase, target, r_turn, v, delay)[1]
                t_end = delay + arrival_horizon(source, target, r_turn, v)
                until = plan.arrival_time - tol if k == chosen else math.inf
                self.assert_no_root_before(arrival, delay, t_end, step, tol, until)
            # The scan at 1/64 of a period finds the same delay and, where g
            # is flat to within the tolerance, a root at most 1e-4 s away.
            expected = plan_transition_scan(*args, base_delay=base_delay)
            assert expected.depart_delay == plan.depart_delay
            assert abs(expected.arrival_time - plan.arrival_time) < 1e-4

    def test_jump_moves_to_a_later_offset(self, monkeypatch):
        # UAV 17 of the paper-35 recovery (failure seed 0): at delay offsets
        # 0 to 3/8 of the target period g jumps across zero and has no root;
        # the old solver spent 173 evaluations there and departed a whole
        # period (40.3 s) late, arriving at 48.93 s.
        source = LoiterCircle(Vec2(242.4871130596428, 350.0), 70.0)
        target = LoiterCircle(Vec2(250.0, 336.78765702728174), 96.22504486493763)
        args = (17, source, 0.2907722427836834, target, 11.46788990825688, 15.0)
        evaluations = 0
        skipped = []
        shortest, illinois = dubins._shortest, dubins._illinois

        def counted(*a):
            nonlocal evaluations
            evaluations += 1
            return shortest(*a)

        def recording(arrival, a, g_a, b, g_b, tol):
            root = illinois(arrival, a, g_a, b, g_b, tol)
            if root is None:
                skipped.append((a, b))
            return root

        monkeypatch.setattr(dubins, "_shortest", counted)
        monkeypatch.setattr(dubins, "_illinois", recording)
        plan = plan_transition(*args)
        monkeypatch.undo()

        period = TWO_PI / (15.0 / target.radius)
        assert skipped[0][0] == 0.0  # the jump of delay 0 is skipped
        assert plan.depart_delay == dubins.DELAY_OFFSETS[4] * period
        expected = plan_transition_scan(*args)
        assert expected.depart_delay == plan.depart_delay
        assert abs(expected.arrival_time - plan.arrival_time) < 1e-4
        tol = arrival_tolerance(target, 15.0)
        for delay in (offset * period for offset in dubins.DELAY_OFFSETS[:4]):
            arrival = arrival_function(source, args[2], target, args[4], 15.0, delay)[1]
            t_end = delay + arrival_horizon(source, target, args[4], 15.0)
            assert scan_root(arrival, delay, t_end, period / 640.0, tol) is None
        assert evaluations < 173
        assert plan.arrival_time < 27.0

    def test_far_small_target_ends_within_the_horizon(self, monkeypatch):
        # A 12 m circle 6.5 km away: the scan at 1/8 of its 5 s period runs
        # about 700 points to the root at 434 s, 14 s before the horizon.
        source = LoiterCircle(Vec2(0.0, 0.0), 60.0)
        target = LoiterCircle(Vec2(6000.0, -2500.0), 12.0)
        args = (3, source, 1.0, target, 10.0, 15.0)
        scans = []
        earliest_root = dubins._earliest_root

        def recording(arrival, t0, t_max, step, tol):
            guesses = []

            def arrival_at(t):
                guesses.append(t)
                return arrival(t)

            scans.append((t0, t_max, step, guesses))
            return earliest_root(arrival_at, t0, t_max, step, tol)

        monkeypatch.setattr(dubins, "_earliest_root", recording)
        plan = plan_transition(*args)
        horizon = arrival_horizon(source, target, 10.0, 15.0)
        for t0, t_max, step, guesses in scans:
            assert t_max == pytest.approx(t0 + horizon, rel=1e-12)
            assert t0 <= min(guesses) and max(guesses) < t_max + step
        assert plan.depart_delay == scans[-1][0]
        omega = 15.0 / target.radius
        residual = angle_gap(1.0 + omega * plan.arrival_time, plan.join_phase)
        assert residual <= omega * arrival_tolerance(target, 15.0) + 1e-12

    def test_horizon_bounds_every_path(self):
        # Past the horizon g < 0: no shortest path between poses of the two
        # circles is longer than the bound the scan stops at.
        rng = np.random.default_rng(16)
        for _ in range(2000):
            r_turn = rng.uniform(1.0, 20.0)
            src = LoiterCircle(Vec2(*rng.uniform(-300, 300, 2)), rng.uniform(r_turn, 100))
            tgt = LoiterCircle(Vec2(*rng.uniform(-300, 300, 2)), rng.uniform(r_turn, 100))
            a = loiter_pose(src, rng.uniform(0, TWO_PI))
            b = loiter_pose(tgt, rng.uniform(0, TWO_PI))
            assert shortest_path(a, b, r_turn).length <= arrival_horizon(src, tgt, r_turn, 1.0)


class TestArrivalResidual:
    """g(t) = delay + L(t) / v - t never increases, so the solver's scan
    stops at its first sign change."""

    @pytest.mark.parametrize(
        "x, y, loss_count",
        [
            pytest.param(500.0, 650.0, 18, id="paper-35"),
            pytest.param(1000.0, 1000.0, 36, id="coverage-1km"),
        ],
    )
    def test_never_increases_on_the_perfbench_transitions(self, monkeypatch, x, y, loss_count):
        # g of every transition of two failure draws, at the chosen delay,
        # sampled every 1/256 of the target period up to the horizon.
        calls = []

        def recording(*args, **kwargs):
            plan = plan_transition(*args, **kwargs)
            calls.append((args, plan))
            return plan

        monkeypatch.setattr(fleet, "plan_transition", recording)
        perfbench_recoveries(x, y, loss_count, 2)
        monkeypatch.undo()
        assert len(calls) >= 30
        for (_, source, start_phase, target, r_turn, v), plan in calls:
            depart = loiter_pose(source, mod2pi(start_phase + (v / source.radius) * plan.depart_delay))
            assert depart == plan.path.start
            omega = v / target.radius
            horizon = arrival_horizon(source, target, r_turn, v)
            times = plan.depart_delay + np.arange(0.0, horizon, TWO_PI / omega / 256.0)
            lengths = [
                shortest_path(depart, loiter_pose(target, start_phase + omega * t), r_turn).length
                for t in times
            ]
            g = plan.depart_delay + np.array(lengths) / v - times
            assert np.all(np.diff(g) <= 0.0)

    def test_scan_stops_at_the_first_sign_change(self):
        # A g that jumps from +1 to -1 at t = 0.55 and (unlike a real
        # residual) climbs back to a root at t = 3: the scan gives up at the
        # jump and evaluates nothing past its bracket.
        guesses = []

        def arrival(t):
            guesses.append(t)
            return t + (1.0 if t < 0.55 else t - 3.0 if t > 1.0 else -1.0)

        assert dubins._earliest_root(arrival, 0.0, 10.0, 0.25, 1e-9) is None
        assert max(guesses) <= 0.75


class TestSample:
    def test_start_pose(self):
        path = shortest_path(pose(1, 2, 0.4), pose(5, -1, 2.0), 1.0)
        x, y, heading = sample(path, 0.0)
        assert Vec2(x, y).dist(Vec2(1, 2)) < 1e-12
        assert heading == pytest.approx(0.4)

    def test_straight_midpoint(self):
        path = shortest_path(pose(0, 0, 0), pose(10, 0, 0), 1.0)
        x, y, heading = sample(path, 5.0)
        assert Vec2(x, y).dist(Vec2(5, 0)) < 1e-12
        assert heading == pytest.approx(0.0)

    def test_ccc_position_continuity(self):
        # A pure three-arc path: nearby start/goal with flipped heading.
        a = pose(0, 0, 0)
        b = pose(0.5, 0.2, math.pi)
        path = shortest_path(a, b, 1.0)
        assert path.word in (DubinsWord.RLR, DubinsWord.LRL)
        ds = path.length / 400
        x, y, _ = sample(path, np.arange(401) * ds)
        assert (np.hypot(np.diff(x), np.diff(y)) < 2 * ds).all()

    def test_out_of_range(self):
        path = shortest_path(pose(0, 0, 0), pose(10, 0, 0), 1.0)
        with pytest.raises(ValueError):
            sample(path, -0.5)
        with pytest.raises(ValueError):
            sample(path, path.length + 1.0)
        with pytest.raises(ValueError):
            sample(path, [0.0, path.length + 1.0])
        # Non-finite lengths fail the range check instead of clamping.
        for s in (math.nan, [0.0, math.nan], math.inf, -math.inf):
            with pytest.raises(ValueError):
                sample(path, s)

    def test_every_word_matches_the_segment_walk(self):
        rng = np.random.default_rng(16)
        for path in oracle_paths(rng):
            cuts = np.cumsum(path.segment_lengths)
            s = np.concatenate(
                [[0.0], cuts, np.nextafter(cuts, 0.0), rng.uniform(0.0, path.length, 20)]
            )
            # Lengths just outside [0, length], within the range check, clamp.
            s = np.concatenate([np.minimum(s, path.length), [-5e-13, path.length + 5e-10]])
            x, y, heading = sample(path, s)
            expected = np.array([path_state_loop(path, si) for si in s])
            assert np.array_equal(x, expected[:, 0])
            assert np.array_equal(y, expected[:, 1])
            assert np.array_equal(heading, expected[:, 2] % TWO_PI)


def word_path(rng, word, r):
    """A DubinsPath of the given word between random nearby poses."""
    while True:
        a, b = random_pose(rng, span=2.0 * r), random_pose(rng, span=2.0 * r)
        dx, dy = b.position.x - a.position.x, b.position.y - a.position.y
        theta = math.atan2(dy, dx)
        tpq = _words(
            mod2pi(a.heading - theta), mod2pi(b.heading - theta), math.hypot(dx, dy) / r
        )[_WORD_ORDER.index(word)]
        if tpq is not None:
            return DubinsPath(word, tuple(seg * r for seg in tpq), r, a)


def oracle_paths(rng):
    """Paths of every word, plus paths with zero-length segments."""
    paths = []
    for word in DubinsWord:
        paths += [word_path(rng, word, rng.uniform(5.0, 15.0)) for _ in range(5)]
    start = pose(3.0, -4.0, 0.7)
    paths.append(DubinsPath(DubinsWord.LSL, (0.0, 0.0, 0.0), 10.0, start))
    paths.append(DubinsPath(DubinsWord.LSL, (0.0, 25.0, 0.0), 10.0, start))
    paths.append(DubinsPath(DubinsWord.RSR, (4.0, 0.0, 6.0), 10.0, start))
    paths.append(DubinsPath(DubinsWord.LRL, (0.0, 9.0, 2.0), 10.0, start))
    return paths


class TestTrack:
    V = 15.0

    def oracle_plans(self, rng):
        """Plans over every path of ``oracle_paths`` with random loiter circles
        and delays, and planned transitions with and without a base delay."""
        plans = []
        for path in oracle_paths(rng):
            source = LoiterCircle(Vec2(*rng.uniform(-200, 200, 2)), rng.uniform(40, 90))
            target = LoiterCircle(Vec2(*rng.uniform(-200, 200, 2)), rng.uniform(40, 90))
            delay = float(rng.choice([0.0, rng.uniform(0.0, 30.0)]))
            plans.append(
                TransitionPlan(
                    uav_id=len(plans),
                    source=source,
                    target=target,
                    start_phase=rng.uniform(0, TWO_PI),
                    depart_delay=delay,
                    path=path,
                    join_phase=rng.uniform(0, TWO_PI),
                    arrival_time=delay + path.length / self.V,
                )
            )
        for base_delay in (0.0, 0.0, 17.5, 40.0):
            src = LoiterCircle(Vec2(*rng.uniform(-200, 200, 2)), rng.uniform(40, 90))
            tgt = LoiterCircle(Vec2(*rng.uniform(-200, 200, 2)), rng.uniform(40, 90))
            plans.append(
                plan_transition(0, src, rng.uniform(0, TWO_PI), tgt, 11.5, self.V, base_delay)
            )
        circle = LoiterCircle(Vec2(0, 0), 50.0)
        plans.append(plan_transition(0, circle, 0.7, circle, 10.0, self.V))  # zero-length path
        return plans

    def test_matches_the_scalar_pose_oracle(self):
        rng = np.random.default_rng(17)
        plans = self.oracle_plans(rng)
        assert {p.path.word for p in plans} == set(DubinsWord)
        assert any(p.depart_delay > 0 for p in plans)
        for plan in plans:
            t_end = plan.arrival_time + 60.0
            times = np.sort(
                np.concatenate(
                    [
                        [0.0, plan.depart_delay, plan.arrival_time, t_end],
                        np.nextafter([plan.depart_delay, plan.arrival_time], 0.0),
                        plan.depart_delay + np.cumsum(plan.path.segment_lengths) / self.V,
                        rng.uniform(0.0, t_end, 40),
                        np.linspace(0.0, t_end, 50),
                    ]
                )
            )
            x, y, heading = (a[0] for a in track([plan], times, self.V))
            expected = np.array([plan_pose_loop(plan, t, self.V) for t in times])
            assert np.array_equal(x, expected[:, 0])
            assert np.array_equal(y, expected[:, 1])
            assert np.array_equal(heading, expected[:, 2])

    def test_piecewise(self):
        src = LoiterCircle(Vec2(0, 0), 60.0)
        tgt = LoiterCircle(Vec2(400, 0), 80.0)
        v = 15.0
        plan = plan_transition(0, src, 0.0, tgt, 11.5, v, base_delay=10.0)
        x, y, _ = track([plan], [1.0, plan.arrival_time + 3.0], v)
        assert Vec2(x[0, 0], y[0, 0]).dist(src.center) == pytest.approx(src.radius, abs=1e-9)
        assert Vec2(x[0, 1], y[0, 1]).dist(tgt.center) == pytest.approx(tgt.radius, abs=1e-9)

    def fleet_times(self, rng, plans):
        """Sorted times from before the first departure to past the last
        arrival, with every plan's departure, arrival and segment ends and
        the floats just below them."""
        t_end = max(p.arrival_time for p in plans) + 60.0
        marks = [[p.depart_delay, p.arrival_time] for p in plans]
        marks += [p.depart_delay + np.cumsum(p.path.segment_lengths) / self.V for p in plans]
        marks = np.concatenate(marks)
        return np.sort(
            np.concatenate(
                [[0.0, t_end], marks, np.nextafter(marks, 0.0), rng.uniform(0.0, t_end, 200)]
            )
        )

    def check_fleet(self, plans, times):
        x, y, heading = track(plans, times, self.V)
        assert x.shape == y.shape == heading.shape == (len(plans), times.size)
        positions = tracks_loop(plans, (), self.V, times)
        headings = np.array([[plan_pose_loop(p, t, self.V)[2] for t in times] for p in plans])
        assert np.array_equal(x, np.array([xy[:, 0] for xy in positions]))
        assert np.array_equal(y, np.array([xy[:, 1] for xy in positions]))
        assert np.array_equal(heading, headings)

    def test_fleet_wide_matches_the_loops(self):
        # Mixed plans in one pass: departure delays, zero-length segments
        # and a zero-length path, at times before every departure, in
        # flight and past every arrival.
        rng = np.random.default_rng(18)
        plans = self.oracle_plans(rng)
        times = self.fleet_times(rng, plans)
        assert times[0] < min(p.depart_delay for p in plans if p.depart_delay > 0)
        assert times[-1] > max(p.arrival_time for p in plans)
        self.check_fleet(plans, times)

    def test_one_plan(self):
        rng = np.random.default_rng(19)
        for plan in self.oracle_plans(rng):
            self.check_fleet([plan], self.fleet_times(rng, [plan]))

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_block_boundaries(self, monkeypatch, rows):
        # Blocks of 1, 2 and 7 plans over the same times.
        rng = np.random.default_rng(20)
        plans = self.oracle_plans(rng)
        times = self.fleet_times(rng, plans)
        monkeypatch.setattr(dubins, "_TRACK_ENTRIES", rows * times.size + rows - 1)
        self.check_fleet(plans, times)

    def test_no_plans_and_no_times(self):
        x, y, heading = track([], np.linspace(0.0, 1.0, 5), self.V)
        assert x.shape == y.shape == heading.shape == (0, 5)
        rng = np.random.default_rng(21)
        x, y, heading = track(self.oracle_plans(rng)[:3], [], self.V)
        assert x.shape == (3, 0)

    def test_rejects_unsorted_times(self):
        plan = self.oracle_plans(np.random.default_rng(22))[0]
        with pytest.raises(ValueError):
            track([plan], [2.0, 1.0], self.V)
        # np.diff of a NaN is no negative step, so NaN needs its own check.
        for times in ([math.nan], [0.0, math.nan], [0.0, 1.0, math.inf], [-math.inf, 0.0]):
            with pytest.raises(ValueError):
                track([plan], times, self.V)

    @pytest.mark.parametrize("v", [math.nan, 0.0, -15.0, math.inf])
    def test_rejects_bad_speeds(self, v):
        # NaN used to pin the in-flight samples to the path's end and -15
        # to walk the path backwards; the planner and the separation check
        # reject the same speeds with the same message.
        source = LoiterCircle(Vec2(0.0, 0.0), 60.0)
        target = LoiterCircle(Vec2(400.0, 0.0), 80.0)
        plan = plan_transition(0, source, 0.0, target, 10.0, self.V)
        with pytest.raises(ValueError, match="speed must be positive and finite") as tracked:
            track([plan], [0.0, 5.0, 30.0], v)
        with pytest.raises(ValueError) as planned:
            plan_transition(0, source, 0.0, target, 10.0, v)
        with pytest.raises(ValueError) as checked:
            closest_approach([plan], v=v)
        assert str(tracked.value) == str(planned.value) == str(checked.value)


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
        # The break-off pose, derived from the delay, not read off the path.
        depart = loiter_pose(src, mod2pi(1.2 + (15.0 / src.radius) * plan.depart_delay))
        assert depart == plan.path.start
        x, y, heading = sample(plan.path, plan.path.length)
        join = loiter_pose(tgt, plan.join_phase)
        assert Vec2(x, y).dist(join.position) < 1e-6
        assert abs(mod2pi(heading - join.heading + math.pi) - math.pi) < 1e-6

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

    def test_speed_is_keyword_only_and_required(self):
        # Without a speed the check cannot time the tracks; a positional
        # speed would be easy to swap with dt.
        circle = LoiterCircle(Vec2(0, 0), 35.0)
        loitering = [(circle, 0.0), (circle, math.pi)]
        with pytest.raises(TypeError):
            closest_approach([], loitering=loitering)
        with pytest.raises(TypeError):
            closest_approach([], loitering, 15.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            closest_approach([], loitering=[], v=1.0, dt=0.0)

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_dt(self, dt):
        # Two UAVs swapping 40 m circles 400 m apart pass 50.14 m from each
        # other at dt 0.25 s; a timeline of only its two ends at dt inf
        # reported 400.0 m.
        a = LoiterCircle(Vec2(0, 0), 40.0)
        b = LoiterCircle(Vec2(400, 0), 40.0)
        plans = [plan_transition(0, a, 0.0, b, 11.47, 15.0), plan_transition(1, b, 0.0, a, 11.47, 15.0)]
        assert closest_approach(plans, v=15.0)[0] == pytest.approx(50.14, abs=0.01)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            closest_approach(plans, v=15.0, dt=dt)

    def test_entry_limit(self, monkeypatch):
        # Two loiterers over one 14.66 s period at dt 0.25 s: 60 samples each.
        circle = LoiterCircle(Vec2(0, 0), 35.0)
        loitering = [(circle, 0.0), (circle, math.pi)]
        monkeypatch.setattr(dubins, "MAX_SEPARATION_ENTRIES", 124)
        assert closest_approach([], loitering=loitering, v=15.0)[0] == pytest.approx(70.0)
        monkeypatch.setattr(dubins, "MAX_SEPARATION_ENTRIES", 119)
        with pytest.raises(ValueError, match="exceeds the limit"):
            closest_approach([], loitering=loitering, v=15.0)
        # A timeline that is not finite fails the same check.
        monkeypatch.undo()
        with pytest.raises(ValueError, match="exceeds the limit"):
            closest_approach([], loitering=loitering, v=1e-320)
