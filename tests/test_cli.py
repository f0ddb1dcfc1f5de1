import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from loiterpack import cli, fleet
from loiterpack.cli import main
from loiterpack.errors import PlanningError
from loiterpack.fleet import MAX_PHASE_SAMPLES, apply_recovery
from loiterpack.geometry import AreaSpec, PackingKind, Vec2
from loiterpack.packing import MAX_LAYOUT_CIRCLES, PackingLayout, pack, uav_count

SVG_NS = "{http://www.w3.org/2000/svg}"


def base_config(out_dir, **overrides):
    cfg = {
        "area": {"x_extent_m": 500.0, "y_extent_m": 650.0},
        "r_c_m": 80.0,
        "platform": {"speed_mps": 15.0, "max_bank_rad": 0.5, "gravity_mps2": 9.81},
        "packing": "hexagon",
        "r_l_max_m": 100.0,
        "validation": {"phase_samples": 16},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config_path, *extra):
    return main([command, "--config", config_path, *extra])


def circle_count(svg_path):
    root = ET.parse(svg_path).getroot()
    return len(root.findall(f".//{SVG_NS}circle"))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_layout_csv(path, kind, area):
    """Rebuild a layout from its CSV export (exact float round-trip)."""
    rows = {}
    radius = None
    for rec in read_rows(path):
        rows.setdefault(int(rec["row"]), []).append(Vec2(float(rec["x_m"]), float(rec["y_m"])))
        radius = float(rec["r_l_m"])
    ordered = tuple(tuple(rows[i]) for i in sorted(rows))
    return PackingLayout(kind=kind, loiter_radius=radius, rows=ordered, area=area)


class TestPackCommand:
    def test_hexagon_layout_csv_and_svg(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        assert run("pack", write_config(tmp_path, cfg)) == 0
        rows = read_rows(out / "layout.csv")
        assert len(rows) == 35
        assert list(rows[0]) == ["id", "row", "x_m", "y_m", "r_l_m"]
        assert circle_count(out / "layout.svg") == 35

    def test_square_layout(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0}, packing="square")
        assert run("pack", write_config(tmp_path, cfg)) == 0
        assert len(read_rows(out / "layout.csv")) == 42

    def test_layout_csv_round_trip(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        run("pack", write_config(tmp_path, cfg))
        area = AreaSpec(500.0, 650.0)
        reparsed = read_layout_csv(out / "layout.csv", PackingKind.HEXAGON, area)
        assert reparsed == pack(area, 70.0, PackingKind.HEXAGON)

    def test_empty_area_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0})
        cfg["area"] = {"x_extent_m": 0.0, "y_extent_m": 650.0}
        assert run("pack", write_config(tmp_path, cfg)) == 2

    def test_missing_radius_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"budget_n": 17})
        assert run("pack", write_config(tmp_path, cfg)) == 2

    def test_table1_mode_flag_changes_params(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        path = write_config(tmp_path, cfg)
        run("pack", path, "--table1-mode", "exact")
        exact = read_rows(out / "params.csv")[0]
        run("pack", path, "--table1-mode", "paper")
        paper = read_rows(out / "params.csv")[0]
        assert exact["table_mode"] == "exact" and paper["table_mode"] == "paper"
        assert float(exact["half_overlap_area_m2"]) != float(paper["half_overlap_area_m2"])


class TestOptimizeCommand:
    def test_budget_17(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"budget_n": 17})
        assert run("optimize", write_config(tmp_path, cfg)) == 0
        assert "96.22" in capsys.readouterr().out
        row = read_rows(out / "solution.csv")[0]
        assert float(row["r_l_m"]) == pytest.approx(96.225, abs=0.01)
        assert (row["n_x"], row["n_y"]) == ("3", "5")
        assert row["regime"] == "full-only"

    def test_budget_16_is_infeasible_exit(self, tmp_path, capsys):
        # (budget, config overrides, exit code, stderr). At r_c = 40 m the
        # coverage bound is 54.64 m, under the 100 m cap, so the bound is the
        # cap: deficits are counted there, and a 68.91 m turn radius exceeds
        # it. At r_c = 1e-4 m the cap lies under the 1 mm radius floor.
        r_c_40 = {"r_c_m": 40.0, "platform": None, "r_min_turn_m": 10.0}
        rows = [
            (16, {}, 3, "infeasible: 16 UAVs cannot cover the area; deficit 1"),
            (0, r_c_40, 3, "infeasible: 0 UAVs cannot cover the area; deficit 48"),
            (10, r_c_40, 3, "infeasible: 10 UAVs cannot cover the area; deficit 38"),
            (
                20,
                {"r_c_m": 40.0, "platform": {"speed_mps": 26.0, "max_bank_rad": 1.0}},
                3,
                "infeasible: the minimum turn radius 68.9093 m exceeds the radius cap 54.641 m: "
                "no number of UAVs can cover the area",
            ),
            (
                20,
                {"r_c_m": 1e-4, "platform": None, "r_min_turn_m": 0.0},
                3,
                "infeasible: the radius floor 0.001 m exceeds the radius cap 0.000136603 m: "
                "no number of UAVs can cover the area",
            ),
            (20, {"platform": None, "r_min_turn_m": math.nan}, 2,
             "config error: minimum turn radius must be >= 0, got nan"),
            (20, {"platform": None, "r_min_turn_m": -5.0}, 2,
             "config error: minimum turn radius must be >= 0, got -5.0"),
        ]
        for budget, overrides, code, message in rows:
            cfg = base_config(tmp_path / "out", deployment={"budget_n": budget}, **overrides)
            assert run("optimize", write_config(tmp_path, cfg)) == code
            assert capsys.readouterr().err == f"{message}\n"

    def test_huge_budget_clamps_to_floor(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"budget_n": 10**6})
        cfg["area"] = {"x_extent_m": 1.0, "y_extent_m": 1.0}
        cfg["r_c_m"] = 1.0
        del cfg["r_l_max_m"]
        cfg["r_min_turn_m"] = 0.0
        del cfg["platform"]
        assert run("optimize", write_config(tmp_path, cfg)) == 0
        assert float(read_rows(out / "solution.csv")[0]["r_l_m"]) == pytest.approx(1e-3)


class TestSimulateCommand:
    def test_table2_scenario(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            deployment={"radius_m": 70.0},
            failure={"time_s": 60.0, "seed": 42, "loss_count": 18},
        )
        assert run("simulate", write_config(tmp_path, cfg)) == 0
        events = (out / "events.log").read_text()
        for name in ("deploy", "failure", "detect", "recover", "transition_start", "transition_end"):
            assert name in events
        cov = read_rows(out / "coverage.csv")[0]
        assert float(cov["cycle_fraction"]) == 1.0
        for svg in ("initial.svg", "clusters.svg", "recovered.svg"):
            assert (out / svg).exists()
        assert circle_count(out / "initial.svg") == 35
        assert circle_count(out / "recovered.svg") == 17
        final = read_rows(out / "final_layout.csv")
        assert len(final) == 17
        assert float(final[0]["r_l_m"]) == pytest.approx(96.225, abs=0.01)

    def test_no_failure_steady_state(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        assert run("simulate", write_config(tmp_path, cfg)) == 0
        assert float(read_rows(out / "coverage.csv")[0]["cycle_fraction"]) == 1.0
        assert not (out / "clusters.svg").exists()

    def test_deploy_below_the_turn_radius_is_config_error(self, tmp_path, capsys):
        # The 15 m/s, 0.5 rad platform cannot fly a 10 m loiter circle.
        cfg = base_config(
            tmp_path / "out",
            area={"x_extent_m": 200.0, "y_extent_m": 200.0},
            r_c_m=12.0,
            deployment={"radius_m": 10.0},
        )
        assert run("simulate", write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: the deploy radius 10 m is below the minimum turn radius 11.4679 m\n"
        )

    def test_lose_all_reports_failure(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            deployment={"radius_m": 70.0},
            failure={"time_s": 10.0, "lost_ids": list(range(35))},
        )
        assert run("simulate", write_config(tmp_path, cfg)) == 3
        assert "recover_failed" in (out / "events.log").read_text()

    def test_seed_override_changes_losses(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            deployment={"radius_m": 70.0},
            failure={"time_s": 10.0, "seed": 1, "loss_count": 18},
        )
        path = write_config(tmp_path, cfg)
        run("simulate", path)
        first = (out / "events.log").read_text()
        run("simulate", path, "--seed", "2")
        second = (out / "events.log").read_text()
        assert first != second

    def test_sequential_failure_rounds(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        cfg["failures"] = [
            {"time_s": 30.0, "seed": 5, "loss_count": 10},
            {"time_s": 600.0, "seed": 6, "loss_count": 5},
        ]
        assert run("simulate", write_config(tmp_path, cfg)) == 0
        events = (out / "events.log").read_text()
        assert sum(1 for line in events.splitlines() if ",failure," in line) == 2
        assert sum(1 for line in events.splitlines() if ",recover," in line) == 2
        assert (out / "clusters_round1.svg").exists()
        assert (out / "clusters.svg").exists()
        assert (out / "recovered.svg").exists()
        # Round 1: 25 survivors fit 24 circles (one spare retires); round 2
        # loses 5 of 24, and 19 survivors fit the 17-circle layout.
        assert len(read_rows(out / "final_layout_round1.csv")) == 24
        assert len(read_rows(out / "final_layout.csv")) == 17
        cov = read_rows(out / "coverage.csv")[0]
        assert float(cov["cycle_fraction"]) == 1.0

    def test_both_failure_styles_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0})
        cfg["failure"] = {"time_s": 1.0, "seed": 1, "loss_count": 2}
        cfg["failures"] = [{"time_s": 1.0, "seed": 1, "loss_count": 2}]
        assert run("simulate", write_config(tmp_path, cfg)) == 2

    def test_grid_pitch_and_phase_sample_overrides(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        path = write_config(tmp_path, cfg)
        run("simulate", path, "--grid-pitch", "25.0", "--phase-samples", "12")
        cov = read_rows(out / "coverage.csv")[0]
        assert float(cov["grid_pitch_m"]) == 25.0
        assert cov["phase_samples"] == "12"

    def test_well_formed_svgs(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            deployment={"radius_m": 70.0},
            failure={"time_s": 10.0, "seed": 42, "loss_count": 18},
        )
        run("simulate", write_config(tmp_path, cfg))
        for svg in out.glob("*.svg"):
            ET.parse(svg)  # raises on malformed XML


def no_path(*args, **kwargs):
    raise PlanningError("no path")


def always_breach(monkeypatch):
    """Every separation check finds UAVs 0 and 1 of its list 1.5 m apart."""
    monkeypatch.setattr(fleet, "closest_approach", lambda plans, v, dt: (1.5, 0, 1))


def no_path_in_round_0(monkeypatch):
    monkeypatch.setattr(fleet, "plan_transition", no_path)


def no_path_in_a_stagger_round(monkeypatch):
    plan_transition = fleet.plan_transition

    def no_delayed_path(*args, base_delay, **kwargs):
        if base_delay > 0.0:
            no_path()
        return plan_transition(*args, base_delay=base_delay, **kwargs)

    always_breach(monkeypatch)
    monkeypatch.setattr(fleet, "plan_transition", no_delayed_path)


LOSE_18 = {"time_s": 60.0, "seed": 42, "loss_count": 18}
FAST = {"speed_mps": 45.0, "max_bank_rad": 0.5}
FAILED = ("clusters.svg", "coverage.csv", "events.log", "initial.svg", "initial_layout.csv")
RESTORED = FAILED + ("final_layout.csv", "recovered.svg")

# One row per gate of a single-failure simulate run on the 500 x 650 m area
# at a 70 m deploy unless overridden: (failure, config overrides, patch, exit
# code, stdout, stderr, recover row of events.log, artifacts). None leaves a
# column unpinned.
OUTCOMES = [
    pytest.param(
        {"time_s": 10.0, "lost_ids": list(range(35))}, {}, None, 3, "",
        "infeasible: no survivors\n",
        "39.322,recover_failed,no survivors",
        FAILED,
        id="no-survivors",
    ),
    pytest.param(
        {"time_s": 60.0, "seed": 42, "loss_count": 19}, {}, None, 3, "",
        "infeasible: 16 survivors cannot cover the area; deficit 1\n",
        "60.000,recover_failed,16 survivors cannot cover the area; deficit 1",
        FAILED,
        id="infeasible-radius",
    ),
    # A radius cap above the coverage bound (109.28 m at r_c = 80 m) is
    # clipped to the bound: the 13 survivors' deficit is counted there.
    pytest.param(
        {"time_s": 60.0, "seed": 3, "loss_count": 22}, {"r_l_max_m": 131.0}, None, 3, "",
        "infeasible: 13 survivors cannot cover the area; deficit 1\n",
        "89.322,recover_failed,13 survivors cannot cover the area; deficit 1",
        FAILED,
        id="cap-above-the-coverage-bound",
    ),
    # The 45 m/s platform turns at 103.211 m: it can fly a 105 m deploy (17
    # UAVs, 2 of them lost), but no survivor radius under the 100 m cap.
    pytest.param(
        {"time_s": 60.0, "seed": 42, "loss_count": 2},
        {"platform": FAST, "deployment": {"radius_m": 105.0}}, None, 3, "",
        "infeasible: the minimum turn radius 103.211 m exceeds the radius cap 100 m: "
        "no number of survivors can cover the area\n",
        "60.000,recover_failed,the minimum turn radius 103.211 m exceeds the radius cap 100 m: "
        "no number of survivors can cover the area",
        FAILED,
        id="turn-radius-above-the-cap",
    ),
    # It cannot fly the 70 m deploy: the run stops before its first artifact.
    pytest.param(
        LOSE_18, {"platform": FAST}, None, 2, "",
        "config error: the deploy radius 70 m is below the minimum turn radius 103.211 m\n",
        None,
        (),
        id="deploy-below-the-turn-radius",
    ),
    pytest.param(
        LOSE_18, {}, no_path_in_round_0, 3, "",
        "infeasible: transition planning failed: no path\n",
        "60.000,recover_failed,transition planning failed: no path",
        FAILED,
        id="planning-error-round-0",
    ),
    pytest.param(
        LOSE_18, {}, no_path_in_a_stagger_round, 3, "",
        "infeasible: transition planning failed while staggering: no path\n",
        "60.000,recover_failed,transition planning failed while staggering: no path",
        FAILED,
        id="planning-error-stagger-round",
    ),
    pytest.param(
        LOSE_18, {}, always_breach, 3, "",
        "infeasible: UAVs 0 and 3 come within 1.5 m, under the 2.0 m separation, "
        "after 10 stagger rounds\n",
        "60.000,recover_failed,UAVs 0 and 3 come within 1.5 m, under the 2.0 m separation, "
        "after 10 stagger rounds",
        FAILED,
        id="breach-after-the-last-stagger-round",
    ),
    pytest.param(
        {"time_s": 60.0, "seed": 0, "loss_count": 2}, {}, None, 0,
        "final cycle coverage 1.0000 with 31 UAVs\n",
        "",
        "60.000,recover,r_l_new=72.1688 outcome=persistent-restored restore_s=17.235",
        RESTORED,
        id="persistent-restored",
    ),
    pytest.param(
        LOSE_18, {}, None, 0,
        "final cycle coverage 1.0000 with 17 UAVs\n",
        "",
        "60.000,recover,r_l_new=96.2250 outcome=full-restored restore_s=25.300",
        RESTORED,
        id="full-restored",
    ),
    # Without a radius cap, 14 survivors recover at 108.33 m, past the
    # radius a bounded rectangle can cover: the run logs full-restored,
    # writes cycle coverage 0.9972839506172839 and instant 0.5042469135802469,
    # and exits 0. A coverage gate fails it; its reason is not written yet.
    pytest.param(
        {"time_s": 60.0, "seed": 3, "loss_count": 21}, {"r_l_max_m": None}, None, 3, "",
        None, None, None,
        id="uncovered-final-fleet",
        marks=pytest.mark.xfail(strict=True, reason="coverage does not gate the outcome yet"),
    ),
]


class TestOutcomes:
    @pytest.mark.parametrize("failure, overrides, patch, code, stdout, stderr, row, artifacts", OUTCOMES)
    def test_simulate_outcome(
        self, tmp_path, capsys, monkeypatch, failure, overrides, patch, code, stdout, stderr, row, artifacts
    ):
        plans = []

        def recording(*args, **kwargs):
            plans.append(recover(*args, **kwargs))
            return plans[-1]

        recover = cli.super_agent_recover
        monkeypatch.setattr(cli, "super_agent_recover", recording)
        if patch is not None:
            patch(monkeypatch)
        out = tmp_path / "out"
        cfg = base_config(out, **{"deployment": {"radius_m": 70.0}, "failure": failure, **overrides})
        assert run("simulate", write_config(tmp_path, cfg)) == code
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert len(plans) == (code != 2)  # a config error stops the run before recovery
        if code == 3:  # the one stderr line holds the plan's reason verbatim
            [plan] = plans
            assert captured.err == f"infeasible: {plan.reason}\n"
            assert (plan.deficit is not None) == ("; deficit" in captured.err)
            assert plan.deficit is None or captured.err.endswith(f"; deficit {plan.deficit}\n")
        if stderr is not None:
            assert captured.err == stderr
        if row is not None:
            log = (out / "events.log").read_text().splitlines()
            assert [line for line in log if ",recover" in line] == [row]
        if artifacts:
            manifest = json.loads((out / "manifest.json").read_text())
            assert [entry["file"] for entry in manifest] == sorted(artifacts)
        elif artifacts is not None:  # no artifact, so no manifest either
            assert list(out.iterdir()) == []


class TestSweepCommand:
    def test_five_curves(self, tmp_path):
        out = tmp_path / "out"
        fractions = [round(0.05 * i, 2) for i in range(16)]
        cfg = base_config(
            out,
            sweep={"r_init_m": [50.0, 60.0, 70.0, 80.0, 90.0], "loss_fractions": fractions},
        )
        assert run("sweep", write_config(tmp_path, cfg)) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 5 * len(fractions)
        assert {r["r_init_m"] for r in rows} == {"50.0", "60.0", "70.0", "80.0", "90.0"}
        assert (out / "sweep.svg").exists()
        max_rows = {r["r_init_m"]: float(r["max_recoverable_fraction"]) for r in read_rows(out / "max_recoverable.csv")}
        assert max_rows["50.0"] == pytest.approx(41.0 / 58.0)

    def test_single_zero_fraction(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, sweep={"r_init_m": [70.0], "loss_fractions": [0.0]})
        assert run("sweep", write_config(tmp_path, cfg)) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["r_new_m"]) <= 70.0
        assert float(rows[0]["ideal_r_new_m"]) == 70.0

    def test_no_accepted_fleet_has_no_recoverable_loss(self, tmp_path, capsys):
        # 120 m packs fewer UAVs than the smallest fleet accepted at the 100 m
        # cap; the 45 m/s platform's 103.211 m turn radius, above that cap,
        # accepts no fleet. Under a 70 m cap, losing nothing is the most 35
        # UAVs at 70 m recover.
        rows = [
            ({}, [70.0, 120.0], ["70.0,0.5142857142857142", "120.0,"], ["0.5143", "none"]),
            ({"platform": FAST}, [120.0], ["120.0,"], ["none"]),
            ({"r_l_max_m": 70.0}, [70.0], ["70.0,0.0"], ["0.0000"]),
        ]
        out = tmp_path / "out"
        for overrides, r_inits, csv_rows, printed in rows:
            cfg = base_config(out, sweep={"r_init_m": r_inits, "loss_fractions": [0.0]}, **overrides)
            assert run("sweep", write_config(tmp_path, cfg)) == 0
            assert (out / "max_recoverable.csv").read_text().splitlines()[1:] == csv_rows
            expected = [f"r_init={r:g} m: max recoverable loss {p}" for r, p in zip(r_inits, printed)]
            assert capsys.readouterr().out.splitlines() == expected

    def test_missing_lists_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        assert run("sweep", write_config(tmp_path, cfg)) == 2

    def test_r_init_below_the_turn_radius_is_config_error(self, tmp_path, capsys):
        # deploy's rule: the 45 m/s, 0.5 rad platform cannot fly a 70 m loiter
        # circle, so no loss of that fleet is recoverable; nothing is written.
        out = tmp_path / "out"
        sweep = {"r_init_m": [120.0, 70.0], "loss_fractions": [0.0, 0.5]}
        cfg = base_config(out, platform=FAST, r_l_max_m=None, sweep=sweep)
        assert run("sweep", write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == (
            "config error: the deploy radius 70 m is below the minimum turn radius 103.211 m\n"
        )
        assert list(out.iterdir()) == []


class TestPathCommand:
    def test_identical_circles(self, tmp_path):
        out = tmp_path / "out"
        circle = {"x_m": 0.0, "y_m": 0.0, "radius_m": 60.0}
        cfg = base_config(out, path={"source": circle, "target": dict(circle)})
        assert run("path", write_config(tmp_path, cfg)) == 0
        rows = read_rows(out / "path.csv")
        assert len(rows) >= 1

    def test_offset_circles(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            path={
                "source": {"x_m": 0.0, "y_m": 0.0, "radius_m": 70.0},
                "target": {"x_m": 260.0, "y_m": 140.0, "radius_m": 96.0},
            },
        )
        assert run("path", write_config(tmp_path, cfg)) == 0
        rows = read_rows(out / "path.csv")
        assert list(rows[0]) == ["uav_id", "t_s", "x_m", "y_m", "heading_rad"]
        assert len(rows) > 10
        svg = (out / "path.svg").read_text()
        assert svg.count("<circle") == 2  # source and target loiter circles
        assert "<rect" in svg and "<polyline" in svg

    def test_target_too_tight_is_planning_error(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
            path={
                "source": {"x_m": 0.0, "y_m": 0.0, "radius_m": 70.0},
                "target": {"x_m": 200.0, "y_m": 0.0, "radius_m": 5.0},
            },
        )
        assert run("path", write_config(tmp_path, cfg)) == 4

    def test_crawling_speed_exits_2_before_sampling(self, tmp_path, capsys):
        # 1e-4 m/s takes 1.9e6 s over this transition: 1.9e7 samples at 0.1 s.
        cfg = base_config(
            tmp_path / "out",
            platform={"speed_mps": 1e-4, "max_bank_rad": 0.5},
            path={
                "source": {"x_m": 0.0, "y_m": 0.0, "radius_m": 50.0},
                "target": {"x_m": 300.0, "y_m": 0.0, "radius_m": 60.0},
            },
        )
        assert run("path", write_config(tmp_path, cfg)) == 2
        assert f"over {cli.MAX_PATH_SAMPLES} samples" in capsys.readouterr().err
        assert not (tmp_path / "out" / "path.csv").exists()


class TestManifest:
    def test_hashes_are_stable_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = base_config(
            out1,
            deployment={"radius_m": 70.0},
            failure={"time_s": 60.0, "seed": 42, "loss_count": 18},
        )
        path = write_config(tmp_path, cfg)
        run("simulate", path)
        run("simulate", path, "--out", str(out2))
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1 == m2
        assert all(set(entry) == {"file", "sha256"} for entry in m1)

    def test_manifest_covers_written_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0})
        run("pack", write_config(tmp_path, cfg))
        manifest = {e["file"] for e in json.loads((out / "manifest.json").read_text())}
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert manifest == on_disk


class TestConfigValidation:
    def test_both_radius_and_budget_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0, "budget_n": 17})
        assert run("pack", write_config(tmp_path, cfg)) == 2

    def test_both_sensor_and_rc_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0})
        cfg["sensor"] = {"fov_half_angle_rad": 0.6, "altitude_m": 120.0}
        assert run("pack", write_config(tmp_path, cfg)) == 2

    def test_sensor_derived_coverage_radius(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"budget_n": 17})
        del cfg["r_c_m"]
        # altitude * tan(theta) = 80 m
        cfg["sensor"] = {"fov_half_angle_rad": math.atan(0.8), "altitude_m": 100.0}
        assert run("optimize", write_config(tmp_path, cfg)) == 0
        assert "96.22" in capsys.readouterr().out

    def test_missing_coverage_source_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"budget_n": 17})
        del cfg["r_c_m"]
        assert run("optimize", write_config(tmp_path, cfg)) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["pack", "--config", str(tmp_path / "missing.json")]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pack", "--config", str(bad)]) == 2


def every_section_config(out_dir, **overrides):
    """A config that fills every section, each read by some command."""
    cfg = base_config(
        out_dir,
        deployment={"radius_m": 70.0},
        failures=[{"time_s": 60.0, "seed": 0, "loss_count": 18}],
        validation={"grid_pitch_m": 20.0, "phase_samples": 8},
        sweep={"r_init_m": [70.0], "loss_fractions": [0.1]},
        path={
            "source": {"x_m": 0.0, "y_m": 0.0, "radius_m": 70.0},
            "target": {"x_m": 300.0, "y_m": 200.0, "radius_m": 70.0},
        },
    )
    cfg.update(overrides)
    return cfg


# (section, the command that reads it, exit code with the section null)
SECTIONS = [
    ("area", "pack", 2),
    ("sensor", "pack", 0),
    ("platform", "simulate", 2),
    ("deployment", "pack", 2),
    ("failure", "simulate", 0),
    ("failures", "simulate", 0),
    ("validation", "simulate", 0),
    ("sweep", "sweep", 2),
    ("path", "path", 2),
]


class TestConfigSections:
    @pytest.mark.parametrize("section, command, code", SECTIONS)
    def test_null_section_counts_as_absent(self, tmp_path, capsys, section, command, code):
        cfg = every_section_config(tmp_path / "out")
        cfg[section] = None
        assert run(command, write_config(tmp_path, cfg)) == code
        err = capsys.readouterr().err
        assert "NoneType" not in err
        assert code == 0 or err.startswith("config error:")

    @pytest.mark.parametrize("section, command, _", SECTIONS)
    def test_non_object_section_is_config_error(self, tmp_path, capsys, section, command, _):
        cfg = every_section_config(tmp_path / "out")
        cfg[section] = "x"
        assert run(command, write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(section) in err

    def test_null_top_level_keys_take_their_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        keys = ("packing", "table1_mode", "min_turn_formula", "output_dir", "r_min_turn_m")
        cfg = every_section_config(None, **dict.fromkeys(keys))
        assert run("pack", write_config(tmp_path, cfg)) == 0
        assert (tmp_path / "out" / "manifest.json").is_file()

    @pytest.mark.parametrize(
        "overrides, key, place",
        [
            ({"r_l_max": 100}, "r_l_max", "the config root"),
            ({"validaton": {"grid_pitch_m": 20.0}}, "validaton", "the config root"),
            ({"area": {"x_extent_m": 500.0, "y_extent": 650.0}}, "y_extent", "section 'area'"),
            (
                {"failures": [{"time_s": 60.0, "seed": 0, "loss_count": 18, "sed": 1}]},
                "sed",
                "section 'failures[0]'",
            ),
            (
                {"path": {"source": {"x_m": 0.0, "y_m": 0.0, "r_m": 70.0}, "target": None}},
                "r_m",
                "section 'path.source'",
            ),
            ({"r_l_max": 100.0}, "r_l_max", "the config root"),
            ({"turn_radius_m": 40.0}, "turn_radius_m", "the config root"),  # a deleted key
        ],
    )
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, overrides, key, place):
        cfg = every_section_config(tmp_path / "out", **overrides)
        assert run("pack", write_config(tmp_path, cfg)) == 2
        assert capsys.readouterr().err == f"config error: unknown config key {key!r} in {place}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("simulate", {"failures": [{"time_s": 60.0, "seed": 2.7, "loss_count": 18}]}, "seed"),
            ("simulate", {"failures": [{"time_s": 60.0, "seed": 0, "loss_count": 3.9}]}, "loss_count"),
            ("simulate", {"failures": [{"time_s": 60.0, "seed": True, "loss_count": 18}]}, "seed"),
            ("simulate", {"deployment": {"budget_n": 35.9}}, "budget_n"),
            ("simulate", {"validation": {"phase_samples": 8.6}}, "phase_samples"),
            ("simulate", {"failures": [{"time_s": 60.0, "lost_ids": "12"}]}, "lost_ids"),
            ("simulate", {"failures": [{"time_s": 60.0, "lost_ids": [1.5, 2]}]}, "lost_ids"),
            ("simulate", {"failures": [{"time_s": 60.0, "lost_ids": [True]}]}, "lost_ids"),
            ("sweep", {"sweep": {"r_init_m": "57", "loss_fractions": [0.1]}}, "r_init_m"),
            ("optimize", {"r_c_m": True, "deployment": {"budget_n": 17}}, "r_c_m"),
            ("pack", {"r_c_m": "80"}, "r_c_m"),
            ("pack", {"r_c_m": 10**400}, "r_c_m"),
        ],
    )
    def test_values_of_the_wrong_type_exit_2_naming_the_key(
        self, tmp_path, capsys, command, overrides, key
    ):
        # Numbers are JSON numbers (no bools, no strings), integers are
        # integral and lists are JSON arrays: nothing is truncated or
        # iterated into another value.
        cfg = every_section_config(tmp_path / "out", **overrides)
        assert run(command, write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_oversized_grid_is_config_error(self, tmp_path, capsys):
        cfg = every_section_config(tmp_path / "out", validation={"grid_pitch_m": 1e-6})
        assert run("simulate", write_config(tmp_path, cfg)) == 2
        assert "exceeds the limit" in capsys.readouterr().err


class TestSimulateChecksFirst:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"validation": {"grid_pitch_m": 1e-6}}, "exceeds the limit"),
            ({"validation": {"phase_samples": 4}}, "phase_samples must be >= 8"),
            ({"r_c_m": -5.0}, "coverage radius must be positive"),
            ({"validation": {"phase_samples": 10**9}}, f"phase_samples must be <= {MAX_PHASE_SAMPLES}"),
        ],
    )
    def test_bad_coverage_inputs_exit_2_before_any_artifact(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            deployment={"radius_m": 70.0},
            failure={"time_s": 60.0, "seed": 42, "loss_count": 18},
            **overrides,
        )
        assert run("simulate", write_config(tmp_path, cfg)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"failure": {"time_s": "nan", "seed": 1, "loss_count": 2}}, "failure: 'time_s'"),
            ({"failure": {"time_s": -5, "seed": 1, "loss_count": 2}}, "failure: 'time_s'"),
            (
                {
                    "failures": [
                        {"time_s": 60.0, "seed": 1, "loss_count": 5},
                        {"time_s": 30.0, "seed": 2, "loss_count": 5},
                    ]
                },
                "failures[1]: 'time_s' 30.0 must be later than failures[0]",
            ),
            ({"failure": {"time_s": 10.0, "seed": -1, "loss_count": 2}}, "failure: 'seed' must be >= 0"),
        ],
    )
    def test_bad_failure_entries_exit_2_naming_the_entry(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "out"
        cfg = base_config(out, deployment={"radius_m": 70.0}, **overrides)
        assert run("simulate", write_config(tmp_path, cfg)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path / "out",
            deployment={"radius_m": 70.0},
            failure={"time_s": 10.0, "seed": 1, "loss_count": 2},
        )
        assert run("simulate", write_config(tmp_path, cfg), "--seed", "-3") == 2
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err

    def test_min_turn_formula_error_names_the_value(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0}, min_turn_formula="steep")
        assert run("pack", write_config(tmp_path, cfg)) == 2
        assert "got 'steep'" in capsys.readouterr().err


class TestCrawlingSpeed:
    def test_separation_check_over_the_limit_exits_2(self, tmp_path, capsys):
        # At 1e-5 m/s one loiter period is 3.8e7 s: the separation check of
        # the 10 survivors would need 1.5e9 (UAV, sample) entries.
        cfg = base_config(
            tmp_path / "out",
            area={"x_extent_m": 300.0, "y_extent_m": 300.0},
            platform={"speed_mps": 1e-5, "max_bank_rad": 0.5},
            deployment={"radius_m": 60.0},
            failure={"time_s": 10.0, "seed": 1, "loss_count": 3},
            validation={"grid_pitch_m": 10.0, "phase_samples": 8},
        )
        assert run("simulate", write_config(tmp_path, cfg)) == 2
        assert "(UAV, sample) entries" in capsys.readouterr().err
        # The artifacts written before the error are listed in the manifest.
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert {entry["file"] for entry in manifest} == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert "initial.svg" in {entry["file"] for entry in manifest}


class TestScenarioClock:
    # Losing these ids cuts the base off, so detection waits one loiter
    # period (10 s + 29.322 s) and the last transition ends at 68.632 s.
    FIRST = {"time_s": 10.0, "lost_ids": [0, 2, 4, 10, 12, 14, 20, 22, 24, 30, 32, 34]}

    def config(self, tmp_path, second_time):
        second = {"time_s": second_time, "seed": 1, "loss_count": 2}
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0}, failures=[self.FIRST, second])
        return write_config(tmp_path, cfg)

    def test_failure_inside_a_recovery_exits_2(self, tmp_path, capsys):
        assert run("simulate", self.config(tmp_path, 60.0)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: failures[1]: 'time_s' 60.0")
        assert "ends at 68.632 s" in err
        # The first round's artifacts stay, each listed in the manifest.
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert "recovered_round1.svg" in written
        assert [m["file"] for m in manifest] == written
        for m in manifest:
            assert hashlib.sha256((out / m["file"]).read_bytes()).hexdigest() == m["sha256"]

    def test_state_clock_matches_the_log(self, tmp_path, monkeypatch):
        times = []

        def recording(state, plan):
            recovered = apply_recovery(state, plan)
            times.append(recovered.time)
            return recovered

        monkeypatch.setattr(cli, "apply_recovery", recording)
        assert run("simulate", self.config(tmp_path, 500.0)) == 0
        rows = read_rows(tmp_path / "out" / "events.log")
        detect = [r["t_s"] for r in rows if r["event"] == "detect"]
        ends = [float(r["t_s"]) for r in rows if r["event"] == "transition_end"]
        assert detect == ["39.322", "500.000"]
        assert f"{max(t for t in ends if t < 500.0):.3f}" == f"{times[0]:.3f}" == "68.632"


class TestLayoutLimit:
    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("pack", {"deployment": {"radius_m": 1e-6}}),
            # A 1 m/s platform turns at 5 cm, which leaves the radius unbounded.
            (
                "simulate",
                {"deployment": {"budget_n": 10**12}, "platform": {"speed_mps": 1.0, "max_bank_rad": 0.5}},
            ),
            # No turn radius either: a 1 um loiter circle is flyable.
            (
                "sweep",
                {"sweep": {"r_init_m": [1e-6], "loss_fractions": [0.0]}, "platform": None, "r_min_turn_m": 0.0},
            ),
            # No turn radius: the optimum lies below the smallest placeable radius.
            (
                "optimize",
                {"deployment": {"budget_n": 10**12}, "platform": None, "r_min_turn_m": 0.0},
            ),
        ],
    )
    def test_oversized_layout_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = base_config(tmp_path / "out", **overrides)
        assert run(command, write_config(tmp_path, cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"over the limit of {MAX_LAYOUT_CIRCLES}" in err


class TestCommandFlags:
    @pytest.mark.parametrize(
        "command, flag", [("pack", ("--seed", "3")), ("optimize", ("--phase-samples", "12"))]
    )
    def test_flag_of_another_command_exits_2(self, tmp_path, command, flag):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0})
        with pytest.raises(SystemExit) as exc:
            run(command, write_config(tmp_path, cfg), *flag)
        assert exc.value.code == 2


class TestImport:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # Only the survivor assignment needs scipy, and the import of
        # scipy.optimize alone costs more than most commands.
        out = self.run_python("import sys, loiterpack.cli; print('scipy.optimize' in sys.modules)")
        assert out.strip() == "False"

    def test_a_recovery_loads_only_the_assignment_module(self, tmp_path):
        # The survivor assignment loads scipy's solver module alone, so a
        # whole simulate run with a recovery loads no other scipy module.
        cfg = base_config(
            tmp_path / "out",
            deployment={"radius_m": 70.0},
            failure={"time_s": 60.0, "seed": 42, "loss_count": 18},
            validation={"grid_pitch_m": 20.0, "phase_samples": 8},
        )
        code = (
            "import sys; from loiterpack.cli import main; "
            f"assert main(['simulate', '--config', {write_config(tmp_path, cfg)!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert self.run_python(code).strip().splitlines()[-1] == "['scipy.optimize._lsap']"

    @staticmethod
    def run_python(code):
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout


def readme_scenario():
    """The scenario config block of the README, parsed."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Scenario config", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


def schema_paths(schema, prefix=""):
    """Every key path of a config schema, items of an array of sections
    written ``key[].item``."""
    for key, (kind, _) in schema.items():
        yield prefix + key
        if isinstance(kind, list):
            kind, key = kind[0], key + "[]"
        if isinstance(kind, dict):
            yield from schema_paths(kind, f"{prefix}{key}.")


class TestReadmeConfig:
    def test_key_table_lists_the_schema(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = text.split("### Scenario config", 1)[1].split("| Key path |", 1)[1].split("\n\n", 1)[0]
        paths = [line.split("`")[1] for line in rows.splitlines() if line.startswith("| `")]
        assert paths == list(schema_paths(cli._SCHEMA))

    @pytest.mark.parametrize("command", ["pack", "sweep", "path"])
    def test_commands_run(self, tmp_path, command):
        path = write_config(tmp_path, readme_scenario())
        assert run(command, path, "--out", str(tmp_path / "out")) == 0

    def test_optimize_needs_a_budget(self, tmp_path, capsys):
        path = write_config(tmp_path, readme_scenario())
        assert run("optimize", path, "--out", str(tmp_path / "out")) == 2
        assert "needs deployment.budget_n" in capsys.readouterr().err

    def test_simulate_takes_the_default_for_a_null_grid_pitch(self, tmp_path):
        cfg = readme_scenario()
        assert cfg["validation"]["grid_pitch_m"] is None
        out = tmp_path / "out"
        assert run("simulate", write_config(tmp_path, cfg), "--out", str(out)) == 0
        assert float(read_rows(out / "coverage.csv")[0]["grid_pitch_m"]) == cfg["r_c_m"] / 20.0


def random_config(rng, command, out_dir):
    """A scenario for ``command`` on a small area whose fields are each
    valid most of the time and otherwise malformed, out of range or extreme
    (crawling speeds, huge budgets, tiny radii that the layout limit
    rejects). Valid radii stay at 30 m and up, so no layout is large."""

    def maybe(valid, bad, p_bad=0.05):
        return rng.choice(bad) if rng.random() < p_bad else valid()

    def num(lo, hi):
        return lambda: round(rng.uniform(lo, hi), 3)

    bad_num = [0, -1.0, 1e-9, "x", None, [], {}, math.nan, math.inf, True]
    cfg = {
        "area": maybe(
            lambda: {"x_extent_m": num(60, 250)(), "y_extent_m": num(60, 250)()},
            [None, [], {"x_extent_m": 100.0}, {"x_extent_m": 100.0, "y_extent_m": -1.0}],
            0.03,
        ),
        "output_dir": str(out_dir),
    }
    if rng.random() < 0.9:
        cfg["packing"] = maybe(lambda: rng.choice(["hexagon", "square"]), ["circle", 3])
    if rng.random() < 0.1:
        cfg["sensor"] = maybe(
            lambda: {"fov_half_angle_rad": num(0.4, 1.2)(), "altitude_m": num(40, 120)()},
            [{}, {"fov_half_angle_rad": 2.0, "altitude_m": 50.0}, 5],
        )
    if "sensor" not in cfg or rng.random() < 0.05:
        cfg["r_c_m"] = maybe(num(40, 120), bad_num + [1e-6])
    if rng.random() < 0.9:
        cfg["platform"] = maybe(
            lambda: {"speed_mps": num(8, 30)(), "max_bank_rad": num(0.2, 0.9)()},
            [
                {"speed_mps": speed, "max_bank_rad": 0.5}
                for speed in (0.0, -3.0, 1e-4, 1e-300, 1e9, math.inf)
            ]
            + [{"speed_mps": 15.0, "max_bank_rad": 2.0}, {"speed_mps": 15.0}, "fast"],
            0.1,
        )
    elif rng.random() < 0.5:
        cfg["r_min_turn_m"] = maybe(num(0, 20), bad_num)
    want = {"pack": "radius_m", "optimize": "budget_n"}.get(command)
    if rng.random() < 0.9:
        radius = {"radius_m": num(30, 110)()}
        budget = {"budget_n": rng.randint(1, 60)}
        choice = {"radius_m": radius, "budget_n": budget}.get(want) or rng.choice([radius, budget])
        cfg["deployment"] = maybe(
            lambda: choice,
            [{}, {"radius_m": 50.0, "budget_n": 4}, {"radius_m": 1e-9}, {"radius_m": -2.0},
             {"budget_n": -3}, {"budget_n": 10**9}, {"budget_n": "x"}],
            0.1,
        )
    if rng.random() < 0.5:
        cfg["r_l_max_m"] = maybe(num(40, 160), bad_num)

    def event(time_s):
        if rng.random() < 0.3:
            ids = maybe(lambda: sorted(rng.sample(range(12), rng.randint(0, 5))), [[-1], ["a"], 5, [10**6]])
            return {"time_s": time_s, "lost_ids": ids}
        seed = maybe(lambda: rng.randint(0, 99), [-1, "s", 2.5])
        return {"time_s": time_s, "seed": seed, "loss_count": maybe(lambda: rng.randint(0, 12), [-1, 10**6, "x"])}

    r = rng.random()
    if r < 0.4:
        cfg["failure"] = event(maybe(num(0, 120), [-5.0, math.nan, "t", None]))
    elif r < 0.65:
        times = sorted(round(rng.uniform(0, 200), 2) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.15:
            times.reverse()
        cfg["failures"] = [event(t) for t in times]
    if rng.random() < 0.6:
        cfg["validation"] = {
            "grid_pitch_m": maybe(num(5, 15), [0, -1.0, 1e-7, "g", math.nan]),
            "phase_samples": maybe(lambda: rng.randint(8, 24), [0, 7, -3, "p", 10**9]),
        }
    if rng.random() < (0.9 if command == "sweep" else 0.2):
        cfg["sweep"] = maybe(
            lambda: {
                "r_init_m": [num(40, 110)() for _ in range(rng.randint(1, 2))],
                "loss_fractions": [num(0, 0.9)() for _ in range(rng.randint(1, 3))],
            },
            [{"r_init_m": [], "loss_fractions": [0.2]}, {"r_init_m": [60.0], "loss_fractions": [1.5]},
             {"r_init_m": [60.0], "loss_fractions": [-0.2]}, {"r_init_m": "a"},
             {"r_init_m": [0.0], "loss_fractions": [0.2]}],
        )
    if rng.random() < (0.9 if command == "path" else 0.2):
        def circle():
            return {"x_m": num(-200, 200)(), "y_m": num(-200, 200)(), "radius_m": num(20, 120)()}

        cfg["path"] = maybe(
            lambda: {"source": circle(), "target": circle()},
            [{"source": circle()}, {"source": {"x_m": 0, "y_m": 0, "radius_m": 0}, "target": circle()},
             {"source": 3, "target": circle()}],
        )
    if rng.random() < 0.2:  # the value of a deleted key, drawn so later draws stay the same
        maybe(num(2, 40), bad_num)
    if rng.random() < 0.1:
        cfg["table1_mode"] = rng.choice(["exact", "paper", "other"])
    if rng.random() < 0.1:
        cfg["min_turn_formula"] = rng.choice(["paper", "standard", "other"])
    return cfg


def misspell(rng, cfg):
    """Renames one key of the config or of one of its sections, nested ones
    and list items included, by doubling one of its characters (no config
    key is another doubled), and returns the new key."""
    sections = [cfg]
    for section in sections:  # breadth first: the list grows as it is read
        for value in section.values():
            items = value if isinstance(value, list) else [value]
            sections += [item for item in items if isinstance(item, dict) and item]
    section = rng.choice(sections)
    key = rng.choice(sorted(section))
    k = rng.randrange(len(key))
    typo = key[:k] + key[k] + key[k:]
    section[typo] = section.pop(key)
    return typo


def random_flags(rng, command, cfg):
    flags = []
    if command == "simulate":
        if ("failure" in cfg or "failures" in cfg) and rng.random() < 0.2:
            flags += ["--seed", str(rng.choice([0, 3, 17, -1]))]
        if rng.random() < 0.2:
            flags += ["--grid-pitch", str(rng.choice([6.0, 9.5, 0.0, -2.0]))]
        if rng.random() < 0.2:
            flags += ["--phase-samples", str(rng.choice([8, 12, 4, 0]))]
    if command == "pack" and rng.random() < 0.2:
        flags += ["--table1-mode", rng.choice(["paper", "exact"])]
    return flags


class TestRandomConfigs:
    """Seeded random scenarios for every command: each exits with a
    documented code (0 ok, 2 config, 3 infeasible, 4 planning) and a
    message, never a traceback."""

    @pytest.mark.parametrize("command", ["pack", "optimize", "simulate", "sweep", "path"])
    def test_exit_codes(self, tmp_path, capsys, command):
        import random

        codes = []
        for seed in range(RANDOM_CONFIGS):
            rng = random.Random(f"{command}-{seed}")
            out_dir = tmp_path / str(seed)
            cfg = random_config(rng, command, out_dir)
            # A tenth of the configs misspell one key, drawn apart from the rest.
            typo_rng = random.Random(f"{command}-{seed}-typo")
            typo = misspell(typo_rng, cfg) if typo_rng.random() < 0.1 else None
            path = write_config(tmp_path, cfg, f"{seed}.json")
            try:
                code = main([command, "--config", path, *random_flags(rng, command, cfg)])
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
            out, err = capsys.readouterr()
            assert code in (0, 2, 3, 4), (seed, cfg)
            assert "Traceback" not in err, (seed, cfg)
            # A failure says why in one line on stderr and prints nothing on
            # stdout (no "infeasible" or "recovery failed" line there).
            if code != 0:
                assert err.count("\n") == 1 and err.endswith("\n"), (seed, cfg, err)
                assert out == "", (seed, cfg, out)
            if typo is not None:
                assert code == 2 and f"unknown config key {typo!r}" in err, (seed, cfg)
            # Whatever the exit, every written artifact is in the manifest.
            written = {p.name for p in out_dir.iterdir()} if out_dir.exists() else set()
            if code == 0 or written:
                manifest = json.loads((out_dir / "manifest.json").read_text())
                assert {entry["file"] for entry in manifest} == written - {"manifest.json"}
            # A sweep row is infeasible exactly when it has no radius, and
            # exactly when it loses more than the largest recoverable loss.
            if command == "sweep" and code == 0:
                scenario = cli.load_config(path)
                max_rows = read_rows(out_dir / "max_recoverable.csv")
                max_rec = {r["r_init_m"]: r["max_recoverable_fraction"] for r in max_rows}
                for row in read_rows(out_dir / "sweep.csv"):
                    n = uav_count(scenario.area, float(row["r_init_m"]), scenario.kind)
                    lost = n - int(row["survivors"])
                    infeasible = row["regime"] == "infeasible"
                    assert infeasible == (row["r_new_m"] == ""), (seed, row)
                    # A blank fraction: no fleet of this size is accepted.
                    frac = max_rec[row["r_init_m"]]
                    recoverable = frac != "" and lost <= round(float(frac) * n)
                    assert infeasible == (not recoverable), (seed, row)
            codes.append(code)
        # A good share of the scenarios gets past the config checks.
        assert codes.count(0) + codes.count(3) + codes.count(4) >= RANDOM_CONFIGS // 4, codes
        # Every draw keeps its exit code; a deliberate change edits EXIT_CODES.
        pinned = [int(c) for c in EXIT_CODES[command]]
        changed = [(seed, old, new) for seed, (old, new) in enumerate(zip(pinned, codes)) if old != new]
        assert len(codes) == len(pinned) and not changed, f"(seed, old, new): {changed}"


RANDOM_CONFIGS = 100
# The exit code of each draw of TestRandomConfigs, in seed order.
EXIT_CODES = {
    "pack": "0220000220000020000000220220222022222000020022020200202002000222022202000202022000000220000200200002",
    "optimize": "2222000302000002202000002000200222222020200230200202200002200222223202030200222232200200202022222002",
    "simulate": "0220222222220222202022202200222222000220222223022322220300220020222200202222202220202020202222220022",
    "sweep": "2000222002000002022220202220202220000220000222200022200002022220002202200000202022200002200222020220",
    "path": "2222422222022422222220200022222200222022220200242002222220202022002222200020002202002220202022202004",
}
