import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from loiterpack.cli import main
from loiterpack.geometry import AreaSpec, PackingKind, Vec2
from loiterpack.packing import PackingLayout, pack

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

    def test_budget_16_is_infeasible_exit(self, tmp_path):
        cfg = base_config(tmp_path / "out", deployment={"budget_n": 16})
        assert run("optimize", write_config(tmp_path, cfg)) == 3

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

    def test_missing_lists_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        assert run("sweep", write_config(tmp_path, cfg)) == 2


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

    def test_min_turn_formula_error_names_the_value(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", deployment={"radius_m": 70.0}, min_turn_formula="steep")
        assert run("pack", write_config(tmp_path, cfg)) == 2
        assert "got 'steep'" in capsys.readouterr().err


class TestImport:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # Only the survivor assignment needs scipy.optimize, and its import
        # alone costs more than most commands.
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        code = "import sys, loiterpack.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


def readme_scenario():
    """The scenario config block of the README, parsed."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Scenario config", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


class TestReadmeConfig:
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
