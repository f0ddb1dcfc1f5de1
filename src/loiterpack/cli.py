"""Scenario-driven command line front end.

Subcommands: ``pack``, ``optimize``, ``simulate``, ``sweep`` and ``path``.
Scenarios are JSON files (all lengths in meters, angles in radians, times in
seconds); every run writes its artifacts plus a ``manifest.json`` listing
file names and content hashes.

Exit codes: 0 success, 2 config error, 3 infeasible or recovery failed,
4 planning error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dubins import plan_transition, track
from .errors import ConfigError, InfeasibleError, PlanningError
from .fleet import (
    FailureEvent,
    RecoveryOutcome,
    apply_recovery,
    check_coverage_inputs,
    coverage_report,
    deploy,
    detect_failures,
    inject_failure,
    loss_sweep,
    step,
    super_agent_recover,
)
from .geometry import (
    AreaSpec,
    LoiterCircle,
    PackingKind,
    PlatformModel,
    SensorModel,
    Vec2,
    coverage_radius,
    max_loiter_radius,
    min_turn_radius,
    packing_params,
)
from .optimize import FleetBudget, Regime, solve_radius
from .packing import PackingLayout, pack
from .render import render_fleet, render_sweep, render_transition

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_PLANNING = 4


@dataclass
class ScenarioConfig:
    area: AreaSpec
    kind: PackingKind
    r_c: float | None = None
    sensor: SensorModel | None = None
    platform: PlatformModel | None = None
    r_min_turn: float | None = None
    deploy_radius: float | None = None
    deploy_budget: int | None = None
    r_l_max: float | None = None
    failures: tuple[FailureEvent, ...] = ()
    grid_pitch: float | None = None
    phase_samples: int = 36
    sweep_r_inits: tuple[float, ...] = ()
    sweep_fractions: tuple[float, ...] = ()
    path_source: LoiterCircle | None = None
    path_target: LoiterCircle | None = None
    turn_radius: float | None = None
    min_turn_formula: str = "paper"
    table1_mode: str = "exact"
    out_dir: str = "out"

    def coverage_radius(self) -> float:
        if self.r_c is not None:
            return self.r_c
        if self.sensor is None:
            raise ConfigError("this command needs either 'sensor' or 'r_c_m'")
        return coverage_radius(self.sensor)

    def min_turn(self) -> float:
        if self.r_min_turn is not None:
            return self.r_min_turn
        if self.platform is not None:
            return min_turn_radius(self.platform, self.min_turn_formula)
        return 0.0

    def radius_cap(self) -> float:
        if self.r_l_max is not None:
            return self.r_l_max
        return max_loiter_radius(self.coverage_radius(), self.kind)

    def effective_grid_pitch(self) -> float:
        return self.grid_pitch if self.grid_pitch is not None else self.coverage_radius() / 20.0

    def require_platform(self) -> PlatformModel:
        if self.platform is None:
            raise ConfigError("this command needs a 'platform' section (speed is required)")
        return self.platform


def _get(d: dict, key: str, kind=float, required: bool = True, default=None):
    """Typed config value; a JSON null counts as an absent key."""
    if key not in d or d[key] is None:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return kind(d[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {d[key]!r}") from exc


def _section(d: dict, name: str) -> dict | None:
    """Config object section; a JSON null counts as an absent section."""
    value = d.get(name)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {value!r}")
    return value


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        area_d = _section(raw, "area")
        if area_d is None:
            raise ConfigError("config needs an 'area' object")
        area = AreaSpec(_get(area_d, "x_extent_m"), _get(area_d, "y_extent_m"))

        kind_s = _get(raw, "packing", kind=str, required=False, default="hexagon")
        try:
            kind = PackingKind(kind_s)
        except ValueError:
            raise ConfigError(f"packing must be 'square' or 'hexagon', got {kind_s!r}")

        sensor = None
        s = _section(raw, "sensor")
        r_c = _get(raw, "r_c_m", required=False)
        if s is not None and r_c is not None:
            raise ConfigError("specify exactly one of 'sensor' or 'r_c_m'")
        if s is not None:
            sensor = SensorModel(_get(s, "fov_half_angle_rad"), _get(s, "altitude_m"))

        platform = None
        p = _section(raw, "platform")
        r_min_turn = _get(raw, "r_min_turn_m", required=False)
        if p is not None:
            if r_min_turn is not None:
                raise ConfigError("specify at most one of 'platform' or 'r_min_turn_m'")
            platform = PlatformModel(
                speed=_get(p, "speed_mps"),
                max_bank=_get(p, "max_bank_rad"),
                gravity=_get(p, "gravity_mps2", required=False, default=9.81),
            )

        deploy_radius = None
        deploy_budget = None
        dep = _section(raw, "deployment")
        if dep is not None:
            deploy_radius = _get(dep, "radius_m", required=False)
            deploy_budget = _get(dep, "budget_n", kind=int, required=False)
            if (deploy_radius is None) == (deploy_budget is None):
                raise ConfigError("deployment needs exactly one of 'radius_m' or 'budget_n'")

        def parse_event(f: dict) -> FailureEvent:
            time_s = _get(f, "time_s", required=False, default=0.0)
            if f.get("lost_ids") is not None:
                return FailureEvent(time=time_s, lost_ids=frozenset(int(i) for i in f["lost_ids"]))
            return FailureEvent(
                time=time_s,
                seed=_get(f, "seed", kind=int),
                loss_count=_get(f, "loss_count", kind=int),
            )

        failure = _section(raw, "failure")
        events = raw.get("failures")
        if failure is not None and events is not None:
            raise ConfigError("specify either 'failure' or 'failures', not both")
        events = [failure] if failure is not None else events or []
        if not isinstance(events, list) or not all(isinstance(f, dict) for f in events):
            raise ConfigError(f"'failures' must be a list of JSON objects, got {events!r}")
        failures = tuple(parse_event(f) for f in events)

        validation = _section(raw, "validation") or {}
        grid_pitch = _get(validation, "grid_pitch_m", required=False)
        phase_samples = _get(validation, "phase_samples", kind=int, required=False, default=36)

        sweep = _section(raw, "sweep") or {}
        sweep_r_inits = tuple(float(r) for r in sweep.get("r_init_m") or ())
        sweep_fractions = tuple(float(f) for f in sweep.get("loss_fractions") or ())

        def parse_circle(d: dict | None) -> LoiterCircle | None:
            if d is None:
                return None
            return LoiterCircle(Vec2(_get(d, "x_m"), _get(d, "y_m")), _get(d, "radius_m"))

        path_cfg = _section(raw, "path") or {}
        path_source = parse_circle(_section(path_cfg, "source"))
        path_target = parse_circle(_section(path_cfg, "target"))

        table1_mode = _get(raw, "table1_mode", kind=str, required=False, default="exact")
        if table1_mode not in ("exact", "paper"):
            raise ConfigError(f"table1_mode must be 'exact' or 'paper', got {table1_mode!r}")
        min_turn_formula = _get(raw, "min_turn_formula", kind=str, required=False, default="paper")
        if min_turn_formula not in ("paper", "standard"):
            raise ConfigError(
                f"min_turn_formula must be 'paper' or 'standard', got {min_turn_formula!r}"
            )

        return ScenarioConfig(
            area=area,
            kind=kind,
            r_c=r_c,
            sensor=sensor,
            platform=platform,
            r_min_turn=r_min_turn,
            deploy_radius=deploy_radius,
            deploy_budget=deploy_budget,
            r_l_max=_get(raw, "r_l_max_m", required=False),
            failures=failures,
            grid_pitch=grid_pitch,
            phase_samples=phase_samples,
            sweep_r_inits=sweep_r_inits,
            sweep_fractions=sweep_fractions,
            path_source=path_source,
            path_target=path_target,
            turn_radius=_get(raw, "turn_radius_m", required=False),
            min_turn_formula=min_turn_formula,
            table1_mode=table1_mode,
            out_dir=_get(raw, "output_dir", kind=str, required=False, default="out"),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# artifact emission


class ArtifactWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.written: dict[str, str] = {}

    def write_text(self, name: str, content: str) -> Path:
        path = self.out_dir / name
        path.write_text(content)
        self.written[name] = hashlib.sha256(content.encode()).hexdigest()
        return path

    def write_manifest(self) -> Path:
        manifest = [{"file": n, "sha256": h} for n, h in sorted(self.written.items())]
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        return path


def layout_csv(layout: PackingLayout) -> str:
    lines = ["id,row,x_m,y_m,r_l_m"]
    idx = 0
    for row_i, row in enumerate(layout.rows):
        for c in row:
            lines.append(f"{idx},{row_i},{c.x!r},{c.y!r},{layout.loiter_radius!r}")
            idx += 1
    return "\n".join(lines) + "\n"


def _params_csv(cfg: ScenarioConfig, r_l: float) -> str:
    p = packing_params(r_l, cfg.kind, cfg.table1_mode)
    header = (
        "kind,r_l_m,side_length_m,x_pitch_m,y_pitch_m,overlap_angle_rad,"
        "half_overlap_area_m2,effective_area_m2,table_mode"
    )
    row = (
        f"{cfg.kind.value},{r_l!r},{p.side_length!r},{p.x_pitch!r},{p.y_pitch!r},"
        f"{p.overlap_angle!r},{p.half_overlap_area!r},{p.effective_area!r},{p.table_mode}"
    )
    return header + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_pack(cfg: ScenarioConfig, out: ArtifactWriter) -> int:
    if cfg.deploy_radius is None:
        raise ConfigError("pack needs deployment.radius_m")
    layout = pack(cfg.area, cfg.deploy_radius, cfg.kind)
    out.write_text("layout.csv", layout_csv(layout))
    out.write_text("params.csv", _params_csv(cfg, cfg.deploy_radius))
    circles = {i: LoiterCircle(c, cfg.deploy_radius) for i, c in enumerate(layout.centers)}
    out.write_text(
        "layout.svg",
        render_fleet(cfg.area, circles, phase=0.0, title=f"{cfg.kind.value} packing, {layout.count} circles"),
    )
    out.write_manifest()
    print(f"packed {layout.count} circles ({layout.n_rows} rows) at r_l={cfg.deploy_radius:g} m")
    return EXIT_OK


def cmd_optimize(cfg: ScenarioConfig, out: ArtifactWriter) -> int:
    if cfg.deploy_budget is None:
        raise ConfigError("optimize needs deployment.budget_n")
    sol = solve_radius(
        FleetBudget(cfg.deploy_budget),
        cfg.area,
        cfg.kind,
        cfg.coverage_radius(),
        cfg.min_turn(),
        r_l_max=cfg.r_l_max,
    )
    header = "r_l_m,n_x,n_y,regime,objective\n"
    if sol.regime is Regime.INFEASIBLE:
        out.write_text("solution.csv", header + f",,,{sol.regime.value},\n")
        out.write_manifest()
        needed = f" (needs {sol.min_required} UAVs)" if sol.min_required else ""
        print(f"infeasible: {cfg.deploy_budget} UAVs cannot cover the area{needed}")
        return EXIT_INFEASIBLE
    r = sol.loiter_radius
    # The objective column is the revisit-rate proxy 1/r^2.
    out.write_text(
        "solution.csv",
        header + f"{r!r},{sol.n_x},{sol.n_y},{sol.regime.value},{1.0 / (r * r)!r}\n",
    )
    out.write_manifest()
    print(
        f"r_l = {r:.4f} m, n_x = {sol.n_x}, n_y = {sol.n_y}, "
        f"regime = {sol.regime.value}"
    )
    return EXIT_OK


def _coverage_csv(report) -> str:
    return (
        "instant_min_fraction,cycle_fraction,grid_pitch_m,phase_samples\n"
        f"{report.instant_min_fraction!r},{report.cycle_fraction!r},"
        f"{report.grid_pitch!r},{report.phase_samples}\n"
    )


def cmd_simulate(cfg: ScenarioConfig, out: ArtifactWriter) -> int:
    """Deploy, then run every configured failure event through detection and
    super-agent recovery; snapshots of the last round keep the plain
    clusters/recovered names, earlier rounds get a round suffix."""
    platform = cfg.require_platform()
    r_c = cfg.coverage_radius()
    check_coverage_inputs(cfg.area, r_c, cfg.effective_grid_pitch(), cfg.phase_samples)
    events: list[tuple[float, str, str]] = []

    state = deploy(
        cfg.area,
        cfg.kind,
        platform,
        radius=cfg.deploy_radius,
        budget=cfg.deploy_budget,
        r_c=r_c,
        r_l_max=cfg.r_l_max,
        min_turn_formula=cfg.min_turn_formula,
    )
    events.append((0.0, "deploy", f"{len(state.uavs)} UAVs at r_l={state.loiter_radius:.4f}"))
    circles = {u.id: u.assigned_circle for u in state.uavs}
    out.write_text("initial.svg", render_fleet(cfg.area, circles, state.phase, title="initial deployment"))
    out.write_text("initial_layout.csv", layout_csv(state.layout))

    def finish(final_state, failed_detail=None):
        cov = coverage_report(
            cfg.area,
            [u.assigned_circle.center for u in final_state.uavs if u.alive],
            final_state.loiter_radius,
            r_c,
            cfg.effective_grid_pitch(),
            cfg.phase_samples,
        )
        out.write_text("coverage.csv", _coverage_csv(cov))
        out.write_text("events.log", _events_text(events))
        out.write_manifest()
        if failed_detail is not None:
            print(f"recovery failed: {failed_detail}")
            return EXIT_INFEASIBLE
        print(f"final cycle coverage {cov.cycle_fraction:.4f} with {len(final_state.uavs)} UAVs")
        return EXIT_OK

    if not cfg.failures:
        return finish(state)

    for round_i, event in enumerate(cfg.failures, start=1):
        suffix = "" if round_i == len(cfg.failures) else f"_round{round_i}"
        if event.time > state.time:
            step(state, event.time - state.time)
        before = set(state.alive_ids)
        inject_failure(state, event)
        lost = sorted(before - set(state.alive_ids))
        events.append((state.time, "failure", f"lost {len(lost)} UAVs: {' '.join(map(str, lost))}"))

        report = detect_failures(state)
        t_detect = state.time + report.detection_delay
        events.append(
            (t_detect, "detect", f"{report.survivor_count} survivors in {len(report.clusters)} clusters via {report.detected_by}"),
        )
        survivors = {i: report.circles[i] for i in report.survivor_ids}
        dead = {u.id: u.assigned_circle for u in state.uavs if not u.alive}
        out.write_text(
            f"clusters{suffix}.svg",
            render_fleet(cfg.area, survivors, state.phase, dead=dead, clusters=report.clusters, title="survivor clusters"),
        )

        plan = super_agent_recover(
            report,
            cfg.area,
            cfg.kind,
            r_c,
            platform,
            r_l_max=cfg.r_l_max,
            r_turn=cfg.turn_radius,
            min_turn_formula=cfg.min_turn_formula,
        )
        if plan.outcome is RecoveryOutcome.RECOVERY_FAILED:
            detail = plan.reason or "recovery failed"
            if plan.deficit is not None:
                detail += f"; deficit {plan.deficit}"
            events.append((t_detect, "recover_failed", detail))
            return finish(state, failed_detail=detail)

        events.append(
            (t_detect, "recover", f"r_l_new={plan.solution.loiter_radius:.4f} outcome={plan.outcome.value}"),
        )
        for tr in plan.transitions:
            events.append((t_detect + tr.depart_delay, "transition_start", f"uav {tr.uav_id}"))
            events.append((t_detect + tr.arrival_time, "transition_end", f"uav {tr.uav_id}"))

        state = apply_recovery(state, plan)
        circles = {u.id: u.assigned_circle for u in state.uavs}
        out.write_text(
            f"recovered{suffix}.svg",
            render_fleet(cfg.area, circles, state.phase, title="recovered coverage"),
        )
        out.write_text(f"final_layout{suffix}.csv", layout_csv(state.layout))
    return finish(state)


def _events_text(events) -> str:
    lines = ["t_s,event,detail"]
    for t, name, detail in events:
        lines.append(f"{t:.3f},{name},{detail}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: ScenarioConfig, out: ArtifactWriter) -> int:
    if not cfg.sweep_r_inits or not cfg.sweep_fractions:
        raise ConfigError("sweep needs sweep.r_init_m and sweep.loss_fractions lists")
    r_c = cfg.coverage_radius()
    result = loss_sweep(
        cfg.area,
        cfg.kind,
        cfg.sweep_r_inits,
        cfg.sweep_fractions,
        r_c,
        r_min_turn=cfg.min_turn(),
        r_l_max=cfg.r_l_max,
    )
    lines = ["r_init_m,loss_fraction,survivors,r_new_m,regime,ideal_r_new_m"]
    for p in result.points:
        r_new = "" if p.r_new is None else repr(p.r_new)
        lines.append(
            f"{p.r_init!r},{p.loss_fraction!r},{p.survivors},{r_new},{p.regime.value},{p.ideal_r_new!r}"
        )
    out.write_text("sweep.csv", "\n".join(lines) + "\n")
    out.write_text("sweep.svg", render_sweep(result.points, r_c, cfg.radius_cap()))
    max_lines = ["r_init_m,max_recoverable_fraction"]
    for r_init in cfg.sweep_r_inits:
        max_lines.append(f"{r_init!r},{result.max_recoverable[r_init]!r}")
    out.write_text("max_recoverable.csv", "\n".join(max_lines) + "\n")
    out.write_manifest()
    for r_init in cfg.sweep_r_inits:
        print(f"r_init={r_init:g} m: max recoverable loss {result.max_recoverable[r_init]:.4f}")
    return EXIT_OK


def cmd_path(cfg: ScenarioConfig, out: ArtifactWriter) -> int:
    if cfg.path_source is None or cfg.path_target is None:
        raise ConfigError("path needs path.source and path.target circles")
    platform = cfg.require_platform()
    r_turn = cfg.turn_radius if cfg.turn_radius is not None else cfg.min_turn()
    if r_turn <= 0:
        raise ConfigError("path needs a positive turn radius (platform or turn_radius_m)")
    plan = plan_transition(
        0, cfg.path_source, 0.0, cfg.path_target, r_turn, platform.speed
    )
    dt = 0.1
    n = max(2, int(math.ceil(plan.arrival_time / dt)) + 1)
    times = plan.arrival_time * np.arange(n) / (n - 1)
    xs, ys, headings = track(plan, times, platform.speed)
    rows = zip(times.tolist(), xs.tolist(), ys.tolist(), headings.tolist())
    lines = ["uav_id,t_s,x_m,y_m,heading_rad"]
    lines += [f"0,{t!r},{x!r},{y!r},{h!r}" for t, x, y, h in rows]
    out.write_text("path.csv", "\n".join(lines) + "\n")
    break_off = cfg.path_source.point_at(plan.break_off_phase)
    join_in = cfg.path_target.point_at(plan.join_phase)
    out.write_text(
        "path.svg",
        render_transition(
            cfg.path_source,
            cfg.path_target,
            list(zip(xs.tolist(), ys.tolist())),
            break_off,
            join_in,
            headings=(plan.break_off_phase + math.pi / 2, plan.join_phase + math.pi / 2),
        ),
    )
    out.write_manifest()
    print(
        f"transition: delay {plan.depart_delay:.3f} s, path {plan.path.length:.2f} m, "
        f"arrival {plan.arrival_time:.3f} s"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.out is not None:
        cfg.out_dir = args.out
    if args.grid_pitch is not None:
        cfg.grid_pitch = args.grid_pitch
    if args.phase_samples is not None:
        cfg.phase_samples = args.phase_samples
    if args.table1_mode is not None:
        cfg.table1_mode = args.table1_mode
    if args.seed is not None:
        seeded = [f for f in cfg.failures if f.seed is not None]
        if not seeded:
            raise ConfigError("--seed needs a seeded failure event in the config")
        cfg.failures = tuple(
            FailureEvent(time=f.time, seed=args.seed, loss_count=f.loss_count)
            if f.seed is not None
            else f
            for f in cfg.failures
        )
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loiterpack",
        description="Loiter-circle packing, radius optimization and failure recovery scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("pack", "generate a loiter-circle layout"),
        ("optimize", "solve the loiter radius for a fleet budget"),
        ("simulate", "run deploy / failure / recovery"),
        ("sweep", "loss-fraction sweep over initial radii"),
        ("path", "plan one loiter-to-loiter transition"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="failure selection seed override")
        p.add_argument("--grid-pitch", type=float, default=None, help="validation grid pitch (m)")
        p.add_argument("--phase-samples", type=int, default=None, help="phase samples for validation")
        p.add_argument("--table1-mode", choices=("paper", "exact"), default=None)
    return parser


_COMMANDS = {
    "pack": cmd_pack,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "path": cmd_path,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        out = ArtifactWriter(Path(cfg.out_dir))
        return _COMMANDS[args.command](cfg, out)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except ValueError as exc:  # ConfigError and config-derived preconditions
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
