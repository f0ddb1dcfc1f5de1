"""Scenario-driven command line front end.

Subcommands: ``pack``, ``optimize``, ``simulate``, ``sweep`` and ``path``.
Scenarios are JSON files (all lengths in meters, angles in radians, times in
seconds). A command writes artifacts and raises on failure; ``main`` alone
writes the ``manifest.json`` of file names and content hashes (for every run
that wrote an artifact, failed ones included) and maps the outcome to the
exit code and, on failure, one line on stderr.

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
    check_deploy_radius,
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
    min_turn_radius,
    packing_params,
)
from .optimize import FleetBudget, _shortage, solve_radius
from .packing import PackingLayout, pack
from .render import render_fleet, render_sweep, render_transition

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_PLANNING = 4

# Most samples ``path`` writes (29 hours of flight at its 0.1 s step).
MAX_PATH_SAMPLES = 1 << 20


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
        """The scenario's minimum turn radius, which bounds every loiter
        radius and shapes every transit: ``r_min_turn_m``, else the
        platform's, else 0."""
        if self.r_min_turn is not None:
            return self.r_min_turn
        if self.platform is not None:
            return min_turn_radius(self.platform, self.min_turn_formula)
        return 0.0

    def effective_grid_pitch(self) -> float:
        return self.grid_pitch if self.grid_pitch is not None else self.coverage_radius() / 20.0

    def require_platform(self) -> PlatformModel:
        if self.platform is None:
            raise ConfigError("this command needs a 'platform' section (speed is required)")
        return self.platform


_KIND_NAMES = {float: "a JSON number", int: "an integral JSON number", str: "a JSON string"}

# Every config key once, as (kind, default); the default ``...`` marks a
# required key. A kind is float, int or str; a tuple of the strings the key
# takes; a dict of the keys of a section; or [kind] for a JSON array of that
# kind. A section reads as the list of its values in table order, the order of
# its model's arguments; absent, as its default: None, or {} for its keys' own.
_EVENT = {"time_s": (float, 0.0), "lost_ids": ([int], None), "seed": (int, None), "loss_count": (int, None)}
_CIRCLE = {"x_m": (float, ...), "y_m": (float, ...), "radius_m": (float, ...)}
_SCHEMA = {
    "area": ({"x_extent_m": (float, ...), "y_extent_m": (float, ...)}, ...),
    "packing": (("square", "hexagon"), "hexagon"),
    "sensor": ({"fov_half_angle_rad": (float, ...), "altitude_m": (float, ...)}, None),
    "r_c_m": (float, None),
    "platform": ({"speed_mps": (float, ...), "max_bank_rad": (float, ...), "gravity_mps2": (float, 9.81)}, None),
    "r_min_turn_m": (float, None),
    "deployment": ({"radius_m": (float, None), "budget_n": (int, None)}, {}),
    "failure": (_EVENT, None),
    "failures": ([_EVENT], None),
    "validation": ({"grid_pitch_m": (float, None), "phase_samples": (int, 36)}, {}),
    "sweep": ({"r_init_m": ([float], ()), "loss_fractions": ([float], ())}, {}),
    "path": ({"source": (_CIRCLE, None), "target": (_CIRCLE, None)}, {}),
    "table1_mode": (("exact", "paper"), "exact"),
    "min_turn_formula": (("paper", "standard"), "paper"),
    "r_l_max_m": (float, None),
    "output_dir": (str, "out"),
}
# Key groups of each section, as (rule, keys): a config sets at most one key
# of a group, and exactly one of an "exactly" group whenever its section is set.
_ONE_OF = {
    "": (("at most", "sensor", "r_c_m"), ("at most", "platform", "r_min_turn_m"), ("at most", "failure", "failures")),
    "deployment": (("exactly", "radius_m", "budget_n"),),
}


def _label(key: str, where: str) -> str:
    return f"{where}: {key!r}" if where else f"config key {key!r}"


def _read(value, kind, key: str, where: str, errors: list):
    """``value`` of key ``key`` of section ``where`` as ``kind`` (see
    ``_SCHEMA``): a number takes JSON numbers only (no bools, no strings), an
    integer integral numbers only, a string JSON strings only, and a section
    is read by ``_walk``. Anything else raises ``ConfigError`` naming the key."""
    if value.__class__ is kind:  # a float, int or str of its own kind
        return value
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object, got {value!r}")
        return _walk(value, kind, f"{where}.{key}" if where else key, errors)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{_label(key, where)} must be a JSON array, got {value!r}")
        items = (f"{key}[{k}]" if isinstance(kind[0], dict) else key for k in range(len(value)))
        return tuple(_read(v, kind[0], item, where, errors) for v, item in zip(value, items))
    if isinstance(kind, tuple):
        if value in kind:
            return value
        if isinstance(value, str):
            raise ConfigError(f"{key} must be {' or '.join(map(repr, kind))}, got {value!r}")
        kind = str
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and (kind is float or (kind is int and value.is_integer())):
        try:
            return kind(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ConfigError(f"{_label(key, where)} must be {_KIND_NAMES[kind]}, got {value!r}")


def _walk(d: dict, schema: dict, where: str, errors: list) -> list:
    """The values of section ``d`` (``where``, "" at the root) by ``schema``,
    in its order; a JSON null or an absent key takes its default. Each unknown
    key (rank 0), broken key group and bad value (rank 1) goes on ``errors``
    as a (rank, ConfigError) pair, so that a misspelt key anywhere is named
    first."""
    if not d.keys() <= schema.keys():
        place = f"section {where!r}" if where else "the config root"
        errors += [(0, ConfigError(f"unknown config key {k!r} in {place}")) for k in d if k not in schema]
    for rule, a, b in _ONE_OF.get(where, ()):
        given = (d.get(a) is not None) + (d.get(b) is not None)
        if given > 1 or (given == 0 and rule == "exactly"):
            errors.append((1, ConfigError(f"{where or 'config'} needs {rule} one of {a!r} or {b!r}")))
    values = []
    for key, (kind, default) in schema.items():
        value = d.get(key)
        if value is not None:
            try:
                value = _read(value, kind, key, where, errors)
            except ConfigError as exc:
                errors.append((1, exc))
                value = None
        elif default is ...:
            message = f"config needs an {key!r} object" if isinstance(kind, dict) else f"missing config key {key!r}"
            errors.append((1, ConfigError(message)))
        else:
            value = [v for _, v in kind.values()] if isinstance(default, dict) else default
        values.append(value)
    return values


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ScenarioConfig:
    """The config of JSON object ``raw``; a ``ConfigError`` names its first fault."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[tuple[int, ConfigError]] = []
    (
        area, packing, sensor, r_c, platform, r_min_turn, deployment, failure, failures,
        validation, sweep, path, table1_mode, min_turn_formula, r_l_max, out_dir,
    ) = _walk(raw, _SCHEMA, "", errors)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    try:
        area = AreaSpec(*area)
        sensor = None if sensor is None else SensorModel(*sensor)
        platform = None if platform is None else PlatformModel(*platform)
        events = []
        for k, (time_s, lost_ids, seed, loss_count) in enumerate((failure,) if failure else failures or ()):
            name = "failure" if failure else f"failures[{k}]"
            if not (math.isfinite(time_s) and time_s >= 0.0):
                raise ConfigError(f"{name}: 'time_s' must be finite and >= 0, got {time_s!r}")
            if seed is not None and seed < 0:
                raise ConfigError(f"{name}: 'seed' must be >= 0, got {seed}")
            if events and not time_s > events[-1].time:
                raise ConfigError(
                    f"{name}: 'time_s' {time_s} must be later than failures[{k - 1}] at {events[-1].time}"
                )
            lost_ids = None if lost_ids is None else frozenset(lost_ids)
            events.append(FailureEvent(time_s, lost_ids, seed, loss_count))
        source, target = [None if c is None else LoiterCircle(Vec2(c[0], c[1]), c[2]) for c in path]
        return ScenarioConfig(
            area=area, kind=PackingKind(packing), r_c=r_c, sensor=sensor, platform=platform,
            r_min_turn=r_min_turn, deploy_radius=deployment[0], deploy_budget=deployment[1],
            r_l_max=r_l_max, failures=tuple(events), grid_pitch=validation[0], phase_samples=validation[1],
            sweep_r_inits=sweep[0], sweep_fractions=sweep[1], path_source=source, path_target=target,
            min_turn_formula=min_turn_formula, table1_mode=table1_mode, out_dir=out_dir,
        )
    except ConfigError:
        raise
    except ValueError as exc:  # a model's own range check
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


def cmd_pack(cfg: ScenarioConfig, out: ArtifactWriter) -> None:
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
    print(f"packed {layout.count} circles ({layout.n_rows} rows) at r_l={cfg.deploy_radius:g} m")


def cmd_optimize(cfg: ScenarioConfig, out: ArtifactWriter) -> None:
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
    if sol.loiter_radius is None:
        out.write_text("solution.csv", header + f",,,{sol.regime.value},\n")
        raise _shortage(cfg.deploy_budget, sol)
    r = sol.loiter_radius
    # The objective column is the revisit-rate proxy 1/r^2.
    out.write_text(
        "solution.csv",
        header + f"{r!r},{sol.n_x},{sol.n_y},{sol.regime.value},{1.0 / (r * r)!r}\n",
    )
    print(
        f"r_l = {r:.4f} m, n_x = {sol.n_x}, n_y = {sol.n_y}, "
        f"regime = {sol.regime.value}"
    )


def _coverage_csv(report) -> str:
    return (
        "instant_min_fraction,cycle_fraction,grid_pitch_m,phase_samples\n"
        f"{report.instant_min_fraction!r},{report.cycle_fraction!r},"
        f"{report.grid_pitch!r},{report.phase_samples}\n"
    )


def cmd_simulate(cfg: ScenarioConfig, out: ArtifactWriter) -> None:
    """Deploy, then run every configured failure event through detection and
    super-agent recovery; snapshots of the last round keep the plain
    clusters/recovered names, earlier rounds get a round suffix. A failed
    recovery ends the run: the coverage of the survivors and the log are
    written, then ``InfeasibleError`` carries the plan's reason."""
    platform = cfg.require_platform()
    r_c = cfg.coverage_radius()
    r_turn = cfg.min_turn()
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
        r_turn=r_turn,
    )
    events.append((0.0, "deploy", f"{len(state.uavs)} UAVs at r_l={state.layout.loiter_radius:.4f}"))
    out.write_text("initial.svg", render_fleet(cfg.area, state.uavs, state.phase, title="initial deployment"))
    out.write_text("initial_layout.csv", layout_csv(state.layout))

    failed = None
    for round_i, event in enumerate(cfg.failures, start=1):
        suffix = "" if round_i == len(cfg.failures) else f"_round{round_i}"
        if event.time < state.time:
            raise ConfigError(
                f"failures[{round_i - 1}]: 'time_s' {event.time} falls inside the recovery "
                f"from failures[{round_i - 2}], which ends at {state.time:.3f} s"
            )
        if event.time > state.time:
            step(state, event.time - state.time)
        inject_failure(state, event)  # every round starts from a formation without losses
        lost = sorted(state.lost)
        events.append((state.time, "failure", f"lost {len(lost)} UAVs: {' '.join(map(str, lost))}"))

        report = detect_failures(state)
        t_detect = state.time  # detection advances the clock to its instant
        events.append(
            (t_detect, "detect", f"{len(report.circles)} survivors in {len(report.clusters)} clusters via {report.detected_by}"),
        )
        dead = {i: state.uavs[i] for i in lost}
        out.write_text(
            f"clusters{suffix}.svg",
            render_fleet(cfg.area, report.circles, state.phase, dead=dead, clusters=report.clusters, title="survivor clusters"),
        )

        plan = super_agent_recover(
            report, cfg.area, cfg.kind, r_c, platform, r_l_max=cfg.r_l_max, r_turn=r_turn
        )
        if plan.outcome is RecoveryOutcome.RECOVERY_FAILED:
            events.append((t_detect, "recover_failed", plan.reason))
            failed = plan
            break

        # Time to restore: from the failure, through detection, to the last arrival.
        restore_s = report.detection_delay + max((tr.arrival_time for tr in plan.transitions), default=0.0)
        events.append(
            (
                t_detect,
                "recover",
                f"r_l_new={plan.solution.loiter_radius:.4f} outcome={plan.outcome.value} restore_s={restore_s:.3f}",
            ),
        )
        for tr in plan.transitions:
            events.append((t_detect + tr.depart_delay, "transition_start", f"uav {tr.uav_id}"))
            events.append((t_detect + tr.arrival_time, "transition_end", f"uav {tr.uav_id}"))

        state = apply_recovery(state, plan)
        out.write_text(
            f"recovered{suffix}.svg",
            render_fleet(cfg.area, state.uavs, state.phase, title="recovered coverage"),
        )
        out.write_text(f"final_layout{suffix}.csv", layout_csv(state.layout))

    cov = coverage_report(
        cfg.area,
        [c.center for i, c in state.uavs.items() if i not in state.lost],
        state.layout.loiter_radius,
        r_c,
        cfg.effective_grid_pitch(),
        cfg.phase_samples,
    )
    out.write_text("coverage.csv", _coverage_csv(cov))
    out.write_text("events.log", _events_text(events))
    if failed is not None:
        raise InfeasibleError(failed.reason, failed.deficit)
    print(f"final cycle coverage {cov.cycle_fraction:.4f} with {len(state.uavs)} UAVs")


def _events_text(events) -> str:
    lines = ["t_s,event,detail"]
    for t, name, detail in events:
        lines.append(f"{t:.3f},{name},{detail}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: ScenarioConfig, out: ArtifactWriter) -> None:
    if not cfg.sweep_r_inits or not cfg.sweep_fractions:
        raise ConfigError("sweep needs sweep.r_init_m and sweep.loss_fractions lists")
    r_c = cfg.coverage_radius()
    r_turn = cfg.min_turn()
    for r_init in cfg.sweep_r_inits:
        check_deploy_radius(r_init, r_turn)
    result = loss_sweep(
        cfg.area,
        cfg.kind,
        cfg.sweep_r_inits,
        cfg.sweep_fractions,
        r_c,
        r_min_turn=r_turn,
        r_l_max=cfg.r_l_max,
    )
    lines = ["r_init_m,loss_fraction,survivors,r_new_m,regime,ideal_r_new_m"]
    for p in result.points:
        r_new = "" if p.r_new is None else repr(p.r_new)
        lines.append(
            f"{p.r_init!r},{p.loss_fraction!r},{p.survivors},{r_new},{p.regime.value},{p.ideal_r_new!r}"
        )
    out.write_text("sweep.csv", "\n".join(lines) + "\n")
    out.write_text("sweep.svg", render_sweep(result.points, r_c, result.r_cap))
    # An empty fraction (stdout: none): no fleet of at most N UAVs is accepted.
    max_lines = ["r_init_m,max_recoverable_fraction"]
    for r_init in cfg.sweep_r_inits:
        frac = result.max_recoverable[r_init]
        max_lines.append(f"{r_init!r}," + ("" if frac is None else repr(frac)))
        print(f"r_init={r_init:g} m: max recoverable loss " + ("none" if frac is None else f"{frac:.4f}"))
    out.write_text("max_recoverable.csv", "\n".join(max_lines) + "\n")


def cmd_path(cfg: ScenarioConfig, out: ArtifactWriter) -> None:
    if cfg.path_source is None or cfg.path_target is None:
        raise ConfigError("path needs path.source and path.target circles")
    platform = cfg.require_platform()
    plan = plan_transition(0, cfg.path_source, 0.0, cfg.path_target, cfg.min_turn(), platform.speed)
    dt = 0.1
    if not plan.arrival_time / dt < MAX_PATH_SAMPLES:
        raise ConfigError(
            f"the transition takes {plan.arrival_time} s: over {MAX_PATH_SAMPLES} samples "
            f"at {dt} s (is the speed right?)"
        )
    n = max(2, int(math.ceil(plan.arrival_time / dt)) + 1)
    times = plan.arrival_time * np.arange(n) / (n - 1)
    xs, ys, headings = (a[0] for a in track([plan], times, platform.speed))
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
    print(
        f"transition: delay {plan.depart_delay:.3f} s, path {plan.path.length:.2f} m, "
        f"arrival {plan.arrival_time:.3f} s"
    )


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.out is not None:
        cfg.out_dir = args.out
    # Each command registers only the flags it reads; the others are absent.
    if getattr(args, "grid_pitch", None) is not None:
        cfg.grid_pitch = args.grid_pitch
    if getattr(args, "phase_samples", None) is not None:
        cfg.phase_samples = args.phase_samples
    if getattr(args, "table1_mode", None) is not None:
        cfg.table1_mode = args.table1_mode
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="failure selection seed override")
            p.add_argument("--grid-pitch", type=float, default=None, help="validation grid pitch (m)")
            p.add_argument("--phase-samples", type=int, default=None, help="phase samples for validation")
        if name == "pack":
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
    out = None
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        out = ArtifactWriter(Path(cfg.out_dir))
        _COMMANDS[args.command](cfg, out)
        return EXIT_OK
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except ValueError as exc:  # ConfigError and config-derived preconditions
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if out is not None and out.written:
            out.write_manifest()  # of every artifact, also those of a failed run


if __name__ == "__main__":
    sys.exit(main())
