"""Scenario benchmark for loiterpack: seeded workloads, one process, one thread.

Run from the repository root (see perfbench/README.md):

    python3 perfbench/run.py --workload paper-35 --seed 1 --seconds 55 --trace 0

A workload has a fixed set of failure draws; the seed sets the order in
which the stages visit them. Each iteration times an in-process
``loiterpack.cli.main(["simulate", ...])`` (``scenario_s``) on the next draw
and, inside it, ``super_agent_recover`` on the detected-failure report
(``recovery_s``) and ``coverage_report`` on the recovered fleet
(``validate_s``). Spread over the same iterations are fresh interpreters
importing ``loiterpack.cli`` (``setup_s``) and recoveries of the draws through
the public API (more ``recovery_s`` samples). Every output is checked; a
failed check counts as a failed operation and the run goes on. An operation
is one draw of the set (failed if any of its scenarios or recoveries failed a
check) or the import of ``setup_s``, and every run checks every draw, so
``attempted`` and ``failed`` do not depend on the host's speed. Timings are
medians over all samples of the run, so slow drift of the host speed averages
out; ``host.calib_s`` times a fixed loop in every iteration to make that
drift visible.

With ``--trace 1`` each iteration runs the scenario once untraced and once
with the recorder of ``tracer.py`` installed, and reports per-layer metrics.
The last line of standard output is the result as one JSON object; a copy
with quartiles and versions, and the spans of a traced run, go to
``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and every interpreter it spawns;
# set before numpy is imported, which reads them once.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

FAILURE_TIME_S = 60.0  # the acceptance scenario's failure time
SEPARATION_M = 2.0  # fleet.DEFAULT_SEPARATION_THRESHOLD at the time of writing
R_C_M = 80.0
DEPLOY_RADIUS_M = 70.0
R_L_MAX_M = 100.0
SPEED_MPS = 15.0
MAX_BANK_RAD = 0.5
# Shares of a run spent on the import spawns of setup_s and on recoveries
# through the public API beyond the one inside each simulate command. A
# recovery's cost varies up to 5x with the failure draw, so recovery_s needs
# many more draws than the scenario stage has time for.
SPAWN_SHARE = 0.15
RECOVERY_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    x_m: float
    y_m: float
    loss_count: int
    grid_pitch_m: float
    phase_samples: int
    # Expected outputs. Both depend only on the survivor count, so they hold
    # for every failure draw: the recovered radius (solve_radius for the
    # survivors) and the worst-phase instant coverage of the recovered layout,
    # bit for bit as the original implementation computes them.
    radius_m: float
    instant_fraction: float
    # Size of the fixed set of failure draws (failure seeds 0 .. draws-1). A
    # recovery's cost varies up to 5x with the draw; a set that every run
    # visits keeps that variance out of the run-to-run spread.
    draws: int


# Why each workload exists is written down in perfbench/README.md.
WORKLOADS = {
    "paper-35": Workload(500.0, 650.0, 18, 4.0, 36, 96.22504486493763, 0.7239012345679012, 32),
    "coverage-1km": Workload(1000.0, 1000.0, 36, 4.0, 36, 95.23809523809523, 0.745728, 16),
}

END_TO_END = (
    ("setup_s", "s"),
    ("scenario_s", "s"),
    ("recovery_s", "s"),
    ("validate_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _busy(span):
    return (span + "_s", "s", (span,), lambda v: v(span + "_s"))


def _calls(span):
    return (span + "_calls", "count", (span,), lambda v: v(span + "_calls"))


def _counter(metric, unit, *spans):
    return (metric, unit, spans + (metric,), lambda v: v(metric))


def _ratio(a, b):
    return a / b if b else 0.0


# (metric, unit, span and counter names it needs, value from one traced
# iteration's totals). A metric that needs an absent name is absent.
PER_LAYER = (
    _busy("dubins.plan_transition"),
    _calls("dubins.plan_transition"),
    _calls("dubins.shortest_path"),
    ("dubins.shortest_path_per_transition", "ratio",
     ("dubins.shortest_path", "dubins.plan_transition"),
     lambda v: _ratio(v("dubins.shortest_path_calls"), v("dubins.plan_transition_calls"))),
    _busy("dubins.closest_approach"),
    _calls("dubins.closest_approach"),
    _counter("dubins.separation_pairs", "count", "dubins.closest_approach"),
    ("dubins.useful_plan_ratio", "ratio", ("fleet.transitions", "dubins.plan_transition"),
     lambda v: _ratio(v("fleet.transitions"), v("dubins.plan_transition_calls"))),
    ("fleet.recover_self_s", "s", ("fleet.recover",), lambda v: v("fleet.recover_self_s")),
    _busy("fleet.assign"),
    ("fleet.stagger_rounds", "count", ("fleet.transitions", "dubins.plan_transition"),
     lambda v: v("dubins.plan_transition_calls") - v("fleet.transitions")),
    _busy("fleet.deploy"),
    _busy("fleet.inject_failure"),
    _busy("fleet.detect_failures"),
    _busy("fleet.apply_recovery"),
    _counter("fleet.uavs", "count", "fleet.deploy"),
    _counter("fleet.transitions", "count", "fleet.recover"),
    _busy("fleet.coverage_report"),
    _busy("kernels.cycle_cover_count"),
    _busy("kernels.min_instant_fraction"),
    _counter("kernels.evals", "count", "kernels.cycle_cover_count", "kernels.min_instant_fraction"),
    _counter("packing.grid_points", "count", "packing.grid_points"),
    _busy("optimize.solve_radius"),
    _calls("optimize.solve_radius"),
    _calls("optimize.uav_count"),
    _busy("packing.pack"),
    _calls("packing.pack"),
    _busy("cli.load_config"),
    _busy("cli.render"),
    _counter("cli.artifacts", "count"),
    _counter("cli.artifact_bytes", "B"),
    _counter("render.svg_bytes", "B", "cli.render"),
)


def scenario_config(w: Workload, draw: int) -> dict:
    return {
        "area": {"x_extent_m": w.x_m, "y_extent_m": w.y_m},
        "r_c_m": R_C_M,
        "platform": {"speed_mps": SPEED_MPS, "max_bank_rad": MAX_BANK_RAD},
        "packing": "hexagon",
        "r_l_max_m": R_L_MAX_M,
        "deployment": {"radius_m": DEPLOY_RADIUS_M},
        "failure": {"time_s": FAILURE_TIME_S, "seed": draw, "loss_count": w.loss_count},
        "validation": {"grid_pitch_m": w.grid_pitch_m, "phase_samples": w.phase_samples},
    }


def calibrate() -> float:
    """Time a fixed pure-Python plus numpy loop (host-speed diagnostic)."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(100_000):
        acc += k * k % 7
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(20):
        acc += float(np.sqrt(a).sum())
    return time.perf_counter() - t0


def quartiles(values):
    """(q1, median, q3); the middle cut point of ``quantiles`` is the median."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Tally:
    """Attempted and failed operations, and failed checks by reason. An
    operation is a failure draw or ``"setup"``; it fails if any check of any
    of its evaluations failed. Output-check failures make the run incorrect;
    other failures (exit codes, exceptions, failed or unsafe recoveries) are
    counted but leave the checked outputs correct."""

    def __init__(self):
        self.ops: dict[object, tuple[bool, bool]] = {}  # key -> (failed, bad output)
        self.reasons: Counter[str] = Counter()

    def op(self, key, failures: list[str], output_failures: list[str] = ()) -> None:
        failed, bad = self.ops.get(key, (False, False))
        self.ops[key] = (failed or bool(failures or output_failures),
                         bad or bool(output_failures))
        self.reasons.update(failures)
        self.reasons.update(output_failures)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(failed for failed, _ in self.ops.values())

    @property
    def bad_outputs(self) -> int:
        return sum(bad for _, bad in self.ops.values())


@contextlib.contextmanager
def timed_calls(module, name: str, calls: list):
    """Append (seconds, result) of every call of ``module.<name>`` in the block."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        calls.append((time.perf_counter() - t0, result))
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, fn)


class Bench:
    def __init__(self, name: str, seed: int, run_dir: Path):
        from loiterpack import cli, fleet
        from loiterpack.geometry import AreaSpec, PlatformModel

        self.cli, self.fleet = cli, fleet
        self.w = WORKLOADS[name]
        self.area = AreaSpec(self.w.x_m, self.w.y_m)
        self.platform = PlatformModel(speed=SPEED_MPS, max_bank=MAX_BANK_RAD)
        rng = np.random.default_rng(seed)
        # The order in which the scenario and the recovery stage visit the draws.
        self.orders = {stage: [int(d) for d in rng.permutation(self.w.draws)]
                       for stage in ("scenario", "recovery")}
        self.visits = {stage: 0 for stage in self.orders}
        self.run_dir = run_dir
        self.tally = Tally()
        self.spawn_seconds = 0.0
        self.recovery_seconds = 0.0

    def next_draw(self, stage: str) -> int:
        """The failure seed that ``stage`` visits next; it cycles through the set."""
        order = self.orders[stage]
        draw = order[self.visits[stage] % len(order)]
        self.visits[stage] += 1
        return draw

    def write_config(self, draw: int) -> Path:
        """Write the scenario config for a failure draw."""
        path = self.run_dir / "scenario.json"
        path.write_text(json.dumps(scenario_config(self.w, draw)))
        return path

    def spawn_setup(self) -> float | None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import loiterpack.cli"],
            cwd=ROOT, env=env, capture_output=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        self.spawn_seconds += elapsed
        failures = [] if proc.returncode == 0 else [f"import exit {proc.returncode}"]
        self.tally.op("setup", failures)
        return None if failures else elapsed

    def scenario(self, draw: int, config: Path, out: Path) -> dict[str, float]:
        """Time one in-process ``simulate`` command and, inside it, its calls
        of ``super_agent_recover`` (on the detected-failure report) and
        ``coverage_report`` (on the recovered fleet); check every output.
        Returns the timings of the calls that completed."""
        recoveries, reports = [], []
        buf = io.StringIO()
        gc.collect()
        try:
            with timed_calls(self.cli, "super_agent_recover", recoveries), \
                    timed_calls(self.cli, "coverage_report", reports), \
                    contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                t0 = time.perf_counter()
                rc = self.cli.main(["simulate", "--config", str(config), "--out", str(out)])
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            self.tally.op(draw, [f"simulate raised {type(exc).__name__}: {exc}"])
            return {}
        times = {"scenario_s": elapsed}
        failures, bad = [], []
        if rc != 0:
            failures.append(f"simulate exit {rc}: {buf.getvalue().strip()[:120]}")
        if len(recoveries) != 1 or len(reports) != 1:
            failures.append(f"simulate made {len(recoveries)} recoveries and "
                            f"{len(reports)} coverage reports, expected one each")
        else:
            (t_recover, plan), (t_validate, cov) = recoveries[0], reports[0]
            times["recovery_s"] = t_recover
            plan_failed, plan_bad = self.plan_failures(plan)
            failures += plan_failed
            bad += plan_bad
            if plan.outcome.value != "recovery-failed":  # cov is of the recovered fleet
                times["validate_s"] = t_validate
                if cov.cycle_fraction != 1.0:
                    bad.append(f"cycle_fraction {cov.cycle_fraction!r} != 1.0")
                if cov.instant_min_fraction != self.w.instant_fraction:
                    bad.append(f"instant fraction {cov.instant_min_fraction!r} "
                               f"!= {self.w.instant_fraction!r}")
        if rc == 0:
            bad += manifest_failures(out)
        self.tally.op(draw, failures, bad)
        return times

    def plan_failures(self, plan) -> tuple[list[str], list[str]]:
        """(failures, output-check failures) of one recovery plan."""
        if plan.outcome.value == "recovery-failed":
            return [f"recovery-failed: {plan.reason}"], []
        failures, bad = [], []
        if plan.min_separation is not None and plan.min_separation < SEPARATION_M:
            failures.append(f"min_separation below {SEPARATION_M} m")
        if plan.solution.loiter_radius != self.w.radius_m:
            bad.append(f"radius {plan.solution.loiter_radius!r} != {self.w.radius_m!r}")
        return failures, bad

    def recovery(self, draw: int) -> float | None:
        """Time ``super_agent_recover`` on a draw's detected-failure report;
        deploy, failure and detection run as in ``simulate``, untimed."""
        fleet, hexagon = self.fleet, self.fleet.PackingKind.HEXAGON
        state = fleet.deploy(self.area, hexagon, self.platform, radius=DEPLOY_RADIUS_M)
        fleet.step(state, FAILURE_TIME_S)
        event = fleet.FailureEvent(time=FAILURE_TIME_S, seed=draw,
                                   loss_count=self.w.loss_count)
        report = fleet.detect_failures(fleet.inject_failure(state, event))
        gc.collect()
        try:
            t0 = time.perf_counter()
            plan = fleet.super_agent_recover(report, self.area, hexagon, R_C_M,
                                             self.platform, r_l_max=R_L_MAX_M)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            self.tally.op(draw, [f"super_agent_recover raised {type(exc).__name__}: {exc}"])
            return None
        self.recovery_seconds += elapsed
        self.tally.op(draw, *self.plan_failures(plan))
        return elapsed

    def loop(self, seconds: float, iteration) -> None:
        """Run ``iteration(i, t_start)`` until the next one would end after ``seconds``."""
        t_start = time.perf_counter()
        durations = []
        i = 0
        while True:
            t0 = time.perf_counter()
            iteration(i, t_start)
            durations.append(time.perf_counter() - t0)
            i += 1
            if time.perf_counter() - t_start + statistics.median(durations) > seconds:
                return

    def warm_up(self) -> None:
        """One untimed scenario and one untimed spawn (fills caches and .pyc
        files). Their checks count like any other."""
        draw = self.orders["scenario"][0]
        self.scenario(draw, self.write_config(draw), self.run_dir / "warm")
        self.spawn_setup()
        self.spawn_seconds = 0.0

    def check_rest(self) -> None:
        """Check, untimed, every draw of the set that the run did not reach."""
        for draw in range(self.w.draws):
            if draw not in self.tally.ops:
                self.recovery(draw)

    def end_to_end(self, seconds: float) -> dict[str, list[float]]:
        samples = {name: [] for name, _ in END_TO_END if name != "peak_rss_mb"}
        samples["host.calib_s"] = []

        def iteration(i, t_start):
            draw = self.next_draw("scenario")
            config = self.write_config(draw)
            samples["host.calib_s"].append(calibrate())
            # Spawns and extra recoveries keep to their shares of the run so
            # far, which spreads them evenly over it.
            if self.spawn_seconds <= SPAWN_SHARE * (time.perf_counter() - t_start):
                t = self.spawn_setup()
                if t is not None:
                    samples["setup_s"].append(t)
            out = self.run_dir / f"out{i}"
            for name, t in self.scenario(draw, config, out).items():
                samples[name].append(t)
            shutil.rmtree(out, ignore_errors=True)
            while self.recovery_seconds <= RECOVERY_SHARE * (time.perf_counter() - t_start):
                t = self.recovery(self.next_draw("recovery"))
                if t is None:
                    break
                samples["recovery_s"].append(t)

        self.loop(seconds, iteration)
        return samples

    def traced(self, seconds: float, tracer) -> tuple[dict[str, list[float]], dict]:
        samples = {"host.calib_s": [], "trace.overhead_s": []}
        per_iteration = []

        def iteration(i, t_start):
            draw = self.next_draw("scenario")
            config = self.write_config(draw)
            samples["host.calib_s"].append(calibrate())
            # Both runs use the same draw; alternate which goes first.
            scenario_s = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                out = self.run_dir / f"out{i}{'t' if traced else ''}"
                if traced:
                    with tracer.installed(i):
                        times = self.scenario(draw, config, out)
                    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
                    totals = tracer.iteration_totals(i)
                    totals["cli.artifacts"] = len(files)
                    totals["cli.artifact_bytes"] = sum(p.stat().st_size for p in files)
                    per_iteration.append(totals)
                else:
                    times = self.scenario(draw, config, out)
                if "scenario_s" in times:
                    scenario_s[traced] = times["scenario_s"]
                shutil.rmtree(out, ignore_errors=True)
            if len(scenario_s) == 2:
                samples["trace.overhead_s"].append(scenario_s[True] - scenario_s[False])

        self.loop(seconds, iteration)
        layer = {}
        for metric, unit, needs, value in PER_LAYER:
            if any(n in tracer.absent for n in needs):
                layer[metric] = None
            else:
                layer[metric] = [value(lambda k, t=t: t.get(k, 0.0)) for t in per_iteration]
        return samples, layer


def manifest_failures(out: Path) -> list[str]:
    """Every file listed in ``manifest.json`` must hash to its recorded sha256."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        bad = []
        for entry in manifest:
            data = (out / entry["file"]).read_bytes()
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                bad.append(f"sha256 mismatch for {entry['file']}")
        return bad
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable manifest: {type(exc).__name__}: {exc}"]


def environment() -> dict:
    import scipy

    from loiterpack import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "using_numba": bool(getattr(kernels, "USING_NUMBA", False)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="loiterpack scenario benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loiterpack" / "__init__.py").is_file():
        print(f"loiterpack sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer  # perfbench/tracer.py: sys.path[0] is this directory

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        bench = Bench(args.workload, args.seed, run_dir)
        bench.warm_up()
        if args.trace:
            tracer = Tracer()
            samples, layer = bench.traced(args.seconds, tracer)
            tracer.write_spans(WORK / f"spans-{tag}.csv")
        else:
            samples, layer = bench.end_to_end(args.seconds), {}
        bench.check_rest()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tally = bench.tally

    stats, metrics = {}, {}

    def report(name, unit, values):
        if not values:
            stats[name] = {"unit": unit, "absent": True}
            metrics[name] = {"value": None, "unit": unit, "absent": True}
            return
        q1, med, q3 = quartiles(values)
        stats[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values)}
        metrics[name] = {"value": med, "unit": unit}

    if args.trace:
        for metric, unit, _, _ in PER_LAYER:
            report(metric, unit, layer[metric])
        report("host.calib_s", "s", samples["host.calib_s"])
        report("trace.overhead_s", "s", samples["trace.overhead_s"])
        report("failed_frac", "ratio", [tally.failed / max(1, tally.attempted)])
    else:
        for name, unit in END_TO_END[:-1]:
            report(name, unit, samples[name])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report("peak_rss_mb", "MB", [rss_mb])
        report("host.calib_s", "s", samples["host.calib_s"])
        del metrics["host.calib_s"]  # printed and saved beside the results, not one of them

    env = environment()
    failures = dict(tally.reasons)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": tally.attempted,
              "failed": tally.failed, "failures": failures, "metrics": stats}
    (WORK / f"result-{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")

    print("environment " + json.dumps(env))
    for name, s in stats.items():
        if s.get("absent"):
            print(f"{name:40s} absent")
        else:
            print(f"{name:40s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for reason, n in sorted(failures.items()):
        print(f"failed x{n}: {reason}")
    # Correct: no output check failed, and at least one operation got through.
    print(json.dumps({"correct": tally.bad_outputs == 0 and tally.failed < tally.attempted,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
