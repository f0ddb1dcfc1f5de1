"""Contract between the package and the benchmark tracer.

``perfbench/tracer.py`` wraps package functions by module and attribute name
and reports a metric as absent when its name no longer resolves. A rename
then fails here, instead of turning per-layer benchmark metrics absent.
"""

import importlib.util
import json
from pathlib import Path

from loiterpack.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_present_and_called(tmp_path):
    tracer_module = load_tracer()
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "area": {"x_extent_m": 500.0, "y_extent_m": 650.0},
                "r_c_m": 80.0,
                "platform": {"speed_mps": 15.0, "max_bank_rad": 0.5, "gravity_mps2": 9.81},
                "packing": "hexagon",
                "r_l_max_m": 100.0,
                "deployment": {"radius_m": 70.0},
                "failure": {"time_s": 60.0, "seed": 42, "loss_count": 18},
                "validation": {"grid_pitch_m": 20.0, "phase_samples": 8},
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    tracer = tracer_module.Tracer()
    with tracer.installed(0):
        assert main(["simulate", "--config", str(config)]) == 0
    assert tracer.absent == set()
    # fleet.uavs counts len(deploy(...).uavs): the 35 UAVs deployed at 70 m.
    assert tracer.counters[0, "fleet.uavs"] == 35
    called = {name for (_, name), n in tracer.calls.items() if n > 0}
    names = [span[2] for span in tracer_module.SPANS] + [c[2] for c in tracer_module.COUNTED]
    assert [name for name in names if name not in called] == []
