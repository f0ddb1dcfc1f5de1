"""Golden outputs: the sha256 of every artifact of the paper-scale CLI runs.

Each pin was computed from the implementation these runs first shipped
with. A refactor must reproduce every artifact byte for byte; a pin may only
change together with an algorithm change that the change log names.
"""

import json

import pytest

from loiterpack.cli import main

BASE = {
    "area": {"x_extent_m": 500.0, "y_extent_m": 650.0},
    "r_c_m": 80.0,
    "platform": {"speed_mps": 15.0, "max_bank_rad": 0.5, "gravity_mps2": 9.81},
    "packing": "hexagon",
    "r_l_max_m": 100.0,
}

# name -> (command, config overrides, exit code, {artifact: sha256})
GOLDEN = {
    "pack-hexagon-70": (
        "pack",
        {"deployment": {"radius_m": 70.0}},
        0,
        {
            "layout.csv": "7783ce6608af90c22ad744eb35530908362e94105d90781dd69f5e27df9f5443",
            "layout.svg": "bc461301e4e274cc1cc915fafa8d36363c2deaa4d768e1b3d9023adf794d938e",
            "params.csv": "2fd6857cc720bd5fdaafbd403b894f44b491625446425661286f37c9cab0ab31",
        },
    ),
    "pack-square-70": (
        "pack",
        {"deployment": {"radius_m": 70.0}, "packing": "square"},
        0,
        {
            "layout.csv": "e7de89d37d24ccbfd178e2a4c4b64b6a8e2e0722b6ea6093828424c775e1dd9e",
            "layout.svg": "0cf139b9727f88d4f562267b8d1ccf2172b7a51ce7a1550472cc4ec79fb1f078",
            "params.csv": "5e6e185fde9dd5db138cf0a09002dfbd4285ff0d9535f0b5105413591170ac8e",
        },
    ),
    "optimize-17": (
        "optimize",
        {"deployment": {"budget_n": 17}},
        0,
        {
            "solution.csv": "1b57262d59456dfd4ed894a3f7c6301a2b61de00a12e415fecc0f5e42c8575df",
        },
    ),
    "simulate-table2": (
        "simulate",
        {
            "deployment": {"radius_m": 70.0},
            "failure": {"time_s": 60.0, "seed": 42, "loss_count": 18},
        },
        0,
        {
            "clusters.svg": "9f3e0591d207406162d3868685dc5de641302009ef9ac2a708fcc6b6b3e7d7ad",
            "coverage.csv": "bb5ff04b1d7b32b406010ca87232f4b8f77347446bf8e3b09bfec6903a7ed549",
            "events.log": "6e9b80dfbb447a4b6edd0ecd149498b4e21024f051255a0706a93e1843f82806",
            "final_layout.csv": "e9e0d51e92815af1e8717d9ea8b1ef810831f62337f91fefcba5aa6709a03287",
            "initial.svg": "8e30913fa2ac58312e1d72c301370ab4dd844559021638e4d5de40dc956da9d6",
            "initial_layout.csv": "7783ce6608af90c22ad744eb35530908362e94105d90781dd69f5e27df9f5443",
            "recovered.svg": "2ffc34bcd4654c1b6909f15e1e1d5c8c5778e5a0c4474a629b5f9848ce9c4a2f",
        },
    ),
    # Four UAVs find no root of the arrival-time equation at once and depart
    # at a later delay offset, so events.log pins the offsets the solver
    # chooses. No stagger round runs (sampled separation 61 m); the stagger
    # loop has its own test (test_fleet.py, test_stagger_replans_the_later_departure).
    "simulate-1km-lose36": (
        "simulate",
        {
            "area": {"x_extent_m": 1000.0, "y_extent_m": 1000.0},
            "deployment": {"radius_m": 70.0},
            "failure": {"time_s": 60.0, "seed": 0, "loss_count": 36},
            "validation": {"grid_pitch_m": 20.0, "phase_samples": 8},
        },
        0,
        {
            "clusters.svg": "b73dc885c6ed25339becc421f84d19fd3e62bb008186b719430bca72de3c76e1",
            "coverage.csv": "eaec63f5724aea0dba6a37e081c58a50a8802129038d01911bc8d5b0dca38411",
            "events.log": "06dd1195ccb6f0d4ffa53a106da35010eaedf3d14ea67c10c8da0c36495e3d27",
            "final_layout.csv": "209c007b28d19d3c8f285a714ce35613cb0acb3117770bc0ff72ce2a138e0df7",
            "initial.svg": "019bf8efc1de9f7915ebd90c37785af5c12c584310d2b9eb143158e61bd3d76b",
            "initial_layout.csv": "5d6a3bcdc4f54fe19b6b5ea0682e0e953a268f3cf30ae3cc33e4d3eca52b4c97",
            "recovered.svg": "ea3b93cac354421c4946bf820a9a852dc2dda2957942a3103964c3271ffb3599",
        },
    ),
    "simulate-lose-all": (
        "simulate",
        {
            "deployment": {"radius_m": 70.0},
            "failure": {"time_s": 10.0, "lost_ids": list(range(35))},
        },
        3,
        {
            "clusters.svg": "68fac1b5409ce300157e9c83dce11158b61c619bf4a05a2682576b576abd1317",
            "coverage.csv": "ada911290031422b8ac1fff09d3b9a1c141c4dd19b972b92ca8066074c80ff41",
            "events.log": "801cabb6def5075d18b7405045bf9417529912addf3f8415edf37c3e44a047bc",
            "initial.svg": "8e30913fa2ac58312e1d72c301370ab4dd844559021638e4d5de40dc956da9d6",
            "initial_layout.csv": "7783ce6608af90c22ad744eb35530908362e94105d90781dd69f5e27df9f5443",
        },
    ),
    "sweep-50-90": (
        "sweep",
        {
            "sweep": {
                "r_init_m": [50.0, 60.0, 70.0, 80.0, 90.0],
                "loss_fractions": [round(0.05 * i, 2) for i in range(16)],
            }
        },
        0,
        {
            "max_recoverable.csv": "e6cf68efd74e5279563e8d840f8f67097a7c21e785211b3ca10722f7de45a295",
            "sweep.csv": "4565274d1b4b25e5dbc12d89c977d4328be78c74cac3c03c876996867d4807c5",
            "sweep.svg": "a29e1290afeba8b3e35441ac744f4309ed4cb0878bd9d8183c81faac0bd68e36",
        },
    ),
    "path-readme": (
        "path",
        {
            "path": {
                "source": {"x_m": 0.0, "y_m": 0.0, "radius_m": 70.0},
                "target": {"x_m": 260.0, "y_m": 140.0, "radius_m": 96.0},
            }
        },
        0,
        {
            "path.csv": "eec11cf54a19dec1f0d5fbf28bd2aa3f4083ae62db52351ac04f40e993a18cca",
            "path.svg": "52537d32f0c4646e22ce352e1a1e0b9f90d1790226444baaca4894c36c4de210",
        },
    ),
}


def run_golden(tmp_path, name):
    """(exit code, {artifact: sha256}) of one golden run."""
    command, overrides, _, _ = GOLDEN[name]
    out = tmp_path / "out"
    cfg = dict(BASE, output_dir=str(out), **overrides)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(config)])
    manifest = json.loads((out / "manifest.json").read_text())
    return rc, {entry["file"]: entry["sha256"] for entry in manifest}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, name):
    _, _, exit_code, pins = GOLDEN[name]
    assert run_golden(tmp_path, name) == (exit_code, pins)
