import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import attostm
from attostm import cli, experiments, results, strongfield
from attostm.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_IO, EXIT_OK, RECIPES,
                         SCAN_KINDS, build_grid, load_config, main)
from attostm.config import JunctionConfig, LaserConfig
from attostm.lockin import (DelayTrace, ModulationSpec, forward_lockin,
                            select_beta)
from attostm.potential import mean_image_magnitude
from attostm.results import ScanResult, config_hash, read_csv, write_csv
from attostm.solver import ReflectionRiskWarning, SolverError


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def tiny_tdse_config(**overrides):
    cfg = {
        "junction": {"width_nm": 1.0},
        "laser": {"field_V_per_nm": 7.0, "duration_fund_fwhm_fs": 4.0,
                  "duration_sh_fwhm_fs": 5.0},
        "grid": {"preset": "desk", "z_min_nm": -20.0, "z_max_nm": 20.0},
    }
    cfg.update(overrides)
    return cfg


def test_recipes_load_and_validate():
    for name in RECIPES:
        data = load_config(name)
        assert isinstance(data, dict) and data


def test_dry_run_prints_resolved_config(tmp_path, capsys):
    path = write_config(tmp_path, tiny_tdse_config())
    assert run_cli("potential", "--config", path, "--dry-run") == EXIT_OK
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["junction"]["width_d"] == 1.0
    assert resolved["laser"]["duration_tau1"] == 4.0
    assert resolved["code_version"]


def test_unknown_key_is_hard_error(tmp_path, capsys):
    path = write_config(tmp_path, {"junction": {"width_nmm": 1.0}})
    assert run_cli("potential", "--config", path, "--dry-run") == EXIT_CONFIG
    assert "width_nmm" in capsys.readouterr().err


# command, deleted key, a value, and the key the error names
DELETED_KEYS = [
    ("propagate", "laser.sh_phase_rad", 0.7, "laser.sh_phase_rad"),
    ("saddle", "saddle.binding_eV", 9.0, "saddle.binding_eV"),
    ("scan", "scan.enhancement_sh", 80.0, "scan.enhancement_sh"),
    ("propagate", "grid.max_bandwidth_eV", 25.0, "grid.max_bandwidth_eV"),
    ("propagate", "grid.absorber.strength_eV", 3.0, "grid.absorber"),
    ("propagate", "grid.absorber.fraction", 0.2, "grid.absorber"),
    ("propagate", "grid.absorber.enabled", False, "grid.absorber"),
    ("propagate", "propagate.snapshot_final_state", False,
     "propagate.snapshot_final_state"),
    ("lockin", "lockin.mode", "forward", "lockin.mode"),
]


@pytest.mark.parametrize("command, key, value, named", DELETED_KEYS,
                         ids=[case[1] for case in DELETED_KEYS])
def test_deleted_keys_are_unknown(tmp_path, capsys, command, key, value,
                                  named):
    # an SH carrier phase is a delay, the saddle binding is W_t, the SH
    # enhancement set nothing, the bandwidth is dz_pm and dt_as, the preset
    # picks the absorber, the final state is always written and the
    # lock-in mode is --mode: none of them has a key of its own
    data = value
    for part in reversed(key.split(".")):
        data = {part: data}
    path = write_config(tmp_path, data)
    out = tmp_path / "none"
    mode = ["--mode", "forward"] if command == "lockin" else []
    assert run_cli(command, "--config", path, "--out", str(out),
                   *mode) == EXIT_CONFIG
    assert f"unknown config key: {named}" in capsys.readouterr().err
    assert not out.exists()


def test_lockin_needs_mode(tmp_path, capsys):
    src, *_ = lockin_input(tmp_path)
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    with pytest.raises(SystemExit) as exit_:
        run_cli("lockin", "--config", path, "--out", str(tmp_path / "x"))
    assert exit_.value.code == EXIT_CONFIG
    assert "--mode" in capsys.readouterr().err


def test_grid_steps_reach_the_snapshot(tmp_path, capsys):
    grid = {"preset": "desk", "z_min_nm": -20.0, "z_max_nm": 20.0,
            "dz_pm": 20.0, "dt_as": 10.0}
    path = write_config(tmp_path, tiny_tdse_config(grid=grid))
    assert run_cli("propagate", "--config", path, "--dry-run") == EXIT_OK
    resolved = json.loads(capsys.readouterr().out)["grid"]
    assert resolved["dz"] == 20.0 * 1e-3
    assert resolved["dt"] == 10.0 * 1e-3
    # hbar / 50 eV = 13.16 as resolves the grid's 50 eV bandwidth
    path = write_config(tmp_path, tiny_tdse_config(grid=dict(grid, dt_as=14.0)))
    assert run_cli("propagate", "--config", path, "--dry-run") == EXIT_CONFIG
    assert "dt exceeds hbar/max_bandwidth" in capsys.readouterr().err


def test_workers_key_is_rejected(tmp_path, capsys):
    path = write_config(tmp_path, tiny_tdse_config(workers=2))
    assert run_cli("potential", "--config", path, "--dry-run") == EXIT_CONFIG
    assert "unknown config key: workers" in capsys.readouterr().err


def test_declared_types_are_enforced(tmp_path, capsys):
    for bad, key in (({"junction": {"width_nm": "abc"}}, "junction.width_nm"),
                     ({"laser": {"field_V_per_nm": True}},
                      "laser.field_V_per_nm"),
                     ({"scan": {"count": 2.5}}, "scan.count"),
                     ({"propagate": {"map": {"stride": True}}},
                      "propagate.map.stride"),
                     ({"propagate": {"probes_nm": 1.0}}, "propagate.probes_nm"),
                     ({"propagate": {"probes_nm": [1.0, "x"]}},
                      "propagate.probes_nm[1]"),
                     ({"potential": {"snapshot_times_fs": ["x"]}},
                      "potential.snapshot_times_fs[0]")):
        path = write_config(tmp_path, tiny_tdse_config(**bad))
        assert run_cli("propagate", "--config", path, "--dry-run") \
            == EXIT_CONFIG
        assert f"{key}: expected" in capsys.readouterr().err
    # an int stands in for a declared float
    path = write_config(tmp_path, tiny_tdse_config(junction={"width_nm": 2}))
    assert run_cli("potential", "--config", path, "--dry-run") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["junction"]["width_d"] == 2


def test_missing_config():
    assert run_cli("potential", "--config", "nope.yaml") == EXIT_CONFIG


def test_malformed_yaml_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("junction: {width_nm: 1.0\n")
    assert run_cli("potential", "--config", str(path), "--dry-run") \
        == EXIT_CONFIG
    assert f"malformed YAML in {path}" in capsys.readouterr().err


def test_potential_command(tmp_path):
    path = write_config(tmp_path, tiny_tdse_config())
    out = tmp_path / "out"
    assert run_cli("potential", "--config", path, "--out", str(out)) == EXIT_OK
    cols, _ = read_csv(out / "potential_profile.csv")
    plateau = cols["V0_eV"][cols["z_nm"] < -1.0]
    assert np.all(plateau == -10.1)
    sidecar = json.loads((out / "potential_profile.json").read_text())
    assert sidecar["checks"]["tip_plateau_eV"] == pytest.approx(-10.1)


def test_potential_rejects_zero_width(tmp_path):
    path = write_config(tmp_path, tiny_tdse_config(
        junction={"width_nm": 0.0}))
    out = tmp_path / "none"
    assert run_cli("potential", "--config", path, "--out", str(out)) \
        == EXIT_CONFIG
    assert not out.exists()


def test_potential_determinism(tmp_path):
    path = write_config(tmp_path, tiny_tdse_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("potential", "--config", path, "--out", str(out1))
    run_cli("potential", "--config", path, "--out", str(out2))
    assert (out1 / "potential_profile.csv").read_bytes() \
        == (out2 / "potential_profile.csv").read_bytes()


def test_propagate_command(tmp_path):
    cfg = tiny_tdse_config()
    cfg["propagate"] = {"t_start_fs": -25.0, "t_end_fs": 3.0,
                        "probes_nm": [1.0],
                        "map": {"z_lo_nm": -1.0, "z_hi_nm": 2.0, "stride": 64}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "prop"
    assert run_cli("propagate", "--config", path, "--out", str(out)) == EXIT_OK
    sidecar = json.loads((out / "propagation.json").read_text())
    assert sidecar["norm_deficit"] < 1e-6
    assert sidecar["max_solve_residual"] < 1e-12
    assert sidecar["backend"] == "numpy"
    assert sidecar["warnings"] == []
    rec_files = list(out.glob("current_z*.csv"))
    assert len(rec_files) == 1
    cols, comments = read_csv(rec_files[0])
    assert {"time_fs", "j_per_fs"} <= set(cols)
    assert (out / "current_density_map.csv").exists()
    assert (out / "final_state.json").exists()


@pytest.mark.parametrize("propagate_cfg, message", [
    ({"probes_nm": [500.0]}, "probe at 500.0 nm is outside the grid"),
    # both would write the same current_z+1.007nm.csv
    ({"probes_nm": [1.0, 1.001, 0.5]},
     "probes 1.0 and 1.001 nm both resolve to the grid point z = +1.007 nm"),
    ({"map": {"z_lo_nm": 1.0, "z_hi_nm": 1.0}}, "z_lo < z_hi"),
    ({"map": {"z_lo_nm": -1.0, "z_hi_nm": 2.0, "stride": 0}}, "stride"),
], ids=["probe_off_grid", "probes_on_one_point", "empty_map", "zero_stride"])
def test_propagate_rejects_bad_probe_or_map(tmp_path, capsys, propagate_cfg,
                                            message):
    cfg = tiny_tdse_config()
    cfg["propagate"] = dict(propagate_cfg, t_start_fs=-25.0, t_end_fs=-24.0)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "prop"
    assert run_cli("propagate", "--config", path, "--out", str(out)) \
        == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_propagate_records_reflection_warning(tmp_path):
    cfg = tiny_tdse_config()
    cfg["propagate"] = {"t_start_fs": -25.0, "t_end_fs": 10.0}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "prop"
    with pytest.warns(ReflectionRiskWarning, match="tip-side"):
        assert run_cli("propagate", "--config", path,
                       "--out", str(out)) == EXIT_OK
    sidecar = json.loads((out / "propagation.json").read_text())
    assert [w["category"] for w in sidecar["warnings"]] \
        == ["ReflectionRiskWarning"]
    assert "tip-side grid end" in sidecar["warnings"][0]["message"]


def test_propagate_records_tip_cut(tmp_path, capsys):
    cfg = tiny_tdse_config()
    cfg["propagate"] = {"t_start_fs": -25.0, "t_end_fs": -24.0,
                        "map": {"z_lo_nm": -1.0, "z_hi_nm": 2.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "prop"
    assert run_cli("propagate", "--config", path, "--out", str(out)) == EXIT_OK
    sidecar = json.loads((out / "propagation.json").read_text())
    dz = build_grid(cfg)[0].dz
    # the tip block ends two rows below the map's first point
    assert sidecar["tip_cut_nm"] == pytest.approx(-1.0 - 2 * dz, abs=0.5 * dz)
    # the sample block starts two rows above the map's last point and
    # ends below the absorber, which starts at 16 nm
    lo, hi = sidecar["sample_block_nm"]
    assert lo == pytest.approx(2.0 + dz, abs=0.5 * dz)
    assert 16.0 - dz < hi <= 16.0
    # the solve updates the rows between the blocks and the absorber's
    assert sidecar["stepped_points"] \
        == round((lo - sidecar["tip_cut_nm"]) / dz) - 1 \
        + round((20.0 - hi) / dz) - 1
    # an output, not an option
    cfg["propagate"]["tip_cut_nm"] = -5.0
    path = write_config(tmp_path, cfg)
    assert run_cli("propagate", "--config", path, "--out", str(out)) \
        == EXIT_CONFIG
    assert "tip_cut_nm" in capsys.readouterr().err


def test_scan_delay(tmp_path):
    cfg = tiny_tdse_config()
    cfg["scan"] = {"kind": "delay", "start": 0.0, "stop": 1.5, "count": 3}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "delay"
    assert run_cli("scan", "--config", path, "--out", str(out)) == EXIT_OK
    csvs = list(out.glob("delay_*.csv"))
    assert len(csvs) == 1
    cols, _ = read_csv(csvs[0])
    assert np.array_equal(cols["tau0_fs"], [0.0, 0.75, 1.5])
    charge = cols["net_charge_electrons"]
    assert np.all(np.isfinite(charge)) and np.any(charge != 0.0)


def test_scan_ratio_bounded(tmp_path):
    cfg = tiny_tdse_config()
    cfg["scan"] = {"kind": "ratio", "start": 0.0, "stop": 0.1, "count": 2}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "ratio"
    assert run_cli("scan", "--config", path, "--out", str(out)) == EXIT_OK
    cols, _ = read_csv(next(out.glob("ratio_*.csv")))
    delta = cols["directionality_dimensionless"]
    assert np.all((delta >= 0.0) & (delta <= 1.0))


def test_scan_ratio_refusal_is_compute_failure(tmp_path, capsys,
                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise experiments.DirectionalityError("sample->tip charge < 0")

    monkeypatch.setattr(experiments, "directionality", refuse)
    cfg = tiny_tdse_config()
    cfg["scan"] = {"kind": "ratio", "start": 0.0, "stop": 0.1, "count": 2}
    path = write_config(tmp_path, cfg)
    assert run_cli("scan", "--config", path, "--out",
                   str(tmp_path / "ratio")) == EXIT_COMPUTE
    assert "scan failed: sample->tip charge < 0" in capsys.readouterr().err


def test_propagate_failure_is_compute_failure(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        warnings.warn("reflection risk", ReflectionRiskWarning)
        raise SolverError("solve residual 1e-3")

    monkeypatch.setattr(cli, "propagate", fail)
    path = write_config(tmp_path, tiny_tdse_config())
    out = tmp_path / "prop"
    # the failed run still shows the warnings it raised
    with pytest.warns(ReflectionRiskWarning, match="reflection risk"):
        assert run_cli("propagate", "--config", path,
                       "--out", str(out)) == EXIT_COMPUTE
    assert "propagate failed: solve residual 1e-3" in capsys.readouterr().err
    assert not out.exists()


def test_scan_rejects_bad_kind(tmp_path):
    cfg = tiny_tdse_config()
    cfg["scan"] = {"kind": "delay", "start": 0.0, "stop": 1.0, "count": 3}
    path = write_config(tmp_path, cfg)
    assert run_cli("scan", "--config", path, "--kind", "delay",
                   "--dry-run") == EXIT_OK
    cfg["scan"]["spacing"] = "cubic"
    path = write_config(tmp_path, cfg, "bad.yaml")
    assert run_cli("scan", "--config", path, "--out",
                   str(tmp_path / "x")) == EXIT_CONFIG


@pytest.mark.parametrize("sweep, message", [
    ({"start": 0.5, "stop": 0.5, "count": 4}, "must differ"),
    ({"start": 1.0, "stop": -1.0, "count": 3, "spacing": "log"},
     "positive start and stop"),
    ({"start": -1.0, "stop": 1.0, "count": 3, "spacing": "log"},
     "positive start and stop"),
], ids=["start_equals_stop", "log_negative_stop", "log_negative_start"])
def test_scan_rejects_bad_sweep_before_propagating(tmp_path, capsys,
                                                  monkeypatch, sweep, message):
    def no_propagation(*args, **kwargs):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(experiments, "initial_state", no_propagation)
    monkeypatch.setattr(experiments, "propagate", no_propagation)
    cfg = tiny_tdse_config(scan=dict(sweep, kind="delay"))
    path = write_config(tmp_path, cfg)
    assert run_cli("scan", "--config", path, "--out",
                   str(tmp_path / "x")) == EXIT_CONFIG
    assert message in capsys.readouterr().err


# a scan section per CLI scan kind, and the options it must reach the scan
# function with
RERUN_SCANS = {
    "delay": ({"start": 0.0, "stop": 1.5, "count": 3}, {}),
    "power": ({"start": 6.0, "stop": 7.0, "count": 2, "n_delays": 3,
               "enhancement_fund": 2.0},
              {"n_delays": 3, "enhancement": 2.0}),
    "width": ({"start": 0.9, "stop": 1.1, "count": 2, "n_delays": 3},
              {"n_delays": 3}),
    "ratio": ({"start": 0.0, "stop": 0.1, "count": 2}, {}),
    "robustness": ({"start": 4.9, "stop": 5.3, "count": 2,
                    "parameter": "workfunction"},
                   {"parameter": "workfunction"}),
    "delay_sf": ({"start": 0.0, "stop": 1.5, "count": 2,
                  "energies_eV": [2.0, 4.0, 6.0]},
                 {"energies": [2.0, 4.0, 6.0]}),
}


def _plain(arguments):
    # arrays, tuples and JSON lists of the same numbers compare equal
    return {k: np.asarray(v).tolist() if isinstance(v, (np.ndarray, list, tuple))
            else v for k, v in arguments.items()}


def test_rerun_cases_cover_the_cli_scan_kinds():
    assert sorted(RERUN_SCANS) == sorted(SCAN_KINDS)


@pytest.mark.parametrize("kind", list(RERUN_SCANS))
def test_scan_and_rerun_call_the_same_function(tmp_path, monkeypatch, kind):
    # stand-ins below the scan functions: no propagation runs
    monkeypatch.setattr(experiments, "initial_state", lambda cfg, grid: None)
    monkeypatch.setattr(experiments, "net_delay_charge", lambda *a, **k: 1e-5)
    monkeypatch.setattr(experiments, "modulation_amplitude",
                        lambda *a, **k: 1e-4)
    monkeypatch.setattr(experiments, "_wall_charges",
                        lambda *a, **k: [(0.0, 2e-4), (0.0, 1e-4)])
    monkeypatch.setattr(experiments, "propagate",
                        lambda *a, **k: SimpleNamespace(records=[None]))
    monkeypatch.setattr(experiments, "burst_metrics", lambda *a, **k:
                        experiments.BurstMetrics(500.0, 0.0, 1.0))
    calls = []
    for spec in experiments.SCAN_KINDS.values():
        real = getattr(experiments, spec.function)

        def recorder(*args, _real=real, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_real.__name__, _plain(bound.arguments)))
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, spec.function, recorder)

    section, options = RERUN_SCANS[kind]
    path = write_config(tmp_path, tiny_tdse_config(scan=dict(section,
                                                             kind=kind)))
    out = tmp_path / kind
    assert run_cli("scan", "--config", path, "--out", str(out)) == EXIT_OK
    md = json.loads(next(out.glob(f"{kind}_*.json")).read_text())["metadata"]
    again = experiments.rerun_from_metadata(
        ScanResult("x", "u", [0.0], "y", "v", [0.0], md))

    assert len(calls) == 2
    assert calls[0][0] == experiments.SCAN_KINDS[kind].function
    assert calls[1] == calls[0]
    assert options.items() <= calls[0][1].items()
    assert config_hash(again.metadata) == config_hash(md)


@pytest.mark.parametrize("amplitudes, fit", [
    ([1e-4, 2e-4], {"decay_length": None, "r_squared": 1.0}),
    ([1e-4, 0.0], {"amplitude": None, "decay_length": None,
                   "r_squared": None}),
], ids=["growing", "zero"])
def test_width_scan_json_is_strict(tmp_path, monkeypatch, amplitudes, fit):
    # amplitudes that do not decay have no decay length, and ln 0 has no
    # fit at all: both are null, not the non-JSON tokens Infinity and NaN
    points = iter(amplitudes)
    monkeypatch.setattr(experiments, "modulation_amplitude",
                        lambda *a, **k: next(points))
    path = write_config(tmp_path, tiny_tdse_config(scan={
        "kind": "width", "start": 0.9, "stop": 1.1, "count": 2}))
    out = tmp_path / "width"
    assert run_cli("scan", "--config", path, "--out", str(out)) == EXIT_OK

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    text = next(out.glob("width_*.json")).read_text()
    md = json.loads(text, parse_constant=refuse)["metadata"]
    assert fit.items() <= md["fit"].items()


@pytest.mark.parametrize("kind, key, value, named", [
    ("ratio", "n_delays", 3, "n_delays"),
    ("delay", "parameter", "width", "parameter"),
    ("delay", "energies_eV", [2.0, 4.0], "energies_eV"),
    ("width", "enhancement_fund", 2.0, "enhancement_fund"),
], ids=["n_delays_under_ratio", "parameter_under_delay",
        "energies_under_delay", "enhancement_under_width"])
def test_scan_refuses_a_key_its_kind_does_not_take(tmp_path, capsys,
                                                  monkeypatch, kind, key,
                                                  value, named):
    def no_propagation(*args, **kwargs):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(experiments, "initial_state", no_propagation)
    monkeypatch.setattr(experiments, "propagate", no_propagation)
    path = write_config(tmp_path, tiny_tdse_config(scan={
        "kind": kind, "start": 0.0, "stop": 1.0, "count": 2, key: value}))
    out = tmp_path / "none"
    assert run_cli("scan", "--config", path, "--out", str(out)) == EXIT_CONFIG
    assert f"scan kind {kind!r} does not take scan.{named}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("recipe", [r for r in RECIPES
                                    if "scan" in load_config(r)])
def test_recipe_scan_keys_are_taken_by_their_kind(tmp_path, monkeypatch,
                                                  recipe):
    scan = load_config(recipe)["scan"]

    class Reached(Exception):
        pass

    spec = SCAN_KINDS[scan["kind"]]
    real = getattr(experiments, spec.function)

    def reached(*args, **kwargs):
        inspect.signature(real).bind(*args, **kwargs)
        raise Reached

    monkeypatch.setattr(experiments, spec.function, reached)
    with pytest.raises(Reached):
        run_cli("scan", "--config", recipe, "--out", str(tmp_path / "out"))


def test_scan_refuses_fewer_than_two_energies(tmp_path, capsys):
    path = write_config(tmp_path, tiny_tdse_config(scan={
        "kind": "delay_sf", "start": 0.0, "stop": 1.5, "count": 2,
        "energies_eV": [2.0]}))
    out = tmp_path / "none"
    assert run_cli("scan", "--config", path, "--out", str(out)) == EXIT_CONFIG
    assert "scan.energies_eV needs at least two energies" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, data, message", [
    ("scan", {"scan": {"kind": "bogus", "start": 0.0, "stop": 1.0,
                       "count": 2}}, "scan.kind must be one of"),
    ("scan", {"scan": {"kind": "delay", "start": 0.0, "stop": 1.0,
                       "count": 1}}, "scan.count must be >= 2"),
    ("saddle", {"saddle": {"energy_count": 0}},
     "saddle.energy_count must be >= 1"),
    # checks the scan functions and propagate make before they compute
    ("scan", {"scan": {"kind": "ratio", "start": 0.0, "stop": 1.5,
                       "count": 2}},
     "ratio = 1.5: ratio_eta must lie in [0, 1]"),
    ("scan", {"scan": {"kind": "robustness", "start": 4.9, "stop": 5.3,
                       "count": 2, "parameter": "bogus"}},
     "parameter must be one of"),
    ("propagate", tiny_tdse_config(propagate={"probes_nm": [500.0]}),
     "probe at 500.0 nm is outside the grid interior"),
    ("propagate", {"propagate": {"map": {"z_lo_nm": 1.0, "z_hi_nm": 1.01}}},
     "map window is narrower than one grid step"),
], ids=["scan_kind", "scan_count", "saddle_energy_count", "ratio_stop",
        "robustness_parameter", "probe_outside_grid", "map_narrower_than_dz"])
def test_dry_run_makes_the_checks_of_the_run(tmp_path, capsys, command, data,
                                             message):
    path = write_config(tmp_path, data)
    assert run_cli(command, "--config", path, "--dry-run") == EXIT_CONFIG
    assert message in capsys.readouterr().err


# junction key, a value away from the mirror-symmetric zero-bias junction,
# and what the refusal says it must equal
ASYMMETRIC_JUNCTION = [
    ("workfunction_sample_eV", 4.5, "junction.workfunction_tip_eV (5.1)"),
    ("fermi_sample_eV", 6.0, "junction.fermi_tip_eV (5.0)"),
    ("bias_V", 0.5, "0"),
]


@pytest.mark.parametrize("key, value, want", ASYMMETRIC_JUNCTION,
                         ids=[case[0] for case in ASYMMETRIC_JUNCTION])
@pytest.mark.parametrize("kind", ["delay", "power", "width", "ratio",
                                  "delay_sf"])
def test_net_current_scans_refuse_an_asymmetric_junction(
        tmp_path, capsys, monkeypatch, kind, key, value, want):
    # sample -> tip is the tip's run under the flipped laser, which parity
    # gives only for a mirror-symmetric junction at zero bias
    def no_compute(*args, **kwargs):
        raise AssertionError("a computation started")

    monkeypatch.setattr(experiments, "initial_state", no_compute)
    monkeypatch.setattr(experiments, "propagate", no_compute)
    monkeypatch.setattr(strongfield, "directional_weight", no_compute)
    section, _ = RERUN_SCANS[kind]
    path = write_config(tmp_path, tiny_tdse_config(
        junction={"width_nm": 1.0, key: value}, scan=dict(section, kind=kind)))
    out = tmp_path / "none"
    for how in (["--out", str(out)], ["--dry-run"]):
        assert run_cli("scan", "--config", path, *how) == EXIT_CONFIG
        assert (f"scan kind {kind!r} needs a mirror-symmetric junction at "
                f"zero bias: junction.{key} ({value}) must equal {want}") \
            in capsys.readouterr().err
    assert not out.exists()


def test_single_run_commands_take_an_asymmetric_junction(tmp_path):
    junction = {"width_nm": 1.0, "workfunction_sample_eV": 4.5,
                "fermi_sample_eV": 6.0, "bias_V": 0.5}
    path = write_config(tmp_path, tiny_tdse_config(junction=junction, scan={
        "kind": "robustness", "start": 5.0, "stop": 6.0, "count": 2}))
    assert run_cli("propagate", "--config", path, "--dry-run") == EXIT_OK
    assert run_cli("scan", "--config", path, "--dry-run") == EXIT_OK
    out = tmp_path / "pot"
    assert run_cli("potential", "--config", path, "--out", str(out)) == EXIT_OK


@pytest.mark.parametrize("junction", [
    {"bias_V": 2.0}, {"workfunction_sample_eV": 4.0},
], ids=["bias", "workfunction_sample"])
def test_saddle_refuses_a_gap_ramp(tmp_path, capsys, monkeypatch, junction):
    # the saddle model reads W_t and the mean image potential only
    def no_solve(*args, **kwargs):
        raise AssertionError("a saddle solve started")

    monkeypatch.setattr(strongfield, "_solve_saddles", no_solve)
    path = write_config(tmp_path, {"junction": junction})
    out = tmp_path / "sk"
    for how in (["--out", str(out)], ["--dry-run"]):
        assert run_cli("saddle", "--config", path, *how) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "saddle: junction.workfunction_sample_eV (" in err
        assert "junction.bias_V (" in err and "the model needs 0" in err
    assert not out.exists()


def test_saddle_command(tmp_path):
    cfg = {
        "junction": {"width_nm": 1.0},
        "laser": {"field_V_per_nm": 10.0},
        "saddle": {"energy_start_eV": 1.0, "energy_stop_eV": 10.0,
                   "energy_count": 10, "trajectory_energies_eV": [4.4]},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "saddle"
    assert run_cli("saddle", "--config", path, "--out", str(out)) == EXIT_OK
    sidecar = json.loads((out / "saddle.json").read_text())
    assert sidecar["cutoff_eV"] is not None
    assert max(sidecar["solutions"][0]["residuals"]) < 1e-8
    cols, _ = read_csv(out / "trajectory_E4.40eV.csv")
    assert cols["z_nm"][-1] == pytest.approx(1.0, abs=1e-3)
    phases, _ = read_csv(out / "emission_phase.csv")
    assert {"final_energy_eV", "sinh_w_im_t1", "gamma_modified",
            "gamma_standard_eta0"} <= set(phases)


def test_saddle_eta0_columns_match(tmp_path):
    cfg = {
        "junction": {"width_nm": 1.0},
        "laser": {"field_V_per_nm": 10.0, "field_ratio_eta": 0.0},
        "saddle": {"energy_start_eV": 2.0, "energy_stop_eV": 6.0,
                   "energy_count": 5, "trajectory_energies_eV": []},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sk0"
    assert run_cli("saddle", "--config", path, "--out", str(out)) == EXIT_OK
    cols, _ = read_csv(out / "emission_phase.csv")
    assert np.array_equal(cols["gamma_modified"], cols["gamma_standard_eta0"])


@pytest.mark.parametrize("config, message", [
    ({"saddle": {"energy_count": 0}}, "saddle.energy_count must be >= 1"),
    ({"junction": {"workfunction_tip_eV": 0.9}},
     "saddle: junction.workfunction_tip_eV (0.9) must exceed"),
], ids=["energy_count", "workfunction_tip"])
def test_saddle_rejects_bad_section_before_solving(tmp_path, capsys,
                                                  monkeypatch, config, message):
    # the 1 nm junction's mean image potential is 0.998 eV
    def no_solve(*args, **kwargs):
        raise AssertionError("a saddle solve started")

    monkeypatch.setattr(strongfield, "_solve_saddles", no_solve)
    path = write_config(tmp_path, config)
    out = tmp_path / "sk"
    assert run_cli("saddle", "--config", path, "--out", str(out)) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_saddle_refuses_zero_field_before_solving(tmp_path, capsys,
                                                 monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a saddle solve started")

    monkeypatch.setattr(strongfield, "_solve_saddles", no_solve)
    path = write_config(tmp_path, {"laser": {"field_V_per_nm": 0}})
    out = tmp_path / "sk"
    assert run_cli("saddle", "--config", path, "--out", str(out)) == EXIT_CONFIG
    assert "laser.field_V_per_nm must be > 0, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("energies, name", [
    ([4.401, 4.404], "trajectory_E4.40eV.csv"),
    ([0.0, 4.4, 4.4], "trajectory_E4.40eV.csv"),
], ids=["same_name", "duplicate"])
def test_saddle_refuses_trajectory_energies_sharing_a_file(
        tmp_path, capsys, monkeypatch, energies, name):
    # each trajectory is written to its own CSV; energies that round to
    # one file name would overwrite each other
    def no_solve(*args, **kwargs):
        raise AssertionError("a saddle solve started")

    monkeypatch.setattr(strongfield, "_solve_saddles", no_solve)
    path = write_config(tmp_path, {"saddle": {
        "trajectory_energies_eV": energies}})
    out = tmp_path / "sk"
    code = run_cli("saddle", "--config", path, "--out", str(out))
    assert code == EXIT_CONFIG
    first, second = energies[-2:]
    assert (f"saddle.trajectory_energies_eV: {first} and {second} both write "
            f"{name}") in capsys.readouterr().err
    assert not out.exists()


def test_scan_names_the_invalid_sweep_point(tmp_path, capsys, monkeypatch):
    def no_propagation(*args, **kwargs):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(experiments, "initial_state", no_propagation)
    monkeypatch.setattr(experiments, "propagate", no_propagation)
    cfg = tiny_tdse_config(
        scan={"kind": "ratio", "start": 0.0, "stop": 1.5, "count": 2})
    path = write_config(tmp_path, cfg)
    assert run_cli("scan", "--config", path, "--out",
                   str(tmp_path / "x")) == EXIT_CONFIG
    assert ("ratio = 1.5: ratio_eta must lie in [0, 1]"
            in capsys.readouterr().err)


def test_saddle_failure_is_compute_failure(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise strongfield.SaddleConvergenceError("singular Jacobian")

    monkeypatch.setattr(strongfield, "emission_phase_curve", fail)
    path = write_config(tmp_path, {"saddle": {"energy_count": 3}})
    out = tmp_path / "sk"
    assert run_cli("saddle", "--config", path, "--out", str(out)) \
        == EXIT_COMPUTE
    assert "saddle failed: singular Jacobian" in capsys.readouterr().err
    assert not out.exists()


# -Vbar of the default junction, the lowest final energy a saddle can reach
MINUS_VBAR = -mean_image_magnitude(JunctionConfig())


@pytest.mark.parametrize("saddle, key", [
    ({"energy_start_eV": -3.0}, "energy_start_eV"),
    ({"energy_start_eV": MINUS_VBAR}, "energy_start_eV"),
    ({"energy_stop_eV": -1.5}, "energy_stop_eV"),
    ({"trajectory_energies_eV": [4.4, -1.2]}, "trajectory_energies_eV"),
], ids=["start_below", "start_at", "stop_below", "trajectory_below"])
def test_saddle_rejects_final_energy_at_or_below_minus_vbar(
        tmp_path, capsys, monkeypatch, saddle, key):
    def no_solve(*args, **kwargs):
        raise AssertionError("a saddle solve started")

    monkeypatch.setattr(strongfield, "_solve_saddles", no_solve)
    path = write_config(tmp_path, {"saddle": saddle})
    out = tmp_path / "sk"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("saddle", "--config", path,
                       "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"saddle.{key} (" in err
    assert f"mean image potential, {MINUS_VBAR:.4f} eV" in err
    assert not out.exists()


def lockin_input(tmp_path):
    tau = np.linspace(-20, 20, 256)
    sig = np.cos(2.04 * tau) * np.exp(-(tau**2) / 72.0)
    path = tmp_path / "current.csv"
    write_csv(path, {"delay_fs": tau, "value_re": sig})
    return path, tau, sig


def test_lockin_forward_invert_round_trip(tmp_path):
    src, tau, sig = lockin_input(tmp_path)
    cfg = {"lockin": {"input_csv": str(src), "delta_fs": 0.6, "beta": 0.02}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "lk"
    assert run_cli("lockin", "--config", path, "--mode", "forward",
                   "--out", str(out)) == EXIT_OK
    fwd = out / "lockin_forward.csv"
    cfg2 = {"lockin": {"input_csv": str(fwd), "delta_fs": 0.6, "beta": 0.02}}
    path2 = write_config(tmp_path, cfg2, "cfg2.yaml")
    assert run_cli("lockin", "--config", path2, "--mode", "invert",
                   "--out", str(out)) == EXIT_OK
    cols, comments = read_csv(out / "lockin_inverted.csv")
    assert comments["delta_fs"] == "0.6"
    ref = np.interp(cols["delay_fs"], tau, sig)
    ref -= ref.mean()
    err = np.linalg.norm(cols["value_re"] - ref) / np.linalg.norm(ref)
    assert err < 0.05


def test_lockin_forward_of_constant_is_zero(tmp_path):
    tau = np.linspace(-10, 10, 128)
    src = tmp_path / "const.csv"
    write_csv(src, {"delay_fs": tau, "value_re": np.full(tau.size, 4.2)})
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    out = tmp_path / "lkc"
    assert run_cli("lockin", "--config", path, "--mode", "forward",
                   "--out", str(out)) == EXIT_OK
    cols, _ = read_csv(out / "lockin_forward.csv")
    assert np.max(np.hypot(cols["value_re"], cols["value_im"])) < 1e-10


def test_lockin_rejects_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("# note: header only\ndelay_fs,value_re\n")
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    assert run_cli("lockin", "--config", path, "--mode", "forward",
                   "--out", str(tmp_path / "x")) == EXIT_CONFIG
    assert f"{src}: no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ("1.0,2.0\n2.0,3.0,4.0\n", "line 4: 3 cells, the header has 2"),
    ("1.0,2.0\n2.0,abc\n", "line 4: could not convert string to float"),
], ids=["ragged", "not_a_number"])
def test_lockin_names_the_file_and_line_of_a_bad_row(tmp_path, capsys, rows,
                                                     message):
    src = tmp_path / "bad.csv"
    src.write_text("# note: one comment\ndelay_fs,value_re\n" + rows)
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    out = tmp_path / "x"
    assert run_cli("lockin", "--config", path, "--mode", "forward",
                   "--out", str(out)) == EXIT_CONFIG
    assert f"{src}, {message}" in capsys.readouterr().err
    assert not out.exists()


def test_lockin_missing_input_is_io_failure(tmp_path, capsys):
    src = tmp_path / "absent.csv"
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    out = tmp_path / "x"
    assert run_cli("lockin", "--config", path, "--mode", "forward",
                   "--out", str(out)) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error:" in err and str(src) in err
    assert not out.exists()


def test_lockin_forward_names_missing_value_column(tmp_path, capsys):
    src = tmp_path / "current.csv"
    write_csv(src, {"delay_fs": np.linspace(-10, 10, 64),
                    "current": np.ones(64)})
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    assert run_cli("lockin", "--config", path, "--mode", "forward",
                   "--out", str(tmp_path / "x")) == EXIT_CONFIG
    assert "needs a value_re (or value) column" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["invert", "select-beta"])
def test_lockin_complex_modes_name_missing_value_columns(tmp_path, capsys, mode):
    # a forward-mode input (delay_fs, value) carries no lock-in trace
    src = tmp_path / "current.csv"
    write_csv(src, {"delay_fs": np.linspace(-10, 10, 64),
                    "value": np.ones(64)})
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src)}})
    out = tmp_path / "x"
    assert run_cli("lockin", "--config", path, "--mode", mode,
                   "--out", str(out)) == EXIT_CONFIG
    assert "needs a value_re or value_im column" in capsys.readouterr().err
    assert not any(out.glob("lockin_*"))


@pytest.mark.parametrize("columns, beta", [
    ({"value": np.ones(64)}, 0.02),                  # a forward-mode input
    ({"value_re": np.ones(64), "value_im": np.zeros(64)}, 0.9),  # bad beta
])
def test_lockin_rejected_invert_leaves_no_out_dir(tmp_path, columns, beta):
    src = tmp_path / "trace.csv"
    write_csv(src, {"delay_fs": np.linspace(-10, 10, 64), **columns})
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src),
                                              "beta": beta}})
    out = tmp_path / "never"
    assert run_cli("lockin", "--config", path, "--mode", "invert",
                   "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("mode, columns", [
    ("forward", ("value_re",)),
    ("invert", ("value_re", "value_im")),
    ("select-beta", ("value_re", "value_im")),
])
def test_lockin_refuses_a_nan_row(tmp_path, capsys, mode, columns):
    values = np.ones(64)
    values[21] = np.nan
    src = tmp_path / "trace.csv"
    write_csv(src, {"delay_fs": np.linspace(-10, 10, 64),
                    **{c: values for c in columns}})
    path = write_config(tmp_path, {"lockin": {"input_csv": str(src),
                                              "noise_estimate": 0.01}})
    out = tmp_path / "never"
    assert run_cli("lockin", "--config", path, "--mode", mode,
                   "--out", str(out)) == EXIT_CONFIG
    assert "values must be finite; index 21" in capsys.readouterr().err
    assert not out.exists()


_ONE_SHOT_MODULES = """
import json, sys
from pathlib import Path
import numpy as np
from attostm.cli import main
from attostm.results import write_csv
out = Path(sys.argv[1])
assert main(["saddle", "--config", "figSK", "--out", str(out / "sk")]) == 0
tau = np.linspace(-20, 20, 401)
write_csv(out / "current.csv", {"delay_fs": tau, "value_re": np.cos(2 * tau)})
for mode, src in (("forward", "current.csv"),
                  ("select-beta", "lockin_forward.csv"),
                  ("invert", "lockin_forward.csv")):
    cfg = out / f"{mode}.yaml"
    cfg.write_text(json.dumps({"lockin": {"input_csv": str(out / src),
                                          "noise_estimate": 0.01}}))
    assert main(["lockin", "--config", str(cfg), "--mode", mode,
                 "--out", str(out)]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.interpolate", "scipy.optimize")))))
"""


def test_saddle_and_lockin_round_trip_skip_interpolate_and_optimize(tmp_path):
    # scipy.interpolate pulls in scipy.optimize, scipy.sparse.linalg and
    # scipy.spatial: ~19 MB of resident memory and 0.15 s for a one-shot
    # lock-in run
    src = str(Path(attostm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _ONE_SHOT_MODULES,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == []


_TDSE_MODULES = """
import json, sys
import attostm.cli, attostm.experiments
from attostm.config import JunctionConfig, LaserConfig
from attostm.grid import GridSpec, bandwidth_steps
from attostm.potential import sample_static_profile
from attostm.solver import propagate
dz, dt = bandwidth_steps(50.0)
grid = GridSpec(-20.0, 20.0, dz, dt, 50.0)
sample_static_profile(JunctionConfig(), grid.z)
laser = LaserConfig(field_F1=6.0, duration_tau1=4.0, duration_tau2=5.0)
res = propagate(JunctionConfig(), laser, grid, -25.0, -24.0, probes=(None,))
assert res.tip_cut_nm > grid.z_min  # the tip's sine modes were used
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.special", "scipy.fft")))))
"""


def test_tdse_run_skips_scipy_special_and_fft():
    # a TDSE run needs one digamma on (0, 1) and one DST-I, both computed
    # in attostm; scipy.special and scipy.fft add ~5 MB of resident memory
    src = str(Path(attostm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _TDSE_MODULES], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == []


_FIRST_USE = """
import sys
import numpy as np
from attostm.config import JunctionConfig, LaserConfig
from attostm.lockin import (DelayTrace, ModulationSpec, forward_lockin,
                            select_beta)
from attostm.strongfield import emission_phase_curve
assert "scipy.special" not in sys.modules
if sys.argv[1] == "emission_phase_curve":
    got = emission_phase_curve(np.arange(1.0, 4.0, 0.5),
                               LaserConfig(field_F1=10.0), JunctionConfig())
else:
    tau = np.linspace(-20.0, 20.0, 401)
    mod = ModulationSpec()
    got = select_beta(forward_lockin(DelayTrace(tau, np.cos(2 * tau)), mod),
                      mod, 0.01)
assert "scipy.special" in sys.modules
print(repr(np.asarray(got).tolist()))
"""


@pytest.mark.parametrize("call", ["emission_phase_curve", "select_beta"])
def test_scipy_special_loads_on_first_use(call):
    src = str(Path(attostm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _FIRST_USE, call], env=env,
                         capture_output=True, text=True, check=True)
    if call == "emission_phase_curve":
        want = strongfield.emission_phase_curve(
            np.arange(1.0, 4.0, 0.5), LaserConfig(field_F1=10.0),
            JunctionConfig())
    else:
        tau = np.linspace(-20.0, 20.0, 401)
        mod = ModulationSpec()
        want = select_beta(forward_lockin(DelayTrace(tau, np.cos(2 * tau)),
                                          mod), mod, 0.01)
    assert run.stdout.splitlines()[-1] == repr(np.asarray(want).tolist())


def test_write_csv_rows_span_its_row_blocks(tmp_path):
    # 2 blocks of _CSV_ROWS and a partial third, against row-by-row text
    n = 2 * results._CSV_ROWS + 3
    rng = np.random.default_rng(3)
    columns = {"t": np.arange(n) * 0.1, "a": rng.normal(size=n),
               "b": rng.normal(size=n) * 1e-300}
    path = tmp_path / "table.csv"
    write_csv(path, columns, {"k": "v"})
    rows = zip(*(col.tolist() for col in columns.values()))
    want = "# k: v\nt,a,b\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows)
    assert path.read_text() == want


def test_lockin_beta_out_of_range(tmp_path, capsys):
    src, *_ = lockin_input(tmp_path)
    cfg = {"lockin": {"input_csv": str(src), "beta": 0.9}}
    path = write_config(tmp_path, cfg)
    code = run_cli("lockin", "--config", path, "--mode", "invert",
                   "--out", str(tmp_path / "x"))
    assert code == EXIT_CONFIG
    assert "0.5819" in capsys.readouterr().err  # names the valid interval


def test_lockin_select_beta(tmp_path):
    src, *_ = lockin_input(tmp_path)
    cfg = {"lockin": {"input_csv": str(src), "noise_estimate": 0.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "beta"
    assert run_cli("lockin", "--config", path, "--mode", "select-beta",
                   "--out", str(out)) == EXIT_OK
    payload = json.loads((out / "lockin_beta.json").read_text())
    assert payload["beta"] == 0.02
