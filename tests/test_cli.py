import inspect
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from attostm import cli, experiments, strongfield
from attostm.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_IO, EXIT_OK, RECIPES,
                         SCAN_KINDS, build_grid, load_config, main)
from attostm.config import JunctionConfig
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


def test_workers_key_is_rejected(tmp_path, capsys):
    path = write_config(tmp_path, tiny_tdse_config(workers=2))
    assert run_cli("potential", "--config", path, "--dry-run") == EXIT_CONFIG
    assert "unknown config key: workers" in capsys.readouterr().err


def test_declared_types_are_enforced(tmp_path, capsys):
    for bad, key in (({"junction": {"width_nm": "abc"}}, "junction.width_nm"),
                     ({"laser": {"field_V_per_nm": True}},
                      "laser.field_V_per_nm"),
                     ({"scan": {"count": 2.5}}, "scan.count"),
                     ({"propagate": {"snapshot_final_state": 1}},
                      "propagate.snapshot_final_state"),
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
    ({"map": {"z_lo_nm": 1.0, "z_hi_nm": 1.0}}, "z_lo < z_hi"),
    ({"map": {"z_lo_nm": -1.0, "z_hi_nm": 2.0, "stride": 0}}, "stride"),
], ids=["probe_off_grid", "empty_map", "zero_stride"])
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
    cfg["propagate"] = {"t_start_fs": -25.0, "t_end_fs": 10.0,
                        "snapshot_final_state": False}
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
    assert sidecar["stepped_points"] \
        == round((20.0 - sidecar["tip_cut_nm"]) / dz) - 1
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
              {"n_delays": 3, "enhancement": [2.0, 1.0]}),
    "width": ({"start": 0.9, "stop": 1.1, "count": 2, "n_delays": 3},
              {"n_delays": 3}),
    "ratio": ({"start": 0.0, "stop": 0.1, "count": 2}, {}),
    "robustness": ({"start": 4.9, "stop": 5.3, "count": 2,
                    "parameter": "workfunction"},
                   {"parameter": "workfunction"}),
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


@pytest.mark.parametrize("saddle, message", [
    ({"energy_count": 0}, "saddle.energy_count must be >= 1"),
    ({"binding_eV": 0.5}, "saddle.binding_eV (0.5) must exceed"),
], ids=["energy_count", "binding"])
def test_saddle_rejects_bad_section_before_solving(tmp_path, capsys,
                                                  monkeypatch, saddle, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a saddle solve started")

    monkeypatch.setattr(strongfield, "_solve_saddles", no_solve)
    path = write_config(tmp_path, {"saddle": saddle})
    out = tmp_path / "sk"
    assert run_cli("saddle", "--config", path, "--out", str(out)) == EXIT_CONFIG
    assert message in capsys.readouterr().err
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
