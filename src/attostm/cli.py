"""Command-line front-end: validated YAML configs, experiment subcommands,
CSV/JSON artifacts.

Every physical quantity in a config carries its unit in the key name.
Unknown keys are hard errors; a junction or laser key left out keeps its
dataclass default. Exit codes: 0 success, 2 config/validation failure,
3 compute failure, 4 I/O failure. The output directory is created by the
first write, so a run rejected before it leaves none behind.
"""

import argparse
import json
import sys
import time
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from . import __version__, experiments, kernels, lockin as lockin_mod, strongfield
from ._fork import LostRunError
from .config import JunctionConfig, LaserConfig
from .experiments import SCAN_KINDS
from .grid import desk_grid, reference_grid
from .laser import effective_keldysh, field_crest_time
from .potential import (clamp_level, laser_interaction, mean_image_magnitude,
                        sample_static_profile, static_potential)
from .results import (config_snapshot, record_to_csv, read_csv, save_scan,
                      state_to_json, write_csv, write_json)
from .solver import MapSpec, SolverError, check_run, propagate
from .strongfield import SaddleConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

RECIPES = ("fig3a", "fig4a", "fig4bc", "figSK", "figDecay", "figDirect",
           "figVariation")
LOCKIN_MODES = ("forward", "invert", "select-beta")


class ConfigError(ValueError):
    pass


# YAML key -> dataclass field, for the sections that build one dataclass
_JUNCTION_KEYS = {
    "width_nm": "width_d", "workfunction_tip_eV": "workfunction_tip",
    "workfunction_sample_eV": "workfunction_sample",
    "fermi_tip_eV": "fermi_tip", "fermi_sample_eV": "fermi_sample",
    "bias_V": "bias_Us",
}
_LASER_KEYS = {
    "field_V_per_nm": "field_F1", "field_ratio_eta": "ratio_eta",
    "wavelength_nm": "wavelength", "duration_fund_fwhm_fs": "duration_tau1",
    "duration_sh_fwhm_fs": "duration_tau2", "base_delay_fs": "base_delay_tau0",
    "field_sign": "field_sign",
}


def _field_types(cls, keys):
    hints = get_type_hints(cls)
    return {key: hints[name] for key, name in keys.items()}


# schema: nested mapping of allowed keys -> type, [element type] for a
# list, or a nested dict
_SCHEMA = {
    "junction": _field_types(JunctionConfig, _JUNCTION_KEYS),
    "laser": _field_types(LaserConfig, _LASER_KEYS),
    "grid": {"preset": str, "z_min_nm": float, "z_max_nm": float,
             "dz_pm": float, "dt_as": float},
    "propagate": {
        "t_start_fs": float, "t_end_fs": float, "probes_nm": [float],
        "map": {"z_lo_nm": float, "z_hi_nm": float, "stride": int},
    },
    "scan": {
        "kind": str, "start": float, "stop": float, "count": int,
        "spacing": str, **{key: want for spec in SCAN_KINDS.values()
                           for key, (_, want) in spec.options.items()},
    },
    "saddle": {
        "energy_start_eV": float, "energy_stop_eV": float, "energy_count": int,
        "trajectory_energies_eV": [float],
    },
    "lockin": {"input_csv": str, "delta_fs": float, "beta": float,
               "noise_estimate": float},
    "potential": {"snapshot_times_fs": [float]},
    "output_dir": str,
}


def _check_value(val, want, here):
    if isinstance(want, list):
        if not isinstance(val, list):
            raise ConfigError(f"{here}: expected a list, got "
                              f"{type(val).__name__} {val!r}")
        for i, item in enumerate(val):
            _check_value(item, want[0], f"{here}[{i}]")
        return
    # an int stands in for a float; a bool is never a number
    if isinstance(val, bool):
        ok = want is bool
    elif want is float:
        ok = isinstance(val, (int, float))
    else:
        ok = isinstance(val, want)
    if not ok:
        raise ConfigError(f"{here}: expected {want.__name__}, got "
                          f"{type(val).__name__} {val!r}")


def _check_keys(data, schema, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    for key, val in data.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {here}")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_keys(val, sub, here)
        else:
            _check_value(val, sub, here)


def load_config(source: str) -> dict:
    """Load a YAML config from a path or a packaged figure recipe name."""
    p = Path(source)
    if p.exists():
        text = p.read_text()
    elif source in RECIPES:
        text = resources.files("attostm").joinpath(
            f"recipes/{source}.yaml").read_text()
    else:
        raise ConfigError(f"config not found: {source!r} "
                          f"(recipes: {', '.join(RECIPES)})")
    try:
        data = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {source}: {exc}") from None
    _check_keys(data, _SCHEMA)
    return data


def build_junction(data) -> JunctionConfig:
    return JunctionConfig(**{_JUNCTION_KEYS[k]: v
                             for k, v in data.get("junction", {}).items()})


def build_laser(data) -> LaserConfig:
    return LaserConfig(**{_LASER_KEYS[k]: v
                          for k, v in data.get("laser", {}).items()})


# grid preset -> grid factory: the preset alone picks the absorber
_PRESETS = {"reference": reference_grid, "desk": desk_grid}


def build_grid(data, preset_override=None):
    g = data.get("grid", {})
    preset = preset_override or g.get("preset", "desk")
    if preset not in _PRESETS:
        raise ConfigError(f"grid.preset must be one of {', '.join(_PRESETS)}, "
                          f"got {preset!r}")
    grid = _PRESETS[preset]()
    if {"z_min_nm", "z_max_nm", "dz_pm", "dt_as"} & set(g):
        grid = replace(grid, z_min=g.get("z_min_nm", grid.z_min),
                       z_max=g.get("z_max_nm", grid.z_max),
                       dz=g.get("dz_pm", grid.dz * 1e3) * 1e-3,
                       dt=g.get("dt_as", grid.dt * 1e3) * 1e-3)
    return grid


def _refuse_asymmetry(cfg: JunctionConfig, kind: str):
    """A net-current scan takes sample -> tip as the tip's run under the
    flipped laser, which by parity holds only for a mirror-symmetric
    junction at zero bias."""
    for key, other in (("workfunction_sample_eV", "workfunction_tip_eV"),
                       ("fermi_sample_eV", "fermi_tip_eV"), ("bias_V", None)):
        have = getattr(cfg, _JUNCTION_KEYS[key])
        want = 0.0 if other is None else getattr(cfg, _JUNCTION_KEYS[other])
        if have != want:
            raise ConfigError(
                f"scan kind {kind!r} needs a mirror-symmetric junction at zero "
                f"bias: junction.{key} ({have}) must equal "
                + ("0" if other is None else f"junction.{other} ({want})"))


def _dry_run(snapshot) -> int:
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return EXIT_OK


# A command gets the YAML, the output directory, the parsed arguments, the
# (junction, laser, grid) main built once, and their snapshot. It
# makes every check before it computes, and under --dry-run it stops there.

def cmd_potential(data, out_dir, args, configs, snapshot) -> int:
    if args.dry_run:
        return _dry_run(snapshot)
    cfg, laser, grid = configs
    profile = sample_static_profile(cfg, grid.z)
    columns = {"z_nm": profile.grid_z, "V0_eV": profile.values}
    for t in data.get("potential", {}).get("snapshot_times_fs", []):
        total = profile.values + laser_interaction(cfg, laser, profile.grid_z, t)
        columns[f"V_total_eV_t{t}fs"] = total
    write_csv(out_dir / "potential_profile.csv", columns,
              {"code_version": __version__})
    checks = {
        "tip_plateau_eV": float(static_potential(cfg, grid.z_min / 2)),
        "sample_plateau_eV": float(static_potential(cfg, grid.z_max / 2 + cfg.width_d)),
        "clamp_level_eV": clamp_level(cfg),
        "mean_image_eV": mean_image_magnitude(cfg),
        "all_finite": bool(np.all(np.isfinite(profile.values))),
    }
    write_json(out_dir / "potential_profile.json",
               {"config": snapshot, "checks": checks})
    print(f"wrote {out_dir / 'potential_profile.csv'}")
    return EXIT_OK


def cmd_propagate(data, out_dir, args, configs, snapshot) -> int:
    cfg, laser, grid = configs
    p = data.get("propagate", {})
    t0, t1 = experiments.default_time_span(laser)
    t0 = p.get("t_start_fs", t0)
    t1 = p.get("t_end_fs", t1)
    probes = p.get("probes_nm", [cfg.width_d])
    map_spec = None
    if "map" in p:
        m = p["map"]
        map_spec = MapSpec(z_lo=m.get("z_lo_nm", -1.0),
                           z_hi=m.get("z_hi_nm", cfg.width_d + 1.0),
                           stride=m.get("stride", 8))
    check_run(cfg, grid, t0, t1, probes, map_spec)
    if args.dry_run:
        return _dry_run(snapshot)
    started = time.perf_counter()
    try:
        # record the run's warnings (reflection risk) for the sidecar, then
        # emit them as usual, also when the run fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = propagate(cfg, laser, grid, t0, t1, probes=probes,
                            map_spec=map_spec)
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    for rec in res.records:
        record_to_csv(rec, out_dir / f"current_z{rec.probe_z:+.3f}nm.csv",
                      {"code_version": __version__})
    if res.map is not None:
        cols = {"time_fs": res.map.times}
        for k, z in enumerate(res.map.z):
            cols[f"j_per_fs_z{z:+.4f}nm"] = res.map.j[:, k]
        write_csv(out_dir / "current_density_map.csv", cols,
                  {"code_version": __version__})
    state_to_json(res.final_state, out_dir / "final_state.json")
    write_json(out_dir / "propagation.json", {
        "config": snapshot,
        "t_start_fs": t0, "t_end_fs": t1,
        "norm_initial": res.norm_initial, "norm_final": res.norm_final,
        "norm_drift": res.norm_final - res.norm_initial,
        "max_solve_residual": res.max_residual,
        "tip_cut_nm": res.tip_cut_nm, "sample_block_nm": res.sample_block_nm,
        "stepped_points": res.stepped_points,
        "backend": kernels.default_backend_name(),
        "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                     for w in caught],
        "wall_time_s": time.perf_counter() - started})
    print(f"wrote {len(res.records)} record(s) to {out_dir}")
    return EXIT_OK


def _sweep_values(scan: dict):
    if not {"start", "stop", "count"} <= set(scan):
        raise ConfigError("scan needs start, stop, count")
    n = int(scan["count"])
    if n < 2:
        raise ConfigError("scan.count must be >= 2")
    start, stop = scan["start"], scan["stop"]
    if start == stop:
        raise ConfigError(f"scan.start and scan.stop must differ (both {start})")
    spacing = scan.get("spacing", "linear")
    if spacing == "linear":
        return np.linspace(start, stop, n)
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log spacing needs positive start and stop")
        return np.geomspace(start, stop, n)
    raise ConfigError(f"scan.spacing must be linear or log, got {spacing!r}")


def cmd_scan(data, out_dir, args, configs, snapshot) -> int:
    cfg, laser, grid = configs
    scan = data.get("scan", {})
    kind = args.kind or scan.get("kind")
    if kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind must be one of {', '.join(SCAN_KINDS)} "
                          f"(got {kind!r})")
    values = _sweep_values(scan)
    taken = SCAN_KINDS[kind].options
    offered = {key for spec in SCAN_KINDS.values() for key in spec.options}
    refused = sorted(f"scan.{key}" for key in offered & set(scan) - set(taken))
    if refused:
        raise ConfigError(f"scan kind {kind!r} does not take "
                          f"{', '.join(refused)}")
    if SCAN_KINDS[kind].net:
        _refuse_asymmetry(cfg, kind)
    # options left out keep the scan function's defaults
    options = {keyword: scan[key] for key, (keyword, _) in taken.items()
               if key in scan}
    experiments.check_sweep(kind, cfg, laser, values, **options)
    if args.dry_run:
        return _dry_run(snapshot)
    started = time.perf_counter()
    result = experiments.run_scan(kind, cfg, laser, grid, values, **options)
    result.metadata["wall_time_s"] = time.perf_counter() - started
    csv_path, _ = save_scan(result, out_dir)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_saddle(data, out_dir, args, configs, snapshot) -> int:
    cfg, laser, _ = configs
    if laser.field_F1 == 0:  # the saddle model needs a field
        raise ConfigError("saddle: laser.field_V_per_nm must be > 0, got 0")
    s = data.get("saddle", {})
    # the electron starts at the tip's Fermi level, -W_t
    binding = cfg.workfunction_tip
    vbar = mean_image_magnitude(cfg)
    if binding <= vbar:
        raise ConfigError(f"saddle: junction.workfunction_tip_eV ({binding}) "
                          f"must exceed the junction's mean image potential "
                          f"{vbar:.4f} eV")
    if cfg.gap_ramp_eV != 0:  # the saddle model has no gap ramp
        raise ConfigError(
            f"saddle: junction.workfunction_sample_eV "
            f"({cfg.workfunction_sample}), junction.workfunction_tip_eV "
            f"({cfg.workfunction_tip}) and junction.bias_V ({cfg.bias_Us}) "
            f"make a gap ramp of {cfg.gap_ramp_eV} eV; the model needs 0")
    count = s.get("energy_count", 55)
    if count < 1:
        raise ConfigError(f"saddle.energy_count must be >= 1, got {count}")
    start = s.get("energy_start_eV", 0.5)
    stop = s.get("energy_stop_eV", 14.0)
    trajectory_energies = s.get("trajectory_energies_eV", [0.0, 4.4, 6.7])
    # the saddle condition k(t2) = sqrt(2m(E + Vbar)) needs E > -Vbar
    for key, values in (("energy_start_eV", [start]), ("energy_stop_eV", [stop]),
                        ("trajectory_energies_eV", trajectory_energies)):
        for e in values:
            if e <= -vbar:
                raise ConfigError(f"saddle.{key} ({e}) must exceed minus the "
                                  f"junction's mean image potential, "
                                  f"{-vbar:.4f} eV")
    # trajectory CSV name -> energy: two energies must not share a file
    files = {}
    for e in trajectory_energies:
        name = f"trajectory_E{e:.2f}eV.csv"
        if name in files:
            raise ConfigError(f"saddle.trajectory_energies_eV: {files[name]} "
                              f"and {e} both write {name}")
        files[name] = e
    if args.dry_run:
        return _dry_run(snapshot)
    energies = np.linspace(start, stop, count)
    phases = strongfield.emission_phase_curve(energies, laser, cfg)
    cutoff = strongfield.cutoff_energy(laser, cfg)
    trajectories = {}
    solutions = []
    for name, e in files.items():
        sol = strongfield.solve_saddle(float(e), laser, cfg)
        trajectories[name] = strongfield.trajectory(sol)
        r1, r2, r3 = sol.residuals()
        solutions.append({
            "final_energy_eV": float(e),
            "t1_fs": [sol.t1.real, sol.t1.imag],
            "t2_fs": [sol.t2.real, sol.t2.imag],
            "p_tilde": [sol.p_tilde.real, sol.p_tilde.imag],
            "mean_image_eV": vbar,
            "residuals": [r1, r2, r3]})
    gamma_mod = effective_keldysh(laser, binding - vbar)
    gamma_std = effective_keldysh(replace(laser, ratio_eta=0.0), binding - vbar)
    write_csv(out_dir / "emission_phase.csv",
              {"final_energy_eV": energies,
               "sinh_w_im_t1": phases,
               "gamma_modified": np.full(energies.size, gamma_mod),
               "gamma_standard_eta0": np.full(energies.size, gamma_std)},
              {"code_version": __version__})
    for name, tr in trajectories.items():
        write_csv(out_dir / name, {"time_fs": tr.times, "z_nm": tr.positions},
                  {"final_energy_eV": repr(tr.final_energy_E)})
    write_json(out_dir / "saddle.json", {
        "config": snapshot,
        "binding_eV": binding, "mean_image_eV": vbar,
        "gamma_modified": gamma_mod, "gamma_standard_eta0": gamma_std,
        "cutoff_eV": cutoff,
        "drift_energy_bound_eV": strongfield.drift_energy_bound(laser),
        "crest_time_fs": field_crest_time(laser),
        "solutions": solutions})
    print(f"cutoff: {cutoff} eV; wrote {out_dir / 'emission_phase.csv'}")
    return EXIT_OK


def cmd_lockin(data, out_dir, args, configs, snapshot) -> int:
    l = data.get("lockin", {})
    if "input_csv" not in l:
        raise ConfigError("lockin.input_csv is required")
    mod = lockin_mod.ModulationSpec(l["delta_fs"]) if "delta_fs" in l \
        else lockin_mod.ModulationSpec()
    beta = l.get("beta", lockin_mod.DEFAULT_BETA)
    columns, _ = read_csv(l["input_csv"])
    if "delay_fs" not in columns:
        raise ConfigError("input CSV needs a delay_fs column")
    delays = columns["delay_fs"]
    if args.mode == "forward":
        values = columns.get("value_re", columns.get("value"))
        if values is None:
            raise ConfigError("input CSV needs a value_re (or value) column")
        trace = lockin_mod.DelayTrace(delays, values, kind="physical_current")
    else:
        if "value_re" not in columns and "value_im" not in columns:
            raise ConfigError("input CSV needs a value_re or value_im column")
        zeros = np.zeros(delays.size)
        trace = lockin_mod.DelayTrace(
            delays,
            columns.get("value_re", zeros) + 1j * columns.get("value_im", zeros),
            kind="lockin_complex")
    if args.dry_run:
        return _dry_run(snapshot)
    meta = {"delta_fs": mod.amplitude_delta, "beta": beta,
            "transform_convention": "forward e^{-i omega tau}",
            "code_version": __version__}
    if args.mode == "forward":
        out = lockin_mod.forward_lockin(trace, mod)
        write_csv(out_dir / "lockin_forward.csv",
                  {"delay_fs": out.delays, "value_re": out.values.real,
                   "value_im": out.values.imag}, meta)
        print(f"wrote {out_dir / 'lockin_forward.csv'}")
    elif args.mode == "invert":
        rec = lockin_mod.reconstruct(trace, mod, beta)
        write_csv(out_dir / "lockin_inverted.csv",
                  {"delay_fs": rec.delays, "value_re": rec.values,
                   "value_im": np.zeros(rec.values.size)}, meta)
        print(f"wrote {out_dir / 'lockin_inverted.csv'}")
    else:
        beta_sel = lockin_mod.select_beta(trace, mod,
                                          l.get("noise_estimate", 0.0))
        write_json(out_dir / "lockin_beta.json", dict(meta, beta=beta_sel))
        print(f"selected beta: {beta_sel}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attostm",
        description="Attosecond STM junction currents: TDSE solver, "
                    "strong-field model, lock-in reconstruction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, run in (
            ("potential", "write static potential profiles", cmd_potential),
            ("propagate", "full TDSE propagation with probes", cmd_propagate),
            ("scan", "parameter sweeps", cmd_scan),
            ("saddle", "strong-field saddle-point outputs", cmd_saddle),
            ("lockin", "lock-in forward model / reconstruction", cmd_lockin)):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True,
                       help="YAML config path or recipe name "
                            f"({', '.join(RECIPES)})")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--preset", choices=tuple(_PRESETS), default=None)
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the resolved config only")
        if name == "scan":
            p.add_argument("--kind", choices=tuple(SCAN_KINDS))
        if name == "lockin":
            p.add_argument("--mode", choices=LOCKIN_MODES, required=True)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        data = load_config(args.config)
        configs = (build_junction(data), build_laser(data),
                   build_grid(data, args.preset))
        snapshot = config_snapshot(*configs, output_dir=data.get("output_dir", "out"))
        out_dir = Path(args.out or data.get("output_dir", "out"))
        return args.run(data, out_dir, args, configs, snapshot)
    except (SolverError, SaddleConvergenceError, LostRunError,
            experiments.BurstError, experiments.DirectionalityError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
