"""Command-line front-end: validated YAML configs, experiment subcommands,
CSV/JSON artifacts.

Every physical quantity in a config carries its unit in the key name.
Unknown keys are hard errors. Exit codes: 0 success, 2 config/validation
failure, 3 compute failure, 4 I/O failure.
"""

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__, experiments, kernels, lockin as lockin_mod, strongfield
from .config import JunctionConfig, LaserConfig
from .grid import DESK_ABSORBER, AbsorberSpec, GridSpec, desk_grid, reference_grid
from .laser import effective_keldysh, field_crest_time
from .potential import mean_image_magnitude, sample_static_profile, static_potential, laser_interaction
from .results import record_to_csv, read_csv, save_scan, state_to_json, write_csv, write_json
from .solver import MapSpec, SolverError, propagate
from .strongfield import SaddleConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

RECIPES = ("fig3a", "fig4a", "fig4bc", "figSK", "figDecay", "figDirect",
           "figVariation")
SCAN_KINDS = ("delay", "power", "width", "ratio", "robustness")


class ConfigError(ValueError):
    pass


# schema: nested mapping of allowed keys -> type, [element type] for a
# list, or a nested dict
_SCHEMA = {
    "junction": {
        "width_nm": float, "workfunction_tip_eV": float,
        "workfunction_sample_eV": float, "fermi_tip_eV": float,
        "fermi_sample_eV": float, "bias_V": float,
    },
    "laser": {
        "field_V_per_nm": float, "field_ratio_eta": float,
        "wavelength_nm": float, "duration_fund_fwhm_fs": float,
        "duration_sh_fwhm_fs": float, "sh_phase_rad": float,
        "base_delay_fs": float, "field_sign": int,
    },
    "grid": {
        "preset": str, "z_min_nm": float, "z_max_nm": float, "dz_pm": float,
        "dt_as": float, "max_bandwidth_eV": float,
        "absorber": {"strength_eV": float, "fraction": float, "enabled": bool},
    },
    "propagate": {
        "t_start_fs": float, "t_end_fs": float, "probes_nm": [float],
        "snapshot_final_state": bool,
        "map": {"z_lo_nm": float, "z_hi_nm": float, "stride": int},
    },
    "scan": {
        "kind": str, "start": float, "stop": float, "count": int,
        "spacing": str, "n_delays": int, "enhancement_fund": float,
        "enhancement_sh": float, "parameter": str,
    },
    "saddle": {
        "energy_start_eV": float, "energy_stop_eV": float, "energy_count": int,
        "trajectory_energies_eV": [float], "binding_eV": float,
    },
    "lockin": {
        "mode": str, "input_csv": str, "delta_fs": float, "beta": float,
        "noise_estimate": float,
    },
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
    data = yaml.safe_load(text) or {}
    _check_keys(data, _SCHEMA)
    return data


def build_junction(data) -> JunctionConfig:
    j = data.get("junction", {})
    return JunctionConfig(
        width_d=j.get("width_nm", 1.0),
        workfunction_tip=j.get("workfunction_tip_eV", 5.1),
        workfunction_sample=j.get("workfunction_sample_eV", 5.1),
        fermi_tip=j.get("fermi_tip_eV", 5.0),
        fermi_sample=j.get("fermi_sample_eV", 5.0),
        bias_Us=j.get("bias_V", 0.0))


def build_laser(data) -> LaserConfig:
    l = data.get("laser", {})
    return LaserConfig(
        field_F1=l.get("field_V_per_nm", 8.0),
        ratio_eta=l.get("field_ratio_eta", float(np.sqrt(0.1))),
        wavelength=l.get("wavelength_nm", 1850.0),
        duration_tau1=l.get("duration_fund_fwhm_fs", 35.0),
        duration_tau2=l.get("duration_sh_fwhm_fs", 80.0),
        phase_phi=l.get("sh_phase_rad", 0.0),
        base_delay_tau0=l.get("base_delay_fs", 0.0),
        field_sign=l.get("field_sign", 1))


def build_grid(data, preset_override=None):
    g = data.get("grid", {})
    preset = preset_override or g.get("preset", "desk")
    if preset == "reference":
        grid = reference_grid(g.get("max_bandwidth_eV", 50.0))
        absorber = None
    elif preset == "desk":
        grid = desk_grid(g.get("max_bandwidth_eV", 50.0))
        absorber = DESK_ABSORBER
    else:
        raise ConfigError(f"grid.preset must be 'reference' or 'desk', "
                          f"got {preset!r}")
    if {"z_min_nm", "z_max_nm", "dz_pm", "dt_as"} & set(g):
        grid = GridSpec(
            z_min=g.get("z_min_nm", grid.z_min),
            z_max=g.get("z_max_nm", grid.z_max),
            dz=g.get("dz_pm", grid.dz * 1e3) * 1e-3,
            dt=g.get("dt_as", grid.dt * 1e3) * 1e-3,
            max_bandwidth=g.get("max_bandwidth_eV", grid.max_bandwidth))
    a = g.get("absorber", {})
    if a:
        if not a.get("enabled", True):
            absorber = None
        else:
            absorber = AbsorberSpec(strength_eV=a.get("strength_eV", 3.0),
                                    fraction=a.get("fraction", 0.2))
    return grid, absorber


def resolved_config(data, preset_override=None) -> dict:
    cfg = build_junction(data)
    laser = build_laser(data)
    grid, absorber = build_grid(data, preset_override)
    return {"junction": asdict(cfg), "laser": asdict(laser),
            "grid": asdict(grid),
            "absorber": None if absorber is None else asdict(absorber),
            "output_dir": data.get("output_dir", "out"),
            "code_version": __version__}


def cmd_potential(data, out_dir, args) -> int:
    cfg = build_junction(data)
    laser = build_laser(data)
    grid, _ = build_grid(data, args.preset)
    profile = sample_static_profile(cfg, grid.z)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = {"z_nm": profile.grid_z, "V0_eV": profile.values}
    for t in data.get("potential", {}).get("snapshot_times_fs", []):
        total = profile.values + laser_interaction(cfg, laser, profile.grid_z, t)
        columns[f"V_total_eV_t{t}fs"] = total
    write_csv(out_dir / "potential_profile.csv", columns,
              {"code_version": __version__})
    checks = {
        "tip_plateau_eV": float(static_potential(cfg, grid.z_min / 2)),
        "sample_plateau_eV": float(static_potential(cfg, grid.z_max / 2 + cfg.width_d)),
        "clamp_level_eV": float(min(cfg.tip_interior_level,
                                    cfg.sample_interior_level)),
        "mean_image_eV": mean_image_magnitude(cfg),
        "all_finite": bool(np.all(np.isfinite(profile.values))),
    }
    write_json(out_dir / "potential_profile.json",
               {"config": resolved_config(data, args.preset), "checks": checks})
    print(f"wrote {out_dir / 'potential_profile.csv'}")
    return EXIT_OK


def cmd_propagate(data, out_dir, args) -> int:
    cfg = build_junction(data)
    laser = build_laser(data)
    grid, absorber = build_grid(data, args.preset)
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
    started = time.perf_counter()
    try:
        # record the run's warnings (reflection risk) for the sidecar, then
        # emit them as usual
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = propagate(cfg, laser, grid, t0, t1, probes=probes,
                            absorber=absorber, map_spec=map_spec)
    except SolverError as exc:
        print(f"propagation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in res.records:
        record_to_csv(rec, out_dir / f"current_z{rec.probe_z:+.3f}nm.csv",
                      {"code_version": __version__})
    if res.map is not None:
        cols = {"time_fs": res.map.times}
        for k, z in enumerate(res.map.z):
            cols[f"j_per_fs_z{z:+.4f}nm"] = res.map.j[:, k]
        write_csv(out_dir / "current_density_map.csv", cols,
                  {"code_version": __version__})
    if p.get("snapshot_final_state", True):
        state_to_json(res.final_state, out_dir / "final_state.json")
    write_json(out_dir / "propagation.json", {
        "config": resolved_config(data, args.preset),
        "t_start_fs": t0, "t_end_fs": t1,
        "norm_initial": res.norm_initial, "norm_final": res.norm_final,
        "norm_deficit": abs(1.0 - res.norm_final),
        "max_solve_residual": res.max_residual,
        "tip_cut_nm": res.tip_cut_nm, "stepped_points": res.stepped_points,
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
    spacing = scan.get("spacing", "linear")
    if spacing == "linear":
        return np.linspace(scan["start"], scan["stop"], n)
    if spacing == "log":
        if scan["start"] <= 0:
            raise ConfigError("log spacing needs positive start")
        return np.geomspace(scan["start"], scan["stop"], n)
    raise ConfigError(f"scan.spacing must be linear or log, got {spacing!r}")


def cmd_scan(data, out_dir, args) -> int:
    cfg = build_junction(data)
    laser = build_laser(data)
    grid, absorber = build_grid(data, args.preset)
    scan = data.get("scan", {})
    kind = args.kind or scan.get("kind")
    if kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind must be one of {', '.join(SCAN_KINDS)} "
                          f"(got {kind!r})")
    values = _sweep_values(scan)
    started = time.perf_counter()
    try:
        if kind == "delay":
            result = experiments.delay_scan_tdse(cfg, laser, grid, values,
                                                 absorber=absorber)
        elif kind == "power":
            enh = (scan.get("enhancement_fund", 1.0),
                   scan.get("enhancement_sh", 1.0))
            result = experiments.power_scan(cfg, laser, grid, values,
                                            enhancement=enh,
                                            n_delays=scan.get("n_delays", 12),
                                            absorber=absorber)
        elif kind == "width":
            result = experiments.width_scan(cfg, laser, grid, values,
                                            n_delays=scan.get("n_delays", 12),
                                            absorber=absorber)
        elif kind == "ratio":
            result = experiments.directionality(cfg, laser, grid, values,
                                                absorber=absorber)
        else:
            parameter = scan.get("parameter", "field")
            result = experiments.robustness_sweep(parameter, values, cfg,
                                                  laser, grid,
                                                  absorber=absorber)
    except (SolverError, SaddleConvergenceError, experiments.BurstError,
            experiments.DirectionalityError) as exc:
        print(f"scan failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    result.metadata["wall_time_s"] = time.perf_counter() - started
    csv_path, _ = save_scan(result, out_dir)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_saddle(data, out_dir, args) -> int:
    cfg = build_junction(data)
    laser = build_laser(data)
    s = data.get("saddle", {})
    binding = s.get("binding_eV", cfg.workfunction_tip)
    energies = np.linspace(s.get("energy_start_eV", 0.5),
                           s.get("energy_stop_eV", 14.0),
                           int(s.get("energy_count", 55)))
    try:
        phases = strongfield.emission_phase_curve(energies, laser, cfg,
                                                  binding=binding)
        cutoff = strongfield.cutoff_energy(laser, cfg, binding=binding)
        trajectories = {}
        solutions = []
        for e in s.get("trajectory_energies_eV", [0.0, 4.4, 6.7]):
            sol = strongfield.solve_saddle(float(e), binding, laser, cfg)
            tr = strongfield.trajectory(sol)
            trajectories[float(e)] = tr
            r1, r2, r3 = sol.residuals()
            solutions.append({
                "final_energy_eV": float(e),
                "t1_fs": [sol.t1.real, sol.t1.imag],
                "t2_fs": [sol.t2.real, sol.t2.imag],
                "p_tilde": [sol.p_tilde.real, sol.p_tilde.imag],
                "mean_image_eV": sol.mean_image,
                "residuals": [r1, r2, r3]})
    except (SaddleConvergenceError, ValueError) as exc:
        print(f"saddle solve failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    out_dir.mkdir(parents=True, exist_ok=True)
    vbar = mean_image_magnitude(cfg)
    gamma_mod = effective_keldysh(laser, binding - vbar)
    gamma_std = effective_keldysh(replace(laser, ratio_eta=0.0), binding - vbar)
    write_csv(out_dir / "emission_phase.csv",
              {"final_energy_eV": energies,
               "sinh_w_im_t1": phases,
               "gamma_modified": np.full(energies.size, gamma_mod),
               "gamma_standard_eta0": np.full(energies.size, gamma_std)},
              {"code_version": __version__})
    for e, tr in trajectories.items():
        write_csv(out_dir / f"trajectory_E{e:.2f}eV.csv",
                  {"time_fs": tr.times, "z_nm": tr.positions},
                  {"final_energy_eV": repr(e)})
    write_json(out_dir / "saddle.json", {
        "config": resolved_config(data, args.preset),
        "binding_eV": binding, "mean_image_eV": vbar,
        "gamma_modified": gamma_mod, "gamma_standard_eta0": gamma_std,
        "cutoff_eV": cutoff,
        "drift_energy_bound_eV": strongfield.drift_energy_bound(laser),
        "crest_time_fs": field_crest_time(laser),
        "solutions": solutions})
    print(f"cutoff: {cutoff} eV; wrote {out_dir / 'emission_phase.csv'}")
    return EXIT_OK


def cmd_lockin(data, out_dir, args) -> int:
    l = data.get("lockin", {})
    mode = args.mode or l.get("mode")
    if mode not in ("forward", "invert", "select-beta"):
        raise ConfigError("lockin.mode must be forward, invert or select-beta")
    if "input_csv" not in l:
        raise ConfigError("lockin.input_csv is required")
    mod = lockin_mod.ModulationSpec(amplitude_delta=l.get("delta_fs", 0.6))
    beta = l.get("beta", lockin_mod.DEFAULT_BETA)
    try:
        columns, _ = read_csv(l["input_csv"])
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    if "delay_fs" not in columns:
        raise ConfigError("input CSV needs a delay_fs column")
    delays = columns["delay_fs"]
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"delta_fs": mod.amplitude_delta, "beta": beta,
            "transform_convention": "forward e^{-i omega tau}",
            "code_version": __version__}
    if mode == "forward":
        trace = lockin_mod.DelayTrace(delays, columns.get("value_re",
                                                          columns.get("value")),
                                      kind="physical_current")
        out = lockin_mod.forward_lockin(trace, mod)
        write_csv(out_dir / "lockin_forward.csv",
                  {"delay_fs": out.delays, "value_re": out.values.real,
                   "value_im": out.values.imag}, meta)
        print(f"wrote {out_dir / 'lockin_forward.csv'}")
    elif mode == "invert":
        values = columns.get("value_re", np.zeros(delays.size)) \
            + 1j * columns.get("value_im", np.zeros(delays.size))
        trace = lockin_mod.DelayTrace(delays, values, kind="lockin_complex")
        rec = lockin_mod.reconstruct(trace, mod, beta)
        write_csv(out_dir / "lockin_inverted.csv",
                  {"delay_fs": rec.delays, "value_re": rec.values,
                   "value_im": np.zeros(rec.values.size)}, meta)
        print(f"wrote {out_dir / 'lockin_inverted.csv'}")
    else:
        values = columns.get("value_re", np.zeros(delays.size)) \
            + 1j * columns.get("value_im", np.zeros(delays.size))
        trace = lockin_mod.DelayTrace(delays, values, kind="lockin_complex")
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
    for name, help_ in (("potential", "write static potential profiles"),
                        ("propagate", "full TDSE propagation with probes"),
                        ("scan", "parameter sweeps"),
                        ("saddle", "strong-field saddle-point outputs"),
                        ("lockin", "lock-in forward model / reconstruction")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True,
                       help="YAML config path or recipe name "
                            f"({', '.join(RECIPES)})")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--preset", choices=("reference", "desk"), default=None)
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the resolved config only")
        if name == "scan":
            p.add_argument("--kind", choices=SCAN_KINDS)
        if name == "lockin":
            p.add_argument("--mode", choices=("forward", "invert",
                                              "select-beta"))
    return parser


_DISPATCH = {"potential": cmd_potential, "propagate": cmd_propagate,
             "scan": cmd_scan, "saddle": cmd_saddle, "lockin": cmd_lockin}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        data = load_config(args.config)
        resolved = resolved_config(data, args.preset)
        if args.dry_run:
            print(json.dumps(resolved, indent=2, sort_keys=True))
            return EXIT_OK
        out_dir = Path(args.out or data.get("output_dir", "out"))
        return _DISPATCH[args.command](data, out_dir, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
