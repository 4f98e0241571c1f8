"""The benchmark's three workloads: seeded inputs, timed body, checks.

Each workload is derived at run time from a packaged figure recipe and
drives attostm only through ``attostm.cli.main`` and
``attostm.experiments``. Importing this module imports attostm (and numpy,
scipy and yaml through it); run.py times that import as part of set-up.

Every body returns the raw outcome of its operations; ``check`` turns them
into one pass/fail per operation. Invariants hold for any seed; outputs are
compared with ``reference.json`` (recorded at the commit that added the
benchmark) for the reference seed, or always where the workload takes no
seeded input.
"""

import json
import math
import traceback
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from attostm import cli, experiments
from attostm.laser import field_crest_time
from attostm.lockin import J1_MAX
from attostm.solver import CurrentRecord

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The figure recipes' pulses are shortened by this factor for the tall-tip
# scan: per-step cost does not depend on the pulse, the 5-FWHM lead-in stays
# the same share of the run, and four propagations fit one benchmark run.
PULSE_DIVISOR = 8.0
SF_DELAYS = 8
LOCKIN_DELAYS = 2001
LOCKIN_SPAN_FS = 20.0
LOCKIN_NOISE = 0.01
LOCKIN_ENVELOPE_FS = 8.0


def load_recipe(name):
    text = resources.files("attostm").joinpath(f"recipes/{name}.yaml").read_text()
    return yaml.safe_load(text)


def read_table(path):
    """Header and float rows of a CSV written by attostm ('#' comments)."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data.reshape(len(lines) - 1, len(header))


def finite_csv(path):
    return bool(np.all(np.isfinite(read_table(path)[1])))


def close(value, ref, rtol, scale=None):
    return abs(value - ref) <= rtol * (abs(ref) if scale is None else scale)


def run_cli(argv):
    """cli.main's exit code; an escaped exception counts as exit code 1."""
    try:
        return cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        return 1


@dataclass
class Check:
    """Pass/fail per operation, plus observables kept in the record."""

    passed: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)

    def op(self, name, ok):
        self.passed[name] = bool(ok)


# --- delay_scan_tall ------------------------------------------------------

def tall_setup(seed, workdir):
    recipe = load_recipe("fig4a")
    laser = cli.build_laser(recipe)
    period = laser.sh_period
    rng = np.random.default_rng(seed)
    first = rng.uniform(0.0, 0.5 * period)
    second = first + rng.uniform(0.125 * period, 0.5 * period)
    recipe["laser"] = dict(recipe.get("laser", {}),
                           duration_fund_fwhm_fs=laser.duration_tau1 / PULSE_DIVISOR,
                           duration_sh_fwhm_fs=laser.duration_tau2 / PULSE_DIVISOR)
    recipe["scan"] = dict(recipe["scan"], start=float(first),
                          stop=float(second), count=2)
    config = workdir / "delay_scan_tall.yaml"
    config.write_text(yaml.safe_dump(recipe))
    return {"config": config, "delays": [float(first), float(second)]}


def tall_body(inputs, out):
    return {"rc": run_cli(["scan", "--config", inputs["config"],
                           "--kind", "delay", "--out", out])}


def tall_check(inputs, out, outcome, seed):
    c = Check()
    values = [math.nan, math.nan]
    csvs = sorted(out.glob("delay_*.csv"))
    if outcome["rc"] == 0 and len(csvs) == 1:
        _, data = read_table(csvs[0])
        if data.shape == (2, 2) and np.allclose(data[:, 0], inputs["delays"],
                                                rtol=0, atol=1e-12):
            values = data[:, 1].tolist()
    c.observed["net_charge"] = values
    ref = REFERENCE["delay_scan_tall"]
    scale = max(abs(v) for v in ref["net_charge"])
    for k, v in enumerate(values):
        ok = math.isfinite(v)
        if seed == REFERENCE["seed"]:
            ok = ok and close(v, ref["net_charge"][k], ref["rtol"], scale)
        c.op(f"scan_point_{k}", ok)
    return c


# --- propagate_map_desk ---------------------------------------------------

def desk_setup(seed, workdir):
    recipe = load_recipe("fig4bc")
    return {"laser": cli.build_laser(recipe)}


def desk_body(inputs, out):
    return {"rc": run_cli(["propagate", "--config", "fig4bc", "--out", out])}


def desk_check(inputs, out, outcome, seed):
    c = Check()
    ok = outcome["rc"] == 0
    if ok:
        side = json.loads((out / "propagation.json").read_text())
        c.observed["backend"] = side["backend"]
        c.observed["norm_final"] = side["norm_final"]
        c.observed["max_solve_residual"] = side["max_solve_residual"]
        ok = (side["norm_final"] <= side["norm_initial"]
              and side["max_solve_residual"] <= 1e-10)
        probes = sorted(out.glob("current_z*.csv"))
        psi = np.asarray(json.loads((out / "final_state.json").read_text())["psi"])
        ok = (ok and len(probes) == 1 and finite_csv(out / "current_density_map.csv")
              and bool(np.all(np.isfinite(psi))))
    if ok:
        _, data = read_table(probes[0])
        t, j = data[:, 0], data[:, 1]
        laser = inputs["laser"]
        burst = experiments.burst_metrics(
            CurrentRecord(1.0, t, j), crest_time=field_crest_time(laser),
            cycle_fs=2.0 * np.pi / laser.omega)
        obs = {"charge": float(np.trapezoid(j, t)),
               "burst_fwhm_as": burst.fwhm, "burst_peak_time_as": burst.peak_time}
        c.observed.update(obs)
        ref = REFERENCE["propagate_map_desk"]
        ok = bool(np.all(np.isfinite(data))) and all(
            close(obs[k], ref[k], ref["rtol"]) for k in obs)
    c.op("propagate", ok)
    return c


# --- saddle_lockin --------------------------------------------------------

def saddle_setup(seed, workdir):
    anchor = load_recipe("fig4bc")
    cfg, laser = cli.build_junction(anchor), cli.build_laser(anchor)
    rng = np.random.default_rng(seed)
    step = laser.sh_period / SF_DELAYS
    delays = rng.uniform(0.0, step) + step * np.arange(SF_DELAYS)
    tau = np.linspace(-LOCKIN_SPAN_FS, LOCKIN_SPAN_FS, LOCKIN_DELAYS)
    # SH-periodic current under a Gaussian envelope, so that the even
    # extension in lockin.reconstruct meets a trace that has died out
    clean = (np.cos(2.0 * np.pi * tau / laser.sh_period)
             * np.exp(-tau**2 / (2.0 * LOCKIN_ENVELOPE_FS**2)))
    noisy = clean + rng.normal(0.0, LOCKIN_NOISE, tau.size)
    trace = workdir / "current_trace.csv"
    np.savetxt(trace, np.column_stack([tau, noisy]), delimiter=",",
               header="delay_fs,value", comments="", fmt="%.17g")
    forward = workdir / "lockin_forward.yaml"
    forward.write_text(yaml.safe_dump({"lockin": {"input_csv": str(trace)}}))
    return {"cfg": cfg, "laser": laser, "delays": delays, "tau": tau,
            "clean": clean, "forward_config": forward}


def saddle_body(inputs, out):
    outcome = {"figSK": run_cli(["saddle", "--config", "figSK",
                                 "--out", out / "figSK"])}
    try:
        outcome["sf"] = experiments.delay_scan_strongfield(
            inputs["cfg"], inputs["laser"], inputs["delays"]).results
    except Exception:
        traceback.print_exc()
        outcome["sf"] = None
    lock = out / "lockin"
    outcome["forward"] = run_cli(["lockin", "--config", inputs["forward_config"],
                                  "--mode", "forward", "--out", lock])
    lockin_trace = str(lock / "lockin_forward.csv")
    select = out / "lockin_select.yaml"
    select.write_text(yaml.safe_dump({"lockin": {
        "input_csv": lockin_trace, "noise_estimate": LOCKIN_NOISE}}))
    outcome["select"] = run_cli(["lockin", "--config", select,
                                 "--mode", "select-beta", "--out", lock])
    outcome["invert"] = 1
    if outcome["select"] == 0:
        beta = json.loads((lock / "lockin_beta.json").read_text())["beta"]
        invert = out / "lockin_invert.yaml"
        invert.write_text(yaml.safe_dump({"lockin": {
            "input_csv": lockin_trace, "beta": beta}}))
        outcome["invert"] = run_cli(["lockin", "--config", invert,
                                     "--mode", "invert", "--out", lock])
    return outcome


def saddle_check(inputs, out, outcome, seed):
    c = Check()
    ref = REFERENCE["saddle_lockin"]
    ok = outcome["figSK"] == 0
    if ok:
        side = json.loads((out / "figSK" / "saddle.json").read_text())
        c.observed["cutoff_eV"] = side["cutoff_eV"]
        c.observed["cutoff_note"] = ref["cutoff_note"]
        ok = (finite_csv(out / "figSK" / "emission_phase.csv")
              and side["cutoff_eV"] is not None
              and close(side["cutoff_eV"], ref["cutoff_eV"], ref["rtol"]))
    c.op("figSK", ok)

    sf = outcome["sf"]
    c.observed["sf_delay_scan"] = None if sf is None else sf.tolist()
    for k in range(SF_DELAYS):
        ok = sf is not None and math.isfinite(sf[k]) and abs(sf[k]) <= 1.0
        if ok and seed == REFERENCE["seed"]:
            ok = close(sf[k], ref["sf_delay_scan"][k], ref["rtol"], 1.0)
        c.op(f"sf_delay_{k}", ok)

    lock = out / "lockin"
    c.op("lockin_forward", outcome["forward"] == 0
         and finite_csv(lock / "lockin_forward.csv"))
    ok = outcome["select"] == 0
    if ok:
        beta = json.loads((lock / "lockin_beta.json").read_text())["beta"]
        c.observed["lockin_beta"] = beta
        ok = 0.0 < beta < J1_MAX
    c.op("lockin_select_beta", ok)
    ok = outcome["invert"] == 0
    if ok:
        _, data = read_table(lock / "lockin_inverted.csv")
        sel = np.searchsorted(inputs["tau"], data[0, 0]) + np.arange(len(data))
        truth = inputs["clean"][sel] - np.mean(inputs["clean"][sel])
        error = float(np.linalg.norm(data[:, 1] - truth) / np.linalg.norm(truth))
        c.observed["lockin_error"] = error
        ok = (bool(np.all(np.isfinite(data)))
              and np.allclose(inputs["tau"][sel], data[:, 0], rtol=0, atol=1e-9)
              and error <= ref["lockin_error_bound"])
    c.op("lockin_invert", ok)
    return c


@dataclass(frozen=True)
class Workload:
    setup: object
    body: object
    check: object
    # spans the workload must reach; a layer outside this set is bypassed
    reaches: frozenset


_RESULTS = {"results.write_csv", "results.write_json"}

WORKLOADS = {
    "delay_scan_tall": Workload(tall_setup, tall_body, tall_check, frozenset({
        "cli.main", "experiments.delay_scan_tdse", "solver.propagate",
        "solver.initial_state", "potential.sample_static_profile",
        "results.save_scan"} | _RESULTS)),
    "propagate_map_desk": Workload(desk_setup, desk_body, desk_check, frozenset({
        "cli.main", "solver.propagate", "solver.initial_state",
        "potential.sample_static_profile", "results.record_to_csv",
        "results.state_to_json"} | _RESULTS)),
    "saddle_lockin": Workload(saddle_setup, saddle_body, saddle_check, frozenset({
        "cli.main", "experiments.delay_scan_strongfield",
        "strongfield.solve_saddle", "strongfield.action",
        "strongfield.directional_weight", "strongfield.emission_phase_curve",
        "strongfield.cutoff_energy", "laser.vector_potential",
        "potential.mean_image_magnitude", "lockin.forward_lockin",
        "lockin.reconstruct", "lockin.select_beta"} | _RESULTS)),
}
