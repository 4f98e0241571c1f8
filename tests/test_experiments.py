import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import attostm
from attostm.config import JunctionConfig, LaserConfig
from attostm import experiments
from attostm.experiments import (BurstError, BurstMetrics,
                                 DirectionalityError, burst_metrics,
                                 delay_scan_strongfield, delay_scan_tdse,
                                 directionality, exponential_fit,
                                 loglog_slopes, modulation_amplitude,
                                 rerun_from_metadata, robustness_sweep)
from attostm.grid import DESK_ABSORBER, GridSpec, bandwidth_steps, desk_grid
from attostm.results import (ScanResult, config_hash, config_snapshot,
                             configs_from_snapshot, read_csv, save_scan,
                             state_to_json, write_csv, write_json)
from attostm.kernels import SolverError
from attostm.solver import (CurrentRecord, ReflectionRiskWarning, WaveState,
                            initial_state, propagate, transferred_charge)


def tiny_grid():
    dz, dt = bandwidth_steps()
    return GridSpec(-20.0, 20.0, dz, dt)


def tiny_laser(**kw):
    base = dict(field_F1=7.0, duration_tau1=5.0, duration_tau2=8.0)
    base.update(kw)
    return LaserConfig(**base)


def synthetic_burst(sigma_fs=0.4, t0=0.6):
    t = np.arange(-8.0, 8.0, 0.01)
    j = 1e-3 * np.exp(-((t - t0) ** 2) / (2 * sigma_fs**2))
    return CurrentRecord(1.0, t, j)


def test_burst_metrics_gaussian_identity():
    sigma = 0.4
    bm = burst_metrics(synthetic_burst(sigma), crest_time=0.0, cycle_fs=6.17)
    assert bm.fwhm == pytest.approx(2.355 * sigma * 1e3, rel=0.01)
    assert bm.peak_time == pytest.approx(600.0, abs=5.0)
    assert bm.peak_height == pytest.approx(1e-3, rel=1e-3)


def test_burst_metrics_noise_floor():
    t = np.arange(-8.0, 8.0, 0.01)
    rng = np.random.default_rng(5)
    rec = CurrentRecord(1.0, t, 1e-9 * rng.standard_normal(t.size))
    with pytest.raises(BurstError):
        burst_metrics(rec, crest_time=0.0, cycle_fs=6.17)
    with pytest.raises(ValueError):
        BurstMetrics(fwhm=-1.0, peak_time=0.0, peak_height=1.0)


def test_exponential_fit_self_consistency():
    d = np.linspace(0.8, 2.0, 7)
    amp = 3.7 * np.exp(-d / 0.43)
    fit = exponential_fit(d, amp)
    assert fit["amplitude"] == pytest.approx(3.7, rel=0.01)
    assert fit["decay_length"] == pytest.approx(0.43, rel=0.01)
    assert fit["r_squared"] > 0.999
    # no decay, no decay length; no logarithm of 0, no fit
    assert exponential_fit([1.0, 2.0], [1.0, 2.0])["decay_length"] is None
    assert exponential_fit([1.0, 2.0], [1.0, 0.0]) == dict.fromkeys(
        ("amplitude", "decay_length", "r_squared"))


def test_loglog_slopes():
    p = np.array([1.0, 2.0, 4.0])
    a = p**3.5
    assert np.allclose(loglog_slopes(p, a), 3.5)


def test_scan_result_validation():
    with pytest.raises(ValueError):
        ScanResult("x", "u", np.array([1.0, 3.0, 2.0]), "y", "v",
                   np.zeros(3))
    with pytest.raises(ValueError):
        ScanResult("x", "u", np.array([1.0, 2.0]), "y", "v", np.zeros(3))
    sr = ScanResult("x", "u", np.array([1.0, 2.0]), "y", "v",
                    np.array([0.1, 0.2]), extra_columns={"p": np.array([1, 4])})
    assert sr.values.size == 2


def test_csv_round_trip(tmp_path):
    cols = {"a": np.array([1.0, 2.5, -3.125e-7]), "b": np.array([0.1, 0.2, 0.3])}
    path = tmp_path / "t.csv"
    write_csv(path, cols, {"note": "x"})
    back, comments = read_csv(path)
    assert comments["note"] == "x"
    for k in cols:
        assert np.array_equal(back[k], cols[k])


def test_csv_text_is_repr_of_float(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"n": np.array([1, -2, 3]),
                     "x": np.array([-0.0, 1e-300, 0.1]),
                     "y": [0.1 + 0.2, 2.0 / 3.0, 1e16]}, {"note": "x"})
    assert path.read_text() == ("# note: x\n"
                                "n,x,y\n"
                                "1.0,-0.0,0.30000000000000004\n"
                                "-2.0,1e-300,0.6666666666666666\n"
                                "3.0,0.1,1e+16\n")


@pytest.mark.parametrize("b", [[1.0, 2.0, 3.0], [1.0]], ids=["longer", "shorter"])
def test_csv_refuses_columns_of_unequal_length(tmp_path, b):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError,
                       match=f"column 'b' has {len(b)} rows, column 'a' has 2"):
        write_csv(path, {"a": [1.0, 2.0], "b": b})
    assert not path.exists()


def test_writers_create_missing_directories(tmp_path):
    csv_path = tmp_path / "a" / "b" / "t.csv"
    json_path = tmp_path / "c" / "d" / "t.json"
    write_csv(csv_path, {"a": np.array([1.0, 2.0])})
    write_json(json_path, {"x": np.array([1.0])})
    assert np.array_equal(read_csv(csv_path)[0]["a"], [1.0, 2.0])
    assert json.loads(json_path.read_text()) == {"x": [1.0]}


def test_state_json_round_trip(tmp_path):
    grid = tiny_grid()
    st = initial_state(JunctionConfig(), grid)
    path = tmp_path / "state.json"
    state_to_json(st, path)
    payload = json.loads(path.read_text())
    pairs = np.asarray(payload["psi"])
    assert np.array_equal(pairs[:, 0] + 1j * pairs[:, 1], st.psi)
    assert payload["energy_eV"] == st.energy
    assert configs_from_snapshot(payload)[2] == grid


@pytest.fixture(scope="module")
def small_delay_scan():
    cfg = JunctionConfig()
    grid = tiny_grid()
    laser = tiny_laser()
    taus = np.linspace(0.0, laser.sh_period, 4, endpoint=False)
    return cfg, grid, laser, taus, delay_scan_tdse(cfg, laser, grid, taus)


def test_delay_scan_shape_and_metadata(small_delay_scan):
    cfg, grid, laser, taus, scan = small_delay_scan
    assert scan.results.shape == taus.shape
    assert scan.metadata["kind"] == "delay"
    assert scan.metadata["junction"]["width_d"] == cfg.width_d
    assert np.any(scan.results != 0.0)


def test_rerun_from_metadata_reproduces(small_delay_scan):
    cfg, grid, laser, taus, scan = small_delay_scan
    again = rerun_from_metadata(scan)
    assert np.array_equal(scan.results, again.results)
    assert config_hash(scan.metadata) == config_hash(again.metadata)


def test_save_scan_pair(tmp_path, small_delay_scan):
    *_, scan = small_delay_scan
    csv_path, json_path = save_scan(scan, tmp_path)
    assert csv_path.exists() and json_path.exists()
    assert csv_path.stem == json_path.stem
    assert "delay_" in csv_path.name
    cols, comments = read_csv(csv_path)
    assert "tau0_fs" in cols and comments["scan"] == "delay"


def test_modulation_amplitude_positive():
    cfg = JunctionConfig()
    amp = modulation_amplitude(cfg, tiny_laser(), tiny_grid(), n_delays=4)
    assert amp > 0


def test_directionality_bounds_and_symmetric_limit():
    cfg = JunctionConfig()
    scan = directionality(cfg, tiny_laser(), tiny_grid(),
                          [0.0, 0.04, 0.1])
    assert np.all((scan.results >= 0.0) & (scan.results <= 1.0))
    # tiny_laser's 5 fs fundamental is sub-cycle (period 6.17 fs): the
    # negated pulse's strongest crests reach 0.35 of the peak field, so the
    # single colour is not symmetric under negation and Delta(0) ~ 0.9 is
    # physical. The symmetric limit needs a multi-cycle fundamental.
    sym = directionality(cfg, tiny_laser(duration_tau1=35.0),
                         replace(tiny_grid(), absorber=DESK_ABSORBER),
                         [0.0, 0.04, 0.1])
    assert sym.results[0] < 0.05  # single colour, symmetric junction
    assert sym.results[2] > sym.results[0]


def test_directionality_refuses_negative_direction(monkeypatch):
    def fake_wall_charges(*args, **kwargs):
        return [(1e-4, 2e-4), (-1e-4, -3e-5)]

    monkeypatch.setattr(experiments, "_wall_charges", fake_wall_charges)
    with pytest.raises(DirectionalityError, match="sample->tip.*-3.000e-05"):
        directionality(JunctionConfig(), tiny_laser(), tiny_grid(), [0.1])


def test_robustness_sweep_api():
    cfg = JunctionConfig()
    scan = robustness_sweep(cfg, tiny_laser(), tiny_grid(), [0.8, 1.2],
                            parameter="width")
    assert np.all(scan.results > 0)
    with pytest.raises(ValueError):
        robustness_sweep(cfg, tiny_laser(), tiny_grid(), [1.0],
                         parameter="bogus")


@pytest.fixture(scope="module")
def sf_scan():
    return delay_scan_strongfield(JunctionConfig(), LaserConfig(field_F1=8.0),
                                  np.linspace(0.0, 3.0, 4),
                                  energies=np.arange(1.0, 10.0, 1.5))


def test_delay_scan_strongfield_wrapper(sf_scan):
    assert sf_scan.metadata["kind"] == "delay_sf"
    assert np.max(np.abs(sf_scan.results)) == pytest.approx(1.0)


def test_delay_scan_strongfield_rerun_keeps_energy_grid(sf_scan):
    assert sf_scan.metadata["energies_eV"] == np.arange(1.0, 10.0, 1.5).tolist()
    again = rerun_from_metadata(sf_scan)
    assert np.array_equal(sf_scan.results, again.results)
    assert config_hash(sf_scan.metadata) == config_hash(again.metadata)


def test_stale_snapshot_names_its_key_and_code_version(tmp_path, sf_scan):
    # a snapshot written by code whose LaserConfig still had phase_phi
    md = dict(sf_scan.metadata, code_version="0.0.9",
              laser=dict(sf_scan.metadata["laser"], phase_phi=0.5))
    stale = ScanResult("x", "u", [0.0], "y", "v", [0.0], md)
    with pytest.raises(ValueError, match=r"laser\.phase_phi .*'0\.0\.9'"):
        rerun_from_metadata(stale)
    # a state file records the version that wrote it
    grid = tiny_grid()
    path = tmp_path / "state.json"
    state_to_json(WaveState(grid, np.zeros(grid.n_points), 0.0), path)
    payload = json.loads(path.read_text())
    payload["grid"]["edge_nm"] = 1.0
    path.write_text(json.dumps(payload))
    version = re.escape(repr(attostm.__version__))
    with pytest.raises(ValueError, match=rf"grid\.edge_nm .*{version}"):
        configs_from_snapshot(json.loads(path.read_text()))


# a desk delay scan's metadata as attostm 0.1.0 wrote it before the grid
# carried its absorber: the absorber beside the grid, and a max_bandwidth
# in the grid
OLD_DESK_SCAN = {
    "absorber": {"fraction": 0.2, "strength_eV": 3.0},
    "code_version": "0.1.0",
    "grid": {"dt": 0.01316423913095215, "dz": 0.0276042826802662,
             "max_bandwidth": 50.0, "z_max": 60.0, "z_min": -60.0},
    "junction": {"bias_Us": 0.0, "fermi_sample": 5.0, "fermi_tip": 5.0,
                 "width_d": 1.0, "workfunction_sample": 5.1,
                 "workfunction_tip": 5.1},
    "kind": "delay",
    "laser": {"base_delay_tau0": 0.0, "duration_tau1": 35.0,
              "duration_tau2": 80.0, "field_F1": 8.0, "field_sign": 1,
              "ratio_eta": 0.31622776601683794, "wavelength": 1850.0},
    "tau0_values": [0.0, 1.5],
    "wall_time_s": 12.5,
}


def test_old_snapshot_is_refused_not_rerun_without_its_absorber(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an old snapshot must not rerun")

    monkeypatch.setattr(experiments, "run_scan", never)
    old = ScanResult("tau0", "fs", [0.0, 1.5], "net_charge", "electrons",
                     [0.0, 0.0], OLD_DESK_SCAN)
    for reference in (False, True):  # a reference run recorded null
        md = dict(OLD_DESK_SCAN, absorber=None) if reference else OLD_DESK_SCAN
        with pytest.raises(ValueError, match=r"key absorber .*'0\.1\.0'"):
            configs_from_snapshot(md)
        with pytest.raises(ValueError, match=r"key absorber .*'0\.1\.0'"):
            rerun_from_metadata(replace(old, metadata=md))
    # without the top-level absorber, the bandwidth is still stale, and so
    # is a key the grid's absorber no longer has
    md = {k: v for k, v in OLD_DESK_SCAN.items() if k != "absorber"}
    with pytest.raises(ValueError, match=r"grid\.max_bandwidth .*'0\.1\.0'"):
        configs_from_snapshot(md)
    grid = dict(md["grid"], absorber={"strength_eV": 3.0, "ramp": "cubic"})
    del grid["max_bandwidth"]
    with pytest.raises(ValueError, match=r"grid\.absorber\.ramp .*'0\.1\.0'"):
        configs_from_snapshot(dict(md, grid=grid))
    # today's snapshot of the desk grid holds its absorber, through JSON
    snap = json.loads(json.dumps(config_snapshot(grid=desk_grid())))
    assert snap["grid"]["absorber"] == OLD_DESK_SCAN["absorber"]
    assert configs_from_snapshot(snap) == (None, None, desk_grid())


@pytest.mark.parametrize("scan, values, message", [
    ("directionality", [0.5, 1.5], "ratio_eta must lie in"),
    ("width_scan", [1.0, 0.5, -0.5], "width_d must be positive"),
    ("power_scan", [7.0, -1.0], "field_F1 must be non-negative"),
], ids=["directionality", "width_scan", "power_scan"])
def test_sweep_rejects_bad_point_before_propagating(monkeypatch, scan, values,
                                                    message):
    def no_propagation(*args, **kwargs):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(experiments, "initial_state", no_propagation)
    monkeypatch.setattr(experiments, "propagate", no_propagation)
    with pytest.raises(ValueError, match=message):
        getattr(experiments, scan)(JunctionConfig(), tiny_laser(), tiny_grid(),
                                   values)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _flipped_run_replaced(monkeypatch, flipped_run):
    """Route the run under the negated waveform to flipped_run(), the other
    run to the real propagate."""
    real = experiments.propagate

    def routed(cfg, laser, *args, **kwargs):
        if laser.field_sign < 0:
            flipped_run()
        return real(cfg, laser, *args, **kwargs)

    monkeypatch.setattr(experiments, "propagate", routed)


def test_wall_charges_equal_two_sequential_runs():
    cfg, grid, laser = JunctionConfig(), tiny_grid(), tiny_laser()
    shared = initial_state(cfg, grid)
    t0, t1 = experiments.default_time_span(laser)
    sequential = []
    for las in (laser, laser.flipped()):
        res = propagate(cfg, las, grid, t0, t1, probes=(0.0, None),
                        initial=shared)
        sequential.append(tuple(transferred_charge(r) for r in res.records))
    pair = experiments._wall_charges(cfg, laser, grid, initial=shared)
    assert pair == sequential
    _assert_no_child_left()


def test_wall_charges_pass_on_a_failure_of_the_flipped_run(monkeypatch):
    def fail():
        raise SolverError("non-finite amplitudes at step 7")

    _flipped_run_replaced(monkeypatch, fail)
    with pytest.raises(SolverError, match="^non-finite amplitudes at step 7$"):
        experiments._wall_charges(JunctionConfig(), tiny_laser(), tiny_grid())
    _assert_no_child_left()


def test_wall_charges_name_a_killed_flipped_run(monkeypatch):
    _flipped_run_replaced(monkeypatch,
                          lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(SolverError, match="killed by signal 9"):
        experiments._wall_charges(JunctionConfig(), tiny_laser(), tiny_grid())
    _assert_no_child_left()


def test_wall_charges_kill_the_child_when_their_own_run_fails(monkeypatch):
    def stalled_or_failing(cfg, laser, *args, **kwargs):
        if laser.field_sign < 0:
            time.sleep(60.0)
        raise SolverError("own run failed")

    monkeypatch.setattr(experiments, "propagate", stalled_or_failing)
    started = time.perf_counter()
    with pytest.raises(SolverError, match="own run failed"):
        experiments._wall_charges(JunctionConfig(), tiny_laser(), tiny_grid())
    assert time.perf_counter() - started < 30.0
    _assert_no_child_left()


def test_wall_charges_reemit_the_flipped_runs_warnings(monkeypatch):
    def warn():
        warnings.warn("flipped first", ReflectionRiskWarning)
        warnings.warn("flipped second", ReflectionRiskWarning)

    _flipped_run_replaced(monkeypatch, warn)
    with pytest.warns(ReflectionRiskWarning) as caught:
        experiments._wall_charges(JunctionConfig(), tiny_laser(), tiny_grid())
    flipped = [str(w.message) for w in caught
               if str(w.message).startswith("flipped")]
    assert flipped == ["flipped first", "flipped second"]
    _assert_no_child_left()


_KILLED_PARENT = """
import os, sys, time
from attostm import experiments
from attostm.config import JunctionConfig, LaserConfig
from attostm.grid import GridSpec, bandwidth_steps


def stall(cfg, laser, *args, **kwargs):
    if laser.field_sign < 0:
        with open(sys.argv[1] + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(60.0)


experiments.propagate = stall
dz, dt = bandwidth_steps()
experiments._wall_charges(JunctionConfig(), LaserConfig(field_F1=7.0),
                          GridSpec(-20.0, 20.0, dz, dt))
"""


def _process_state(pid):
    """State letter of a process (Z for a zombie), None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the child's parent-death signal is Linux-only")
def test_wall_charges_child_dies_with_a_killed_parent(tmp_path):
    pid_file = tmp_path / "child.pid"
    src = str(Path(attostm.__file__).resolve().parents[1])
    parent = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT,
                               str(pid_file)],
                              env=dict(os.environ, PYTHONPATH=src))
    try:
        deadline = time.monotonic() + 30.0
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        parent.kill()
        parent.wait()
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 10.0
    while (_process_state(child) not in (None, "Z")
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert _process_state(child) in (None, "Z")
