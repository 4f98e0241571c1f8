import json

import numpy as np
import pytest

from attostm.config import JunctionConfig, LaserConfig
from attostm import experiments
from attostm.experiments import (BurstError, BurstMetrics,
                                 DirectionalityError, burst_metrics,
                                 delay_scan_strongfield, delay_scan_tdse,
                                 directionality, exponential_fit,
                                 loglog_slopes, modulation_amplitude,
                                 rerun_from_metadata, robustness_sweep)
from attostm.grid import DESK_ABSORBER, GridSpec, bandwidth_steps
from attostm.results import (ScanResult, config_hash, read_csv, save_scan,
                             state_from_json, state_to_json, write_csv,
                             write_json)
from attostm.solver import CurrentRecord, initial_state


def tiny_grid():
    dz, dt = bandwidth_steps(50.0)
    return GridSpec(-20.0, 20.0, dz, dt, 50.0)


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
    back = state_from_json(path)
    assert np.allclose(back.psi, st.psi, atol=1e-15)
    assert back.energy == pytest.approx(st.energy)


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
    sym = directionality(cfg, tiny_laser(duration_tau1=35.0), tiny_grid(),
                         [0.0, 0.04, 0.1], absorber=DESK_ABSORBER)
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
    scan = robustness_sweep("width", [0.8, 1.2], cfg, tiny_laser(),
                            tiny_grid())
    assert np.all(scan.results > 0)
    with pytest.raises(ValueError):
        robustness_sweep("bogus", [1.0], cfg, tiny_laser(), tiny_grid())


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
