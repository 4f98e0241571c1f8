import os
import re
import signal
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from attostm import experiments, strongfield
from attostm._fork import LostRunError
from attostm.cli import (EXIT_COMPUTE, build_junction, build_laser,
                         load_config, main)
from attostm.config import JunctionConfig, LaserConfig
from attostm.laser import (_potential_integral, _pulse, _pulses,
                           effective_keldysh, electric_field, field_crest_time,
                           find_field_crests, vector_potential)
from attostm.potential import mean_image_magnitude
from attostm.strongfield import (DEFAULT_ENERGIES, SaddleConvergenceError,
                                 _crest_amplitudes, action, cutoff_energy,
                                 directional_spectrum, directional_weight,
                                 drift_energy_bound,
                                 emission_phase_curve, solve_saddle,
                                 trajectory)
from attostm.units import EMASS, HBAR_EVFS


@pytest.fixture(scope="module")
def cfg():
    return JunctionConfig()


@pytest.fixture(scope="module")
def las8():
    return LaserConfig(field_F1=8.0)


@pytest.fixture(scope="module")
def las10():
    return LaserConfig(field_F1=10.0)


@pytest.fixture(scope="module")
def anchor():
    # the fig4bc recipe's junction and pulse
    data = load_config("fig4bc")
    return build_junction(data), build_laser(data)


def test_action_zero_field_reduction(cfg):
    # A = 0: S = E t2 + (m d^2/2)/(t2-t1) + Vbar (t2-t1) + W_t t1
    quiet = LaserConfig(field_F1=0.0)
    t1, t2 = 0.2 + 0.4j, 1.1 - 0.05j
    e, d = 3.0, cfg.width_d
    s = action(t1, t2, e, quiet, cfg)
    p_free = EMASS * d / (t2 - t1)
    expect = (e * t2 + p_free**2 / (2 * EMASS) * (t2 - t1)
              + mean_image_magnitude(cfg) * (t2 - t1)
              + cfg.workfunction_tip * t1)
    assert s == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        action(t1, t1, e, quiet, cfg)


def test_action_stationary_at_saddle(cfg, las8):
    sol = solve_saddle(4.0, las8, cfg)
    h = 1e-5

    def s(t1, t2):
        return action(t1, t2, 4.0, las8, cfg)

    ds_dt1 = (s(sol.t1 + h, sol.t2) - s(sol.t1 - h, sol.t2)) / (2 * h)
    ds_dt2 = (s(sol.t1, sol.t2 + h) - s(sol.t1, sol.t2 - h)) / (2 * h)
    assert abs(ds_dt1) < 1e-8
    assert abs(ds_dt2) < 1e-8


def test_saddle_residuals_small(cfg, las8):
    for e in (0.0, 2.0, 4.4, 6.7):
        sol = solve_saddle(e, las8, cfg)
        r1, r2, r3 = sol.residuals()
        assert max(r1, r2, r3) < 1e-8
        assert sol.t1.imag > 0


# (t1, t2, residuals(), action) at W_t = 5.1 eV on LaserConfig(field_F1=8),
# recorded before the saddle core shared its A evaluations; residuals()
# re-recorded when int A dtau went from quadrature to closed form
PINNED_SADDLES = {
    0.0: (0.28673109455005535 + 0.641625520456147j,
          1.6537451642325836 - 0.0639264497504323j,
          (2.3445927001053493e-13, 1.1102230246251565e-16,
           1.0580090413034094e-13),
          -2.241613359357687 + 1.8250932799823296j),
    2.0: (0.16695078907722427 + 0.5971970343730296j,
          1.2284481729461878 - 0.04545321680168601j,
          (6.4873476381424504e-12, 1.1102230246251565e-16,
           4.115933270647228e-12),
          0.6111480738831088 + 1.7120148984256738j),
    4.4: (-0.06372547307167091 + 0.5986598670061757j,
          0.796000985224592 + 0.029439569930487634j,
          (2.1337722051610274e-15, 1.1102230246251565e-16,
           1.802516196794476e-15),
          3.0465266829772037 + 1.6705313837278912j),
    6.7: (-0.23983826117324106 + 0.796030929385939j,
          0.4931285134596064 + 0.31734787366698486j,
          (1.3318583604935346e-11, 1.3574498805901583e-16,
           1.6374130139908153e-11),
          4.458968629908366 + 2.0452524100550513j),
}


@pytest.mark.parametrize("e", sorted(PINNED_SADDLES))
def test_saddle_core_pinned(cfg, las8, e):
    t1, t2, res, s = PINNED_SADDLES[e]
    sol = solve_saddle(e, las8, cfg)
    assert sol.t1 == pytest.approx(t1, rel=1e-12)
    assert sol.t2 == pytest.approx(t2, rel=1e-12)
    assert action(sol.t1, sol.t2, e, las8, cfg) == pytest.approx(s, rel=1e-12)
    # the residuals are rounding-level cancellations of eV-sized terms: the
    # 1e-15 floor sits below one rounding step of those terms
    assert sol.residuals() == pytest.approx(res, rel=1e-12, abs=1e-15)


def test_emission_phase_touches_keldysh_line_eta0(cfg):
    # eta = 0, long pulse: the curve touches the standard Keldysh value
    # (SK2 is exact where emission sits exactly at the crest)
    las = LaserConfig(field_F1=10.0, ratio_eta=0.0, duration_tau1=400.0,
                      duration_tau2=400.0)
    vbar = mean_image_magnitude(cfg)
    gamma = effective_keldysh(las, 5.1 - vbar)
    energies = np.arange(0.5, 8.0, 0.25)
    phases = emission_phase_curve(energies, las, cfg)
    assert np.min(np.abs(phases - gamma)) / gamma < 0.01


def test_emission_phase_tracks_modified_gamma(cfg, las10):
    vbar = mean_image_magnitude(cfg)
    gamma = effective_keldysh(las10, 5.1 - vbar)
    cutoff = cutoff_energy(las10, cfg)
    energies = np.arange(1.0, cutoff, 0.5)
    phases = emission_phase_curve(energies, las10, cfg)
    assert np.max(np.abs(phases - gamma)) / gamma < 0.10
    # the unmodified (eta = 0) line is visibly off over the same range
    gamma_std = effective_keldysh(
        LaserConfig(field_F1=10.0, ratio_eta=0.0), 5.1 - vbar)
    assert np.min(np.abs(phases - gamma_std)) / gamma_std > 0.10


def test_im_t1_grows_with_energy_past_plateau(cfg, las10):
    # brute-force scan oracle: above the plateau the emission phase rises
    # with final energy (below ~5 eV the junction's arrival constraint
    # makes the trend shallowly inverted, unlike atomic SFA)
    energies = np.arange(5.5, 13.0, 0.5)
    phases = emission_phase_curve(energies, las10, cfg)
    assert np.all(np.diff(phases) > 0)
    sol_lo = solve_saddle(6.0, las10, cfg)
    sol_hi = solve_saddle(12.0, las10, cfg)
    assert sol_hi.t1.imag > sol_lo.t1.imag


def test_cutoff_monotone_in_field(cfg):
    cuts = [cutoff_energy(LaserConfig(field_F1=f), cfg) for f in (8.0, 10.0, 12.0)]
    assert all(c is not None and c > 0 for c in cuts)
    assert cuts[0] < cuts[1] < cuts[2]


def test_drift_bound_reconstructs_reported_cutoff(cfg, las10):
    # the paper's 9.17 eV figure value coincides with the field's maximal
    # drift kinetic energy, not with the 10% emission-phase departure
    assert drift_energy_bound(las10) == pytest.approx(9.17, abs=0.15)


def test_drift_bound_slices_keep_the_whole_grid_max(las10):
    span = 2.5 * max(las10.duration_tau1, las10.duration_tau2) \
        + abs(las10.sh_center)
    tg = np.linspace(-span, span, 200_001)
    amax = np.max(np.abs(vector_potential(las10, tg)))
    del tg
    tracemalloc.start()
    try:
        bound = drift_energy_bound(las10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == float(amax**2 / (2.0 * EMASS))
    # the grid itself is 1.5 MiB; A over all of it at once peaked at 9.2 MiB
    assert peak < 3 * 2**20


def test_seed_independence(cfg, las8):
    base = solve_saddle(4.0, las8, cfg)
    cycle = 2 * np.pi / las8.omega
    rng = np.random.default_rng(3)
    for _ in range(8):
        d1 = 0.05 * cycle * (rng.uniform(-1, 1) + 1j * rng.uniform(0, 1))
        d2 = 0.05 * cycle * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        try:
            sol = solve_saddle(4.0, las8, cfg,
                               seed=(base.t1 + d1, base.t2 + d2))
        except SaddleConvergenceError:
            continue  # loud failure is acceptable; silent divergence is not
        same = abs(sol.t1 - base.t1) < 1e-8 and abs(sol.t2 - base.t2) < 1e-8
        if not same:
            # a documented different branch: still a true, physical root
            assert max(sol.residuals()) < 1e-8
            assert sol.t1.imag > 0


def test_amplitude_zero_field_and_cutoff_decay(cfg, las8):
    def amplitude(e, las):
        [m] = directional_spectrum(las, cfg, [e])
        return m

    quiet = amplitude(3.0, LaserConfig(field_F1=0.0))
    driven = amplitude(3.0, las8)
    assert quiet < 1e-6 * driven
    cut = cutoff_energy(las8, cfg)
    below = amplitude(cut - 2.0, las8) ** 2
    above = amplitude(cut + 2.0, las8) ** 2
    assert above / below < 0.1


def test_direction_parity(cfg, las8):
    # the two-colour waveform is genuinely directional once integrated over
    # the spectrum (single energies sit on multi-crest interference combs);
    # sample->tip is tip->sample of the negated waveform
    e_grid = np.arange(0.5, 12.0, 0.5)
    fwd = np.trapezoid(directional_spectrum(las8, cfg, e_grid) ** 2, e_grid)
    bwd = np.trapezoid(
        directional_spectrum(las8.flipped(), cfg, e_grid) ** 2, e_grid)
    assert fwd / bwd > 2.0


@pytest.mark.parametrize("call", [
    lambda las, cfg: solve_saddle(-3.0, las, cfg),
    lambda las, cfg: directional_weight([las], cfg, [-3.0, -2.0]),
    lambda las, cfg: directional_spectrum(las, cfg, [-3.0, 1.0]),
], ids=["solve_saddle", "directional_weight", "directional_spectrum"])
def test_final_energy_below_minus_vbar_is_refused(cfg, las8, call):
    # k(t2) = sqrt(2m(E + Vbar)) has no real root there: refuse before
    # Newton runs on NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"E = -3\.0 eV must exceed "
                           rf"-Vbar = {-mean_image_magnitude(cfg):.4f} eV"):
            call(las8, cfg)


def test_forward_spectrum_is_amplitude_modulus(cfg, las8):
    # the continued-root spectrum and the single-energy amplitude, where
    # every crest starts from its seed, are the same crest sum forward,
    # where each crest carries one physical root
    e_grid = np.arange(0.5, 12.0, 0.5)
    spectrum = directional_spectrum(las8, cfg, e_grid)
    amps = [directional_spectrum(las8, cfg, [e])[0] for e in e_grid]
    np.testing.assert_allclose(spectrum, amps, rtol=1e-9)


def test_trajectory_exit_and_closure(cfg, las8):
    sol = solve_saddle(4.4, las8, cfg)
    tr = trajectory(sol)
    assert tr.positions[0] == pytest.approx(0.35, abs=0.05)  # the exit
    assert tr.positions[-1] == pytest.approx(cfg.width_d, abs=1e-3)
    # below the cutoff Im t2 is negligible and D(Re t2) itself closes
    assert abs(tr.times[-1] - sol.t2.real) < 0.05


def test_trajectory_zero_energy_arrives_latest(cfg, las8):
    arrivals = {}
    for e in (0.0, 4.4, 6.7):
        sol = solve_saddle(e, las8, cfg)
        arrivals[e] = trajectory(sol).times[-1]
    assert arrivals[0.0] > arrivals[4.4] > arrivals[6.7]


def test_delay_scan_sf_period_and_eta0(cfg, las8):
    taus = np.linspace(-3.0855, 3.0855, 17)
    scan = experiments.delay_scan_strongfield(
        cfg, las8, taus, energies=np.arange(0.5, 12.0, 1.0)).results
    assert np.max(np.abs(scan)) == pytest.approx(1.0)
    # dominant period from the zero-padded spectrum
    padded = np.fft.rfft(scan - scan.mean(), n=16 * taus.size)
    freqs = np.fft.rfftfreq(16 * taus.size, d=taus[1] - taus[0])
    period = 1.0 / freqs[np.argmax(np.abs(padded[1:])) + 1]
    assert period == pytest.approx(las8.sh_period, rel=0.03)
    flat = experiments.delay_scan_strongfield(
        cfg, LaserConfig(field_F1=8.0, ratio_eta=0.0), np.linspace(0, 3.0, 5),
        energies=np.arange(0.5, 12.0, 1.0)).results
    # eta = 0 output is normalized noise around zero symmetry; compare raw
    # magnitudes instead: recompute without normalization via spectra
    e_grid = np.arange(0.5, 12.0, 1.0)
    las0 = LaserConfig(field_F1=8.0, ratio_eta=0.0)
    net0 = np.trapezoid(
        directional_spectrum(las0, cfg, e_grid) ** 2
        - directional_spectrum(las0.flipped(), cfg, e_grid) ** 2, e_grid)
    net2 = np.trapezoid(
        directional_spectrum(las8, cfg, e_grid) ** 2
        - directional_spectrum(las8.flipped(), cfg, e_grid) ** 2, e_grid)
    assert abs(net0) < 0.02 * abs(net2)


def _one_by_one_amplitudes(laser, cfg, energies):
    """The crest x energy loop with one public solve_saddle per crest and
    energy: continuation in E, a fresh heuristic seed after a failure,
    split sub-crest dedup and the anti-Stokes drop."""
    crests = find_field_crests(laser)
    amp = np.zeros((crests.size, energies.size), dtype=complex)
    lost = np.zeros(amp.shape, dtype=bool)
    seen = [[] for _ in energies]
    for c, tc in enumerate(crests):
        seed = None
        for k, e in enumerate(energies):
            try:
                sol = solve_saddle(e, laser, cfg, seed, crest_time=float(tc))
            except SaddleConvergenceError:
                lost[c, k] = True
                seed = None
                continue
            seed = (sol.t1, sol.t2)
            if any(abs(sol.t1 - t) < 1e-6 for t in seen[k]):
                continue
            seen[k].append(sol.t1)
            s = action(sol.t1, sol.t2, e, laser, cfg)
            if s.imag < 0:
                continue
            pref = np.sqrt(1j / (8.0 * np.pi * EMASS * HBAR_EVFS**3
                                 * (sol.t2 - sol.t1)))
            amp[c, k] = pref * np.exp(1j * s / HBAR_EVFS)
    return crests, amp, lost


def test_batched_crest_amplitudes_match_one_by_one_solves(anchor):
    # both directions at three delays in one batch: lost pairs, retries and
    # restarts in some rows must not leak into the others
    cfg, laser = anchor
    delayed = [replace(laser, base_delay_tau0=tau)
               for tau in (0.25, 1.79, 2.94)]
    lasers = [las if direction == 1 else las.flipped()
              for direction in (1, -1) for las in delayed]
    batched = _crest_amplitudes(lasers, cfg, DEFAULT_ENERGIES)
    assert len(batched) == len(lasers)
    lost_pairs = [int(lost.sum()) for _, _, lost in batched]
    assert sum(lost_pairs[:3]) > 0 and sum(lost_pairs[3:]) > 0
    for las, (crests, amp, lost) in zip(lasers, batched):
        ref_crests, ref_amp, ref_lost = _one_by_one_amplitudes(
            las, cfg, DEFAULT_ENERGIES)
        np.testing.assert_array_equal(crests, ref_crests)
        np.testing.assert_array_equal(lost, ref_lost)
        assert np.max(np.abs(amp - ref_amp)) <= 1e-12 * np.max(np.abs(ref_amp))


def test_lost_pairs_pinned_at_benchmark_delays(anchor):
    # saddle_lockin's seed-0 delays: root selection is pinned through the
    # crest/energy pairs that lose their root, (dominant, all) per direction
    cfg, laser = anchor
    step = laser.sh_period / 8
    delays = np.random.default_rng(0).uniform(0.0, step) + step * np.arange(8)
    counts = {}
    for direction in (1, -1):
        lasers = [las if direction == 1 else las.flipped()
                  for las in (replace(laser, base_delay_tau0=float(tau))
                              for tau in delays)]
        dominant = total = 0
        for las, (crests, _, lost) in zip(lasers, _crest_amplitudes(
                lasers, cfg, DEFAULT_ENERGIES)):
            field = np.abs(electric_field(las, crests))
            dominant += int(lost[field >= 0.8 * field.max()].sum())
            total += int(lost.sum())
        counts[direction] = (dominant, total)
    assert counts == {1: (29, 47), -1: (30, 41)}


def test_directional_weight_of_a_sequence(cfg, las8):
    energies = np.arange(0.5, 12.0, 1.0)
    lasers = (replace(las8, base_delay_tau0=0.0), replace(las8, base_delay_tau0=1.2))
    flipped = [las.flipped() for las in lasers]
    weights = directional_weight(flipped, cfg, energies)
    assert weights.shape == (2,)
    for las, w in zip(flipped, weights):
        single = directional_weight([las], cfg, energies)[0]
        assert w == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("energies", [[2.0], [], [[1.0, 2.0], [3.0, 4.0]],
                                      [6.0, 4.0, 2.0], [1.0, 2.0, 2.0, 3.0]],
                         ids=["one", "none", "2-d", "decreasing", "repeated"])
def test_directional_weight_refuses_a_bad_energy_grid(cfg, las8, energies):
    # one energy integrates to 0, a decreasing grid to a negative weight
    with pytest.raises(ValueError, match="strictly increasing"):
        directional_weight([las8], cfg, energies)


def _solve_saddle_chain(energies, laser, cfg):
    """sinh(omega Im t1) along a chain of public solve_saddle calls at the
    dominant crest, each root seeding the next energy."""
    crest = field_crest_time(laser)
    out, seed = [], None
    for e in energies:
        sol = solve_saddle(e, laser, cfg, seed, crest_time=crest)
        out.append(np.sinh(laser.omega * sol.t1.imag))
        seed = (sol.t1, sol.t2)
    return np.array(out)


def _fresh_seed_phases(energies, laser, cfg):
    """sinh(omega Im t1) of one fresh-seed solve_saddle per energy at the
    dominant crest; NaN where that solve fails."""
    crest = field_crest_time(laser)
    out = np.full(len(energies), np.nan)
    for i, e in enumerate(energies):
        try:
            sol = solve_saddle(e, laser, cfg, crest_time=crest)
        except SaddleConvergenceError:
            continue
        out[i] = np.sinh(laser.omega * sol.t1.imag)
    return out


def test_emission_phase_curve_is_a_chain_of_solve_saddle_calls():
    data = load_config("figSK")
    cfg, laser = build_junction(data), build_laser(data)
    energies = np.linspace(0.5, 14.0, 55)
    # each row is its own fresh-seed solve_saddle, bit for bit
    np.testing.assert_array_equal(
        emission_phase_curve(energies, laser, cfg),
        _fresh_seed_phases(energies, laser, cfg))
    # at a 9 eV tip workfunction the chain down in energy breaks at 2.5 eV:
    # the curve raises there with the chain's own message
    deep = replace(cfg, workfunction_tip=9.0)
    with pytest.raises(SaddleConvergenceError) as chain:
        _solve_saddle_chain(energies[::-1], laser, deep)
    with pytest.raises(SaddleConvergenceError) as curve:
        emission_phase_curve(energies[::-1], laser, deep)
    assert "unphysical arrival branch" in str(chain.value)
    assert str(curve.value) == str(chain.value)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _backward_run_replaced(monkeypatch, backward_run):
    """Route the backward directional_weight to backward_run(), the forward
    one to the real directional_weight."""
    real = strongfield.directional_weight

    def routed(lasers, cfg, energies):
        if lasers[0].field_sign == -1:
            backward_run()
        return real(lasers, cfg, energies)

    monkeypatch.setattr(strongfield, "directional_weight", routed)


PAIR_TAUS = np.linspace(0.0, 3.0, 4)
PAIR_ENERGIES = np.arange(1.0, 10.0, 1.5)


def test_delay_scan_sf_equals_two_sequential_weights(cfg, las8):
    lasers = [replace(las8, base_delay_tau0=float(t)) for t in PAIR_TAUS]
    net = (directional_weight(lasers, cfg, PAIR_ENERGIES)
           - directional_weight([las.flipped() for las in lasers], cfg,
                                PAIR_ENERGIES))
    scan = experiments.delay_scan_strongfield(
        cfg, las8, PAIR_TAUS, energies=PAIR_ENERGIES).results
    assert np.array_equal(scan, net / np.max(np.abs(net)))
    _assert_no_child_left()


def test_delay_scan_sf_passes_on_a_failure_of_the_backward_run(
        monkeypatch, cfg, las8):
    def fail():
        raise SaddleConvergenceError("no root at crest 3")

    _backward_run_replaced(monkeypatch, fail)
    with pytest.raises(SaddleConvergenceError, match="^no root at crest 3$"):
        experiments.delay_scan_strongfield(cfg, las8, PAIR_TAUS,
                                           energies=PAIR_ENERGIES)
    _assert_no_child_left()


def test_delay_scan_sf_names_a_killed_backward_run(tmp_path, monkeypatch,
                                                   capsys, cfg, las8):
    _backward_run_replaced(monkeypatch,
                           lambda: os.kill(os.getpid(), signal.SIGKILL))
    message = ("the backward (sample -> tip) run ended without a result: "
               "killed by signal 9")
    with pytest.raises(LostRunError, match="^" + re.escape(message)):
        experiments.delay_scan_strongfield(cfg, las8, PAIR_TAUS,
                                           energies=PAIR_ENERGIES)
    _assert_no_child_left()
    config = tmp_path / "scan.yaml"
    config.write_text(yaml.safe_dump({"scan": {
        "kind": "delay_sf", "start": 0.0, "stop": 3.0, "count": 2,
        "energies_eV": PAIR_ENERGIES.tolist()}}))
    code = main(["scan", "--config", str(config), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_COMPUTE
    assert f"scan failed: {message}" in capsys.readouterr().err
    _assert_no_child_left()


def test_delay_scan_sf_kills_the_child_when_the_forward_run_fails(
        monkeypatch, cfg, las8):
    def stalled_or_failing(lasers, cfg, energies):
        if lasers[0].field_sign == -1:
            time.sleep(60.0)
        raise SaddleConvergenceError("forward run failed")

    monkeypatch.setattr(strongfield, "directional_weight", stalled_or_failing)
    started = time.perf_counter()
    with pytest.raises(SaddleConvergenceError, match="forward run failed"):
        experiments.delay_scan_strongfield(cfg, las8, PAIR_TAUS,
                                           energies=PAIR_ENERGIES)
    assert time.perf_counter() - started < 30.0
    _assert_no_child_left()


@pytest.mark.parametrize("recipe", ["figSK", "fig4bc"])
def test_emission_phase_rows_equal_single_solves(recipe):
    # a batch row rounds as a batch of one: every row whose fresh-seed
    # solve_saddle succeeds equals it; on figSK that solve fails above
    # 32.5 eV, and the curve continues those rows from the root below
    data = load_config(recipe)
    cfg, laser = build_junction(data), build_laser(data)
    energies = np.linspace(1.0, 33.0, 129)
    curve = emission_phase_curve(energies, laser, cfg)
    single = _fresh_seed_phases(energies, laser, cfg)
    fresh = np.isfinite(single)
    assert np.all(np.isfinite(curve))
    assert np.sum(~fresh) == (2 if recipe == "figSK" else 0)
    np.testing.assert_array_equal(curve[fresh], single[fresh])


def test_directional_weight_of_eight_lasers_equals_each_alone(anchor):
    cfg, laser = anchor
    step = laser.sh_period / 8
    lasers = [replace(laser, base_delay_tau0=float(tau))
              for tau in 0.1 + step * np.arange(8)]
    for batch in (lasers, [las.flipped() for las in lasers]):
        alone = [directional_weight([las], cfg, DEFAULT_ENERGIES)[0]
                 for las in batch]
        np.testing.assert_array_equal(
            directional_weight(batch, cfg, DEFAULT_ENERGIES), alone)


def test_emission_phase_curve_ends_when_no_row_has_a_seed():
    # at a 9 eV tip workfunction the crest seed fails at 0.5-2.5 eV;
    # ascending, no earlier row has a root to continue from, so the curve
    # raises the crest-seed failure of the first energy instead of looping
    data = load_config("figSK")
    cfg = replace(build_junction(data), workfunction_tip=9.0)
    laser = build_laser(data)
    energies = np.linspace(0.5, 14.0, 55)

    def hung(signum, frame):
        raise TimeoutError("emission_phase_curve did not end")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(SaddleConvergenceError) as curve:
            emission_phase_curve(energies, laser, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for e in energies[energies <= 2.5]:
        with pytest.raises(SaddleConvergenceError) as single:
            solve_saddle(e, laser, cfg)
        if e == energies[0]:
            assert str(curve.value) == str(single.value)


_GL256_X, _GL256_W = np.polynomial.legendre.leggauss(256)


def _gl256_integral(laser, t1, t2):
    half = 0.5 * (t2 - t1)
    return half * np.sum(
        _GL256_W * vector_potential(laser, 0.5 * (t1 + t2) + half * _GL256_X))


# (t1, t2): the fundamental centres at 0 and the SH at sh_center, and a
# wave's Faddeeva argument changes half-plane where Re t crosses its centre
CLOSED_FORM_SEGMENTS = [
    (-0.7 + 0.5j, 0.9 - 0.05j),     # crosses Re t = 0
    (0.3 + 1.0j, 1.5 + 0.2j),       # Im t1 = 1 fs
    (-2.0 + 1.0j, -0.5 + 1.0j),     # both ends 1 fs above the real axis
    (-0.24 + 0.8j, 0.49 + 0.32j),   # a saddle segment above the cutoff
    (2.5 + 0.3j, 4.0 - 0.1j),
    (-118.0 + 0.5j, -116.0),        # envelope wings, both sides: A is
    (116.0 + 0.5j, 118.0 - 0.1j),   # 1e-14 (35 fs) to 1e-113 (12 fs) or 0
]


@pytest.mark.parametrize("laser", [
    LaserConfig(field_F1=8.0),
    LaserConfig(field_F1=10.0, base_delay_tau0=1.64),
    LaserConfig(field_F1=8.0, base_delay_tau0=-2.1).flipped(),
    LaserConfig(field_F1=8.0, ratio_eta=0.0, duration_tau1=12.0),
    LaserConfig(field_F1=8.0, duration_tau1=6.0, duration_tau2=4.0,
                base_delay_tau0=0.64),
], ids=["anchor", "delayed", "flipped", "fundamental", "short"])
def test_closed_form_segment_integral_matches_quadrature(laser):
    p = _pulse(laser)
    for t1, t2 in CLOSED_FORM_SEGMENTS + [(laser.sh_center - 0.6 + 0.4j,
                                           laser.sh_center + 0.8)]:
        ref = _gl256_integral(laser, t1, t2)
        got = _potential_integral(p, np.array(t1), np.array(t2))
        assert abs(got - ref) <= 1e-13 * abs(ref), (t1, t2)
    # beyond every envelope: finite, and zero where A underflows
    far = _potential_integral(p, np.array([-5000.0 + 1j, 3000.0]),
                              np.array([-4998.0, 3002.0 + 1j]))
    np.testing.assert_array_equal(far, [0.0, 0.0])


def test_closed_form_segment_integral_of_a_batch_of_mixed_lasers():
    lasers = [LaserConfig(field_F1=8.0),
              LaserConfig(field_F1=10.0, base_delay_tau0=1.64),
              LaserConfig(field_F1=8.0, base_delay_tau0=-2.1).flipped(),
              LaserConfig(field_F1=8.0, ratio_eta=0.0, duration_tau1=12.0)]
    t1, t2 = np.array(CLOSED_FORM_SEGMENTS[:len(lasers)]).T
    got = _potential_integral(_pulses(lasers), t1, t2)
    assert got.shape == (len(lasers),)
    for las, a, b, g in zip(lasers, t1, t2, got):
        ref = _gl256_integral(las, a, b)
        assert abs(g - ref) <= 1e-13 * abs(ref)
