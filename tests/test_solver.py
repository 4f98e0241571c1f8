import warnings

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from attostm.config import JunctionConfig, LaserConfig
from attostm.experiments import default_time_span
from attostm.grid import AbsorberSpec, GridSpec, bandwidth_steps, desk_grid, reference_grid
from attostm.potential import PotentialProfile, sample_static_profile
from attostm.solver import (CurrentRecord, InitialStateError,
                            ReflectionRiskWarning, WaveState,
                            build_hamiltonian_diagonals, directional_charges,
                            gaussian_packet, initial_state, propagate, step,
                            transferred_charge)
from attostm.units import EMASS, HBAR_EVFS, HBAR2_OVER_2M


def small_grid(z_min=-20.0, z_max=20.0):
    dz, dt = bandwidth_steps(50.0)
    return GridSpec(z_min, z_max, dz, dt, 50.0)


def short_pulse(f1=6.0, eta=np.sqrt(0.1)):
    return LaserConfig(field_F1=f1, ratio_eta=eta, duration_tau1=4.0,
                       duration_tau2=5.0)


def flat_profile(grid, value=0.0):
    return PotentialProfile(grid.z, np.full(grid.n_points, value))


def test_grid_presets():
    ref = reference_grid()
    assert ref.dz_pm == pytest.approx(27.6, abs=0.1)
    assert ref.dt_as == pytest.approx(13.2, abs=0.2)
    assert ref.n_points > 20_000
    with pytest.raises(ValueError):
        GridSpec(-10, 10, ref.dz, ref.dt * 2, 50.0)  # dt too large
    with pytest.raises(ValueError):
        GridSpec(-10, 10, 0.2, ref.dt, 50.0)  # dz too coarse


def test_diagonals_zero_potential():
    grid = small_grid()
    main, off = build_hamiltonian_diagonals(flat_profile(grid), grid)
    k = HBAR2_OVER_2M / grid.dz**2
    assert np.allclose(main, 2.0 * k)
    assert off == pytest.approx(-k)
    with pytest.raises(ValueError):
        build_hamiltonian_diagonals(flat_profile(small_grid(-10, 10)), grid)


def test_diagonals_hermitian():
    grid = small_grid(-2.0, 2.0)
    profile = sample_static_profile(JunctionConfig(), grid.z)
    main, off = build_hamiltonian_diagonals(profile, grid)
    h = np.diag(main) + np.diag(np.full(main.size - 1, off), 1) \
        + np.diag(np.full(main.size - 1, off), -1)
    assert np.array_equal(h, h.conj().T)


def test_diagonals_box_modes():
    # particle-in-a-box oracle: E_n = hbar^2 (n pi / L)^2 / 2m
    grid = small_grid(-5.0, 5.0)
    main, off = build_hamiltonian_diagonals(flat_profile(grid), grid)
    from scipy.linalg import eigh_tridiagonal
    w, _ = eigh_tridiagonal(main, np.full(main.size - 1, off),
                            select="i", select_range=(0, 4))
    length = (grid.n_points - 1) * grid.dz
    for n, e in enumerate(w, start=1):
        analytic = HBAR2_OVER_2M * (n * np.pi / length) ** 2
        assert e == pytest.approx(analytic, rel=0.01)


def test_initial_state_properties():
    cfg = JunctionConfig()
    grid = desk_grid()
    st = initial_state(cfg, grid)
    assert st.energy == pytest.approx(-cfg.workfunction_tip, abs=0.2)
    assert st.norm_squared == pytest.approx(1.0, abs=1e-10)
    beyond_tip = np.sum(st.density()[grid.z >= 0.0]) * grid.dz
    assert beyond_tip < 0.01
    assert st.psi[0] == 0.0 and st.psi[-1] == 0.0


def test_initial_state_against_shift_invert_oracle():
    cfg = JunctionConfig()
    grid = small_grid(-25.0, 25.0)
    st = initial_state(cfg, grid)
    profile = sample_static_profile(cfg, grid.z)
    main, off = build_hamiltonian_diagonals(profile, grid)
    h = diags([np.full(main.size - 1, off), main, np.full(main.size - 1, off)],
              [-1, 0, 1], format="csc")
    w, v = eigsh(h, k=6, sigma=-cfg.workfunction_tip)
    # the chosen eigenvalue appears in the shift-invert spectrum
    assert np.min(np.abs(w - st.energy)) < 1e-8
    i = int(np.argmin(np.abs(w - st.energy)))
    overlap = abs(np.vdot(v[:, i], st.psi[1:-1])) * grid.dz ** 0.5
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_initial_state_errors():
    cfg = JunctionConfig()
    grid = small_grid(-10.0, 10.0)
    with pytest.raises(InitialStateError):
        # window far narrower than the level spacing: no eigenvalue inside
        initial_state(cfg, grid, window=1e-9)


def test_step_norm_conservation():
    grid = small_grid()
    packet = gaussian_packet(grid, center=-5.0, sigma=1.5, k0=3.0)
    main_off = build_hamiltonian_diagonals(flat_profile(grid), grid)
    state = packet
    for _ in range(1000):
        state = step(state, main_off, grid.dt)
    assert abs(state.norm_squared - 1.0) < 1e-10


def test_step_free_packet_group_velocity():
    grid = small_grid(-30.0, 30.0)
    k0 = 3.0
    packet = gaussian_packet(grid, center=-8.0, sigma=2.0, k0=k0)
    main_off = build_hamiltonian_diagonals(flat_profile(grid), grid)
    state = packet
    n_steps = 500
    for _ in range(n_steps):
        state = step(state, main_off, grid.dt)
    z = grid.z
    center0 = np.sum(z * packet.density()) * grid.dz
    center1 = np.sum(z * state.density()) * grid.dz
    v_measured = (center1 - center0) / (n_steps * grid.dt)
    v_expected = HBAR_EVFS * k0 / EMASS
    assert v_measured == pytest.approx(v_expected, rel=5e-3)


def test_step_stationary_eigenstate():
    cfg = JunctionConfig()
    grid = small_grid()
    st = initial_state(cfg, grid)
    main_off = build_hamiltonian_diagonals(
        sample_static_profile(cfg, grid.z), grid)
    state = st
    for _ in range(1000):
        state = step(state, main_off, grid.dt)
    overlap = abs(np.vdot(st.psi, state.psi)) * grid.dz
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_propagate_zero_field_vs_driven():
    grid = small_grid()
    cfg = JunctionConfig()
    st = initial_state(cfg, grid)
    quiet = propagate(cfg, LaserConfig(field_F1=0.0), grid, -25.0, -15.0,
                      probes=(None,), initial=st)
    driven = propagate(cfg, short_pulse(f1=10.0), grid, -25.0, 5.0,
                       probes=(None,), initial=st)
    peak = np.max(np.abs(driven.records[0].current_density))
    assert np.max(np.abs(quiet.records[0].current_density)) < 1e-12 * peak


def test_propagate_norm_and_residual():
    grid = small_grid()
    cfg = JunctionConfig()
    res = propagate(cfg, short_pulse(), grid, -25.0, 5.0, probes=(None,))
    assert abs(1.0 - res.norm_final) < 1e-6
    assert res.max_residual < 1e-12


def test_net_charge_sign_flips_with_waveform():
    # both electrodes carry electrons: the experiment's net current is the
    # tip run minus the field-flipped tip run (parity in a symmetric
    # junction), and that net inverts exactly under waveform negation
    from attostm.experiments import net_delay_charge

    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse()
    st = initial_state(cfg, grid)
    q_net = net_delay_charge(cfg, las, grid, initial=st)
    q_neg = net_delay_charge(cfg, las.flipped(), grid, initial=st)
    assert q_net != 0.0
    assert q_neg == -q_net


def test_wall_charges_consistent():
    # the same single run's transferred charge agrees at both walls up to
    # the residual gap population (supports the net-current construction);
    # the box is large enough that end reflections cannot return in time
    grid = small_grid(-45.0, 45.0)
    cfg = JunctionConfig()
    las = short_pulse(f1=8.0)
    st = initial_state(cfg, grid)
    res = propagate(cfg, las, grid, -25.0, 25.0, probes=(0.0, None),
                    initial=st)
    q0 = transferred_charge(res.records[0])
    qd = transferred_charge(res.records[1])
    assert qd == pytest.approx(q0, rel=0.05)


def test_transferred_charge_additivity_and_zero():
    t = np.linspace(0.0, 10.0, 101)
    zero = CurrentRecord(1.0, t, np.zeros(t.size))
    assert transferred_charge(zero) == 0.0
    rng = np.random.default_rng(7)
    j = rng.standard_normal(t.size)
    rec = CurrentRecord(1.0, t, j)
    parts = (transferred_charge(CurrentRecord(1.0, t[:51], j[:51]))
             + transferred_charge(CurrentRecord(1.0, t[50:], j[50:])))
    assert parts == pytest.approx(transferred_charge(rec), abs=1e-12)


def test_directional_charges_split():
    t = np.linspace(0.0, 2.0, 201)
    j = np.sin(2 * np.pi * t)
    jp, jm = directional_charges(CurrentRecord(1.0, t, j))
    assert jp == pytest.approx(jm, rel=1e-6)
    assert jp > 0


def test_gauge_offset_invariance():
    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse()
    st = initial_state(cfg, grid)
    profile = sample_static_profile(cfg, grid.z)
    res_a = propagate(cfg, las, grid, -25.0, 5.0, probes=(None,),
                      initial=st, static_profile=profile)
    res_b = propagate(cfg, las, grid, -25.0, 5.0, probes=(None,),
                      initial=st, static_profile=profile.shifted(5.0))
    ja = res_a.records[0].current_density
    jb = res_b.records[0].current_density
    assert np.max(np.abs(ja - jb)) <= 1e-9 * max(np.max(np.abs(ja)), 1e-300)
    da = res_a.final_state.density()
    db = res_b.final_state.density()
    assert np.max(np.abs(da - db)) <= 1e-9 * np.max(da)


def test_default_span_starts_at_onset_without_warning():
    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse()
    t0, t1 = default_time_span(las)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        propagate(cfg, las, grid, t0, t1, probes=(None,))
    with pytest.warns(UserWarning, match="pulse onset"):
        propagate(cfg, las, grid, t0 + 1.0, t0 + 2.0, probes=(None,))


def test_reflection_warning():
    grid = small_grid(-15.0, 15.0)
    cfg = JunctionConfig()
    packet = gaussian_packet(grid, center=5.0, sigma=1.0, k0=8.0)
    with pytest.warns(ReflectionRiskWarning):
        propagate(cfg, LaserConfig(field_F1=0.0), grid, 0.0, 14.0,
                  probes=(None,), initial=packet,
                  static_profile=flat_profile(grid))


def test_wavestate_validation():
    grid = small_grid()
    psi = np.zeros(grid.n_points, complex)
    psi[5] = 1.0
    with pytest.raises(ValueError):
        WaveState(grid, psi[:-1], 0.0)
    bad = psi.copy()
    bad[0] = 0.1
    with pytest.raises(ValueError):
        WaveState(grid, bad, 0.0)


def test_current_record_validation():
    t = np.linspace(0, 1, 64)
    with pytest.raises(ValueError):
        CurrentRecord(1.0, t[::-1], np.zeros(64))
    tt = t.copy()
    tt[10] += 0.01
    with pytest.raises(ValueError):
        CurrentRecord(1.0, tt, np.zeros(64))


def analytic_transmission(e, v0, width):
    kappa = np.sqrt(2 * EMASS * (v0 - e)) / HBAR_EVFS
    return 1.0 / (1.0 + v0**2 * np.sinh(kappa * width) ** 2
                  / (4 * e * (v0 - e)))


def test_rectangular_barrier_transmission():
    # energy-resolved transmission of a 4 eV packet through a 5 eV, 0.5 nm
    # barrier against the analytic formula
    v0, width = 5.0, 0.5
    assert analytic_transmission(4.0, v0, width) == pytest.approx(0.015, abs=0.001)
    dz = bandwidth_steps(50.0)[0] / 2.0
    grid = GridSpec(-60.0, 60.0, dz, bandwidth_steps(50.0)[1], 50.0)
    z = grid.z
    # sampled step potentials have midpoint edges: m interior points make
    # an effective width of m*dz, which is what the oracle must see
    j0 = int(np.searchsorted(z, 0.0))
    m = int(round(width / grid.dz))
    width = m * grid.dz
    values = np.zeros(z.size)
    values[j0:j0 + m] = v0
    barrier = PotentialProfile(z, values)
    k0 = np.sqrt(2 * EMASS * 4.0) / HBAR_EVFS
    packet = gaussian_packet(grid, center=-12.0, sigma=1.0, k0=k0)
    cfg = JunctionConfig(width_d=width)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReflectionRiskWarning)
        res = propagate(cfg, LaserConfig(field_F1=0.0), grid, 0.0, 32.0,
                        probes=(None,), initial=packet, static_profile=barrier)
    mask = 0.5 * (1.0 + np.tanh((z - 1.5) / 0.4))
    spec_t = np.fft.fft(res.final_state.psi * mask)
    spec_i = np.fft.fft(packet.psi)
    k = 2 * np.pi * np.fft.fftfreq(z.size, d=grid.dz)
    # label components by the grid Hamiltonian's own dispersion
    e_all = 2.0 * HBAR2_OVER_2M / grid.dz**2 * (1.0 - np.cos(k * grid.dz))
    sel = (k > 0) & (np.abs(spec_i) > 0.2 * np.max(np.abs(spec_i))) \
        & (e_all < v0 - 0.15)  # the sinh formula holds below the barrier top
    t_num = np.abs(spec_t[sel]) ** 2 / np.abs(spec_i[sel]) ** 2
    t_ref = analytic_transmission(e_all[sel], v0, width)
    assert np.max(np.abs(t_num / t_ref - 1.0)) < 0.02


def test_absorber_drains_outgoing_flux():
    grid = small_grid(-20.0, 20.0)
    packet = gaussian_packet(grid, center=0.0, sigma=1.5, k0=8.0)
    absorber = AbsorberSpec(strength_eV=3.0, fraction=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReflectionRiskWarning)
        res = propagate(JunctionConfig(), LaserConfig(field_F1=0.0), grid,
                        0.0, 30.0, probes=(2.0,), initial=packet,
                        static_profile=flat_profile(grid), absorber=absorber)
    assert res.norm_final < 0.6  # packet absorbed instead of reflected
    # whatever is left must not have bounced back through the probe
    late = res.records[0].current_density[-200:]
    assert np.max(np.abs(late)) < 1e-4 * np.max(np.abs(res.records[0].current_density))
