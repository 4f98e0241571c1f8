import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from attostm import solver
from attostm.config import JunctionConfig, LaserConfig
from attostm.experiments import default_time_span
from attostm.grid import (DESK_ABSORBER, AbsorberSpec, GridSpec, bandwidth_steps,
                          desk_grid, reference_grid)
from attostm.laser import electric_field
from attostm.potential import PotentialProfile, sample_static_profile
from attostm.solver import (CurrentRecord, InitialStateError, MapSpec,
                            ReflectionRiskWarning, WaveState,
                            build_hamiltonian_diagonals, initial_state,
                            propagate, transferred_charge)
from attostm.units import (AUTIME_FS, BOHR_NM, EMASS, HARTREE_EV, HBAR_EVFS,
                           HBAR2_OVER_2M)
from tip_cuts import (largest_prime_factor, row, rule_cut, rule_cut_nm,
                      rule_top_nm)
from wavepackets import gaussian_packet


def small_grid(z_min=-20.0, z_max=20.0):
    dz, dt = bandwidth_steps()
    return GridSpec(z_min, z_max, dz, dt)


def short_pulse(f1=6.0, eta=np.sqrt(0.1)):
    return LaserConfig(field_F1=f1, ratio_eta=eta, duration_tau1=4.0,
                       duration_tau2=5.0)


def flat_profile(grid, value=0.0):
    return PotentialProfile(grid.z, np.full(grid.n_points, value))


def field_free_steps(grid, initial, n_steps, profile):
    """Final state after n_steps Crank-Nicolson steps with the laser off."""
    res = propagate(JunctionConfig(), LaserConfig(field_F1=0.0), grid, 0.0,
                    n_steps * grid.dt, probes=(None,), initial=initial,
                    static_profile=profile)
    assert res.records[0].times.size == n_steps + 1
    return res.final_state


def test_grid_presets():
    ref = reference_grid()
    assert ref.dz * 1e3 == pytest.approx(27.6, abs=0.1)  # pm
    assert ref.dt * 1e3 == pytest.approx(13.2, abs=0.2)  # as
    assert ref.n_points > 20_000
    # each preset's grid carries its absorber
    assert ref.absorber is None and desk_grid().absorber == DESK_ABSORBER
    with pytest.raises(ValueError):
        GridSpec(-10, 10, ref.dz, ref.dt * 2)  # dt too large
    with pytest.raises(ValueError):
        GridSpec(-10, 10, 0.2, ref.dt)  # dz too coarse


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
    beyond_tip = np.sum(np.abs(st.psi[grid.z >= 0.0]) ** 2) * grid.dz
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
    # tip and sample side equally long: no state near -W_t holds 99 % of
    # its probability at z < 0
    with pytest.raises(InitialStateError, match=r"no tip-localized state "
                       r"near -5\.1 eV \(best localization 0\.984\)"):
        initial_state(cfg, small_grid(-10.0, 10.0))
    # a 1.6 nm box: its levels lie further apart than the window is wide
    with pytest.raises(InitialStateError,
                       match=r"no eigenvalue within \+-0\.5 eV of -5\.1 eV"):
        initial_state(cfg, small_grid(-0.3, 1.3))


def one_shot_pick(cfg, grid):
    """Energy and |eigenvector| of the nearest tip-localised state over the
    whole +-0.5 eV, every pair from one eigen-solve (the tie goes to the
    more localised state), and the tip fraction of the nearest eigenvalue."""
    main, off = build_hamiltonian_diagonals(
        sample_static_profile(cfg, grid.z), grid)
    target = -cfg.workfunction_tip
    w, v = eigh_tridiagonal(main, np.full(main.size - 1, off), select="v",
                            select_range=(target - 0.5, target + 0.5))
    tip_frac = np.sum(v[grid.z[1:-1] < 0.0] ** 2, axis=0)
    dist = np.abs(w - target)
    order = np.argsort(dist, kind="stable")
    localized = [i for i in order if tip_frac[i] >= 0.99]
    best = localized[0]
    for i in localized[1:]:
        if abs(dist[i] - dist[best]) < 1e-12 and tip_frac[i] > tip_frac[best]:
            best = i
    return w[best], np.abs(v[:, best]), tip_frac[order[0]]


@pytest.mark.parametrize("grid, widens", [
    (desk_grid(), False),
    # the eigenvalue nearest -W_t is a sample state (tip fraction 8e-8) and
    # the pick lies 32 meV away, outside the first window
    (small_grid(), True),
], ids=["desk", "pm20"])
def test_initial_state_matches_the_full_window_pick(monkeypatch, grid, widens):
    cfg = JunctionConfig()
    energy, magnitude, nearest_tip_frac = one_shot_pick(cfg, grid)
    windows = []

    def recording(*args, select_range, **kwargs):
        windows.append(0.5 * (select_range[1] - select_range[0]))
        return eigh_tridiagonal(*args, select_range=select_range, **kwargs)

    monkeypatch.setattr(solver, "eigh_tridiagonal", recording)
    st = initial_state(cfg, grid)
    assert (nearest_tip_frac < 0.99) == widens
    assert (len(windows) > 1) == widens
    assert max(windows) < 0.5
    assert st.energy == pytest.approx(energy, abs=1e-12)
    got = np.abs(st.psi[1:-1]) * np.sqrt(grid.dz)
    assert np.max(np.abs(got - magnitude)) <= 1e-12 * np.max(magnitude)


def test_step_norm_conservation():
    grid = small_grid()
    packet = gaussian_packet(grid, center=-5.0, sigma=1.5, k0=3.0)
    state = field_free_steps(grid, packet, 1000, flat_profile(grid))
    assert abs(state.norm_squared - 1.0) < 1e-10


def test_step_free_packet_group_velocity():
    grid = small_grid(-30.0, 30.0)
    k0 = 3.0
    packet = gaussian_packet(grid, center=-8.0, sigma=2.0, k0=k0)
    n_steps = 500
    state = field_free_steps(grid, packet, n_steps, flat_profile(grid))
    z = grid.z
    center0 = np.sum(z * np.abs(packet.psi) ** 2) * grid.dz
    center1 = np.sum(z * np.abs(state.psi) ** 2) * grid.dz
    v_measured = (center1 - center0) / (n_steps * grid.dt)
    v_expected = HBAR_EVFS * k0 / EMASS
    assert v_measured == pytest.approx(v_expected, rel=5e-3)


def test_step_stationary_eigenstate():
    cfg = JunctionConfig()
    grid = small_grid()
    st = initial_state(cfg, grid)
    state = field_free_steps(grid, st, 1000,
                             sample_static_profile(cfg, grid.z))
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


def test_gauge_offset_invariance():
    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse()
    st = initial_state(cfg, grid)
    profile = sample_static_profile(cfg, grid.z)
    res_a = propagate(cfg, las, grid, -25.0, 5.0, probes=(None,),
                      initial=st, static_profile=profile)
    res_b = propagate(cfg, las, grid, -25.0, 5.0, probes=(None,),
                      initial=st, static_profile=PotentialProfile(
                          profile.grid_z, profile.values + 5.0))
    ja = res_a.records[0].current_density
    jb = res_b.records[0].current_density
    assert np.max(np.abs(ja - jb)) <= 1e-9 * max(np.max(np.abs(ja)), 1e-300)
    da = np.abs(res_a.final_state.psi) ** 2
    db = np.abs(res_b.final_state.psi) ** 2
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


def test_map_spec_validation():
    for z_lo, z_hi in ((1.0, 1.0), (2.0, -1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="z_lo < z_hi"):
            MapSpec(z_lo, z_hi)
    for stride in (0, -8, 2.5):
        with pytest.raises(ValueError, match="stride"):
            MapSpec(-1.0, 2.0, stride)
    assert MapSpec(-1.0, 2.0, 8.0).stride == 8


def test_probe_and_map_must_lie_inside_the_grid():
    grid = small_grid()
    cfg = JunctionConfig()
    las = LaserConfig(field_F1=0.0)
    packet = gaussian_packet(grid, center=-5.0, sigma=1.5, k0=3.0)

    def run(probes=(None,), map_spec=None):
        return propagate(cfg, las, grid, 0.0, 0.1, probes=probes,
                         initial=packet, map_spec=map_spec)

    for z in (500.0, -20.0, 20.0):
        with pytest.raises(ValueError, match="probe .* outside the grid"):
            run(probes=(1.0, z))
    with pytest.raises(ValueError, match="map edge z_hi .* outside the grid"):
        run(map_spec=MapSpec(-1.0, 25.0))
    with pytest.raises(ValueError, match="map edge z_lo .* outside the grid"):
        run(map_spec=MapSpec(-20.0, 2.0))
    with pytest.raises(ValueError, match="narrower than one grid step"):
        run(map_spec=MapSpec(1.0, 1.0 + 0.1 * grid.dz))
    # the outermost interior points are accepted
    res = run(probes=(grid.z[1], grid.z[-2]),
              map_spec=MapSpec(grid.z[1], grid.z[-2], 4))
    assert res.map.j.shape == ((res.records[0].times.size - 1) // 4 + 1,
                               grid.n_points - 3)


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
    dz = bandwidth_steps()[0] / 2.0
    grid = GridSpec(-60.0, 60.0, dz, bandwidth_steps()[1])
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
    grid = replace(small_grid(-20.0, 20.0),
                   absorber=AbsorberSpec(strength_eV=3.0, fraction=0.3))
    packet = gaussian_packet(grid, center=0.0, sigma=1.5, k0=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReflectionRiskWarning)
        res = propagate(JunctionConfig(), LaserConfig(field_F1=0.0), grid,
                        0.0, 30.0, probes=(2.0,), initial=packet,
                        static_profile=flat_profile(grid))
    assert res.norm_final < 0.6  # packet absorbed instead of reflected
    # whatever is left must not have bounced back through the probe
    late = res.records[0].current_density[-200:]
    assert np.max(np.abs(late)) < 1e-4 * np.max(np.abs(res.records[0].current_density))


def full_grid_run(cfg, laser, grid, t0, t1, initial, probes, map_spec=None):
    """(probe currents, map rows, final psi) of a plain Crank-Nicolson loop
    over the whole grid with solve_banded: no mode blocks, no chunks."""
    values = sample_static_profile(cfg, grid.z).values
    vstat = (values - values.min()) / HARTREE_EV + 0j
    if grid.absorber is not None:
        vstat -= 1j * grid.absorber.profile(grid) / HARTREE_EV
    zcoef = np.clip(grid.z, 0.0, cfg.width_d) / HARTREE_EV
    koff = 0.5 / (grid.dz / BOHR_NM) ** 2
    half_dt = 0.5 * grid.dt / AUTIME_FS
    n_steps = max(1, int(np.ceil((t1 - t0) / grid.dt - 1e-9)))
    efield = electric_field(laser, t0 + grid.dt * np.arange(n_steps))
    jcoef = (HBAR_EVFS / EMASS) / (2.0 * grid.dz)
    idx = np.array([int(round((z - grid.z_min) / grid.dz)) for z in probes])
    if map_spec is not None:
        map_idx = np.arange(int(round((map_spec.z_lo - grid.z_min) / grid.dz)),
                            int(round((map_spec.z_hi - grid.z_min) / grid.dz)))

    def j_at(i):
        return jcoef * np.imag(np.conj(psi[i]) * (psi[i + 1] - psi[i - 1]))

    psi = initial.psi.copy()
    a_off = -1j * half_dt * koff
    ab = np.empty((3, grid.n_points - 2), dtype=np.complex128)
    ab[0] = ab[2] = a_off
    currents, rows = [], []
    for n in range(n_steps + 1):
        currents.append(j_at(idx))
        if map_spec is not None and n % map_spec.stride == 0:
            rows.append(j_at(map_idx))
        if n == n_steps:
            break
        ab[1] = 1.0 + 1j * half_dt * (2.0 * koff + vstat[1:-1]
                                      + efield[n] * zcoef[1:-1])
        r = -a_off * (psi[:-2] + psi[2:]) + (2.0 - ab[1]) * psi[1:-1]
        psi[1:-1] = solve_banded((1, 1), ab, r)
    return np.array(currents).T, np.array(rows), psi


def assert_matches_full_grid(res, ref, tol=1e-9):
    j_ref, map_ref, psi_ref = ref
    j = np.array([rec.current_density for rec in res.records])
    assert np.max(np.abs(j - j_ref)) <= tol * np.max(np.abs(j_ref))
    if res.map is not None:
        assert np.max(np.abs(res.map.j - map_ref)) \
            <= tol * np.max(np.abs(map_ref))
    psi = res.final_state.psi
    assert np.max(np.abs(psi - psi_ref)) <= tol * np.max(np.abs(psi_ref))
    assert res.norm_final == pytest.approx(
        WaveState.norm_squared_of(psi_ref, res.final_state.grid.dz), rel=tol)


def test_tip_closure_matches_full_grid():
    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse(f1=8.0)
    st = initial_state(cfg, grid)
    t0, t1 = default_time_span(las)
    map_spec = MapSpec(-0.5, cfg.width_d + 0.5, 16)
    res = propagate(cfg, las, grid, t0, t1, probes=(0.0, None), initial=st,
                    map_spec=map_spec)
    # the tip block reaches up to two rows below the map's first point,
    # less the rows the FFT length rule takes off
    assert res.tip_cut_nm == pytest.approx(
        rule_cut_nm(grid, -0.5 - 2 * grid.dz), abs=0.5 * grid.dz)
    # the sample block starts two rows above the map's last point; with
    # no absorber its run ends one row below the last interior row, less
    # the rows the FFT length rule takes off
    lo, hi = res.sample_block_nm
    start = row(grid, cfg.width_d + 0.5) + 1
    assert lo == grid.z[start]
    assert hi == rule_top_nm(grid, start, grid.n_points - 2)
    # the solve updates the rows between the two blocks and those above
    # the sample block
    assert res.stepped_points == round((lo - res.tip_cut_nm) / grid.dz) - 1 \
        + round((grid.z[-2] - hi) / grid.dz)
    assert res.stepped_points < 0.1 * grid.n_points
    assert res.norm_initial == pytest.approx(st.norm_squared, rel=1e-12)
    assert_matches_full_grid(res, full_grid_run(
        cfg, las, grid, t0, t1, st, (0.0, cfg.width_d), map_spec))


@pytest.mark.parametrize("case", ["grid_end_probes", "map_stride_7"])
def test_recording_edge_cases_match_full_grid(case):
    # probes on the first and last interior rows read the Dirichlet ends,
    # which the stepped rows do not include, and span enough rows to
    # shorten the chunks; a map stride of 7 puts the map rows at a
    # different offset in each 512-step chunk
    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse(f1=8.0)
    st = initial_state(cfg, grid)
    t0, t1 = default_time_span(las)
    assert (t1 - t0) / grid.dt > 3 * solver.CHUNK_STEPS
    if case == "grid_end_probes":
        probes, map_spec = (grid.z[1], grid.z[-2]), None
        assert grid.n_points > solver._RECORD_ELEMENTS // solver.CHUNK_STEPS
    else:
        probes, map_spec = (0.0, None), MapSpec(-0.5, cfg.width_d + 0.5, 7)
    res = propagate(cfg, las, grid, t0, t1, probes=probes, initial=st,
                    map_spec=map_spec)
    ref = full_grid_run(cfg, las, grid, t0, t1, st,
                        [cfg.width_d if p is None else p for p in probes],
                        map_spec)
    # every probe sees a current, so a probe recorded as zeros fails
    assert np.all(np.max(np.abs(ref[0]), axis=1) > 1e-6)
    assert_matches_full_grid(res, ref)
    if map_spec is not None:
        assert res.map.j.shape == ref[1].shape


def test_tip_closure_exact_after_reflection_off_z_min():
    # a packet launched in the tip toward z_min lives in the sine modes,
    # reflects off the Dirichlet end and comes back through the cut
    grid = small_grid(-15.0, 15.0)
    cfg = JunctionConfig()
    las = short_pulse()
    packet = gaussian_packet(grid, center=-6.0, sigma=1.0, k0=-8.0)
    t0 = default_time_span(las)[0]
    t1 = t0 + 28.0
    with pytest.warns(ReflectionRiskWarning, match="tip-side"):
        res = propagate(cfg, las, grid, t0, t1, probes=(None,), initial=packet)
    assert res.tip_cut_nm > -1.0  # the packet starts inside the tip block
    ref = full_grid_run(cfg, las, grid, t0, t1, packet, (cfg.width_d,))
    # the reflected packet has reached the sample wall
    assert np.max(np.abs(ref[0][0, -200:])) > 1e-3 * np.max(np.abs(ref[0]))
    assert_matches_full_grid(res, ref)


def test_sample_block_exact_through_the_absorber_and_back():
    # a packet launched inside the sample block crosses it, enters the
    # absorber, reflects off z_max and comes back through the block
    grid = replace(small_grid(-15.0, 15.0), absorber=DESK_ABSORBER)
    cfg = JunctionConfig()
    las = short_pulse()
    packet = gaussian_packet(grid, center=6.0, sigma=1.0, k0=20.0)
    t0 = default_time_span(las)[0]
    t1 = t0 + 8.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReflectionRiskWarning)
        res = propagate(cfg, las, grid, t0, t1, probes=(None,),
                        initial=packet)
        ref = full_grid_run(cfg, las, grid, t0, t1, packet, (cfg.width_d,))
    lo, hi = res.sample_block_nm
    # the block starts two rows above the probe at z = d, and its run ends
    # where the absorber starts
    start = row(grid, cfg.width_d) + 2
    absorber = int(np.flatnonzero(grid.absorber.profile(grid))[0])
    assert lo == grid.z[start]
    assert hi == rule_top_nm(grid, start, absorber)
    psi = ref[2]
    inside = (grid.z >= lo) & (grid.z <= hi)
    dens = np.abs(psi) ** 2
    flux = np.imag(np.conj(psi[1:-1]) * (psi[2:] - psi[:-2]))
    # the absorber took most of the packet; what is left is back inside
    # the block and runs toward the tip
    assert res.norm_final < 1e-3 * res.norm_initial
    assert np.sum(dens[inside]) > 0.9 * np.sum(dens)
    assert np.sum(flux[inside[1:-1]]) < 0.0
    assert_matches_full_grid(res, ref)


def test_sample_side_warning_through_the_sample_block():
    # without an absorber the sample block's run ends one row below the
    # last interior row; the edge check still sees a packet that crosses
    # the block, because its rows are rebuilt from the modes after every
    # chunk
    grid = small_grid(-15.0, 15.0)
    cfg = JunctionConfig()
    las = short_pulse()
    packet = gaussian_packet(grid, center=2.5, sigma=0.5, k0=8.0)
    t0 = default_time_span(las)[0]
    t1 = t0 + 10.0
    with pytest.warns(ReflectionRiskWarning, match="sample-side"):
        res = propagate(cfg, las, grid, t0, t1, probes=(None,), initial=packet)
    lo, hi = res.sample_block_nm
    start = row(grid, cfg.width_d) + 2
    assert lo == grid.z[start]
    assert hi == rule_top_nm(grid, start, grid.n_points - 2)
    assert_matches_full_grid(res, full_grid_run(
        cfg, las, grid, t0, t1, packet, (cfg.width_d,)))


def test_probe_inside_the_tip_moves_the_cut():
    grid = small_grid()
    cfg = JunctionConfig()
    las = short_pulse(f1=8.0)
    st = initial_state(cfg, grid)
    t0, t1 = default_time_span(las)
    res = propagate(cfg, las, grid, t0, t1, probes=(-5.0, None), initial=st)
    assert res.tip_cut_nm == pytest.approx(
        rule_cut_nm(grid, -5.0 - 2 * grid.dz), abs=0.5 * grid.dz)
    assert_matches_full_grid(res, full_grid_run(
        cfg, las, grid, t0, t1, st, (-5.0, cfg.width_d)))
    # with nothing recorded, the block reaches up to where the laser starts
    # (the last row at z <= 0), less the rows the FFT length rule takes
    # off, also where the sample plateau is the longer run
    for g in (grid, small_grid(-5.0, 20.0)):
        empty = WaveState(g, np.zeros(g.n_points), t0)
        bare = propagate(cfg, las, g, t0, t0 + 1.0, probes=(), initial=empty)
        assert bare.records == []
        assert bare.tip_cut_nm == pytest.approx(
            rule_cut_nm(g, g.z[g.z <= 0.0][-1]), abs=0.5 * g.dz)


def test_tip_cut_below_a_bluestein_length_matches_full_grid():
    # with a probe at z = 0 this grid's flat tip run ends at the cut
    # J0 = 293, a prime, so its sine transform of 2 J0 points would take
    # Bluestein's FFT; the cut moves down and the rows between are stepped
    grid = small_grid(-8.11, 8.0)
    cfg = JunctionConfig()
    las = short_pulse(f1=8.0)
    old = round(-grid.z_min / grid.dz) - 1
    assert largest_prime_factor(2 * old) == old == 293
    packet = gaussian_packet(grid, center=-4.0, sigma=0.5, k0=-8.0)
    t0 = default_time_span(las)[0]
    t1 = t0 + 16.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReflectionRiskWarning)
        res = propagate(cfg, las, grid, t0, t1, probes=(0.0, None),
                        initial=packet)
    assert rule_cut(old) < old
    assert res.tip_cut_nm == pytest.approx(grid.z[rule_cut(old) - 1],
                                           abs=0.5 * grid.dz)
    ref = full_grid_run(cfg, las, grid, t0, t1, packet, (0.0, cfg.width_d))
    # the packet reflected off z_min has come back out of the tip block
    # and reaches the probe at z = 0
    assert np.max(np.abs(ref[0][0, -200:])) > 1e-3 * np.max(np.abs(ref[0]))
    assert_matches_full_grid(res, ref)


def test_charges_converge_at_second_order_in_dt():
    # Crank-Nicolson is second order in dt: each halving of the step shrinks
    # the change of the transferred charge about fourfold. Measured ratios of
    # successive differences: 3.60 for Q(0) and 4.02 for Q(d). The bounds
    # 4 +- 0.8 hold both with room to spare and exclude a first-order (2) or
    # third-order (8) scheme.
    grid = small_grid()
    cfg = JunctionConfig()
    las = LaserConfig(field_F1=7.0, duration_tau1=4.0, duration_tau2=5.0)
    t0, t1 = default_time_span(las, burst_only=True)
    st = initial_state(cfg, grid)
    charges = []
    for halvings in range(3):
        res = propagate(cfg, las, replace(grid, dt=grid.dt / 2**halvings),
                        t0, t1, probes=(0.0, None), initial=st)
        charges.append([transferred_charge(r) for r in res.records])
    steps = np.diff(charges, axis=0)
    ratios = steps[0] / steps[1]
    assert np.all((3.2 < ratios) & (ratios < 4.8)), ratios
