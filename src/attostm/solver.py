"""Numerical integration of the 1-D TDSE with the Crank-Nicolson scheme.

The propagator rebuilds the length-gauge potential every step from the
static junction profile plus the instantaneous laser term, advances the
wavefunction with the unitary Cayley form, and records the probability
current density j = (hbar/m) Im(psi* dpsi/dz) at probe positions.

Internally the Hamiltonian is converted to Hartree atomic units; all
public quantities stay in eV / nm / fs. Before propagation the static
profile is shifted so its minimum sits at zero: a global offset only
changes an overall phase physically, and the shift makes every |psi|^2
and current observable exactly offset-invariant numerically as well.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .config import JunctionConfig, LaserConfig
from .grid import AbsorberSpec, GridSpec
from .kernels import SolverError, cn_chunk
from .laser import electric_field, pulse_onset
from .potential import PotentialProfile, sample_static_profile
from .units import AUTIME_FS, BOHR_NM, EMASS, HARTREE_EV, HBAR_EVFS, HBAR2_OVER_2M


# steps per kernel call; the solve residual, the finiteness check and the
# reflection-risk check run once per chunk
CHUNK_STEPS = 512


class InitialStateError(SolverError):
    """No acceptable Fermi-level eigenstate found."""


class ReflectionRiskWarning(UserWarning):
    """Probability is piling up near a fixed grid end."""


@dataclass(frozen=True)
class WaveState:
    """Complex wavefunction on a grid at one time (1/sqrt(nm) normalisation)."""

    grid: GridSpec
    psi: np.ndarray
    time: float
    energy: float | None = None

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.complex128)
        if psi.shape != (self.grid.n_points,):
            raise ValueError("psi length does not match the grid")
        if psi[0] != 0.0 or psi[-1] != 0.0:
            raise ValueError("psi must vanish at both grid endpoints")
        if self.norm_squared_of(psi, self.grid.dz) > 1.0 + 1e-6:
            raise ValueError("psi norm exceeds 1")
        object.__setattr__(self, "psi", psi)

    @staticmethod
    def norm_squared_of(psi, dz) -> float:
        return float(np.sum(np.abs(psi) ** 2) * dz)

    @property
    def norm_squared(self) -> float:
        return self.norm_squared_of(self.psi, self.grid.dz)

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def gaussian_packet(grid: GridSpec, center: float, sigma: float, k0: float,
                    time: float = 0.0) -> WaveState:
    """Normalised Gaussian wavepacket exp(-(z-c)^2/4 sigma^2 + i k0 z)."""
    z = grid.z
    psi = np.exp(-((z - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * z)
    psi[0] = 0.0
    psi[-1] = 0.0
    psi /= np.sqrt(WaveState.norm_squared_of(psi, grid.dz))
    return WaveState(grid, psi, time)


@dataclass(frozen=True)
class CurrentRecord:
    """Probability current density (1/fs) versus time at one probe position."""

    probe_z: float
    times: np.ndarray
    current_density: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        j = np.asarray(self.current_density, dtype=float)
        if t.ndim != 1 or t.size < 2 or j.shape != t.shape:
            raise ValueError("times and current_density must match 1-D arrays")
        steps = np.diff(t)
        if np.any(steps <= 0):
            raise ValueError("times must be strictly increasing")
        mean = (t[-1] - t[0]) / (t.size - 1)
        if np.max(np.abs(steps - mean)) > 1e-9 * mean:
            raise ValueError("times must be uniformly spaced")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "current_density", j)


@dataclass(frozen=True)
class MapSpec:
    """Space-time current-density map request for a z window, strided in time."""

    z_lo: float
    z_hi: float
    stride: int = 8


@dataclass(frozen=True)
class SpaceTimeMap:
    times: np.ndarray
    z: np.ndarray
    j: np.ndarray  # shape (len(times), len(z)), 1/fs


@dataclass
class PropagationResult:
    final_state: WaveState
    records: list
    map: SpaceTimeMap | None = None
    norm_initial: float = 1.0
    norm_final: float = 1.0
    max_residual: float = 0.0


def build_hamiltonian_diagonals(profile: PotentialProfile, grid: GridSpec):
    """Tridiagonal Hamiltonian over the interior points, in eV.

    Returns (main, off): main_i = hbar^2/(m dz^2) + V_i, off =
    -hbar^2/(2 m dz^2) (real symmetric, hence Hermitian).
    """
    if profile.grid_z.size != grid.n_points:
        raise ValueError("profile length does not match the grid")
    k = HBAR2_OVER_2M / grid.dz**2
    main = 2.0 * k + profile.values[1:-1]
    return main, -k


def initial_state(cfg: JunctionConfig, grid: GridSpec, *, time: float = 0.0,
                  window: float = 0.5, min_localization: float = 0.99) -> WaveState:
    """Fermi-level eigenstate of the static junction, localized on the tip.

    Picks the eigenvalue of the discretized laser-off Hamiltonian closest to
    -W_t among states holding >= 99% of their probability at z < 0; raises
    InitialStateError when the +-0.5 eV window holds no such state.
    """
    if not (grid.z_min < 0.0 < cfg.width_d < grid.z_max):
        raise ValueError("grid must bracket the junction: z_min < 0 < d < z_max")
    profile = sample_static_profile(cfg, grid.z)
    main, off = build_hamiltonian_diagonals(profile, grid)
    target = -cfg.workfunction_tip
    w, v = eigh_tridiagonal(main, np.full(main.size - 1, off), select="v",
                            select_range=(target - window, target + window))
    if w.size == 0:
        raise InitialStateError(
            f"no eigenvalue within +-{window} eV of {target} eV")
    tip = grid.z[1:-1] < 0.0
    tip_frac = np.sum(v[tip, :] ** 2, axis=0)
    dist = np.abs(w - target)
    order = np.argsort(dist, kind="stable")
    localized = [i for i in order if tip_frac[i] >= min_localization]
    if not localized:
        raise InitialStateError(
            f"no tip-localized state near {target} eV "
            f"(best localization {tip_frac.max():.3f})")
    best = localized[0]
    # equidistant pair: prefer the more tip-localized member
    for i in localized[1:]:
        if abs(dist[i] - dist[best]) < 1e-12 and tip_frac[i] > tip_frac[best]:
            best = i
    psi = np.zeros(grid.n_points, dtype=np.complex128)
    psi[1:-1] = v[:, best] / np.sqrt(grid.dz)
    psi /= np.sqrt(WaveState.norm_squared_of(psi, grid.dz))
    return WaveState(grid, psi, time, energy=float(w[best]))


def _kernel_inputs(values_eV, grid, cfg, absorber):
    """Static potential (gauge-shifted, hartree), laser z-coupling, kinetic coef."""
    v_gauge = values_eV - np.min(values_eV)
    vstat = v_gauge.astype(np.complex128) / HARTREE_EV
    if absorber is not None:
        vstat -= 1j * absorber.profile(grid) / HARTREE_EV
    zcoef = np.clip(grid.z, 0.0, cfg.width_d) / HARTREE_EV
    dz_au = grid.dz / BOHR_NM
    koff = 1.0 / (2.0 * dz_au**2)
    return vstat, zcoef, koff


def _j_sample(psi, idx, jcoef):
    return jcoef * np.imag(np.conj(psi[idx]) * (psi[idx + 1] - psi[idx - 1]))


def step(state: WaveState, diagonals, dt: float) -> WaveState:
    """One Crank-Nicolson step with the Hamiltonian frozen at the given
    diagonals (eV). The Cayley form conserves the norm unconditionally."""
    main, off = diagonals
    if main.size != state.grid.n_points - 2:
        raise ValueError("diagonals do not match the grid interior")
    koff = -off / HARTREE_EV
    vstat = np.zeros(state.grid.n_points, dtype=np.complex128)
    vstat[1:-1] = (main + 2.0 * off) / HARTREE_EV
    zcoef = np.zeros(state.grid.n_points)
    psi = state.psi.copy()
    half_dt = 0.5 * dt / AUTIME_FS
    cn_chunk(psi, vstat, zcoef, np.zeros(1), half_dt, koff,
             np.empty(0, dtype=np.int64), 0.0, np.empty((0, 1)), 0, 0, 0,
             np.empty((0, 0)), 0, False)
    if not np.all(np.isfinite(psi)):
        raise SolverError("non-finite amplitudes after step (instability)")
    return WaveState(state.grid, psi, state.time + dt, energy=None)


def propagate(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
              t_start: float, t_end: float, probes=(None,), *,
              absorber: AbsorberSpec | None = None,
              static_profile: PotentialProfile | None = None,
              initial: WaveState | None = None,
              midpoint: bool = False,
              map_spec: MapSpec | None = None) -> PropagationResult:
    """Full time evolution from t_start to t_end.

    probes lists z positions (nm) to record current density at; None entries
    resolve to the sample boundary z = d. The potential is rebuilt each step
    from the static profile plus the laser term evaluated at the step start
    (midpoint=True samples the field at t + dt/2 instead).
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    if not (grid.z_min < 0.0 < cfg.width_d < grid.z_max):
        raise ValueError("grid must bracket the junction: z_min < 0 < d < z_max")
    onset = pulse_onset(laser)
    if laser.field_F1 > 0 and t_start > onset:
        warnings.warn(f"t_start = {t_start} fs is after the pulse onset at "
                      f"{onset:.3f} fs; the field does not ramp from a "
                      "negligible value", UserWarning, stacklevel=2)
    profile = static_profile
    if profile is None:
        profile = sample_static_profile(cfg, grid.z)
    elif profile.grid_z.size != grid.n_points:
        raise ValueError("static_profile does not match the grid")

    state0 = initial if initial is not None else initial_state(cfg, grid)
    psi = state0.psi.copy()
    n = psi.size
    dz = grid.dz
    dt = grid.dt
    n_steps = max(1, int(np.ceil((t_end - t_start) / dt - 1e-9)))
    times = t_start + dt * np.arange(n_steps + 1)

    vstat, zcoef, koff = _kernel_inputs(profile.values, grid, cfg, absorber)
    half_dt = 0.5 * dt / AUTIME_FS
    jcoef = (HBAR_EVFS / EMASS) / (2.0 * dz)
    t_field = times[:-1] + (0.5 * dt if midpoint else 0.0)
    efield = np.asarray(electric_field(laser, t_field), dtype=float)

    probe_z = [cfg.width_d if p is None else float(p) for p in probes]
    probe_idx = np.array(
        [min(max(int(round((p - grid.z_min) / dz)), 1), n - 2) for p in probe_z],
        dtype=np.int64)
    j_out = np.zeros((probe_idx.size, n_steps + 1))

    map_every, map_i0, map_i1 = 0, 0, 0
    map_out = np.empty((0, 0))
    if map_spec is not None:
        map_i0 = min(max(int(round((map_spec.z_lo - grid.z_min) / dz)), 1), n - 2)
        map_i1 = min(max(int(round((map_spec.z_hi - grid.z_min) / dz)), 2), n - 1)
        map_every = max(1, int(map_spec.stride))
        map_rows = n_steps // map_every + 1
        map_out = np.zeros((map_rows, map_i1 - map_i0))

    # reflection-risk bookkeeping: watch for probability arriving within
    # 10 nm of either fixed end, relative to the initial occupation there
    n_edge = max(1, int(round(10.0 / dz)))
    dens0 = np.abs(psi) ** 2
    edge_base = (float(np.sum(dens0[:n_edge]) * dz),
                 float(np.sum(dens0[-n_edge:]) * dz))
    warned = [False, False]
    norm_initial = WaveState.norm_squared_of(psi, dz)

    max_resid = 0.0
    done = 0
    while done < n_steps:
        todo = min(CHUNK_STEPS, n_steps - done)
        resid = cn_chunk(psi, vstat, zcoef, efield[done:done + todo], half_dt,
                         koff, probe_idx, jcoef, j_out, map_every, map_i0,
                         map_i1, map_out, done, True)
        max_resid = max(max_resid, resid)
        done += todo
        if not np.all(np.isfinite(psi)):
            raise SolverError(f"non-finite amplitudes at step {done} "
                              f"(t = {times[done]:.3f} fs)")
        dens = np.abs(psi) ** 2
        for side, seg in enumerate((dens[:n_edge], dens[-n_edge:])):
            excess = float(np.sum(seg) * dz) - edge_base[side]
            if not warned[side] and excess > 1e-3 * norm_initial:
                warnings.warn(
                    f"{excess / norm_initial:.2%} of the norm reached within "
                    f"10 nm of the {'tip' if side == 0 else 'sample'}-side grid "
                    "end (reflection risk)", ReflectionRiskWarning, stacklevel=2)
                warned[side] = True

    for p in range(probe_idx.size):
        j_out[p, n_steps] = _j_sample(psi, probe_idx[p], jcoef)
    stm = None
    if map_spec is not None:
        if n_steps % map_every == 0:
            row = n_steps // map_every
            seg = np.arange(map_i0, map_i1)
            map_out[row, :] = _j_sample(psi, seg, jcoef)
        stm = SpaceTimeMap(times=times[::map_every],
                           z=grid.z[map_i0:map_i1], j=map_out)

    final = WaveState(grid, psi, float(times[-1]))
    records = [CurrentRecord(grid.z[probe_idx[p]], times, j_out[p])
               for p in range(probe_idx.size)]
    return PropagationResult(final, records, map=stm,
                             norm_initial=norm_initial,
                             norm_final=final.norm_squared,
                             max_residual=max_resid)


def transferred_charge(record: CurrentRecord) -> float:
    """Time-integrated probability current: electrons per pulse, signed,
    positive for tip -> sample flow."""
    return float(np.trapezoid(record.current_density, record.times))


def directional_charges(record: CurrentRecord) -> tuple[float, float]:
    """(J+, J-): time integrals of the positive- and negative-signed parts
    of the boundary current, both returned as non-negative numbers."""
    j = record.current_density
    jp = float(np.trapezoid(np.clip(j, 0.0, None), record.times))
    jm = float(-np.trapezoid(np.clip(j, None, 0.0), record.times))
    return jp, jm
