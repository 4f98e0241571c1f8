"""Numerical integration of the 1-D TDSE with the Crank-Nicolson scheme.

The propagator rebuilds the length-gauge potential every step from the
static junction profile plus the instantaneous laser term, advances the
wavefunction with the unitary Cayley form, and records the probability
current density j = (hbar/m) Im(psi* dpsi/dz) at probe positions.

Runs of homogeneous grid rows are carried as exact sine modes
(kernels.ModeBlock) instead of being stepped, each placed by one rule
(_block). The tip block lies in the tip interior below the first point
that sees the laser, the junction potential, a probe or the map. The
sample block lies more than one row above every probe and map point: on
the sample side, the plateau from just above the gap up to the grid's
absorber, driven by the uniform laser term E(t) d. `propagate` steps only
the rows outside them; the result equals a full-grid run up to rounding,
and z_min and z_max still set the box.

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
from .grid import GridSpec
from .kernels import ModeBlock, SolverError, cn_chunk, current
from .laser import electric_field, pulse_onset
from .potential import PotentialProfile, sample_static_profile
from .units import AUTIME_FS, BOHR_NM, EMASS, HARTREE_EV, HBAR_EVFS, HBAR2_OVER_2M


# steps per kernel call, fewer where the record buffer would otherwise
# exceed _RECORD_ELEMENTS (1 MB); the solve residual, the finiteness check
# and the reflection-risk check run once per chunk
CHUNK_STEPS = 512
_RECORD_ELEMENTS = 1 << 16

# half-widths (eV) of initial_state's first and widest eigen windows
# around -W_t
_FIRST_HALF_WIDTH = 0.02
_WINDOW = 0.5


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

    def __post_init__(self):
        if not self.z_lo < self.z_hi:
            raise ValueError(f"map window needs z_lo < z_hi, got "
                             f"[{self.z_lo}, {self.z_hi}] nm")
        if int(self.stride) != self.stride or self.stride < 1:
            raise ValueError(f"map stride must be a positive integer, got "
                             f"{self.stride!r}")
        object.__setattr__(self, "stride", int(self.stride))


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
    tip_cut_nm: float = 0.0  # top of the tip block carried as sine modes
    # (lowest, highest) z of the sample block carried as sine modes
    sample_block_nm: tuple[float, float] | None = None
    stepped_points: int = 0  # grid points the tridiagonal solve updates


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


def initial_state(cfg: JunctionConfig, grid: GridSpec) -> WaveState:
    """Fermi-level eigenstate of the static junction, localized on the tip.

    Picks the eigenvalue of the discretized laser-off Hamiltonian closest to
    -W_t among states holding >= 99% of their probability at z < 0; raises
    InitialStateError when +-_WINDOW eV around it holds no such state.

    The eigen-solve pays for every pair it returns, so it starts at
    +-_FIRST_HALF_WIDTH eV and doubles up to +-_WINDOW until a tip-localized
    state lies at a distance delta with delta + 1e-12 < the half-width.
    Every closer eigenvalue, and any equidistant partner under the 1e-12
    tie rule, then lies inside, so the pick equals that of the full window.
    """
    if not (grid.z_min < 0.0 < cfg.width_d < grid.z_max):
        raise ValueError("grid must bracket the junction: z_min < 0 < d < z_max")
    profile = sample_static_profile(cfg, grid.z)
    main, off = build_hamiltonian_diagonals(profile, grid)
    offs = np.full(main.size - 1, off)
    target = -cfg.workfunction_tip
    tip = grid.z[1:-1] < 0.0
    half = _FIRST_HALF_WIDTH
    while True:
        w, v = eigh_tridiagonal(main, offs, select="v",
                                select_range=(target - half, target + half))
        tip_frac = np.sum(v[tip, :] ** 2, axis=0)
        dist = np.abs(w - target)
        if half >= _WINDOW or np.any(dist[tip_frac >= 0.99] + 1e-12 < half):
            break
        half = min(2.0 * half, _WINDOW)
    if w.size == 0:
        raise InitialStateError(
            f"no eigenvalue within +-{_WINDOW} eV of {target} eV")
    order = np.argsort(dist, kind="stable")
    localized = [i for i in order if tip_frac[i] >= 0.99]
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
    return WaveState(grid, psi, 0.0, energy=float(w[best]))


def _kernel_inputs(values_eV, grid, cfg):
    """Static potential (gauge-shifted, hartree), laser z-coupling, kinetic coef."""
    v_gauge = values_eV - np.min(values_eV)
    vstat = v_gauge.astype(np.complex128) / HARTREE_EV
    if grid.absorber is not None:
        vstat -= 1j * grid.absorber.profile(grid) / HARTREE_EV
    zcoef = np.clip(grid.z, 0.0, cfg.width_d) / HARTREE_EV
    dz_au = grid.dz / BOHR_NM
    koff = 1.0 / (2.0 * dz_au**2)
    return vstat, zcoef, koff


def _direct_fft(n: int) -> bool:
    """Whether numpy's pocketfft plans an n-point complex FFT directly, by
    its own first test: n < 50, or the largest prime factor of n squared
    does not exceed n. Other lengths may go to Bluestein's algorithm."""
    if n < 50:
        return True
    rest, largest, f = n, 1, 2
    while f * f <= rest:
        while rest % f == 0:
            largest, rest = f, rest // f
        f += 1
    return max(largest, rest) ** 2 <= n


def _block(vstat, zcoef, lo, hi):
    """(start, stop) of the mode block placed in rows lo ... hi-1, rows
    start ... stop-1: the longest run of at least two rows that share one
    level and one laser coefficient (the lowest of equal runs), its top
    lowered to the highest stop whose sine transform length
    2(stop - start + 1) (ModeBlock._dst) numpy's FFT plans directly;
    (lo, lo) when no two adjacent rows share both.

    At 21 734 = 2 x 10 867 (prime), the tall grid's unlowered tip block,
    the FFT took Bluestein's algorithm: ~4x the time of 21 730 points and
    ~2 MB of cached plan. Any block inside the run gives the same result
    up to rounding, so the rows left out are stepped instead."""
    v, z = vstat[lo:hi], zcoef[lo:hi]
    change = (v[1:] != v[:-1]) | (z[1:] != z[:-1])
    edges = np.flatnonzero(np.concatenate(([True], change, [True])))
    k = int(np.argmax(np.diff(edges)))
    start, stop = lo + int(edges[k]), lo + int(edges[k + 1])
    if stop - start < 2:
        return lo, lo
    while not _direct_fft(2 * (stop - start + 1)):
        stop -= 1
    return start, stop


def _interior_index(grid: GridSpec, z: float, what: str) -> int:
    """Index of the grid point nearest z; ValueError unless it is interior."""
    i = int(round((z - grid.z_min) / grid.dz))
    if not 1 <= i <= grid.n_points - 2:
        raise ValueError(f"{what} at {z} nm is outside the grid interior "
                         f"({grid.z_min}, {grid.z_max}) nm")
    return i


def check_run(cfg: JunctionConfig, grid: GridSpec, t_start: float,
              t_end: float, probes=(None,), map_spec: MapSpec | None = None):
    """The checks propagate makes on its arguments before it computes
    (ValueError for the first that fails), and the grid rows they resolve
    to: (probe rows, map rows or None without a map)."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    if not (grid.z_min < 0.0 < cfg.width_d < grid.z_max):
        raise ValueError("grid must bracket the junction: z_min < 0 < d < z_max")
    probe_idx = np.array(
        [_interior_index(grid, cfg.width_d if p is None else float(p), "probe")
         for p in probes], dtype=np.int64)
    seen = {}
    for p, i in zip(probes, probe_idx):
        if i in seen:
            raise ValueError(f"probes {seen[i]} and {p} nm both resolve to "
                             f"the grid point z = {grid.z[i]:+.3f} nm")
        seen[i] = p
    if map_spec is None:
        return probe_idx, None
    map_i0 = _interior_index(grid, map_spec.z_lo, "map edge z_lo")
    map_i1 = _interior_index(grid, map_spec.z_hi, "map edge z_hi")
    if map_i1 == map_i0:
        raise ValueError("map window is narrower than one grid step")
    return probe_idx, np.arange(map_i0, map_i1)


def propagate(cfg: JunctionConfig, laser: LaserConfig, grid: GridSpec,
              t_start: float, t_end: float, probes=(None,), *,
              static_profile: PotentialProfile | None = None,
              initial: WaveState | None = None,
              map_spec: MapSpec | None = None) -> PropagationResult:
    """Full time evolution from t_start to t_end.

    probes lists z positions (nm) to record current density at; None entries
    resolve to the sample boundary z = d. A probe or map edge whose nearest
    grid point is not interior, or two probes with the same nearest grid
    point, raise ValueError. The potential is rebuilt each step from the
    static profile plus the laser term evaluated at the step start. The
    kernel copies the rows the probes and map read into a record buffer of
    (chunk steps x rows) before each step, and their currents are taken
    from it once per chunk.
    """
    probe_idx, map_idx = check_run(cfg, grid, t_start, t_end, probes, map_spec)
    watched = int(probe_idx.min(initial=grid.n_points - 1))
    top = int(probe_idx.max(initial=0))
    if map_spec is not None:
        watched = min(watched, int(map_idx[0]))
        top = max(top, int(map_idx[-1]))
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
    dz = grid.dz
    dt = grid.dt
    n_steps = max(1, int(np.ceil((t_end - t_start) / dt - 1e-9)))
    times = t_start + dt * np.arange(n_steps + 1)

    vstat, zcoef, koff = _kernel_inputs(profile.values, grid, cfg)
    half_dt = 0.5 * dt / AUTIME_FS
    jcoef = (HBAR_EVFS / EMASS) / (2.0 * dz)
    efield = np.asarray(electric_field(laser, times[:-1]), dtype=float)

    j_out = np.zeros((probe_idx.size, n_steps + 1))
    if map_spec is not None:
        stride = map_spec.stride
        map_out = np.zeros((n_steps // stride + 1, map_idx.size))
    # rows lo ... hi-1, read by the probes and map (none without them), for
    # a chunk: the kernel fills all but the Dirichlet ends, which stay zero
    lo, hi = watched - 1, max(top + 2, watched - 1)
    chunk = min(CHUNK_STEPS, n_steps,
                max(1, _RECORD_ELEMENTS // max(hi - lo, 1)))
    rec = np.zeros((chunk, hi - lo), dtype=np.complex128)
    stepped = rec[:, max(lo, 1) - lo:min(hi, grid.n_points - 1) - lo]

    def read(block, n):
        j_out[:, n:n + len(block)] = current(block, probe_idx - lo, jcoef).T
        if map_spec is not None:
            first = -n % stride
            rows = current(block[first::stride], map_idx - lo, jcoef)
            map_out[(n + first) // stride:][:len(rows)] = rows

    # reflection-risk bookkeeping: watch for probability arriving within
    # 10 nm of either fixed end, relative to the initial occupation there
    n_edge = max(1, int(round(10.0 / dz)))
    dens0 = np.abs(psi) ** 2
    edge_base = (float(np.sum(dens0[:n_edge]) * dz),
                 float(np.sum(dens0[-n_edge:]) * dz))
    warned = [False, False]
    norm_initial = WaveState.norm_squared_of(psi, dz)

    # the tip block lies in the tip (z <= 0) below every row a probe or
    # map point reads, the sample block above them and above the tip block
    tip = _block(vstat, zcoef, 1,
                 min(watched - 1, np.count_nonzero(grid.z <= 0.0)))
    start, stop = _block(vstat, zcoef, max(top + 2, tip[1] + 1),
                         grid.n_points - 2)
    blocks = [ModeBlock(psi[a:b], vstat[a], half_dt, koff, start=a,
                        zcoef=zcoef[a])
              for a, b in (tip, (start, stop)) if b > a]
    max_resid = 0.0
    done = 0
    while done < n_steps:
        todo = min(chunk, n_steps - done)
        resid = cn_chunk(psi, vstat, zcoef, efield[done:done + todo], half_dt,
                         koff, done, stepped, max(lo, 1), *blocks)
        read(rec[:todo], done)
        for b in blocks:
            psi[b.start:b.start + b.size] = b.interior()
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
    read(psi[None, lo:hi], n_steps)

    stm = None
    if map_spec is not None:
        stm = SpaceTimeMap(times=times[::stride], z=grid.z[map_idx], j=map_out)
    final = WaveState(grid, psi, float(times[-1]))
    records = [CurrentRecord(grid.z[i], times, j) for i, j in zip(probe_idx, j_out)]
    return PropagationResult(final, records, map=stm,
                             norm_initial=norm_initial,
                             norm_final=final.norm_squared,
                             max_residual=max_resid,
                             tip_cut_nm=float(grid.z[tip[1] - 1]),
                             sample_block_nm=None if stop == start else
                             (float(grid.z[start]), float(grid.z[stop - 1])),
                             stepped_points=grid.n_points - 2
                             - sum(b.size for b in blocks))


def transferred_charge(record: CurrentRecord) -> float:
    """Time-integrated probability current: electrons per pulse, signed,
    positive for tip -> sample flow."""
    return float(np.trapezoid(record.current_density, record.times))
