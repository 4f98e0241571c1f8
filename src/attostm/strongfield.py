"""Analytical strong-field model of junction transport.

Transport from an initial bound state E0 = -|E0| in the tip to a final
state E in the sample is described by a two-time action; its complex
stationary points (emission time t1, arrival time t2, canonical momentum
p~ eliminated through the displacement condition) give one tunnelling
amplitude contribution per field crest. The image potential enters the
action as a junction-averaged constant.

Natural units here: eV, nm, fs, with hbar = 0.658 eV fs.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import JunctionConfig, LaserConfig
from .laser import (effective_keldysh, electric_field, field_crest_time,
                    find_field_crests, vector_potential)
from .potential import mean_image_magnitude
from .units import EMASS, HBAR_EVFS

_GL_ORDER = 64
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)

# final-energy grid (eV) of directional_weight when none is given
DEFAULT_ENERGIES = np.arange(0.3, 14.0, 0.35)
DEFAULT_ENERGIES.flags.writeable = False

_NEWTON_MAX_ITER = 200  # solve_saddle's iteration cap and residual bound
_NEWTON_TOL = 1e-10
_CUTOFF_DEPARTURE = 0.10  # relative departure from the Keldysh line


class SaddleConvergenceError(RuntimeError):
    """Newton iteration on the saddle equations failed."""


def _segment_potential(laser, t1, t2):
    """Half-length of the straight segment t1 -> t2 and A(tau) at its
    Gauss-Legendre nodes (A is entire, so any contour will do)."""
    mid = 0.5 * (t1 + t2)
    half = 0.5 * (t2 - t1)
    return half, vector_potential(laser, mid + half * _GL_X)


def _a_integral(laser, t1, t2):
    """int_t1^t2 A(tau) dtau along the straight segment."""
    half, a = _segment_potential(laser, t1, t2)
    return half * np.sum(_GL_W * a)


def _p_tilde(d, t1, t2, a_integral):
    # p~ = (int e A dtau + m d)/(t2 - t1) with e = -|e|
    return (EMASS * d - a_integral) / (t2 - t1)


@dataclass(frozen=True)
class SaddleSolution:
    """One solution of the three saddle-point equations (complex fs/eV)."""

    t1: complex
    t2: complex
    final_energy_E: float
    initial_energy_E0: float
    mean_image: float
    laser: LaserConfig
    junction: JunctionConfig

    @property
    def p_tilde(self) -> complex:
        """Canonical momentum, derived from t1, t2 (eV fs / nm)."""
        return _p_tilde(self.junction.width_d, self.t1, self.t2,
                        _a_integral(self.laser, self.t1, self.t2))

    @property
    def emission_phase(self) -> float:
        """sinh(omega * Im t1), the quantity the Keldysh parameter tracks."""
        return float(np.sinh(self.laser.omega * self.t1.imag))

    def residuals(self) -> tuple[float, float, float]:
        """|residual| of the emission-energy, displacement and arrival-energy
        saddle equations, in eV / nm / eV."""
        d = self.junction.width_d
        a_int = _a_integral(self.laser, self.t1, self.t2)
        pt = _p_tilde(d, self.t1, self.t2, a_int)
        # kinetic momentum p~ - e A(t) = p~ + A(t)
        k1 = pt + vector_potential(self.laser, self.t1)
        k2 = pt + vector_potential(self.laser, self.t2)
        vbar = self.mean_image
        e0 = abs(self.initial_energy_E0)
        r1 = k1**2 / (2.0 * EMASS) - vbar + e0
        r2 = (pt * (self.t2 - self.t1) + a_int) / EMASS - d
        r3 = k2**2 / (2.0 * EMASS) - vbar - self.final_energy_E
        return abs(complex(r1)), abs(complex(r2)), abs(complex(r3))


def action(t1: complex, t2: complex, E: float, E0: float,
           laser: LaserConfig, cfg: JunctionConfig) -> complex:
    """Two-time transport action S(t2, t1) (eV fs).

    E t2 + p~^2/(2m)(t2-t1) - int e^2 A^2/(2m) - int V_imag[z] + |E0| t1,
    with the image integral taken as -Vbar * (t2 - t1), Vbar the junction's
    mean_image_magnitude. p~ and the A^2 integral share one evaluation of A
    at the segment's nodes.
    """
    if t2 == t1:
        raise ValueError("t1 and t2 must differ")
    vbar = mean_image_magnitude(cfg)
    half, a = _segment_potential(laser, t1, t2)
    pt = _p_tilde(cfg.width_d, t1, t2, half * np.sum(_GL_W * a))
    a2 = half * np.sum(_GL_W * a**2)
    return (E * t2 + pt**2 / (2.0 * EMASS) * (t2 - t1)
            - a2 / (2.0 * EMASS) + vbar * (t2 - t1) + abs(E0) * t1)


def _seed(laser, cfg, E, vbar, crest_time):
    w = laser.omega
    e0_eff = max(cfg.workfunction_tip - vbar, 0.05)
    ecrest = abs(complex(electric_field(laser, crest_time)))
    gamma = w * np.sqrt(2.0 * EMASS * e0_eff) / max(ecrest, 1e-12)
    im_t1 = np.arcsinh(gamma) / w
    v2 = np.sqrt(2.0 * max(E + vbar, 0.1) / EMASS)
    travel = cfg.width_d / v2
    return crest_time + 1j * im_t1, crest_time + travel + 0.25j * im_t1


def solve_saddle(E: float, E0: float, laser: LaserConfig, cfg: JunctionConfig,
                 seed: tuple[complex, complex] | None = None, *,
                 crest_time: float | None = None) -> SaddleSolution:
    """Newton solve of the saddle equations for one final energy.

    Works on the square-rooted branch conditions k(t1) = i sqrt(2m|E0|_eff)
    and k(t2) = +sqrt(2m(E + Vbar)), which fixes the physical root
    (Im t1 > 0, forward arrival). The displacement equation holds by
    construction of p~. Vbar is the junction's mean_image_magnitude.
    """
    vbar = mean_image_magnitude(cfg)
    e0_eff = abs(E0) - vbar
    if e0_eff <= 0:
        raise ValueError("effective binding |E0| - mean_image must be positive")
    if crest_time is None:
        crest_time = field_crest_time(laser)
    if seed is None:
        t1, t2 = _seed(laser, cfg, E, vbar, crest_time)
    else:
        t1, t2 = complex(seed[0]), complex(seed[1])
    retry = seed is not None  # fall back to the heuristic seed once
    k1_target = 1j * np.sqrt(2.0 * EMASS * e0_eff)
    k2_target = np.sqrt(2.0 * EMASS * (E + vbar))
    d = cfg.width_d

    def kinetic(t1, t2):
        # kinetic momenta p~ + A(t) at both ends; the residuals are k - target
        pt = _p_tilde(d, t1, t2, _a_integral(laser, t1, t2))
        return (pt + complex(vector_potential(laser, t1)),
                pt + complex(vector_potential(laser, t2)))

    def residual_norm(k1, k2):
        return abs(k1 - k1_target) + abs(k2 - k2_target)

    def newton(t1, t2):
        k1, k2 = kinetic(t1, t2)
        gnorm = residual_norm(k1, k2)
        for _ in range(_NEWTON_MAX_ITER):
            if gnorm < _NEWTON_TOL:
                break
            g1, g2 = k1 - k1_target, k2 - k2_target
            ap1 = -complex(electric_field(laser, t1))  # A'(t1)
            ap2 = -complex(electric_field(laser, t2))
            dt21 = t2 - t1
            j11 = k1 / dt21 + ap1
            j12 = -k2 / dt21
            j21 = k1 / dt21
            j22 = -k2 / dt21 + ap2
            det = j11 * j22 - j12 * j21
            if det == 0:
                raise SaddleConvergenceError("singular Jacobian")
            d1 = (-g1 * j22 + g2 * j12) / det
            d2 = (-g2 * j11 + g1 * j21) / det
            # damped update: halve until the residual shrinks
            scale = 1.0
            for _ in range(10):
                c1, c2 = t1 + scale * d1, t2 + scale * d2
                if c2 != c1:
                    q1, q2 = kinetic(c1, c2)
                    qnorm = residual_norm(q1, q2)
                    if qnorm < gnorm:
                        break
                scale *= 0.5
            else:
                raise SaddleConvergenceError(
                    f"Newton stalled (|G| = {gnorm:.2e}); try a different seed")
            t1, t2, k1, k2, gnorm = c1, c2, q1, q2, qnorm
        else:
            raise SaddleConvergenceError(
                f"no convergence after {_NEWTON_MAX_ITER} iterations "
                f"(|G| = {gnorm:.2e})")
        if t1.imag <= 0:
            raise SaddleConvergenceError(
                f"unphysical root: Im t1 = {t1.imag:.3e}")
        return t1, t2

    window = 0.3 * 2.0 * np.pi / laser.omega

    def check_physical(t1, t2):
        # three-step picture: emission under the barrier near the crest,
        # causal forward transport, arrival near the real axis
        if abs(t1.real - crest_time) > window:
            raise SaddleConvergenceError(
                f"root drifted off the crest: Re t1 = {t1.real:.3f} fs vs "
                f"crest at {crest_time:.3f} fs")
        if t2.real <= t1.real:
            raise SaddleConvergenceError(
                f"acausal root: arrival Re t2 = {t2.real:.3f} fs precedes "
                f"emission Re t1 = {t1.real:.3f} fs")
        if not -0.2 * t1.imag <= t2.imag <= t1.imag:
            raise SaddleConvergenceError(
                f"unphysical arrival branch: Im t2 = {t2.imag:.3f} fs "
                f"outside [-0.2, 1] x Im t1 = {t1.imag:.3f} fs")
        return t1, t2

    try:
        t1, t2 = check_physical(*newton(t1, t2))
    except SaddleConvergenceError:
        if not retry:
            raise
        # a supplied (continuation) seed slid off the physical branch;
        # one more attempt from the heuristic crest seed
        t1, t2 = check_physical(*newton(*_seed(laser, cfg, E, vbar, crest_time)))
    return SaddleSolution(t1, t2, float(E), -abs(E0), vbar, laser, cfg)


def emission_phase_curve(energies, laser: LaserConfig, cfg: JunctionConfig, *,
                         binding: float | None = None):
    """sinh(omega Im t1) at the dominant crest for each final energy.

    Solves with continuation in E (previous root seeds the next)."""
    e0 = cfg.workfunction_tip if binding is None else binding
    crest = field_crest_time(laser)
    out = np.empty(len(energies))
    seed = None
    for i, e in enumerate(energies):
        sol = solve_saddle(e, e0, laser, cfg, seed, crest_time=crest)
        out[i] = sol.emission_phase
        seed = (sol.t1, sol.t2)
    return out


def cutoff_energy(laser: LaserConfig, cfg: JunctionConfig, *,
                  binding: float | None = None) -> float | None:
    """Final energy where the emission phase departs from the two-colour
    Keldysh line by more than _CUTOFF_DEPARTURE (10%); None if no departure
    below 50 eV.

    The curve first has to sit on the line before it can depart from it:
    the upward scan for the crossing starts at the energy of closest
    agreement (sub-eV arrivals carry their own slow-electron deviation).
    """
    e0 = cfg.workfunction_tip if binding is None else binding
    gamma = effective_keldysh(laser, e0 - mean_image_magnitude(cfg))
    de = 0.25
    energies = np.arange(de, 50.0 + de, de)
    phases = emission_phase_curve(energies, laser, cfg, binding=e0)
    dev = np.abs(phases - gamma) / gamma
    start = int(np.argmin(dev))
    for i in range(start, energies.size):
        if dev[i] > _CUTOFF_DEPARTURE:
            if i == 0:
                return float(energies[0])
            frac = (_CUTOFF_DEPARTURE - dev[i - 1]) / (dev[i] - dev[i - 1])
            return float(energies[i - 1] + frac * de)
    return None


def drift_energy_bound(laser: LaserConfig) -> float:
    """Maximal drift kinetic energy max_t A(t)^2 / 2m (eV): the ceiling an
    electron released at rest can be field-accelerated to."""
    span = 2.5 * max(laser.duration_tau1, laser.duration_tau2) + abs(laser.sh_center)
    tg = np.linspace(-span, span, 200_001)
    amax = np.max(np.abs(vector_potential(laser, tg)))
    return float(amax**2 / (2.0 * EMASS))


def _directed(laser: LaserConfig, direction: int) -> LaserConfig:
    """The pulse whose tip -> sample transport is transport in `direction`:
    sample -> tip (-1) is the mirrored, field-negated problem."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    return laser if direction == 1 else laser.flipped()


def _crest_amplitudes(laser: LaserConfig, cfg: JunctionConfig, E0: float,
                      energies):
    """Saddle-point amplitude of every crest at every final energy.

    Each crest of the force toward the sample contributes
    sqrt(i/(8 pi m hbar^3 (t2-t1))) * exp(i S / hbar) at each energy; the
    transition prefactor is taken as 1, so magnitudes are meaningful only
    relative to each other. Energies are stepped with continuation: the
    previous energy's root seeds the next, and after a failure the next
    solve starts from the heuristic crest seed again.

    Returns (crest times, amplitudes of shape (crest, energy), lost), where
    lost marks the crest/energy pairs whose saddle solve failed. Their
    amplitude is 0, as it is for a split sub-crest that converged onto an
    already-counted root and for an anti-Stokes partner root (Im S < 0,
    beyond the crest's classical cutoff, exponentially dead there).
    """
    crests = find_field_crests(laser)
    amp = np.zeros((crests.size, energies.size), dtype=complex)
    lost = np.zeros(amp.shape, dtype=bool)
    seen = [[] for _ in range(energies.size)]
    for c, tc in enumerate(crests):
        seed = None
        for k, e in enumerate(energies):
            try:
                sol = solve_saddle(e, E0, laser, cfg, seed,
                                   crest_time=float(tc))
            except SaddleConvergenceError:
                lost[c, k] = True
                seed = None
                continue
            seed = (sol.t1, sol.t2)
            if any(abs(sol.t1 - t) < 1e-6 for t in seen[k]):
                continue  # split sub-crest: root already counted
            seen[k].append(sol.t1)
            s = action(sol.t1, sol.t2, e, E0, laser, cfg)
            if s.imag < 0:
                continue  # anti-Stokes partner root
            pref = np.sqrt(1j / (8.0 * np.pi * EMASS * HBAR_EVFS**3
                                 * (sol.t2 - sol.t1)))
            amp[c, k] = pref * np.exp(1j * s / HBAR_EVFS)
    return crests, amp, lost


def tunnelling_amplitude(E: float, E0: float, laser: LaserConfig,
                         cfg: JunctionConfig, *, direction: int = 1) -> complex:
    """Saddle-point tunnelling amplitude M_E summed coherently over crests.

    direction = -1 evaluates sample -> tip transport via the mirrored
    (field-negated) problem. Each crest is solved from its heuristic seed.
    Wing crests can lose their physical branch entirely (acausal /
    anti-Stokes partners only) and are exponentially negligible there; a
    lost crest with |E| >= 0.8 of the strongest crest's field raises
    SaddleConvergenceError.

    The spectrum functions continue each crest's root in energy instead, so
    where a crest carries more than one root the two paths can pick
    different ones. Forward on LaserConfig(field_F1=8) they agree to 1e-11
    over 0.5-11.5 eV; backward, directional_spectrum differs from this
    amplitude by up to 2.8 % (at 2.0 eV), and at 0.5 and 1.0 eV this
    function raises where the spectrum drops the crest.
    """
    las = _directed(laser, direction)
    crests, amp, lost = _crest_amplitudes(las, cfg, E0, np.array([float(E)]))
    e_crests = np.abs(electric_field(las, crests))
    dominant = lost[:, 0] & (e_crests >= 0.8 * np.max(e_crests, initial=0.0))
    if np.any(dominant):
        raise SaddleConvergenceError(
            f"no saddle root at the dominant crest {crests[dominant][0]:.3f} fs "
            f"for E = {E} eV")
    return complex(amp.sum(axis=0)[0])


@dataclass(frozen=True)
class Trajectory:
    """Semiclassical trajectory Re D(t) after the tunnel exit (fs, nm)."""

    times: np.ndarray
    positions: np.ndarray
    final_energy_E: float

    @property
    def exit_position(self) -> float:
        return float(self.positions[0])


def trajectory(sol: SaddleSolution) -> Trajectory:
    """Displacement D(t) = int_t1^t [p~ - eA]/m dtau on the standard contour:
    down from t1 to Re t1, then along the real axis. Positions are Re D(t)
    on the real segment, truncated where the electron reaches the sample
    boundary (near Re t2; exactly there when Im t2 is negligible)."""
    d = sol.junction.width_d
    pt = sol.p_tilde

    def vel(t):
        return (pt + vector_potential(sol.laser, t)) / EMASS

    # vertical leg: t1 -> Re t1
    s = np.linspace(0.0, 1.0, 200)
    tau_v = sol.t1 + (sol.t1.real - sol.t1) * s
    d_entry = np.trapezoid(vel(tau_v), tau_v)
    # real leg: Re t1 onward, with headroom past Re t2 for the d-crossing
    span = sol.t2.real - sol.t1.real
    t_real = np.linspace(sol.t1.real, sol.t2.real + 0.5 * span, 800)
    v_real = vel(t_real)
    disp = np.concatenate(([0.0], np.cumsum(
        0.5 * (v_real[1:] + v_real[:-1]) * np.diff(t_real))))
    positions = np.real(d_entry + disp)
    cross = np.nonzero(positions >= d)[0]
    if cross.size and cross[0] > 0:
        i = cross[0]
        frac = (d - positions[i - 1]) / (positions[i] - positions[i - 1])
        t_end = t_real[i - 1] + frac * (t_real[i] - t_real[i - 1])
        t_real = np.append(t_real[:i], t_end)
        positions = np.append(positions[:i], d)
    return Trajectory(t_real, positions, sol.final_energy_E)


def directional_spectrum(laser: LaserConfig, cfg: JunctionConfig, energies, *,
                         direction: int = 1) -> np.ndarray:
    """|M_E| over an energy grid: the coherent crest sum, with each crest's
    root continued in E (see tunnelling_amplitude)."""
    energies = np.asarray(energies, dtype=float)
    _, amp, _ = _crest_amplitudes(_directed(laser, direction), cfg,
                                  cfg.workfunction_tip, energies)
    return np.abs(amp.sum(axis=0))


def directional_weight(laser: LaserConfig, cfg: JunctionConfig, *,
                       direction: int = 1, energies=None) -> float:
    """Energy-integrated transport weight int |M_E|^2 dE for one direction.

    Evaluated as the incoherent sum of single-crest spectral integrals:
    over a window spanning many photon orders the inter-crest comb terms
    integrate away (verified to <1% against the coherent fine-grid
    integral), which keeps the observable smooth in every parameter.

    Each crest's root is continued in E, and a crest/energy pair whose
    solve fails contributes nothing, even at a dominant crest, where
    tunnelling_amplitude would raise. On the fig4bc pulse at 8 delays
    spread over one SH period, crests with |E| >= 0.8 of the maximum lose
    their root at 59 crest/energy pairs (29 forward, 30 backward), all
    below 2 eV.
    """
    energies = DEFAULT_ENERGIES if energies is None \
        else np.asarray(energies, dtype=float)
    _, amp, _ = _crest_amplitudes(_directed(laser, direction), cfg,
                                  cfg.workfunction_tip, energies)
    return float(np.trapezoid(np.sum(np.abs(amp) ** 2, axis=0), energies))


def delay_scan_sf(laser: LaserConfig, cfg: JunctionConfig, tau0_values, *,
                  energies=None):
    """Net directional spectral weight versus two-colour delay.

    For each tau0, integrates |M_E|^2 over final energies for tip->sample
    and sample->tip transport and returns the normalized difference. The
    output is amplitude-normalized (prefactor eta = 1 leaves absolute
    magnitudes undefined)."""
    out = np.empty(len(tau0_values))
    for i, tau0 in enumerate(tau0_values):
        las = replace(laser, base_delay_tau0=float(tau0))
        fwd = directional_weight(las, cfg, direction=1, energies=energies)
        bwd = directional_weight(las, cfg, direction=-1, energies=energies)
        out[i] = fwd - bwd
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out
