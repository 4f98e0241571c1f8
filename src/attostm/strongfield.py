"""Analytical strong-field model of junction transport.

Transport from an initial bound state E0 = -|E0| in the tip to a final
state E in the sample is described by a two-time action; its complex
stationary points (emission time t1, arrival time t2, canonical momentum
p~ eliminated through the displacement condition) give one tunnelling
amplitude contribution per field crest. The image potential enters the
action as a junction-averaged constant.

Natural units here: eV, nm, fs, with hbar = 0.658 eV fs.
"""

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .config import JunctionConfig, LaserConfig
from .laser import (_Pulse, _field, _mul, _potential, _pulses, effective_keldysh,
                    electric_field, field_crest_time, find_field_crests,
                    vector_potential)
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


def _seed_depth(laser, cfg, vbar, crest_time):
    """Im t1 of the heuristic crest seed: arcsinh(gamma)/omega with the
    Keldysh parameter of the crest's own field."""
    w = laser.omega
    e0_eff = max(cfg.workfunction_tip - vbar, 0.05)
    ecrest = abs(complex(electric_field(laser, crest_time)))
    gamma = w * np.sqrt(2.0 * EMASS * e0_eff) / max(ecrest, 1e-12)
    return np.arcsinh(gamma) / w


def _rows(pulse, idx):
    # the pulses of rows idx (sorted, unique); all rows need no copy
    if idx.size == pulse.omega.shape[0]:
        return pulse
    return _Pulse(*(c[idx] for c in pulse))


@dataclass(frozen=True)
class _Problems:
    """A batch of saddle problems, one (laser, crest) pair per row."""

    pulse: _Pulse          # per-laser constants as (n, 1) columns
    crest: np.ndarray      # crest time (fs)
    window: np.ndarray     # largest |Re t1 - crest| of a physical root (fs)
    depth: np.ndarray      # Im t1 of the heuristic seed (fs)

    @classmethod
    def build(cls, pairs, cfg):
        """Problems of the (laser, crest time) pairs, in the given order."""
        vbar = mean_image_magnitude(cfg)
        lasers = [las for las, _ in pairs]
        return cls(_pulses(lasers),
                   np.array([tc for _, tc in pairs], dtype=float),
                   np.array([0.3 * 2.0 * np.pi / las.omega for las in lasers]),
                   np.array([_seed_depth(las, cfg, vbar, tc) for las, tc in pairs]))

    def __getitem__(self, idx):
        return _Problems(_rows(self.pulse, idx), self.crest[idx],
                         self.window[idx], self.depth[idx])


def _kinetic(pulse, d, t1, t2):
    """Kinetic momenta p~ + A(t) at both ends of each segment t1 -> t2."""
    half = 0.5 * (t2 - t1)
    a = _potential(pulse, (0.5 * (t1 + t2))[:, None] + half[:, None] * _GL_X)
    pt = _p_tilde(d, t1, t2, _mul(half, np.sum(_GL_W * a, axis=1)))
    ends = _potential(pulse, np.stack((t1, t2), axis=1), _mul)
    return pt + ends[:, 0], pt + ends[:, 1]


# why a problem of the batch has no root; 0 is a physical root
(_ROOT, _SINGULAR, _STALLED, _NO_CONVERGENCE, _IM_T1, _OFF_CREST, _ACAUSAL,
 _BRANCH) = range(8)


def _newton(problems, t1, t2, k1_target, k2_target, d):
    """Damped Newton on every problem at once, then the physical-branch
    checks. Returns (t1, t2, |G| at the last accepted iterate, status)."""
    t1, t2 = t1.copy(), t2.copy()
    k1, k2 = _kinetic(problems.pulse, d, t1, t2)
    gnorm = abs(k1 - k1_target) + abs(k2 - k2_target)
    status = np.full(t1.size, _NO_CONVERGENCE)
    live = np.arange(t1.size)  # rows still iterating
    for _ in range(_NEWTON_MAX_ITER):
        conv = gnorm[live] < _NEWTON_TOL
        status[live[conv]] = _ROOT
        live = live[~conv]
        if live.size == 0:
            break
        pulse = _rows(problems.pulse, live)
        a1, a2, b1, b2 = t1[live], t2[live], k1[live], k2[live]
        g1, g2 = b1 - k1_target, b2 - k2_target
        ap = -_field(pulse, np.stack((a1, a2), axis=1), _mul)  # A'(t1), A'(t2)
        dt21 = a2 - a1
        j11 = b1 / dt21 + ap[:, 0]
        j12 = -b2 / dt21
        j21 = b1 / dt21
        j22 = -b2 / dt21 + ap[:, 1]
        # Cramer's rule: det = j11 j22 - j12 j21, step numerators
        # -g1 j22 + g2 j12 and -g2 j11 + g1 j21
        p = _mul(np.stack((j11, j12, -g1, g2, -g2, g1)),
                 np.stack((j22, j21, j22, j12, j11, j21)))
        det = p[0] - p[1]
        failed = det == 0
        status[live[failed]] = _SINGULAR
        det[failed] = 1.0  # no step is taken from a singular Jacobian
        d1 = (p[2] + p[3]) / det
        d2 = (p[4] + p[5]) / det
        # damped update: halve until the residual shrinks
        search = np.flatnonzero(~failed)  # positions in live
        for h in range(10):
            c1 = a1[search] + 0.5**h * d1[search]
            c2 = a2[search] + 0.5**h * d2[search]
            valid = np.flatnonzero(c2 != c1)
            at = search[valid]
            q1, q2 = _kinetic(_rows(pulse, at), d, c1[valid], c2[valid])
            qnorm = abs(q1 - k1_target) + abs(q2 - k2_target)
            better = qnorm < gnorm[live[at]]
            rows = live[at[better]]
            t1[rows], t2[rows] = c1[valid[better]], c2[valid[better]]
            k1[rows], k2[rows], gnorm[rows] = q1[better], q2[better], qnorm[better]
            keep = np.ones(search.size, dtype=bool)
            keep[valid[better]] = False
            search = search[keep]
            if search.size == 0:
                break
        status[live[search]] = _STALLED
        failed[search] = True
        live = live[~failed]
    # Im t1 > 0, then the three-step picture: emission under the barrier
    # near the crest, causal forward transport, arrival near the real axis
    for code, bad in (
            (_IM_T1, t1.imag <= 0),
            (_OFF_CREST, abs(t1.real - problems.crest) > problems.window),
            (_ACAUSAL, t2.real <= t1.real),
            (_BRANCH, ~((-0.2 * t1.imag <= t2.imag) & (t2.imag <= t1.imag)))):
        status[(status == _ROOT) & bad] = code
    return t1, t2, gnorm, status


def _solve_saddles(E, E0, problems, cfg, seeds=None):
    """Saddle roots of every problem of the batch at final energy E.

    Works on the square-rooted branch conditions k(t1) = i sqrt(2m|E0|_eff)
    and k(t2) = +sqrt(2m(E + Vbar)), which fixes the physical root
    (Im t1 > 0, forward arrival); the displacement equation holds by
    construction of p~. seeds = (t1, t2, seeded) continues the seeded
    problems from (t1, t2); the others start from the heuristic crest seed,
    and a seeded problem that fails gets one more attempt from it.

    Returns (t1, t2, |G|, status); status is _ROOT where a physical root was
    found and otherwise names the failure.
    """
    vbar = mean_image_magnitude(cfg)
    e0_eff = abs(E0) - vbar
    if e0_eff <= 0:
        raise ValueError("effective binding |E0| - mean_image must be positive")
    if E + vbar <= 0:
        raise ValueError(f"final energy E = {E} eV must exceed -Vbar = "
                         f"{-vbar:.4f} eV, minus the mean image potential")
    k1_target = 1j * np.sqrt(2.0 * EMASS * e0_eff)
    k2_target = np.sqrt(2.0 * EMASS * (E + vbar))
    d = cfg.width_d
    travel = d / np.sqrt(2.0 * max(E + vbar, 0.1) / EMASS)
    h1 = problems.crest + 1j * problems.depth
    h2 = problems.crest + travel + 0.25j * problems.depth
    if seeds is None:
        seeded = np.zeros(h1.size, dtype=bool)
        t1, t2 = h1, h2
    else:
        s1, s2, seeded = seeds
        t1, t2 = np.where(seeded, s1, h1), np.where(seeded, s2, h2)
    t1, t2, gnorm, status = _newton(problems, t1, t2, k1_target, k2_target, d)
    # a continuation seed that slid off the physical branch: one more
    # attempt from the heuristic crest seed
    again = np.flatnonzero(seeded & (status != _ROOT))
    if again.size:
        (t1[again], t2[again], gnorm[again], status[again]) = _newton(
            problems[again], h1[again], h2[again], k1_target, k2_target, d)
    return t1, t2, gnorm, status


def _only_root(roots, crest_time):
    """(t1, t2) of a batch of one, or the SaddleConvergenceError that names
    why it has no physical root."""
    [t1], [t2], [gnorm], [status] = roots
    if status == _ROOT:
        return t1, t2
    raise SaddleConvergenceError({
        _SINGULAR: "singular Jacobian",
        _STALLED: f"Newton stalled (|G| = {gnorm:.2e}); try a different seed",
        _NO_CONVERGENCE: f"no convergence after {_NEWTON_MAX_ITER} iterations "
                         f"(|G| = {gnorm:.2e})",
        _IM_T1: f"unphysical root: Im t1 = {t1.imag:.3e}",
        _OFF_CREST: f"root drifted off the crest: Re t1 = {t1.real:.3f} fs vs "
                    f"crest at {crest_time:.3f} fs",
        _ACAUSAL: f"acausal root: arrival Re t2 = {t2.real:.3f} fs precedes "
                  f"emission Re t1 = {t1.real:.3f} fs",
        _BRANCH: f"unphysical arrival branch: Im t2 = {t2.imag:.3f} fs "
                 f"outside [-0.2, 1] x Im t1 = {t1.imag:.3f} fs",
    }[status])


def _continued_roots(energies, E0, problems, cfg):
    """Saddle roots of every problem of the batch, continued in final energy.

    Energies are stepped in the given order, and each step solves every
    problem as one batch (_solve_saddles). A problem's root seeds that
    problem at the next energy; a problem without a root starts again from
    its heuristic crest seed.

    Yields (t1, t2, |G|, status) per energy, as _solve_saddles returns them.
    """
    t1 = t2 = np.zeros(problems.crest.size, dtype=complex)
    found = np.zeros(problems.crest.size, dtype=bool)
    for e in energies:
        t1, t2, gnorm, status = _solve_saddles(e, E0, problems, cfg,
                                               (t1, t2, found))
        found = status == _ROOT
        yield t1, t2, gnorm, status


def solve_saddle(E: float, E0: float, laser: LaserConfig, cfg: JunctionConfig,
                 seed: tuple[complex, complex] | None = None, *,
                 crest_time: float | None = None) -> SaddleSolution:
    """Newton solve of the saddle equations for one final energy.

    A batch of one for the batched saddle core (see _solve_saddles): a
    supplied seed that fails falls back once to the heuristic crest seed.
    Vbar is the junction's mean_image_magnitude.
    """
    vbar = mean_image_magnitude(cfg)
    if crest_time is None:
        crest_time = field_crest_time(laser)
    problem = _Problems.build([(laser, crest_time)], cfg)
    seeds = None if seed is None else (
        np.array([complex(seed[0])]), np.array([complex(seed[1])]),
        np.ones(1, dtype=bool))
    t1, t2 = _only_root(_solve_saddles(E, E0, problem, cfg, seeds), crest_time)
    return SaddleSolution(t1, t2, float(E), -abs(E0), vbar, laser, cfg)


def emission_phase_curve(energies, laser: LaserConfig, cfg: JunctionConfig, *,
                         binding: float | None = None):
    """sinh(omega Im t1) at the dominant crest for each final energy.

    The crest's root is continued in E (_continued_roots); the first energy
    without a root raises SaddleConvergenceError, as solve_saddle would."""
    e0 = cfg.workfunction_tip if binding is None else binding
    crest = field_crest_time(laser)
    problem = _Problems.build([(laser, crest)], cfg)
    out = np.empty(len(energies))
    for i, roots in enumerate(_continued_roots(energies, e0, problem, cfg)):
        t1, _ = _only_root(roots, crest)
        out[i] = np.sinh(laser.omega * t1.imag)
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


def _crest_amplitudes(lasers, cfg: JunctionConfig, E0: float, energies):
    """Saddle-point amplitude of every crest at every final energy, for
    each laser of a sequence.

    Each crest of the force toward the sample contributes
    sqrt(i/(8 pi m hbar^3 (t2-t1))) * exp(i S / hbar) at each energy; the
    transition prefactor is taken as 1, so magnitudes are meaningful only
    relative to each other. Every (laser, crest) root is continued in
    energy as one batch (_continued_roots).

    Returns one (crest times, amplitudes of shape (crest, energy), lost)
    per laser, where lost marks the crest/energy pairs whose saddle solve
    failed. Their amplitude is 0, as it is for a split sub-crest that
    converged onto a root an earlier crest of the same laser already
    counted and for an anti-Stokes partner root (Im S < 0, beyond the
    crest's classical cutoff, exponentially dead there).
    """
    crests = [find_field_crests(las) for las in lasers]
    owner = np.repeat(np.arange(len(lasers)), [c.size for c in crests])
    problems = _Problems.build(
        [(las, float(tc)) for las, cs in zip(lasers, crests) for tc in cs], cfg)
    amp = np.zeros((owner.size, energies.size), dtype=complex)
    lost = np.zeros(amp.shape, dtype=bool)
    roots = _continued_roots(energies, E0, problems, cfg)
    for k, (e, (t1, t2, _, status)) in enumerate(zip(energies, roots)):
        found = status == _ROOT
        lost[:, k] = ~found
        seen = [[] for _ in lasers]
        for row in np.flatnonzero(found):
            i, r1, r2 = owner[row], t1[row], t2[row]
            if any(abs(r1 - t) < 1e-6 for t in seen[i]):
                continue  # split sub-crest: root already counted
            seen[i].append(r1)
            s = action(r1, r2, e, E0, lasers[i], cfg)
            if s.imag < 0:
                continue  # anti-Stokes partner root
            pref = np.sqrt(1j / (8.0 * np.pi * EMASS * HBAR_EVFS**3 * (r2 - r1)))
            amp[row, k] = pref * np.exp(1j * s / HBAR_EVFS)
    bounds = np.cumsum([0] + [c.size for c in crests])
    return [(c, amp[i:j], lost[i:j])
            for c, i, j in zip(crests, bounds[:-1], bounds[1:])]


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
    [(crests, amp, lost)] = _crest_amplitudes([las], cfg, E0,
                                              np.array([float(E)]))
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
    [(_, amp, _)] = _crest_amplitudes([_directed(laser, direction)], cfg,
                                      cfg.workfunction_tip, energies)
    return np.abs(amp.sum(axis=0))


def directional_weight(laser: LaserConfig | Sequence[LaserConfig],
                       cfg: JunctionConfig, *, direction: int = 1,
                       energies=None):
    """Energy-integrated transport weight int |M_E|^2 dE for one direction.

    laser is one LaserConfig (returns a float) or a sequence of them
    (returns an array with one weight each); all lasers of a sequence are
    solved together, one batch per energy step.

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
    single = isinstance(laser, LaserConfig)
    lasers = [laser] if single else list(laser)
    rows = _crest_amplitudes([_directed(las, direction) for las in lasers],
                             cfg, cfg.workfunction_tip, energies)
    weights = np.array([np.trapezoid(np.sum(np.abs(amp) ** 2, axis=0), energies)
                        for _, amp, _ in rows])
    return float(weights[0]) if single else weights


def delay_scan_sf(laser: LaserConfig, cfg: JunctionConfig, tau0_values, *,
                  energies=None):
    """Net directional spectral weight versus two-colour delay.

    For each tau0, integrates |M_E|^2 over final energies for tip->sample
    and sample->tip transport and returns the normalized difference. One
    directional_weight call per direction covers every delay. The output
    is amplitude-normalized (prefactor eta = 1 leaves absolute magnitudes
    undefined)."""
    lasers = [replace(laser, base_delay_tau0=float(tau0)) for tau0 in tau0_values]
    out = (directional_weight(lasers, cfg, direction=1, energies=energies)
           - directional_weight(lasers, cfg, direction=-1, energies=energies))
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out
