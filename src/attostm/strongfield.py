"""Analytical strong-field model of junction transport.

Transport from the tip's Fermi level, E0 = -W_t with W_t the junction's
tip workfunction, to a final state E in the sample is described by a
two-time action; its complex
stationary points (emission time t1, arrival time t2, canonical momentum
p~ eliminated through the displacement condition) give one tunnelling
amplitude contribution per field crest. The image potential enters the
action as a junction-averaged constant, and the model has no gap ramp:
saddle_domain states its domain, and every entry point refuses the rest.

Natural units here: eV, nm, fs, with hbar = 0.658 eV fs.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import JunctionConfig, LaserConfig
from .laser import (_Waves, _wave_ends, _wave_sum, _wave_table, _wave_tables,
                    effective_keldysh, electric_field, field_crest_time,
                    find_field_crests, vector_potential)
from .potential import mean_image_magnitude
from .units import EMASS, HBAR_EVFS

# nodes of action's Gauss-Legendre rule for p~ and int A^2
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)

# final-energy grid (eV) of experiments.delay_scan_strongfield when none
# is given
DEFAULT_ENERGIES = np.arange(0.3, 14.0, 0.35)
DEFAULT_ENERGIES.flags.writeable = False

_NEWTON_MAX_ITER = 200  # solve_saddle's iteration cap and residual bound
_NEWTON_TOL = 1e-10
_CUTOFF_DEPARTURE = 0.10  # relative departure from the Keldysh line
_DRIFT_SLICE = 8192  # grid points per vector_potential call in drift_energy_bound


class SaddleConvergenceError(RuntimeError):
    """Newton iteration on the saddle equations failed."""


def _p_tilde(d, t1, t2, a_integral):
    # p~ = (int e A dtau + m d)/(t2 - t1) with e = -|e|
    return (EMASS * d - a_integral) / (t2 - t1)


@dataclass(frozen=True)
class SaddleSolution:
    """One solution of the three saddle-point equations (complex fs/eV)."""

    t1: complex
    t2: complex
    final_energy_E: float
    laser: LaserConfig
    junction: JunctionConfig

    def _ends(self):
        return _wave_ends(_wave_table(self.laser), self.t1, self.t2)

    @property
    def p_tilde(self) -> complex:
        """Canonical momentum, derived from t1, t2 (eV fs / nm)."""
        a_int, _, _ = self._ends()
        return _p_tilde(self.junction.width_d, self.t1, self.t2, a_int)

    def residuals(self) -> tuple[float, float, float]:
        """|residual| of the emission-energy, displacement and arrival-energy
        saddle equations, in eV / nm / eV."""
        d = self.junction.width_d
        a_int, (a1, a2), _ = self._ends()
        pt = _p_tilde(d, self.t1, self.t2, a_int)
        # kinetic momentum p~ - e A(t) = p~ + A(t)
        k1 = pt + a1
        k2 = pt + a2
        vbar = mean_image_magnitude(self.junction)
        r1 = k1**2 / (2.0 * EMASS) - vbar + self.junction.workfunction_tip
        r2 = (pt * (self.t2 - self.t1) + a_int) / EMASS - d
        r3 = k2**2 / (2.0 * EMASS) - vbar - self.final_energy_E
        return abs(complex(r1)), abs(complex(r2)), abs(complex(r3))


def action(t1: complex, t2: complex, E: float, laser: LaserConfig,
           cfg: JunctionConfig) -> complex:
    """Two-time transport action S(t2, t1) (eV fs).

    E t2 + p~^2/(2m)(t2-t1) - int e^2 A^2/(2m) - int V_imag[z] + W_t t1,
    with the image integral taken as -Vbar * (t2 - t1), Vbar the junction's
    mean_image_magnitude and W_t its tip workfunction. p~ and the A^2
    integral share one evaluation of A at the Gauss-Legendre nodes of the
    straight segment (A is entire, so any contour will do), taken from the
    laser's cached wave table.
    """
    # Still scalar, one call per kept root: perfbench's tracer reads each
    # result to count the useful roots. Batching S over an energy step, and
    # with it a closed form for p~ and int A^2 in place of this rule, waits
    # on that tracer's revision (ROADMAP items 4 and 8).
    if t2 == t1:
        raise ValueError("t1 and t2 must differ")
    vbar = mean_image_magnitude(cfg)
    half = 0.5 * (t2 - t1)
    a = _wave_sum(_wave_table(laser), 0.5 * (t1 + t2) + half * _GL_X)
    pt = _p_tilde(cfg.width_d, t1, t2, half * (_GL_W @ a))
    a2 = half * (_GL_W @ a**2)
    return (E * t2 + pt**2 / (2.0 * EMASS) * (t2 - t1)
            - a2 / (2.0 * EMASS) + vbar * (t2 - t1)
            + cfg.workfunction_tip * t1)


def saddle_domain(cfg: JunctionConfig, energies=(),
                  name: str = "final energy E", keys=None, lasers=()) -> float:
    """W_t - Vbar, if the junction, final energies and lasers lie in the
    saddle model's domain: W_t above the mean image potential Vbar, no gap
    ramp, each energy above -Vbar (k(t2) = sqrt(2m(E + Vbar)) is real) and
    a field in each laser (the saddle equations have no root without one);
    otherwise ValueError, naming the energies as `name` and each junction
    or laser field as `keys` maps it (by default its own name)."""
    def key(field):
        return (keys or {}).get(field, field)

    vbar = mean_image_magnitude(cfg)
    binding = cfg.workfunction_tip - vbar
    if binding <= 0:
        raise ValueError(f"saddle: {key('workfunction_tip')} "
                         f"({cfg.workfunction_tip}) must exceed the junction's "
                         f"mean image potential {vbar:.4f} eV")
    if cfg.gap_ramp_eV != 0:
        raise ValueError(
            f"saddle: {key('workfunction_sample')} ({cfg.workfunction_sample}), "
            f"{key('workfunction_tip')} ({cfg.workfunction_tip}) and "
            f"{key('bias_Us')} ({cfg.bias_Us}) make a gap ramp of "
            f"{cfg.gap_ramp_eV} eV; the model needs 0")
    energies = np.asarray(energies, dtype=float)
    below = energies + vbar <= 0
    if np.any(below):
        raise ValueError(f"{name} ({energies[below][0]}) must exceed minus the "
                         f"junction's mean image potential, {-vbar:.4f} eV")
    for laser in lasers:
        if laser.field_F1 == 0:
            raise ValueError(f"saddle: {key('field_F1')} must be > 0, got "
                             f"{laser.field_F1}")
    return binding


def _seed_depth(laser, e0_eff, crest_time):
    """Im t1 of the heuristic crest seed: arcsinh(gamma)/omega with the
    Keldysh parameter of binding e0_eff in the crest's own field."""
    w = laser.omega
    ecrest = abs(complex(electric_field(laser, crest_time)))
    gamma = w * np.sqrt(2.0 * EMASS * e0_eff) / max(ecrest, 1e-12)
    return np.arcsinh(gamma) / w


@dataclass(frozen=True)
class _Problems:
    """A batch of saddle problems, one (laser, crest) pair per row."""

    waves: _Waves          # the (n, 4) wave table of the rows' lasers
    crest: np.ndarray      # crest time (fs)
    window: np.ndarray     # largest |Re t1 - crest| of a physical root (fs)
    depth: np.ndarray      # Im t1 of the heuristic seed (fs)

    @classmethod
    def build(cls, pairs, cfg):
        """Problems of the (laser, crest time) pairs, in the given order."""
        lasers = [las for las, _ in pairs]
        e0_eff = saddle_domain(cfg, lasers=lasers)
        return cls(_wave_tables(lasers),
                   np.array([tc for _, tc in pairs], dtype=float),
                   np.array([0.3 * 2.0 * np.pi / las.omega for las in lasers]),
                   np.array([_seed_depth(las, e0_eff, tc) for las, tc in pairs]))

    def __getitem__(self, idx):
        return _Problems(self.waves.rows(idx), self.crest[idx],
                         self.window[idx], self.depth[idx])


def _kinetic(waves, d, t1, t2):
    """Kinetic momenta p~ + A(t) at both ends of each segment t1 -> t2, and
    A' there as an (n, 2) array, from one evaluation of the rows' waves."""
    a_int, a, da = _wave_ends(waves, t1, t2)
    pt = _p_tilde(d, t1, t2, a_int)
    return pt + a[:, 0], pt + a[:, 1], da


# why a problem of the batch has no root; 0 is a physical root
(_ROOT, _SINGULAR, _STALLED, _NO_CONVERGENCE, _IM_T1, _OFF_CREST, _ACAUSAL,
 _BRANCH) = range(8)


def _newton(problems, t1, t2, k1_target, k2_target, d):
    """Damped Newton on every problem at once, then the physical-branch
    checks; k2_target holds one value per problem. Returns (t1, t2, |G| at
    the last accepted iterate, status).

    Each iterate and line-search candidate costs one evaluation of the wave
    table (_kinetic); the Jacobian takes A' from the row's last accepted
    iterate."""
    t1, t2 = t1.copy(), t2.copy()
    k1, k2, da = _kinetic(problems.waves, d, t1, t2)
    gnorm = abs(k1 - k1_target) + abs(k2 - k2_target)
    status = np.full(t1.size, _NO_CONVERGENCE)
    live = np.arange(t1.size)  # rows still iterating
    for _ in range(_NEWTON_MAX_ITER):
        conv = gnorm[live] < _NEWTON_TOL
        status[live[conv]] = _ROOT
        live = live[~conv]
        if live.size == 0:
            break
        waves = problems.waves.rows(live)
        a1, a2, b1, b2 = t1[live], t2[live], k1[live], k2[live]
        g1, g2 = b1 - k1_target, b2 - k2_target[live]
        ap = da[live]  # A'(t1), A'(t2)
        dt21 = a2 - a1
        j11 = b1 / dt21 + ap[:, 0]
        j12 = -b2 / dt21
        j21 = b1 / dt21
        j22 = -b2 / dt21 + ap[:, 1]
        # Cramer's rule
        det = j11 * j22 - j12 * j21
        failed = det == 0
        status[live[failed]] = _SINGULAR
        det[failed] = 1.0  # no step is taken from a singular Jacobian
        d1 = (g2 * j12 - g1 * j22) / det
        d2 = (g1 * j21 - g2 * j11) / det
        # damped update: halve until the residual shrinks
        search = np.flatnonzero(~failed)  # positions in live
        for h in range(10):
            c1 = a1[search] + 0.5**h * d1[search]
            c2 = a2[search] + 0.5**h * d2[search]
            valid = np.flatnonzero(c2 != c1)
            at = search[valid]
            q1, q2, qd = _kinetic(waves.rows(at), d, c1[valid], c2[valid])
            qnorm = abs(q1 - k1_target) + abs(q2 - k2_target[live[at]])
            better = qnorm < gnorm[live[at]]
            rows = live[at[better]]
            t1[rows], t2[rows] = c1[valid[better]], c2[valid[better]]
            k1[rows], k2[rows], gnorm[rows] = q1[better], q2[better], qnorm[better]
            da[rows] = qd[better]
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


def _branch_targets(E, cfg):
    """The kinetic momenta of the physical branch, k(t1) = i sqrt(2m(W_t -
    Vbar)) and k(t2) = +sqrt(2m(E + Vbar)), and the travel time d/v(E);
    k(t2) and the travel time have the shape of E (checked by
    saddle_domain)."""
    e0_eff = saddle_domain(cfg, E)
    vbar = mean_image_magnitude(cfg)
    E = np.asarray(E, dtype=float)
    travel = cfg.width_d / np.sqrt(2.0 * np.maximum(E + vbar, 0.1) / EMASS)
    return (1j * np.sqrt(2.0 * EMASS * e0_eff),
            np.sqrt(2.0 * EMASS * (E + vbar)), travel)


def _solve_saddles(E, problems, cfg, seeds=None):
    """Saddle roots of every problem of the batch at final energy E, one
    energy for all problems or one per problem.

    Works on the square-rooted branch conditions of _branch_targets, which
    fix the physical root (Im t1 > 0, forward arrival); the displacement
    equation holds by construction of p~. seeds = (t1, t2, seeded) continues
    the seeded problems from (t1, t2); the others start from the heuristic
    crest seed, and a seeded problem that fails gets one more attempt from
    it.

    Returns (t1, t2, |G|, status); status is _ROOT where a physical root was
    found and otherwise names the failure.
    """
    k1_target, k2_target, travel = _branch_targets(E, cfg)
    k2_target = np.broadcast_to(k2_target, problems.crest.shape)
    d = cfg.width_d
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
            problems[again], h1[again], h2[again], k1_target,
            k2_target[again], d)
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


def _continued_roots(energies, problems, cfg):
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
        t1, t2, gnorm, status = _solve_saddles(e, problems, cfg, (t1, t2, found))
        found = status == _ROOT
        yield t1, t2, gnorm, status


def solve_saddle(E: float, laser: LaserConfig, cfg: JunctionConfig,
                 seed: tuple[complex, complex] | None = None, *,
                 crest_time: float | None = None) -> SaddleSolution:
    """Newton solve of the saddle equations for one final energy.

    A batch of one for the batched saddle core (see _solve_saddles): a
    supplied seed that fails falls back once to the heuristic crest seed.
    The electron starts at -W_t, W_t the junction's tip workfunction.
    """
    if crest_time is None:
        crest_time = field_crest_time(laser)
    problem = _Problems.build([(laser, crest_time)], cfg)
    seeds = None if seed is None else (
        np.array([complex(seed[0])]), np.array([complex(seed[1])]),
        np.ones(1, dtype=bool))
    t1, t2 = _only_root(_solve_saddles(E, problem, cfg, seeds), crest_time)
    return SaddleSolution(t1, t2, float(E), laser, cfg)


def emission_phase_curve(energies, laser: LaserConfig, cfg: JunctionConfig):
    """sinh(omega Im t1) at the dominant crest for each final energy.

    All energies are solved as one batch, one row per energy, from the
    heuristic crest seed; where that fails, the row is continued in rounds
    from the root of the nearest earlier energy (in the given order) that
    has one, and from each such root at most once. The first energy left
    without a root raises the SaddleConvergenceError of its crest-seed
    solve, as solve_saddle would."""
    crest = field_crest_time(laser)
    energies = np.asarray(energies, dtype=float)
    rows = np.arange(energies.size)
    problems = _Problems.build([(laser, crest)], cfg)[np.zeros_like(rows)]
    t1, t2, gnorm, status = _solve_saddles(energies, problems, cfg)
    k1_target, k2_target, _ = _branch_targets(energies, cfg)
    tried = np.full(rows.size, -1)  # the seed row of a row's last attempt
    while True:
        found = status == _ROOT
        nearest = np.maximum.accumulate(np.where(found, rows, -1))
        seed = np.concatenate(([-1], nearest[:-1]))  # nearest earlier root
        again = np.flatnonzero(~found & (seed > tried))
        if again.size == 0:
            break
        tried[again] = seed[again]
        c1, c2, _, got = _newton(problems[again], t1[seed[again]],
                                 t2[seed[again]], k1_target, k2_target[again],
                                 cfg.width_d)
        solved = got == _ROOT
        t1[again[solved]], t2[again[solved]] = c1[solved], c2[solved]
        status[again[solved]] = _ROOT
    lost = np.flatnonzero(status != _ROOT)
    if lost.size:
        i = lost[0]
        _only_root([a[i:i + 1] for a in (t1, t2, gnorm, status)], crest)
    return np.sinh(laser.omega * t1.imag)


def cutoff_energy(laser: LaserConfig, cfg: JunctionConfig) -> float | None:
    """Final energy where the emission phase departs from the two-colour
    Keldysh line by more than _CUTOFF_DEPARTURE (10%); None if no departure
    below 50 eV.

    The curve first has to sit on the line before it can depart from it:
    the upward scan for the crossing starts at the energy of closest
    agreement (sub-eV arrivals carry their own slow-electron deviation).
    """
    gamma = effective_keldysh(laser, saddle_domain(cfg, lasers=[laser]))
    de = 0.25
    energies = np.arange(de, 50.0 + de, de)
    phases = emission_phase_curve(energies, laser, cfg)
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
    electron released at rest can be field-accelerated to.

    max |A| is taken over the 200 001-point grid in slices of
    _DRIFT_SLICE points, which bounds the temporaries of A's evaluation.
    """
    span = 2.5 * max(laser.duration_tau1, laser.duration_tau2) + abs(laser.sh_center)
    tg = np.linspace(-span, span, 200_001)
    amax = np.max([np.max(np.abs(vector_potential(laser, tg[k:k + _DRIFT_SLICE])))
                   for k in range(0, tg.size, _DRIFT_SLICE)])
    return float(amax**2 / (2.0 * EMASS))


def _crest_amplitudes(lasers, cfg: JunctionConfig, energies):
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
    roots = _continued_roots(energies, problems, cfg)
    for k, (e, (t1, t2, _, status)) in enumerate(zip(energies, roots)):
        found = status == _ROOT
        lost[:, k] = ~found
        seen = [[] for _ in lasers]
        for row in np.flatnonzero(found):
            i, r1, r2 = owner[row], t1[row], t2[row]
            if any(abs(r1 - t) < 1e-6 for t in seen[i]):
                continue  # split sub-crest: root already counted
            seen[i].append(r1)
            s = action(r1, r2, e, lasers[i], cfg)
            if s.imag < 0:
                continue  # anti-Stokes partner root
            pref = np.sqrt(1j / (8.0 * np.pi * EMASS * HBAR_EVFS**3 * (r2 - r1)))
            amp[row, k] = pref * np.exp(1j * s / HBAR_EVFS)
    bounds = np.cumsum([0] + [c.size for c in crests])
    return [(c, amp[i:j], lost[i:j])
            for c, i, j in zip(crests, bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class Trajectory:
    """Semiclassical trajectory Re D(t) after the tunnel exit (fs, nm)."""

    times: np.ndarray
    positions: np.ndarray
    final_energy_E: float


def trajectory(sol: SaddleSolution) -> Trajectory:
    """Displacement D(t) = int_t1^t [p~ - eA]/m dtau = (p~ (t - t1) +
    int_t1^t A)/m, int A in the closed form of laser._wave_ends. Positions
    are Re D(t) on the real axis from Re t1, truncated where the electron
    reaches the sample boundary (near Re t2; exactly there when Im t2 is
    negligible)."""
    d = sol.junction.width_d
    # Re t1 onward, with headroom past Re t2 for the d-crossing
    span = sol.t2.real - sol.t1.real
    t_real = np.linspace(sol.t1.real, sol.t2.real + 0.5 * span, 800)
    a_int, _, _ = _wave_ends(_wave_table(sol.laser),
                             np.full(t_real.shape, sol.t1), t_real)
    positions = np.real((sol.p_tilde * (t_real - sol.t1) + a_int) / EMASS)
    cross = np.nonzero(positions >= d)[0]
    if cross.size and cross[0] > 0:
        i = cross[0]
        frac = (d - positions[i - 1]) / (positions[i] - positions[i - 1])
        t_end = t_real[i - 1] + frac * (t_real[i] - t_real[i - 1])
        t_real = np.append(t_real[:i], t_end)
        positions = np.append(positions[:i], d)
    return Trajectory(t_real, positions, sol.final_energy_E)


def directional_spectrum(laser: LaserConfig, cfg: JunctionConfig,
                         energies) -> np.ndarray:
    """|M_E| of tip -> sample transport over an energy grid: the coherent
    crest sum, with each crest's root continued in E (_continued_roots)
    and a crest/energy pair whose solve fails contributing nothing;
    sample -> tip is the same call on laser.flipped()."""
    energies = np.asarray(energies, dtype=float)
    [(_, amp, _)] = _crest_amplitudes([laser], cfg, energies)
    return np.abs(amp.sum(axis=0))


def check_energies(energies, name: str = "energies") -> np.ndarray:
    """energies as a float array, if they are a 1-D grid of at least two
    strictly increasing values, the grid directional_weight integrates over
    (otherwise the integral would be zero or negative); ValueError naming
    them as `name` otherwise."""
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size < 2 \
            or not np.all(np.diff(energies) > 0):
        raise ValueError(f"{name} must be a 1-D grid of at least two "
                         f"strictly increasing values, got {energies.tolist()}")
    return energies


def directional_weight(lasers: Sequence[LaserConfig], cfg: JunctionConfig,
                       energies) -> np.ndarray:
    """Energy-integrated tip -> sample transport weight int |M_E|^2 dE of
    each laser; sample -> tip is the same call on the flipped lasers
    (LaserConfig.flipped). All lasers are solved together, one batch per
    energy step.

    Evaluated as the incoherent sum of single-crest spectral integrals:
    over a window spanning many photon orders the inter-crest comb terms
    integrate away (verified to <1% against the coherent fine-grid
    integral), which keeps the observable smooth in every parameter.

    Each crest's root is continued in E, and a crest/energy pair whose
    solve fails contributes nothing, even at a dominant crest. On the
    fig4bc pulse at 8 delays spread over one SH period, crests with
    |E| >= 0.8 of the maximum lose their root at 59 crest/energy pairs
    (29 forward, 30 backward), all below 2 eV.

    energies must pass check_energies.
    """
    energies = check_energies(energies)
    rows = _crest_amplitudes(lasers, cfg, energies)
    return np.array([np.trapezoid(np.sum(np.abs(amp) ** 2, axis=0), energies)
                     for _, amp, _ in rows])
