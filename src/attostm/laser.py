"""Two-colour vector potential, electric field and Keldysh parameter.

All evaluators accept real or complex time arguments; the strong-field
model relies on analytic continuation of the Gaussian envelopes. Only its
closed-form integral of A needs scipy.special (the Faddeeva function),
imported on first use so that a TDSE run never loads it.
"""

from typing import NamedTuple

import numpy as np

from .config import LaserConfig
from .units import EMASS

_FOUR_LN2 = 4.0 * np.log(2.0)

# a colour's field counts as switched on once its Gaussian envelope reaches
# this fraction of the colour's own amplitude
ONSET_LEVEL = 1e-8


class _Pulse(NamedTuple):
    """Per-pulse constants of the field formulas: floats for one pulse,
    (n, 1) columns for a batch of n pulses evaluated at (n, m) times."""

    omega: float | np.ndarray
    f1: float | np.ndarray         # fundamental amplitude F1
    f2: float | np.ndarray         # SH amplitude eta * F1
    rate1: float | np.ndarray      # fundamental envelope rate 4 ln2 / tau1^2
    rate2: float | np.ndarray      # SH envelope rate 4 ln2 / tau2^2
    sh_center: float | np.ndarray  # base_delay_tau0
    sh_phase: float | np.ndarray   # SH carrier phase 2 omega tau0
    sign: float | np.ndarray       # field_sign


def _pulse(laser: LaserConfig) -> _Pulse:
    w = laser.omega
    f1 = laser.field_F1
    return _Pulse(w, f1, laser.ratio_eta * f1,
                  _FOUR_LN2 / laser.duration_tau1**2,
                  _FOUR_LN2 / laser.duration_tau2**2,
                  laser.sh_center, 2.0 * w * laser.sh_center, laser.field_sign)


def _pulses(lasers) -> _Pulse:
    """The constants of every laser, each as an (n, 1) column."""
    table = np.array([_pulse(las) for las in lasers], dtype=float)
    return _Pulse(*table.reshape(-1, len(_Pulse._fields)).T[:, :, None])


def _potential(p: _Pulse, t):
    w = p.omega
    fund = (p.f1 / w) * np.exp(-p.rate1 * t**2) * np.sin(w * t)
    x = t - p.sh_center
    sh = (p.f2 / (2.0 * w)) * np.exp(-p.rate2 * (x * x)) \
        * np.sin(2.0 * w * t - p.sh_phase)
    return p.sign * (fund + sh)


def _potential_integral(p: _Pulse, t1, t2):
    """int_t1^t2 A(tau) dtau in closed form; A is entire, so the path does
    not matter. t1 and t2 are arrays of one shape, one time per pulse row.

    A is the sum of four waves g = c exp(-a (tau - c0)^2 + i k tau): the
    fundamental at rate1 with k = +-omega, the SH at rate2 about sh_center
    with k = +-2 omega. Each integrates to -sqrt(pi)/(2 sqrt(a)) g w(zeta),
    w the Faddeeva function and zeta = i sqrt(a) (tau - c0) + k/(2 sqrt(a)).
    Where Im zeta < 0 (Re tau < c0), g w(zeta) = 2 c exp(i k c0 - k^2/4a)
    - g w(-zeta), so that w is only evaluated in the upper half-plane, where
    it is bounded. The constant is left out: each colour is odd about its
    own centre (sh_phase = 2 omega sh_center), so the constants of its
    two waves cancel. Kept, it would round g w away in the far wings,
    where it outweighs it.
    """
    from scipy.special import wofz  # here: TDSE runs need no scipy.special

    w, c = p.omega, p.sh_center
    fund = p.sign * p.f1 / (2j * w)
    sh = p.sign * p.f2 / (4j * w)
    phase = np.exp(1j * p.sh_phase)
    # the four waves on the last axis: amplitude c, rate a, centre c0, k
    amp, rate, centre, k = (np.stack(wave, axis=-1) for wave in (
        (fund, -fund, sh / phase, -sh * phase),
        (p.rate1, p.rate1, p.rate2, p.rate2), (0.0 * c, 0.0 * c, c, c),
        (w, -w, 2.0 * w, -2.0 * w)))
    root = np.sqrt(rate)
    tau = np.stack((t1, t2), axis=-1)[..., None]  # (..., end, wave)
    x = tau - centre
    side = np.where(x.real < 0, -1.0, 1.0)  # the sign of Im zeta
    gw = side * amp * np.exp(1j * k * tau - rate * x**2) \
        * wofz(side * (1j * root * x + k / (2.0 * root)))
    ends = np.sum(-np.sqrt(np.pi) / (2.0 * root) * gw, axis=-1)
    return ends[..., 1] - ends[..., 0]


def _field(p: _Pulse, t):
    w, a1, a2 = p.omega, p.rate1, p.rate2
    x = t - p.sh_center
    g1 = np.exp(-a1 * t**2)
    g2 = np.exp(-a2 * (x * x))
    dfund = p.f1 * g1 * (np.cos(w * t) - 2.0 * a1 * t / w * np.sin(w * t))
    arg = 2.0 * w * t - p.sh_phase
    dsh = p.f2 * g2 * (np.cos(arg) - a2 * x / w * np.sin(arg))
    return -p.sign * (dfund + dsh)


def vector_potential(laser: LaserConfig, t):
    """A(t) in V fs / nm: two Gaussian-envelope carriers, SH delayed."""
    return _potential(_pulse(laser), np.asarray(t))


def electric_field(laser: LaserConfig, t):
    """E(t) = -dA/dt in V/nm, differentiated analytically (envelopes included)."""
    return _field(_pulse(laser), np.asarray(t))


def pulse_onset(laser: LaserConfig) -> float:
    """Earliest time (fs) at which a colour's field envelope
    exp(-4 ln2 (t - t_c)^2/tau^2) reaches ONSET_LEVEL of its amplitude.

    The fundamental is centred at 0 and always counts (with field_F1 = 0
    the whole field vanishes); the SH, centred at sh_center, counts only
    when ratio_eta > 0.
    """
    k = np.sqrt(-np.log(ONSET_LEVEL) / _FOUR_LN2)
    onset = -k * laser.duration_tau1
    if laser.ratio_eta > 0:
        onset = min(onset, laser.sh_center - k * laser.duration_tau2)
    return float(onset)


def effective_keldysh(laser: LaserConfig, effective_binding: float) -> float:
    """Two-colour Keldysh parameter gamma = w*sqrt(2m|E0|_eff)/(|e|F1(1+eta)).

    With eta = 0 this reduces to the standard Keldysh parameter. The caller
    supplies the effective binding energy (eV), i.e. the bare binding minus
    the junction-averaged image potential where that correction applies.
    """
    if effective_binding <= 0:
        raise ValueError("effective_binding must be positive")
    if laser.field_F1 == 0:
        raise ValueError("Keldysh parameter undefined for zero field")
    p = np.sqrt(2.0 * EMASS * effective_binding)
    return laser.omega * p / (laser.field_F1 * (1.0 + laser.ratio_eta))


def _parabolic_refine(tg, y, i):
    # vertex of the parabola through 3 samples around index i
    if i == 0 or i == len(tg) - 1:
        return tg[i]
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return tg[i]
    return tg[i] + 0.5 * (y[i - 1] - y[i + 1]) / denom * (tg[1] - tg[0])


def field_crest_time(laser: LaserConfig) -> float:
    """Time of maximum |E(t)| (fs) within 2.5 max(tau1, tau2) of zero,
    refined parabolically on a dense grid."""
    span = 2.5 * max(laser.duration_tau1, laser.duration_tau2)
    period = 2.0 * np.pi / laser.omega
    n = max(2048, int(np.ceil(400 * 2 * span / period)))
    tg = np.linspace(-span, span, n)
    e = np.abs(electric_field(laser, tg))
    i = int(np.argmax(e))
    return float(_parabolic_refine(tg, e, i))


def find_field_crests(laser: LaserConfig):
    """Times of the negative field crests (force pushing tip -> sample).

    Returns crests where |E| reaches 0.2 times the global maximum,
    one per optical cycle of the fundamental within the envelope.
    """
    span = 2.5 * max(laser.duration_tau1, laser.duration_tau2) + abs(laser.sh_center)
    period = 2.0 * np.pi / laser.omega
    n = max(4096, int(np.ceil(400 * 2 * span / period)))
    tg = np.linspace(-span, span, n)
    e = electric_field(laser, tg)
    emax = np.max(np.abs(e))
    if emax == 0.0:
        return np.empty(0)
    inner = e[1:-1]
    # <= on the right keeps one sample of an exact symmetric tie
    is_min = ((inner < e[:-2]) & (inner <= e[2:]) & (inner < 0.0)
              & (np.abs(inner) >= 0.2 * emax))
    idx = np.nonzero(is_min)[0] + 1
    return np.array([_parabolic_refine(tg, e, i) for i in idx])
