"""Two-colour vector potential, electric field and Keldysh parameter.

All evaluators accept real or complex time arguments; the strong-field
model relies on analytic continuation of the Gaussian envelopes. Only its
closed-form integral of A needs scipy.special (the Faddeeva function),
imported on first use so that a TDSE run never loads it.
"""

from functools import cache
from typing import NamedTuple

import numpy as np

from .config import LaserConfig
from .units import EMASS

_FOUR_LN2 = 4.0 * np.log(2.0)

# a colour's field counts as switched on once its Gaussian envelope reaches
# this fraction of the colour's own amplitude
ONSET_LEVEL = 1e-8


class _Pulse(NamedTuple):
    """Per-pulse constants of the field formulas."""

    omega: float
    f1: float         # fundamental amplitude F1
    f2: float         # SH amplitude eta * F1
    rate1: float      # fundamental envelope rate 4 ln2 / tau1^2
    rate2: float      # SH envelope rate 4 ln2 / tau2^2
    sh_center: float  # base_delay_tau0
    sh_phase: float   # SH carrier phase 2 omega tau0
    sign: float       # field_sign


def _pulse(laser: LaserConfig) -> _Pulse:
    w = laser.omega
    f1 = laser.field_F1
    return _Pulse(w, f1, laser.ratio_eta * f1,
                  _FOUR_LN2 / laser.duration_tau1**2,
                  _FOUR_LN2 / laser.duration_tau2**2,
                  laser.sh_center, 2.0 * w * laser.sh_center, laser.field_sign)


def _potential(p: _Pulse, t):
    w = p.omega
    fund = (p.f1 / w) * np.exp(-p.rate1 * t**2) * np.sin(w * t)
    x = t - p.sh_center
    sh = (p.f2 / (2.0 * w)) * np.exp(-p.rate2 * (x * x)) \
        * np.sin(2.0 * w * t - p.sh_phase)
    return p.sign * (fund + sh)


class _Waves(NamedTuple):
    """A(t) as the sum of four Gaussian waves amp exp(-rate (t - centre)^2
    + i k t), the waves on the last axis: shape (4,) for one pulse, (n, 4)
    for a batch of n pulses, one row each. The fundamental has rate1,
    centre 0 and k = +-omega, the SH rate2, centre sh_center and
    k = +-2 omega."""

    amp: np.ndarray     # complex
    rate: np.ndarray
    centre: np.ndarray
    k: np.ndarray

    def rows(self, idx) -> "_Waves":
        """The waves of the batch rows idx."""
        return _Waves(*(c[idx] for c in self))


@cache
def _wave_table(laser: LaserConfig) -> _Waves:
    """The four waves of one pulse, cached per (frozen, hashable) laser:
    the saddle model reads them once per root. Read-only, as every caller
    shares them."""
    p = _pulse(laser)
    w, c = p.omega, p.sh_center
    fund = p.sign * p.f1 / (2j * w)
    sh = p.sign * p.f2 / (4j * w)
    phase = np.exp(1j * p.sh_phase)
    waves = _Waves(np.array((fund, -fund, sh / phase, -sh * phase)),
                   np.array((p.rate1, p.rate1, p.rate2, p.rate2)),
                   np.array((0.0, 0.0, c, c)),
                   np.array((w, -w, 2.0 * w, -2.0 * w)))
    for column in waves:
        column.flags.writeable = False
    return waves


def _wave_tables(lasers) -> _Waves:
    """The waves of a batch of pulses, one row per laser (none for no
    lasers)."""
    tables = [_wave_table(las) for las in lasers]
    return _Waves(*(np.reshape([t[i] for t in tables], (-1, 4))
                    for i in range(len(_Waves._fields))))


def _wave_sum(waves: _Waves, t):
    """A(t) from the waves of one pulse."""
    t = np.asarray(t)[..., None]
    x = t - waves.centre
    return np.exp(1j * waves.k * t - waves.rate * (x * x)) @ waves.amp


def _wave_ends(waves: _Waves, t1, t2):
    """int_t1^t2 A(tau) dtau, A and A' = dA/dt at both ends, from one
    evaluation of the waves there. t1 and t2 are arrays of one shape, one
    segment per row of a batch of waves (or any shape for one pulse).
    Returns (integral, A, A'), A and A' with a last axis (t1, t2).

    A' of a wave g is g (i k - 2 rate (tau - centre)). A is entire, so the
    integral does not depend on the path: g integrates to
    -sqrt(pi)/(2 sqrt(a)) g w(zeta), w the Faddeeva function and zeta =
    i sqrt(a) (tau - c0) + k/(2 sqrt(a)) for rate a and centre c0. Where
    Im zeta < 0 (Re tau < c0), g w(zeta) = 2 amp exp(i k c0 - k^2/4a) -
    g w(-zeta), so that w is only evaluated in the upper half-plane, where
    it is bounded. The constant is left out: each colour is odd about its
    own centre (sh_phase = 2 omega sh_center), so the constants of its two
    waves cancel. Kept, it would round g w away in the far wings, where it
    outweighs it.
    """
    from scipy.special import wofz  # here: TDSE runs need no scipy.special

    amp, rate, centre, k = (c[..., None, :] for c in waves)  # (..., end, wave)
    root = np.sqrt(rate)
    tau = np.stack((t1, t2), axis=-1)[..., None]
    x = tau - centre
    g = amp * np.exp(1j * k * tau - rate * x**2)
    side = np.where(x.real < 0, -1.0, 1.0)  # the sign of Im zeta
    gw = side * g * wofz(side * (1j * root * x + k / (2.0 * root)))
    ends = np.sum(-np.sqrt(np.pi) / (2.0 * root) * gw, axis=-1)
    return (ends[..., 1] - ends[..., 0], np.sum(g, axis=-1),
            np.sum(g * (1j * k - 2.0 * rate * x), axis=-1))


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
