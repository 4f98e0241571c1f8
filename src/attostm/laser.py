"""Two-colour vector potential, electric field and Keldysh parameter.

All evaluators accept real or complex time arguments; the strong-field
model relies on analytic continuation of the Gaussian envelopes.
"""

import numpy as np

from .config import LaserConfig
from .units import EMASS

_FOUR_LN2 = 4.0 * np.log(2.0)

# a colour's field counts as switched on once its Gaussian envelope reaches
# this fraction of the colour's own amplitude
ONSET_LEVEL = 1e-8


def vector_potential(laser: LaserConfig, t):
    """A(t) in V fs / nm: two Gaussian-envelope carriers, SH delayed."""
    w = laser.omega
    f1 = laser.field_F1
    f2 = laser.ratio_eta * f1
    a1 = _FOUR_LN2 / laser.duration_tau1**2
    a2 = _FOUR_LN2 / laser.duration_tau2**2
    tc = laser.sh_center
    phi = laser.total_sh_phase
    t = np.asarray(t)
    fund = (f1 / w) * np.exp(-a1 * t**2) * np.sin(w * t)
    sh = (f2 / (2.0 * w)) * np.exp(-a2 * (t - tc)**2) * np.sin(2.0 * w * t - phi)
    return laser.field_sign * (fund + sh)


def electric_field(laser: LaserConfig, t):
    """E(t) = -dA/dt in V/nm, differentiated analytically (envelopes included)."""
    w = laser.omega
    f1 = laser.field_F1
    f2 = laser.ratio_eta * f1
    a1 = _FOUR_LN2 / laser.duration_tau1**2
    a2 = _FOUR_LN2 / laser.duration_tau2**2
    tc = laser.sh_center
    phi = laser.total_sh_phase
    t = np.asarray(t)
    g1 = np.exp(-a1 * t**2)
    g2 = np.exp(-a2 * (t - tc)**2)
    dfund = f1 * g1 * (np.cos(w * t) - (2.0 * a1 * t / w) * np.sin(w * t))
    dsh = f2 * g2 * (np.cos(2.0 * w * t - phi)
                     - (a2 * (t - tc) / w) * np.sin(2.0 * w * t - phi))
    return -laser.field_sign * (dfund + dsh)


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


def field_crest_time(laser: LaserConfig, span: float | None = None) -> float:
    """Time of maximum |E(t)| (fs), refined parabolically on a dense grid."""
    if span is None:
        span = 2.5 * max(laser.duration_tau1, laser.duration_tau2)
    period = 2.0 * np.pi / laser.omega
    n = max(2048, int(np.ceil(400 * 2 * span / period)))
    tg = np.linspace(-span, span, n)
    e = np.abs(electric_field(laser, tg))
    i = int(np.argmax(e))
    return float(_parabolic_refine(tg, e, i))


def find_field_crests(laser: LaserConfig, threshold: float = 0.2):
    """Times of the negative field crests (force pushing tip -> sample).

    Returns crests where |E| exceeds `threshold` times the global maximum,
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
              & (np.abs(inner) >= threshold * emax))
    idx = np.nonzero(is_min)[0] + 1
    return np.array([_parabolic_refine(tg, e, i) for i in idx])
