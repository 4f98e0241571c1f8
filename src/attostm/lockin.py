"""Delay-modulated lock-in forward model and regularized current reconstruction.

The two-colour delay is modulated as tau0 + delta*sin(Omega t); demodulation
at Omega turns the physical current I(tau) into the complex signal

    I_lockin(tau) = (1/2pi) int_-pi^pi I(tau + delta sin x) e^{-ix} dx,

whose transfer function in delay-frequency space is J1(delta*omega). The
inverse problem divides the spectrum by a regularized J1 (cutoff beta); the
DC component is unrecoverable since J1(0) = 0. Transforms use the e^{-i
omega tau} forward convention, so the J1 argument sign is unambiguous.

The forward model interpolates the trace with its not-a-knot cubic spline,
computed in this module with scipy.interpolate.CubicSpline's arithmetic (the
same banded slope system, Hermite coefficients and PPoly evaluation order),
so the values equal CubicSpline's bit for bit without importing
scipy.interpolate; the slope system is one LAPACK dgtsv call, from
attostm._lapack, which spares the import of the scipy.linalg package
(about 0.3 s and 18 MB). J1 comes from scipy.special, imported on first
use by regularized_transfer and select_beta, so the forward model alone
does not load it. A DelayTrace refuses non-finite delays and values.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv

# global maximum of |J1|, attained at x = +-1.8412
J1_MAX = 0.5818652242574184
DEFAULT_BETA = 0.02

# select_beta's candidate cutoffs, and the largest amplified-noise share of
# the signal energy, as an amplitude fraction
BETA_GRID = np.geomspace(2e-4, 0.9 * J1_MAX, 30)
BETA_GRID.flags.writeable = False
_NOISE_FRACTION = 0.5

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)

# output delays whose spline values forward_lockin evaluates at once: bounds
# the gather temporaries to a few (_SPLINE_ROWS x 64) arrays
_SPLINE_ROWS = 128


class LockinSupportError(ValueError):
    """Requested output delays lack +-delta interpolation support."""


@dataclass(frozen=True)
class ModulationSpec:
    """Sinusoidal delay modulation with amplitude in fs; the modulation
    frequency cancels in the demodulated integral."""

    amplitude_delta: float = 0.6

    def __post_init__(self):
        if self.amplitude_delta <= 0:
            raise ValueError("amplitude_delta must be positive")


@dataclass(frozen=True)
class DelayTrace:
    """Values on a uniform delay grid: real physical current or complex
    lock-in output, tagged by `kind`."""

    delays: np.ndarray
    values: np.ndarray
    kind: str = "physical_current"

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        if self.kind not in ("physical_current", "lockin_complex"):
            raise ValueError(f"unknown trace kind {self.kind!r}")
        v = np.asarray(self.values,
                       dtype=complex if self.kind == "lockin_complex" else float)
        if d.ndim != 1 or d.size < 8 or v.shape != d.shape:
            raise ValueError("delays/values must be 1-D, length >= 8, equal size")
        for name, a in (("delays", d), ("values", v)):
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                raise ValueError(f"{name} must be finite; index {bad[0]} "
                                 f"is {a[bad[0]]}")
        steps = np.diff(d)
        mean = (d[-1] - d[0]) / (d.size - 1)
        if mean <= 0 or np.any(steps <= 0):
            raise ValueError("delays must be strictly increasing")
        if np.max(np.abs(steps - mean)) > 1e-12 * max(abs(d[0]), abs(d[-1]), mean):
            raise ValueError("delay spacing is not uniform")
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "values", v)

    @property
    def spacing(self) -> float:
        return float((self.delays[-1] - self.delays[0]) / (self.delays.size - 1))


def _spline_coefficients(x, y):
    """Coefficients c[k, i] of (t - x[i])**(3-k) on interval i of the
    not-a-knot cubic spline through (x, y), n >= 4.

    The knot slopes solve CubicSpline's tridiagonal system, not-a-knot end
    rows included, in one banded solve; the coefficients follow
    CubicHermiteSpline. Every expression keeps scipy's operation order.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the sub-, main and super-diagonal and right-hand side that
    # solve_banded((1, 1), ...) hands to LAPACK's dgtsv
    lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    b = np.empty(n, dtype=y.dtype)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    b[0] = ((dx[0] + 2*d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    b[-1] = (dx[-1]**2 * slope[-2] + (2*d + dx[-1]) * dx[-2] * slope[-1]) / d
    s, info = dgtsv(lower, diag, upper, b[:, None], 1, 1, 1, 1)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    s = s[:, 0]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _spline_eval(x, c, t):
    """The piecewise cubic (x, c) at times t, evaluated as PPoly does:
    interval i with x[i] <= t < x[i+1] (the ends extend the outer
    intervals), then c3 + c2 u + c1 u^2 + c0 u^3 summed in that order.
    """
    i = np.searchsorted(x, t, side="right") - 1
    np.clip(i, 0, x.size - 2, out=i)
    u = t - x[i]
    u2 = u * u
    out = c[3, i] + c[2, i] * u
    out += c[1, i] * u2
    u2 *= u
    out += c[0, i] * u2
    return out


def forward_lockin(trace: DelayTrace, mod: ModulationSpec) -> DelayTrace:
    """Demodulated lock-in signal of a physical current trace.

    Gauss-Legendre quadrature (order 64) over the modulation phase, with
    the trace interpolated between samples by its not-a-knot cubic spline
    (CubicSpline's arithmetic, computed in this module); the output delays
    are the input delays at least delta inside either end. The trace is
    finite by construction: DelayTrace refuses NaN and inf.
    """
    if trace.kind != "physical_current":
        raise ValueError("forward_lockin expects a physical_current trace")
    delta = mod.amplitude_delta
    lo, hi = trace.delays[0] + delta, trace.delays[-1] - delta
    sel = (trace.delays >= lo - 1e-12) & (trace.delays <= hi + 1e-12)
    out_delays = trace.delays[sel]
    if out_delays.size < 8:
        raise LockinSupportError(
            f"output range needs >= 8 points inside [{lo:.6g}, {hi:.6g}] fs")
    coef = _spline_coefficients(trace.delays, trace.values)
    x = np.pi * _GL_X  # [-1, 1] nodes mapped to the modulation phase [-pi, pi]
    w = np.pi * _GL_W
    shift = delta * np.sin(x)[None, :]
    # the quadrature stays one product over the whole array: splitting it
    # changes its rounding
    vals = np.empty((out_delays.size, x.size), dtype=complex)
    for rows in range(0, out_delays.size, _SPLINE_ROWS):
        block = slice(rows, rows + _SPLINE_ROWS)
        vals[block] = _spline_eval(trace.delays, coef,
                                   out_delays[block, None] + shift)
    vals *= np.exp(-1j * x)[None, :]
    out = (vals @ w) / (2.0 * np.pi)
    return DelayTrace(out_delays, out, kind="lockin_complex")


def regularized_transfer(omega, delta: float, beta: float) -> np.ndarray:
    """Safe divisors J1^(beta)(delta*omega): J1 where |J1| > beta,
    sign(J1)*beta where 0 < |J1| <= beta, and +inf at exact zeros of J1
    (so the divided contribution vanishes)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    from scipy.special import j1  # here: TDSE runs need no scipy.special
    j = np.atleast_1d(j1(np.asarray(omega, dtype=float) * delta))
    out = np.where(np.abs(j) > beta, j, np.sign(j) * beta)
    out[j == 0.0] = np.inf
    return out


def _extend_even(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, values[::-1]])


def reconstruct(lockin: DelayTrace, mod: ModulationSpec,
                beta: float = DEFAULT_BETA) -> DelayTrace:
    """Laser-induced current from its lock-in trace via spectral division.

    The trace is extended by even reflection to suppress wrap-around
    leakage; the result is reported on the interior 80% of the grid and has
    exactly zero mean (the absolute current offset is unrecoverable).
    """
    if lockin.kind != "lockin_complex":
        raise ValueError("reconstruct expects a lockin_complex trace")
    if not 0.0 < beta < J1_MAX:
        raise ValueError(f"beta must lie in (0, {J1_MAX:.4f}), got {beta}")
    ext = _extend_even(lockin.values)
    spec = np.fft.fft(ext)
    omega = 2.0 * np.pi * np.fft.fftfreq(ext.size, d=lockin.spacing)
    divisor = regularized_transfer(omega, mod.amplitude_delta, beta)
    rec = np.fft.ifft(spec / divisor).real[:lockin.values.size]
    margin = lockin.values.size // 10
    sl = slice(margin, lockin.values.size - margin)
    rec = rec[sl] - np.mean(rec[sl])
    return DelayTrace(lockin.delays[sl], rec, kind="physical_current")


def select_beta(lockin: DelayTrace, mod: ModulationSpec,
                noise_estimate: float) -> float:
    """Smallest regularization cutoff of BETA_GRID that keeps the amplified
    noise below a fixed fraction of the signal energy.

    The spectral division amplifies white noise of per-sample deviation
    sigma by 1/max(|J1(delta*omega)|, beta) in each bin; beta grows until
    sigma^2 * mean(amplification^2) <= _NOISE_FRACTION^2 * signal energy.
    With noise_estimate = 0 the scan is skipped and the documented default
    0.02 is returned.
    """
    if noise_estimate < 0:
        raise ValueError("noise_estimate must be non-negative")
    if noise_estimate == 0.0:
        return DEFAULT_BETA
    omega = 2.0 * np.pi * np.fft.fftfreq(2 * lockin.values.size,
                                         d=lockin.spacing)
    from scipy.special import j1  # here: TDSE runs need no scipy.special
    absj = np.abs(j1(omega * mod.amplitude_delta))
    signal_energy = max(float(np.mean(np.abs(lockin.values) ** 2))
                        - noise_estimate**2, 0.0)
    cap = _NOISE_FRACTION**2 * signal_energy
    for beta in BETA_GRID:
        gain2 = float(np.mean(1.0 / np.maximum(absj, beta) ** 2))
        if noise_estimate**2 * gain2 <= cap:
            return float(beta)
    return float(BETA_GRID[-1])
