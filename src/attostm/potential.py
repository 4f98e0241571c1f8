"""Static junction potential: metal levels, Simmons image term (closed
form), laser coupling.

The image term's digamma is computed here with cephes' arithmetic, bit for
bit scipy.special.digamma's on (0, 1), so building a static profile does
not import scipy.special.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import JunctionConfig, LaserConfig
from .laser import electric_field
from .units import IMAGE_PREFACTOR_EVNM

# Boost's rational approximation of psi on [1, 2], as cephes psi uses it:
# psi(x) = g (Y + P(x - 1)/Q(x - 1)), g = x minus the positive root of psi,
# that root split into three doubles and Y a single-precision constant;
# coefficients highest degree first
_PSI_P = (-0.0020713321167745952, -0.045251321448739056,
          -0.28919126444774784, -0.65031853770896507, -0.32555031186804491,
          0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144,
          0.054151797245674225, 0.43593529692665969, 1.4606242909763515,
          2.0767117023730469, 1.0)
_PSI_Y = float(np.float32(0.99558162689208984))
_PSI_ROOT = (1569415565.0 / 1073741824.0,
             (381566830.0 / 1073741824.0) / 1073741824.0,
             0.9016312093258695918615325266959189453125e-19)


def digamma(x):
    """psi(x) for an array 0 < x < 1, bit-identical to scipy.special.digamma.

    The path cephes psi takes there: psi(x) = psi(x + 1) - 1/x, with
    psi on [1, 2] from the rational approximation above, each operation in
    cephes' order.
    """
    y = -1.0 / x
    x = x + 1.0
    g = x - _PSI_ROOT[0]
    g -= _PSI_ROOT[1]
    g -= _PSI_ROOT[2]
    t = x - 1.0
    r = np.polyval(_PSI_P, t) / np.polyval(_PSI_Q, t)  # Horner, as polevl
    return y + (g * _PSI_Y + g * r)


def image_potential(z, width_d: float):
    """Multiple-image-charge potential inside the gap (eV), unclamped.

    The Simmons series, for 0 < z < d,
    -e^2/(8 pi eps0) * [1/(2z) + sum_n z^2/(nd((nd)^2 - z^2))],
    taken in its exact digamma form (DLMF 5.7.6): with x = z/d it is
    e^2/(8 pi eps0) * [psi(x) + psi(1-x) + 2 gamma]/(2d).
    The boundary singularities are returned as -inf and are removed later
    by the well-depth clamp.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    d = float(width_d)
    inside = (z > 0.0) & (z < d)
    out = np.full(z.shape, -np.inf)
    x = z[inside] / d
    out[inside] = IMAGE_PREFACTOR_EVNM * (
        digamma(x) + digamma(1.0 - x) + 2.0 * np.euler_gamma) / (2.0 * d)
    return float(out[0]) if scalar else out


def clamp_level(cfg: JunctionConfig) -> float:
    """Lower bound of the gap potential: the deeper metal interior level."""
    return min(cfg.tip_interior_level, cfg.sample_interior_level)


def static_potential(cfg: JunctionConfig, z):
    """Three-branch static potential V0(z) in eV, image singularities clamped.

    Tip interior for z < 0, image plus electrostatic ramp for 0 <= z <= d
    (clamped from below at the deeper well), sample interior for z > d.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    d = cfg.width_d
    out = np.empty(z.shape)
    out[z < 0.0] = cfg.tip_interior_level
    out[z > d] = cfg.sample_interior_level
    gap = (z >= 0.0) & (z <= d)
    if np.any(gap):
        zg = z[gap]
        v = image_potential(zg, d) + cfg.gap_ramp_eV * zg / d
        out[gap] = np.maximum(v, clamp_level(cfg))
    return float(out[0]) if scalar else out


def laser_interaction(cfg: JunctionConfig, laser: LaserConfig, z, t):
    """Length-gauge laser term -e*E(t)*z (eV): zero in the tip, linear in the
    gap, constant past the sample boundary. E in V/nm, z in nm."""
    zc = np.clip(np.asarray(z, dtype=float), 0.0, cfg.width_d)
    return electric_field(laser, t) * zc


@cache
def mean_image_magnitude(cfg: JunctionConfig) -> float:
    """Representative image-potential magnitude |V_imag(d/2)| (eV).

    The saddle-point model and the effective Keldysh parameter replace
    the image term by one junction-wide constant. The arithmetic average
    of the truncated image is dominated by the deep wells at the walls
    (2.7 eV for a 1 nm gap, with the well-depth clamp) and overstates the
    correction felt along the transport path; the midpoint magnitude
    (1.0 eV for 1 nm) is the scale consistent with the model's regime
    (gamma ~ 0.7 at 8 V/nm, tunnel exit ~ 0.35 nm).

    Cached per (frozen, hashable) junction: the saddle solves read it
    thousands of times per scan.
    """
    return float(abs(image_potential(0.5 * cfg.width_d, cfg.width_d)))


@dataclass(frozen=True)
class PotentialProfile:
    """Potential sampled on a strictly increasing uniform grid (nm, eV)."""

    grid_z: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.grid_z, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if z.ndim != 1 or z.size < 2 or v.shape != z.shape:
            raise ValueError("grid_z and values must be 1-D arrays of equal length")
        steps = np.diff(z)
        mean_step = (z[-1] - z[0]) / (z.size - 1)
        if mean_step <= 0 or np.any(steps <= 0):
            raise ValueError("grid_z must be strictly increasing")
        tol = 1e-12 * max(abs(z[0]), abs(z[-1]), 1.0)
        if np.max(np.abs(steps - mean_step)) > max(tol, 1e-12 * mean_step):
            raise ValueError("grid_z spacing is not uniform")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "grid_z", z)
        object.__setattr__(self, "values", v)


def sample_static_profile(cfg: JunctionConfig, grid_z) -> PotentialProfile:
    return PotentialProfile(np.asarray(grid_z, dtype=float),
                            static_potential(cfg, grid_z))
