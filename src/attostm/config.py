"""Junction geometry and two-colour pulse configuration."""

from dataclasses import dataclass, replace

import numpy as np

from .units import wavelength_to_omega


@dataclass(frozen=True)
class JunctionConfig:
    """1-D metal-vacuum-metal junction.

    Energies in eV, lengths in nm, bias in V. The tip occupies z < 0, the
    sample z > width_d. The contact potential is always derived from the
    workfunctions and cannot be set independently.
    """

    width_d: float = 1.0
    workfunction_tip: float = 5.1
    workfunction_sample: float = 5.1
    fermi_tip: float = 5.0
    fermi_sample: float = 5.0
    bias_Us: float = 0.0

    def __post_init__(self):
        if self.width_d <= 0:
            raise ValueError("width_d must be positive")
        for name in ("workfunction_tip", "workfunction_sample",
                     "fermi_tip", "fermi_sample"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def tip_interior_level(self) -> float:
        """Potential energy of the tip interior relative to tip vacuum (eV)."""
        return -(self.fermi_tip + self.workfunction_tip)

    @property
    def sample_interior_level(self) -> float:
        """Potential energy of the sample interior (eV), bias included."""
        # -(E_Fs + W_s + e*phi + e*U_s) with e = -|e|:
        # e*phi = W_t - W_s, e*U_s = -U_s in eV for U_s in volts.
        return -(self.fermi_sample + self.workfunction_tip) + self.bias_Us

    @property
    def gap_ramp_eV(self) -> float:
        """Electrostatic energy drop across the gap, -e*(phi + U_s) in eV."""
        return (self.workfunction_sample - self.workfunction_tip) + self.bias_Us


@dataclass(frozen=True)
class LaserConfig:
    """Two-colour pulse: fundamental plus second harmonic (SH).

    Field strengths are the enhanced near-fields in V/nm. Durations are
    FWHM in fs of the field envelope exp(-4 ln2 t^2/tau^2), not of the
    intensity: the intensity FWHM is tau/sqrt(2). base_delay_tau0 shifts
    the SH pulse (envelope and carrier) as a delay stage would, so the SH
    carrier phase is 2*omega*tau0. field_sign = -1 negates the full
    waveform, modelling the polarisation flip of the near field.
    """

    field_F1: float = 8.0
    ratio_eta: float = float(np.sqrt(0.1))
    wavelength: float = 1850.0
    duration_tau1: float = 35.0
    duration_tau2: float = 80.0
    base_delay_tau0: float = 0.0
    field_sign: int = 1

    def __post_init__(self):
        if self.field_F1 < 0:
            raise ValueError("field_F1 must be non-negative")
        if not 0.0 <= self.ratio_eta <= 1.0:
            raise ValueError("ratio_eta must lie in [0, 1]")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.duration_tau1 <= 0 or self.duration_tau2 <= 0:
            raise ValueError("pulse durations must be positive")
        if self.field_sign not in (-1, 1):
            raise ValueError("field_sign must be +1 or -1")

    @property
    def omega(self) -> float:
        """Angular frequency of the fundamental (rad/fs), never stored."""
        return wavelength_to_omega(self.wavelength)

    @property
    def sh_center(self) -> float:
        """Centre of the SH envelope in fs: the base delay tau0."""
        return self.base_delay_tau0

    @property
    def sh_period(self) -> float:
        """Period of the SH carrier in fs."""
        return np.pi / self.omega

    def flipped(self) -> "LaserConfig":
        """The same pulse with the full waveform negated."""
        return replace(self, field_sign=-self.field_sign)
