"""Physical constants and unit conversions.

Public interfaces of the package work in eV / nm / fs / V·nm^-1 throughout;
the wavefunction propagator converts to Hartree atomic units internally.
Values follow CODATA 2018.
"""

import numpy as np

# SI base values
HBAR_SI = 1.054571817e-34        # J s
ELEMENTARY_CHARGE_SI = 1.602176634e-19  # C (magnitude)
C_SI = 299792458.0               # m / s

# Working units: energies in eV, lengths in nm, times in fs.
# hbar = 0.658 eV fs, electron mass expressed via m c^2 / c^2.
HBAR_EVFS = HBAR_SI / ELEMENTARY_CHARGE_SI * 1e15          # eV fs
C_NMFS = C_SI * 1e-6                                       # nm / fs
ELECTRON_MASS_EV = 510998.94999961642                      # m_e c^2 in eV
EMASS = ELECTRON_MASS_EV / C_NMFS**2                       # eV fs^2 / nm^2
HBAR2_OVER_2M = HBAR_EVFS**2 / (2.0 * EMASS)               # eV nm^2

# Coulomb interaction strength e^2/(4 pi eps0) expressed in eV nm; the image
# potential uses half of it, e^2/(8 pi eps0).
COULOMB_EVNM = 1.4399645478425668
IMAGE_PREFACTOR_EVNM = COULOMB_EVNM / 2.0

# Hartree atomic units used inside the propagator (hbar = m_e = |e| = 1).
HARTREE_EV = 27.211386245988
BOHR_NM = 0.0529177210903
AUTIME_FS = HBAR_EVFS / HARTREE_EV


def wavelength_to_omega(wavelength_nm: float) -> float:
    """Angular frequency (rad/fs) of light with the given vacuum wavelength."""
    return 2.0 * np.pi * C_NMFS / wavelength_nm
