"""Gaussian wavepackets as initial data for propagation tests."""

import numpy as np

from attostm.solver import WaveState


def gaussian_packet(grid, center: float, sigma: float, k0: float,
                    time: float = 0.0) -> WaveState:
    """Normalised Gaussian wavepacket exp(-(z-c)^2/4 sigma^2 + i k0 z)."""
    z = grid.z
    psi = np.exp(-((z - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * z)
    psi[0] = 0.0
    psi[-1] = 0.0
    psi /= np.sqrt(WaveState.norm_squared_of(psi, grid.dz))
    return WaveState(grid, psi, time)
