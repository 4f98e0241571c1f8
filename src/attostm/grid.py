"""Spatial/temporal grid for the Crank-Nicolson propagator, with presets."""

from dataclasses import dataclass

import numpy as np

from .units import HBAR_EVFS, HBAR2_OVER_2M

# energy range in eV the steps resolve: dt <= hbar/dE and
# hbar^2 pi^2/(2 m dz^2) >= dE
MAX_BANDWIDTH_EV = 50.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with fixed (Dirichlet) ends and, optionally, an
    absorber on its sample side.

    z in nm, dz in nm, dt in fs. The steps must resolve MAX_BANDWIDTH_EV.
    """

    z_min: float
    z_max: float
    dz: float
    dt: float
    absorber: "AbsorberSpec | None" = None

    def __post_init__(self):
        if self.z_min >= 0.0:
            raise ValueError("z_min must be negative (tip side)")
        if self.z_max <= 0.0:
            raise ValueError("z_max must be positive (sample side)")
        if self.dz <= 0 or self.dt <= 0:
            raise ValueError("dz and dt must be positive")
        if self.dt > HBAR_EVFS / MAX_BANDWIDTH_EV * (1.0 + 1e-12):
            raise ValueError("dt exceeds hbar/max_bandwidth")
        if HBAR2_OVER_2M * np.pi**2 / self.dz**2 < MAX_BANDWIDTH_EV:
            raise ValueError("dz too coarse for max_bandwidth")

    @property
    def n_points(self) -> int:
        return int(round((self.z_max - self.z_min) / self.dz)) + 1

    @property
    def z(self) -> np.ndarray:
        return self.z_min + self.dz * np.arange(self.n_points)


def bandwidth_steps() -> tuple[float, float]:
    """(dz, dt) saturating the bandwidth constraints: dz = hbar/sqrt(2m dE),
    dt = hbar/dE, dE = MAX_BANDWIDTH_EV: 27.6 pm and 13.2 as."""
    dz = np.sqrt(HBAR2_OVER_2M / MAX_BANDWIDTH_EV)
    dt = HBAR_EVFS / MAX_BANDWIDTH_EV
    return float(dz), float(dt)


def reference_grid() -> GridSpec:
    """Paper-scale grid: ends at +-300 nm, no absorber needed."""
    return GridSpec(-300.0, 300.0, *bandwidth_steps())


def desk_grid() -> GridSpec:
    """Desk-scale grid (+-60 nm) for fast iteration; carries DESK_ABSORBER."""
    return GridSpec(-60.0, 60.0, *bandwidth_steps(), absorber=DESK_ABSORBER)


@dataclass(frozen=True)
class AbsorberSpec:
    """Complex absorbing layer -i*W(z), quadratic ramp in the outer fraction
    of the sample side.

    Only the sample side carries a layer: the initial state is a standing
    wave filling the whole tip electrode, so any tip-side absorber would
    drain it. Off for paper-reproduction runs.
    """

    strength_eV: float = 3.0
    fraction: float = 0.2

    def __post_init__(self):
        if self.strength_eV <= 0:
            raise ValueError("absorber strength must be positive")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("absorber fraction must lie in (0, 1)")

    def profile(self, grid: GridSpec) -> np.ndarray:
        """W(z) >= 0 in eV on the grid points."""
        z = grid.z
        w = np.zeros(z.shape)
        z_start = grid.z_max * (1.0 - self.fraction)
        sel = z > z_start
        w[sel] = self.strength_eV * ((z[sel] - z_start) / (grid.z_max - z_start)) ** 2
        return w


DESK_ABSORBER = AbsorberSpec()
