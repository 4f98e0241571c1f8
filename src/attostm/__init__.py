"""attostm: attosecond tunnelling currents in a laser-driven STM junction."""

__version__ = "0.1.0"

from .config import JunctionConfig, LaserConfig
from .grid import AbsorberSpec, GridSpec, desk_grid, reference_grid
from .laser import effective_keldysh, electric_field, vector_potential
from .potential import (PotentialProfile, image_potential, laser_interaction,
                        mean_image_magnitude, sample_static_profile,
                        static_potential)
from .solver import (CurrentRecord, MapSpec, WaveState, initial_state,
                     propagate, transferred_charge)

__all__ = [
    "AbsorberSpec", "CurrentRecord", "GridSpec", "JunctionConfig",
    "LaserConfig", "MapSpec", "PotentialProfile", "WaveState", "desk_grid",
    "effective_keldysh", "electric_field", "image_potential",
    "initial_state", "laser_interaction", "mean_image_magnitude",
    "propagate", "reference_grid", "sample_static_profile",
    "static_potential", "transferred_charge", "vector_potential",
    "__version__",
]
