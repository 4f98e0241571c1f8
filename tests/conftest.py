import numpy as np
import pytest

from attostm.config import JunctionConfig, LaserConfig


@pytest.fixture
def junction():
    return JunctionConfig()


@pytest.fixture
def laser():
    return LaserConfig(field_F1=8.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
