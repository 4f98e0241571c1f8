import numpy as np
import pytest

from attostm.config import JunctionConfig
from attostm.potential import (PotentialProfile, clamp_level, digamma,
                               image_potential, laser_interaction,
                               mean_image_magnitude, sample_static_profile,
                               static_potential)
from attostm.config import LaserConfig
from attostm.units import COULOMB_EVNM, IMAGE_PREFACTOR_EVNM


def test_constants_sane():
    assert abs(COULOMB_EVNM - 1.4400) < 0.001 * 1.4400


def test_tip_interior_level(junction):
    # -(E_F,t + W_t) with the SI parameter set
    assert static_potential(junction, -1.0) == pytest.approx(-10.1, abs=1e-12)


def oracle_image_series(z, d, n_terms=200_000):
    # independent summation: prefactor * [1/2z + sum z^2/(n d ((n d)^2 - z^2))]
    n = np.arange(1, n_terms + 1)
    series = z**2 / (n * d * ((n * d) ** 2 - z**2))
    return -IMAGE_PREFACTOR_EVNM * (1.0 / (2.0 * z) + series.sum())


def test_digamma_equals_scipy_bit_for_bit():
    # scipy.special is the oracle here only: image_potential must not load it
    from scipy.special import digamma as scipy_digamma

    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    x = np.concatenate([
        np.linspace(0.0, 1.0, 1_000_001)[1:-1],
        [0.5, tiny, np.nextafter(tiny, 1.0), np.nextafter(1.0, 0.0),
         1.0 - eps, 1.0 - 2.0 * eps],
        np.geomspace(tiny, 0.5, 20_001),
        1.0 - np.geomspace(eps / 2, 0.5, 20_001),
        np.random.default_rng(5).random(200_000)])
    assert np.array_equal(digamma(x), scipy_digamma(x))


def test_image_midpoint_value():
    # at z = d/2 the bracket sums to 2 ln 2, about -1.00 eV for d = 1 nm
    got = image_potential(0.5, 1.0)
    assert got == pytest.approx(-1.00, abs=0.01)
    assert got == pytest.approx(oracle_image_series(0.5, 1.0), abs=1e-9)


@pytest.mark.parametrize("z", [0.11, 0.3, 0.62, 0.85])
def test_image_against_series_oracle(z):
    assert image_potential(z, 1.0) == pytest.approx(
        oracle_image_series(z, 1.0), abs=1e-9)


def test_image_symmetry(junction):
    z = np.linspace(1e-3, 1.0 - 1e-3, 1000)
    v = static_potential(junction, z)
    v_mirror = static_potential(junction, junction.width_d - z)
    assert np.max(np.abs(v - v_mirror)) < 1e-9


def test_image_midpoint_is_two_ln_two():
    # psi(1/2) = -gamma - 2 ln 2, so V(d/2) = -prefactor * 2 ln 2 / d
    for d in (0.5, 0.7, 1.0, 2.0):
        want = -IMAGE_PREFACTOR_EVNM * 2.0 * np.log(2.0) / d
        assert abs(image_potential(0.5 * d, d) - want) \
            <= 2 * np.spacing(abs(want)), d


# from next to the tip wall to next to the sample wall, as one array
WALL_TO_WALL = np.array([0.01, 0.02, 0.05, 0.11, 0.3, 0.5, 0.62, 0.85, 0.98,
                         0.99])


@pytest.mark.parametrize("d", [0.7, 1.0, 2.0])
def test_image_matches_the_series_with_its_tail(d):
    # 200 000 terms plus the analytic remainder z^2/(2 N^2 d^3) of the
    # bracket, point by point, against one call over the whole gap
    n_terms = 200_000
    z = WALL_TO_WALL * d
    got = image_potential(z, d)
    for zi, gi in zip(z, got):
        want = oracle_image_series(zi, d, n_terms) \
            - IMAGE_PREFACTOR_EVNM * zi**2 / (2.0 * n_terms**2 * d**3)
        assert abs(gi - want) <= 1e-12, zi


def test_image_is_minus_infinity_at_and_past_the_walls():
    d = 0.7
    for z in (-0.3, 0.0, d, 1.5):
        got = image_potential(z, d)
        assert isinstance(got, float) and got == -np.inf
    inside = WALL_TO_WALL * d
    z = np.concatenate([[-0.3, 0.0], inside, [d, 1.5]])
    got = image_potential(z, d)
    assert got.shape == z.shape
    assert np.all(got[[0, 1, -2, -1]] == -np.inf)
    # each point's value does not depend on the others in the call
    assert np.array_equal(got[2:-2], [image_potential(zi, d) for zi in inside])


def test_clamping(junction):
    z = np.linspace(0.0, junction.width_d, 2001)
    v = static_potential(junction, z)
    assert np.all(np.isfinite(v))
    assert np.all(v >= clamp_level(junction) - 1e-12)
    # endpoints sit exactly at the clamp (image diverges there)
    assert v[0] == pytest.approx(clamp_level(junction))


def test_clamp_level_uses_deeper_side():
    cfg = JunctionConfig(bias_Us=0.7)
    assert clamp_level(cfg) == pytest.approx(
        min(cfg.tip_interior_level, cfg.sample_interior_level))


def test_profile_validation(junction):
    grid = np.linspace(-5, 5, 256)
    profile = sample_static_profile(junction, grid)
    with pytest.raises(ValueError):
        PotentialProfile(grid[::-1], profile.values)
    with pytest.raises(ValueError):
        PotentialProfile(grid, np.full(grid.size, np.inf))
    nonuniform = grid.copy()
    nonuniform[10] += 1e-3
    with pytest.raises(ValueError):
        PotentialProfile(nonuniform, profile.values)


def test_contact_potential_derived():
    cfg = JunctionConfig(workfunction_tip=5.5, workfunction_sample=5.0)
    # at zero bias the gap ramp is -e*phi = W_s - W_t, phi = (W_t - W_s)/e
    # with e = -|e|
    assert cfg.gap_ramp_eV == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        JunctionConfig(width_d=0.0)


def test_laser_interaction_branches(junction, laser):
    assert laser_interaction(junction, laser, -0.3, 1.7) == 0.0
    at_d = laser_interaction(junction, laser, junction.width_d, 0.4)
    assert laser_interaction(junction, laser, 2 * junction.width_d, 0.4) \
        == pytest.approx(at_d)
    assert laser_interaction(junction, laser, junction.width_d / 2, 0.4) \
        == pytest.approx(0.5 * at_d)


def test_mean_image_values(junction):
    # representative constant is the midpoint magnitude ~1.0 eV at 1 nm
    assert mean_image_magnitude(junction) == pytest.approx(0.998, abs=0.01)
