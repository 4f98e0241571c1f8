import numpy as np
import pytest

from attostm.config import JunctionConfig
from attostm.potential import (IMAGE_MAX_TERMS, IMAGE_TERM_TOL,
                               PotentialProfile, clamp_level,
                               clamped_image_average, image_potential,
                               laser_interaction, mean_image_magnitude,
                               sample_static_profile, static_potential)
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


def test_image_series_convergence():
    z = np.linspace(0.05, 0.95, 50)
    base = image_potential(z, 1.0, max_terms=10_000)
    doubled = image_potential(z, 1.0, max_terms=20_000)
    assert np.max(np.abs(base - doubled)) < 1e-10
    tighter = image_potential(z, 1.0, term_tol=1e-15)
    assert np.max(np.abs(base - tighter)) < 1e-10


def looped_image_series(z, d, term_tol=IMAGE_TERM_TOL,
                        max_terms=IMAGE_MAX_TERMS):
    # the series added one n at a time, stopped like image_potential and
    # closed with its tail remainder; 0 < z < d
    z = np.atleast_1d(np.asarray(z, dtype=float))
    total = 1.0 / (2.0 * z)
    z2 = z * z
    n = 1
    for n in range(1, max_terms + 1):
        nd = n * d
        term = z2 / (nd * (nd * nd - z2))
        total = total + term
        if IMAGE_PREFACTOR_EVNM * np.max(term) < term_tol:
            break
    x2 = z2 / (d * d)
    tail = (x2 / d) * ((0.5 / n**2 - 0.5 / n**3 + 0.25 / n**4)
                       + x2 * 0.25 / n**4)
    return -IMAGE_PREFACTOR_EVNM * (total + tail)


GAP = np.linspace(0.01, 0.99, 37)


@pytest.mark.parametrize("z, d, options", [
    (0.5, 1.0, {}),
    (0.35, 0.7, {}),
    (GAP, 1.0, {}),
    (GAP, 1.0, {"max_terms": 20_000}),
    (GAP, 1.0, {"term_tol": 1e-15}),
    (GAP, 1.0, {"max_terms": 100}),
    (0.5, 1.0, {"max_terms": 513}),
    ((np.arange(2048) + 0.5) / 2048, 1.0, {}),
], ids=["midpoint", "midpoint_d07", "gap", "max_terms_20000",
        "term_tol_1e-15", "max_terms_100", "max_terms_513", "dense_gap"])
def test_image_sum_order_is_one_n_after_the_other(z, d, options):
    # mean_image_magnitude's pinned saddle outputs rest on this exact order
    # of additions, so the comparison is bit for bit
    got = image_potential(z, d, **options)
    want = looped_image_series(z, d, **options)
    assert np.array_equal(np.atleast_1d(got), want)


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
    assert profile.dz == pytest.approx(grid[1] - grid[0])
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
    # phi = (W_t - W_s)/e with e = -|e|
    assert cfg.contact_potential_phi == pytest.approx(-0.5)
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
    # representative constant is the midpoint magnitude ~1.0 eV at 1 nm;
    # the literal truncated average is wall-dominated and much larger
    assert mean_image_magnitude(junction) == pytest.approx(0.998, abs=0.01)
    assert clamped_image_average(junction) > 2.0
