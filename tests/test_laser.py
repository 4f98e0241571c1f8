import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attostm.config import LaserConfig
from attostm.laser import (ONSET_LEVEL, effective_keldysh, electric_field,
                           field_crest_time, find_field_crests, pulse_onset,
                           vector_potential)
from attostm.units import C_NMFS, EMASS


def test_vector_potential_zero_at_origin(laser):
    assert vector_potential(laser, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_single_colour_has_no_sh_term():
    las = LaserConfig(field_F1=8.0, ratio_eta=0.0)
    t = np.linspace(-30, 30, 500)
    w = las.omega
    expected = (8.0 / w) * np.exp(-4 * np.log(2) * t**2 / 35.0**2) * np.sin(w * t)
    assert np.allclose(vector_potential(las, t), expected, atol=1e-14)


def test_envelope_decay(laser):
    peak = np.max(np.abs(vector_potential(laser, np.linspace(-30, 30, 4000))))
    tail = 5.0 * max(laser.duration_tau1, laser.duration_tau2)
    for t in (tail, -tail, 1.5 * tail):
        assert abs(vector_potential(laser, t)) < 1e-12 * peak


def test_field_at_crest_magnitude(laser):
    # envelope derivatives vanish at the joint centre: |E(0)| = F1 (1 + eta)
    expect = laser.field_F1 * (1.0 + laser.ratio_eta)
    assert abs(electric_field(laser, 0.0)) == pytest.approx(expect, rel=1e-3)
    single = LaserConfig(field_F1=8.0, ratio_eta=0.0)
    assert abs(electric_field(single, 0.0)) == pytest.approx(8.0, rel=1e-3)


def test_field_matches_finite_difference(laser, rng):
    t = rng.uniform(-60, 60, 100)
    h = 1e-5
    fd = -(vector_potential(laser, t + h) - vector_potential(laser, t - h)) / (2 * h)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(electric_field(laser, t) - fd)) < 1e-6 * scale


def test_field_negation(laser):
    t = np.linspace(-40, 40, 321)
    flipped = laser.flipped()
    assert np.allclose(electric_field(flipped, t), -electric_field(laser, t))
    assert np.allclose(vector_potential(flipped, t), -vector_potential(laser, t))


def test_keldysh_reference_value():
    las = LaserConfig(field_F1=8.0)
    # direct evaluation with physical constants at |E0|_eff = 5.1 eV
    gamma = effective_keldysh(las, 5.1)
    by_hand = las.omega * np.sqrt(2 * EMASS * 5.1) / (8.0 * (1 + las.ratio_eta))
    assert gamma == pytest.approx(by_hand, rel=1e-12)
    assert gamma == pytest.approx(0.73, abs=0.01)


def test_keldysh_standard_limit():
    las = LaserConfig(field_F1=8.0, ratio_eta=0.0)
    expect = las.omega * np.sqrt(2 * EMASS * 5.1) / 8.0
    assert effective_keldysh(las, 5.1) == pytest.approx(expect, rel=1e-12)


def test_keldysh_field_scaling():
    g1 = effective_keldysh(LaserConfig(field_F1=4.0), 5.1)
    g2 = effective_keldysh(LaserConfig(field_F1=8.0), 5.1)
    assert g1 == pytest.approx(2.0 * g2, rel=1e-12)


def test_keldysh_rejects_zero_field():
    with pytest.raises(ValueError):
        effective_keldysh(LaserConfig(field_F1=0.0), 5.1)
    with pytest.raises(ValueError):
        effective_keldysh(LaserConfig(field_F1=8.0), -1.0)


@settings(max_examples=40, deadline=None)
@given(f1=st.floats(0.5, 30.0), eta=st.floats(0.0, 1.0),
       binding=st.floats(0.1, 12.0))
def test_keldysh_monotone_in_field_and_eta(f1, eta, binding):
    las = LaserConfig(field_F1=f1, ratio_eta=eta)
    g = effective_keldysh(las, binding)
    stronger = effective_keldysh(LaserConfig(field_F1=f1 * 1.3, ratio_eta=eta),
                                 binding)
    assert stronger < g
    if eta < 0.95:
        more_sh = effective_keldysh(LaserConfig(field_F1=f1,
                                                ratio_eta=min(eta + 0.05, 1.0)),
                                    binding)
        assert more_sh < g


def test_sh_period(laser):
    assert laser.sh_period == pytest.approx(1850.0 / (2 * C_NMFS), rel=1e-12)


def test_crest_at_zero_for_default_phase(laser):
    assert abs(field_crest_time(laser)) < 1e-3


def test_crests_spacing_and_threshold(laser):
    crests = np.sort(find_field_crests(laser, threshold=0.2))
    assert crests.size > 3
    period = 2 * np.pi / laser.omega
    # near the envelope centre the fundamental dominates: one crest/cycle
    # (the SH-dominated wings legitimately carry half-period crests)
    central = crests[np.abs(crests) < laser.duration_tau1 / 2]
    spacing = np.diff(central)
    assert np.all(np.abs(spacing - period) < 0.05 * period)
    e = np.abs(electric_field(laser, crests))
    assert np.all(e >= 0.2 * np.max(e) * 0.99)
    assert np.all(electric_field(laser, crests) < 0)


@pytest.mark.parametrize("las", [
    LaserConfig(),
    LaserConfig(base_delay_tau0=3.0),
    LaserConfig(ratio_eta=0.0),
], ids=["default", "sh_delayed", "eta0"])
def test_pulse_onset(las):
    onset = pulse_onset(las)
    tg = np.linspace(onset - 400.0, onset, 400_001)
    assert np.max(np.abs(electric_field(las, tg))) <= ONSET_LEVEL * las.field_F1
    assert onset > -5.0 * max(las.duration_tau1, las.duration_tau2)


def test_delay_shifts_sh_envelope():
    las = LaserConfig(field_F1=8.0, base_delay_tau0=1.3)
    assert las.sh_center == pytest.approx(1.3, rel=1e-12)
    las2 = LaserConfig(field_F1=8.0, phase_phi=0.7)
    assert las2.sh_center == pytest.approx(0.7 / (2 * las2.omega), rel=1e-12)


def test_laser_validation():
    with pytest.raises(ValueError):
        LaserConfig(field_F1=-1.0)
    with pytest.raises(ValueError):
        LaserConfig(ratio_eta=1.5)
    with pytest.raises(ValueError):
        LaserConfig(wavelength=-5.0)
    with pytest.raises(ValueError):
        LaserConfig(field_sign=2)
