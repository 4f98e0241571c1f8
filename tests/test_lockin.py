import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import j1

from attostm.cli import build_laser, load_config
from attostm.lockin import (_GL_W, _GL_X, BETA_GRID, DEFAULT_BETA, J1_MAX,
                            DelayTrace, LockinSupportError, ModulationSpec,
                            _spline_coefficients, _spline_eval,
                            forward_lockin, reconstruct, regularized_transfer,
                            select_beta)

MOD = ModulationSpec(amplitude_delta=0.6)


def dense_grid(span=20.0, n=2048):
    return np.linspace(-span, span, n)


def test_modulation_validation():
    with pytest.raises(ValueError):
        ModulationSpec(amplitude_delta=0.0)


def test_trace_validation():
    tau = dense_grid(n=64)
    with pytest.raises(ValueError):
        DelayTrace(tau[:4], np.zeros(4))
    with pytest.raises(ValueError):
        DelayTrace(tau, np.zeros(tau.size), kind="bogus")
    bad = tau.copy()
    bad[7] += 1e-3
    with pytest.raises(ValueError):
        DelayTrace(bad, np.zeros(bad.size))


@pytest.mark.parametrize("kind", ["physical_current", "lockin_complex"])
@pytest.mark.parametrize("column", ["delays", "values"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_refuses_non_finite(kind, column, bad):
    arrays = {"delays": dense_grid(n=64), "values": np.ones(64)}
    arrays[column][37] = bad
    with pytest.raises(ValueError, match=f"{column} must be finite; index 37"):
        DelayTrace(arrays["delays"], arrays["values"], kind=kind)


def test_trace_refuses_complex_nan_part():
    values = np.ones(64, dtype=complex)
    values[5] = complex(1.0, np.nan)
    with pytest.raises(ValueError, match="index 5"):
        DelayTrace(dense_grid(n=64), values, kind="lockin_complex")


@pytest.mark.parametrize("n", [8, 9, 10, 57, 1000, 3000])
def test_spline_equals_cubicspline_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        x = DelayTrace(rng.uniform(-30, 30) + rng.uniform(1e-3, 1.0)
                       * np.arange(n), np.zeros(n)).delays
        y = rng.normal(size=n) * 10 ** rng.uniform(-3, 3)
        t = np.concatenate([x, x[[0, -1]], rng.uniform(x[0], x[-1], 4000)])
        ref = CubicSpline(x, y)
        c = _spline_coefficients(x, y)
        assert np.array_equal(c, ref.c)
        assert np.array_equal(_spline_eval(x, c, t), ref(t))


def cubicspline_forward(trace, mod):
    """The forward model with scipy's CubicSpline, on the default output
    delays."""
    delta = mod.amplitude_delta
    sel = ((trace.delays >= trace.delays[0] + delta - 1e-12)
           & (trace.delays <= trace.delays[-1] - delta + 1e-12))
    x = np.pi * _GL_X
    shifted = trace.delays[sel][:, None] + delta * np.sin(x)[None, :]
    vals = CubicSpline(trace.delays, trace.values)(shifted) \
        * np.exp(-1j * x)[None, :]
    return trace.delays[sel], (vals @ (np.pi * _GL_W)) / (2.0 * np.pi)


def benchmark_trace(seed):
    """The seeded noisy lock-in input of the benchmark's lock-in round
    trip: 2 001 delays over +-20 fs, an SH-periodic current under an 8 fs
    Gaussian envelope, noise 0.01 (the first draw sets a strong-field
    delay offset there)."""
    period = build_laser(load_config("fig4bc")).sh_period
    rng = np.random.default_rng(seed)
    rng.uniform(0.0, period / 8)
    tau = np.linspace(-20.0, 20.0, 2001)
    clean = np.cos(2.0 * np.pi * tau / period) * np.exp(-tau**2 / 128.0)
    return DelayTrace(tau, clean + rng.normal(0.0, 0.01, tau.size))


@pytest.mark.parametrize("seed", [0, 1])
def test_forward_equals_cubicspline_reference(seed):
    trace = benchmark_trace(seed)
    out = forward_lockin(trace, MOD)
    delays, values = cubicspline_forward(trace, MOD)
    assert np.array_equal(out.delays, delays)
    assert np.array_equal(out.values, values)


def test_forward_traced_peak_is_bounded():
    # the spline values go row block by row block into one (delays x 64)
    # complex array of 2 MB; gathering all coefficients at once took 6.7 MiB
    trace = benchmark_trace(0)
    forward_lockin(trace, MOD)
    tracemalloc.start()
    try:
        forward_lockin(trace, MOD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


def test_forward_constant_vanishes():
    tau = dense_grid()
    out = forward_lockin(DelayTrace(tau, np.full(tau.size, 2.9)), MOD)
    assert np.max(np.abs(out.values)) < 1e-10


def test_forward_linear():
    tau = dense_grid()
    a = 1.3
    out = forward_lockin(DelayTrace(tau, a * tau), MOD)
    expect = -1j * a * MOD.amplitude_delta / 2.0
    assert np.max(np.abs(out.values - expect)) < 1e-8


def test_forward_pure_tone_jacobi_anger():
    tau = dense_grid()
    w0 = 1.7
    out = forward_lockin(DelayTrace(tau, np.cos(w0 * tau)), MOD)
    expect = 1j * j1(MOD.amplitude_delta * w0) * np.sin(w0 * out.delays)
    assert np.max(np.abs(out.values - expect)) < 1e-8


def test_transfer_magnitude_envelope():
    # pure-tone output magnitude envelope equals |J1(delta w0)|: check the
    # ratio to sin(w0 tau) where the carrier is well away from its zeros
    tau = dense_grid()
    for w0 in (0.8, 1.7, 2.6):
        out = forward_lockin(DelayTrace(tau, np.cos(w0 * tau)), MOD)
        carrier = np.sin(w0 * out.delays)
        sel = np.abs(carrier) > 0.3
        env = np.abs(out.values[sel] / carrier[sel])
        assert np.max(np.abs(env - abs(j1(MOD.amplitude_delta * w0)))) \
            < 1e-6


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_forward_linearity(a, b):
    tau = np.linspace(-15, 15, 256)
    i1 = np.cos(1.4 * tau)
    i2 = np.sin(2.2 * tau + 0.3)
    lhs = forward_lockin(DelayTrace(tau, a * i1 + b * i2), MOD).values
    rhs = (a * forward_lockin(DelayTrace(tau, i1), MOD).values
           + b * forward_lockin(DelayTrace(tau, i2), MOD).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_forward_support_errors():
    # 12 delays 0.2 fs apart: 6 lie at least delta = 0.6 fs inside the ends
    tau = np.arange(12) * 0.2
    trace = DelayTrace(tau, np.cos(tau))
    with pytest.raises(LockinSupportError, match="needs >= 8 points"):
        forward_lockin(trace, MOD)


def test_bessel_j1_basics():
    assert j1(0.0) == 0.0
    x = np.linspace(-8, 8, 101)
    assert np.array_equal(j1(-x), -j1(x))


def oracle_j1_series(x, terms=60):
    # independent power series J1(x) = sum_m (-1)^m (x/2)^(2m+1)/(m!(m+1)!)
    import math
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * (x / 2.0) ** (2 * m + 1) / (
            math.factorial(m) * math.factorial(m + 1))
    return total


def test_bessel_first_zero_against_series_oracle():
    lo, hi = 3.0, 4.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if oracle_j1_series(lo) * oracle_j1_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(3.8317, abs=1e-4)
    assert j1(zero) == pytest.approx(0.0, abs=1e-6)
    assert abs(j1(3.8317059702075125)) < 1e-12


def test_bessel_matches_series():
    x = np.linspace(-10, 10, 41)
    ref = np.array([oracle_j1_series(v) for v in x])
    assert np.max(np.abs(j1(x) - ref)) < 1e-12


def test_regularized_transfer_branches():
    beta = 0.1
    omega = np.array([0.5, 1.0, 3.7]) / 0.6  # J1 args 0.5, 1.0, 3.7
    out = regularized_transfer(omega, 0.6, beta)
    j = j1(np.array([0.5, 1.0, 3.7]))
    assert out[0] == pytest.approx(j[0])          # |J1| > beta: unchanged
    assert out[2] == pytest.approx(np.sign(j[2]) * beta)  # small: clamped
    assert regularized_transfer(np.array([0.0]), 0.6, beta)[0] == np.inf
    # division by the infinite divisor yields exactly zero
    assert (np.complex128(1 + 2j)
            / regularized_transfer(np.array([0.0]), 0.6, beta))[0] == 0.0
    with pytest.raises(ValueError):
        regularized_transfer(omega, 0.6, 0.0)


def envelope_signal(tau, seed=0):
    rng = np.random.default_rng(seed)
    sig = np.zeros(tau.size)
    for k, amp in ((1.7, 0.5), (2.04, 1.0), (2.4, 0.4)):
        sig += amp * np.cos(k * tau + rng.uniform(0, 2 * np.pi))
    return sig * np.exp(-(tau**2) / (2 * 6.0**2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_reconstruction(seed):
    tau = np.linspace(-20, 20, 512)
    sig = envelope_signal(tau, seed)
    lk = forward_lockin(DelayTrace(tau, sig), MOD)
    rec = reconstruct(lk, MOD, DEFAULT_BETA)
    ref = np.interp(rec.delays, tau, sig)
    ref -= ref.mean()
    err = np.linalg.norm(rec.values - ref) / np.linalg.norm(ref)
    assert err < 0.05


def test_reconstruct_zero_trace_and_mean():
    tau = dense_grid(n=256)
    zero = DelayTrace(tau, np.zeros(tau.size, complex), kind="lockin_complex")
    rec = reconstruct(zero, MOD)
    assert np.all(rec.values == 0.0)
    lk = forward_lockin(DelayTrace(tau, envelope_signal(tau)), MOD)
    rec = reconstruct(lk, MOD)
    # zero up to one rounding of the final subtraction
    assert abs(np.mean(rec.values)) <= 1e-15 * np.max(np.abs(rec.values))


def test_reconstruct_beta_range():
    tau = dense_grid(n=256)
    lk = forward_lockin(DelayTrace(tau, envelope_signal(tau)), MOD)
    for bad in (-0.1, 0.0, J1_MAX, 1.0):
        with pytest.raises(ValueError):
            reconstruct(lk, MOD, bad)


def test_round_trip_error_grows_near_j1_zero():
    # single tones at decreasing distance from the first J1 zero
    mod = ModulationSpec(amplitude_delta=1.2)
    zero_w = 3.8317 / 1.2
    tau = np.linspace(-30, 30, 1024)
    errs = []
    for frac in (0.80, 0.90, 0.95):
        w0 = zero_w * frac
        sig = np.cos(w0 * tau) * np.exp(-(tau**2) / (2 * 8.0**2))
        lk = forward_lockin(DelayTrace(tau, sig), mod)
        rec = reconstruct(lk, mod, 0.02)
        ref = np.interp(rec.delays, tau, sig)
        ref -= ref.mean()
        errs.append(np.linalg.norm(rec.values - ref) / np.linalg.norm(ref))
    assert errs[0] < errs[1] < errs[2]


def test_phase_jumps_180_degrees():
    tau = dense_grid()
    w0 = 2.04
    lk = forward_lockin(DelayTrace(tau, np.cos(w0 * tau)), MOD)
    # sample the lock-in phase at the centres of successive half-periods
    centers = np.arange(-15.0, 15.0, np.pi / w0) + np.pi / (2 * w0)
    phases = []
    for c in centers:
        i = np.argmin(np.abs(lk.delays - c))
        if abs(lk.values[i]) > 0.1 * np.max(np.abs(lk.values)):
            phases.append(np.degrees(np.angle(lk.values[i])))
    jumps = np.abs(np.diff(phases))
    jumps = np.minimum(jumps, 360.0 - jumps)
    assert len(jumps) >= 8
    assert np.max(np.abs(jumps - 180.0)) <= 2.0


def test_select_beta_defaults_and_clean_input():
    tau = dense_grid(n=256)
    lk = forward_lockin(DelayTrace(tau, envelope_signal(tau)), MOD)
    assert select_beta(lk, MOD, 0.0) == DEFAULT_BETA
    assert select_beta(lk, MOD, 1e-9) == BETA_GRID[0]
    with pytest.raises(ValueError):
        select_beta(lk, MOD, -1.0)


def test_select_beta_monotone_in_noise():
    tau = dense_grid(n=256)
    lk = forward_lockin(DelayTrace(tau, envelope_signal(tau)), MOD)
    rng = np.random.default_rng(11)
    sigmas = (1e-4, 1e-3, 1e-2)
    means = []
    for sigma in sigmas:
        betas = []
        for _ in range(20):
            noise = sigma * (rng.standard_normal(lk.values.size)
                             + 1j * rng.standard_normal(lk.values.size))
            noisy = DelayTrace(lk.delays, lk.values + noise,
                               kind="lockin_complex")
            betas.append(select_beta(noisy, MOD, sigma))
        means.append(np.mean(betas))
    assert means[0] < means[1] < means[2]
    grid = np.geomspace(2e-4, 0.9 * J1_MAX, 30)
    assert all(grid[0] <= b <= grid[-1] for b in means)
