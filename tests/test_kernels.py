import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import attostm
from attostm.kernels import ModeBlock, SolverError, cn_chunk


# a record buffer with no columns, for up to 8 steps
_NO_RECORD = np.empty((8, 0), dtype=np.complex128)


def _empty_block(half_dt, koff):
    """Tip block with cut J = 1: cn_chunk then steps the whole grid."""
    return ModeBlock(np.empty(0, dtype=np.complex128), 0.0, half_dt, koff)


@pytest.mark.parametrize("n", [0, 1, 2, 97, 10_866])
def test_dst_matches_scipy_and_is_its_own_inverse(n, rng):
    from scipy.fft import dst

    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = ModeBlock._dst(x)
    assert got.shape == x.shape and got.dtype == np.complex128
    if n == 0:
        return
    scale = np.max(np.abs(x))
    want = dst(x, type=1, norm="ortho")
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    assert np.max(np.abs(ModeBlock._dst(got) - x)) <= 1e-14 * scale


def test_cn_chunk_matches_solve_banded_and_dense(rng):
    n = 41
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0[0] = psi0[-1] = 0.0
    vstat = rng.normal(size=n) - 1j * rng.uniform(0.0, 0.5, size=n)
    zcoef = rng.uniform(0.0, 1.0, size=n)
    efield = rng.normal(size=3)
    half_dt, koff = 0.3, 1.7
    psi = psi0.copy()
    rec = np.empty((3, n - 2), dtype=np.complex128)
    cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, 5, rec, 1,
             _empty_block(half_dt, koff))

    a_off = -1j * half_dt * koff
    ab = np.empty((3, n - 2), dtype=np.complex128)
    ab[0, :] = ab[2, :] = a_off
    ref = psi0.copy()
    dense = psi0.copy()
    for s, e in enumerate(efield):
        # the buffer holds each step's input state
        assert np.array_equal(rec[s], ref[1:-1])
        v = vstat[1:-1] + e * zcoef[1:-1]
        am = 1.0 + 1j * half_dt * (2.0 * koff + v)
        r = -a_off * (ref[:-2] + ref[2:]) + (2.0 - am) * ref[1:-1]
        ab[1, :] = am
        ref[1:-1] = solve_banded((1, 1), ab, r, check_finite=False)
        rd = -a_off * (dense[:-2] + dense[2:]) + (2.0 - am) * dense[1:-1]
        mat = (np.diag(am) + np.diag(np.full(n - 3, a_off), 1)
               + np.diag(np.full(n - 3, a_off), -1))
        dense[1:-1] = np.linalg.solve(mat, rd)
    assert np.array_equal(psi, ref)
    assert np.max(np.abs(psi - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_cn_chunk_singular_system_is_solver_error():
    # diagonal equal to the off-diagonal: [[a, a], [a, a]] is singular
    half_dt, koff = 1.0, 0.5
    vstat = np.zeros(4, dtype=np.complex128)
    vstat[1:3] = -1.5 + 1j
    psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128)
    with pytest.raises(SolverError, match="step 0"):
        cn_chunk(psi, vstat, np.zeros(4), np.zeros(2), half_dt, koff, 0,
                 _NO_RECORD, 1, _empty_block(half_dt, koff))


def _dense_step(psi, v, half_dt, koff):
    """One Crank-Nicolson step of the whole grid by a dense solve."""
    n = psi.shape[0]
    a_off = -1j * half_dt * koff
    am = 1.0 + 1j * half_dt * (2.0 * koff + v[1:-1])
    mat = (np.diag(am) + np.diag(np.full(n - 3, a_off), 1)
           + np.diag(np.full(n - 3, a_off), -1))
    r = -a_off * (psi[:-2] + psi[2:]) + (2.0 - am) * psi[1:-1]
    out = psi.copy()
    out[1:-1] = np.linalg.solve(mat, r)
    return out


def test_tip_block_closure_matches_dense_full_system(rng):
    # rows 1 ... cut-1 share one (complex) level and see no field
    n, cut = 41, 15
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0[0] = psi0[-1] = 0.0
    vstat = rng.normal(size=n) - 1j * rng.uniform(0.0, 0.5, size=n)
    vstat[1:cut] = 0.7 - 0.05j
    zcoef = rng.uniform(0.0, 1.0, size=n)
    zcoef[:cut] = 0.0
    efield = rng.normal(size=4)
    half_dt, koff = 0.3, 1.7
    tip = ModeBlock(psi0[1:cut], vstat[1], half_dt, koff)
    assert np.max(np.abs(tip.interior() - psi0[1:cut])) < 1e-14
    psi = psi0.copy()
    # rows cut+2 ... n-3 of the stepped rows cut ... n-2
    rec = np.empty((4, n - 4 - cut), dtype=np.complex128)
    resid = cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, 0, rec,
                     cut + 2, tip)

    dense = psi0.copy()
    for s, e in enumerate(efield):
        # the buffer holds the recorded rows at each step
        assert np.max(np.abs(rec[s] - dense[cut + 2:-2])) < 1e-12
        dense = _dense_step(dense, vstat + e * zcoef, half_dt, koff)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(psi[cut - 1:] - dense[cut - 1:])) < 1e-12 * scale
    assert np.max(np.abs(tip.interior() - dense[1:cut])) < 1e-12 * scale
    # the tip rows below cut-1 are left to the modes
    assert np.array_equal(psi[:cut - 1], psi0[:cut - 1])
    assert resid < 1e-14


def _check_blocks(rng, n, cut, spans, steps=5):
    """cn_chunk with a tip block of rows 1 ... cut-1 (none for cut = 1)
    and a two-sided block of rows p0 ... p1 for each (p0, p1, zc) in
    spans, in ascending order, driven by the laser coefficient zc or
    static for zc = 0, against the dense full system."""
    half_dt, koff = 0.3, 1.7
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0[0] = psi0[-1] = 0.0
    vstat = rng.normal(size=n) + 0j
    vstat[1:cut] = 0.4
    for k, (p0, p1, _) in enumerate(spans):
        vstat[p0:p1 + 1] = -0.2 - 0.1j * k
    # a complex absorber above the last block
    top = spans[-1][1]
    vstat[top + 1:-1] -= 1j * rng.uniform(0.1, 0.8, size=n - top - 2)
    zcoef = rng.uniform(0.0, 1.0, size=n)
    zcoef[:cut] = 0.0
    for p0, p1, zc in spans:
        zcoef[p0:p1 + 1] = zc
    efield = rng.normal(size=steps)
    blocks = [ModeBlock(psi0[1:cut], vstat[1], half_dt, koff)] \
        if cut > 1 else []
    blocks += [ModeBlock(psi0[p0:p1 + 1], vstat[p0], half_dt, koff,
                         start=p0, zcoef=zc) for p0, p1, zc in spans]
    for b in blocks:
        rows = slice(b.start, b.start + b.size)
        assert np.max(np.abs(b.interior() - psi0[rows])) < 1e-14
    psi = psi0.copy()
    # every stepped row below the first two-sided block
    first = spans[0][0]
    rec = np.empty((steps, first - cut), dtype=np.complex128)
    resid = cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, 0, rec, cut,
                     *blocks)

    dense = psi0.copy()
    for s, e in enumerate(efield):
        # the buffer holds the recorded rows at each step
        assert np.max(np.abs(rec[s] - dense[cut:first])) < 1e-12
        dense = _dense_step(dense, vstat + e * zcoef, half_dt, koff)
    scale = np.max(np.abs(dense))
    # the stepped rows and the blocks' end rows, which each step writes
    kept = np.ones(n, dtype=bool)
    for b in blocks:
        kept[b.start:b.start + b.size] = False
        kept[b.start + b.size - 1] = True
        kept[b.start] |= b.start > 1
    assert np.max(np.abs(psi[kept] - dense[kept])) < 1e-12 * scale
    for b in blocks:
        rows = slice(b.start, b.start + b.size)
        assert np.max(np.abs(b.interior() - dense[rows])) < 1e-12 * scale
    assert resid < 1e-14


def test_driven_two_sided_block_matches_dense_full_system(rng):
    # stepped rows 8 ... 12 below the block and 48 ... 59 above it
    _check_blocks(rng, n=61, cut=8, spans=[(13, 47, 0.6)])
    # across a short block the end-to-end coupling is not negligible
    _check_blocks(rng, n=31, cut=8, spans=[(13, 16, 0.6)])
    # one stepped row on each side of the block, the last interior row
    # above it
    _check_blocks(rng, n=61, cut=8, spans=[(9, 58, 0.6)])


def test_any_blocks_match_dense_full_system(rng):
    # no tip block: the stepped rows 1 ... 4 start at the Dirichlet end
    _check_blocks(rng, n=41, cut=1, spans=[(5, 30, 0.6)])
    # a static and a driven block beside the tip, one stepped row between
    # the two
    _check_blocks(rng, n=81, cut=8, spans=[(12, 30, 0.0), (32, 70, 0.6)])


def test_empty_tip_block_is_the_full_grid_step(rng):
    n = 41
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0[0] = psi0[-1] = 0.0
    vstat = rng.normal(size=n) - 1j * rng.uniform(0.0, 0.5, size=n)
    zcoef = rng.uniform(0.0, 1.0, size=n)
    efield = rng.normal(size=3)
    half_dt, koff = 0.3, 1.7
    psi = psi0.copy()
    cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, 0, _NO_RECORD, 1,
             ModeBlock(psi0[1:1], vstat[1], half_dt, koff))

    a_off = -1j * half_dt * koff
    ab = np.empty((3, n - 2), dtype=np.complex128)
    ab[0, :] = ab[2, :] = a_off
    ref = psi0.copy()
    for e in efield:
        v = vstat[1:-1] + e * zcoef[1:-1]
        ab[1, :] = 1.0 + 1j * half_dt * (2.0 * koff + v)
        r = -a_off * (ref[:-2] + ref[2:]) + (2.0 - ab[1]) * ref[1:-1]
        ref[1:-1] = solve_banded((1, 1), ab, r, check_finite=False)
    assert np.array_equal(psi, ref)


_TALL_STEPS = """
import hashlib
from attostm.config import JunctionConfig, LaserConfig
from attostm.grid import GridSpec, bandwidth_steps
from attostm.laser import pulse_onset
from attostm.solver import propagate
from wavepackets import gaussian_packet

dz, dt = bandwidth_steps()
grid = GridSpec(-300.0, 60.0, dz, dt)
laser = LaserConfig(field_F1=8.0)
t0 = pulse_onset(laser)
packet = gaussian_packet(grid, -150.0, 20.0, 5.0, time=t0)
res = propagate(JunctionConfig(), laser, grid, t0, t0 + 20 * dt,
                initial=packet)
print(round((res.tip_cut_nm - grid.z_min) / grid.dz),
      hashlib.sha256(res.final_state.psi.tobytes()).hexdigest())
"""


def test_tall_tip_steps_do_not_depend_on_blas_threads():
    # OpenBLAS spreads a zdotu over more than 10 000 elements across its
    # threads, which changes the rounding; the tall grid's tip block
    # carries more modes than that. The packet stands in for
    # initial_state, whose eigenvector solve depends on the BLAS threads
    # on this grid as well
    src = str(Path(attostm.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", _TALL_STEPS], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout.split())
    assert int(outputs[0][0]) > 10_000
    assert outputs[0] == outputs[1]
