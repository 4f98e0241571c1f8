import numpy as np
import pytest
from scipy.linalg import solve_banded

from attostm.kernels import SolverError, cn_chunk

NO_PROBES = np.empty(0, dtype=np.int64)


def _step_only(psi, vstat, zcoef, efield, half_dt, koff):
    cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, NO_PROBES, 0.0,
             np.empty((0, efield.size)), 0, 0, 0, np.empty((0, 0)), 0, False)


def test_cn_chunk_matches_solve_banded_and_dense(rng):
    n = 41
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0[0] = psi0[-1] = 0.0
    vstat = rng.normal(size=n) - 1j * rng.uniform(0.0, 0.5, size=n)
    zcoef = rng.uniform(0.0, 1.0, size=n)
    efield = rng.normal(size=3)
    half_dt, koff = 0.3, 1.7
    psi = psi0.copy()
    _step_only(psi, vstat, zcoef, efield, half_dt, koff)

    a_off = -1j * half_dt * koff
    ab = np.empty((3, n - 2), dtype=np.complex128)
    ab[0, :] = ab[2, :] = a_off
    ref = psi0.copy()
    dense = psi0.copy()
    for e in efield:
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
        _step_only(psi, vstat, np.zeros(4), np.zeros(2), half_dt, koff)
