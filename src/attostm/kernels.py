"""Crank-Nicolson stepping kernel.

One chunk stepper advances the wavefunction: a vectorised right-hand side
and LAPACK's pivoted tridiagonal solve (scipy's solve_banded), recording
probe currents and the space-time map as it goes.

Inside the kernel the Hamiltonian is in Hartree atomic units (koff =
1/(2 dz_au^2), half_dt = dt_au/2, potentials in hartree); the wavefunction
keeps its 1/sqrt(nm) normalisation, and probe currents are emitted directly
in 1/fs via the precombined jcoef factor.
"""

import numpy as np
from scipy.linalg import solve_banded


def default_backend_name() -> str:
    """Name of the stepping engine, recorded in run sidecars."""
    return "numpy"


def _record_probes(psi, probe_idx, jcoef, j_out, nglob):
    k = probe_idx
    j_out[:, nglob] = jcoef * np.imag(np.conj(psi[k]) * (psi[k + 1] - psi[k - 1]))


def _record_map(psi, map_i0, map_i1, jcoef, map_out, row):
    seg = slice(map_i0, map_i1)
    lo = slice(map_i0 - 1, map_i1 - 1)
    hi = slice(map_i0 + 1, map_i1 + 1)
    map_out[row, :] = jcoef * np.imag(np.conj(psi[seg]) * (psi[hi] - psi[lo]))


def cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, probe_idx, jcoef,
             j_out, map_every, map_i0, map_i1, map_out, step_off, do_resid):
    """Advance psi in place by len(efield) steps; return the relative
    residual of the chunk's last solve (0.0 unless do_resid)."""
    n = psi.shape[0]
    nsteps = efield.shape[0]
    a_off = -1j * half_dt * koff
    ab = np.empty((3, n - 2), dtype=np.complex128)
    ab[0, :] = a_off
    ab[2, :] = a_off
    resid = 0.0
    for s in range(nsteps):
        nglob = step_off + s
        if probe_idx.size:
            _record_probes(psi, probe_idx, jcoef, j_out, nglob)
        if map_every > 0 and nglob % map_every == 0:
            _record_map(psi, map_i0, map_i1, jcoef, map_out, nglob // map_every)
        v = vstat[1:-1] + efield[s] * zcoef[1:-1]
        am = 1.0 + 1j * half_dt * (2.0 * koff + v)
        r = -a_off * (psi[:-2] + psi[2:]) + (2.0 - am) * psi[1:-1]
        ab[1, :] = am
        x = solve_banded((1, 1), ab, r, check_finite=False)
        if do_resid and s == nsteps - 1:
            res = am * x - r
            res[1:] += a_off * x[:-1]
            res[:-1] += a_off * x[1:]
            denom = np.linalg.norm(r)
            resid = float(np.linalg.norm(res) / denom) if denom > 0 else 0.0
        psi[1:-1] = x
    return resid
