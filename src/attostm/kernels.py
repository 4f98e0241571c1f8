"""Crank-Nicolson stepping kernel.

One chunk stepper advances the wavefunction: a vectorised right-hand side
and LAPACK's pivoted tridiagonal solve (zgtsv, the routine scipy's
solve_banded hands (1, 1) bands to), handing the state before each step
to a recording callback.

Inside the kernel the Hamiltonian is in Hartree atomic units (koff =
1/(2 dz_au^2), half_dt = dt_au/2, potentials in hartree); the wavefunction
keeps its 1/sqrt(nm) normalisation, and currents are emitted directly in
1/fs via the precombined jcoef factor.
"""

import numpy as np
from scipy.linalg.lapack import zgtsv


class SolverError(RuntimeError):
    """Propagation failure (instability, non-finite amplitudes, bad solve)."""


def default_backend_name() -> str:
    """Name of the stepping engine, recorded in run sidecars."""
    return "numpy"


def current(psi, idx, jcoef):
    """Probability current density jcoef * Im(psi* (psi[i+1] - psi[i-1]))
    at the grid indices idx (central difference)."""
    return jcoef * np.imag(np.conj(psi[idx]) * (psi[idx + 1] - psi[idx - 1]))


def cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, step_off, record):
    """Advance psi in place by len(efield) >= 1 steps, calling
    record(psi, step_off + s) before step s; return the relative residual
    of the chunk's last solve."""
    n = psi.shape[0]
    a_off = -1j * half_dt * koff
    off = np.full(n - 3, a_off, dtype=np.complex128)
    for s in range(efield.shape[0]):
        record(psi, step_off + s)
        v = vstat[1:-1] + efield[s] * zcoef[1:-1]
        am = 1.0 + 1j * half_dt * (2.0 * koff + v)
        r = -a_off * (psi[:-2] + psi[2:]) + (2.0 - am) * psi[1:-1]
        x, info = zgtsv(off, am, off, r)[3:]
        if info != 0:
            raise SolverError(f"tridiagonal solve failed at step "
                              f"{step_off + s} (zgtsv info = {info})")
        psi[1:-1] = x
    res = am * x - r
    res[1:] += a_off * x[:-1]
    res[:-1] += a_off * x[1:]
    denom = np.linalg.norm(r)
    return float(np.linalg.norm(res) / denom) if denom > 0 else 0.0
