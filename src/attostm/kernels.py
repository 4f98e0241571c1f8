"""Crank-Nicolson stepping kernel with an exact closure of the tip block.

One chunk stepper advances the wavefunction: a vectorised right-hand side
and LAPACK's pivoted tridiagonal solve (zgtsv, the routine scipy's
solve_banded hands (1, 1) bands to), handing the state before each step
to a recording callback.

Only the window psi[J-1:] is stepped. Rows 1 ... J-1 form the tip block:
a constant level, no laser term and no absorber, closed by the Dirichlet
end at row 0. There the Crank-Nicolson recursion is diagonal in the sine
basis of the block's tridiagonal matrix, so the block is carried as mode
amplitudes (TipBlock) that couple to row J through one scalar per step.
This is the exact discrete transparent boundary condition of the block
(Arnold, VLSI Design 6, 313 (1998)) in recursive form: the compact system
reproduces the full grid up to rounding, for any tip data. J = 1 is an
empty block: the plain full-grid step, bit for bit.

Inside the kernel the Hamiltonian is in Hartree atomic units (koff =
1/(2 dz_au^2), half_dt = dt_au/2, potentials in hartree); the wavefunction
keeps its 1/sqrt(nm) normalisation, and currents are emitted directly in
1/fs via the precombined jcoef factor.
"""

import numpy as np
from scipy.fft import dst
from scipy.linalg.lapack import zgtsv


# longest slice of the tip block's closure dot: OpenBLAS runs a zdotu over
# more than 10 000 elements on several threads, which makes its rounding
# depend on the thread count and spins every core
DOT_BLOCK = 8192


class SolverError(RuntimeError):
    """Propagation failure (instability, non-finite amplitudes, bad solve)."""


def default_backend_name() -> str:
    """Name of the stepping engine, recorded in run sidecars."""
    return "numpy"


def current(psi, idx, jcoef):
    """Probability current density jcoef * Im(psi* (psi[i+1] - psi[i-1]))
    at the grid indices idx (central difference)."""
    return jcoef * np.imag(np.conj(psi[idx]) * (psi[idx + 1] - psi[idx - 1]))


def _dot_blocks(a, b):
    """Pairs of views of a and b, each at most DOT_BLOCK long, that cover
    them (one pair of empty views when they are empty)."""
    return [(a[i:i + DOT_BLOCK], b[i:i + DOT_BLOCK])
            for i in range(0, max(a.shape[0], 1), DOT_BLOCK)]


class TipBlock:
    """Homogeneous tip rows 1 ... J-1 as Crank-Nicolson sine modes.

    With theta_q = q pi/J, u_q(i) = sqrt(2/J) sin(i theta_q) and
    lambda_q = level + 2 koff (1 - cos theta_q), each step maps the mode
    amplitudes a_q to c_q a_q + beta_q (psi_J^{n+1} + psi_J^n), with
    c_q = (1 - i half_dt lambda_q)/(1 + i half_dt lambda_q) and
    beta_q = i half_dt koff u_q(J-1)/(1 + i half_dt lambda_q); row J-1 is
    then g + ell0 (psi_J^{n+1} + psi_J^n), g = sum_q u_q(J-1) c_q a_q.

    g and ell0 are summed over slices at most DOT_BLOCK long (dot_blocks
    holds views of w and of the in-place updated modes); up to DOT_BLOCK
    modes that is one dot over whole-array views.
    """

    def __init__(self, psi_tip, level, half_dt, koff):
        """psi_tip = psi[1:J]; level is the block's potential (hartree)."""
        cut = psi_tip.shape[0] + 1
        theta = np.pi * np.arange(1, cut) / cut
        lam = level + 2.0 * koff * (1.0 - np.cos(theta))
        den = 1.0 + 1j * half_dt * lam
        u_last = np.sqrt(2.0 / cut) * np.sin((cut - 1) * theta)
        self.cut = cut
        self.c = (1.0 - 1j * half_dt * lam) / den
        self.beta = 1j * half_dt * koff * u_last / den
        self.w = u_last * self.c
        (u0, b0), *rest = _dot_blocks(u_last, self.beta)
        ell0 = u0 @ b0
        for ub, bb in rest:
            ell0 += ub @ bb
        self.ell0 = complex(ell0)
        self.modes = self._dst(np.asarray(psi_tip, dtype=np.complex128))
        self.dot_blocks = _dot_blocks(self.w, self.modes)

    @staticmethod
    def _dst(x):
        # the orthonormal DST-I is its own inverse: grid rows <-> modes
        return dst(x, type=1, norm="ortho") if x.size else x.copy()

    def interior(self):
        """The tip rows psi[1:J] the mode amplitudes describe."""
        return self._dst(self.modes)


def cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, step_off, record,
             tip):
    """Advance psi in place by len(efield) >= 1 steps, calling
    record(psi, step_off + s) before step s; return the relative residual
    of the chunk's last solve.

    Only psi[J-1:] is stepped, J the cut of the TipBlock tip, and the tip
    rows psi[1:J-1] are left stale: tip.interior() gives them. An empty
    block (J = 1) steps the whole grid.
    """
    p = psi[tip.cut - 1:]
    vs = vstat[tip.cut:-1]
    zc = zcoef[tip.cut:-1]
    n = p.shape[0]
    a_off = -1j * half_dt * koff
    off = np.full(n - 3, a_off, dtype=np.complex128)
    ell0 = tip.ell0
    (w0, m0), *w_rest = tip.dot_blocks
    for s in range(efield.shape[0]):
        record(psi, step_off + s)
        v = vs + efield[s] * zc
        am = 1.0 + 1j * half_dt * (2.0 * koff + v)
        r = -a_off * (p[:-2] + p[2:]) + (2.0 - am) * p[1:-1]
        # row J sees row J-1 at the new time through the block's closure
        g = w0 @ m0
        for wb, mb in w_rest:
            g += wb @ mb
        am[0] += a_off * ell0
        r[0] -= a_off * (g + ell0 * p[1])
        x, info = zgtsv(off, am, off, r)[3:]
        if info != 0:
            raise SolverError(f"tridiagonal solve failed at step "
                              f"{step_off + s} (zgtsv info = {info})")
        both = x[0] + p[1]
        tip.modes *= tip.c
        tip.modes += tip.beta * both
        p[0] = g + ell0 * both
        p[1:-1] = x
    res = am * x - r
    res[1:] += a_off * x[:-1]
    res[:-1] += a_off * x[1:]
    denom = np.linalg.norm(r)
    return float(np.linalg.norm(res) / denom) if denom > 0 else 0.0
