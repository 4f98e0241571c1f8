"""Crank-Nicolson stepping kernel with exact closures of homogeneous blocks.

One chunk stepper advances the wavefunction: a vectorised right-hand side
and LAPACK's pivoted tridiagonal solve (zgtsv, the routine scipy's
solve_banded hands (1, 1) bands to), copying the stepped rows that the
probes and the current map read into a record buffer before each step.

A run of rows with one level and one laser coefficient is a homogeneous
block: there the Crank-Nicolson recursion is diagonal in the sine basis of
the block's tridiagonal matrix, so the block is carried as mode amplitudes
(ModeBlock) that couple to the stepped rows beside it through a few
scalars per step. This is the exact discrete transparent boundary
condition of the block (Arnold, VLSI Design 6, 313 (1998)) in recursive
form, with the block's uniform laser term E_n zcoef as a per-step shift of
every mode level: the compact system reproduces the full grid up to
rounding, for any block data. Rows and modes are exchanged by the
orthonormal DST-I, taken with numpy.fft so that stepping imports no
scipy.fft.

Each block closes the compact system of the stepped rows, the interior
rows outside every block, at the rows beside it, so the system stays
tridiagonal and stays one zgtsv call per step. The kernel treats every
block alike; with none it is the plain full-grid step.

Inside the kernel the Hamiltonian is in Hartree atomic units (koff =
1/(2 dz_au^2), half_dt = dt_au/2, potentials in hartree); the wavefunction
keeps its 1/sqrt(nm) normalisation, and currents are emitted directly in
1/fs via the precombined jcoef factor.
"""

import numpy as np
from scipy.linalg.blas import zaxpy, zdotu
from scipy.linalg.lapack import zgtsv


# longest slice of a block's closure dots and mode updates: OpenBLAS runs
# a zdotu over more than 10 000 elements on several threads, which makes
# its rounding depend on the thread count and spins every core. The step
# loop calls only scipy's BLAS and LAPACK: numpy's @ and np.dot go through
# numpy's own OpenBLAS, whose thread pool is separate from scipy's, and one
# numpy product per batch of diagonals made the forked tall-tip delay scan
# 3-6x slower, that pool spinning in both processes
DOT_BLOCK = 8192

# elements of one batch of Crank-Nicolson diagonals, built for several
# steps at once ahead of them (two complex arrays of 256 kB)
BATCH_ELEMENTS = 1 << 14


class SolverError(RuntimeError):
    """Propagation failure (instability, non-finite amplitudes, bad solve)."""


def default_backend_name() -> str:
    """Name of the stepping engine, recorded in run sidecars."""
    return "numpy"


def current(psi, idx, jcoef):
    """Probability current density jcoef * Im(psi* (psi[i+1] - psi[i-1]))
    at the indices idx of psi's last axis (central difference)."""
    return jcoef * np.imag(np.conj(psi[..., idx])
                           * (psi[..., idx + 1] - psi[..., idx - 1]))


def _blocks(lo, hi):
    """Slices at most DOT_BLOCK long that cover lo ... hi-1 (none when
    empty)."""
    return [slice(i, min(i + DOT_BLOCK, hi)) for i in range(lo, hi, DOT_BLOCK)]


def _dot(pairs):
    """Sum of zdotu(a, b) over the (a, b) view pairs."""
    total = 0j
    for a, b in pairs:
        total += zdotu(a, b)
    return total


class ModeBlock:
    """Rows start ... start+Q-1 of one level and one laser coefficient as
    Crank-Nicolson sine modes that close the stepped rows beside them.

    With theta_q = q pi/(Q+1), u_q(k) = sqrt(2/(Q+1)) sin(k theta_q) and
    lambda_q = level + 2 koff (1 - cos theta_q), step n takes the mode
    amplitudes a_q to c_q a_q + beta_q s_q, where D_q = 1 + i half_dt
    (lambda_q + E_n zcoef), inv_q = 1/D_q, c_q = 2 inv_q - 1 and beta_q =
    k_q inv_q with k_q = i half_dt koff u_q. u_q is u_q at the coupled end
    and s_q the sum of the coupled row's old and new values. A block
    coupled at both ends uses u_q = u_q(1) and the symmetry u_q(Q) =
    (-1)^(q+1) u_q(1): its modes are stored odd q first, and each parity
    part p sees s_p = s_below + sign_p s_above. The block's end rows at the
    new time are then sums over the parts of g_p + ell_p s_p, with g_p =
    sum u_q c_q a_q and ell_p = sum u_q beta_q over part p. The modes are
    kept as b_q = a_q/k_q, so that a step is b_q -> c_q b_q + inv_q s_q.

    A block starting at row 1 is closed by the Dirichlet end below and
    couples to row Q+1 only; any other block couples to rows start-1 and
    start+Q, which are adjacent in the compact system, joined by the
    block's one-step end-to-end Green's function. coupled is the lowest
    row the block couples to.
    With zcoef = 0 the factors are constant and computed once; otherwise
    each step rebuilds them in buffers allocated here. The dots and
    updates run over slices at most DOT_BLOCK long.
    """

    def __init__(self, rows, level, half_dt, koff, *, start=1, zcoef=0.0):
        """rows = psi[start:start+Q]; level (hartree) and zcoef are those
        of every row of the block."""
        size = rows.shape[0]
        q = np.arange(1, size + 1)
        theta = np.pi * q / (size + 1)
        lam = level + 2.0 * koff * (1.0 - np.cos(theta))
        u = np.sqrt(2.0 / (size + 1)) * np.sin(theta)
        if start > 1:
            odd = (size + 1) // 2
            self.order = np.concatenate((q[::2], q[1::2])) - 1
            parts = ((0, odd), (odd, size))
        else:
            u[1::2] *= -1.0  # coupled at row Q
            self.order = q - 1
            parts = ((0, size),)
        self.size, self.start = size, start
        self.coupled = start - 1 if start > 1 else size + 1
        self.a_off = -1j * half_dt * koff
        self.driven = zcoef != 0.0
        u, lam = u[self.order], lam[self.order]
        self.k = 1j * half_dt * koff * u
        w = u * self.k
        rows = np.asarray(rows, dtype=np.complex128)
        self.modes = self._dst(rows)[self.order] / self.k
        self.inv2, self.c = (np.empty(size, dtype=np.complex128)
                             for _ in range(2))
        blocks = [_blocks(lo, hi) for lo, hi in parts]
        self.mode_dots = [[(w[b], self.modes[b]) for b in bs] for bs in blocks]
        self.ell_dots = [[(w[b], self.inv2[b]) for b in bs] for bs in blocks]
        self.updates = [[(self.inv2[b], self.modes[b]) for b in bs]
                        for bs in blocks]
        if self.driven:
            dr = 1.0 - half_dt * np.imag(level)
            self.two_dr = 2.0 / dr
            self.shift = half_dt * zcoef / dr
            self.x0 = -half_dt * np.real(lam) / dr
            self.x, self.t = np.empty(size), np.empty(size)
        else:
            # constant factors: the rounding of |c_q| compounds over a
            # run, so c_q is one complex division (1 - iy)/(1 + iy)
            den = 1.0 + 1j * half_dt * lam
            self.c[:] = (1.0 - 1j * half_dt * lam) / den
            self.inv2[:] = 2.0 / den
            self.ell = [0.5 * _dot(pairs) for pairs in self.ell_dots]

    @staticmethod
    def _dst(x):
        """Orthonormal DST-I of x, its own inverse (grid rows <-> modes):
        the FFT of the odd extension (0, x, 0, -x reversed) of length
        2(Q+1) is -2i times the sine sums at its entries 1 ... Q."""
        size = x.shape[0]
        ext = np.zeros(2 * (size + 1), dtype=np.complex128)
        ext[1:size + 1] = x
        ext[size + 2:] = -x[::-1]
        spec = np.fft.fft(ext)[1:size + 1]
        spec *= 1j / np.sqrt(2.0 * (size + 1))
        return spec

    def _factors(self, e):
        """Rebuild a driven block's inv2 = 2 inv and c for field e in real
        arithmetic; return the ell_p they give.

        D_q = dr + i y_q with the scalar dr = 1 - half_dt Im(level) and y_q
        real, so with x_q = -y_q/dr, 2/D_q = (2/dr)(1 + i x_q)/(1 + x_q^2).
        """
        x, t = self.x, self.t
        np.subtract(self.x0, e * self.shift, out=x)
        np.multiply(x, x, out=t)
        t += 1.0
        np.divide(self.two_dr, t, out=self.inv2.real)
        np.multiply(x, self.inv2.real, out=self.inv2.imag)
        np.subtract(self.inv2, 1.0, out=self.c)
        return [0.5 * _dot(pairs) for pairs in self.ell_dots]

    def closure(self, e, i, am, off, r, mid):
        """Start a step in field e: take b_q to c_q b_q and add the block's
        terms to the compact system's diagonal am, off-diagonal off and
        right-hand side r at row i, the coupled row whose value before the
        step is mid[i], and, coupled at both ends, at row i+1.

        The arithmetic runs on Python scalars, which cost less per
        operation than numpy's."""
        ell = self._factors(e) if self.driven else self.ell
        self.modes *= self.c
        g = [_dot(pairs) for pairs in self.mode_dots]
        a_off = self.a_off
        if self.start == 1:
            (g,), (ell,) = g, ell
            old = mid.item(i)
            am[i] += a_off * ell
            r[i] -= a_off * (g + ell * old)
            self.step = i, g, ell, old
        else:
            # odd and even modes: the end rows are their sum and difference
            (g_odd, g_even), (l_odd, l_even) = g, ell
            g_lo, g_hi = g_odd + g_even, g_odd - g_even
            l_same, l_cross = l_odd + l_even, l_odd - l_even
            below, above = mid.item(i), mid.item(i + 1)
            am[i] += a_off * l_same
            am[i + 1] += a_off * l_same
            off[i] = a_off * l_cross
            r[i] -= a_off * (g_lo + l_same * below + l_cross * above)
            r[i + 1] -= a_off * (g_hi + l_cross * below + l_same * above)
            self.step = i, g_lo, g_hi, l_same, l_cross, below, above

    def couple(self, x, psi):
        """Finish the step from the solved stepped rows x: add inv_q s_p to
        the modes and write the block's end rows into psi."""
        top = self.start + self.size - 1
        if self.start == 1:
            i, g, ell, old = self.step
            sums = (x.item(i) + old,)
            psi[top] = g + ell * sums[0]
        else:
            i, g_lo, g_hi, l_same, l_cross, below, above = self.step
            sb, sa = x.item(i) + below, x.item(i + 1) + above
            sums = (sb + sa, sb - sa)
            psi[self.start] = g_lo + l_same * sb + l_cross * sa
            psi[top] = g_hi + l_cross * sb + l_same * sa
        for pairs, s in zip(self.updates, sums):
            for v, m in pairs:
                zaxpy(v, m, a=0.5 * s)

    def interior(self):
        """The block's rows psi[start:start+Q] the mode amplitudes describe."""
        natural = np.empty_like(self.modes)
        natural[self.order] = self.modes * self.k
        return self._dst(natural)


def cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, step_off, rec, rec_row,
             *blocks):
    """Advance psi in place by len(efield) >= 1 steps, copying the stepped
    rows psi[rec_row : rec_row + rec.shape[1]], which no block splits, into
    rec[s] before step s; return the relative residual of the chunk's last
    solve.

    blocks are ModeBlocks over disjoint runs of interior rows, with a
    stepped row on each side they couple to. The stepped rows, the
    interior rows outside every block, are read from psi at the start of
    the chunk, advanced in one zgtsv call per step and written back at the
    end; each step writes the blocks' end rows. The other block rows are
    left stale: each block's interior() gives them. With no blocks the
    whole grid is stepped.

    The diagonals of the stepped rows are built for up to
    BATCH_ELEMENTS // (stepped rows) steps at a time.
    """
    rows = np.arange(1, psi.shape[0] - 1)
    for b in blocks:
        rows = rows[(rows < b.start) | (rows >= b.start + b.size)]
    n = rows.size
    # each run of adjacent stepped rows, compact rows i ... j-1, sees the
    # grid rows below and above it: a block's end row or a Dirichlet end
    cuts = np.flatnonzero(np.diff(rows) > 1) + 1
    runs = [(i, j, int(rows[i]) - 1, int(rows[j - 1]) + 1)
            for i, j in zip([0, *cuts], [*cuts, n])]
    closures = [(b, int(np.searchsorted(rows, b.coupled))) for b in blocks]
    vs, zc = vstat[rows], zcoef[rows]
    a_off = -1j * half_dt * koff
    # zgtsv takes off-diagonals of at least one element, used or not
    off = np.full(max(n - 1, 1), a_off, dtype=np.complex128)
    nbr, r = (np.empty(n, dtype=np.complex128) for _ in range(2))
    # the stepped rows, as the last solve left them
    mid = psi[rows]
    first = int(np.searchsorted(rows, rec_row))
    recorded = slice(first, first + rec.shape[1])
    batch = max(1, BATCH_ELEMENTS // n)
    fields = efield.tolist()
    for s, e in enumerate(fields):
        k = s % batch
        if k == 0:
            es = efield[s:s + batch, None]
            ams = 1.0 + 1j * half_dt * (2.0 * koff + (vs + es * zc))
            rest = 2.0 - ams
        rec[s] = mid[recorded]
        am = ams[k]
        np.add(mid[:-2], mid[2:], out=nbr[1:-1])
        for i, j, below, above in runs:
            # the first and last row of each run see the rows beside it
            if j - i == 1:
                nbr[i] = psi[below] + psi[above]
            else:
                nbr[i] = psi[below] + mid[i + 1]
                nbr[j - 1] = mid[j - 2] + psi[above]
        np.multiply(rest[k], mid, out=r)
        nbr *= -a_off
        r += nbr
        for b, i in closures:
            b.closure(e, i, am, off, r, mid)
        x, info = zgtsv(off, am, off, r)[3:]
        if info != 0:
            raise SolverError(f"tridiagonal solve failed at step "
                              f"{step_off + s} (zgtsv info = {info})")
        for b in blocks:
            b.couple(x, psi)
        mid = x
    psi[rows] = mid
    res = am * x - r
    res[1:] += off[:n - 1] * x[:-1]
    res[:-1] += off[:n - 1] * x[1:]
    denom = np.linalg.norm(r)
    return float(np.linalg.norm(res) / denom) if denom > 0 else 0.0
