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

Two blocks are closed this way. The tip block, rows 1 ... J-1, is closed
by the Dirichlet end at row 0, sees no laser, and its factors are
precomputed. The sample block, rows P0 ... P1 above the junction window,
sees E_n d on the sample side: its factors are rebuilt every step. It
ends below the last interior row and couples to the stepped rows P0 - 1
and P1 + 1, which are adjacent in the compact system, joined by the
block's one-step end-to-end Green's function, so the system stays
tridiagonal and stays one zgtsv call. Only the rows between the blocks and
above the sample block are stepped. J = 1 and no sample block is the plain
full-grid step, bit for bit.

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
    Crank-Nicolson sine modes.

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
    start+Q. With zcoef = 0 the factors are constant and computed once;
    otherwise each step rebuilds them in buffers allocated here. The dots
    and updates run over slices at most DOT_BLOCK long.
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

    def closure(self, e):
        """Start a step in field e: take b_q to c_q b_q and return
        ([g_p], [ell_p]) over the parts."""
        ell = self._factors(e) if self.driven else self.ell
        self.modes *= self.c
        return [_dot(pairs) for pairs in self.mode_dots], ell

    def couple(self, sums):
        """Finish the step: add inv_q s_p, s_p the neighbour sum of each
        part."""
        for pairs, s in zip(self.updates, sums):
            for x, y in pairs:
                zaxpy(x, y, a=0.5 * s)

    def interior(self):
        """The block's rows psi[start:start+Q] the mode amplitudes describe."""
        natural = np.empty_like(self.modes)
        natural[self.order] = self.modes * self.k
        return self._dst(natural)


def cn_chunk(psi, vstat, zcoef, efield, half_dt, koff, step_off, rec, rec_row,
             tip, sample=None):
    """Advance psi in place by len(efield) >= 1 steps, copying the stepped
    rows psi[rec_row : rec_row + rec.shape[1]], which lie below the sample
    block, into rec[s] before step s; return the relative residual of the
    chunk's last solve.

    tip is the ModeBlock of rows 1 ... J-1 and sample, if given, the
    ModeBlock of rows P0 ... P1 with J < P0 and P1 below the last interior
    row. Only the rows between them and above P1 are stepped, in one zgtsv
    call per step, and written back at the end of the chunk; each step
    writes the blocks' end rows psi[J-1], psi[P0] and psi[P1]. The other
    block rows are left stale: tip.interior() and sample.interior() give
    them. An empty tip block (J = 1) and no sample block step the whole
    grid.

    The diagonals of the stepped rows are built for up to
    BATCH_ELEMENTS // (stepped rows) steps at a time.
    """
    cut = tip.size + 1
    if sample is None:
        windows = [psi[cut - 1:]]
        vs, zc = vstat[cut:-1], zcoef[cut:-1]
    else:
        # each window holds one run of stepped rows and the row on each side
        p0 = sample.start
        p1 = p0 + sample.size - 1
        windows = [psi[cut - 1:p0 + 1], psi[p1:]]
        vs = np.concatenate((vstat[cut:p0], vstat[p1 + 1:-1]))
        zc = np.concatenate((zcoef[cut:p0], zcoef[p1 + 1:-1]))
        lo = p0 - cut - 1  # row P0-1 in the compact system; P1+1 is lo+1
    bounds = np.cumsum([0] + [w.shape[0] - 2 for w in windows])
    segs = [(w, bounds[k], bounds[k + 1]) for k, w in enumerate(windows)]
    n = int(bounds[-1])
    a_off = -1j * half_dt * koff
    # zgtsv takes off-diagonals of at least one element, used or not
    off = np.full(max(n - 1, 1), a_off, dtype=np.complex128)
    nbr, r = (np.empty(n, dtype=np.complex128) for _ in range(2))
    # the stepped rows, as the last solve left them
    mid = np.concatenate([w[1:-1] for w in windows])
    recorded = slice(rec_row - cut, rec_row - cut + rec.shape[1])
    batch = max(1, BATCH_ELEMENTS // n)
    # the tip sees no laser: its closure's ell is one constant, and row J
    # sees row J-1 at the new time through it
    (tip_ell,) = tip.ell
    fields = efield.tolist()
    for s, e in enumerate(fields):
        k = s % batch
        if k == 0:
            es = efield[s:s + batch, None]
            ams = 1.0 + 1j * half_dt * (2.0 * koff + (vs + es * zc))
            rest = 2.0 - ams
            ams[:, 0] += a_off * tip_ell
        rec[s] = mid[recorded]
        am = ams[k]
        # the end rows' arithmetic runs on Python scalars, which cost less
        # per operation than numpy's
        m0 = mid.item(0)
        np.add(mid[:-2], mid[2:], out=nbr[1:-1])
        for w, i, j in segs:
            # the first and last row of each run see the rows beside it
            if j - i == 1:
                nbr[i] = w[0] + w[-1]
            else:
                nbr[i] = w[0] + mid[i + 1]
                nbr[j - 1] = mid[j - 2] + w[-1]
        np.multiply(rest[k], mid, out=r)
        nbr *= -a_off
        r += nbr
        (g,), _ = tip.closure(e)
        r[0] -= a_off * (g + tip_ell * m0)
        if sample is not None:
            # odd and even modes: the end rows are their sum and difference
            (g_odd, g_even), (l_odd, l_even) = sample.closure(e)
            g_lo, g_hi = g_odd + g_even, g_odd - g_even
            l_same, l_cross = l_odd + l_even, l_odd - l_even
            below, above = mid.item(lo), mid.item(lo + 1)
            am[lo] += a_off * l_same
            am[lo + 1] += a_off * l_same
            off[lo] = a_off * l_cross
            r[lo] -= a_off * (g_lo + l_same * below + l_cross * above)
            r[lo + 1] -= a_off * (g_hi + l_cross * below + l_same * above)
        x, info = zgtsv(off, am, off, r)[3:]
        if info != 0:
            raise SolverError(f"tridiagonal solve failed at step "
                              f"{step_off + s} (zgtsv info = {info})")
        both = x.item(0) + m0
        tip.couple((both,))
        psi[cut - 1] = g + tip_ell * both
        if sample is not None:
            sb, sa = x.item(lo) + below, x.item(lo + 1) + above
            sample.couple((sb + sa, sb - sa))
            psi[p0] = g_lo + l_same * sb + l_cross * sa
            psi[p1] = g_hi + l_cross * sb + l_same * sa
        mid = x
    for w, i, j in segs:
        w[1:-1] = mid[i:j]
    res = am * x - r
    res[1:] += off[:n - 1] * x[:-1]
    res[:-1] += off[:n - 1] * x[1:]
    denom = np.linalg.norm(r)
    return float(np.linalg.norm(res) / denom) if denom > 0 else 0.0
