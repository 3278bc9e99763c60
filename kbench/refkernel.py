"""Reference kernel that measures the machine's current speed.

The kernel imports numpy only, never the program, so no change to the
program can alter it.  It is shaped like the program's hot loops: a Python
loop of small batched ``einsum``/``matmul``/elementwise operations and small
``linalg`` calls on arrays of the sizes the charts and transports use
(64 points, chart dimension 5, horizontal rank 4).
"""

from __future__ import annotations

import numpy as np

# Seconds one ``reference_kernel()`` call takes at the nominal machine speed:
# the 10th percentile of 3000 calls (the fast phase of the vCPU) on a 2-vCPU
# Intel Xeon KVM guest with Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 and
# one BLAS thread.  Corrected times read as seconds at this speed.  It is
# fixed: every recorded figure is in its units.
REF_NOMINAL_S = 0.00164

STEPS = 3     # loop trips per call
_BATCH = 64   # paths per sampling pass
_N = 5        # chart dimension 2m+1 for m=2
_TM = 4       # horizontal rank 2m


def _inputs():
    rng = np.random.default_rng(12345)
    E = rng.normal(size=(_BATCH, _N, _TM))
    dE = rng.normal(size=(_BATCH, _N, _TM, _N))
    dG = rng.normal(size=(_BATCH, _TM, _TM, _N))
    A = rng.normal(size=(_BATCH, _TM, _TM))
    G = np.einsum("pab,pcb->pac", A, A) + _TM * np.eye(_TM)
    Aug = rng.normal(size=(_BATCH, _N, _N)) + 3.0 * np.eye(_N)
    M = np.broadcast_to(np.eye(_TM), (_BATCH, _TM, _TM)).copy()
    x = rng.uniform(-0.3, 0.3, size=(_BATCH, _N))
    return E, dE, dG, G, Aug, M, x


_INPUTS = _inputs()


def reference_kernel():
    """One pass of the kernel; returns a checksum so no work is skipped."""
    E, dE, dG, G, Aug, M, x = _INPUTS
    acc = 0.0
    h = 0.01
    for _ in range(STEPS):
        # jet-like elementwise arithmetic on per-coordinate columns
        cols = [x[:, i].copy() for i in range(_N)]
        r2 = cols[0] * cols[0] + cols[1] * cols[1]
        s = 1.0 / (1.0 - r2)
        grad = np.zeros((_BATCH, _N))
        grad[:, 0] = 2.0 * cols[0] * s * s
        grad[:, 1] = 2.0 * cols[1] * s * s
        val = np.where(r2 < 0.81, s, 0.0)
        # Koszul-like contractions and bracket assembly
        Br = np.einsum("...ia,...kbi->...kab", E, dE)
        Br = Br - Br.swapaxes(-1, -2)
        Minv = np.linalg.inv(Aug)
        cfull = np.einsum("...ck,...kab->...cab", Minv[..., :_TM, :], Br)
        Dg = np.einsum("...ia,...bci->...abc", E[..., :_TM, :], dG[..., :_TM])
        K = Dg + np.moveaxis(Dg, [-3, -2, -1], [-2, -1, -3]) - Dg.swapaxes(-2, -1)
        Gam = 0.5 * np.einsum("...ec,...abc->...eab", np.linalg.inv(G), K + cfull)
        # one transport-like RK4 stage
        Om = np.einsum("...cab,...a->...cb", Gam, grad[:, :_TM])
        Mk = M - h * np.matmul(Om, M)
        L = np.linalg.cholesky(G)
        acc += float(np.sum(val)) + float(Mk[0, 0, 0]) + float(L[0, 0, 0])
    U, _, Vt = np.linalg.svd(Mk)
    return acc + float(np.sum(U @ Vt))
