"""Assembly scatter kernels with a numba path and a pure-numpy fallback.

The backend is chosen at import time: numba is used when it imports cleanly
unless the environment variable MULTIBUMP_NUMBA is set to 0/false/off, in
which case the plain Python/numpy implementations run.  Both paths share the
same semantics; ``benchmarks/bench_kernels.py`` times them against each other.
"""

import os

import numpy as np

_flag = os.environ.get("MULTIBUMP_NUMBA", "").strip().lower()
if _flag in ("0", "false", "off", "no"):
    NUMBA_ENABLED = False
else:
    try:
        import numba

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a hard dep, but stay importable
        NUMBA_ENABLED = False


def backend():
    """Active backend name, "numba" or "numpy"."""
    return "numba" if NUMBA_ENABLED else "numpy"


def _jit(fn):
    if NUMBA_ENABLED:
        return numba.njit(cache=True)(fn)
    return fn


def _scatter_hat_loop(out, coef, lam, dofL, dofR):
    for q in range(coef.shape[0]):
        c = coef[q]
        lm = lam[q]
        out[dofL[q]] += c * (1.0 - lm)
        out[dofR[q]] += c * lm


def _scatter_hat_numpy(out, coef, lam, dofL, dofR):
    np.add.at(out, dofL, coef * (1.0 - lam))
    np.add.at(out, dofR, coef * lam)


def _hess_cells_loop(cLL, cLR, cRR, qcell, coef, lam):
    for q in range(coef.shape[0]):
        c = qcell[q]
        lm = lam[q]
        m = coef[q]
        cLL[c] += m * (1.0 - lm) * (1.0 - lm)
        cLR[c] += m * (1.0 - lm) * lm
        cRR[c] += m * lm * lm


def _hess_cells_numpy(cLL, cLR, cRR, qcell, coef, lam):
    np.add.at(cLL, qcell, coef * (1.0 - lam) ** 2)
    np.add.at(cLR, qcell, coef * (1.0 - lam) * lam)
    np.add.at(cRR, qcell, coef * lam ** 2)


if NUMBA_ENABLED:
    scatter_hat = _jit(_scatter_hat_loop)
    hess_cells = _jit(_hess_cells_loop)
else:
    scatter_hat = _scatter_hat_numpy
    hess_cells = _hess_cells_numpy

# Both variants stay importable for parity tests and the benchmark.
scatter_hat_py = _scatter_hat_numpy
hess_cells_py = _hess_cells_numpy

