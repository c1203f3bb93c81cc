"""Backend parity: the numba scatter kernels and the numpy fallbacks must
agree."""

import os
import subprocess
import sys

import numpy as np

from multibump import _kernels


def test_backend_name():
    assert _kernels.backend() in ("numba", "numpy")
    assert _kernels.backend() == ("numba" if _kernels.NUMBA_ENABLED
                                  else "numpy")


def test_env_flag_selects_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "from multibump import _kernels; print(_kernels.backend())"],
        env={**os.environ, "MULTIBUMP_NUMBA": "0"},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


def test_scatter_hat_parity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nq, ndof = 257, 40
        coef = rng.standard_normal(nq)
        lam = rng.random(nq)
        dofL = rng.integers(0, ndof, nq)
        dofR = rng.integers(0, ndof, nq)
        a = np.zeros(ndof)
        b = np.zeros(ndof)
        _kernels.scatter_hat(a, coef, lam, dofL, dofR)
        _kernels.scatter_hat_py(b, coef, lam, dofL, dofR)
        assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_hess_cells_parity():
    rng = np.random.default_rng(8)
    nq, ncell = 301, 50
    coef = rng.standard_normal(nq)
    lam = rng.random(nq)
    qcell = rng.integers(0, ncell, nq)
    outs = []
    for fn in (_kernels.hess_cells, _kernels.hess_cells_py):
        cLL = np.zeros(ncell)
        cLR = np.zeros(ncell)
        cRR = np.zeros(ncell)
        fn(cLL, cLR, cRR, qcell, coef, lam)
        outs.append((cLL, cLR, cRR))
    for a, b in zip(*outs):
        assert np.allclose(a, b, rtol=0, atol=1e-13)
