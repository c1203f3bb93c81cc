"""Compare the jitted scatter kernels against their pure-numpy twins, and
time the shooting oracle's integrator.

Both scatter variants are importable side by side (the wired names follow the
MULTIBUMP_NUMBA flag, the ``*_py`` names are always the numpy path), so one
process can time the pair directly.  Run with MULTIBUMP_NUMBA=0 to confirm
the fallback wiring: the ratio column collapses to ~1.

Usage: python benchmarks/bench_kernels.py [--repeats 200] [--cells 400]
"""

import argparse
import time

import numpy as np

from multibump import _kernels, assembly, oracle, solver, weight


def best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_integrator(w, repeats):
    """One period at mu = 1 with the variational pair, restarted per
    repetition: the oracle's shooting workload (DOP853, dense output kept).
    Returns (best seconds, accepted steps)."""
    st = oracle.IvpState(t=0.0, u=0.0, du=1.0)

    def run():
        return oracle.integrate(w, 1.0, st, w.period, rtol=1e-10,
                                with_sensitivity=True)[1]

    return best_of(run, repeats), len(run().ts) - 1


def bench_assembly(w, cells, repeats):
    """Cubic-term scatter and Jacobian cell blocks on a 16-interval span."""
    grid = assembly.span_grid(w, -8, 8, cells)
    tb = grid.tables
    rng = np.random.default_rng(0)
    full = rng.standard_normal(grid.nodes.size)
    uq = full[tb.qcell] * (1.0 - tb.qlam) + full[tb.qcell + 1] * tb.qlam
    coef = tb.qw * tb.amu(1000.0) * uq ** 3
    out = np.zeros(full.size)
    n = len(tb.h)
    cLL = np.zeros(n)
    cLR = np.zeros(n)
    cRR = np.zeros(n)

    def scat(fn):
        out[:] = 0.0
        fn(out, coef, tb.qlam, tb.qcell, tb.qcell + 1)

    def hess(fn):
        cLL[:] = 0.0
        cLR[:] = 0.0
        cRR[:] = 0.0
        fn(cLL, cLR, cRR, tb.qcell, coef, tb.qlam)

    scat(_kernels.scatter_hat)
    hess(_kernels.hess_cells)
    rows = [
        ("scatter_hat", best_of(lambda: scat(_kernels.scatter_hat), repeats),
         best_of(lambda: scat(_kernels.scatter_hat_py), repeats)),
        ("hess_cells", best_of(lambda: hess(_kernels.hess_cells), repeats),
         best_of(lambda: hess(_kernels.hess_cells_py), repeats)),
    ]
    return rows, grid.nodes.size - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200,
                    help="timing repetitions, best-of reported")
    ap.add_argument("--cells", type=int, default=400,
                    help="cells per weight interval for the assembly rows")
    args = ap.parse_args()

    w = weight.make_step_weight()
    print(f"wired backend: {_kernels.backend()}")

    t_int, steps = bench_integrator(w, args.repeats)
    print(f"oracle.integrate one period: {t_int * 1e3:.2f} ms, {steps} steps")
    rows, ncells = bench_assembly(w, args.cells, args.repeats)

    print(f"assembly rows on {ncells} cells, best of {args.repeats}")
    print(f"{'kernel':<18} {'wired':>10} {'numpy':>10} {'ratio':>7}")
    for name, tw, tp in rows:
        print(f"{name:<18} {tw * 1e6:9.1f}u {tp * 1e6:9.1f}u {tp / tw:7.2f}")

    t0 = time.perf_counter()
    win = solver.make_window((1, 0))
    opts = solver.SolveOptions(cells_per_interval=args.cells)
    solver.solve_multibump(w, win, 1e3, opts)
    print(f"end-to-end solve (1,0) at mu=1e3: "
          f"{time.perf_counter() - t0:.2f}s on the wired backend")


if __name__ == "__main__":
    main()
