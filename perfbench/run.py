"""Layered benchmark of the multibump CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process through ``multibump.cli.main(argv)``.
Inputs come from ``--seed`` (see inputs.py).  A run executes a fixed number
of whole rounds, sized from ``--seconds`` by the nominal cost of a round, so
that the items a run attempts, and which of them fail, depend on the seed
alone and never on the machine's speed.  Each output is checked outside the
timed region.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  End-to-end times
are scaled to reference speed (see ``Reference``); the line before the
result gives them in the host's seconds too.  The traced run
also executes the last item of every round untraced and reports the
difference as ``trace.overhead_frac``.

Everything the run writes goes to a fresh directory under
``.perfbench_work/`` at the checkout root, which is removed at the end; a
traced run leaves its spans there as ``spans-<workload>-seed<N>.jsonl``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cold_solve", "long_solve", "weight_study", "blocks")
SETUP_REPEATS = 5

# Nominal wall seconds of one round of each workload, measured at the seed
# commit on a 2-core x86-64 host with one BLAS thread.  A run holds
# ceil(seconds / ROUND_S) rounds, all generated during set-up.
ROUND_S = {"cold_solve": 4.6, "long_solve": 40.0, "weight_study": 20.0,
           "blocks": 0.45}

# Every BLAS pool runs one thread.  With the default of one thread per core,
# a long solve spent 1.6 s of CPU per second of wall for a 5% shorter wall
# time, `sweep --jobs 2` ran more threads than cores, and the idle pool
# threads' spinning made wall and CPU time track the host's other load.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

# The reference kernel: sampled once per 0.3 s of item time.  REF_S is its
# typical time on the 2-core x86-64 host the benchmark was tuned on.
REF_S = 0.040
REF_SIZE = 20000
REF_LOOP = 100000
REF_DICT = 40000
REF_EVERY_S = 0.3
REF_BURST = 12

# c from `local` against the shooting oracle: the FEM level at the default
# mesh (200 cells per unit length) differed by at most 6e-5 relative on the
# step weight and on generated weights when this tolerance was set.
LOCAL_C_RTOL = 2e-4

TERMINATED = []

IMPORT_PROBE = ("import time; t = time.perf_counter(); import multibump.cli; "
                "print(time.perf_counter() - t)")

sys.path.insert(0, HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- isolation and environment ------------------------------------------------


def rounds_for(workload, seconds):
    return math.ceil(seconds / ROUND_S[workload])


def isolate():
    """Fresh working directory, HOME and XDG_CACHE_HOME inside the checkout;
    one BLAS thread, set before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(work, sub)
        os.makedirs(path)
        os.environ[var] = path
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get(
        "PYTHONPATH", "")
    os.chdir(work)
    return base, work


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def environment():
    import importlib.util

    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


# -- set-up -------------------------------------------------------------------


def import_seconds():
    """Import time of the CLI in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def generate(workload, seed, directory, rounds):
    from inputs import InputSet

    os.makedirs(directory)
    inp = InputSet(workload, seed, directory)
    return inp, [inp.round() for _ in range(rounds)]


def setup(workload, seed, rounds, work):
    """Import, and generate the run's rounds, SETUP_REPEATS times; return
    the median import plus the median generation, in seconds, and the
    inputs.

    The first import is this process's own; the others run in fresh
    interpreters.  Every generation must give byte-identical inputs.
    """
    t0 = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "multibump")):
        fail(f"no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import multibump.cli  # noqa: F401
    imports = [time.perf_counter() - t0]
    imports += [import_seconds() for _ in range(SETUP_REPEATS - 1)]

    gens, digests, kept = [], set(), None
    for k in range(SETUP_REPEATS):
        t = time.perf_counter()
        inp, made = generate(workload, seed, os.path.join(work, f"in{k}"),
                             rounds)
        gens.append(time.perf_counter() - t)
        digests.add(input_digest(inp, made))
        if kept is None:
            kept = (inp, made)
    if len(digests) != 1:
        fail("the same seed gave different inputs")
    return statistics.median(imports) + statistics.median(gens), kept


def input_digest(inp, rounds):
    h = hashlib.sha256()
    for sha in sorted(inp.weights.values()):
        h.update(sha.encode())
    for rnd in rounds:
        for item in rnd:
            h.update(item.digest().encode())
    return h.hexdigest()


# -- items --------------------------------------------------------------------


def run_item(cli, item, outdir, tracer=None, index=0):
    """Run one CLI call; return (exit code, wall s, cpu s, stderr)."""
    argv = item.argv + ["--outdir", outdir]
    err = io.StringIO()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_item(index, "cli." + item.argv[0])
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.end_item()
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return code, wall, cpu, err.getvalue()


def _load(outdir, name):
    with open(os.path.join(outdir, name)) as f:
        return json.load(f)


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def check_item(item, outdir, code):
    """None when the item's outputs pass their check, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if _load(outdir, "manifest.json").get("status") != "ok":
        return "manifest status is not ok"
    kind = item.kind
    if kind == "solve":
        rep = _load(outdir, "report.json")
        if rep.get("certified") is not True:
            return "report not certified"
        if not rep["residual_inf"] <= item.check["newton_tol"]:
            return f"residual {rep['residual_inf']:.3e} above tolerance"
    elif kind == "verify":
        rep = _load(outdir, "verify.json")
        if rep["oracle"]["ok"] is not True:
            return "oracle check not ok"
        if not _finite(rep["identities_at_mu_max"].values()):
            return "identities not finite"
    elif kind == "local":
        from multibump import cli, oracle
        c = _load(outdir, "local.json")["c"]
        ref = oracle.brute_ground_level(cli.resolve_weight(item.weight)[0])
        if not abs(c - ref) <= LOCAL_C_RTOL * abs(ref):
            return f"c = {c!r} differs from the oracle's {ref!r}"
    elif kind == "connection":
        rep = _load(outdir, "connection.json")
        if not _finite(rep["fd_checks"]["rel_err"]):
            return "finite-difference check not finite"
    return None


def artifact_bytes(outdir):
    total = 0
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


# -- the reference kernel -----------------------------------------------------


class Reference:
    """A fixed piece of work that does not use the program, timed between
    items.  It mixes the program's kinds of work: interpreted arithmetic,
    building dicts and lists, and a sparse LU solve.

    On a shared host the speed of the same code drifts by a quarter over
    minutes, in wall and in CPU time alike, and a longer run does not average
    the drift away.  So every end-to-end time is scaled by ``REF_S`` over
    this kernel's time measured alongside it, and reads as seconds on a host
    where the kernel takes ``REF_S``: an item's time over the mean of the
    samples just before and just after it, the set-up time over the mean of
    all the run's samples.  Samples are taken before items, in bursts that
    keep one sample per ``REF_EVERY_S`` of item time.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = REF_SIZE
        self.splu = splu
        self.x = np.linspace(0.0, 1.0, n)
        self.A = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n),
                           -np.ones(n - 1)], [-1, 0, 1], format="csc")
        self.samples = []        # (index of the next item, seconds)
        self.owed = 1.0

    def work(self):
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        table = {}
        for i in range(REF_DICT):
            table[i % 997] = [i, str(i)]
        return acc + len(table) + self.splu(self.A).solve(self.x)[0]

    def sample(self, index):
        t = time.perf_counter()
        self.work()
        self.samples.append((index, time.perf_counter() - t))

    def before(self, index, item_wall, last=False):
        """Account for the previous item's wall time, then sample; the
        burst after the last item takes at least one sample."""
        self.owed = min(self.owed + item_wall / REF_EVERY_S, REF_BURST)
        if last:
            self.owed = max(self.owed, 1.0)
        while self.owed >= 1.0:
            self.sample(index)
            self.owed -= 1.0

    def per_item(self, n):
        """Each item's reference time: the mean of the samples in the
        nearest bursts before and after it."""
        bursts = {}
        for index, secs in self.samples:
            bursts.setdefault(index, []).append(secs)
        starts = sorted(bursts)
        out, k = [], 0
        for i in range(n):
            while starts[k + 1] <= i:
                k += 1
            out.append(statistics.fmean(bursts[starts[k]]
                                        + bursts[starts[k + 1]]))
        return out


# -- the timed loop -----------------------------------------------------------


class Runner:
    def __init__(self, cli, rounds, work, ref, tracer=None):
        self.cli = cli
        self.rounds = rounds
        self.work = work
        self.ref = ref
        self.tracer = tracer
        self.n = 0
        self.records = []        # dict per executed item
        self.failures = []

    def execute(self, item, traced, twin=False):
        if TERMINATED:
            sys.exit(143)
        outdir = os.path.join(self.work, "items", f"{self.n:05d}")
        tracer = self.tracer if traced else None
        self.ref.before(self.n, self.records[-1]["wall"] if self.records
                        else 0.0)
        code, wall, cpu, err = run_item(self.cli, item, outdir, tracer,
                                        self.n)
        try:
            reason = check_item(item, outdir, code)
        except (OSError, KeyError, TypeError, ValueError) as e:
            reason = f"unreadable output: {type(e).__name__}: {e}"

        rec = {"kind": item.kind, "wall": wall, "cpu": cpu, "traced": traced,
               "weight": item.weight_sha256, "ok": reason is None,
               "wrong": reason is not None and code == 0,
               "bytes": artifact_bytes(outdir), "digest": item.digest(),
               "twin": twin}
        if reason is not None:
            self.failures.append({"item": self.n, "call": item.digest(),
                                  "reason": reason,
                                  "stderr": err.strip()[-300:]})
        self.records.append(rec)
        shutil.rmtree(outdir, ignore_errors=True)
        self.n += 1

    def run(self):
        """Every round, in order.

        Traced, the last item of each round also runs untraced, in
        alternating order, for the tracing overhead; the last, so that the
        process has warmed up on the round's earlier items."""
        for r, items in enumerate(self.rounds):
            for k, item in enumerate(items):
                if self.tracer is None:
                    self.execute(item, False)
                elif k == len(items) - 1:
                    for traced in (True, False) if r % 2 else (False, True):
                        self.execute(item, traced, twin=True)
                else:
                    self.execute(item, True)
        self.ref.before(self.n, self.records[-1]["wall"], last=True)


# -- metrics ------------------------------------------------------------------


def item_times(records, refs=None):
    """Throughput, median wall and mean CPU time of the items: in seconds,
    or scaled to reference speed when each item's reference time is
    given."""
    scales = [REF_S / ref for ref in refs] if refs else [1.0] * len(records)
    walls = [r["wall"] * k for r, k in zip(records, scales)]
    cpus = [r["cpu"] * k for r, k in zip(records, scales)]
    return {"items_per_s": len(walls) / sum(walls),
            "item_s.p50": statistics.median(walls),
            "cpu_s_per_item": statistics.fmean(cpus)}


def end_to_end(records, setup_s, refs, run_ref):
    t = item_times(records, refs)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s * REF_S / run_ref, "s"),
        "items_per_s": (t["items_per_s"], "1/s"),
        "item_s.p50": (t["item_s.p50"], "s"),
        "cpu_s_per_item": (t["cpu_s_per_item"], "s"),
        "peak_rss_mb": (rss, "MB"),
    }


LAYERS = ("weight", "localfield", "assembly", "solver", "verify", "oracle",
          "connection", "cli")

# Span metrics are named <span>.calls, <span>.s (inclusive seconds) or
# <span>.self_s, each per traced item.
SPAN_METRICS = """
weight.build_constant_pack.calls weight.build_constant_pack.s
localfield.pinned_zero_detail.calls localfield.pinned_zero_detail.self_s
localfield.ground_state.calls localfield.ground_state.self_s
localfield.principal_eigenvalue.self_s
assembly.gradient.calls assembly.gradient.self_s
assembly.jacobian_matrix.calls assembly.jacobian_matrix.self_s
assembly.span_grid.calls assembly.segment_grid.calls
solver.solve_multibump.calls solver.solve_multibump.s
solver.continuation_states.s solver.check_membership.self_s
solver.splu.calls solver.splu.self_s
verify.oracle_residual.calls verify.oracle_residual.s
verify.limit_distance.self_s verify.nehari_identities.self_s
verify.run_sweep.s verify.interior_maxima.self_s
oracle.shoot_dirichlet.calls oracle.shoot_dirichlet.self_s
connection.solve_connection.calls connection.solve_connection.self_s
connection.energy_derivatives.self_s
cli.local.s cli.solve.s cli.verify.s cli.sweep.s cli.connection.s
cli.write_csv.self_s cli.write_json.self_s
""".split()

# Counters read from returned objects, per traced item.
COUNTERS = {"solver.newton_iters": "count/item",
            "solver.mu_steps": "count/item",
            "oracle.shoot_iters": "count/item",
            "oracle.rk_steps": "final_steps/item",
            "connection.descent_iters": "count/item",
            "connection.newton_iters": "count/item"}


def per_layer(tracer, records):
    from tracing import GENERATORS

    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = max(len(traced), 1)
    spans = tracer.spans
    selfs = tracer.self_times()
    agg = {"calls": {}, "s": {}, "self_s": {}}
    for sp, st in zip(spans, selfs):
        for kind, v in (("calls", 1), ("s", sp.end - sp.start),
                        ("self_s", st)):
            agg[kind][sp.name] = agg[kind].get(sp.name, 0) + v
    for name in GENERATORS:      # one span per next(), not per call
        agg["calls"].pop(name, None)
    calls = agg["calls"]
    ctr = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    def under(name, ancestors, excluded=()):
        return sum(1 for i, sp in enumerate(spans) if sp.name == name
                   and tracer.has_ancestor(i, ancestors)
                   and not tracer.has_ancestor(i, excluded))

    m = {}
    for metric in SPAN_METRICS:
        span, kind = metric.rsplit(".", 1)
        m[metric] = (agg[kind].get(span, 0) / n,
                     "count/item" if kind == "calls" else "s/item")
    for name, unit in COUNTERS.items():
        m[name] = (ctr[name] / n, unit)

    packs = calls.get("weight.build_constant_pack", 0)
    sub_solves = under("assembly.segment_grid",
                       {"localfield.pinned_zero_detail"})
    solver_grads = under("assembly.gradient",
                         {"solver.solve_multibump",
                          "solver.continuation_states"},
                         {"solver.check_membership"})
    m["weight.pack_builds_per_weight"] = (
        ratio(packs, len({r["weight"] for r in traced})), "ratio")
    m["localfield.sub_solves"] = (sub_solves / n, "count/item")
    m["localfield.sub_solves_per_pack"] = (ratio(sub_solves, packs), "ratio")
    m["assembly.dofs_max"] = (ctr["assembly.dofs_max"], "dofs")
    m["solver.gradient_evals_per_newton_iter"] = (
        ratio(solver_grads, ctr["solver.newton_iters"]), "ratio")
    m["oracle.shoot_iters_per_call"] = (
        ratio(ctr["oracle.shoot_iters"],
              calls.get("oracle.shoot_dirichlet", 0)), "ratio")
    m["cli.artifact_bytes"] = (sum(r["bytes"] for r in traced) / n,
                               "bytes/item")

    # self time of each layer's wrapped functions over traced item wall
    # time names the dominant layer; the item roots' own self time is code
    # outside every wrapped function
    item_wall = sum(r["wall"] for r in traced)
    layer_self = dict.fromkeys(LAYERS + ("other",), 0.0)
    for sp, t in zip(spans, selfs):
        layer_self["other" if sp.parent < 0 else sp.name.split(".")[0]] += t
    for layer, tot in layer_self.items():
        m[f"share.{layer}"] = (ratio(tot, item_wall), "frac")

    plain_wall = sum(r["wall"] for r in plain)
    twin_wall = sum(r["wall"] for r in traced if r["twin"])
    m["trace.overhead_frac"] = (ratio(twin_wall, plain_wall) - 1.0
                                if plain_wall else 0.0, "frac")
    return m


# -- main ---------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    # The CLI catches every exception, so a SIGTERM is noted here and acted
    # on between items; the run then still removes its working directory.
    signal.signal(signal.SIGTERM, lambda *_: TERMINATED.append(True))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    base, work = isolate()
    try:
        setup_host_s, (inp, rounds) = setup(
            args.workload, args.seed,
            rounds_for(args.workload, args.seconds), work)
        from multibump import cli

        ref = Reference()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        runner = Runner(cli, rounds, work, ref, tracer)
        try:
            runner.run()
        finally:
            if tracer is not None:
                tracer.uninstall()

        recs = runner.records
        refs = ref.per_item(len(recs))
        if args.trace:
            metrics = per_layer(tracer, recs)
            spans = os.path.join(
                base, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans)
        else:
            metrics = end_to_end(recs, setup_host_s, refs,
                                 statistics.fmean(s for _, s in ref.samples))
        failed = sum(1 for r in recs if not r["ok"])
        wrong = sum(1 for r in recs if r["wrong"])
        walls = sorted(r["wall"] for r in recs)
        host_s = dict(item_times(recs), setup_s=setup_host_s)
        info = {
            "environment": environment(),
            "inputs": dict(inp.record(),
                           items=[r["digest"] for r in recs]),
            "items": len(recs),
            "failed_frac": failed / len(recs),
            "failures": runner.failures,
            "item_walls": [[r["kind"], round(r["wall"], 4), r["ok"]]
                           for r in recs],
            "host_seconds": host_s,
            "ref_s": {"median": statistics.median(
                s for _, s in ref.samples), "samples": len(ref.samples)},
        }
        if args.trace:
            info["spans"] = os.path.relpath(spans, ROOT)
        if len(walls) >= 100:
            host_s["item_s.p90"] = statistics.quantiles(
                walls, n=10)[-1]
        print(json.dumps(info, sort_keys=True))
        result = {
            "correct": wrong == 0,
            "attempted": len(recs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
