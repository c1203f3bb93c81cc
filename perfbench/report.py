"""Print every metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

Runs run.py once untraced and once traced per workload (sequentially, one
process at a time) and prints the end-to-end metrics with their units, the
failure fraction, the times in the host's seconds and the reference kernel's
median time, the per-layer table of the traced run and
the tracing overhead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def table(title, workloads, rows):
    width = max(len(name) for name, _ in rows)
    print(f"\n{title}")
    print(f"{'metric':<{width}}  {'unit':<16}"
          + "".join(f"{w:>14}" for w in workloads))
    for name, cells in rows:
        unit = next((c[1] for c in cells if c is not None), "")
        vals = "".join(f"{'-':>14}" if c is None else f"{c[0]:>14.6g}"
                       for c in cells)
        print(f"{name:<{width}}  {unit:<16}{vals}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    names = args.workloads.split(",")

    results = {}
    for w in names:
        results[w] = (bench(w, args.seed, args.seconds, 0),
                      bench(w, args.seed, args.seconds, 1))
        print(f"ran {w}", file=sys.stderr, flush=True)

    def cell(w, trace, metric):
        m = results[w][trace][1]["metrics"].get(metric)
        return None if m is None else (m["value"], m["unit"])

    rows = [(m["name"], [cell(w, 0, m["name"]) for w in names])
            for m in spec["end_to_end"]]
    rows.append(("failed_frac", [(results[w][0][0]["failed_frac"], "frac")
                                 for w in names]))
    rows.append(("items", [(results[w][0][0]["items"], "count")
                           for w in names]))
    for name in ("setup_s", "items_per_s", "item_s.p50", "item_s.p90",
                 "cpu_s_per_item"):
        rows.append(("host." + name, [
            (results[w][0][0]["host_seconds"][name],
             "1/s" if name == "items_per_s" else "s")
            if name in results[w][0][0]["host_seconds"] else None
            for w in names]))
    rows.append(("ref_s.p50", [(results[w][0][0]["ref_s"]["median"], "s")
                               for w in names]))
    table(f"end to end (seed {args.seed}, {args.seconds:g} s per run)",
          names, rows)
    rows = [(m["name"], [cell(w, 1, m["name"]) for w in names])
            for m in spec["per_layer"]]
    table("per layer (traced run)", names, rows)
    for w in names:
        for trace in (0, 1):
            info, res = results[w][trace]
            for fl in info["failures"]:
                print(f"{w} trace={trace}: item {fl['item']}: {fl['reason']}"
                      f" {fl['stderr']}")
            if not res["correct"]:
                print(f"{w} trace={trace}: WRONG OUTPUT")


if __name__ == "__main__":
    main()
