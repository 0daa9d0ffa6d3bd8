"""Run-to-run spread of the end-to-end metrics over several seeds.

For each workload, runs ``run.py --trace 0`` once per seed, one run at a
time, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` beside the metric's bound from BENCHMARK.json.  A
spread above a third of the bound is marked.  Raw results go to
``perfbench/out/spread-<workload>.json``.  Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workloads dist_n4 ...]
"""

import argparse
import json
import statistics
import sys

from bench_process import BENCH_DIR, ROOT, run_bench


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_bench(workload, seed, spec["run_seconds"])[0])
            r = results[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        (BENCH_DIR / "out" / f"spread-{workload}.json").write_text(json.dumps(results))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            steady &= bool(mark == "" or m["name"] == "setup_s")
            print(f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {m['bound']}){mark}", flush=True)
        steady &= all(r["correct"] and r["failed"] == 0 for r in results)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
