"""Single-threaded BLAS baseline beside the default run, for every workload.

Runs ``run.py --trace 0`` once per workload with the default environment and
once with BLAS limited to one thread (through the child process's
environment only), and prints the end-to-end metrics side by side.  Nothing
is gated on the result.  Run from the root of a checkout:

    python3 perfbench/blas_baseline.py [--seconds S] [--seed N]
"""

import argparse
import json
import os
import sys

from bench_process import ROOT, run_bench
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"{'workload':<12} {'metric':<14} {'default':>12} {'1 thread':>12} {'1t/default':>10}")
    for w in spec["workloads"]:
        base, _ = run_bench(w["name"], args.seed, args.seconds)
        single, _ = run_bench(w["name"], args.seed, args.seconds, env={**os.environ, **ONE_THREAD})
        for m in spec["end_to_end"]:
            a = base["metrics"][m["name"]]["value"]
            b = single["metrics"][m["name"]]["value"]
            print(f"{w['name']:<12} {m['name']:<14} {a:>12.6g} {b:>12.6g} {b / a:>10.3f}")
        print(f"{w['name']:<12} {'failed':<14} {base['failed']:>12} {single['failed']:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
