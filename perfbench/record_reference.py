"""Record the reference K values that the benchmark checks on its default seed.

Runs the simulate ops that ``run.py --seed 0`` runs (op seeds 0, 1, 2, ...)
and writes their K to ``perfbench/reference.json``.  Run it from the root of
a checkout, only when a change to povmsim is meant to change K:

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, OUT_DIR, run_op, set_up
from workloads import WORKLOADS

# Op seeds to record per workload; a run at seed 0 that runs more ops
# checks the extra ones against the invariants only.
COUNTS = {"p2p_n8": 8, "dist_n4": 256}


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        cli, ctx, warm_error = set_up(WORKLOADS["dist_n4"], 0, scratch)
        if warm_error:
            raise SystemExit(f"warm-up failed: {warm_error}")
        table = {}
        for name, count in COUNTS.items():
            workload = WORKLOADS[name]
            table[name] = {}
            index = 0
            while len(table[name]) < count:
                for op in workload.make_pass(ctx, index):
                    _, rc, err = run_op(cli, op)
                    if err or rc != 0:
                        raise SystemExit(f"{' '.join(op.argv)} failed: {err or rc}")
                    with open(op.out) as fh:
                        table[name][str(op.ref_key[1])] = json.load(fh)["K"]
                index += 1
            print(f"{name}: {len(table[name])} K values, "
                  f"distinct: {sorted(set(table[name].values()))}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(BENCH_DIR / "reference.json", "w") as fh:
        json.dump({"K": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
