"""Self-test of the benchmark: every workload at its shortest length.

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, at ``--seconds 1`` (one pass, or one untraced/traced pair),
each in its own process, and asserts that the last line is the result
object, that every metric BENCHMARK.json names for that mode is printed
with its unit, that ``fail_frac`` is 0 and that the outputs were correct.
Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import sys

from bench_process import ROOT, run_bench


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    try:
        result, lines = run_bench(workload, 0, 1, trace)
    except RuntimeError as exc:
        return [str(exc)]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    fail_line = [ln.split() for ln in lines if ln.startswith("fail_frac ")]
    if fail_line != [["fail_frac", "0", "frac"]]:
        problems.append(f"{where}: fail_frac line {fail_line}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted({m['name'] for m in wanted} - set(got))}, "
                        f"extra {sorted(set(got) - {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} printed as {entry}")
        elif not trace and not entry["value"] > 0:
            problems.append(f"{where}: end-to-end {m['name']} is {entry['value']}, not > 0")
        if not any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"]
                   for ln in lines):
            problems.append(f"{where}: no human-readable line for {m['name']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
