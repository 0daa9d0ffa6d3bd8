"""Run ``run.py`` as a child process and parse its result line."""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_bench(workload: str, seed: int, seconds: float, trace: int = 0,
              env: dict | None = None) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines before it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} --trace {trace}: exit code "
                           f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]
