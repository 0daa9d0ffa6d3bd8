"""Benchmark of povmsim, driven through its public entry point ``povmsim.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {p2p_n8,dist_n4,lab_regions} \
        --seed N --seconds S --trace {0,1}

The run imports povmsim from the checkout's ``src/``, sets up (loads the
bundled problem files, writes the region file for the ``fm`` op, runs one
small untimed warm-up op), then runs whole passes of the workload's fixed op
list for about ``--seconds`` seconds in one process, a closed loop with one
client.  Every op's output is checked; failed checks count in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes of the same ops and reports the
per-layer metrics; the spans are written to ``perfbench/out/``.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 2          # extra fresh-process set-ups; setup_s is the median of 1 + these
PROBE_TIMEOUT_S = 120


def import_povmsim():
    """Import povmsim from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "povmsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no povmsim sources under {src}")
    sys.path.insert(0, str(src))
    from povmsim import cli, regions
    if Path(cli.__file__).resolve().parent != src / "povmsim":
        raise SystemExit(f"perfbench: povmsim was imported from {cli.__file__}, not {src}")
    return cli, regions


def run_op(cli, op):
    """Run one op through cli.main; returns (seconds, exit code, error or None)."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(op.out)
    err = None
    rc = None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(op.argv)
    except SystemExit as exc:           # argparse rejects its arguments this way
        err = f"SystemExit({exc.code})"
    except Exception as exc:            # any failure of an op is counted, not fatal
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, rc, err


def check_op(op, rc, err, ctx) -> str | None:
    if err is not None:
        return err
    try:
        return op.check(op, rc, ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def set_up(workload, seed: int, scratch: Path):
    cli, regions = import_povmsim()
    ex1, ex2 = cli.bundled_example_path(1), cli.bundled_example_path(2)
    spec1 = cli.load_problem(ex1)
    cli.load_problem(ex2)
    q = regions.compute_distributed_quantities(spec1.rho_ab, spec1.m_a, spec1.m_b,
                                               spec1.p_zst, spec1.p, spec1.f_s, spec1.f_t)
    region_file = scratch / "augmented_region.json"
    region_file.write_text(json.dumps(regions.region_to_json(regions.augmented_region(q))))
    with open(BENCH_DIR / "reference.json") as fh:
        reference = json.load(fh)
    ctx = Context(scratch, ex1, ex2, str(region_file),
                  regions.region_to_json(regions.distributed_region(q)),
                  cli.REPORTED_VALUES, reference["K"], seed)
    warm = workload.warmup(ctx)
    _, rc, err = run_op(cli, warm)
    return cli, ctx, check_op(warm, rc, err, ctx)


class Tally:
    """Per-op outcomes of the timed passes."""

    def __init__(self):
        self.durations: list[float] = []
        self.errors: list[str] = []
        self.trials = 0
        self.trial_seconds = 0.0

    def run_pass(self, cli, ops, ctx, tracer=None) -> float:
        """Run one pass; returns its wall time.  Outputs are checked after it."""
        results = []
        t = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(self.durations) + len(results)
            results.append(run_op(cli, op))
        wall = time.perf_counter() - t
        for op, (dur, rc, err) in zip(ops, results):
            problem = check_op(op, rc, err, ctx)
            if problem is not None:
                self.errors.append(f"{op.label} {' '.join(op.argv)}: {problem}")
            self.durations.append(dur)
            if op.trials:
                self.trials += op.trials
                self.trial_seconds += dur
        return wall


def keep_going(started: float, walls: list, seconds: float) -> bool:
    """Start another pass only if one more is expected to end within the run."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as measured by that process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(workload, tally: Tally, walls: list, setups: list, wanted: list) -> dict:
    d = np.asarray(tally.durations)
    beyond_p90 = int(np.sum(d > np.percentile(d, 90)))
    print(f"# {workload.name}: {len(walls)} passes, {d.size} ops; "
          f"op_p90_s from {d.size} samples, {beyond_p90} beyond it; "
          f"setup_s is the median of {len(setups)} set-ups; "
          f"trials_per_s counts {workload.trials_name}")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": float(np.percentile(d, 50)),
        "op_p90_s": float(np.percentile(d, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials_per_s": tally.trials / tally.trial_seconds,
    }
    return {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}


def per_layer(tracer: Tracer, untraced: list, traced: list, wanted: list) -> dict:
    """Per-layer metrics of the traced passes, each per pass (one op list).

    ``<span>.s``, ``<span>.self_s`` and ``<span>.calls`` read the spans of
    that name; the other names are computed below.
    """
    n = len(traced)
    sm = tracer.summary()
    c = tracer.counters

    def span(name, key="s"):
        return sm.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    traced_wall = sum(traced)
    outside = traced_wall - sm["_root_s"]
    computed = {
        "protocol.abar_built": c.abar_built / n,
        "protocol.abar_used_frac": ratio(c.abar_used, c.abar_built),
        "protocol.abar_zero_frac": ratio(c.cut_states_zero, c.cut_states),
        "protocol.dense_mb": c.dense_bytes_max / 2 ** 20,
        "linalg.trace_norm.gflop_est": c.trace_norm_flop / 1e9 / n,
        "linalg.trace_norm.gflops": ratio(c.trace_norm_flop / 1e9, span("linalg.trace_norm")),
        "linalg.trace_norm.tiny_frac": ratio(c.trace_norm_tiny, c.trace_norm_entries),
        "regions.surface_scan.points_per_s": ratio(c.surface_points,
                                                   span("regions.surface_scan")),
        "lab.pass_frac": ratio(c.lab_passed, c.lab_experiments),
        "cli.self_s": span("cli.main", "self_s") / n,
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.counters_s": span("trace.counters") / n,
        "trace.outside_s": outside / n,
        "trace.accounted_frac": ratio(sm["_total_self_s"] + outside, traced_wall),
    }
    out = {}
    for m in wanted:
        name = m["name"]
        if name not in computed:
            span_name, key = name.rsplit(".", 1)
            if span_name not in SPAN_NAMES or key not in ("s", "self_s", "calls"):
                raise ValueError(f"per-layer metric {name} names no recorded span")
            computed[name] = span(span_name, key) / n
        out[name] = (computed[name], m["unit"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit (used by set-up probes)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        cli, ctx, warm_error = set_up(workload, args.seed, scratch)
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0 if warm_error is None else 1
        tally = Tally()
        started = time.perf_counter()
        setup_s = started - T0
        if args.trace == 0:
            walls: list = []
            while keep_going(started, walls, args.seconds):
                walls.append(tally.run_pass(cli, workload.make_pass(ctx, len(walls)), ctx))
            setups = [setup_s] + [setup_probe(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            metrics = end_to_end(workload, tally, walls, setups, SPEC["end_to_end"])
        else:
            tracer = Tracer()
            untraced: list = []
            traced: list = []
            pairs: list = []
            while keep_going(started, pairs, args.seconds):
                ops = workload.make_pass(ctx, len(pairs))
                untraced.append(tally.run_pass(cli, ops, ctx))
                tracer.install()
                try:
                    traced.append(tally.run_pass(cli, ops, ctx, tracer))
                finally:
                    tracer.uninstall()
                pairs.append(untraced[-1] + traced[-1])
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            print(f"# {workload.name}: {len(pairs)} untraced/traced pass pairs, "
                  f"{len(tracer.start)} spans")
            metrics = per_layer(tracer, untraced, traced, SPEC["per_layer"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = ([f"warm-up: {warm_error}"] if warm_error else []) + tally.errors
    for e in errors[:20]:
        print(f"# FAILED {e}")
    attempted = len(tally.durations)
    print(f"{'fail_frac':<44} {len(tally.errors) / attempted:>16.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
