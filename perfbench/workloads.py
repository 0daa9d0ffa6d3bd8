"""The benchmark's workloads: fixed op lists driven through ``povmsim.cli.main``.

A pass is one run of a workload's op list.  Every op is a CLI argv whose
``--seed`` is derived from the benchmark seed and the op's index, and whose
``--out`` points at a file in the run's scratch directory.  Each op has a
check that reads that output and returns an error message, or None when the
output is correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFECT_TOL = 1e-9
K_REF_TOL = 1e-9
GAIN_TOL = 5e-4
FM_SAMPLES = 4000

P2P_ARGS = ["simulate", "--mode", "p2p", "--n", "8", "--k", "0", "--l", "6",
            "--N", "2", "--delta", "0.7"]
DIST_ARGS = ["simulate", "--mode", "distributed", "--n", "4", "--k", "1", "--l", "1",
             "--l2", "1", "--N", "2", "--N2", "2", "--delta", "0.5"]


def op_seed(seed: int, index: int) -> int:
    """CLI seed of the op at ``index``; seed 0 gives op seeds 0, 1, 2, ..."""
    return (seed * 100_000 + index) % 2 ** 31


@dataclass
class Context:
    """What set-up prepares for the ops: problem files, region files, references."""

    scratch: Path
    example1: str
    example2: str
    region_file: str
    expected_fm: dict            # region JSON the fm op must reproduce
    reported: dict               # cli.REPORTED_VALUES
    reference_k: dict            # workload -> {op seed (str): K} for the default seed
    seed: int


@dataclass
class Op:
    label: str
    argv: list
    out: str
    check: Callable[["Op", int, Context], str | None]
    trials: int = 0              # Monte Carlo trials, for trials_per_s
    ref_key: tuple | None = None  # (workload, op seed) of a recorded K
    extra: dict = field(default_factory=dict)


def _load_json(out: str) -> dict:
    with open(out) as fh:
        return json.load(fh)


def check_simulate(op: Op, rc: int, ctx: Context) -> str | None:
    d = _load_json(op.out)
    k, defect = float(d["K"]), float(d["subpovm_defect"])
    if rc != 0:
        return f"exit code {rc}"
    if not defect <= DEFECT_TOL:
        return f"subpovm_defect {defect:.3e} > {DEFECT_TOL}"
    if not 0.0 <= k <= 2.0:
        return f"K = {k} outside [0, 2]"
    if ctx.seed == 0 and op.ref_key is not None:
        workload, s = op.ref_key
        ref = ctx.reference_k.get(workload, {}).get(str(s))
        if ref is not None and abs(k - ref) > K_REF_TOL:
            return f"K = {k!r} differs from the recorded {ref!r}"
    return None


def check_pass_flag(op: Op, rc: int, ctx: Context) -> str | None:
    d = _load_json(op.out)
    if rc != 0 or d.get("pass") is not True:
        return f"exit code {rc}, pass = {d.get('pass')}"
    return None


def check_rates(op: Op, rc: int, ctx: Context) -> str | None:
    d = _load_json(op.out)
    ref = ctx.reported[op.extra["example"]]["gain"]
    gain = float(d["gain_indicator"])
    if rc != 0:
        return f"exit code {rc}"
    if abs(gain - ref) > GAIN_TOL:
        return f"gain {gain:.6f} not within {GAIN_TOL} of the reported {ref}"
    return None


def check_surface(op: Op, rc: int, ctx: Context) -> str | None:
    with open(op.out) as fh:
        rows = list(csv.DictReader(fh))
    gains = [float(r["gain_indicator"]) for r in rows if r["valid"] == "1"]
    grid = op.extra["grid"]
    if rc != 0:
        return f"exit code {rc}"
    if len(rows) != grid ** 3:
        return f"{len(rows)} scan rows, expected {grid ** 3}"
    if not (gains and min(gains) < 0.0 < max(gains)):
        return "no sign change in the gain surface"
    return None


def check_ucc(op: Op, rc: int, ctx: Context) -> str | None:
    d = _load_json(op.out)
    exact = d.get("pairwise", {}).get("exact")
    fires = d.get("three_way_witness", {}).get("fires")
    if rc != 0 or exact is not True or fires is not True:
        return f"exit code {rc}, exact = {exact}, three-way witness fires = {fires}"
    return None


def _contains(region: dict, variables: list, pts: np.ndarray) -> np.ndarray:
    ok = np.ones(len(pts), dtype=bool)
    for ineq in region["inequalities"]:
        coeffs = np.array([ineq["coeffs"].get(v, 0.0) for v in variables])
        ok &= pts @ coeffs >= ineq["const"] - 1e-9
    return ok


def check_fm(op: Op, rc: int, ctx: Context) -> str | None:
    got = _load_json(op.out)
    want = ctx.expected_fm
    if rc != 0:
        return f"exit code {rc}"
    if sorted(got["variables"]) != sorted(want["variables"]):
        return f"variables {got['variables']}, expected {want['variables']}"
    variables = sorted(want["variables"])
    consts = [abs(i["const"]) for i in want["inequalities"]] + [1.0]
    box = 2.0 * max(consts)
    pts = np.random.default_rng(op.extra["seed"]).uniform(
        -box, box, size=(FM_SAMPLES, len(variables)))
    differ = int(np.sum(_contains(got, variables, pts) != _contains(want, variables, pts)))
    if differ:
        return f"eliminated region disagrees with the closed form on {differ} points"
    return None


# ---------------------------------------------------------------------------
# Op lists.

def _op(ctx: Context, label: str, argv: list, seed: int, index: int, check,
        **kw) -> Op:
    out = str(ctx.scratch / f"op{index}.out")
    return Op(label, argv + ["--seed", str(seed), "--out", out], out, check, **kw)


def p2p_pass(ctx: Context, pass_index: int) -> list[Op]:
    s = op_seed(ctx.seed, pass_index)
    return [_op(ctx, "simulate.p2p", P2P_ARGS, s, 0, check_simulate,
                trials=1, ref_key=("p2p_n8", s))]


def dist_pass(ctx: Context, pass_index: int) -> list[Op]:
    s1, s2 = op_seed(ctx.seed, 2 * pass_index), op_seed(ctx.seed, 2 * pass_index + 1)
    return [
        _op(ctx, "simulate.dist.example1", DIST_ARGS + ["--spec", ctx.example1], s1, 0,
            check_simulate, trials=1, ref_key=("dist_n4", s1)),
        _op(ctx, "simulate.dist.example2", DIST_ARGS + ["--spec", ctx.example2, "--p", "3"],
            s2, 1, check_simulate, trials=1, ref_key=("dist_n4", s2)),
    ]


def lab_pass(ctx: Context, pass_index: int) -> list[Op]:
    s = [op_seed(ctx.seed, 8 * pass_index + j) for j in range(8)]
    return [
        _op(ctx, "covering.iid", ["covering", "--M", "256", "--trials", "2000",
                                  "--sampler", "iid"], s[0], 0, check_pass_flag, trials=2000),
        _op(ctx, "covering.ucc", ["covering", "--M", "256", "--trials", "2000",
                                  "--sampler", "ucc", "--k", "2", "--l", "6"],
            s[1], 1, check_pass_flag, trials=2000),
        _op(ctx, "pruning", ["pruning", "--trials", "10000"], s[2], 2, check_pass_flag,
            trials=10000),
        _op(ctx, "rates.example1", ["rates", "--spec", ctx.example1], s[3], 3, check_rates,
            extra={"example": 1}),
        _op(ctx, "rates.example2", ["rates", "--spec", ctx.example2], s[4], 4, check_rates,
            extra={"example": 2}),
        _op(ctx, "surface", ["surface", "--grid", "41"], s[5], 5, check_surface,
            extra={"grid": 41}),
        _op(ctx, "ucc.check_pairwise", ["ucc", "--p", "3", "--n", "2", "--k", "1", "--l", "1",
                                        "--check-pairwise"], s[6], 6, check_ucc),
        _op(ctx, "fm", ["fm", "--region", ctx.region_file, "--eliminate", "Rt"], s[7], 7,
            check_fm, extra={"seed": s[7]}),
    ]


def simulate_warmup(ctx: Context) -> Op:
    # A 256-dim op: the process's first multi-threaded LAPACK call at that
    # size costs about a second once, and belongs to set-up, not to op 1.
    return _op(ctx, "warmup", DIST_ARGS + ["--spec", ctx.example1], 0, 99, check_simulate)


def lab_warmup(ctx: Context) -> Op:
    return _op(ctx, "warmup", ["covering", "--M", "16", "--trials", "50"], 0, 99,
               check_pass_flag)


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[Context, int], list]
    warmup: Callable[[Context], Op]
    trials_name: str             # what trials_per_s counts on this workload


WORKLOADS = {
    "p2p_n8": Workload("p2p_n8", p2p_pass, simulate_warmup, "simulate ops"),
    "dist_n4": Workload("dist_n4", dist_pass, simulate_warmup, "simulate ops"),
    "lab_regions": Workload("lab_regions", lab_pass, lab_warmup,
                            "covering and pruning trials"),
}
