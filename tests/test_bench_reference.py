"""The simulate ops of the benchmark still give the K values it recorded.

``perfbench/run.py`` checks each simulate op of its default seed against
``perfbench/reference.json``.  This runs the ops of op seeds 0-3 of
``p2p_n8`` and ``dist_n4`` through ``cli.main`` in the same way, with the
argv, the tolerance ``K_REF_TOL`` and the check of ``perfbench/workloads.py``,
so a drift in K fails here as well as in the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from povmsim import cli
from povmsim.cli import bundled_example_path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, passes", [("p2p_n8", 4), ("dist_n4", 2)])
def test_simulate_ops_reproduce_the_recorded_k(tmp_path, monkeypatch, workload, passes):
    wl = _workloads(monkeypatch)
    recorded = json.loads((BENCH / "reference.json").read_text())["K"][workload]
    # Only the simulate ops are made, so the lab fields of the context stay empty.
    ctx = wl.Context(tmp_path, bundled_example_path(1), bundled_example_path(2), "", {}, {},
                     {workload: recorded}, 0)
    ops = [op for i in range(passes) for op in wl.WORKLOADS[workload].make_pass(ctx, i)]
    assert sorted(op.ref_key for op in ops) == [(workload, s) for s in range(4)]
    for op in ops:
        assert cli.main(op.argv) == 0, op.label
        k = json.loads(Path(op.out).read_text())["K"]
        assert abs(k - recorded[str(op.ref_key[1])]) <= wl.K_REF_TOL, (op.label, k)
        assert op.check(op, 0, ctx) is None
