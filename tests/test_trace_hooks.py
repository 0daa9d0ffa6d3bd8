"""The benchmark's span tracer still finds the protocol, lab and code functions it wraps.

``perfbench/spans.py`` replaces public povmsim functions by name and reads a
few attributes of the built instances; a rename in the library would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import json
import sys
from pathlib import Path

from povmsim import cli
from povmsim.cli import bundled_example_path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)    # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans.Tracer()


def _calls(tracer) -> dict:
    return {name: s["calls"] for name, s in tracer.summary().items() if isinstance(s, dict)}


def test_tracer_records_both_protocol_builders(tmp_path, monkeypatch):
    tracer = _tracer(monkeypatch)
    out = tmp_path / "sim.json"
    tracer.install()
    try:
        assert cli.main(["simulate", "--n", "3", "--k", "0", "--l", "2", "--N", "2",
                     "--delta", "0.7", "--out", str(out)]) == 0
        assert cli.main(["simulate", "--mode", "distributed", "--n", "2", "--k", "1", "--l", "1",
                     "--l2", "1", "--N", "2", "--N2", "2", "--delta", "0.5",
                     "--spec", bundled_example_path(1), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    assert 0.0 <= json.loads(out.read_text())["K"] <= 2.0
    calls = _calls(tracer)
    for name in ("protocol.build_instance", "protocol.build_distributed_instance",
                 "protocol.assemble_overall", "protocol.assemble_overall_distributed",
                 "protocol.faithfulness", "cli.main"):
        assert calls.get(name, 0) >= 1, name
    assert tracer.counters.abar_built > 0


def test_tracer_records_the_lab_and_code_layers(tmp_path, monkeypatch):
    tracer = _tracer(monkeypatch)
    out = tmp_path / "lab.json"
    tracer.install()
    try:
        for argv in (["covering", "--M", "16", "--trials", "50", "--sampler", "ucc",
                      "--k", "2", "--l", "2"],
                     ["pruning", "--trials", "50"],
                     ["ucc", "--p", "3", "--n", "2", "--k", "1", "--l", "1",
                      "--check-pairwise"]):
            assert cli.main(argv + ["--out", str(out)]) == 0, argv
    finally:
        tracer.uninstall()
    calls = _calls(tracer)
    for name in ("lab.covering_experiment", "lab.pruning_inequality_experiment",
                 "codes.ucc_sample", "codes.pairwise_independence_check"):
        assert calls.get(name, 0) >= 1, name
    assert tracer.counters.lab_experiments == 2
