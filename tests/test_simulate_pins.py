"""Golden pins of ``povmsim simulate``: every JSON field over a fixed grid of runs.

The pins in ``data/simulate_pins.json`` were recorded from the CLI and must
hold after any refactor of the protocol: every field exactly, K to 1e-12.
To record them afresh (only when a change of the output is intended), run

    PYTHONPATH=src python tests/test_simulate_pins.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from povmsim.cli import bundled_example_path, main

PINS = Path(__file__).parent / "data" / "simulate_pins.json"
K_TOL = 1e-12
SEEDS = (0, 1, 2)


def _spec(i: int) -> str:
    return f"--spec {bundled_example_path(i)}"


GRID = {
    "p2p_default_n8": "--mode p2p --n 8 --k 0 --l 6 --N 2 --delta 0.7",
    "p2p_default_p3_n6": "--mode p2p --p 3 --n 6 --k 0 --l 4 --N 2 --delta 0.7",
    "p2p_default_bigN": "--mode p2p --n 3 --k 0 --l 2 --N 2000 --delta 0.7",
    "p2p_example1": f"--mode p2p {_spec(1)} --n 4 --k 1 --l 2 --N 2 --delta 0.5",
    "p2p_example2": f"--mode p2p {_spec(2)} --n 4 --k 1 --l 2 --N 2 --delta 0.6",
    "p2p_example4_n3": f"--mode p2p {_spec(4)} --n 3 --k 0 --l 3 --N 2 --delta 0.6",
    "p2p_example4_n6": f"--mode p2p {_spec(4)} --n 6 --k 0 --l 5 --N 2 --delta 0.6",
    "dist_example1_k0": f"--mode distributed {_spec(1)} --n 4 --k 0 --l 2 --l2 2 "
                        "--N 2 --N2 2 --delta 0.9",
    "dist_example1_n4": f"--mode distributed {_spec(1)} --n 4 --k 1 --l 1 --l2 1 "
                        "--N 2 --N2 2 --delta 0.5",
    "dist_example2": f"--mode distributed {_spec(2)} --n 3 --k 1 --l 1 --l2 1 "
                     "--N 2 --N2 2 --delta 0.5",
    "dist_example4": f"--mode distributed {_spec(4)} --n 4 --k 1 --l 1 --l2 1 "
                     "--N 2 --N2 2 --delta 0.5",
}


def _simulate(args: str, seed: int, out: Path) -> dict:
    code = main(["simulate", *args.split(), "--seed", str(seed), "--out", str(out)])
    with open(out) as fh:
        return {"exit": code, **json.load(fh)}


@pytest.mark.parametrize("name", sorted(GRID))
def test_simulate_matches_pins(name, tmp_path):
    pins = json.loads(PINS.read_text())
    for seed in SEEDS:
        got = _simulate(GRID[name], seed, tmp_path / "out.json")
        want = pins[f"{name}/{seed}"]
        assert got.pop("K") == pytest.approx(want.pop("K"), rel=0, abs=K_TOL), (name, seed)
        assert got == want, (name, seed)


def _record(tmp: Path) -> None:
    pins = {f"{name}/{seed}": _simulate(args, seed, tmp / "out.json")
            for name, args in GRID.items() for seed in SEEDS}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
