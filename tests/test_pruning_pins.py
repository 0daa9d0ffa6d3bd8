"""Golden pins of ``povmsim pruning``: every JSON field over a fixed grid of runs.

The pins in ``data/pruning_pins.json`` were recorded from the CLI and must
hold exactly after any change to how the Monte Carlo draws or blocks its
trials: the seeded reports are bit-identical, floats included.  The grid
covers one block (50 trials), a partial last block (2085) and many blocks
(10000).  To record them afresh (only when a change of the output is
intended), run

    PYTHONPATH=src python tests/test_pruning_pins.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from povmsim.cli import main

PINS = Path(__file__).parent / "data" / "pruning_pins.json"
SHAPES = ((4, 6), (3, 2), (2, 1), (5, 9))
TRIALS = (50, 2085, 10000)
SEEDS = (0, 1, 2)


def _key(dim: int, shots: int, trials: int, seed: int) -> str:
    return f"dim{dim}_shots{shots}_trials{trials}/{seed}"


def _pruning(dim: int, shots: int, trials: int, seed: int, out: Path) -> dict:
    code = main(["pruning", "--dim", str(dim), "--shots", str(shots), "--trials", str(trials),
                 "--seed", str(seed), "--out", str(out)])
    with open(out) as fh:
        return {"exit": code, **json.load(fh)}


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("dim,shots", SHAPES)
def test_pruning_matches_pins(dim, shots, trials, tmp_path):
    pins = json.loads(PINS.read_text())
    for seed in SEEDS:
        got = _pruning(dim, shots, trials, seed, tmp_path / "out.json")
        assert got == pins[_key(dim, shots, trials, seed)], (dim, shots, trials, seed)


def _record(tmp: Path) -> None:
    pins = {_key(dim, shots, trials, seed): _pruning(dim, shots, trials, seed, tmp / "out.json")
            for dim, shots in SHAPES for trials in TRIALS for seed in SEEDS}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
