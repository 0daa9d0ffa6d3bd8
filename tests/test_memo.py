"""The content-keyed memo of the seed-independent half of ``simulate``.

One byte-bounded LRU helper, ``memo.memoised``, keeps the parsed problem
files, the targets, the n-copy states and the protocol bases in
``protocol._BASES`` (and the word tables in ``codes._VECTORS``).  A warm run
must be the cold run bit for bit, and an edited or refused file must be read
afresh.
"""

import collections
import json
from pathlib import Path

import pytest

from povmsim import memo, protocol
from povmsim.cli import EXIT_BAD_SPEC, bundled_example_path, load_problem, main
from povmsim.linalg import partial_trace

# The arguments of a simulate op: p2p example4, distributed example1 and example2.
RUNS = {
    "p2p_example4": ["--mode", "p2p", "--n", "3", "--k", "0", "--l", "3", "--N", "2",
                     "--delta", "0.6", "--spec", bundled_example_path(4)],
    "dist_example1": ["--mode", "distributed", "--n", "3", "--k", "1", "--l", "1", "--l2", "1",
                      "--N", "2", "--N2", "2", "--delta", "0.5",
                      "--spec", bundled_example_path(1)],
    "dist_example2": ["--mode", "distributed", "--n", "3", "--k", "1", "--l", "1", "--l2", "1",
                      "--N", "2", "--N2", "2", "--delta", "0.5", "--p", "3",
                      "--spec", bundled_example_path(2)],
}


def _simulate(argv, seed, out) -> bytes:
    assert main(["simulate", *argv, "--seed", str(seed), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", RUNS)
def test_warm_simulate_is_the_cold_one_byte_for_byte(tmp_path, name):
    # Cold: an empty memo before every op.  Warm: one memo across the ops,
    # after a warm-up op of another seed, so every op after it is a hit.
    argv, out = RUNS[name], tmp_path / "sim.json"
    cold = []
    for seed in range(3):
        protocol._BASES.clear()
        cold.append(_simulate(argv, seed, out))
    protocol._BASES.clear()
    _simulate(argv, 7, out)
    kinds = {key[0] for key in protocol._BASES}
    assert {"problem", "basis", "state"} <= kinds and kinds & {"target", "distributed target"}
    held = dict(protocol._BASES)
    assert [_simulate(argv, seed, out) for seed in range(3)] == cold
    assert all(protocol._BASES[key] is value for key, value in held.items())


def _arrays(obj) -> list:
    """Every array that the problem, target or state holds, in a fixed order."""
    if isinstance(obj, protocol.TensorPower):
        return [obj.single, obj.vecs, obj.idx, obj.roots, obj.gram_diagonal,
                *(a for a in obj.levels if a is not None)]
    if isinstance(obj, protocol.ProductTarget):
        return list(obj.singles)
    return [obj.rho_ab.mat, *obj.m_a.elements, *obj.m_b.elements, *obj.m_ab.elements,
            obj.p_zst.probs, obj.p_zw.probs]


def _seed_free_half(ident: int):
    """(problem, target, state, K) of example ``ident`` as the CLI builds them, at n = 3."""
    spec = load_problem(bundled_example_path(ident))
    params = protocol.ProtocolParams(n=3, k=1, p=spec.p, sides=((1, 2), (1, 2)), delta=0.5)
    if ident == 4:
        params = protocol.ProtocolParams(n=3, k=0, p=spec.p, sides=((3, 2),), delta=0.6)
        rho = partial_trace(spec.rho_ab, traced=[1])
        target = protocol.target_overall(spec.m_a, protocol.extend_map_to_field(spec.p_zw, spec.p),
                                         3)
        candidate = protocol.assemble_overall(protocol.build_instance(params, spec.m_a, rho),
                                              spec.p_zw)
    else:
        rho = spec.rho_ab
        target = protocol.target_overall_distributed(spec.m_a, spec.m_b, spec.p_zw, spec.p, 3)
        candidate = protocol.assemble_overall_distributed(
            protocol.build_distributed_instance(params, spec.m_a, spec.m_b, rho), spec.p_zw)
    state = protocol.tensor_power(rho, 3)
    return spec, target, state, protocol.faithfulness(state, target, candidate)


@pytest.mark.parametrize("ident", [4, 1, 2])
def test_warm_problem_target_state_and_k_equal_the_cold_ones(ident):
    warm_up = _seed_free_half(ident)
    warm = _seed_free_half(ident)
    assert all(w is u for w, u in zip(warm[:3], warm_up[:3]))      # hits: the same objects
    protocol._BASES.clear()
    cold = _seed_free_half(ident)
    assert all(w is not c for w, c in zip(warm[:3], cold[:3]))
    assert warm[3] == cold[3]
    assert warm[1].traces(warm[2]).tobytes() == cold[1].traces(cold[2]).tobytes()
    for w, c in zip(warm[:3], cold[:3]):
        for a, b in zip(_arrays(w), _arrays(c), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_shared_arrays_are_read_only():
    spec, target, state, _ = _seed_free_half(1)
    arrays = _arrays(spec) + _arrays(target) + _arrays(state)
    diagonals = target.diagonals(state)
    arrays += [target.traces(state)] + ([] if diagonals is None else [diagonals])
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_problem_is_keyed_by_the_file_bytes(tmp_path):
    one, two = Path(bundled_example_path(1)), Path(bundled_example_path(2))
    path = tmp_path / "problem.json"
    path.write_bytes(one.read_bytes())
    first = load_problem(str(path))
    assert load_problem(str(path)) is first
    # Another path with the same bytes is the same problem.
    copy = tmp_path / "copy.json"
    copy.write_bytes(one.read_bytes())
    assert load_problem(str(copy)) is first
    # Rewritten with other content between two calls: parsed afresh.
    path.write_bytes(two.read_bytes())
    second = load_problem(str(path))
    assert second is not first and (first.p, second.p) == (2, 3)
    # The same content written again, with a new mtime: the memoised problem.
    path.write_bytes(one.read_bytes())
    assert load_problem(str(path)) is first


def test_a_dict_problem_is_parsed_on_every_call():
    d = json.loads(Path(bundled_example_path(1)).read_text())
    assert load_problem(d) is not load_problem(d)
    assert not [key for key in protocol._BASES if key[0] == "problem"]


@pytest.mark.parametrize("command", ["rates", "simulate"])
def test_a_malformed_file_is_refused_on_every_call(tmp_path, command):
    d = json.loads(Path(bundled_example_path(1)).read_text())
    bad_json, short_fs = tmp_path / "bad.json", tmp_path / "short_fs.json"
    bad_json.write_text(json.dumps(d)[:-5])
    d["f_s"] = [0]
    short_fs.write_text(json.dumps(d))
    extra = (["--mode", "distributed", "--n", "2", "--k", "1", "--l", "1", "--l2", "1", "--N",
              "1", "--N2", "1"] if command == "simulate" else [])
    out = tmp_path / "out.json"
    for path in (bad_json, short_fs, bad_json, short_fs):
        assert main([command, "--spec", str(path), *extra, "--out", str(out)]) == EXIT_BAD_SPEC
        assert "malformed problem file" in json.loads(out.read_text())["error"]
    assert not [key for key in protocol._BASES if key[0] == "problem"]
    # Mended in place, the file is accepted.
    short_fs.write_bytes(Path(bundled_example_path(1)).read_bytes())
    assert main([command, "--spec", str(short_fs), *extra, "--out", str(out)]) == 0


class _Sized:
    """A memo value of a given size."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


def test_memoised_holds_its_cap_least_recently_used_first():
    store, built = collections.OrderedDict(), []

    def get(key, size, cap=100):
        return memo.memoised(store, cap, key, lambda: built.append(key) or _Sized(size))

    a = get("a", 40)
    get("b", 30)
    assert get("a", 40) is a and list(store) == ["b", "a"] and built == ["a", "b"]
    get("c", 50)        # 120 bytes: the least recently used, b, goes
    assert list(store) == ["a", "c"]
    big = get("big", 101)    # above the cap: used once, not kept, and drops nothing
    assert big.nbytes == 101 and list(store) == ["a", "c"]
    assert get("big", 101) is not big and built == ["a", "b", "c", "big", "big"]
    get("d", 100)       # exactly the cap: every other value goes
    assert list(store) == ["d"]
    for key, size in zip("efghij", [10, 60, 35, 5, 70, 20]):
        get(key, size)
        assert sum(v.nbytes for v in store.values()) <= 100
    assert list(store) == ["h", "i", "j"]


def test_a_failed_build_stores_nothing():
    store = collections.OrderedDict()

    def fail():
        raise ValueError("refused")

    for _ in range(2):
        with pytest.raises(ValueError, match="refused"):
            memo.memoised(store, 100, "k", fail)
    assert not store


def test_the_shared_memo_holds_its_cap_across_kinds(tmp_path, monkeypatch):
    # Problems, targets, states and bases share BASIS_CACHE_BYTES: with room for
    # a few KB, alternating two problems keeps the memo within the cap after
    # every op, and the output stays that of an unlimited memo.
    out, ops = tmp_path / "sim.json", [(RUNS["dist_example1"], 0), (RUNS["dist_example2"], 1)] * 2
    unlimited = [_simulate(argv, seed, out) for argv, seed in ops]
    monkeypatch.setattr(protocol, "BASIS_CACHE_BYTES", 6000)
    protocol._BASES.clear()
    for (argv, seed), want in zip(ops, unlimited):
        assert _simulate(argv, seed, out) == want
        assert sum(v.nbytes for v in protocol._BASES.values()) <= 6000
    assert len({key[0] for key in protocol._BASES}) > 1
