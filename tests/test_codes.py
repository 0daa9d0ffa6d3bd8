import collections
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmsim import codes
from povmsim.codes import (
    CodeEnsembleSpec,
    PairwiseReport,
    UccCode,
    all_codewords,
    all_vectors,
    codeword_indices,
    is_prime,
    multiplicity_table,
    pairwise_independence_check,
    sample_ensemble,
)


def test_all_vectors_cache_holds_at_most_its_byte_cap(monkeypatch):
    # 192 + 144 bytes fit: a hit makes (3, 2) the most recently used, so
    # (1, 5) pushes (2, 3) out; the 9720-byte (5, 3) table is above the cap,
    # returned in order but not kept, and drops nothing.
    monkeypatch.setattr(codes, "_VECTORS", collections.OrderedDict())
    monkeypatch.setattr(codes, "VECTORS_CACHE_BYTES", 192 + 144)
    first = all_vectors(3, 2)
    all_vectors(2, 3)
    assert all_vectors(3, 2) is first and list(codes._VECTORS) == [(2, 3), (3, 2)]
    all_vectors(1, 5)
    assert list(codes._VECTORS) == [(3, 2), (1, 5)]
    big = all_vectors(5, 3)
    assert list(codes._VECTORS) == [(3, 2), (1, 5)] and not big.flags.writeable
    np.testing.assert_array_equal(big, np.array(list(itertools.product(range(3), repeat=5))))
    assert sum(t.nbytes for t in codes._VECTORS.values()) <= codes.VECTORS_CACHE_BYTES


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_all_vectors_cached_and_read_only():
    # The index tables are shared between callers, so none may write them.
    table = all_vectors(3, 2)
    assert all_vectors(3, 2) is table
    assert table.tolist() == [[a, b, c] for a in range(2) for b in range(2) for c in range(2)]
    assert not table.flags.writeable and not all_vectors(0, 5).flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


def coset_code(G, B, p):
    """The coset code a G + B: the words of the UCC with l = 0 and shift B."""
    G = np.asarray(G)
    return all_codewords(UccCode(p, G.shape[1], G.shape[0], 0, G, np.asarray(B)[None]))


def test_coset_code_zero_generator():
    words = coset_code(np.zeros((2, 3), dtype=int), np.zeros(3, dtype=int), 2)
    assert words.shape == (4, 3)
    assert np.all(words == 0)


def test_coset_code_hand_example():
    words = coset_code(np.array([[1, 1]]), np.array([0, 1]), 2)
    assert sorted(map(tuple, words)) == [(0, 1), (1, 0)]


def test_coset_code_full_rank_distinct():
    g = np.array([[1, 0, 1], [0, 1, 1]])
    words = coset_code(g, np.array([1, 0, 0]), 2)
    # Exhaustive-enumeration oracle: full-rank G gives p**k distinct words.
    assert len({tuple(w) for w in words}) == 4


def ucc_codeword(code, a: int, i: int):
    """W(a, i) = a G + h(i) for the flat message index a: row a p**l + i of the sweep."""
    return all_codewords(code)[a * code.num_bins + i]


def test_ucc_codeword_zero_message():
    code = UccCode(2, 3, 1, 1, np.array([[1, 1, 0]]), np.array([[0, 0, 1], [1, 1, 1]]))
    assert tuple(ucc_codeword(code, 0, 0)) == (0, 0, 1)
    assert tuple(ucc_codeword(code, 0, 1)) == (1, 1, 1)


def test_ucc_codeword_fixed_coset_sweep():
    code = UccCode(3, 2, 1, 1, np.array([[1, 2]]), np.array([[0, 1], [2, 2], [1, 0]]))
    coset = {tuple((a * code.G[0] + code.h[1]) % 3) for a in range(3)}
    got = {tuple(ucc_codeword(code, a, 1)) for a in range(3)}
    assert got == coset


def test_full_sweep_size():
    code = UccCode(2, 3, 2, 1, np.array([[1, 0, 1], [0, 1, 1]]),
                   np.array([[0, 0, 0], [1, 0, 1]]))
    assert all_codewords(code).shape == (2 ** 3, 3)


def test_multiplicity_degenerate_code():
    code = UccCode(2, 2, 1, 1, np.zeros((1, 2), dtype=int), np.zeros((2, 2), dtype=int))
    table = multiplicity_table(code)
    assert table.get((0, 0), 0) == 4
    assert table.get((1, 1), 0) == 0


def test_multiplicity_injective_case():
    # Full-rank G with disjoint cosets: every codeword has multiplicity 1.
    code = UccCode(2, 3, 2, 1, np.array([[1, 0, 0], [0, 1, 0]]),
                   np.array([[0, 0, 0], [0, 0, 1]]))
    table = multiplicity_table(code)
    assert set(table.values()) == {1}
    assert len(table) == 8


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_multiplicity_sum_identity(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3]))
    n = int(rng.integers(1, 4))
    k = int(rng.integers(0, n + 1))
    l = int(rng.integers(0, 3))
    code = sample_ensemble(CodeEnsembleSpec(p, n, k, l, N=1, seed=seed))[0]
    assert sum(multiplicity_table(code).values()) == p ** (k + l)


def test_bins_union_equals_sweep():
    code = sample_ensemble(CodeEnsembleSpec(2, 3, 1, 2, N=1, seed=5))[0]
    from collections import Counter
    union = Counter()
    for i in range(code.num_bins):
        coset = codeword_indices(code.G[None], code.h[None, i:i + 1], code.p)
        assert coset.shape == (1, 2)
        union.update(coset[0].tolist())
    sweep = Counter(codeword_indices(code.G[None], code.h[None], code.p)[0].tolist())
    assert union == sweep


def test_sample_ensemble_deterministic():
    spec = CodeEnsembleSpec(3, 2, 1, 1, N=4, seed=99)
    e1, e2 = sample_ensemble(spec), sample_ensemble(spec)
    for c1, c2 in zip(e1, e2):
        assert np.array_equal(c1.G, c2.G)
        assert np.array_equal(c1.h, c2.h)
    # all codes share one G
    assert all(np.array_equal(c.G, e1[0].G) for c in e1)


def test_sample_ensemble_codeword_marginal_uniform():
    # Monte-Carlo frequency oracle: W(a, i) uniform over F_p^n within 3 sigma.
    p, n, trials = 2, 2, 4000
    counts = np.zeros(p ** n)
    for seed in range(trials):
        code = sample_ensemble(CodeEnsembleSpec(p, n, 1, 1, N=1, seed=seed))[0]
        # W(a = 1, i = 1) is word a p**l + i = 3.
        counts[codeword_indices(code.G[None], code.h[None], p)[0, 3]] += 1
    expected = trials / p ** n
    sigma = np.sqrt(trials * (1 / p ** n) * (1 - 1 / p ** n))
    assert np.max(np.abs(counts - expected)) <= 3 * sigma


def test_sample_ensemble_single_code():
    codes = sample_ensemble(CodeEnsembleSpec(2, 2, 1, 0, N=1, seed=0))
    assert len(codes) == 1
    assert codes[0].num_bins == 1


def test_pairwise_check_minimal():
    rep = pairwise_independence_check(2, 1, 1, 0)
    assert rep.exact
    assert rep.worst_single_deviation == 0


def test_pairwise_check_degenerate_shift_only():
    # k = l = 0: a single codeword, uniform through the shift alone.
    rep = pairwise_independence_check(2, 1, 0, 0)
    assert rep.exact and rep.worst_pair_deviation == 0


def test_pairwise_check_2211():
    rep = pairwise_independence_check(2, 2, 1, 1)
    assert rep.exact and rep.worst_pair_deviation == 0


def test_pairwise_check_refuses_large():
    with pytest.raises(ValueError):
        pairwise_independence_check(2, 5, 3, 3)


@pytest.mark.parametrize("n,k,l,p", [
    *[(n, k, l, p) for n, k, l in [(3, 1, 1), (2, 2, 0), (1, 0, 2)] for p in [2, 3, 5, 7]],
    # Digit sums past the int16 range (2p - 2 > 32767), and p itself past it.
    *[(1, 1, 0, p) for p in [16411, 32771]],
])
def test_codeword_indices_match_all_codewords(p, n, k, l):
    rng = np.random.default_rng(p * 100 + n * 10 + k)
    size = 6
    G = rng.integers(0, p, size=(size, k, n))
    h = rng.integers(0, p, size=(size, p ** l, n))
    G[0], h[0] = 1, p - 1      # for k >= 1, a = (p - 1, 0, ...) gives every digit sum 2p - 2
    got = codeword_indices(G, h, p)
    assert got.dtype == np.int64 and got.shape == (size, p ** (k + l))
    want = [np.ravel_multi_index(all_codewords(UccCode(p, n, k, l, g, hb)).T, (p,) * n)
            for g, hb in zip(G, h)]
    np.testing.assert_array_equal(got, want)
    digit_sums = (all_vectors(k, p) @ G[0] % p)[:, None, :] + h[0]
    assert digit_sums.max() == (2 * p - 2 if k else p - 1)


def test_three_way_witness_fires_for_p3():
    wit = pairwise_independence_check(3, 1, 1, 0).witness
    assert wit.relation_holds_always
    assert wit.max_joint_deviation > 0
    assert wit.fires


@pytest.mark.parametrize("args, phrase", [
    ((5, 8, 0, 0), "pairwise table needs 5**16 counters"),
    # 3**10 ensembles and a pairwise table of 3**12 counters are within the caps.
    ((3, 5, 1, 0), "three-way table needs 3**15 counters"),
], ids=["pairwise", "three-way"])
def test_counter_tables_are_capped(monkeypatch, args, phrase):
    # Both tables are refused before any counter array is allocated or any
    # ensemble is enumerated.
    def refuse(*_, **__):
        raise AssertionError("a counter table was allocated or an ensemble enumerated")

    monkeypatch.setattr(codes.np, "zeros", refuse)
    monkeypatch.setattr(codes, "codeword_indices", refuse)
    with pytest.raises(ValueError, match=rf"{re.escape(phrase)}, above the cap 1048576"):
        pairwise_independence_check(*args)


def test_three_way_witness_rejects_p2():
    # For p = 2 every triple of distinct codewords is jointly uniform: no witness.
    rep = pairwise_independence_check(2, 2, 1, 1)
    assert rep.exact and rep.witness is None


def test_ensemble_is_swept_once(monkeypatch):
    # One codeword_indices call per block of the 3**8 ensembles, not one per table.
    calls = []
    _spy(monkeypatch, "codeword_indices", lambda a, out: calls.append(len(out)))
    rep = pairwise_independence_check(3, 2, 1, 1)
    assert rep.exact and rep.witness.fires
    per_block = codes.BLOCK_KEYS // (9 * 8)     # the 9 codewords' ordered pairs are the most keys
    assert len(calls) == -(-3 ** 8 // per_block) and sum(calls) == 3 ** 8


def test_broken_relation_is_seen(monkeypatch):
    # Move the third word of the collinear triple on one ensemble: the
    # relation W_0 - 2 W_1 + W_2 = 0 no longer holds on every ensemble.
    real = codes.codeword_indices
    third = 2 * 3      # a = 2 e_1 in coset 0 is word a p**l + 0 at p = 3, k = l = 1

    def moved(G, h, p):
        flat = real(G, h, p)
        flat[0, third] = (flat[0, third] + 1) % p ** G.shape[2]
        return flat

    monkeypatch.setattr(codes, "codeword_indices", moved)
    wit = pairwise_independence_check(3, 1, 1, 1).witness
    assert not wit.relation_holds_always and not wit.fires


def test_ucc_shape_validation():
    with pytest.raises(ValueError):
        UccCode(4, 2, 1, 1, np.zeros((1, 2), dtype=int), np.zeros((4, 2), dtype=int))
    with pytest.raises(ValueError):
        UccCode(2, 2, 1, 1, np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))


def test_pairwise_block_keys_stay_within_the_cap(monkeypatch):
    # A block's counter keys (ensembles x tuples of a table) number at most
    # BLOCK_KEYS, or the largest table's counters where those are more: at
    # (2, 1, 7, 0) and (2, 1, 8, 0), with 16256 and 65280 ordered pairs, the
    # traced peak stays under four int64 arrays of ENUMERATION_CAP entries,
    # where one block of all 256 (512) ensembles peaked at 67.9 MB (about
    # 540 MB).  The reports do not depend on the block size.
    bound, reports = 4 * 8 * codes.ENUMERATION_CAP, {}
    for args in [(2, 1, 7, 0), (2, 1, 8, 0)]:
        tracemalloc.start()
        try:
            reports[args] = pairwise_independence_check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports[args].exact and reports[args].num_ensembles == 2 ** (args[2] + 1)
        assert peak <= bound, f"{args}: traced peak {peak / 1e6:.1f} MB"
    monkeypatch.setattr(codes, "BLOCK_KEYS", 5 * 16256)      # five ensembles per block
    assert pairwise_independence_check(2, 1, 7, 0) == reports[(2, 1, 7, 0)]


def test_pairwise_blocks_grow_to_the_largest_table(monkeypatch):
    # At (2, 1, 8, 0) one ensemble's 65280 ordered pairs exceed BLOCK_KEYS,
    # but the pair table has 4 * 65280 counters, which each block's bincount
    # allocates anyway: a block holds 4 ensembles, so the 512 ensembles take
    # 128 codeword enumerations, not 512.  The report is that of the exact check.
    calls = []
    _spy(monkeypatch, "codeword_indices", lambda args, out: calls.append(out.shape[0]))
    report = pairwise_independence_check(2, 1, 8, 0)
    assert report == PairwiseReport(2, 1, 8, 0, 512, 0, 0, exact=True, witness=None)
    assert sum(calls) == 512 and len(calls) * 4 <= 512


def _spy(monkeypatch, name, record):
    """Wrap ``codes.<name>`` so that ``record(args, result)`` sees every call."""
    real = getattr(codes, name)

    def spy(*args):
        out = real(*args)
        record(args, out)
        return out

    monkeypatch.setattr(codes, name, spy)


@pytest.mark.parametrize("args", [(3, 1, 1, 1), (2, 2, 1, 1), (3, 1, 0, 1)])
def test_pairwise_reports_do_not_depend_on_the_block_size(monkeypatch, args):
    # 81, 64 and 27 ensembles: the fewest per block (as many as the pair
    # table, p**(2n) counters per ordered pair, holds: 9, 16 and 9), one more
    # (a partial last block) and all of them in one block give equal reports.
    p, n, k, l = args
    words, total = p ** (k + l), p ** (k * n + p ** l * n)
    least = p ** (2 * n)
    sizes, reports = [], []
    _spy(monkeypatch, "codeword_indices", lambda a, out: sizes.append(len(out)))
    assert total % (least + 1)
    for per_block in (least, least + 1, total):
        sizes.clear()
        # Below the pair table, BLOCK_KEYS leaves the block at the fewest.
        keys = 1 if per_block == least else per_block * words * (words - 1)
        monkeypatch.setattr(codes, "BLOCK_KEYS", keys)
        reports.append(pairwise_independence_check(*args))
        assert sizes == [per_block] * (total // per_block) + [total % per_block] * (total % per_block > 0)
    assert reports[0] == reports[1] == reports[2] and reports[0].exact


@pytest.mark.parametrize("bound,args", [(None, (3, 2, 1, 1)), (500, (3, 1, 1, 1)),
                                        (50, (3, 1, 1, 1)), (10 ** 6, (2, 1, 7, 0))])
def test_pairwise_block_keys_stay_within_the_bound(monkeypatch, bound, args):
    # Every key array _tuple_keys returns holds at most BLOCK_KEYS keys, or
    # as many as the largest counter table where that is larger, and the
    # blocks are as large as that allows: at (3, 1, 1, 1) a bound of 500 or
    # 50 keys is below the 648-counter pair table, whose 72 ordered pairs
    # then take 9 ensembles per block.
    if bound is not None:
        monkeypatch.setattr(codes, "BLOCK_KEYS", bound)
    bound = codes.BLOCK_KEYS
    seen = []      # (ensembles in the block, tuples of the table, keys returned, table size)
    _spy(monkeypatch, "_tuple_keys", lambda a, keys: seen.append(
        (len(a[0]), len(a[1]), keys.size, len(a[1]) * a[2] ** a[1].shape[1])))
    assert pairwise_independence_check(*args).exact
    most = max(tuples for _, tuples, _, _ in seen)
    cap = max(bound, *(table for *_, table in seen))
    assert all(keys == block * tuples <= max(cap, tuples) for block, tuples, keys, _ in seen)
    assert max(block for block, *_ in seen) == max(1, cap // most)
