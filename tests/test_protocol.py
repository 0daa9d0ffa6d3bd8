import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
import loop_reference as loop
from conftest import (
    kept,
    members,
    random_complete_povm,
    random_density,
    random_psd,
    random_rank_one_povm,
    random_unitary,
    rotated_qubit_problem,
)
from povmsim import codes, memo, protocol
from povmsim.codes import CodeEnsembleSpec, UccCode, all_codewords, sample_ensemble
from povmsim.cli import (
    EXIT_BAD_PROTOCOL,
    _default_p2p_problem,
    bundled_example_path,
    default_covering_instance,
    load_problem,
    main,
)
from povmsim.cq import StochasticMap, build_sigma_p2p
from povmsim.linalg import (
    DensityOperator,
    Povm,
    PureState,
    hermitian_part,
    kron_all,
    kron_power,
    max_eigenvalue,
    min_eigenvalue,
    partial_trace,
    psd_pinv_sqrt,
)
from povmsim.regions import surface_scan
from povmsim.protocol import (
    CanonicalEnsemble,
    ProtocolParams,
    TensorPower,
    assemble_overall,
    assemble_overall_distributed,
    build_distributed_instance,
    build_instance,
    canonical_ensemble,
    cond_typical_projector,
    cut_post_state,
    faithfulness,
    pad_ensemble,
    target_overall,
    target_overall_distributed,
    typical_projector,
    typical_set,
)

BASIS = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
MIXED = DensityOperator(np.eye(2) / 2, (2,))
IDENT_MAP = StochasticMap((2,), 2, np.eye(2))


def trend_params(n, seed=0):
    return ProtocolParams(n=n, k=0, p=2,
                          sides=((2 * n, {2: 2, 3: 4, 4: 4, 5: 8}[n]),),
                          eta=0.1, delta=0.7, seed=seed)


# ---------------------------------------------------------------------------
# Canonical ensemble.

def test_canonical_identity_povm():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    ens = canonical_ensemble(Povm((np.eye(2),)), rho)
    assert ens.weights[0] == pytest.approx(1.0)
    assert np.allclose(ens.post_states[0], rho.mat, atol=1e-10)


def test_canonical_example1_weight(example1):
    rho_a = DensityOperator(np.eye(2) / 2, (2,))
    ens = canonical_ensemble(example1.m_a, rho_a)
    assert ens.weights[0] == pytest.approx((0.9501 + 0.0615) / 2, abs=1e-12)
    assert ens.weights.sum() == pytest.approx(1.0)


def test_canonical_projective_diagonal():
    rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex), (2,))
    ens = canonical_ensemble(BASIS, rho)
    assert np.allclose(ens.weights, [0.3, 0.7])
    for w, (_, rho_hat) in enumerate(zip(ens.weights, ens.post_states)):
        assert np.trace(ens.post_states[w]).real == pytest.approx(1.0)


def test_canonical_reconstruction_identity():
    # lambda_w * rho_hat_w reassembles sqrt(rho) Lambda_w sqrt(rho) exactly.
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2)
    from conftest import random_complete_povm
    m = random_complete_povm(rng, 2, 3)
    ens = canonical_ensemble(m, rho)
    from povmsim.linalg import psd_sqrt
    root = psd_sqrt(rho.mat)
    for w, lam in enumerate(m.elements):
        assert np.allclose(ens.weights[w] * ens.post_states[w],
                           root @ lam @ root, atol=1e-10)


# ---------------------------------------------------------------------------
# Typicality.

def test_typical_set_degenerate():
    ts = typical_set(np.array([1.0, 0.0]), 3, 0.2)
    assert members(ts) == ((0, 0, 0),)
    assert ts.mass == pytest.approx(1.0)


def test_typical_set_loose_delta_hits_full_support():
    # delta >= max_w 1/lambda_w makes every supported sequence typical.
    ts = typical_set(np.array([0.5, 0.5]), 2, 2.0)
    assert members(ts) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_typical_set_uniform_balanced_count():
    # Brute-force oracle: n=4, delta=0.25 admits only the balanced sequences.
    ts = typical_set(np.array([0.5, 0.5]), 4, 0.25)
    brute = [s for s in itertools.product(range(2), repeat=4) if sum(s) == 2]
    assert list(members(ts)) == brute
    assert ts.mask.sum() == 6


def test_typical_set_excludes_zero_probability_letters():
    ts = typical_set(np.array([0.5, 0.5, 0.0]), 2, 0.999)
    assert all(2 not in seq for seq in members(ts)) and ts.mask.any()


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any), st.integers(1, 6),
       st.one_of(st.floats(0.01, 0.99), st.floats(1.0, 3.0)))
@settings(max_examples=60, deadline=None)
def test_typical_rows_matches_loop_oracle(weights, n, delta):
    # Laws with zero-probability letters, delta inside and above (0, 1):
    # every word of length n, as rows and with two leading axes, against the
    # letter-by-letter oracle; the typical set's mask and members are the
    # brute-force words the oracle accepts, in itertools.product order.
    probs = np.array(weights, dtype=float) / sum(weights)
    q = probs.size
    brute = list(itertools.product(range(q), repeat=n))
    want = [loop.typical_row(w, probs, delta) for w in brute]
    rows = np.array(brute, dtype=np.int64)
    assert protocol.typical_rows(rows, probs, delta).tolist() == want
    stacked = protocol.typical_rows(rows.reshape(q, -1, n), probs, delta)
    assert stacked.shape == (q, q ** (n - 1)) and stacked.ravel().tolist() == want
    ts = typical_set(probs, n, delta)
    assert ts.mask.shape == (q ** n,) and not ts.mask.flags.writeable
    assert ts.mask.tolist() == want and [ts.is_member(w) for w in brute] == want
    assert members(ts) == tuple(w for w, ok in zip(brute, want) if ok)


def test_typical_rows_of_a_large_padded_law_stay_small():
    # A two-letter law padded to F_65537 with null letters, as the padded
    # ensemble of simulate --p 65537 is: only the two letters of positive
    # probability are counted, so every word of length 1 is tested within a
    # few MB, where a count over all letters would take 32 GiB (at delta
    # above 1 both letters are typical words).  Rows of length 4 with and
    # without null letters agree with the loop oracle, which can drop the
    # null letters above each row's largest.
    p, delta = 65537, 0.6
    probs = np.zeros(p)
    probs[:2] = [0.4, 0.6]
    tracemalloc.start()
    try:
        ts = typical_set(probs, 1, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.flatnonzero(ts.mask).tolist() == [0, 1] and ts.mass == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    rows = np.concatenate([rng.integers(0, 2, size=(30, 4)), rng.integers(0, 4, size=(30, 4)),
                           rng.integers(0, p, size=(30, 4))])
    want = [loop.typical_row(r, probs[:max(2, max(r) + 1)], delta) for r in rows.tolist()]
    assert protocol.typical_rows(rows, probs, delta).tolist() == want
    assert any(want) and not all(want)


def test_typical_set_of_a_long_word_stays_small(monkeypatch):
    # 2**20 words of length 20: the chunks keep the peak far below the 416 MB
    # that one table of every word took, for a 1 MB mask.  The typical words
    # hold 8 to 12 ones, each of mass 2**-20, so the mass is exact.
    tracemalloc.start()
    try:
        ts = typical_set([0.5, 0.5], 20, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    count = sum(math.comb(20, ones) for ones in range(8, 13))
    assert int(ts.mask.sum()) == count and ts.mass == count / 2 ** 20
    # Chunks of 7 words, the last one short, give the mask of one table bit for bit.
    monkeypatch.setattr(protocol, "TYPICAL_BLOCK", 7)
    probs, n, delta = [0.5, 0.3, 0.2], 5, 0.6
    chunked = typical_set(probs, n, delta)
    whole = protocol.typical_rows(codes.all_vectors(n, 3), np.array(probs), delta)
    assert 3 ** n % 7 and np.array_equal(chunked.mask, whole)
    assert chunked.mass == pytest.approx(
        np.prod(np.array(probs)[codes.all_vectors(n, 3)[whole]], axis=1).sum(), rel=1e-15)


@pytest.mark.parametrize("p", [3, 7, 13])
def test_padded_letters_share_one_spectrum(monkeypatch, p):
    # The default problem has two letters; padding to F_p adds p - 2 null
    # letters, whose post-states are all 0.  The basis takes as many eigh
    # calls as over F_2, where no letter is padded, and one for all the null
    # letters.
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    rho, m, _ = _default_p2p_problem()
    counts = []
    for field in (2, p):
        calls.clear()
        basis = protocol._basis(ProtocolParams(n=2, k=0, p=field, sides=((1, 1),)), [m], rho)
        counts.append(len(calls))
    assert counts[1] == counts[0] + 1
    spectra = basis.sides[0].spectra
    assert len(spectra) == p and len({id(s) for s in spectra[2:]}) == 1


def test_build_enumerates_the_words_once(monkeypatch):
    # p2p at p = 3, n = 10: the 3**10-row table of all words takes 4.7 MB.
    # The typical set takes the words in chunks of indices, so neither a cold
    # build nor a warm one (another seed) asks for the table.
    calls = []
    real = protocol.all_vectors

    def spy(length, p):
        calls.append((length, p))
        return real(length, p)

    monkeypatch.setattr(protocol, "all_vectors", spy)
    rho, m, _ = _default_p2p_problem()
    for seed in (0, 1):
        calls.clear()
        params = ProtocolParams(n=10, k=0, p=3, sides=((4, 2),), delta=0.7, seed=seed)
        build_instance(params, m, rho)
        assert calls.count((10, 3)) == 0, seed


def test_typical_projector_pure_state():
    pure = DensityOperator(np.diag([1.0, 0.0]).astype(complex), (2,))
    pi = typical_projector(pure, 3, 0.3)
    assert np.trace(pi).real == pytest.approx(1.0)


def test_typical_projector_maximally_mixed_is_identity():
    pi = typical_projector(MIXED, 4, 0.1)
    assert np.allclose(pi, np.eye(16), atol=1e-10)


def test_typical_projector_rank_matches_bruteforce():
    # diag(0.8, 0.2), n=5, delta=0.3: count typical eigenvalue sequences directly.
    probs = np.array([0.8, 0.2])
    n, delta = 5, 0.3
    count = 0
    for seq in itertools.product(range(2), repeat=n):
        c = np.bincount(seq, minlength=2)
        if all(abs(c[i] / n - probs[i]) <= delta * probs[i] for i in range(2)):
            count += 1
    rho = DensityOperator(np.diag(probs).astype(complex), (2,))
    pi = typical_projector(rho, n, delta)
    assert round(np.trace(pi).real) == count == 5


def test_cond_typical_projector_pure_posts():
    ens = canonical_ensemble(BASIS, MIXED)
    pi = cond_typical_projector(ens, (0, 1, 0), 0.3)
    want = np.zeros(8)
    want[0b010] = 1.0
    assert np.allclose(pi, np.diag(want), atol=1e-10)


def test_cut_post_state_trivial_projectors():
    ens = canonical_ensemble(BASIS, MIXED)
    out = cut_post_state(ens, np.eye(4), (0, 1), 0.9)
    assert np.allclose(out, ens.post_state_of((0, 1)), atol=1e-10)


def test_cut_post_state_off_typical_is_zero():
    ens = pad_ensemble(canonical_ensemble(BASIS, MIXED), 2)
    ts = typical_set(ens.weights, 2, 0.7)
    out = cut_post_state(ens, np.eye(4), (0, 0), 0.7, tset=ts)
    assert np.all(out == 0)


def test_padded_letters_share_one_read_only_zero():
    ens = canonical_ensemble(BASIS, MIXED)
    padded = pad_ensemble(ens, 7)
    pads = padded.post_states[ens.num_letters:]
    assert len(pads) == 5 and all(s is pads[0] for s in pads)
    assert not pads[0].flags.writeable and pads[0].dtype == complex
    np.testing.assert_array_equal(pads[0], np.zeros((2, 2)))
    np.testing.assert_array_equal(padded.weights[ens.num_letters:], 0.0)
    # The real letters keep their own states.
    for s, t in zip(padded.post_states, ens.post_states):
        np.testing.assert_array_equal(s, t)
    assert len({id(s) for s in padded.post_states}) == ens.num_letters + 1


def test_cut_post_state_trace_deficit_bounded():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    from conftest import random_complete_povm
    m = random_complete_povm(rng, 2, 2)
    ens = canonical_ensemble(m, rho)
    pi_rho = typical_projector(rho, 3, 0.6)
    for w in ((0, 0, 1), (1, 0, 1)):
        out = cut_post_state(ens, pi_rho, w, 0.6)
        tr = np.trace(out).real
        assert -1e-10 <= tr <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# Instance construction invariants.

@pytest.fixture(scope="module")
def small_instance():
    return build_instance(trend_params(3, seed=4), BASIS, MIXED)


def test_instance_bins_plus_completion_is_identity(small_instance):
    inst = small_instance
    eye = np.eye(inst.mus[0].typical.shape[0])
    for mu in inst.mus:
        total = sum(dense.bin_ops(mu)) + dense.completion(mu)
        assert np.max(np.abs(total - eye)) < 1e-10


def test_instance_pruned_sigma_bounded(small_instance):
    for mu in small_instance.mus:
        pruned = dense.pi_mu(mu) @ dense.sigma(mu) @ dense.pi_mu(mu)
        assert max_eigenvalue(pruned) <= 1.0 + 1e-9


def test_instance_pruning_projector_properties(small_instance):
    inst = small_instance
    for mu in inst.mus:
        p = dense.pi_mu(mu)
        assert np.max(np.abs(p @ p - p)) < 1e-9           # idempotent
        assert np.max(np.abs(p - p.conj().T)) < 1e-12      # Hermitian
        assert np.max(np.abs(p @ dense.pi_rho(inst) - p)) < 1e-9  # subprojector of Pi_rho


def test_instance_bin_rearrangement_identity(small_instance):
    # sum over bins of Gamma_i = sum_w gamma_w A_w exactly.
    for mu in small_instance.mus:
        direct = sum(mu.gamma.get(w, 0) * op for w, op in mu.a_ops.items())
        assert np.max(np.abs(sum(dense.bin_ops(mu)) - direct)) < 1e-10


def test_instance_sub_povm_defect(small_instance):
    assert small_instance.sub_povm_defect <= 1e-9


def test_instance_alpha_gamma_uniform_full_cover():
    # lambda uniform, k+l = n: every word covered once by a full-rank G sweep,
    # so alpha_w * gamma_w = lambda_w / (1 + eta) exactly.
    params = ProtocolParams(n=2, k=2, p=2, sides=((0, 1),), eta=0.1, delta=0.9, seed=3)
    inst = build_instance(params, BASIS, MIXED)
    mu = inst.mus[0]
    g, _ = loop.redraw(params)
    if np.linalg.matrix_rank(g) == 2:   # seed 3 gives full rank
        assert set(mu.gamma.values()) == {1}
    total = sum(mu.gamma.values())
    assert total == 4


def test_expected_sigma_dominated_by_pi_rho():
    # Monte-Carlo mean of Sigma over the ensemble stays below Pi_rho/(1+eta).
    base = trend_params(3)
    samples = []
    for seed in range(60):
        inst = build_instance(trend_params(3, seed=seed), BASIS, MIXED)
        samples.append(dense.sigma(inst.mus[0]))
    mean = sum(samples) / len(samples)
    peaks = np.array([max_eigenvalue(s) for s in samples])
    slack = 3 * peaks.std(ddof=1) / np.sqrt(len(samples))
    bound = max_eigenvalue(np.eye(mean.shape[0]) / (1 + base.eta))
    assert max_eigenvalue(mean) <= bound + slack


def test_off_typical_abar_vanishes(small_instance):
    inst = small_instance
    for w in inst.abar:
        assert inst.sides[0].tset.is_member(w)
    non_typical = tuple(0 for _ in range(inst.params.n))
    if not inst.sides[0].tset.is_member(non_typical):
        assert non_typical not in inst.abar


# ---------------------------------------------------------------------------
# Decoding.

def test_decode_message_zero_is_w0(small_instance):
    # The decoded table has one entry per bin of each mu and none for the
    # completion (message 0), which, like an entry of -1, stands for w0: a
    # word outside tset_w, so no decoded word is w0.
    inst = small_instance
    assert inst.decoded.shape == (len(inst.mus), 2 ** inst.params.sides[0][0])
    words = inst.decoded[inst.decoded >= 0]
    assert words.size and inst.tset_w.mask[words].all()
    assert not inst.tset_w.is_member(inst.w0)


def test_decode_unique_typical_bin(small_instance):
    # k = 0: bin i of code mu holds the one word h_mu(i), its decoded word
    # when typical, else -1 (w0).
    inst = small_instance
    _, (h,) = loop.redraw(inst.params)
    words = h @ 2 ** np.arange(inst.params.n - 1, -1, -1)
    assert np.array_equal(inst.decoded, np.where(inst.sides[0].tset.mask[words], words, -1))


def test_decode_collision_goes_to_w0():
    # A zero generator with k = 1 puts two coarse indices on every bin word,
    # so any bin whose word is typical has |D| = 2 and decodes to w0.
    zero_g_seed = next(
        seed for seed in range(200)
        if not np.any(np.random.default_rng(seed).integers(0, 2, size=(1, 2))))
    params = ProtocolParams(n=2, k=1, p=2, sides=((2, 1),), eta=0.1, delta=0.7, seed=zero_g_seed)
    inst = build_instance(params, BASIS, MIXED)
    g, (h,) = loop.redraw(params)
    assert not np.any(g)
    typical_bins = [i for i, shift in enumerate(h[0].tolist())
                    if inst.sides[0].tset.is_member(tuple(shift))]
    assert typical_bins, "seed produced no typical shifts"
    assert np.all(inst.decoded[0, typical_bins] == -1)
    assert inst.decoder_collisions == len(typical_bins)


@pytest.mark.parametrize("mode, example, n, delta", [
    ("p2p", None, 3, 0.3), ("p2p", None, 4, 0.7), ("p2p", 2, 3, 0.5),
    ("distributed", 1, 3, 0.5), ("distributed", 2, 2, 0.5),
    ("distributed", 4, 2, 0.9), ("distributed", 4, 3, 0.9),
])
def test_w0_is_the_first_word_outside_tset_w(mode, example, n, delta):
    # w0 against a lexicographic scan of F_p^n.  example4 at delta 0.9 puts
    # every word in tset_w, so there w0 is None.
    if example is None:
        rho, m, _ = _default_p2p_problem()
        p = 2
    else:
        spec = load_problem(bundled_example_path(example))
        rho, m, p = partial_trace(spec.rho_ab, traced=[1]), spec.m_a, spec.p
    params = ProtocolParams(n=n, k=0, p=p, sides=((1, 2), (1, 1))[:1 if mode == "p2p" else 2],
                            delta=delta, seed=3)
    inst = (build_instance(params, m, rho) if mode == "p2p"
            else build_distributed_instance(params, spec.m_a, spec.m_b, spec.rho_ab))
    accepted = set(members(inst.tset_w))
    want = next((w for w in itertools.product(range(p), repeat=n) if w not in accepted), None)
    assert inst.w0 == want
    assert (want is None) == (example == 4) == (len(accepted) == p ** n)


@pytest.mark.parametrize("mode", ["p2p", "distributed"])
def test_one_codeword_enumeration_per_side_and_one_for_the_decoder(monkeypatch, example1, mode):
    # Each side enumerates all of its codes' codewords in one stacked call, and
    # the decoder all sum codes in one more, except with one side, whose codes
    # are the sum codes; the row-wise word table is never built.  The per-mu
    # views, and the tracer's readings of them, count the codewords the side
    # keeps and enumerate none again.
    calls = []
    real = codes.codeword_indices

    def spy(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args):
        raise AssertionError("all_codewords called")

    for module in (codes, protocol):
        monkeypatch.setattr(module, "codeword_indices", spy)
    monkeypatch.setattr(codes, "all_codewords", refuse)
    params = ProtocolParams(n=3, k=1, p=2, sides=((1, 3), (2, 2))[:1 if mode == "p2p" else 2],
                            delta=0.5, seed=1)
    inst = (build_instance(params, BASIS, MIXED) if mode == "p2p"
            else build_distributed_instance(params, example1.m_a, example1.m_b, example1.rho_ab))
    assert len(calls) == (1 if mode == "p2p" else 3)
    for side, (l, num) in zip(inst.sides, params.sides):
        assert [sum(mu.gamma.values()) for mu in side.mus] == [2 ** (1 + l)] * num
    assert inst.mus is inst.sides[0].mus
    assert len([inst.abar[w] for w in inst.abar]) == len(inst.sides[0].factors)
    if mode == "distributed":
        assert (inst.side_a, inst.side_b) == (inst.sides[0].mus, inst.sides[1].mus)
    assert len(calls) == (1 if mode == "p2p" else 3)


# ---------------------------------------------------------------------------
# Overall sub-POVM and faithfulness.

def test_assemble_overall_is_complete(small_instance):
    out = assemble_overall(small_instance, IDENT_MAP)
    total = sum(dense.candidate_ops(out).values())
    assert np.max(np.abs(total - np.eye(small_instance.mus[0].typical.shape[0]))) < 1e-9


def test_assemble_degenerate_map_single_operator(small_instance):
    p_zw = StochasticMap((2,), 1, np.ones((2, 1)))
    out = assemble_overall(small_instance, p_zw)
    key = tuple(0 for _ in range(small_instance.params.n))
    assert out.outputs.tolist() == [0] and out.output_size == 1
    op = dense.candidate_ops(out)[key]
    assert np.max(np.abs(op - np.eye(small_instance.mus[0].typical.shape[0]))) < 1e-9


def _self_k_case(name, seed, row):
    """K of one built instance under the map whose rows all equal ``row``.

    Then every T_z and C_z is P(z) I, so the candidate is the target.  The
    rotated p2p instance, and example4 at most seeds, store words other than
    w0 (the dense route); example1 and example2 store w0 only (the diagonal
    route).
    """
    if name == "rotated":
        rho, m = rotated_qubit_problem()
        params = ProtocolParams(n=4, k=0, p=2, sides=((3, 2),), eta=0.1, delta=0.6, seed=seed)
        inst = build_instance(params, m, rho)
        p_zw = StochasticMap((2,), len(row), np.tile(row, (2, 1)))
        return faithfulness(TensorPower(rho, 4), target_overall(m, p_zw, 4),
                            assemble_overall(inst, p_zw))
    ex = load_problem(bundled_example_path({"example1": 1, "example2": 2, "example4": 4}[name]))
    live = name == "example4"
    params = ProtocolParams(n=3, k=0 if live else 1, p=ex.p,
                            sides=((2, 2), (2, 2)) if live else ((1, 2), (1, 2)),
                            eta=0.1, delta=0.7 if live else 0.5, seed=seed)
    inst = build_distributed_instance(params, ex.m_a, ex.m_b, ex.rho_ab)
    p_zw = StochasticMap((ex.p,), len(row), np.tile(row, (ex.p, 1)))
    return faithfulness(TensorPower(ex.rho_ab, 3),
                        target_overall_distributed(ex.m_a, ex.m_b, p_zw, ex.p, 3),
                        assemble_overall_distributed(inst, p_zw))


@given(st.sampled_from(["rotated", "example1", "example2", "example4"]), st.integers(0, 10_000),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).filter(lambda r: sum(r) > 0.1))
@settings(max_examples=20, deadline=None)
def test_faithfulness_self_is_zero(name, seed, row):
    # When every row of P_{Z|W} is equal, Z ignores the measurement: the
    # protocol's candidate equals its target, so K = 0 for any code draw.
    row = np.array(row) / sum(row)
    assert abs(_self_k_case(name, seed, row)) <= 1e-12


def test_faithfulness_takes_only_the_factored_forms(small_instance):
    # K takes a TensorPower, a ProductTarget and a FactoredCandidate on as
    # many registers and one output alphabet; a dense matrix, a dict or a
    # mismatched form is refused.
    n = small_instance.params.n
    state, tgt = TensorPower(MIXED, n), target_overall(BASIS, IDENT_MAP, n)
    cand = assemble_overall(small_instance, IDENT_MAP)
    assert 0.0 <= faithfulness(state, tgt, cand) <= 2.0
    for args in [(kron_power(MIXED.mat, n), tgt, cand),
                 (state, dense.target_ops(tgt), cand),
                 (state, tgt, dense.candidate_ops(cand)),
                 (TensorPower(MIXED, n + 1), tgt, cand),
                 (state, target_overall(BASIS, IDENT_MAP, n + 1), cand),
                 (state, target_overall(BASIS, StochasticMap((2,), 3, np.eye(3)[:2]), n), cand)]:
        with pytest.raises(ValueError, match="faithfulness takes a TensorPower"):
            faithfulness(*args)


def test_faithfulness_trend_smoke():
    # Endpoint medians over a few seeds already separate at desk scale; the
    # full >= 20 seed version runs in the acceptance suite.
    meds = {}
    for n in (2, 5):
        ks = []
        for seed in range(6):
            inst = build_instance(trend_params(n, seed=seed), BASIS, MIXED)
            cand = assemble_overall(inst, IDENT_MAP)
            tgt = target_overall(BASIS, IDENT_MAP, n)
            ks.append(faithfulness(TensorPower(MIXED, n), tgt, cand))
        meds[n] = float(np.median(ks))
    assert meds[5] <= meds[2]


# ---------------------------------------------------------------------------
# Distributed construction.

def _check_projective_decoder(p, k, num_mus):
    """Every tuple of mus of the decoder of a maximally mixed product state against the
    enumeration oracle, one qubit measured in ``BASIS`` per entry of ``num_mus``."""
    count = len(num_mus)
    rho = DensityOperator(np.eye(2 ** count) / 2 ** count, (2,) * count)
    params = ProtocolParams(n=3, k=k, p=p, sides=tuple((1, num) for num in num_mus), eta=0.1,
                            delta=0.3, seed=2)
    inst = protocol._build(params, [BASIS] * count, rho)
    assert inst.decoded.shape == tuple(num_mus) + (p,) * count
    law = np.zeros(p)           # W, the sum of count uniform bits over F_p
    for letters in itertools.product(range(2), repeat=count):
        law[sum(letters) % p] += 0.5 ** count
    assert np.allclose(inst.tset_w.probs, law, atol=1e-12)
    accepted = set(members(inst.tset_w))
    assert accepted and inst.w0 is not None
    g, tables = loop.redraw(params)
    collisions = 0
    for mus in itertools.product(*map(range, num_mus)):
        for bins in itertools.product(range(p), repeat=count):
            shift = sum(h[mu, i] for h, mu, i in zip(tables, mus, bins))
            found = []
            for a in itertools.product(range(p), repeat=k):
                w = tuple(int(x) for x in (np.array(a, dtype=np.int64) @ g + shift) % p)
                if w in accepted:
                    found.append(w)
            collisions += len(found) >= 2
            want = found[0] if len(found) == 1 else inst.w0
            assert loop.decoded_word(inst, mus, tuple(i + 1 for i in bins)) == want
    assert inst.decoder_collisions == collisions


@pytest.mark.parametrize("p", [2, 3], ids=lambda p: f"p{p}")
@pytest.mark.parametrize("k", [0, 1, 2], ids=lambda k: f"k{k}")
def test_distributed_product_projective_decoder(p, k):
    # Projective factor measurements on a product state: in every (mu1, mu2)
    # table, a bin pair with exactly one typical word a G + h_A(i) + h_B(j)
    # decodes to it, else to w0, and two or more are a collision
    # (enumeration oracle).  At delta_hat = 0.3 p some words are typical.
    _check_projective_decoder(p, k, (2, 2))


def test_distributed_decoder_with_unequal_mu_counts():
    # The N1 N2 sum codes are decoded in one stack, mu1-major; with N1 != N2
    # a wrong stride would pair the wrong shift tables.
    _check_projective_decoder(2, 1, (3, 2))
    _check_projective_decoder(3, 1, (1, 3))


@pytest.mark.parametrize("p, k", [(2, 1), (3, 0)])
def test_three_side_decoder(p, k):
    # Three parties through the one builder: each bin triple decodes by the
    # same rule, with W the sum of the three letters.
    _check_projective_decoder(p, k, (2, 1, 2))


def test_decode_keeps_single_hits_and_counts_collisions():
    # Per bin, the indices of its codewords, of which words 6 and 7 are not
    # accepted: a bin with one accepted codeword decodes to its index, one
    # with none to -1 (w0), and one with two, or one word twice, is a
    # collision that decodes to -1.
    accept = np.arange(8) < 6
    codewords = np.array([[[6, 7], [3, 7], [6, 0]],
                          [[2, 5], [4, 4], [7, 1]]])
    decoded, collisions = protocol._decode(codewords, accept)
    assert decoded.tolist() == [[-1, 3, 0], [-1, -1, 1]]
    assert collisions == 2
    decoded, collisions = protocol._decode(np.full((2, 4, 1), 7), accept)
    assert decoded.tolist() == [[-1] * 4] * 2 and collisions == 0


def test_distributed_sum_code_at_the_cap(tmp_path, monkeypatch):
    # 2**20 bin pairs, one typical W-word: about a quarter of the pairs decode
    # to it, the rest to w0.  K is pinned bit for bit.  The traced allocations
    # peak at about 26.5 MB, in FactoredCandidate; the decoder's stage peaks
    # at about 20 MB, and the decoded array (int32) is 4 MB.
    built = []

    def build(*args):
        built.append(build_distributed_instance(*args))
        return built[-1]

    monkeypatch.setattr(protocol, "build_distributed_instance", build)
    out = tmp_path / "k.json"
    tracemalloc.start()
    try:
        assert main(["simulate", "--mode", "distributed", "--n", "2", "--k", "0", "--l", "10",
                     "--l2", "10", "--N", "1", "--N2", "1", "--delta", "0.5",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34e6
    assert json.loads(out.read_text())["K"] == 0.7078394879999999
    decoded = built[0].decoded
    assert decoded.shape == (1, 1, 1024, 1024) and np.count_nonzero(decoded >= 0) == 261734
    # Every decoded index is 0, the word (0, 0), which is not w0.
    assert set(decoded[decoded >= 0].tolist()) == {0} and built[0].w0 != (0, 0)


def test_distributed_sides_are_sub_povms(example1):
    params = ProtocolParams(n=2, k=1, p=2, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5, seed=1)
    inst = build_distributed_instance(params, example1.m_a, example1.m_b, example1.rho_ab)
    assert inst.sub_povm_defect <= 1e-9
    for side in (inst.side_a, inst.side_b):
        for s in side:
            total = sum(dense.bin_ops(s))
            assert max_eigenvalue(total - np.eye(total.shape[0])) <= 1e-9


def test_distributed_overall_complete_and_k_reported(example1):
    params = ProtocolParams(n=2, k=1, p=2, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5, seed=1)
    inst = build_distributed_instance(params, example1.m_a, example1.m_b, example1.rho_ab)
    cand = assemble_overall_distributed(inst, example1.p_zw)
    total = sum(dense.candidate_ops(cand).values())
    assert np.max(np.abs(total - np.eye(16))) < 1e-9
    tgt = target_overall_distributed(example1.m_a, example1.m_b, example1.p_zw, 2, 2)
    k = faithfulness(TensorPower(example1.rho_ab, 2), tgt, cand)
    assert 0.0 <= k <= 2.0 + 1e-9   # desk-scale value logged, not asserted


def test_permute_registers_swap():
    rng = np.random.default_rng(9)
    a, b = random_psd(rng, 2), random_psd(rng, 3)
    swapped = dense.permute_registers(np.kron(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, np.kron(b, a), atol=1e-12)


def _rotated_rank_one_problem():
    """(rho_AB, M_A, M_B) of the bundled example4.

    sqrt(0.8)|00> + sqrt(0.2)|11> in qubit bases rotated by 0.3 and 0.9 rad.
    The post-states are pure, so the bins are live: at n = 3, k = 0,
    l = l2 = 2, N = N2 = 2, eta = 0.5, delta = 0.7 and seed 1, 2 + 2 of the
    A bins and 3 + 3 of the B bins are nonzero.  At eta = 0.1 pruning cuts
    every direction of the A codes, and every A bin is exactly 0.
    """
    spec = load_problem(bundled_example_path(4))
    return spec.rho_ab, spec.m_a, spec.m_b


def test_distributed_candidate_matches_kron_reference(example1):
    # The factored candidate against the kron-and-interleave construction,
    # spread over the outputs by P^n_{Z|W}, read off the decoder.  On
    # example1 every bin is 0; the rank-one problem has live bins on both
    # sides, so the message numbering of every (mu1, mu2) and the G (x) H
    # cross term are reached through the decoder.  With N1 != N2, mixing up
    # mu1 and mu2 in the bins' numbering across the mus shows.
    rho, m_a, m_b = _rotated_rank_one_problem()
    cases = [(example1.rho_ab, example1.m_a, example1.m_b,
              ProtocolParams(n=2, k=1, p=2, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5,
                             seed=1), [0, 0, 0, 0]),
             (rho, m_a, m_b, ProtocolParams(n=3, k=0, p=2, sides=((2, 2), (2, 2)), eta=0.5,
                                            delta=0.7, seed=1), [2, 2, 3, 3]),
             (rho, m_a, m_b, ProtocolParams(n=3, k=0, p=2, sides=((2, 3), (2, 2)), eta=0.5,
                                            delta=0.7, seed=1), [2, 2, 3, 3, 4]),
             (rho, m_a, m_b, ProtocolParams(n=3, k=0, p=2, sides=((2, 3), (2, 2)), eta=0.1,
                                            delta=0.7, seed=1), [0, 0, 0, 3, 4])]
    for rho_ab, m_a, m_b, params, live in cases:
        n = params.n
        inst = build_distributed_instance(params, m_a, m_b, rho_ab)
        assert [sum(bool(np.any(g)) for g in s.bin_factors)
                for s in inst.side_a + inst.side_b] == live
        cand = assemble_overall_distributed(inst, example1.p_zw)
        p_ext = protocol.extend_map_to_field(example1.p_zw, params.p)
        dims = [2] * n + [2] * n
        interleave = [r for j in range(n) for r in (j, n + j)]
        zs = list(itertools.product(range(p_ext.output_size), repeat=n))
        ref = {}
        (_, num_mu), (_, num_mu2) = params.sides
        num_mus = num_mu * num_mu2
        for i1, i2 in itertools.product(range(num_mu), range(num_mu2)):
            ops_a = [dense.completion(inst.side_a[i1])] + dense.bin_ops(inst.side_a[i1])
            ops_b = [dense.completion(inst.side_b[i2])] + dense.bin_ops(inst.side_b[i2])
            for i, j in itertools.product(range(len(ops_a)), range(len(ops_b))):
                word = loop.decoded_word(inst, (i1, i2), (i, j))
                op = dense.permute_registers(np.kron(ops_a[i], ops_b[j]), dims,
                                             interleave) / num_mus
                if not np.any(op):
                    continue
                for z in zs:
                    pr = (1.0 / len(zs) if word is None
                          else np.prod([p_ext.probs[w, zj] for w, zj in zip(word, z)]))
                    if pr > 0.0:
                        ref[z] = ref.get(z, 0) + pr * op
        ops = dense.candidate_ops(cand)
        assert ref and set(ops) == set(ref) and len(cand.outputs) == len(ref)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4 ** n, 3)) + 1j * rng.standard_normal((4 ** n, 3))
        sandwiches = _spread_sandwiches(cand, w)
        assert set(sandwiches) == set(ref)
        for z, op in ref.items():
            assert np.allclose(ops[z], op, atol=1e-12)
            assert np.allclose(sandwiches[z], w.conj().T @ op @ w, atol=1e-12)


def _spread_sandwiches(cand, w):
    """{z: W^dagger C_z W} of a factored candidate, its word sandwiches spread over z."""
    s_words = cand.word_sandwiches(w.conj().T @ w, lambda: w)
    zs = map(tuple, protocol._digits(cand.outputs, cand.output_size, cand.n).tolist())
    return {z: np.tensordot(cand.probs[:, col], s_words, axes=1) for col, z in enumerate(zs)}


# Per side: its register dimension and, per mu, the column count of each bin,
# 0 for a zero bin of one column.  Every mu of a side has as many bins as the
# decoded array's bin axis, so B's mu 0 ends in a zero bin.
GENERIC_SIDES = [(2, [[2, 0], [1, 3]]),
                 (3, [[2, 1, 0], [1, 2, 1]]),
                 (2, [[1, 2], [2, 0]])]


def _check_generic_candidate(num_sides):
    """The factored candidate of generic sides against the kron-and-interleave reference.

    Generic bin factors on unequal registers check the Kronecker cross
    terms, the interleaving, the zero-bin and zero-probability rules and the
    sandwiches.  The factors are large enough that the bins overshoot I:
    C_w0 = I - sum of the other words is an identity of the decoder, not of
    positivity.
    """
    rng = np.random.default_rng(11)
    n, sides = 2, GENERIC_SIDES[:num_sides]
    dims = [d for d, _ in sides]

    def factor(dim, cols):
        if not cols:
            return np.zeros((dim, 1))
        return (rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))) / 2

    bins = [[[factor(d ** n, c) for c in mu] for mu in mus] for d, mus in sides]
    assert max(max_eigenvalue(sum(g @ g.conj().T for g in b) - np.eye(b[0].shape[0]))
               for side in bins for b in side) > 0.1

    def messages(side_bins, dim):
        grams = [g @ g.conj().T for g in side_bins]
        return [np.eye(dim) - sum(grams)] + grams

    # Every message tuple's word: a completion on any side decodes to w0, the
    # bin tuples cycle through w0 and two other words, and word (1, 0) is
    # decoded only from A's zero bin, message 2 of its mu 0.
    w0, cycle = (0, 1), itertools.cycle([(1, 1), (0, 0), (0, 1)])
    num_mus = tuple(len(side) for side in bins)
    num_bins = tuple(len(side[0]) for side in bins)
    tables = {}
    for mus in itertools.product(*map(range, num_mus)):
        tables[mus] = {
            msgs: (w0 if not all(msgs) else (1, 0) if (mus[0], msgs[0]) == (0, 2)
                   else next(cycle))
            for msgs in itertools.product(*(range(b + 1) for b in num_bins))}
    # The constructor takes them as one array of bin tuples, the base-2 index
    # of the decoded word or -1 for w0.
    decoded = np.full(num_mus + num_bins, -1)
    for mus, table in tables.items():
        for msgs, word in table.items():
            if all(msgs) and word != w0:
                decoded[mus + tuple(i - 1 for i in msgs)] = np.ravel_multi_index(word, (2,) * n)
    inst = SimpleNamespace(decoded=decoded, params=SimpleNamespace(p=2, n=n), w0=w0)
    for mus, table in tables.items():
        assert {msgs: loop.decoded_word(inst, mus, msgs) for msgs in table} == table
    p_ext = StochasticMap((2,), 3, np.array([[0.5, 0.5, 0.0], [0.2, 0.0, 0.8]]))
    # The constructor takes each side's bin factors side by side, with their column ends.
    stacked = [([g for mu in side for g in mu], d ** n) for side, d in zip(bins, dims)]
    stacked = [(protocol._hstack(flat, dim), np.cumsum([0] + [g.shape[1] for g in flat]))
               for flat, dim in stacked]
    cand = protocol.FactoredCandidate(decoded, w0, stacked, p_ext, n, dims)
    registers = [d for d in dims for _ in range(n)]
    interleave = [s * n + j for j in range(n) for s in range(num_sides)]
    word_ops = {}
    for mus, table in tables.items():
        ops = [messages(side[mu], d ** n) for side, mu, d in zip(bins, mus, dims)]
        for msgs, word in table.items():
            op = dense.permute_registers(kron_all([o[i] for o, i in zip(ops, msgs)]),
                                         registers, interleave)
            word_ops[word] = word_ops.get(word, 0) + op / len(tables)
    dim = math.prod(dims) ** n
    assert not np.any(word_ops[(1, 0)])
    assert np.allclose(sum(word_ops.values()), np.eye(dim), atol=1e-12)
    ref = {}
    for word, op in word_ops.items():
        for z in itertools.product(range(3), repeat=n):
            pr = p_ext.probs[word[0], z[0]] * p_ext.probs[word[1], z[1]]
            if pr > 0.0 and np.any(op):
                ref[z] = ref.get(z, 0) + pr * op
    ops = dense.candidate_ops(cand)
    assert set(ops) == set(ref) == set(itertools.product(range(3), repeat=n)) - {(2, 1)}
    w = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
    sandwiches = _spread_sandwiches(cand, w)
    assert set(sandwiches) == set(ref)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    for z, op in ref.items():
        close(ops[z], op)
        close(sandwiches[z], w.conj().T @ op @ w)
    # The support of a mixed state on the interleaved registers, with the
    # target and the candidate's W^dagger W taken from single-copy blocks.
    rho = random_density(rng, math.prod(dims), tuple(dims))
    tgt = protocol.ProductTarget([random_psd(rng, math.prod(dims)) / 8 for _ in range(3)], n)
    _assert_product_form_matches_apply(TensorPower(rho, n), tgt, cand)


def test_distributed_candidate_on_generic_side_operators():
    # No bundled problem pairs two generic bins on unequal registers
    # (d_A = 2, d_B = 3); these reach the G (x) H cross term.
    _check_generic_candidate(2)


@pytest.mark.parametrize("num_sides", [1, 3])
def test_candidate_on_generic_operators_of_one_and_three_sides(num_sides):
    # One side is the point-to-point candidate; three sides fold the
    # Kronecker columns over a third register (d_C = 2).
    _check_generic_candidate(num_sides)


def test_distributed_needs_l2():
    with pytest.raises(ValueError):
        build_distributed_instance(
            ProtocolParams(n=2, k=1, p=2, sides=((1, 1),)),
            BASIS, BASIS, DensityOperator(np.eye(4) / 4, (2, 2)))


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(n=2, k=0, p=4, sides=((1, 1),))
    with pytest.raises(ValueError):
        ProtocolParams(n=2, k=0, p=2, sides=((1, 1),), eta=1.5)
    with pytest.raises(ValueError):
        ProtocolParams(n=2, k=0, p=2, sides=((1, 1),), delta=0.0)


def test_huge_prime_is_refused_at_the_cap_at_once(monkeypatch):
    # The parameters, the ensemble spec and the grand ensemble refuse a p
    # above the cap before trial division, which would not end on 2**61 - 1.
    def refuse(p):
        raise AssertionError(f"primality test of {p}")

    monkeypatch.setattr(codes, "is_prime", refuse)
    start = time.perf_counter()
    for build in (lambda p: ProtocolParams(n=1, k=0, p=p, sides=((0, 1),)),
                  lambda p: CodeEnsembleSpec(p, 1, 0, 0, 1),
                  lambda p: codes.pairwise_independence_check(p, 1, 0, 0)):
        with pytest.raises(ValueError, match="exceeds the desk-scale cap"):
            build(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0


def test_absurd_block_length_is_refused_at_once(tmp_path):
    # The caps are bit-length tests: no p**n is formed for n = 10**7.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape("p**n exceeds the desk-scale cap")):
        ProtocolParams(n=10 ** 7, k=0, p=3, sides=((1, 1),))
    assert time.perf_counter() - t0 < 0.5
    out = tmp_path / "err.json"
    assert main(["simulate", "--p", "3", "--n", "30000000", "--k", "0", "--l", "1",
                 "--spec", bundled_example_path(2), "--out", str(out)]) == EXIT_BAD_PROTOCOL
    assert json.loads(out.read_text())["error"] == "p**n exceeds the desk-scale cap"


@pytest.mark.parametrize("topology", ["p2p", "distributed"])
def test_side_a_codes_are_those_of_sample_ensemble(topology):
    # G is drawn first and then each side's shift tables, side after side:
    # side A's codes are the ensemble's in either topology, and side B's
    # shift tables are the next draws of the same stream.
    params = ProtocolParams(n=3, k=1, p=3, sides=((2, 3), (1, 2))[:1 if topology == "p2p" else 2],
                            eta=0.1, delta=0.5, seed=7)
    if topology == "p2p":
        inst = build_instance(params, BASIS, MIXED)
    else:
        rho = DensityOperator(np.kron(np.eye(2) / 2, np.eye(2) / 2), (2, 2))
        inst = build_distributed_instance(params, BASIS, BASIS, rho)
    want = sample_ensemble(CodeEnsembleSpec(3, 3, 1, 2, 3, seed=7))
    assert len(inst.mus) == len(want)
    for mu, code in zip(inst.mus, want):
        assert np.array_equal(mu.codewords, _bin_words(code.G, code.h, 3))
    if topology == "distributed":
        rng = np.random.default_rng(7)
        for shape in [(1, 3)] + [(9, 3)] * 3:        # G and side A's shift tables
            rng.integers(0, 3, size=shape)
        for mu in inst.side_b:
            assert np.array_equal(mu.codewords,
                                  _bin_words(want[0].G, rng.integers(0, 3, size=(3, 3)), 3))


def _bin_words(g, h, p):
    """The codeword indices of the code (G = g, shift table h), bin by bin: (p**l, p**k)."""
    return codes.codeword_indices(g[None], h[None], p)[0].reshape(p ** g.shape[0], -1).T


@pytest.mark.parametrize("p", [2, 3], ids=lambda p: f"p{p}")
@pytest.mark.parametrize("k", [0, 1, 2], ids=lambda k: f"k{k}")
def test_side_codewords_and_gammas_match_the_redrawn_codes(p, k):
    # Each code of both sides against the UccCode redrawn from the seed: its
    # codewords are the code's codeword indices bin by bin, and its gamma is
    # the code's multiplicity table, in the same (ascending) order.
    params = ProtocolParams(n=3, k=k, p=p, sides=((1, 3), (2, 2)), eta=0.1, delta=0.5, seed=5)
    inst = build_distributed_instance(params, BASIS, BASIS, DensityOperator(np.eye(4) / 4, (2, 2)))
    g, tables = loop.redraw(params)
    for side, h, (l, num) in zip(inst.sides, tables, params.sides):
        assert side.codewords.shape == (num, p ** l, p ** k) and len(side.mus) == num
        for mu, table in enumerate(h):
            code = UccCode(p, 3, k, l, g, table)
            assert np.array_equal(side.codewords[mu], _bin_words(code.G, code.h, p))
            want = codes.multiplicity_table(code)
            assert list(side.mus[mu].gamma.items()) == list(want.items())


# ---------------------------------------------------------------------------
# Regression oracles for the factored build and the vectorized masks.

def _brute_typical_diag(diags, letters, delta):
    """Loop oracle: diag mask of index tuples whose per-letter eigenvalue-group
    counts are strong-typical, for diagonal operators with exact entries."""
    n = len(letters)
    mask = []
    for idx in itertools.product(range(len(diags[0])), repeat=n):
        ok = True
        for w in set(letters):
            vals = diags[w]
            pos = [j for j in range(n) if letters[j] == w]
            for level in set(vals):
                prob = sum(v for v in vals if v == level)
                count = sum(1 for j in pos if vals[idx[j]] == level)
                if prob == 0:
                    ok = ok and count == 0
                else:
                    ok = ok and abs(count / len(pos) - prob) <= delta * prob + 1e-12
        mask.append(float(ok))
    return np.diag(mask)


@pytest.mark.parametrize("diag", [(0.5, 0.5), (0.7, 0.3), (1.0, 0.0),
                                  (0.5, 0.25, 0.25), (0.6, 0.4, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("delta", [0.3, 0.6])
def test_typical_projector_matches_loop_oracle(diag, n, delta):
    rho = DensityOperator(np.diag(diag).astype(complex), (len(diag),))
    want = _brute_typical_diag([list(diag)], [0] * n, delta)
    assert np.allclose(typical_projector(rho, n, delta), want, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cond_typical_projector_matches_loop_oracle(n):
    # Degenerate, mixed-degenerate and pure diagonal post-states on a qutrit.
    diags = [[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [1.0, 0.0, 0.0]]
    ens = CanonicalEnsemble(np.full(3, 1.0 / 3), tuple(np.diag(d) for d in diags))
    rng = np.random.default_rng(n)
    for _ in range(4):
        word = tuple(int(x) for x in rng.integers(0, 3, size=n))
        for delta in (0.3, 0.6):
            want = _brute_typical_diag(diags, list(word), delta)
            assert np.allclose(cond_typical_projector(ens, word, delta), want, atol=1e-10)


def test_factored_abar_matches_cut_post_state():
    # A projective measurement in a basis rotated against rho's eigenbasis:
    # the post-states are pure, do not commute with rho, and have nonempty
    # conditional typical projectors.
    rho = DensityOperator(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), (2,))
    u = random_unitary(np.random.default_rng(5), 2)
    m = Povm(tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(2)))
    n = 4
    params = ProtocolParams(n=n, k=0, p=2, sides=((n, 4),), eta=0.1, delta=0.6, seed=1)
    inst = build_instance(params, m, rho)
    s = kron_power(psd_pinv_sqrt(rho.mat), n)
    norm = params.p ** n / ((1 + params.eta) * params.p ** (params.k + params.sides[0][0]))
    assert inst.abar
    for w, op in inst.abar.items():
        cut = cut_post_state(inst.sides[0].ens, dense.pi_rho(inst), w, params.delta)
        ref = hermitian_part(s @ cut @ s) * (norm * inst.sides[0].ens.weight_of(w))
        assert np.linalg.norm(ref) > 1e-6
        assert np.linalg.norm(op - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def rotated_instance():
    rho, m = rotated_qubit_problem()
    params = ProtocolParams(n=4, k=0, p=2, sides=((3, 2),), eta=0.1, delta=0.6, seed=1)
    return build_instance(params, m, rho)


def test_factored_side_matches_dense_construction(rotated_instance):
    # The dense construction: Pi_mu from eigh of I - B^dagger Sigma B on
    # range(Pi_rho), A_w the Gram of Pi_mu X_w, bins, completion and defect
    # sums of those.  On the default and bundled problems every bin is 0;
    # here pruning is partial and bins survive.
    inst = rotated_instance
    eye = np.eye(inst.mus[0].typical.shape[0])
    vals, vecs = np.linalg.eigh(dense.pi_rho(inst))
    basis = vecs[:, vals > 0.5]
    cuts, live_bins, defect = [], 0, 0.0
    _, (tables,) = loop.redraw(inst.params)
    for mu, table in zip(inst.mus, tables):
        sigma = sum(mu.gamma[w] * inst.abar[w] for w in mu.a_ops)
        vals, vecs = np.linalg.eigh(np.eye(basis.shape[1]) - basis.conj().T @ sigma @ basis)
        v = basis @ vecs[:, vals >= -protocol.PRUNE_TOL]
        pi_mu = v @ v.conj().T
        a_ops = {w: pi_mu @ x @ (pi_mu @ x).conj().T for w, x in mu.factors.items()}
        bins = [a_ops.get(tuple(h), 0 * eye) for h in table.tolist()]  # k = 0
        total = sum(bins)
        defect = max(defect, max(0.0, max_eigenvalue(total - eye)))
        cuts.append(basis.shape[1] - v.shape[1])
        live_bins += sum(np.linalg.norm(b) > 1e-6 for b in bins)
        assert np.allclose(dense.sigma(mu), sigma, atol=1e-10)
        assert np.allclose(dense.pi_mu(mu), pi_mu, atol=1e-10)
        assert set(mu.a_ops) == set(a_ops)
        for w, op in a_ops.items():
            assert np.allclose(mu.a_ops[w], op, atol=1e-10)
        assert len(dense.bin_ops(mu)) == len(bins)
        for got, want in zip(dense.bin_ops(mu), bins):
            assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(dense.completion(mu), eye - total, atol=1e-10)
    assert cuts == [1, 2] and live_bins == 12
    assert inst.sub_povm_defect == pytest.approx(defect, abs=1e-10)


def _generic_two_letter_problem():
    """(rho, M): a qubit state and a noisy two-outcome measurement rotated against it.

    The two post-states have distinct, non-degenerate spectra (about
    (0.31, 0.69) and (0.30, 0.70)) and different eigenbases.  With n = 5,
    k = 0, l = 4, p = 2, N = 2, eta = 0.1, delta = 0.7 and seed 2, 12 built
    words in two type classes have nonempty conditional typical projectors.
    """
    rho = DensityOperator(np.array([[0.6, 0.1 - 0.05j], [0.1 + 0.05j, 0.4]]), (2,))
    u = random_unitary(np.random.default_rng(3), 2)
    lam0 = u @ np.diag([0.65, 0.4]) @ u.conj().T
    return rho, Povm((lam0, np.eye(2) - lam0))


@pytest.mark.parametrize("problem, params", [
    (rotated_qubit_problem, ProtocolParams(n=4, k=0, p=2, sides=((3, 2),), eta=0.1, delta=0.6,
                                           seed=1)),
    (_generic_two_letter_problem, ProtocolParams(n=5, k=0, p=2, sides=((4, 2),), eta=0.1,
                                                 delta=0.7, seed=2)),
])
def test_type_class_sharing_matches_per_word_construction(monkeypatch, problem, params):
    # The build makes X_w once per type class and permutes its registers for
    # the other words of the class; every Abar_w must equal the one built
    # from w's own conditional typical columns.
    rho, m = problem()
    per_word = protocol._cond_typical_columns
    calls = []
    monkeypatch.setattr(protocol, "_cond_typical_columns",
                        lambda *a: calls.append(a[1]) or per_word(*a))
    memo.clear()            # so the type classes are built, and their columns counted, here
    inst = build_instance(params, m, rho)
    n, d = params.n, rho.dim
    types = {tuple(sorted(w)) for w in inst.abar}
    assert len(calls) == len(types)
    assert {tuple(w) for w in calls} == types
    # Two words of one type with their letters in different places and
    # nonempty factors, one of them sorted by a permutation that is not its
    # own inverse.
    live = [w for w in inst.abar if inst.abar.factors[w].shape[1]]
    assert len({tuple(sorted(w)) for w in live}) < len(live)
    assert any(not np.array_equal(np.argsort(np.argsort(w)), np.argsort(w)) for w in live)
    u, inv = protocol._typical_factor(rho.mat, n, params.delta)
    spectra = [protocol._spectrum(s) for s in inst.sides[0].ens.post_states]
    idx = protocol.all_vectors(n, d)
    norm = params.p ** n / ((1 + params.eta) * params.p ** (params.k + params.sides[0][0]))
    for w, got in inst.abar.items():
        cols, eig = per_word(spectra, w, params.delta, idx)
        x = cols * np.sqrt(np.clip(eig, 0.0, None) * (norm * inst.sides[0].ens.weight_of(w)))
        x = (u * inv) @ (u.conj().T @ x)
        want = x @ x.conj().T
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_code_without_built_words_has_zero_defect():
    # At n = 4 and delta = 0.25 only 6 of the 16 words are typical; with two
    # words per code, mu = 1 builds none, so its Y and G have no columns.
    params = ProtocolParams(n=4, k=0, p=2, sides=((1, 2),), eta=0.1, delta=0.25, seed=1)
    inst = build_instance(params, BASIS, MIXED)
    assert [len(mu.factors) for mu in inst.mus] == [1, 0]
    empty = inst.mus[1]
    assert empty.v_cut.shape == (16, 0) and empty.defect == 0.0
    assert all(g.shape == (16, 0) for g in empty.bin_factors)
    assert np.allclose(dense.completion(empty), np.eye(16))
    assert inst.sub_povm_defect == 0.0
    cand = assemble_overall(inst, IDENT_MAP)
    target = target_overall(BASIS, IDENT_MAP, 4)
    k = faithfulness(TensorPower(MIXED, 4), target, cand)
    want = dense.faithfulness(kron_power(MIXED.mat, 4), dense.target_ops(target),
                              dense.candidate_ops(cand))
    assert k == pytest.approx(want, abs=1e-10)


@pytest.fixture(scope="module")
def completion_only_instance():
    # Like the default problem at n = 8: every bin is 0, some of them with
    # columns that pruning zeroed.
    return build_instance(ProtocolParams(n=3, k=0, p=2, sides=((2, 1),), eta=0.1, delta=0.7,
                                         seed=1), BASIS, MIXED)


@pytest.mark.parametrize("instance, probs", [("rotated_instance", [[0.9, 0.1], [0.2, 0.8]]),
                                             ("completion_only_instance", np.eye(2))])
def test_p2p_candidate_matches_dense_reference(request, instance, probs):
    # The factored candidate against (1/N) sum_mu of the dense completion and
    # bins grouped by decoded word, spread over the outputs by P^n_{Z|W}.
    # Under the identity map a zero bin's word would show up as an extra key.
    inst = request.getfixturevalue(instance)
    n = inst.params.n
    p_zw = StochasticMap((2,), 2, np.asarray(probs, dtype=float))
    cand = assemble_overall(inst, p_zw)
    word_ops = {}
    for i1, mu in enumerate(inst.mus):
        for i, op in enumerate([dense.completion(mu)] + dense.bin_ops(mu)):
            word = loop.decoded_word(inst, (i1,), (i,))
            word_ops[word] = word_ops.get(word, 0) + op / len(inst.mus)
    ref = {}
    for word, op in word_ops.items():
        for z in itertools.product(range(2), repeat=n):
            pr = np.prod([p_zw.probs[w, zj] for w, zj in zip(word, z)])
            if np.any(op) and pr > 0.0:
                ref[z] = ref.get(z, 0) + pr * op
    ops = dense.candidate_ops(cand)
    assert set(ops) == set(ref) and len(cand.outputs) == len(ref)
    rng = np.random.default_rng(0)
    dim = inst.mus[0].typical.shape[0]
    w = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    sandwiches = _spread_sandwiches(cand, w)
    assert set(sandwiches) == set(ref)
    for z, op in ref.items():
        assert np.allclose(ops[z], op, atol=1e-12)
        assert np.allclose(sandwiches[z], w.conj().T @ op @ w, atol=1e-10)


@pytest.mark.parametrize("p, n, k, l", [(2, 4, 0, 3), (2, 4, 2, 1), (3, 3, 1, 1)])
def test_bin_hits_match_word_tuples(p, n, k, l):
    # Each bin's codewords looked up by base-p index in the mask of a word
    # set, against a set of word tuples; with k = 2 the two rows of G are
    # equal, so bins repeat words.
    rng = np.random.default_rng(100 * p + 10 * n + k)
    g = rng.integers(0, p, size=(k, n))
    g[1:] = g[:1]
    code = UccCode(p, n, k, l, g, rng.integers(0, p, size=(p ** l, n)))
    codewords = all_codewords(code)
    distinct = np.unique(codewords, axis=0)
    picked = distinct[rng.choice(len(distinct), size=len(distinct) // 2, replace=False)]
    words = {tuple(w) for w in picked.tolist() + rng.integers(0, p, (4, n)).tolist()}
    mask = np.zeros(p ** n, dtype=bool)
    mask[[np.ravel_multi_index(w, (p,) * n) for w in words]] = True
    per_bin = codewords.reshape(p ** k, p ** l, n).transpose(1, 0, 2).tolist()
    want = [[tuple(w) in words for w in bin_words] for bin_words in per_bin]
    indices = protocol._bin_indices(code.G[None], code.h[None], p)
    hits = mask[indices][0]
    assert hits.shape == (p ** l, p ** k) and np.array_equal(hits, want)
    assert hits.any() and not hits.all()
    assert np.array_equal(protocol._digits(indices[0], p, n), per_bin)


def _assert_product_form_matches_apply(state, target, candidate=None):
    """Single-copy-block sandwiches against T_z applied to the dense support factor W.

    Checks W^dagger T_z W for every z, W^dagger W and, for a factored
    candidate, every W^dagger C_z W spread from its word sandwiches, each to
    1e-12 of its scale.
    """
    w = state.w

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    ops = dense.target_ops(target)
    close(state.sandwiches(np.stack(target.singles), np.array(list(ops))),
          np.array([w.conj().T @ (op @ w) for op in ops.values()]))
    close(state.gram(), w.conj().T @ w)
    if candidate is not None:
        s_words = candidate.word_sandwiches(state.gram(), lambda: w)
        ops = dense.candidate_ops(candidate)
        close(np.tensordot(candidate.probs.T, s_words, axes=1),
              np.array([w.conj().T @ op @ w for op in ops.values()]))


def _support_case(name, example1, rotated_instance):
    """(state, target, candidate or None) of one product-form sandwich case."""
    rng = np.random.default_rng(23)
    if name == "bell":       # rank 1: every level keeps one prefix
        params = ProtocolParams(n=3, k=1, p=2, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5, seed=0)
        inst = build_distributed_instance(params, example1.m_a, example1.m_b, example1.rho_ab)
        return (TensorPower(example1.rho_ab, 3),
                target_overall_distributed(example1.m_a, example1.m_b, example1.p_zw, 2, 3),
                assemble_overall_distributed(inst, example1.p_zw))
    if name == "rotated":    # full rank, complex, live bins
        rho, m = rotated_qubit_problem()
        p_zw = StochasticMap((2,), 2, np.array([[0.9, 0.1], [0.2, 0.8]]))
        return (TensorPower(rho, 4), target_overall(m, p_zw, 4),
                assemble_overall(rotated_instance, p_zw))
    dim, n = {"mixed_qubit": (2, 4), "mixed_two_qubit": (4, 3), "rank2_qutrit": (3, 3)}[name]
    if name == "rank2_qutrit":   # some prefixes kept, some dropped
        rho = _state_with_spectrum(rng, [0.7, 0.3, 0.0])
    else:
        rho = random_density(rng, dim)
    m = random_complete_povm(rng, dim, 2)
    p_zw = StochasticMap((2,), 3, rng.dirichlet(np.ones(3), size=2))
    return TensorPower(rho, n), target_overall(m, p_zw, n), None


@pytest.mark.parametrize("name", ["bell", "rotated", "mixed_qubit", "mixed_two_qubit",
                                  "rank2_qutrit"])
def test_product_form_sandwiches_match_apply(name, example1, rotated_instance):
    state, target, candidate = _support_case(name, example1, rotated_instance)
    if name == "rotated":
        assert sum(np.any(g) for mu in rotated_instance.mus for g in mu.bin_factors) > 0
    _assert_product_form_matches_apply(state, target, candidate)


def _counting_eigvalsh(monkeypatch, as_complex=False):
    """Patch np.linalg.eigvalsh to record the dtype and stack size of every call."""
    eigvalsh, seen = np.linalg.eigvalsh, []

    def wrapped(a, *args, **kwargs):
        seen.append((a.dtype, a.shape[0] if a.ndim == 3 else 1))
        return eigvalsh(a.astype(complex) if as_complex else a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", wrapped)
    return seen


@pytest.mark.parametrize("name, real", [("default", True), ("classical_live", True),
                                        ("rotated", False)])
def test_k_real_solver_equals_complex_solver(monkeypatch, rotated_instance, name, real):
    # The maximally mixed qubit gives T_z - C_z with an exactly zero imaginary
    # part, which takes the real solver; the rotated instance does not.  The
    # default candidate stores w0 only, so its gaps are diagonal: the dense
    # route is forced.  The classical qubit at l = n stores other words and
    # takes the dense route, through F^dagger W, in real arithmetic.
    if name == "default":
        params = ProtocolParams(n=5, k=0, p=2, sides=((4, 2),), eta=0.1, delta=0.7, seed=0)
        cand = assemble_overall(build_instance(params, BASIS, MIXED), IDENT_MAP)
        args = (TensorPower(MIXED, 5), target_overall(BASIS, IDENT_MAP, 5), cand)
        monkeypatch.setattr(protocol, "_diagonal_terms", lambda *a: None)
    elif name == "classical_live":
        args = _diagonal_route_case(name, 4, None, None)
        assert len(args[2].words) > 1
    else:
        rho, m = rotated_qubit_problem()
        p_zw = StochasticMap((2,), 2, np.array([[0.9, 0.1], [0.2, 0.8]]))
        args = (TensorPower(rho, 4), target_overall(m, p_zw, 4),
                assemble_overall(rotated_instance, p_zw))
    with monkeypatch.context() as patch:
        seen = _counting_eigvalsh(patch)
        k = faithfulness(*args)
    assert seen and all((dtype.kind == "f") == real for dtype, _ in seen)
    with monkeypatch.context() as patch:
        _counting_eigvalsh(patch, as_complex=True)
        assert abs(faithfulness(*args) - k) <= 1e-12


def test_k_unchanged_with_one_key_per_chunk(monkeypatch, rotated_instance):
    rho, m = rotated_qubit_problem()
    p_zw = StochasticMap((2,), 2, np.array([[0.9, 0.1], [0.2, 0.8]]))
    cand = assemble_overall(rotated_instance, p_zw)
    tgt = target_overall(m, p_zw, 4)
    k = faithfulness(TensorPower(rho, 4), tgt, cand)
    monkeypatch.setattr(protocol, "SPECTRUM_BLOCK", 1)
    seen = _counting_eigvalsh(monkeypatch)
    assert abs(faithfulness(TensorPower(rho, 4), tgt, cand) - k) <= 1e-12
    assert len(seen) == len(cand.outputs) == 16 and {size for _, size in seen} == {1}


def test_p2p_n8_op_uses_single_copy_blocks(tmp_path, monkeypatch):
    # The benchmark's point-to-point op (maximally mixed qubit, r = 256, every
    # bin 0) takes K from the diagonals of single-copy blocks: no T_z is
    # applied, no d**n x r support factor or r x r sandwich is formed and no
    # eigvalsh is taken beyond the 2 x 2 ones that check the input state and
    # POVM.  The pruning cut comes from the Gram of Y, with no SVD, and still
    # leaves every bin exactly 0.
    def refuse(*args, **kwargs):
        raise AssertionError("the dense path was taken")

    eigvalsh = np.linalg.eigvalsh

    def single_copy_eigvalsh(a, *args, **kwargs):
        if np.shape(a)[-1] > 2:
            refuse()
        return eigvalsh(a, *args, **kwargs)

    built = []

    def build(*args):
        built.append(build_instance(*args))
        return built[-1]

    monkeypatch.setattr(protocol.TensorPower, "w", property(refuse))
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", single_copy_eigvalsh)
    monkeypatch.setattr(protocol.TensorPower, "sandwiches", refuse)
    monkeypatch.setattr(protocol, "build_instance", build)
    out = tmp_path / "k.json"
    for seed in range(8):
        assert main(["simulate", "--mode", "p2p", "--n", "8", "--k", "0", "--l", "6",
                     "--N", "2", "--delta", "0.7", "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["K"] == pytest.approx(1.9921875, abs=1e-12)
        assert all(mu.v_cut.shape[1] and not np.any(g)
                   for mu in built[-1].mus for g in mu.bin_factors)
    assert len(built) == 8


def _assert_no_subnormals(arrays):
    tiny = np.finfo(float).tiny
    for a in arrays:
        parts = np.abs(np.concatenate([np.real(a).ravel(), np.imag(a).ravel()]))
        assert not np.any((parts > 0) & (parts < tiny))


def _side_arrays(sides):
    for s in sides:
        yield s.typical
        yield s.v_cut
        yield from s.factors.values()
        yield from s.a_factors.values()
        yield from s.bin_factors


def test_factors_carry_no_subnormals(example1, example2, rotated_instance):
    # No dust below the smallest normal double may reach LAPACK from the side
    # factors, the cut directions or the support factor of rho^{(x) n}.
    inst = rotated_instance
    _assert_no_subnormals(_side_arrays(inst.mus))
    _assert_no_subnormals([TensorPower(inst.sides[0].rho, inst.params.n).w])
    for spec, p in ((example1, 2), (example2, 3)):
        params = ProtocolParams(n=5, k=1, p=p, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5, seed=0)
        dist = build_distributed_instance(params, spec.m_a, spec.m_b, spec.rho_ab)
        _assert_no_subnormals(_side_arrays(dist.side_a + dist.side_b))
        _assert_no_subnormals([TensorPower(spec.rho_ab, 5).w])


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_faithfulness_absent_candidate_is_target_trace(seed):
    # Under the identity map a candidate has only the outputs of its stored
    # words: a z outside them contributes Tr{T_z rho}.  Compare with the full
    # trace norm on every z of the dense reference.
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2)
    m = random_complete_povm(rng, 2, 2)
    params = ProtocolParams(n=3, k=0, p=2, sides=((2, 2),), eta=0.1, delta=0.3, seed=seed)
    cand = assemble_overall(build_instance(params, m, rho), IDENT_MAP)
    tgt = target_overall(m, IDENT_MAP, 3)
    assert 0 < len(cand.outputs) < 2 ** 3
    want = dense.faithfulness(kron_power(rho.mat, 3), dense.target_ops(tgt),
                              dense.candidate_ops(cand))
    assert faithfulness(TensorPower(rho, 3), tgt, cand) == pytest.approx(want, abs=1e-10)


def _state_with_spectrum(rng, eigs):
    u = random_unitary(rng, len(eigs))
    return DensityOperator((u * np.asarray(eigs, dtype=float)) @ u.conj().T, (len(eigs),))


@given(st.integers(0, 10_000), st.sampled_from(["rank1", "rank2", "near_pure"]))
@settings(max_examples=20, deadline=None)
def test_faithfulness_matches_dense_reference(seed, kind):
    # K on the support of rho_n against the dense-root formula, on rank-deficient
    # states and on a near-pure qubit whose smallest eigenvalue product (1e-12)
    # lies below a 1e-10 relative cutoff, for the candidate built on the state.
    rng = np.random.default_rng(seed)
    if kind == "rank1":
        rho, n = _state_with_spectrum(rng, [1.0, 0.0, 0.0]), 2
    elif kind == "rank2":
        a = rng.uniform(0.1, 0.9)
        rho, n = _state_with_spectrum(rng, [a, 1.0 - a, 0.0]), 2
    else:
        rho, n = _state_with_spectrum(rng, [1.0 - 1e-4, 1e-4]), 3
    m = random_complete_povm(rng, rho.dim, 2)
    p_zw = StochasticMap((2,), 3, rng.dirichlet(np.ones(3), size=2))
    tgt = target_overall(m, p_zw, n)
    params = ProtocolParams(n=n, k=0, p=2, sides=((n, 2),), eta=0.1, delta=0.6, seed=seed)
    cand = assemble_overall(build_instance(params, m, rho), p_zw)
    want = dense.faithfulness(kron_power(rho.mat, n), dense.target_ops(tgt),
                              dense.candidate_ops(cand))
    assert faithfulness(TensorPower(rho, n), tgt, cand) == pytest.approx(want, abs=1e-10)


def test_faithfulness_keeps_tiny_eigenvalues(monkeypatch):
    # The 1e-12 eigenvector of a near-pure qubit's third tensor power stays in
    # the support.  Measured in its eigenbasis against the constant candidate
    # C_z = I on z = (0, 0, 0) only, K = sum_(z != 000) lambda_z twice: once
    # in the trace norm at z = 000 and once as the absent mass.  Dropping the
    # tail product lambda_111 = eps**3 from W would take eps**3 off the first,
    # on the diagonal route and on the dense one.
    eps = 1e-4
    state = TensorPower(DensityOperator(np.diag([1.0 - eps, eps]), (2,)), 3)
    assert state.rank == 8
    tgt = protocol.ProductTarget([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 3)
    cand = protocol.FactoredCandidate(np.full((1, 1), -1), (0, 0, 0),
                                      [(np.zeros((8, 1)), np.array([0, 1]))],
                                      StochasticMap((2,), 2, np.array([[1.0, 0.0], [1.0, 0.0]])),
                                      3, (2,))
    assert cand.outputs.tolist() == [0]
    want = 2 * (1.0 - (1.0 - eps) ** 3)
    assert protocol._diagonal_terms(tgt, state, cand) is not None
    assert abs(faithfulness(state, tgt, cand) - want) <= eps ** 3 / 10
    monkeypatch.setattr(protocol, "_diagonal_terms", lambda *a: None)
    assert abs(faithfulness(state, tgt, cand) - want) <= eps ** 3 / 10


@pytest.mark.parametrize("kind", ["real", "complex", "fortran"])
def test_kron_columns_match_kron_all(kind):
    # The columns of kron_all(mats) at the index rows of ``cols``, on real,
    # complex and Fortran-ordered factors (a transposed or sliced basis is one),
    # rectangular and of unequal sizes, with repeated index rows.
    rng = np.random.default_rng(len(kind))
    shapes = [(2, 3), (3, 2), (2, 2), (4, 3)]
    mats = [rng.standard_normal(s) + (1j * rng.standard_normal(s) if kind == "complex" else 0.0)
            for s in shapes]
    if kind == "fortran":
        mats = [np.asfortranarray(m) for m in mats]
        assert not any(m.flags.c_contiguous for m in mats)
    widths = [s[1] for s in shapes]
    cols = rng.integers(0, widths, size=(60, len(shapes)))
    got = protocol._kron_columns(mats, cols)
    want = kron_all(mats)[:, np.ravel_multi_index(cols.T, widths)]
    assert got.dtype == (np.complex128 if kind == "complex" else np.float64)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("d, nz, n", [(2, 3, 3), (3, 2, 2)])
def test_product_target_matches_dense(d, nz, n):
    rng = np.random.default_rng(d * 10 + n)
    singles = [random_psd(rng, d) for _ in range(nz)]
    tgt = protocol.ProductTarget(singles, n)
    rho = random_density(rng, d).mat
    traces, rho_n = tgt.traces(TensorPower(rho, n)), kron_power(rho, n)
    assert traces.shape == (nz,) * n
    for z in itertools.product(range(nz), repeat=n):
        t_z = kron_all([singles[j] for j in z])
        assert traces[z] == pytest.approx(np.vdot(rho_n, t_z), abs=1e-10)


@pytest.mark.parametrize("p, n, l, l2", [(2, 3, 0, 1), (3, 3, 0, 1), (3, 4, 1, 0)])
def test_one_draw_per_side_keeps_the_per_table_stream(p, n, l, l2):
    # Each side draws its N shift tables in one call; its codewords are those
    # of the tables of one draw per code, G first and side A before side B,
    # with p**l n odd (3 and 9) and even (6, 12 and 4).
    params = ProtocolParams(n=n, k=1, p=p, sides=((l, 5), (l2, 3)), eta=0.1, delta=0.5, seed=11)
    inst = build_distributed_instance(params, BASIS, BASIS, DensityOperator(np.eye(4) / 4, (2, 2)))
    g, tables = loop.redraw(params)
    for side, h, (l_s, num) in zip(inst.sides, tables, params.sides):
        assert side.codewords.shape == (num, p ** l_s, p)
        for words, table in zip(side.codewords, h):
            assert np.array_equal(words, _bin_words(g, table, p))


# ---------------------------------------------------------------------------
# Protocol invariants on generic instances.

def _assert_side_invariants(sides, dim):
    eye = np.eye(dim)
    for s in sides:
        assert np.max(np.abs(sum(dense.bin_ops(s)) + dense.completion(s) - eye)) < 1e-9
        for a in s.a_ops.values():
            assert min_eigenvalue(dense.pi_mu(s) - a) >= -1e-9


@given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.booleans())
@settings(max_examples=15, deadline=None)
def test_p2p_invariants_generic(seed, p, rank_one):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2)
    m = random_rank_one_povm(rng, 2, p) if rank_one else random_complete_povm(rng, 2, p)
    n = 3
    params = ProtocolParams(n=n, k=int(rng.integers(0, 2)), p=p, sides=((2, 2),), eta=0.1,
                            delta=0.6, seed=seed)
    inst = build_instance(params, m, rho)
    _assert_side_invariants(inst.mus, inst.mus[0].typical.shape[0])
    p_zw = StochasticMap((p,), 2, rng.dirichlet(np.ones(2), size=p))
    tgt = target_overall(m, p_zw, n)
    cand = assemble_overall(inst, p_zw)
    k = faithfulness(TensorPower(rho, n), tgt, cand)
    assert -1e-9 <= k <= 2.0 + 1e-9
    # The factored candidate and the tensor-power state agree with the dense
    # candidate and state.
    dense_cand = dense.candidate_ops(cand)
    assert np.max(np.abs(sum(dense_cand.values()) - np.eye(inst.mus[0].typical.shape[0]))) <= 1e-9
    want = dense.faithfulness(kron_power(rho.mat, n), dense.target_ops(tgt), dense_cand)
    assert k == pytest.approx(want, abs=1e-10)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=10, deadline=None)
def test_distributed_invariants_generic(seed, rank_one):
    rng = np.random.default_rng(seed)
    rho_ab = random_density(rng, 4, (2, 2))
    make = random_rank_one_povm if rank_one else random_complete_povm
    m_a, m_b = make(rng, 2, 2), make(rng, 2, 2)
    params = ProtocolParams(n=2, k=1, p=2, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5, seed=seed)
    inst = build_distributed_instance(params, m_a, m_b, rho_ab)
    _assert_side_invariants(inst.side_a + inst.side_b, 4)
    p_zw = StochasticMap((2,), 2, rng.dirichlet(np.ones(2), size=2))
    tgt = target_overall_distributed(m_a, m_b, p_zw, 2, 2)
    cand = assemble_overall_distributed(inst, p_zw)
    k = faithfulness(TensorPower(rho_ab, 2), tgt, cand)
    assert -1e-9 <= k <= 2.0 + 1e-9
    # The mixed rho_ab gives a support of rank 16: the factored candidate and
    # the tensor-power state agree with the dense candidate and state.
    dense_cand = dense.candidate_ops(cand)
    assert np.max(np.abs(sum(dense_cand.values()) - np.eye(16))) <= 1e-9
    want = dense.faithfulness(kron_power(rho_ab.mat, 2), dense.target_ops(tgt), dense_cand)
    assert k == pytest.approx(want, abs=1e-10)


CLASSICAL = DensityOperator(np.diag([0.7, 0.3]), (2,))
SKEW_MAP = StochasticMap((2,), 2, np.array([[0.8, 0.2], [0.3, 0.7]]))


def _diagonal_route_case(name, n, example1, example2):
    """(state, target, factored candidate) of one case of the diagonal route."""
    if name.startswith("classical"):
        # l = n stores words other than w0; l = 1 stores none.
        params = ProtocolParams(n=n, k=0, p=2, sides=((n if name == "classical_live" else 1, 2),),
                                eta=0.1, delta=0.6, seed=1)
        inst = build_instance(params, BASIS, CLASSICAL)
        return (TensorPower(CLASSICAL, n), target_overall(BASIS, SKEW_MAP, n),
                assemble_overall(inst, SKEW_MAP))
    ex = {"example1": example1, "example2": example2}[name]
    params = ProtocolParams(n=n, k=1, p=ex.p, sides=((1, 2), (1, 2)), eta=0.1, delta=0.5, seed=0)
    inst = build_distributed_instance(params, ex.m_a, ex.m_b, ex.rho_ab)
    return (TensorPower(ex.rho_ab, n),
            target_overall_distributed(ex.m_a, ex.m_b, ex.p_zw, ex.p, n),
            assemble_overall_distributed(inst, ex.p_zw))


@pytest.mark.parametrize("name, n", [("classical", n) for n in range(2, 7)]
                         + [(ex, n) for ex in ("example1", "example2") for n in range(2, 5)]
                         + [("classical_live", 4)])
def test_diagonal_route_matches_dense_candidate(monkeypatch, example1, example2, name, n):
    # A constant candidate on a commuting target (a classical qubit measured in
    # its eigenbasis, P^n(z | w0) unequal over z) or on a rank-one state takes
    # K from r-vectors with no solver; a candidate that stores a word other
    # than w0 keeps the dense route.  Either way K is that of the dense
    # route, forced on the same input.
    state, tgt, cand = _diagonal_route_case(name, n, example1, example2)
    live = name == "classical_live"
    assert (len(cand.words) > 1) == live
    with monkeypatch.context() as patch:
        seen = _counting_eigvalsh(patch)
        k = faithfulness(state, tgt, cand)
    assert bool(seen) == live
    monkeypatch.setattr(protocol, "_diagonal_terms", lambda *a: None)
    assert abs(k - faithfulness(state, tgt, cand)) <= 1e-12


# ---------------------------------------------------------------------------
# The pruning cut from the Gram of Y, and real arithmetic for real problems.

def _tall(rng, rows, s2, real):
    """A rows x len(s2) matrix with squared singular values s2 and random singular vectors."""
    def isometry(m, c):
        a = rng.standard_normal((m, c))
        if not real:
            a = a + 1j * rng.standard_normal((m, c))
        return np.linalg.qr(a)[0]

    c = len(s2)
    return isometry(rows, c) * np.sqrt(s2) @ isometry(c, c).conj().T


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("s2", [
    [1 + protocol.PRUNE_TOL + 1e-8, 0.3, 0.6, 2.5, 4.0],
    [1 + protocol.PRUNE_TOL - 1e-8, 0.3, 0.6, 2.5, 4.0],
    [2.0, 2.0, 2.0, 0.5, 0.5, 1.7],
    [],
], ids=["above-threshold", "below-threshold", "repeated", "empty"])
def test_gram_cut_matches_svd_cut(real, s2):
    # The cut directions span the same space as the SVD's, at a singular
    # value 1e-8 from the threshold on either side, at repeated values and
    # with no column.  Each Y has one value near the threshold: two values
    # 2e-8 apart fix their singular vectors only to about eps / 2e-8, by
    # either method.
    rng = np.random.default_rng(len(s2) + 10 * real)
    y = _tall(rng, 64, s2, real) if s2 else np.zeros((64, 0), dtype=float if real else complex)
    (cut,), (v,), _ = protocol._cut_directions(y[None], y[None].copy())
    got, want = v[:, :cut], dense.svd_cut_directions(y)
    assert not np.any(v[:, cut:])
    assert got.shape == want.shape
    assert got.dtype == (np.float64 if real else np.complex128)
    assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T), initial=0.0) <= 1e-12
    assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), atol=1e-12)


def test_gram_cut_of_a_scaled_partial_permutation_is_exact():
    # The shape of every Y of the benchmark's point-to-point op: each column a
    # scaled unit vector on its own row.  The cut directions are then exact
    # unit vectors, so F = X - V (V^dagger X) is exactly 0 on the cut columns.
    rng = np.random.default_rng(3)
    rows = rng.permutation(256)[:60]
    scales = rng.uniform(0.2, 3.0, size=60)
    y = np.zeros((256, 60))
    y[rows, np.arange(60)] = scales
    (count,), (v,), (f,) = protocol._cut_directions(y[None], y[None].copy())
    cut = scales ** 2 > 1.0 + protocol.PRUNE_TOL
    assert count == cut.sum() > 0 and not np.any(v[:, count:])
    v = v[:, :count]
    assert set(np.abs(v).ravel().tolist()) == {0.0, 1.0}
    assert sorted(np.flatnonzero(np.abs(v).sum(axis=1)).tolist()) == sorted(rows[cut].tolist())
    assert not np.any(f[:, cut]) and np.array_equal(f[:, ~cut], y[:, ~cut])


def _default_p2p_k(n, seed):
    """(instance, K) of the default problem at n, l = n - 2, N = 2, delta = 0.7."""
    rho, m, p_zw = _default_p2p_problem()
    params = ProtocolParams(n=n, k=0, p=2, sides=((n - 2, 2),), delta=0.7, seed=seed)
    inst = build_instance(params, m, rho)
    cand = assemble_overall(inst, p_zw)
    tgt = target_overall(m, protocol.extend_map_to_field(p_zw, params.p), params.n)
    return inst, faithfulness(TensorPower(rho, params.n), tgt, cand)


def test_real_problem_stays_real(rotated_instance):
    # A real problem runs in real arithmetic from the typical factor through
    # the bins and the support; a complex one stays complex.
    rho, m, p_zw = _default_p2p_problem()
    inst, _ = _default_p2p_k(6, 0)
    tgt = target_overall(m, protocol.extend_map_to_field(p_zw, 2), 6)
    support = TensorPower(rho, 6)
    real = [inst.mus[0].typical, support.vecs, support.w, *tgt.singles]
    for mu in inst.mus:
        real += [mu.v_cut, *mu.factors.values(), *mu.a_factors.values(), *mu.bin_factors]
    assert {a.dtype for a in real} == {np.dtype(np.float64)}
    rho_r, _ = rotated_qubit_problem()
    complex_ = [rotated_instance.mus[0].typical, TensorPower(rho_r, 4).vecs]
    for mu in rotated_instance.mus:
        complex_ += [*mu.factors.values(), *mu.bin_factors]
    assert {a.dtype for a in complex_} == {np.dtype(np.complex128)}


@pytest.mark.parametrize("n", range(2, 9))
def test_real_path_k_matches_complex_path(monkeypatch, n):
    # K of the default problem in real arithmetic against the same run kept
    # complex (the rule switched off), at op seeds 0-3.
    ks, dtypes = [], []
    for keep_complex in (False, True):
        if keep_complex:
            monkeypatch.setattr(protocol, "_real_if_exact", np.asarray)
            memo.clear()        # its bases were built in real arithmetic
        runs = [_default_p2p_k(n, seed) for seed in range(4)]
        ks.append([k for _, k in runs])
        dtypes.append(runs[0][0].mus[0].typical.dtype)
    assert dtypes == [np.float64, np.complex128]
    assert np.max(np.abs(np.subtract(*ks))) <= 1e-12


def test_faithfulness_mixes_real_and_complex_blocks(rotated_instance):
    # A real state and target against a candidate of complex dtype (the
    # rotated instance's live bins): the real target blocks are promoted, not
    # updated in place.
    rho, m, p_zw = _default_p2p_problem()
    cand = assemble_overall(rotated_instance, p_zw)
    tgt = target_overall(m, p_zw, 4)
    state = TensorPower(rho, 4)
    assert tgt.singles[0].dtype == state.vecs.dtype == np.float64
    assert len(cand.words) > 1 and cand.adjs[0].dtype == np.complex128
    k = faithfulness(state, tgt, cand)
    want = dense.faithfulness(kron_power(rho.mat, 4), dense.target_ops(tgt),
                              dense.candidate_ops(cand))
    assert abs(k - want) <= 1e-12


def _small_instance():
    params = ProtocolParams(n=2, k=1, p=2, sides=((1, 1),), delta=0.5)
    return build_instance(params, BASIS, MIXED)


def _fresh_basis():
    memo.clear()
    params = ProtocolParams(n=2, k=1, p=2, sides=((1, 1),), delta=0.5)
    return protocol._basis(params, [BASIS], MIXED)


# One builder per dataclass that holds numpy arrays; two calls build alike instances.
ALIKE = {
    "DensityOperator": lambda: DensityOperator(np.eye(2) / 2, (2,)),
    "PureState": lambda: PureState(np.array([1.0, 0.0]), (2,)),
    "Povm": lambda: Povm((np.eye(2),)),
    "StochasticMap": lambda: StochasticMap((2,), 2, np.eye(2)),
    "CqState": lambda: build_sigma_p2p(MIXED, BASIS, IDENT_MAP),
    "UccCode": lambda: sample_ensemble(CodeEnsembleSpec(2, 3, 1, 1, N=1))[0],
    "CanonicalEnsemble": lambda: canonical_ensemble(BASIS, MIXED),
    "TypicalSet": lambda: typical_set([0.5, 0.5], 3, 0.2),
    "_Spectrum": lambda: protocol._spectrum(np.eye(2)),
    "SideData": lambda: _small_instance().sides[0].mus[0],
    "Side": lambda: _small_instance().sides[0],
    "Instance": _small_instance,
    "_Basis": _fresh_basis,
    "_SideBasis": lambda: _fresh_basis().sides[0],
    "CoveringInstance": lambda: default_covering_instance(4),
    "SurfaceScan": lambda: surface_scan(DensityOperator(np.eye(4) / 4, (2, 2)),
                                        ([0.4, 0.5], [0.0], [0.0])),
    # A file's problem is memoised by content; a dict is parsed on every call.
    "ProblemSpec": lambda: load_problem(json.loads(Path(bundled_example_path(1)).read_text())),
}


@pytest.mark.parametrize("build", ALIKE.values(), ids=ALIKE.keys())
def test_equality_of_alike_instances_is_a_bool(build):
    a, b = build(), build()
    assert type(a).__name__ in ALIKE and a is not b
    assert isinstance(a == b, bool) and a == a


def test_protocol_params_compare_by_value():
    assert ProtocolParams(n=2, k=1, p=2, sides=[(1, 1)]) == ProtocolParams(2, 1, 2, ((1, 1),))


# ---------------------------------------------------------------------------
# The seed-independent basis, memoised by content and shared by every code draw.

def _assert_builds_equal(a, b):
    """Every side field, the decoded words and the defect of two instances agree exactly."""
    for x, y in zip(a.sides, b.sides, strict=True):
        for f in dataclasses.fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            if f.name == "factors":
                assert list(u) == list(v)
                u, v = list(u.values()), list(v.values())
            elif f.name == "rho":
                u, v = [u.mat], [v.mat]
            elif f.name == "ens":
                u, v = [u.weights, *u.post_states], [v.weights, *v.post_states]
            elif f.name == "tset":
                assert np.array_equal(u.mask, v.mask) and u.mass == v.mass
                u, v = [u.probs], [v.probs]
            else:
                u, v = [u], [v]
            for s, t in zip(u, v, strict=True):
                assert s.dtype == t.dtype and s.shape == t.shape and np.array_equal(s, t), f.name
    assert a.decoded.dtype == b.decoded.dtype and np.array_equal(a.decoded, b.decoded)
    assert np.array_equal(a.tset_w.mask, b.tset_w.mask)
    assert (a.w0, a.tset_w.mass) == (b.w0, b.tset_w.mass)
    assert (a.decoder_collisions, a.sub_povm_defect) == (b.decoder_collisions, b.sub_povm_defect)


def _k(inst, m, rho, p_zw):
    n, p = inst.params.n, inst.params.p
    tgt = target_overall(m, protocol.extend_map_to_field(p_zw, p), n)
    return faithfulness(TensorPower(rho, n), tgt, assemble_overall(inst, p_zw))


def _warm_and_cold(build, params, warm_up):
    """(warm, cold): ``build(params)`` after a build of ``warm_up``, and with an empty memo."""
    memo.clear()
    build(warm_up)
    warm = build(params)
    memo.clear()
    return warm, build(params)


@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(0, 10_000), st.integers(1, 8),
       st.booleans())
@settings(max_examples=25, deadline=None)
def test_warm_build_equals_cold_build(seed, num, seed0, num0, distributed):
    # The rotated problem prunes and keeps bins; the distributed one is a
    # generic two-qubit state.  The warm-up draw shares the basis and fills
    # some of its type classes.
    if distributed:
        rho = random_density(np.random.default_rng(3), 4, (2, 2))
        povms, p_zw = [random_rank_one_povm(np.random.default_rng(s), 2, 2) for s in (4, 5)], None
        sides = lambda num: ((1, num), (1, 3))
    else:
        rho, m = rotated_qubit_problem()
        povms, p_zw = [m], StochasticMap((2,), 2, np.array([[0.9, 0.1], [0.2, 0.8]]))
        sides = lambda num: ((3, num),)
    params = ProtocolParams(n=3 if distributed else 4, k=0, p=2, sides=sides(num), delta=0.6,
                            seed=seed)
    warm_up = dataclasses.replace(params, sides=sides(num0), seed=seed0)
    warm, cold = _warm_and_cold(lambda q: protocol._build(q, povms, rho), params, warm_up)
    _assert_builds_equal(warm, cold)
    if not distributed:
        assert _k(warm, povms[0], rho, p_zw) == _k(cold, povms[0], rho, p_zw)


@pytest.mark.parametrize("l", [4, 5, 6])
def test_a_code_cut_in_every_direction_has_exactly_zero_bins(l):
    # Point-to-point example4 at n = 7.  When pruning cuts every column of a
    # code's Y, V_cut spans range(Y) = range(X), so its F_w and bins are
    # exactly 0, not rounding residue.  Every code is cut so at seeds 0-2 of
    # l = 4 and 5 and at seed 0 of l = 6, and the candidate then stores only
    # w0; at l = 6 one code of the two is at seed 1 and neither at seed 2.
    spec = load_problem(bundled_example_path(4))
    rho = partial_trace(spec.rho_ab, traced=[1])
    for seed in range(3):
        params = ProtocolParams(n=7, k=0, p=spec.p, sides=((l, 2),), delta=0.6, seed=seed)
        inst = build_instance(params, spec.m_a, rho)
        side = inst.sides[0]
        all_cut = np.diff(side.cut_ends) == np.diff(side.pruned_ends)
        assert all_cut.tolist() == ([True, True] if l < 6 or seed == 0
                                    else [True, False] if seed == 1 else [False, False])
        for mu, cut in zip(side.mus, all_cut.tolist()):
            if cut:
                assert not any(f.any() for f in mu.a_factors.values())
                assert not any(g.any() for g in mu.bin_factors)
        words = assemble_overall(inst, spec.p_zw).words
        assert (words == [inst.w0]) == all_cut.all()


def test_warm_build_equals_cold_build_on_example4():
    # Point-to-point example4 at n = 7, with 128-row factors, pruning and live bins.
    spec = load_problem(bundled_example_path(4))
    rho = partial_trace(spec.rho_ab, traced=[1])
    params = ProtocolParams(n=7, k=0, p=spec.p, sides=((7, 2),), delta=0.6, seed=0)
    warm, cold = _warm_and_cold(lambda q: build_instance(q, spec.m_a, rho), params,
                                dataclasses.replace(params, seed=1))
    assert np.diff(warm.sides[0].cut_ends).any()
    assert protocol._live_columns(warm.sides[0].bins, warm.sides[0].bin_ends)[0].shape[1]
    _assert_builds_equal(warm, cold)
    assert _k(warm, spec.m_a, rho, spec.p_zw) == _k(cold, spec.m_a, rho, spec.p_zw)


def test_basis_key_is_content_without_seed_or_n():
    rho, m = rotated_qubit_problem()
    params = ProtocolParams(n=3, k=0, p=2, sides=((2, 2),), eta=0.1, delta=0.6, seed=0)
    build_instance(params, m, rho)
    # Equal content in new objects, another seed and another N: the same entry.
    copy = DensityOperator(rho.mat.copy(), rho.register_dims)
    for q in (dataclasses.replace(params, seed=5), dataclasses.replace(params, sides=((2, 7),))):
        build_instance(q, Povm(tuple(e.copy() for e in m.elements)), copy)
    assert len(kept("basis")) == 1
    other_rho = random_density(np.random.default_rng(1), 2)
    misses = [
        (dataclasses.replace(params, delta=0.7), m, rho),
        (dataclasses.replace(params, eta=0.2), m, rho),
        (dataclasses.replace(params, k=1), m, rho),
        (dataclasses.replace(params, sides=((1, 2),)), m, rho),
        (dataclasses.replace(params, n=4), m, rho),
        (dataclasses.replace(params, p=3), m, rho),
        (params, BASIS, rho),
        (params, m, other_rho),
    ]
    for count, (q, povm, state) in enumerate(misses, start=2):
        build_instance(q, povm, state)
        assert len(kept("basis")) == count
    # The same matrix on other registers is another state.
    pair = DensityOperator(np.eye(4) / 4, (4,))
    build_instance(params, Povm((np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1]))), pair)
    build_instance(params, Povm((np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1]))),
                   DensityOperator(np.eye(4) / 4, (2, 2)))
    assert len(kept("basis")) == len(misses) + 3


def test_cached_basis_arrays_refuse_writes():
    rho, m = rotated_qubit_problem()
    params = ProtocolParams(n=4, k=0, p=2, sides=((3, 2),), eta=0.1, delta=0.6, seed=1)
    build_instance(params, m, rho)
    (basis,) = kept("basis").values()
    (side,) = basis.sides
    classes = list(kept("type class").values())
    arrays = [basis.tset_w.mask, basis.tset_w.probs, side.typical, side.inv, side.rho.mat,
              side.ens.weights, *side.ens.post_states, side.tset.probs, *classes]
    arrays += [getattr(s, f.name) for s in side.spectra for f in dataclasses.fields(s)]
    assert classes and len(side.spectra) == 2
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def _kept_bases() -> dict:
    """delta -> basis of the bases in the memo, least recently used first."""
    return {key[-1]: v for key, v in kept("basis").items()}


def test_basis_cap_drops_least_recently_used(monkeypatch):
    # K's target, its data on the state and the word tables share the memo with
    # the bases and their type classes: entries that are the same for every delta.
    rho, m = rotated_qubit_problem()
    base = ProtocolParams(n=4, k=0, p=2, sides=((3, 2),), eta=0.1, delta=0.6, seed=1)
    a, b, c, d = (dataclasses.replace(base, delta=x) for x in (0.6, 0.65, 0.7, 0.75))
    unlimited = {q.delta: _k(build_instance(q, m, rho), m, rho, IDENT_MAP) for q in (a, b, c, d)}
    sizes = {delta: basis.nbytes for delta, basis in _kept_bases().items()}
    # The bytes of each delta's basis with its type classes (keyed by the basis key).
    groups = dict.fromkeys(sizes, 0)
    for key, (_, size) in memo._STORE.items():
        if key[0] in ("basis", "type class"):
            groups[(key if key[0] == "basis" else key[1][0])[-1]] += size
    shared = sum(size for _, size in memo._STORE.values()) - sum(groups.values())
    assert shared > 0 and len(memo._STORE) > len(sizes)
    # Room for the shared entries and the two largest bases, not for three.
    monkeypatch.setattr(memo, "CAP", shared + sum(sorted(groups.values())[-2:]))
    memo.clear()
    kept = []
    for q in (a, b, c, b, d):
        assert _k(build_instance(q, m, rho), m, rho, IDENT_MAP) == unlimited[q.delta]
        kept.append(list(_kept_bases()))
    assert kept == [[0.6], [0.6, 0.65], [0.65, 0.7], [0.7, 0.65], [0.65, 0.75]]
    # A basis larger than the cap is used once and not kept.
    monkeypatch.setattr(memo, "CAP", min(sizes.values()) - 1)
    assert _k(build_instance(c, m, rho), m, rho, IDENT_MAP) == unlimited[0.7]
    assert not _kept_bases()
