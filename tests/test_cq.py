import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_reference as loops
import povmsim.cq as cq_module
from conftest import bell_matrix, random_complete_povm, random_density
from povmsim.cq import (
    CqState,
    StochasticMap,
    build_sigma1,
    build_sigma2,
    build_sigma3,
    build_sigma_p2p,
    compose,
    cq_mutual_information,
    entropy_of,
    measure_to_cq,
    regroup,
)
from povmsim.linalg import DensityOperator, Povm, purify, validate_povm, von_neumann_entropy

BASIS = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))


def _with_sum(cq, p):
    """``cq`` with the register W = S + T mod p appended, from its first two labels."""
    return regroup(cq, cq.classical + (("W", p),), lambda lab: lab + ((lab[0] + lab[1]) % p,))


def test_measure_with_identity_povm(bell_state):
    psi = purify(bell_state)
    cq = measure_to_cq(psi, Povm((np.eye(2),)), measured=1)
    assert list(cq.blocks) == [(0,)]
    assert np.trace(cq.blocks[(0,)]).real == pytest.approx(1.0)
    assert cq_mutual_information(cq, {"X"}, {"q0", "q2"}) == pytest.approx(0.0, abs=1e-9)


def test_measure_bell_half_projective(bell_state):
    psi = purify(bell_state)
    cq = measure_to_cq(psi, BASIS, measured=1)
    for x in (0, 1):
        block = cq.blocks[(x,)]
        w = np.trace(block).real
        assert w == pytest.approx(0.5, abs=1e-9)
        evals = np.linalg.eigvalsh(block / w)
        assert evals[-1] == pytest.approx(1.0, abs=1e-9)  # conditional blocks pure


def test_sigma1_label_weights_match_direct_formula(example1):
    # Oracle: lambda_s = Tr{Lambda_s rho_A} by direct matrix product.
    cq = build_sigma1(example1.rho_ab, example1.m_a)
    rho_a = np.eye(2) / 2
    for s, lam in enumerate(example1.m_a.elements):
        want = np.trace(lam @ rho_a).real
        got = np.trace(cq.blocks[(s,)]).real
        assert got == pytest.approx(want, abs=1e-10)


def test_sigma1_identity_povm_no_information(bell_state):
    cq = build_sigma1(bell_state, Povm((np.eye(2),)))
    assert cq_mutual_information(cq, {"S"}, {"R", "B"}) == pytest.approx(0.0, abs=1e-9)


def test_sigma1_holevo_oracle_product_state():
    # Projective measurement on a product state: I(S;RB) equals the Holevo
    # quantity computed directly from the block eigendecompositions.
    rng = np.random.default_rng(11)
    ra, rb = random_density(rng, 2), random_density(rng, 2)
    rho = DensityOperator(np.kron(ra.mat, rb.mat), (2, 2))
    cq = build_sigma1(rho, BASIS)
    got = cq_mutual_information(cq, {"S"}, {"R", "B"})
    weights = np.array([np.trace(b).real for b in cq.blocks.values()])
    avg = sum(cq.blocks.values())
    chi = von_neumann_entropy(avg)
    for (s,), block in cq.blocks.items():
        w = np.trace(block).real
        if w > 1e-12:
            chi -= w * von_neumann_entropy(block / w)
    assert got == pytest.approx(chi, abs=1e-9)
    assert weights.sum() == pytest.approx(1.0)


def test_sigma3_deterministic_z_is_copy(example1):
    p_det = StochasticMap((2, 2), 4, np.eye(4).reshape(2, 2, 4))
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, p_det)
    assert entropy_of(cq, {"Z"}) == pytest.approx(entropy_of(cq, {"S", "T"}), abs=1e-9)


def test_sigma3_example1_entropies(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    cq = _with_sum(cq, 2)
    assert entropy_of(cq, {"S", "T"}) == pytest.approx(1.5154, abs=5e-4)
    assert cq_mutual_information(cq, {"S"}, {"T"}) == pytest.approx(0.4844, abs=5e-4)
    assert entropy_of(cq, {"W"}) == pytest.approx(0.5155, abs=5e-4)
    assert entropy_of(cq, {"S"}) == pytest.approx(0.9999, abs=5e-4)


def test_sigma3_quantum_marginal_is_rho(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    assert np.max(np.abs(cq.quantum_marginal() - example1.rho_ab.mat)) < 1e-9


def test_sigma2_registers(example1):
    cq = build_sigma2(example1.rho_ab, example1.m_b)
    assert cq.classical_names() == ["T"]
    assert cq.quantum_names() == ["R", "A"]
    assert cq_mutual_information(cq, {"T"}, {"R", "A"}) >= -1e-9


def test_sigma_p2p_identity_povm():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    p_zw = StochasticMap((1,), 2, np.array([[0.5, 0.5]]))
    cq = build_sigma_p2p(rho, Povm((np.eye(2),)), p_zw)
    assert cq_mutual_information(cq, {"W"}, {"R"}) == pytest.approx(0.0, abs=1e-9)


def test_sigma_p2p_deterministic_z_oracle():
    # Z a deterministic copy of W: I(W;RZ) = S(W), checked against a direct
    # eigendecomposition of the assembled joint blocks.
    rng = np.random.default_rng(12)
    rho = random_density(rng, 2)
    m = random_complete_povm(rng, 2, 3)
    p_zw = StochasticMap((3,), 3, np.eye(3))
    cq = build_sigma_p2p(rho, m, p_zw)
    got = cq_mutual_information(cq, {"W"}, {"R", "Z"})
    assert got == pytest.approx(entropy_of(cq, {"W"}), abs=1e-9)
    # independent Shannon computation of S(W)
    weights = [np.trace(rho.mat @ lam).real for lam in m.elements]
    s_w = -sum(w * np.log2(w) for w in weights if w > 1e-15)
    assert got == pytest.approx(s_w, abs=1e-9)


def test_sigma_p2p_maximally_mixed_basis():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    p_zw = StochasticMap((2,), 2, np.eye(2))
    cq = build_sigma_p2p(rho, BASIS, p_zw)
    assert entropy_of(cq, {"W"}) == pytest.approx(1.0, abs=1e-9)
    assert cq_mutual_information(cq, {"W"}, {"R"}) == pytest.approx(1.0, abs=1e-9)


def test_relabel_identity_is_noop(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    out = regroup(cq, cq.classical, lambda lab: ([0, 1][lab[0]],) + lab[1:])
    assert set(out.blocks) == set(cq.blocks)
    for k in cq.blocks:
        assert np.allclose(out.blocks[k], cq.blocks[k])


def test_relabel_embedding_f3(example2):
    # {0,1} embedded in F_3; the sum register W then lives on {0,1,2}.
    cq = build_sigma3(example2.rho_ab, example2.m_a, example2.m_b, example2.p_zst)
    cq = regroup(cq, (("S", 3), ("T", 3), ("Z", 2)), lambda lab: lab)
    cq = _with_sum(cq, 3)
    assert 2.0 * entropy_of(cq, {"W"}) - entropy_of(cq, {"S", "T"}) == pytest.approx(
        -0.9039, abs=5e-4)


def test_relabel_merge_all_zero_entropy(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    out = regroup(cq, (("S", 1),) + cq.classical[1:], lambda lab: (0,) + lab[1:])
    assert entropy_of(out, {"S"}) == pytest.approx(0.0, abs=1e-12)


def test_relabel_preserves_trace_never_raises_entropy(example1):
    rng = np.random.default_rng(13)
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    for _ in range(5):
        f = [int(rng.integers(0, 2)) for _ in range(2)]
        out = regroup(cq, cq.classical, lambda lab: (lab[0], f[lab[1]], lab[2]))
        total = sum(np.trace(b).real for b in out.blocks.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert entropy_of(out, {"T"}) <= entropy_of(cq, {"T"}) + 1e-9


def _random_map(rng, input_sizes, output_size):
    rows = rng.random(tuple(input_sizes) + (output_size,))
    return StochasticMap(tuple(input_sizes), output_size, rows / rows.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("counts, extra", [((3,), 0), ((2, 3), 0), ((2, 2, 3), 0),
                                           ((2,), 2), ((2, 3), 1)],
                         ids=["one", "two", "three", "one-extra-letters", "two-extra-letters"])
def test_compose_matches_a_loop(counts, extra):
    # Oracle: the sum over every outcome tuple x of P(z|x) times the Kronecker
    # product, term by term.  With ``extra`` the last input has letters no
    # outcome reaches; they must not enter.
    rng = np.random.default_rng(sum(counts) + 10 * extra)
    povms = [random_complete_povm(rng, 2, c) for c in counts]
    sizes = counts[:-1] + (counts[-1] + extra,)
    channel = _random_map(rng, sizes, 3)
    got = compose(povms, channel)
    dim = 2 ** len(counts)
    want = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    for x in itertools.product(*(range(c) for c in counts)):
        prod = np.eye(1)
        for m, i in zip(povms, x):
            prod = np.kron(prod, m.elements[i])
        for z in range(3):
            want[z] += channel(z, *x) * prod
    assert len(got) == 3 and got.dim == dim
    for g, w in zip(got.elements, want):
        assert np.max(np.abs(g - w)) < 1e-13
    assert validate_povm(got).ok


def test_compose_refuses_more_outcomes_than_letters():
    rng = np.random.default_rng(15)
    povms = (random_complete_povm(rng, 2, 3), random_complete_povm(rng, 2, 2))
    with pytest.raises(ValueError, match=r"inputs \(2, 2\) do not cover the POVM outcomes \(3, "):
        compose(povms, _random_map(rng, (2, 2), 2))
    with pytest.raises(ValueError, match="do not cover"):
        compose(povms[:1], _random_map(rng, (3, 2), 2))


@pytest.mark.parametrize("name, p", [("example1", 2), ("example2", 3)])
def test_one_regroup_matches_the_relabel_chain(request, name, p):
    # sigma_3 regrouped in one call to (U, V, Z, W) equals the chain relabel S,
    # relabel T, derive W, block by block.
    ex = request.getfixturevalue(name)
    cq = build_sigma3(ex.rho_ab, ex.m_a, ex.m_b, ex.p_zst)
    fs, ft = ex.f_s, ex.f_t
    chain = regroup(cq, (("S", p),) + cq.classical[1:], lambda lab: (fs[lab[0]],) + lab[1:])
    chain = regroup(chain, (("S", p), ("T", p), ("Z", ex.p_zst.output_size)),
                    lambda lab: (lab[0], ft[lab[1]], lab[2]))
    chain = _with_sum(chain, p)
    one = regroup(cq, (("U", p), ("V", p), ("Z", ex.p_zst.output_size), ("W", p)),
                  lambda lab: (fs[lab[0]], ft[lab[1]], lab[2], (fs[lab[0]] + ft[lab[1]]) % p))
    assert one.classical_names() == ["U", "V", "Z", "W"]
    assert [s for _, s in one.classical] == [s for _, s in chain.classical]
    assert list(one.blocks) == list(chain.blocks)
    for label, block in chain.blocks.items():
        assert np.max(np.abs(one.blocks[label] - block)) < 1e-12


def test_regroup_sums_colliding_blocks(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    out = regroup(cq, (("Z", 2),), lambda lab: (lab[2],))
    for z in range(2):
        want = sum(b for lab, b in cq.blocks.items() if lab[2] == z)
        assert np.max(np.abs(out.blocks[(z,)] - want)) < 1e-15
    with pytest.raises(ValueError, match="outside declared alphabets"):
        regroup(cq, (("Z", 1),), lambda lab: (lab[2],))


def test_entropy_empty_subset(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    assert entropy_of(cq, set()) == 0.0


def test_mutual_information_overlap_rejected(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    with pytest.raises(ValueError):
        cq_mutual_information(cq, {"S"}, {"S", "Z"})


def test_example1_identity_chain(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    cq = _with_sum(cq, 2)
    s_u, s_v = entropy_of(cq, {"S"}), entropy_of(cq, {"T"})
    s_w = entropy_of(cq, {"W"})
    i_uv = cq_mutual_information(cq, {"S"}, {"T"})
    assert s_u - s_w == pytest.approx(i_uv, abs=5e-4)
    assert s_v - s_w == pytest.approx(i_uv, abs=5e-4)


def test_stochastic_map_validation():
    with pytest.raises(ValueError):
        StochasticMap((2,), 2, np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        StochasticMap((2,), 2, np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_cq_mi_nonnegative_everywhere(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    cq = _with_sum(cq, 2)
    names = ["S", "T", "Z", "W", "R"]
    rng = np.random.default_rng(14)
    for _ in range(10):
        k = int(rng.integers(1, 3))
        pick = list(rng.choice(names, size=2 + k, replace=False))
        part1, part2 = set(pick[:1 + k // 2]), set(pick[1 + k // 2:])
        assert cq_mutual_information(cq, part1, part2) >= -1e-9


def _random_cq(rng, sizes, dims, count):
    """``count`` distinct labels over alphabets ``sizes``, each with a random PSD
    block of random rank on registers of dimensions ``dims``, trace 1 in all."""
    labels = list(itertools.product(*map(range, sizes)))
    q = math.prod(dims)
    picked, stack = [], []
    for i in rng.choice(len(labels), size=count, replace=False):
        shape = (q, rng.integers(1, q + 1))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        picked.append(labels[i])
        stack.append(g @ g.conj().T)
    total = sum(np.trace(b).real for b in stack)
    return CqState(tuple((f"c{i}", s) for i, s in enumerate(sizes)),
                   tuple((f"q{i}", d) for i, d in enumerate(dims)),
                   picked, np.array(stack) / total)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_entropies_match_the_block_loop(data):
    # Oracle: a partial trace and an eigvalsh per block, summed per kept key.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = data.draw(st.integers(1, math.prod(sizes)))
    cq = _random_cq(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                    sizes, dims, count)
    names = cq.classical_names() + cq.quantum_names()
    subsets = data.draw(st.lists(st.sets(st.sampled_from(names)), min_size=1, max_size=4))
    for registers in [set()] + subsets:
        assert abs(entropy_of(cq, registers) - loops.cq_entropy(cq, registers)) < 1e-12


def test_entropy_is_memoised_per_register_set(example1, monkeypatch):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    first = entropy_of(cq, {"S", "R"})

    def recompute(*_):
        raise AssertionError("the memoised entropy was recomputed")

    monkeypatch.setattr(cq_module, "_reduced_spectrum", recompute)
    assert entropy_of(cq, ["R", "S"]) is first
    fresh = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    with pytest.raises(AssertionError, match="recomputed"):
        entropy_of(fresh, {"S", "R"})


def test_non_psd_block_is_refused_by_its_first_label():
    good = np.eye(2) / 8
    stack = [good, np.diag([0.3, -0.05]), good, np.diag([-0.1, 0.35])]
    with pytest.raises(ValueError, match=r"^block for \(2,\) is not PSD$"):
        CqState((("X", 4),), (("R", 2),), [[0], [2], [1], [3]], stack)


def test_regroup_of_a_valid_state_never_raises():
    # Two blocks, each within tol of PSD along the same direction, sum to one
    # twice as far out; the merged state is still accepted.
    tol = 1e-6
    edge = np.diag([0.5 + 6e-7, -6e-7])
    cq = CqState((("X", 2),), (("R", 2),), [[0], [1]], [edge, edge], tol=tol)
    merged = regroup(cq, (("Y", 1),), lambda lab: (0,))
    assert np.linalg.eigvalsh(merged.blocks[(0,)])[0] < -tol
    rng = np.random.default_rng(16)
    for _ in range(20):
        cq = _random_cq(rng, (3, 2), (2, 2), 6)
        table = rng.integers(0, 2, size=3)
        out = regroup(cq, (("Y", 2), ("c1", 2)), lambda lab: (table[lab[0]], lab[1]))
        assert np.max(np.abs(out.quantum_marginal() - cq.quantum_marginal())) < 1e-12


@pytest.mark.parametrize("labels, stack, phrase", [
    ([[0], [0]], [np.eye(2) / 4] * 2, "labels repeat"),
    ([[0, 1]], [np.eye(2) / 2], r"labels \(1, 2\) and stack \(1, 2, 2\) do not match"),
    ([[0]], [np.eye(3) / 3], r"stack \(1, 3, 3\) do not match"),
    ([[0], [1]], [np.eye(2) / 2], r"stack \(1, 2, 2\) do not match"),
], ids=["repeated-label", "label-width", "block-dim", "block-count"])
def test_cq_state_refuses_mismatched_arrays(labels, stack, phrase):
    with pytest.raises(ValueError, match=phrase):
        CqState((("X", 2),), (("R", 2),), labels, stack)


def test_blocks_view_reads_the_stack(example1):
    cq = build_sigma3(example1.rho_ab, example1.m_a, example1.m_b, example1.p_zst)
    assert list(cq.blocks) == list(map(tuple, cq.labels.tolist()))
    for block, row in zip(cq.blocks.values(), cq.stack):
        assert block is not row and np.shares_memory(block, cq.stack)
        assert not block.flags.writeable
