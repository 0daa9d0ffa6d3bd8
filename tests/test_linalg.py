import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bell_matrix, random_density, random_hermitian, random_psd, random_unitary
from povmsim.linalg import (
    DensityOperator,
    Povm,
    PureState,
    partial_trace,
    partial_trace_mat,
    psd_pinv_sqrt,
    psd_sqrt,
    purify,
    pruning_projector,
    quantum_mutual_information,
    trace_norm,
    validate_povm,
    von_neumann_entropy,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def test_trace_norm_identity_case():
    a = random_hermitian(np.random.default_rng(0), 3)
    assert trace_norm(a - a) == 0.0


def test_trace_norm_diag():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_trace_norm_orthogonal_pure_states():
    assert trace_norm(KET0 - KET1) == pytest.approx(2.0)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        trace_norm(np.zeros((2, 3)))


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_trace_norm_sign_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
    assert trace_norm(a - b) == pytest.approx(trace_norm(b - a), abs=1e-12)


def test_entropy_pure_state():
    assert von_neumann_entropy(KET0) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)


def test_entropy_bell_marginal():
    rho = DensityOperator(bell_matrix(), (2, 2))
    marg = partial_trace(rho, traced=[1])
    assert np.allclose(marg.mat, np.eye(2) / 2)
    assert von_neumann_entropy(marg) == pytest.approx(1.0)


def test_entropy_rejects_bad_trace():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(2))


def test_entropy_unitarily_invariant():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 4)
    s = von_neumann_entropy(rho)
    for _ in range(5):
        u = random_unitary(rng, 4)
        assert von_neumann_entropy(u @ rho.mat @ u.conj().T) == pytest.approx(s, abs=1e-9)


def test_mutual_information_product_state():
    rng = np.random.default_rng(1)
    ra, rb = random_density(rng, 2), random_density(rng, 3)
    rho = DensityOperator(np.kron(ra.mat, rb.mat), (2, 3))
    assert quantum_mutual_information(rho, cut=[0]) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_bell():
    rho = DensityOperator(bell_matrix(), (2, 2))
    assert quantum_mutual_information(rho, cut=[0]) == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_classically_correlated():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    rho = DensityOperator(m, (2, 2))
    assert quantum_mutual_information(rho, cut=[0]) == pytest.approx(1.0, abs=1e-9)


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_density(rng, 4, dims=(2, 2))
        assert quantum_mutual_information(rho, cut=[0]) >= -1e-9


def test_mutual_information_bad_cut():
    rho = DensityOperator(bell_matrix(), (2, 2))
    with pytest.raises(ValueError):
        quantum_mutual_information(rho, cut=[0, 1])


def test_partial_trace_product():
    rng = np.random.default_rng(2)
    ra, rb = random_density(rng, 2), random_density(rng, 2)
    rho = DensityOperator(np.kron(ra.mat, rb.mat), (2, 2))
    assert np.allclose(partial_trace(rho, traced=[1]).mat, ra.mat, atol=1e-12)


def test_partial_trace_bell():
    rho = DensityOperator(bell_matrix(), (2, 2))
    assert np.allclose(partial_trace(rho, traced=[1]).mat, np.eye(2) / 2, atol=1e-12)


def _naive_partial_trace(mat, dims, keep):
    # Independent index-summation oracle.
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    for idx_row in np.ndindex(*dims):
        for idx_col in np.ndindex(*dims):
            if any(idx_row[t] != idx_col[t] for t in traced):
                continue
            r = int(np.ravel_multi_index([idx_row[i] for i in keep], [dims[i] for i in keep])) if keep else 0
            c = int(np.ravel_multi_index([idx_col[i] for i in keep], [dims[i] for i in keep])) if keep else 0
            out[r, c] += mat[np.ravel_multi_index(idx_row, dims), np.ravel_multi_index(idx_col, dims)]
    return out


def test_partial_trace_ghz_oracle():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = DensityOperator(np.outer(ghz, ghz.conj()), (2, 2, 2))
    got = partial_trace(rho, traced=[1, 2]).mat
    want = _naive_partial_trace(rho.mat, (2, 2, 2), keep=[0])
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_oracle_random():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 12, dims=(2, 3, 2))
    for keep in ([0], [1], [2], [0, 2], [1, 2]):
        got = partial_trace_mat(rho.mat, (2, 3, 2), keep)
        want = _naive_partial_trace(rho.mat, (2, 3, 2), keep)
        assert np.allclose(got, want, atol=1e-11)


def test_partial_trace_empty_remainder():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError):
        partial_trace(rho, traced=[0])


def test_purify_pure_state():
    rho = DensityOperator(KET0, (2,))
    psi = purify(rho)
    back = partial_trace(psi.to_density(), traced=[0])
    assert np.allclose(back.mat, rho.mat, atol=1e-10)


def test_purify_maximally_mixed():
    rho = DensityOperator(np.eye(2) / 2, (2,))
    psi = purify(rho)
    assert psi.register_dims == (2, 2)
    back = partial_trace(psi.to_density(), traced=[0])
    assert np.allclose(back.mat, rho.mat, atol=1e-10)


def test_purify_round_trip_random():
    rng = np.random.default_rng(4)
    for _ in range(8):
        rho = random_density(rng, 4, dims=(2, 2))
        psi = purify(rho)
        assert psi.register_dims == (4, 2, 2)
        back = partial_trace(psi.to_density(), traced=[0])
        assert np.allclose(back.mat, rho.mat, atol=1e-9)


def test_purify_bell_reference_rank_one():
    rho = DensityOperator(bell_matrix(), (2, 2))
    psi = purify(rho)
    ref = partial_trace(psi.to_density(), traced=[1, 2])
    evals = np.linalg.eigvalsh(ref.mat)
    assert np.sum(evals > 1e-9) == 1


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_pinv_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_diag():
    assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))
    assert np.allclose(psd_pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))


def test_psd_sqrt_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = random_psd(rng, 5)
        root = psd_sqrt(a)
        assert np.max(np.abs(root @ root - a)) < 1e-10 * max(1, np.max(np.abs(a)))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_validate_povm_identity():
    rep = validate_povm(Povm((np.eye(2),)), mode="povm")
    assert rep.ok and rep.completeness_defect == pytest.approx(0.0, abs=1e-12)


def test_validate_povm_example1(example1):
    rep = validate_povm(example1.m_a, mode="povm")
    assert rep.ok
    assert max(rep.element_psd_defects) <= 1e-9


def test_validate_sub_povm_completion():
    rep = validate_povm(Povm((np.eye(2) / 2,)), mode="sub_povm")
    assert rep.ok
    assert np.allclose(rep.completion, np.eye(2) / 2)


def test_sub_povm_completion_restores_identity():
    rng = np.random.default_rng(8)
    els = [random_psd(rng, 3) for _ in range(3)]
    scale = 1.05 * np.linalg.eigvalsh(sum(els))[-1]
    sub = Povm(tuple(e / scale for e in els))
    rep = validate_povm(sub, mode="sub_povm")
    assert rep.ok
    total = sum(sub.elements) + rep.completion
    assert np.max(np.abs(total - np.eye(3))) < 1e-10


def test_pruning_projector_examples():
    # X = 0: nothing pruned.
    assert np.allclose(pruning_projector(np.zeros((2, 2))), np.eye(2))
    # X = 2|0><0|: the eigenvalue-2 direction is pruned.
    p = pruning_projector(2 * KET0)
    assert np.allclose(p, KET1, atol=1e-12)


def test_pure_state_norm_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), (2,))
