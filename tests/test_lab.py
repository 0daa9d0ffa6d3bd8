import numpy as np
import pytest

from conftest import members, random_complete_povm, random_density, random_hermitian, random_psd
from povmsim import lab
from povmsim.cli import default_covering_instance
from povmsim.lab import (
    CoveringInstance,
    ScaledWishartSampler,
    check_covering_hypotheses,
    covering_experiment,
    iid_code_sampler,
    pruning_inequality_experiment,
    sandwich_reduction_check,
    ucc_code_sampler,
)
from povmsim.linalg import DensityOperator


# ---------------------------------------------------------------------------
# Hypotheses.

def test_hypotheses_trivial_projectors():
    inst = default_covering_instance(4)
    rep = check_covering_hypotheses(inst)
    assert all(rep.ok)
    assert rep.support_overlap == pytest.approx(1.0)


def test_hypotheses_flag_eps_violation():
    inst = default_covering_instance(4)
    # Shrink the total projector so Tr{Pi sigma_x} drops below 1 - eps.
    bad = CoveringInstance(inst.lam, inst.sigmas, inst.mu,
                           np.diag([1.0, 0.0]).astype(complex), inst.pi_x,
                           eps=0.1, d=inst.d, big_d=inst.big_d, m=4)
    rep = check_covering_hypotheses(bad)
    assert not rep.ok[0]


def test_hypotheses_protocol_pipeline_instance():
    # Typical/conditional projectors from the protocol at n = 4 satisfy the
    # hypotheses with eps given by the worst overlap (gentle measurement).
    from povmsim.protocol import (ProtocolParams, canonical_ensemble,
                                  cond_typical_projector, pad_ensemble,
                                  typical_projector, typical_set)
    from povmsim.linalg import Povm, kron_power
    rng = np.random.default_rng(8)
    rho = DensityOperator(np.diag([0.6, 0.4]).astype(complex), (2,))
    # Rank-one post-states keep the conditional typical projectors nonempty
    # at this block length.
    m = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
    n, delta = 4, 0.6
    ens = pad_ensemble(canonical_ensemble(m, rho), 2)
    ts = typical_set(ens.weights, n, delta)
    pi = typical_projector(rho, n, delta)
    words = list(members(ts))
    lam = np.array([ens.weight_of(w) for w in words])
    lam = lam / lam.sum()
    sigmas = np.stack([ens.post_state_of(w) for w in words])
    pi_x = np.stack([cond_typical_projector(ens, w, delta) for w in words])
    overlaps = [min(float(np.trace(pi @ s).real), float(np.trace(px @ s).real))
                for s, px in zip(sigmas, pi_x)]
    eps = 1.0 - min(overlaps) + 1e-12
    d_val = 1.0 / max(np.linalg.eigvalsh(px @ s @ px)[-1]
                      for s, px in zip(sigmas, pi_x))
    sigma = np.einsum("x,xij->ij", lam, sigmas)
    from povmsim.linalg import psd_sqrt, trace_norm
    big_d = trace_norm(pi @ psd_sqrt(sigma)) ** 2
    inst = CoveringInstance(lam, sigmas, np.full(len(words), 1.0 / len(words)),
                            pi, pi_x, eps=eps, d=d_val, big_d=big_d, m=8)
    rep = check_covering_hypotheses(inst)
    assert all(rep.ok)
    assert eps < 1.0


# ---------------------------------------------------------------------------
# Covering experiment.

def test_covering_single_letter_exact():
    lam = np.array([1.0])
    sigma = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    inst = CoveringInstance(lam, sigma, lam.copy(), np.eye(2), sigma.copy(),
                            eps=0.0, d=1.0, big_d=1.0, m=8)
    rep = covering_experiment(inst, trials=50, seed=0)
    assert rep.empirical_mean == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_covering_equal_states_cut_version_zero():
    # sigma_x all equal with lam = mu uniform: the sampled average is exact.
    state = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    lam = np.full(4, 0.25)
    sigmas = np.stack([state] * 4)
    eye = np.eye(2, dtype=complex)
    inst = CoveringInstance(lam, sigmas, lam.copy(), eye, np.stack([eye] * 4),
                            eps=0.0, d=1.0 / 0.7, big_d=2.0, m=16)
    rep = covering_experiment(inst, trials=50, seed=1)
    assert rep.extras["cut_mean"] == pytest.approx(0.0, abs=1e-12)


def test_covering_bound_holds_both_samplers():
    inst = default_covering_instance(16)
    iid = covering_experiment(inst, trials=500, seed=2, sampler=iid_code_sampler(inst))
    ucc = covering_experiment(inst, trials=500, seed=3,
                              sampler=ucc_code_sampler(inst, 2, 2, 2, 2))
    assert iid.passed and ucc.passed
    # cut deviation never beats the raw one by more than the 2*delta(eps) term
    for rep in (iid, ucc):
        assert rep.extras["cut_mean"] <= rep.empirical_mean + 8 * np.sqrt(inst.eps) + 1e-9


def test_covering_scaling_slope():
    means = []
    sizes = (4, 16, 64, 256)
    for m in sizes:
        inst = default_covering_instance(m)
        rep = covering_experiment(inst, trials=600, seed=4)
        means.append(rep.extras["cut_mean"])
    slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_covering_rejects_zero_m():
    inst = default_covering_instance(4)
    with pytest.raises(ValueError):
        CoveringInstance(inst.lam, inst.sigmas, inst.mu, inst.pi, inst.pi_x,
                         eps=0.0, d=inst.d, big_d=inst.big_d, m=0)


def test_ucc_sampler_validation():
    inst = default_covering_instance(16)
    with pytest.raises(ValueError):
        ucc_code_sampler(inst, 3, 2, 1, 1)     # alphabet mismatch
    with pytest.raises(ValueError):
        ucc_code_sampler(inst, 2, 2, 1, 1)     # M mismatch
    letters = 2 ** 11
    lam = np.full(letters, 1.0 / letters)
    eye = np.eye(2, dtype=complex)
    wide = CoveringInstance(lam, np.broadcast_to(eye / 2, (letters, 2, 2)), lam, eye,
                            np.broadcast_to(eye, (letters, 2, 2)),
                            eps=0.0, d=2.0, big_d=2.0, m=4)
    with pytest.raises(ValueError, match="letter-difference table"):
        ucc_code_sampler(wide, 2, 11, 1, 1)    # L x L table above the cap


def test_covering_reproducible():
    inst = default_covering_instance(16)
    r1 = covering_experiment(inst, trials=200, seed=5)
    r2 = covering_experiment(inst, trials=200, seed=5)
    assert r1.empirical_mean == r2.empirical_mean


# ---------------------------------------------------------------------------
# Pruning inequalities.

def test_pruning_deterministic_zero():
    class Zero:
        mean = np.zeros((2, 2))
        def sample(self, rng, size):
            return np.zeros((size, 2, 2))
    rep = pruning_inequality_experiment(Zero(), trials=5, eta=0.5, seed=0)
    assert rep.pathwise_violations == 0
    assert rep.mean_cut == pytest.approx(0.0)


def test_pruning_hand_eigencalc():
    # X = 2|0><0|: I - X has eigenvalues (-1, 1); the pruning projector keeps
    # one direction so Tr{I-P} = 1 <= Tr{X} = 2.
    class Fixed:
        mean = np.diag([0.4, 0.4])
        def sample(self, rng, size):
            return np.tile(np.diag([2.0, 0.0]).astype(complex), (size, 1, 1))
    rep = pruning_inequality_experiment(Fixed(), trials=3, eta=0.5, seed=0)
    assert rep.pathwise_violations == 0
    assert rep.markov_violations == 0
    assert rep.mean_cut == pytest.approx(1.0)


def test_pruning_wishart_sweep():
    sampler = ScaledWishartSampler(4, 5, (1.0 - 0.4) / 2)
    rep = pruning_inequality_experiment(sampler, trials=2000, eta=0.4, seed=6)
    assert rep.pathwise_violations == 0
    assert rep.markov_violations == 0
    assert rep.aggregate_ok and rep.precondition_ok


def test_pruning_precondition_warning():
    sampler = ScaledWishartSampler(3, 4, 0.9)
    rep = pruning_inequality_experiment(sampler, trials=50, eta=0.5, seed=7)
    assert not rep.precondition_ok   # E[X] = 0.9 I > (1-eta) I = 0.5 I


def test_pruning_rejects_bad_eta():
    with pytest.raises(ValueError):
        pruning_inequality_experiment(ScaledWishartSampler(2, 2, 0.1), 10, eta=1.0)


# ---------------------------------------------------------------------------
# Bipartite sandwich reduction.

def test_sandwich_identity_povm_equality():
    rng = np.random.default_rng(9)
    # PSD Gamma: both sides reduce to Tr{Gamma rho_A}, so {I} gives equality.
    rho = random_density(rng, 4, dims=(2, 2))
    gam = random_psd(rng, 2)
    rep = sandwich_reduction_check(rho, gam, [np.eye(2)])
    assert rep.complete and rep.equality_ok
    # Indefinite Gamma on an entangled state keeps only the inequality.
    rep2 = sandwich_reduction_check(rho, random_hermitian(rng, 2), [np.eye(2)])
    assert rep2.inequality_ok


def test_sandwich_half_identity_product_state():
    rng = np.random.default_rng(10)
    ra, rb = random_density(rng, 2), random_density(rng, 2)
    rho = DensityOperator(np.kron(ra.mat, rb.mat), (2, 2))
    gam = random_hermitian(rng, 2)
    rep = sandwich_reduction_check(rho, gam, [np.eye(2) / 2])
    assert not rep.complete
    assert rep.lhs == pytest.approx(rep.rhs / 2, abs=1e-9)


def test_sandwich_equality_psd_gamma_entangled():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(rng, 4, dims=(2, 2))
        gam = random_psd(rng, 2)
        rep = sandwich_reduction_check(rho, gam, random_complete_povm(rng, 2, 3))
        assert rep.inequality_ok and rep.equality_ok


def test_sandwich_inequality_indefinite_gamma():
    rng = np.random.default_rng(12)
    for _ in range(20):
        rho = random_density(rng, 4, dims=(2, 2))
        gam = random_hermitian(rng, 2)
        scale = rng.uniform(0.2, 1.0)
        sub = [scale * e for e in random_complete_povm(rng, 2, 3).elements]
        rep = sandwich_reduction_check(rho, gam, sub)
        assert rep.inequality_ok


def test_sandwich_bell_counterexample(bell_state):
    # Complete projective measurement, indefinite Gamma, entangled state: the
    # inequality is strict (0 < 1), so the equality clause needs PSD Gamma.
    z = np.diag([1.0, -1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    rep = sandwich_reduction_check(bell_state, z, [plus, minus])
    assert rep.complete
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.inequality_ok and rep.equality_ok is False
