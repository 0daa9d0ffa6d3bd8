"""The stacked lab, surface, ensemble and side-build passes against their loop references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from conftest import random_density, random_rank_one_povm
from povmsim import codes, lab, protocol, regions
from povmsim.cli import bundled_example_path, default_covering_instance, load_problem
from povmsim.linalg import partial_trace

# Not a multiple of lab.TRIAL_BLOCK, so the last block is a partial one.
TRIALS = 2 * lab.TRIAL_BLOCK + 37


def _pruning_fields(rep):
    return {"pathwise_violations": rep.pathwise_violations,
            "markov_violations": rep.markov_violations, "mean_cut": rep.mean_cut,
            "mean_bound": rep.mean_bound, "aggregate_ok": rep.aggregate_ok}


def _assert_pruning_matches(rep, want):
    got = _pruning_fields(rep)
    for key in ("pathwise_violations", "markov_violations", "aggregate_ok"):
        assert got[key] == want[key], key
    for key in ("mean_cut", "mean_bound"):
        assert got[key] == pytest.approx(want[key], abs=1e-12), key


# ---------------------------------------------------------------------------
# Covering.

def _samplers(inst, name, k, l):
    """(sampler, per-trial draw) of the i.i.d. or the UCC code over F_2^2."""
    if name == "iid":
        return lab.iid_code_sampler(inst), ref.iid_draw(inst)
    return lab.ucc_code_sampler(inst, 2, 2, k, l), ref.ucc_draw(inst, 2, 2, k, l)


def _assert_covering_matches_loop(inst, sampler, draw, seed):
    rep = lab.covering_experiment(inst, TRIALS, seed, sampler=sampler)
    raw, cut = ref.covering_loop(inst, TRIALS, seed, draw)
    assert rep.empirical_mean == pytest.approx(raw.mean(), abs=1e-12)
    assert rep.extras["cut_mean"] == pytest.approx(cut.mean(), abs=1e-12)
    raw_se = raw.std(ddof=1) / np.sqrt(TRIALS)
    cut_se = cut.std(ddof=1) / np.sqrt(TRIALS)
    assert rep.stderr == pytest.approx(raw_se, abs=1e-12)
    assert rep.extras["cut_stderr"] == pytest.approx(cut_se, abs=1e-12)
    assert rep.passed == bool(raw.mean() <= rep.bound + 3 * raw_se
                              and cut.mean() <= rep.extras["cut_bound"] + 3 * cut_se)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("sampler_name", ["iid", "ucc"])
def test_covering_matches_loop(seed, sampler_name):
    inst = default_covering_instance(256)
    _assert_covering_matches_loop(inst, *_samplers(inst, sampler_name, 2, 6), seed)


def _projector(rng, dim, rank):
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return q[:, :rank] @ q[:, :rank].conj().T


def _qutrit_instance_with_projectors():
    """Four qutrit letters, a rank-2 Pi and a rank-2 Pi_x per letter, M = 4."""
    rng = np.random.default_rng(21)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    sigmas = np.stack([random_density(rng, 3).mat for _ in lam])
    pi_x = np.stack([_projector(rng, 3, 2) for _ in lam])
    return lab.CoveringInstance(lam, sigmas, np.full(4, 0.25), _projector(rng, 3, 2), pi_x,
                                eps=0.1, d=1.5, big_d=3.0, m=4)


def test_cut_states_and_targets_match_per_letter_products():
    inst = _qutrit_instance_with_projectors()
    assert not np.allclose(inst.pi, np.eye(3)) and not np.allclose(inst.pi_x, np.eye(3))
    tilde = inst.sigma_tilde()
    np.testing.assert_allclose(tilde, ref.cut_states(inst), rtol=0, atol=1e-15)
    np.testing.assert_allclose(inst.sigma(), sum(w * s for w, s in zip(inst.lam, inst.sigmas)),
                               rtol=0, atol=1e-15)
    assert np.linalg.norm(tilde - inst.sigmas) > 0.1       # the projectors do cut


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("sampler_name", ["iid", "ucc"])
def test_covering_with_projectors_matches_loop(seed, sampler_name):
    inst = _qutrit_instance_with_projectors()
    _assert_covering_matches_loop(inst, *_samplers(inst, sampler_name, 1, 1), seed)


# With p = 2, x - y = y - x over F_2^n, so a letter-difference table read
# backwards passes every p = 2 case; the p > 2 cases catch it.
@pytest.mark.parametrize("p,n,k,l", [(2, 2, 2, 2), (2, 2, 0, 3), (3, 1, 1, 0),
                                     (3, 2, 1, 1), (5, 1, 1, 1), (3, 2, 0, 2)])
def test_code_sampler_counts_equal_per_trial_draws(p, n, k, l):
    inst = default_covering_instance(p ** (k + l))
    if p ** n != inst.alphabet_size:
        lam = np.full(p ** n, 1.0 / p ** n)
        inst = lab.CoveringInstance(lam, np.stack([np.eye(2) / 2] * p ** n), lam,
                                    np.eye(2), np.stack([np.eye(2)] * p ** n),
                                    eps=0.0, d=2.0, big_d=2.0, m=p ** (k + l))
    for sampler, draw in ((lab.iid_code_sampler(inst), ref.iid_draw(inst)),
                          (lab.ucc_code_sampler(inst, p, n, k, l), ref.ucc_draw(inst, p, n, k, l))):
        got = sampler(np.random.default_rng(3), 50)
        rng = np.random.default_rng(3)
        want = np.stack([draw(rng) for _ in range(50)])
        assert got.shape == (50, inst.alphabet_size)
        np.testing.assert_array_equal(got, want)


def test_ucc_sampler_row_chunks_do_not_change_counts(monkeypatch):
    # A cap that fits 3 trials per chunk splits a block into row chunks; the
    # counts equal one draw per trial all the same.
    inst = default_covering_instance(16)
    draw = ref.ucc_draw(inst, 2, 2, 2, 2)
    rng = np.random.default_rng(4)
    want = np.stack([draw(rng) for _ in range(10)])
    monkeypatch.setattr(lab, "ENUMERATION_CAP", 3 * (2 * 2 + 4 * 2 + 4 * 2 + 16))
    got = lab.ucc_code_sampler(inst, 2, 2, 2, 2)(np.random.default_rng(4), 10)
    np.testing.assert_array_equal(got, want)


def _hermitian_stack(rng, size, d):
    a = rng.standard_normal((size, d, d)) + 1j * rng.standard_normal((size, d, d))
    return (a + a.conj().swapaxes(-1, -2)) / 2


def test_qubit_trace_norms_match_the_spectrum():
    rng = np.random.default_rng(13)
    v = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    stacks = {
        "random": _hermitian_stack(rng, 1000, 2),
        "zero": np.zeros((3, 2, 2), dtype=complex),
        "multiples of I": rng.standard_normal(50)[:, None, None] * np.eye(2),
        "rank one": v[:, :, None] * v[:, None, :].conj(),
        "tiny": 1e-150 * _hermitian_stack(rng, 200, 2),
        "huge": 1e150 * _hermitian_stack(rng, 200, 2),
    }
    # Only the lower triangle is read, as eigvalsh reads it.
    stacks["upper triangle ignored"] = stacks["random"].copy()
    stacks["upper triangle ignored"][:, 0, 1] = 7.0 + 3.0j
    for name, a in stacks.items():
        want = np.abs(np.linalg.eigvalsh(a)).sum(-1)
        np.testing.assert_allclose(lab._hermitian_trace_norms(a), want, rtol=1e-14, atol=0,
                                   err_msg=name)


def _count_spectra(monkeypatch, inst):
    """Stacked eigvalsh calls made by one covering run of TRIALS trials."""
    stacked = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        stacked.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    lab.covering_experiment(inst, TRIALS, 3)
    monkeypatch.undo()
    return stacked


def test_covering_takes_qubit_norms_in_closed_form(monkeypatch):
    assert _count_spectra(monkeypatch, default_covering_instance(16)) == []


def test_covering_takes_one_spectrum_per_block_above_qubits(monkeypatch):
    rng = np.random.default_rng(15)
    lam = np.full(4, 0.25)
    sigmas = np.stack([random_density(rng, 3).mat for _ in range(4)])
    eye = np.eye(3, dtype=complex)
    inst = lab.CoveringInstance(lam, sigmas, lam.copy(), eye, np.stack([eye] * 4),
                                eps=0.0, d=1.0, big_d=3.0, m=16)
    stacked = _count_spectra(monkeypatch, inst)
    assert len(stacked) == len(lab._blocks(TRIALS))
    assert all(shape[-2:] == (3, 3) for shape in stacked)


# ---------------------------------------------------------------------------
# Pruning.

@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("dim,shots,eta", [(4, 6, 0.3), (3, 2, 0.5), (2, 1, 0.1)])
def test_pruning_matches_loop(seed, dim, shots, eta):
    sampler = lab.ScaledWishartSampler(dim, shots, (1.0 - eta) / 2.0)
    rep = lab.pruning_inequality_experiment(sampler, TRIALS, eta, seed)
    want = ref.pruning_loop(sampler.mean, TRIALS, eta, seed, ref.wishart_draw(sampler))
    _assert_pruning_matches(rep, want)


class _HermitianSpectrumSampler:
    """Random Hermitian X = U diag(v) U^dagger with eigenvalues placed around the
    checks' thresholds, so pathwise and Markov violations both occur."""

    values = np.array([2.0, -3.0, 1.0 + 5e-11, 1.0 + 1e-13, 0.5, 0.0])

    def __init__(self, mean):
        self.mean = np.asarray(mean, dtype=complex)
        self.dim = len(self.mean)

    def draw(self, rng):
        d = self.dim
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        x = (u * self.values[rng.integers(0, self.values.size, d)]) @ u.conj().T
        return (x + x.conj().T) / 2

    def sample(self, rng, size):
        return np.stack([self.draw(rng) for _ in range(size)])


def _check_violation_counts(monkeypatch, mean, spectra_per_block):
    """The report equals the loop reference, taking ``spectra_per_block`` eigvalsh per block."""
    sampler = _HermitianSpectrumSampler(mean)
    stacked = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rep = lab.pruning_inequality_experiment(sampler, TRIALS, 0.4, 5)
    monkeypatch.undo()
    assert len(stacked) == spectra_per_block * len(lab._blocks(TRIALS))
    want = ref.pruning_loop(sampler.mean, TRIALS, 0.4, 5, sampler.draw)
    assert want["pathwise_violations"] > 0 and want["markov_violations"] > 0
    _assert_pruning_matches(rep, want)


def test_pruning_violation_counts_match_loop(monkeypatch):
    # A mean that is not a multiple of I costs a second spectrum, of X - E[X].
    _check_violation_counts(monkeypatch, np.diag([0.4, 0.3, 0.2]), 2)


def test_pruning_scalar_mean_takes_one_spectrum(monkeypatch):
    # E[X] = s I: ||X - s I||_1 is read off the spectrum of X.
    _check_violation_counts(monkeypatch, 0.3 * np.eye(3), 1)


def _count_4x4_spectra(monkeypatch, run):
    """run() and the number of trials in each stacked 4 x 4 eigvalsh call it made."""
    stacked = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        if np.ndim(a) >= 3 and np.shape(a)[-2:] == (4, 4):
            stacked.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    result = run()
    monkeypatch.undo()
    return result, stacked


@pytest.mark.parametrize("mean,spectra", [(np.diag([0.4, 0.3, 0.2, 0.1]), 2),
                                          (0.3 * np.eye(4), 1)],
                         ids=["general-mean", "scalar-mean"])
def test_pruning_4x4_closed_form_hands_uncertain_trials_to_eigvalsh(monkeypatch, mean, spectra):
    # Repeated eigenvalues, and eigenvalues 5e-11 and 1e-13 above 1, straddle
    # the cut (1 + 1e-10) and the X <= I check (1 + 1e-12): the closed form
    # must not decide those trials.  Trials of four distinct values far from
    # the thresholds stay in closed form.
    sampler = _HermitianSpectrumSampler(mean)
    rep, stacked = _count_4x4_spectra(
        monkeypatch, lambda: lab.pruning_inequality_experiment(sampler, TRIALS, 0.4, 5))
    want = ref.pruning_loop(sampler.mean, TRIALS, 0.4, 5, sampler.draw)
    assert want["pathwise_violations"] > 0 and want["markov_violations"] > 0
    _assert_pruning_matches(rep, want)
    assert 0 < len(stacked) <= spectra * len(lab._blocks(TRIALS))
    assert 0 < sum(stacked) < spectra * TRIALS


def _with_spectra(u, values):
    """U diag(values) U^dagger for each unitary U of a stack."""
    return (u * values[:, None, :]) @ u.conj().swapaxes(-1, -2)


def test_hermitian_spectra_match_eigvalsh():
    rng = np.random.default_rng(17)
    u = np.linalg.qr(_hermitian_stack(rng, 300, 4))[0]
    v = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    levels = (1 + 1e-10, 1 + 1e-12)
    near = 1 + np.array([1e-10, 1e-12, 5e-11, 1e-13, -1e-13, 1e-10 + 1e-15])
    stacks = {
        "random": _hermitian_stack(rng, 2000, 4),
        "zero": np.zeros((3, 4, 4), dtype=complex),
        "multiples of I": rng.standard_normal(50)[:, None, None] * np.eye(4),
        "rank one": v[:, :, None] * v[:, None, :].conj(),
        "degenerate": _with_spectra(u, np.tile([1.0, 1.0, 2.0, -3.0], (300, 1))),
        "at the thresholds": _with_spectra(u, np.column_stack(
            [rng.choice(near, 300), rng.uniform(-2, 3, (300, 3))])),
        "tiny": 1e-150 * _hermitian_stack(rng, 200, 4),
        "huge": 1e150 * _hermitian_stack(rng, 200, 4),
        "stacked twice": _hermitian_stack(rng, 20, 4).reshape(2, 10, 4, 4),
    }
    # Only the lower triangle is read, as eigvalsh reads it.
    stacks["upper triangle ignored"] = stacks["random"].copy()
    stacks["upper triangle ignored"][:, 0, 1:] = 7.0 + 3.0j
    stacks["upper triangle ignored"][::2, 1, 3] = np.nan
    for name, a in stacks.items():
        want = np.linalg.eigvalsh(a)
        got = lab._hermitian_spectra(a, levels)
        assert got.shape == want.shape, name
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale), name
        for level in levels:
            np.testing.assert_array_equal(got > level, want > level, err_msg=name)


def test_wishart_pruning_takes_no_eigvalsh(monkeypatch):
    sampler = lab.ScaledWishartSampler(4, 6, 0.35)
    _, stacked = _count_4x4_spectra(
        monkeypatch, lambda: lab.pruning_inequality_experiment(sampler, 10000, 0.3, 0))
    assert stacked == []


@pytest.mark.parametrize("dim,shots", [(4, 6), (3, 2), (1, 1), (5, 9)])
def test_wishart_samples_match_per_trial_draws(dim, shots):
    sampler = lab.ScaledWishartSampler(dim, shots, 0.35)
    rng = np.random.default_rng(8)
    got = np.concatenate([sampler.sample(rng, size) for size in (lab.TRIAL_BLOCK, 37, 1)])
    draw, rng = ref.wishart_draw(sampler), np.random.default_rng(8)
    want = np.stack([draw(rng) for _ in range(len(got))])
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-15 * np.abs(want).max(axis=(1, 2)))
    # Exactly Hermitian: the lower triangle is the conjugated upper one.
    np.testing.assert_array_equal(got, got.conj().swapaxes(-1, -2))


def test_wishart_row_chunks_do_not_change_samples_or_reports(monkeypatch):
    sampler = lab.ScaledWishartSampler(4, 6, 0.35)

    def run():
        samples = sampler.sample(np.random.default_rng(3), 100)
        return samples, _pruning_fields(lab.pruning_inequality_experiment(sampler, 300, 0.3, 2))

    default = run()
    monkeypatch.setattr(lab, "ENUMERATION_CAP", 100)    # 2-trial chunks, 6-trial blocks
    sizes, sample = [], lab.ScaledWishartSampler.sample
    monkeypatch.setattr(lab.ScaledWishartSampler, "sample",
                        lambda self, rng, size: sizes.append(size) or sample(self, rng, size))
    small = run()
    assert max(sizes[1:]) == 100 // 16
    np.testing.assert_allclose(small[0], default[0], rtol=1e-15, atol=0)
    assert default[1] == pytest.approx(small[1], abs=1e-12)


def test_reports_do_not_depend_on_the_trial_block(monkeypatch):
    inst = default_covering_instance(16)
    wishart = lab.ScaledWishartSampler(4, 6, 0.35)

    def reports():
        return (lab.covering_experiment(inst, 300, 2, lab.ucc_code_sampler(inst, 2, 2, 2, 2)),
                lab.covering_experiment(inst, 300, 2),
                _pruning_fields(lab.pruning_inequality_experiment(wishart, 300, 0.3, 2)))

    default = reports()
    monkeypatch.setattr(lab, "TRIAL_BLOCK", 7)
    small = reports()
    for a, b in zip(default[:2], small[:2]):
        assert a.passed == b.passed
        assert a.empirical_mean == pytest.approx(b.empirical_mean, abs=1e-12)
    assert default[2] == pytest.approx(small[2], abs=1e-12)


# ---------------------------------------------------------------------------
# Surface scan.

@pytest.mark.parametrize("field_p", [2, 3, 5])
def test_surface_scan_matches_per_point_formula(field_p):
    # A mixed state with no A <-> B symmetry, so a transposed contraction shows.
    rng = np.random.default_rng(31)
    rho = random_density(rng, 4, dims=(2, 2))
    assert not np.allclose(rho.mat, rho.mat.reshape(2, 2, 2, 2)
                           .transpose(1, 0, 3, 2).reshape(4, 4))
    axes = (np.concatenate([regions.symmetric_axis(7), rng.uniform(0.0, 1.0, 5)]),
            rng.uniform(-0.5, 0.5, 6), rng.uniform(-0.5, 0.5, 5))
    scan = regions.surface_scan(rho, axes, field_p=field_p)
    t1, t2, t3 = (c.ravel() for c in np.meshgrid(*axes, indexing="ij"))
    np.testing.assert_array_equal(scan.theta1, t1)
    np.testing.assert_array_equal(scan.theta3, t3)
    want = [ref.surface_point(rho.mat, a, b, c, field_p) for a, b, c in zip(t1, t2, t3)]
    valid = np.array([v for v, _ in want])
    np.testing.assert_array_equal(scan.valid, valid)
    assert 0 < valid.sum() < valid.size
    np.testing.assert_allclose(scan.gain[valid], [g for v, g in want if v], rtol=0, atol=1e-12)
    assert np.all(np.isnan(scan.gain[~valid]))


def test_surface_scan_points_and_columns_agree(bell_state):
    axis = regions.symmetric_axis(5)
    scan = regions.surface_scan(bell_state, (axis, axis, axis))
    points = list(scan)
    assert len(points) == len(scan) == 125
    last_valid = int(np.nonzero(scan.valid)[0][-1])
    assert points[last_valid] == scan[last_valid - 125] == scan[last_valid]
    with pytest.raises(IndexError):
        scan[125]
    for i, pt in enumerate(points):
        assert (pt.theta1, pt.theta2, pt.theta3) == (scan.theta1[i], scan.theta2[i],
                                                     scan.theta3[i])
        assert pt.valid == scan.valid[i]
        assert pt.gain == scan.gain[i] or not pt.valid


def test_surface_csv_rows_match_per_row_format(bell_state):
    axis = regions.symmetric_axis(7, 0.6)
    scan = regions.surface_scan(bell_state, (axis, axis, axis))
    want = ["theta1,theta2,theta3,valid,gain_indicator"] + [
        f"{p.theta1:.6f},{p.theta2:.6f},{p.theta3:.6f},{int(p.valid)},"
        + (f"{p.gain:.12f}" if p.valid else "") for p in scan]
    assert regions.surface_to_csv(scan) == "\n".join(want) + "\n"


# ---------------------------------------------------------------------------
# Code ensembles.

@pytest.mark.parametrize("p,n,k,l", [(3, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1), (3, 1, 0, 1)])
def test_ensemble_checks_match_brute_force(monkeypatch, p, n, k, l):
    # 81, 64, 16 and 27 ensembles in blocks of 5: each ends in a partial block.
    words = p ** (k + l)
    monkeypatch.setattr(codes, "BLOCK_KEYS", 5 * words * (words - 1))   # 5 x the ordered pairs
    total, dev_single, dev_pair = ref.pairwise_deviations(p, n, k, l)
    assert total % 5
    rep = codes.pairwise_independence_check(p, n, k, l)
    assert (rep.num_ensembles, rep.worst_single_deviation, rep.worst_pair_deviation) == \
        (total, dev_single, dev_pair)
    assert rep.exact
    if p >= 3 and k >= 1:
        holds, dev = ref.three_way_counts(p, n, k, l)
        wit = rep.witness
        assert (wit.relation_holds_always, wit.max_joint_deviation) == (holds, dev)
        assert wit.fires
    else:
        assert rep.witness is None


def test_ensemble_checks_default_block_partial():
    # 3**8 = 6561 ensembles in blocks of BLOCK_KEYS // 72 (the ordered pairs of
    # 9 codewords): full blocks and a partial one.
    assert 3 ** 8 % (codes.BLOCK_KEYS // 72)
    rep = codes.pairwise_independence_check(3, 2, 1, 1)
    assert rep.num_ensembles == 3 ** 8 and rep.exact
    holds, dev = ref.three_way_counts(3, 2, 1, 1)
    wit = rep.witness
    assert (wit.relation_holds_always, wit.max_joint_deviation) == (holds, dev)


def test_codeword_indices_match_all_codewords():
    rng = np.random.default_rng(4)
    p, n, k, l = 3, 3, 2, 1
    G = rng.integers(0, p, size=(6, k, n))
    h = rng.integers(0, p, size=(6, p ** l, n))
    flat = codes.codeword_indices(G, h, p)
    pow_vec = p ** np.arange(n - 1, -1, -1)
    for b in range(6):
        code = codes.UccCode(p, n, k, l, G[b], h[b])
        np.testing.assert_array_equal(flat[b], codes.all_codewords(code) @ pow_vec)


# ---------------------------------------------------------------------------
# The protocol's side build, stacked over the mus, against one pass per code.

def _assert_sides_equal(side, want):
    """Every code's SideData view of ``side`` equals the per-code namespace, bit for bit."""
    assert len(side.mus) == len(want)
    for got, ns in zip(side.mus, want):
        assert got.gamma == ns.gamma and list(got.gamma) == list(ns.gamma)
        for name in ("factors", "a_factors"):
            a, b = getattr(got, name), getattr(ns, name)
            assert list(a) == list(b)
            assert all(np.array_equal(a[w], b[w]) and a[w].shape == b[w].shape for w in a)
        assert got.v_cut.shape == ns.v_cut.shape and np.array_equal(got.v_cut, ns.v_cut)
        assert [g.shape for g in got.bin_factors] == [g.shape for g in ns.bin_factors]
        assert all(np.array_equal(a, b) for a, b in zip(got.bin_factors, ns.bin_factors))
        assert got.defect == ns.defect
        assert got.codewords.shape == ns.codewords.shape
        assert np.array_equal(got.codewords, ns.codewords)


@given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(0, 2), st.integers(0, 2),
       st.integers(1, 64), st.booleans(), st.sampled_from([0.6, 0.9]))
@settings(max_examples=30, deadline=None)
def test_stacked_side_build_matches_per_code_loop(seed, p, k, l, num, repeat, delta):
    # A generic qubit state measured by a rank-one POVM at n = 3, so the
    # post-states are pure and X_w has a column: the codes differ in their
    # column counts, and some prune and have nonzero bins.  With ``repeat``
    # the rows of G are equal, so a code repeats codewords and a bin can hold
    # a word twice.
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2)
    m = random_rank_one_povm(rng, 2, p)
    params = protocol.ProtocolParams(n=3, k=k, p=p, sides=((l, num),), eta=0.1, delta=delta)
    g = rng.integers(0, p, size=(k, 3))
    if repeat:
        g[1:] = g[:1]
    h = rng.integers(0, p, size=(num, p ** l, 3))
    base = protocol._basis(params, [m], rho).sides[0]
    codewords = protocol._bin_indices(np.broadcast_to(g, (num, k, 3)), h, p)
    side = protocol._build_side(base, codewords)
    _assert_sides_equal(side, ref.side_codes(params, m, rho, g, h))


@given(st.integers(0, 10_000), st.integers(0, 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=15, deadline=None)
def test_stacked_distributed_sides_match_per_code_loop(seed, k, num_a, num_b):
    # Both sides of a distributed instance of a generic two-qubit state at n = 2.
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4, (2, 2))
    povms = [random_rank_one_povm(rng, 2, 2) for _ in range(2)]
    params = protocol.ProtocolParams(n=2, k=k, p=2, sides=((1, num_a), (1, num_b)), eta=0.1,
                                     delta=0.5, seed=seed)
    inst = protocol._build(params, povms, rho)
    g, tables = ref.redraw(params)
    for side, m, h in zip(inst.sides, povms, tables):
        _assert_sides_equal(side, ref.side_codes(params, m, side.rho, g, h))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_side_build_matches_per_code_loop_on_example4(seed):
    # Point-to-point example4 at n = 7: 128-row factors, where the BLAS
    # products round by the layout of their operands, and pruning and bins
    # that are not 0.
    spec = load_problem(bundled_example_path(4))
    rho = partial_trace(spec.rho_ab, traced=[1])
    params = protocol.ProtocolParams(n=7, k=0, p=spec.p, sides=((7, 2),), delta=0.6, seed=seed)
    side = protocol.build_instance(params, spec.m_a, rho).sides[0]
    assert side.cut_ends[-1] and protocol._live_columns(side.bins, side.bin_ends)[0].shape[1]
    g, (h,) = ref.redraw(params)
    _assert_sides_equal(side, ref.side_codes(params, spec.m_a, rho, g, h))
