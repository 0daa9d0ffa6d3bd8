"""The stacked lab, surface and ensemble passes against their loop references."""

import numpy as np
import pytest

import loop_reference as ref
from conftest import random_density
from povmsim import codes, lab, regions
from povmsim.cli import default_covering_instance

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

@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("sampler_name", ["iid", "ucc"])
def test_covering_matches_loop(seed, sampler_name):
    inst = default_covering_instance(256)
    if sampler_name == "iid":
        sampler, draw = lab.iid_code_sampler(inst), ref.iid_draw(inst)
    else:
        sampler, draw = lab.ucc_code_sampler(inst, 2, 2, 2, 6), ref.ucc_draw(inst, 2, 2, 2, 6)
    rep = lab.covering_experiment(inst, TRIALS, seed, sampler=sampler)
    raw, cut = ref.covering_loop(inst, TRIALS, seed, draw)
    assert rep.empirical_mean == pytest.approx(raw.mean(), abs=1e-12)
    assert rep.extras["cut_mean"] == pytest.approx(cut.mean(), abs=1e-12)
    raw_se = raw.std(ddof=1) / np.sqrt(TRIALS)
    cut_se = cut.std(ddof=1) / np.sqrt(TRIALS)
    assert rep.stderr == pytest.approx(raw_se, abs=1e-12)
    assert rep.passed == bool(raw.mean() <= rep.bound + 3 * raw_se
                              and cut.mean() <= rep.extras["cut_bound"] + 3 * cut_se)


@pytest.mark.parametrize("p,n,k,l", [(2, 2, 2, 2), (2, 2, 0, 3), (3, 1, 1, 0)])
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

    def draw(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        x = (u * self.values[rng.integers(0, self.values.size, 3)]) @ u.conj().T
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

@pytest.mark.parametrize("p,n,k,l", [(3, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1)])
def test_ensemble_checks_match_brute_force(monkeypatch, p, n, k, l):
    # 81, 64 and 16 ensembles in blocks of 5: each ends in a partial block.
    monkeypatch.setattr(codes, "ENSEMBLE_BLOCK", 5)
    total, dev_single, dev_pair = ref.pairwise_deviations(p, n, k, l)
    assert total % codes.ENSEMBLE_BLOCK
    rep = codes.pairwise_independence_check(p, n, k, l)
    assert (rep.num_ensembles, rep.worst_single_deviation, rep.worst_pair_deviation) == \
        (total, dev_single, dev_pair)
    assert rep.exact
    if p >= 3:
        holds, dev = ref.three_way_counts(p, n, k, l)
        wit = codes.three_way_dependence_report(p, n, k, l)
        assert (wit.relation_holds_always, wit.max_joint_deviation) == (holds, dev)
        assert wit.fires


def test_ensemble_checks_default_block_partial():
    # 3**8 = 6561 ensembles: three full blocks and a partial one.
    assert 3 ** 8 % codes.ENSEMBLE_BLOCK
    rep = codes.pairwise_independence_check(3, 2, 1, 1)
    assert rep.num_ensembles == 3 ** 8 and rep.exact
    holds, dev = ref.three_way_counts(3, 2, 1, 1)
    wit = codes.three_way_dependence_report(3, 2, 1, 1)
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
