"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line with its measured runtime (run with -s to see them inline).
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    random_complete_povm,
    random_consistent_quantities,
    random_density,
    random_hermitian,
    random_psd,
    rotated_qubit_problem,
)
from povmsim import lab, protocol, regions
from povmsim.cli import bundled_example_path, default_covering_instance, load_problem, main
from povmsim.codes import pairwise_independence_check
from povmsim.cq import StochasticMap
from povmsim.linalg import DensityOperator, Povm, partial_trace
from povmsim.regions import (
    RateRegion,
    compute_distributed_quantities,
    compute_p2p_quantities,
    fourier_motzkin_eliminate,
    gain_indicator,
    membership_disagreements,
    augmented_region,
    distributed_inequalities,
    distributed_region,
    unstructured_sum_constraint,
)


def _report(name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {status} {name}: {detail} (t={elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeds {limit}s"


@pytest.fixture(scope="module")
def q1(example1):
    s = example1
    return compute_distributed_quantities(s.rho_ab, s.m_a, s.m_b, s.p_zst,
                                          s.p, s.f_s, s.f_t)


def test_example1_entropy_quadruple():
    t0 = time.perf_counter()
    s = load_problem(bundled_example_path(1))
    q = compute_distributed_quantities(s.rho_ab, s.m_a, s.m_b, s.p_zst,
                                       s.p, s.f_s, s.f_t)
    got = (q.s_sum, q.s_u, q.s_uv, q.i_u_v)
    want = (0.5155, 0.9999, 1.5154, 0.4844)
    elapsed = time.perf_counter() - t0
    ok = all(abs(g - w) <= 5e-4 for g, w in zip(got, want)) and abs(q.s_v - 0.9999) <= 5e-4
    detail = ("S(U+V)={:.5f} S(U)={:.5f} S(U,V)={:.5f} I(U,V)={:.5f} "
              "vs 0.5155/0.9999/1.5154/0.4844 +-5e-4").format(*got)
    _report("example-1 entropy quadruple", ok, detail, elapsed, 1.0)


def test_example2_gain():
    t0 = time.perf_counter()
    s = load_problem(bundled_example_path(2))
    q = compute_distributed_quantities(s.rho_ab, s.m_a, s.m_b, s.p_zst,
                                       s.p, s.f_s, s.f_t)
    gain = gain_indicator(q)
    elapsed = time.perf_counter() - t0
    _report("example-2 gain", abs(gain - (-0.9039)) <= 5e-4,
            f"2S(U+V)-S(U,V) = {gain:.5f} vs -0.9039 +-5e-4", elapsed, 1.0)


def test_example1_identity_chain(q1):
    t0 = time.perf_counter()
    lhs1 = q1.s_u - q1.s_sum
    lhs2 = q1.s_v - q1.s_sum
    ok = abs(lhs1 - q1.i_u_v) <= 5e-4 and abs(lhs2 - q1.i_u_v) <= 5e-4
    elapsed = time.perf_counter() - t0
    _report("example-1 identity chain", ok,
            f"S(U)-S(U+V)={lhs1:.5f}, S(V)-S(U+V)={lhs2:.5f}, I(U,V)={q1.i_u_v:.5f}",
            elapsed, 1.0)


def test_region_comparison(q1):
    t0 = time.perf_counter()
    structured_rhs = q1.i_uv_rz + q1.i_w_u + q1.i_w_v - q1.i_u_v
    baseline = unstructured_sum_constraint(q1)
    gap = structured_rhs - baseline.const
    gap_ok = abs(gap - (-0.4844)) <= 5e-4
    # The sum-rate inequality systems differ: exhibit a sampled quadruple that
    # satisfies all five distributed inequalities yet violates the baseline row.
    five = RateRegion(("R1", "R2", "C1", "C2"), distributed_inequalities(q1))
    rng = np.random.default_rng(123)
    lo, hi = regions.sample_box([five])
    pts = rng.uniform(lo, hi, size=(10000, 4))
    inside = five.contains_points(pts)
    violates = pts.sum(axis=1) < baseline.const - 1e-9
    witnesses = int(np.sum(inside & violates))
    elapsed = time.perf_counter() - t0
    _report("region comparison", gap_ok and witnesses > 0,
            f"sum-RHS gap = {gap:.5f} (vs -0.4844), separating quadruples: {witnesses}/10000",
            elapsed, 10.0)


def test_fourier_motzkin_consistency(q1):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    vectors = [q1] + [random_consistent_quantities(rng) for _ in range(20)]
    total_disagreements = 0
    for idx, q in enumerate(vectors):
        elim = fourier_motzkin_eliminate(augmented_region(q), "Rt")
        elim = RateRegion(("R1", "R2", "C1", "C2"), elim.inequalities,
                          feasible=elim.feasible)
        total_disagreements += membership_disagreements(
            elim, distributed_region(q), 10000, seed=1000 + idx)
    elapsed = time.perf_counter() - t0
    _report("fourier-motzkin consistency", total_disagreements == 0,
            f"{total_disagreements} disagreements over 21 x 10000 samples",
            elapsed, 10.0)


def test_surface_scan_symmetry(bell_state):
    t0 = time.perf_counter()
    grid = 21
    axis = regions.symmetric_axis(grid)
    pts = regions.surface_scan(bell_state, (axis, axis, axis))
    gains = np.array([p.gain if p.valid else np.nan for p in pts]).reshape(grid, grid, grid)
    valid = np.array([p.valid for p in pts]).reshape(grid, grid, grid)
    sym_ok = True
    for i3 in range(grid):
        m3 = grid - 1 - i3
        if not np.array_equal(valid[:, :, i3], valid[:, :, m3]):
            sym_ok = False
            break
        a, b = gains[:, :, i3], gains[:, :, m3]
        mask = valid[:, :, i3]
        if mask.any() and np.max(np.abs(a[mask] - b[mask])) > 1e-9:
            sym_ok = False
            break
    # at least one sign change along some grid line
    sign_change = False
    for axis_id in range(3):
        g = np.moveaxis(gains, axis_id, -1)
        v = np.moveaxis(valid, axis_id, -1)
        both = v[..., :-1] & v[..., 1:]
        prod = g[..., :-1] * g[..., 1:]
        if np.any(both & (prod < 0)):
            sign_change = True
            break
    elapsed = time.perf_counter() - t0
    _report("surface-scan symmetry", sym_ok and sign_change,
            f"theta3-mirror exact to 1e-9: {sym_ok}, sign change on a grid line: {sign_change}",
            elapsed, 60.0)


def test_pairwise_independence_exhaustive():
    t0 = time.perf_counter()
    devs = []
    for p, n, k, l in ((2, 2, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1)):
        rep = pairwise_independence_check(p, n, k, l)
        devs.append((rep.worst_single_deviation, rep.worst_pair_deviation))
    exact = all(d == (0, 0) for d in devs)
    wit = rep.witness      # of (3, 2, 1, 1), the last check
    elapsed = time.perf_counter() - t0
    _report("pairwise independence", exact and wit.fires,
            f"worst deviations {devs} (exact), three-way witness fires: {wit.fires} "
            f"(joint deviation {wit.max_joint_deviation:.3f} > 0, relation exact: "
            f"{wit.relation_holds_always})", elapsed, 30.0)


def test_covering_lemma():
    t0 = time.perf_counter()
    sizes = (4, 16, 64, 256)
    ucc_params = {4: (1, 1), 16: (2, 2), 64: (2, 4), 256: (2, 6)}
    all_pass = True
    cut_means = []
    for m in sizes:
        inst = default_covering_instance(m)
        iid = lab.covering_experiment(inst, trials=2000, seed=211,
                                      sampler=lab.iid_code_sampler(inst))
        k, l = ucc_params[m]
        ucc = lab.covering_experiment(inst, trials=2000, seed=212,
                                      sampler=lab.ucc_code_sampler(inst, 2, 2, k, l))
        all_pass = all_pass and iid.passed and ucc.passed
        cut_means.append(ucc.extras["cut_mean"])
    slope = float(np.polyfit(np.log(sizes), np.log(cut_means), 1)[0])
    slope_ok = -0.6 <= slope <= -0.4
    elapsed = time.perf_counter() - t0
    _report("covering lemma", all_pass and slope_ok,
            f"bound holds at every M for both samplers: {all_pass}, "
            f"log-log slope {slope:.3f} in [-0.6, -0.4]", elapsed, 300.0)


def test_pruning_inequalities():
    t0 = time.perf_counter()
    eta = 0.3
    sampler = lab.ScaledWishartSampler(4, 6, (1.0 - eta) / 2)
    rep = lab.pruning_inequality_experiment(sampler, trials=10000, eta=eta, seed=31)
    ok = (rep.pathwise_violations == 0 and rep.markov_violations == 0
          and rep.aggregate_ok and rep.precondition_ok)
    elapsed = time.perf_counter() - t0
    _report("pruning inequalities", ok,
            f"pathwise violations {rep.pathwise_violations}/10000, markov-chain "
            f"violations {rep.markov_violations}/10000, aggregate bound within 3 sigma: "
            f"{rep.aggregate_ok}", elapsed, 120.0)


def test_sandwich_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    eq_fail = ineq_fail = 0
    for _ in range(100):
        rho = random_density(rng, 4, dims=(2, 2))
        rep = lab.sandwich_reduction_check(rho, random_psd(rng, 2),
                                       random_complete_povm(rng, 2, 3))
        if not rep.equality_ok:
            eq_fail += 1
    for _ in range(100):
        rho = random_density(rng, 4, dims=(2, 2))
        scale = rng.uniform(0.1, 0.95)
        sub = [scale * e for e in random_complete_povm(rng, 2, 3).elements]
        rep = lab.sandwich_reduction_check(rho, random_hermitian(rng, 2), sub)
        if not rep.inequality_ok:
            ineq_fail += 1
    elapsed = time.perf_counter() - t0
    _report("sandwich reduction", eq_fail == 0 and ineq_fail == 0,
            f"equality failures {eq_fail}/100 complete POVMs, inequality violations "
            f"{ineq_fail}/100 sub-POVMs", elapsed, 60.0)


def test_protocol_sanity():
    t0 = time.perf_counter()
    rho = DensityOperator(np.eye(2) / 2, (2,))
    m = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
    p_zw = StochasticMap((2,), 2, np.eye(2))
    flat = StochasticMap((2,), 2, np.full((2, 2), 0.5))
    # Rate point: R1 = 0, R = 2, C = log2(N)/n; region margin >= 0.5 bit.
    q = compute_p2p_quantities(rho, m, p_zw, p=2)
    sizes = {2: 2, 3: 4, 4: 4, 5: 8}
    margins = []
    for n, num_mu in sizes.items():
        r, r1, c = 2.0, 0.0, np.log2(num_mu) / n
        margins.append(min(r1 + r - (q.i_w_r - q.s_w + q.log_p),
                           r1 + r + c - (q.i_w_rz - q.s_w + q.log_p)))
        assert -1e-9 <= r1 <= q.log_p - q.s_w + 1e-9 and c >= 0
    margin = min(margins)
    worst_defect = 0.0
    medians = {}
    self_k = []
    for n, num_mu in sizes.items():
        if n not in (2, 5):
            continue
        ks = []
        for seed in range(20):
            params = protocol.ProtocolParams(n=n, k=0, p=2, sides=((2 * n, num_mu),),
                                             eta=0.1, delta=0.7, seed=seed)
            inst = protocol.build_instance(params, m, rho)
            worst_defect = max(worst_defect, inst.sub_povm_defect)
            rho_n = protocol.TensorPower(rho, n)
            ks.append(protocol.faithfulness(rho_n, protocol.target_overall(m, p_zw, n),
                                            protocol.assemble_overall(inst, p_zw)))
            if seed == 0:
                # Under a map with equal rows the candidate is the target: K = 0.
                self_k.append(protocol.faithfulness(rho_n, protocol.target_overall(m, flat, n),
                                                    protocol.assemble_overall(inst, flat)))
        medians[n] = float(np.median(ks))
    ok = (margin >= 0.5 and worst_defect <= 1e-9
          and max(abs(v) for v in self_k) <= 1e-9
          and medians[5] <= medians[2])
    elapsed = time.perf_counter() - t0
    _report("protocol sanity", ok,
            f"rate-point margin {margin:.3f} bit, sub-POVM defect {worst_defect:.1e}, "
            f"K under an output map that ignores W <= {max(abs(v) for v in self_k):.1e}, "
            f"median K: n=2 -> {medians[2]:.4f}, n=5 -> {medians[5]:.4f} (non-increasing)",
            elapsed, 600.0)


def test_p2p_faithfulness_pinned():
    # K of the point-to-point protocol where pruning is partial and 12 of 16
    # bins are nonzero; on the default and bundled problems every bin is 0,
    # so their K sees only the completion.
    t0 = time.perf_counter()
    rho, m = rotated_qubit_problem()
    params = protocol.ProtocolParams(n=4, k=0, p=2, sides=((3, 2),), eta=0.1, delta=0.6, seed=1)
    inst = protocol.build_instance(params, m, rho)
    p_zw = StochasticMap((2,), 2, np.array([[0.9, 0.1], [0.2, 0.8]]))
    k = protocol.faithfulness(protocol.TensorPower(rho, 4), protocol.target_overall(m, p_zw, 4),
                              protocol.assemble_overall(inst, p_zw))
    err = abs(k - 1.2029705627041585)
    elapsed = time.perf_counter() - t0
    _report("p2p faithfulness", err <= 1e-9,
            f"rotated qubit at n=4: |K - pinned| = {err:.1e} (<= 1e-9)", elapsed, 60.0)


def test_distributed_faithfulness_pinned(tmp_path):
    # K of the distributed protocol at n = 4 on both bundled problems, as
    # recorded for the benchmark's dist_n4 ops with op seeds 0 and 1, and at
    # n = 5 on example1, where K moves with n (n = 3 and n = 4 both give
    # 0.70784 from a single typical W-word).  Example2 at n = 3 with k = 2
    # and l2 = 0 has one decoder collision.  The rank-one example4 at n = 4
    # and 5 stores words other than w0, so its K reaches the cross term of
    # the candidate's side projections.
    t0 = time.perf_counter()
    dist4 = ["--k", "1", "--l", "1", "--l2", "1", "--N", "2", "--N2", "2", "--delta", "0.5"]
    live = ["--k", "0", "--l", "2", "--l2", "2", "--N", "2", "--N2", "2", "--delta", "0.7"]
    cases = [(1, dist4 + ["--n", "4"], 0, 0.7078394880000027, 0),
             (2, dist4 + ["--n", "4", "--p", "3"], 1, 1.8871551971821832, 0),
             (1, dist4 + ["--n", "5"], 0, 0.7754521602255053, 0),
             (2, ["--n", "3", "--k", "2", "--l", "1", "--l2", "0", "--N", "2", "--N2", "1",
                  "--delta", "0.9"], 0, 1.8838546603989665, 1),
             (4, live + ["--n", "4"], 1, 0.8217104446281065, 0),
             (4, live + ["--n", "5"], 1, 0.8567071272636283, 0)]
    errors, collisions_ok = [], True
    for case, (ident, extra, seed, want, collisions) in enumerate(cases):
        out = tmp_path / f"dist{case}.json"
        rc = main(["simulate", "--mode", "distributed", *extra, "--spec",
                   bundled_example_path(ident), "--seed", str(seed), "--out", str(out)])
        res = json.loads(out.read_text()) if rc == 0 else {}
        errors.append(abs(res.get("K", float("nan")) - want))
        collisions_ok &= res.get("decoder_collisions") == collisions
    ok = all(err <= 1e-9 for err in errors) and collisions_ok
    elapsed = time.perf_counter() - t0
    _report("distributed faithfulness", ok,
            f"example1 and example2 at n=4, example1 at n=5, example2 at n=3 with a "
            f"collision, example4 at n=4 and 5: "
            f"|K - pinned| = {', '.join(f'{e:.1e}' for e in errors)} (<= 1e-9), "
            f"collision counts as pinned: {collisions_ok}", elapsed, 60.0)


def test_p2p_example4_beats_constant_candidate(tmp_path, monkeypatch):
    # simulate --mode p2p --spec example4 takes the dense K route with stored
    # words other than w0.  Its K is pinned, and so is that of the constant
    # candidate, which decodes every bin to w0 over the same instance; the
    # protocol's K is the smaller.
    t0 = time.perf_counter()
    built, build_instance = [], protocol.build_instance

    def build(*args):
        built.append(build_instance(*args))
        return built[-1]

    monkeypatch.setattr(protocol, "build_instance", build)
    spec = load_problem(bundled_example_path(4))
    rho = partial_trace(spec.rho_ab, traced=[1])
    p_ext = protocol.extend_map_to_field(spec.p_zw, spec.p)
    cases = [(7, 0, 0.6463648072713626, 0.7707903236775389),
             (7, 1, 0.6149648486982232, 0.7707903236775389),
             (7, 2, 0.7052370404972658, 0.7707903236775389),
             (8, 0, 0.6809218782017024, 0.8251238242585184)]
    errors, below = [], True
    for n, seed, want, want_constant in cases:
        out = tmp_path / "k.json"
        rc = main(["simulate", "--mode", "p2p", "--spec", bundled_example_path(4),
                   "--n", str(n), "--k", "0", "--l", str(n), "--N", "2", "--delta", "0.6",
                   "--seed", str(seed), "--out", str(out)])
        k = json.loads(out.read_text())["K"] if rc == 0 else float("nan")
        inst = built[-1]
        constant = protocol.FactoredCandidate(
            np.full_like(inst.decoded, -1), inst.w0,
            [(side.bins, side.bin_ends) for side in inst.sides], p_ext, n, [rho.dim])
        k_constant = protocol.faithfulness(protocol.TensorPower(rho, n),
                                           protocol.target_overall(spec.m_a, p_ext, n), constant)
        errors += [abs(k - want), abs(k_constant - want_constant)]
        below &= k < k_constant
    ok = all(err <= 1e-9 for err in errors) and below and len(built) == len(cases)
    elapsed = time.perf_counter() - t0
    _report("p2p example4 against the constant candidate", ok,
            f"n=7 at seeds 0-2 and n=8 at seed 0: |K - pinned|, |K_const - pinned| = "
            f"{', '.join(f'{e:.1e}' for e in errors)} (<= 1e-9), K < K_const: {below}",
            elapsed, 60.0)
