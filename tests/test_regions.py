import numpy as np
import pytest

from conftest import membership_disagreements, random_consistent_quantities, sample_box
from povmsim import linalg, regions
from povmsim.cli import bundled_example_path, load_problem
from povmsim.cq import StochasticMap
from povmsim.linalg import DensityOperator, Povm, partial_trace
from povmsim.regions import (
    InfoQuantities,
    LinearInequality,
    RateRegion,
    check_separable_decomposition,
    check_sum_structure,
    compute_distributed_quantities,
    compute_p2p_quantities,
    fourier_motzkin_eliminate,
    gain_indicator,
    augmented_region,
    region_from_json,
    region_to_json,
    surface_scan,
    distributed_inequalities,
    distributed_region,
    point_to_point_region,
    unstructured_sum_constraint,
)


@pytest.fixture(scope="module")
def q1(example1):
    s = example1
    return compute_distributed_quantities(s.rho_ab, s.m_a, s.m_b, s.p_zst, s.p, s.f_s, s.f_t)


@pytest.fixture(scope="module")
def q2(example2):
    s = example2
    return compute_distributed_quantities(s.rho_ab, s.m_a, s.m_b, s.p_zst, s.p, s.f_s, s.f_t)


# ---------------------------------------------------------------------------
# Decomposition / sum structure.

def test_decomposition_self_built_zero_residual(example1):
    rep = check_separable_decomposition(example1.m_ab, example1.m_a, example1.m_b,
                                        example1.p_zst)
    assert rep.passed and rep.max_residual < 1e-12


def test_decomposition_perturbed_fails(example1):
    els = list(example1.m_ab.elements)
    els[0] = els[0] + 0.01 * np.eye(4)
    rep = check_separable_decomposition(Povm(tuple(els)), example1.m_a, example1.m_b,
                                        example1.p_zst)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(0.04, abs=1e-9)  # ||0.01 I_4||_1


def test_sum_structure_example1(example1):
    assert check_sum_structure(example1.p_zst, example1.f_s, example1.f_t,
                               example1.p, example1.p_zw)


def test_sum_structure_example2(example2):
    assert check_sum_structure(example2.p_zst, example2.f_s, example2.f_t,
                               example2.p, example2.p_zw)


def test_sum_structure_random_counterexample(example1):
    rng = np.random.default_rng(21)
    for _ in range(5):
        rows = rng.random((4, 2)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        p_zst = StochasticMap((2, 2), 2, rows.reshape(2, 2, 2))
        assert not check_sum_structure(p_zst, [0, 1], [0, 1], 2, example1.p_zw)


# ---------------------------------------------------------------------------
# Regions.

def _inside(region: RateRegion, point: dict) -> bool:
    """``contains_points`` of one point given as {variable: value}."""
    return bool(region.contains_points(np.array([[point[v] for v in region.variables]]))[0])


def test_distributed_region_zero_quantities():
    region = distributed_region(InfoQuantities())
    assert _inside(region, {"R1": 0, "R2": 0, "C1": 0, "C2": 0})
    assert not _inside(region, {"R1": -0.1, "R2": 0, "C1": 0, "C2": 0})


def test_distributed_example1_sum_gap(q1):
    structured = q1.i_uv_rz + q1.i_w_u + q1.i_w_v - q1.i_u_v
    baseline = unstructured_sum_constraint(q1).const
    assert structured - baseline == pytest.approx(-0.4844, abs=5e-4)
    assert gain_indicator(q1) == pytest.approx(-0.4844, abs=5e-4)


def test_distributed_example2_sum_gap(q2):
    assert gain_indicator(q2) == pytest.approx(-0.9039, abs=5e-4)
    structured = q2.i_uv_rz + q2.i_w_u + q2.i_w_v - q2.i_u_v
    assert structured - q2.i_uv_rz == pytest.approx(gain_indicator(q2), abs=1e-9)


def test_gain_indicator_independent_uniform():
    # U, V independent uniform over F_2: 2*1 - 2 = 0.
    q = InfoQuantities(s_sum=1.0, s_uv=2.0)
    assert gain_indicator(q) == pytest.approx(0.0)


def test_p2p_region_trivial_measurement():
    q = InfoQuantities(i_w_r=0.0, i_w_rz=0.0, s_w=0.0, log_p=1.0)
    region = point_to_point_region(q)
    assert _inside(region, {"R": 1.0, "R1": 0.0, "C": 0.0})
    assert not _inside(region, {"R": 0.9, "R1": 0.0, "C": 0.0})
    assert not _inside(region, {"R": 2.0, "R1": 1.1, "C": 0.0})


def test_p2p_region_saturated_code_rate_corner():
    # Saturating R1 = log p - S(W) leaves R >= I(W;R), R + C >= I(W;RZ).
    q = InfoQuantities(i_w_r=0.4, i_w_rz=0.7, s_w=0.6, log_p=1.0)
    region = point_to_point_region(q)
    r1 = q.log_p - q.s_w
    assert _inside(region, {"R": q.i_w_r, "R1": r1, "C": q.i_w_rz - q.i_w_r})
    assert not _inside(region, {"R": q.i_w_r - 0.01, "R1": r1,
                                "C": q.i_w_rz - q.i_w_r + 0.01})


def test_p2p_region_membership_oracle():
    rng = np.random.default_rng(33)
    q = InfoQuantities(i_w_r=0.5, i_w_rz=0.9, s_w=0.4, log_p=np.log2(3))
    region = point_to_point_region(q)
    for _ in range(200):
        pt = {"R": rng.uniform(-1, 3), "R1": rng.uniform(-1, 3), "C": rng.uniform(-1, 3)}
        want = (pt["R1"] + pt["R"] >= q.i_w_r - q.s_w + q.log_p - 1e-9
                and pt["R1"] + pt["R"] + pt["C"] >= q.i_w_rz - q.s_w + q.log_p - 1e-9
                and -1e-9 <= pt["R1"] <= q.log_p - q.s_w + 1e-9
                and pt["C"] >= -1e-9)
        assert _inside(region, pt) == want


# ---------------------------------------------------------------------------
# Fourier-Motzkin.

def test_r3_zero_quantities_degenerate():
    region = augmented_region(InfoQuantities())   # log_p = 1, all informations 0
    assert _inside(region, {"Rt": 1.0, "R1": 0.0, "R2": 0.0, "C1": 0.0, "C2": 0.0})
    assert not _inside(region, {"Rt": 0.5, "R1": 0.0, "R2": 0.0, "C1": 0.0, "C2": 0.0})


def test_fm_hand_projection():
    region = RateRegion(("Rt", "R1"), (
        LinearInequality({"Rt": 1, "R1": 1}, 3.0),
        LinearInequality({"Rt": -1}, -1.0),
        LinearInequality({"Rt": 1}, 0.0),
    ))
    out = fourier_motzkin_eliminate(region, "Rt")
    assert out.variables == ("R1",)
    assert len(out.inequalities) == 1
    ineq = out.inequalities[0]
    assert ineq.coeffs == {"R1": 1.0}
    assert ineq.const == pytest.approx(2.0)
    assert out.feasible


def test_fm_unbounded_variable_drops_out():
    region = RateRegion(("X", "Y"), (
        LinearInequality({"X": 1, "Y": 1}, 1.0),   # lower bound on X only
        LinearInequality({"Y": 1}, 0.0),
    ))
    out = fourier_motzkin_eliminate(region, "X")
    assert out.variables == ("Y",)
    assert len(out.inequalities) == 1


def test_fm_infeasible_constant_row():
    region = RateRegion(("X",), (
        LinearInequality({"X": 1}, 2.0),
        LinearInequality({"X": -1}, -1.0),   # X <= 1 but X >= 2
    ))
    out = fourier_motzkin_eliminate(region, "X")
    assert not out.feasible
    assert not out.contains_points(np.zeros((1, 0))).any()


def test_fm_missing_variable_rejected():
    region = RateRegion(("X",), (LinearInequality({"X": 1}, 0.0),))
    with pytest.raises(ValueError):
        fourier_motzkin_eliminate(region, "Y")


def test_fm_consistency_example1(q1):
    elim = fourier_motzkin_eliminate(augmented_region(q1), "Rt")
    elim = RateRegion(("R1", "R2", "C1", "C2"), elim.inequalities, feasible=elim.feasible)
    assert membership_disagreements(elim, distributed_region(q1), 4000, seed=17) == 0


def test_fm_consistency_synthetic():
    rng = np.random.default_rng(18)
    for trial in range(5):
        q = random_consistent_quantities(rng)
        elim = fourier_motzkin_eliminate(augmented_region(q), "Rt")
        elim = RateRegion(("R1", "R2", "C1", "C2"), elim.inequalities, feasible=elim.feasible)
        assert membership_disagreements(elim, distributed_region(q), 2000, seed=trial) == 0


def test_fm_projection_semantics(q1):
    # Every point of the eliminated region extends to the original region and
    # conversely, via the 1-D feasibility interval for Rt.
    rng = np.random.default_rng(19)
    r3 = augmented_region(q1)
    elim = fourier_motzkin_eliminate(r3, "Rt")
    elim = RateRegion(("R1", "R2", "C1", "C2"), elim.inequalities, feasible=elim.feasible)
    lo, hi = sample_box([elim])
    names = elim.variables
    for _ in range(300):
        pt = {v: float(rng.uniform(lo, hi)) for v in names}
        inside = _inside(elim, pt)
        # compute the Rt feasibility interval in the original region
        rt_lo, rt_hi = -np.inf, np.inf
        for ineq in r3.inequalities:
            c = ineq.coeffs.get("Rt", 0.0)
            rest = sum(ineq.coeffs.get(v, 0.0) * pt[v] for v in names)
            if c > 0:
                rt_lo = max(rt_lo, (ineq.const - rest) / c)
            elif c < 0:
                rt_hi = min(rt_hi, (ineq.const - rest) / c)
            elif rest < ineq.const - 1e-9:
                rt_lo, rt_hi = 1.0, 0.0  # unsatisfiable row without Rt
        assert inside == (rt_lo <= rt_hi + 1e-9)


def test_region_membership_unit_box():
    region = RateRegion(("X", "Y"), (
        LinearInequality({"X": 1}, 0.0), LinearInequality({"X": -1}, -1.0),
        LinearInequality({"Y": 1}, 0.0), LinearInequality({"Y": -1}, -1.0),
    ))
    assert _inside(region, {"X": 0.5, "Y": 0.5})
    assert not _inside(region, {"X": 1.5, "Y": 0.5})


def test_region_json_round_trip(q1):
    region = distributed_region(q1)
    back = region_from_json(region_to_json(region))
    assert back.variables == region.variables
    for a, b in zip(back.inequalities, region.inequalities):
        assert a.coeffs == b.coeffs and a.const == pytest.approx(b.const)


# ---------------------------------------------------------------------------
# Region comparison (structured vs baseline inequality systems).

def test_structured_system_admits_baseline_violation(q1):
    five = RateRegion(("R1", "R2", "C1", "C2"), distributed_inequalities(q1))
    baseline = unstructured_sum_constraint(q1)
    rng = np.random.default_rng(20)
    lo, hi = sample_box([five])
    pts = rng.uniform(lo, hi, size=(20000, 4))
    inside = five.contains_points(pts)
    sums = pts.sum(axis=1)
    witnesses = inside & (sums < baseline.const - 1e-9)
    assert witnesses.any()


# ---------------------------------------------------------------------------
# Surface scan.

def test_surface_scan_invalid_point_flagged(bell_state):
    pts = surface_scan(bell_state, ([2.0], [0.0], [0.0]))
    assert len(pts) == 1 and not pts[0].valid


def test_surface_scan_projective_point(bell_state):
    pts = surface_scan(bell_state, ([1.0], [0.0], [0.0]))
    assert pts[0].valid
    # projective basis measurement: U = V perfectly correlated; over F_3 the
    # sum register keeps the full bit so the indicator is 2*1 - 1 = +1.
    assert pts[0].gain == pytest.approx(1.0, abs=1e-9)


def test_surface_scan_matches_sigma3_pipeline(bell_state):
    # Oracle: the full sigma_3 pipeline at a handful of valid theta points.
    from povmsim.cq import build_sigma3, entropy_of, regroup
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 4:
        t1 = rng.uniform(0.2, 0.8)
        t2, t3 = rng.uniform(-0.3, 0.3, size=2)
        if t2 * t2 + t3 * t3 > t1 * (1 - t1):
            continue
        lam0 = np.array([[t1, t2 + 1j * t3], [t2 - 1j * t3, 1 - t1]])
        m = Povm((lam0, np.eye(2) - lam0))
        uniform = StochasticMap((2, 2), 2, np.full((2, 2, 2), 0.5))
        cq = build_sigma3(bell_state, m, m, uniform)
        cq = regroup(cq, (("S", 3), ("T", 3), ("Z", 2), ("W", 3)),
                     lambda lab: lab + ((lab[0] + lab[1]) % 3,))
        want = 2 * entropy_of(cq, {"W"}) - entropy_of(cq, {"S", "T"})
        got = surface_scan(bell_state, ([t1], [t2], [t3]))[0].gain
        assert got == pytest.approx(want, abs=1e-9)
        checked += 1


def test_surface_scan_theta3_symmetry(bell_state):
    axis = regions.symmetric_axis(7)
    pts = surface_scan(bell_state, (axis, axis, axis))
    table = {(round(p.theta1, 6), round(p.theta2, 6), round(p.theta3, 6)): p for p in pts}
    for p in pts:
        mirror = table[(round(p.theta1, 6), round(p.theta2, 6), round(-p.theta3, 6))]
        assert mirror.valid == p.valid
        if p.valid:
            assert mirror.gain == pytest.approx(p.gain, abs=1e-9)


def test_gain_swap_invariance(example1, q1):
    # Swapping the A and B roles leaves the indicator unchanged when the
    # measurements coincide and the state is symmetric.
    s = example1
    q_sw = compute_distributed_quantities(s.rho_ab, s.m_b, s.m_a, s.p_zst, s.p,
                                          s.f_t, s.f_s)
    assert gain_indicator(q_sw) == pytest.approx(gain_indicator(q1), abs=1e-9)

# InfoQuantities of the bundled problems as the per-block cq loop computed them.
REFERENCE_QUANTITIES = {
    1: {
        "i_u_rb": 0.781021114358617, "i_v_ra": 0.781021114358617,
        "i_u_rz": 9.108463969731417e-07, "i_v_rz": 9.108463969731417e-07,
        "i_uv_rz": 0.049227690889996456, "i_w_u": 1.2638740725101627e-05,
        "i_w_v": 1.2638740725101627e-05, "i_u_v": 0.4845095113098674,
        "s_u": 0.9999029333006983, "s_v": 0.9999029333006983, "s_uv": 1.5152963552915293,
        "s_sum": 0.515406060731556, "i_u_rzv": 0.5337362913534669,
        "i_v_rzu": 0.5337362913534669,
    },
    2: {
        "i_u_rb": 0.9964257241095513, "i_v_ra": 0.9964257241095513,
        "i_u_rz": 0.00011055680137017632, "i_v_rz": 0.00011055680137017632,
        "i_uv_rz": 0.011853925172431667, "i_w_u": 0.009437840000000586,
        "i_w_v": 0.009437840000000586, "i_u_v": 0.9229570893470251, "s_u": 1.0000000000000002,
        "s_v": 1.0000000000000002, "s_uv": 1.0770429106529753, "s_sum": 0.08648075065297559,
        "i_u_rzv": 0.9347004577180866, "i_v_rzu": 0.9347004577180866,
    },
    4: {
        "i_u_rb": 0.7219280948873624, "i_v_ra": 0.7219280948873623,
        "i_u_rz": 0.010712288240996903, "i_v_rz": 0.0337605553407927,
        "i_uv_rz": 0.11134493677697144, "i_w_u": 0.07927101755105048,
        "i_w_v": 0.2507651864656757, "i_u_v": 0.11227235262923974, "s_u": 0.815058849409967,
        "s_v": 0.9865530183245921, "s_uv": 1.6893395151053194, "s_sum": 0.953551683246403,
        "i_u_rzv": 0.18985673406541848, "i_v_rzu": 0.21290500116521427,
    },
}


@pytest.mark.parametrize("ident", sorted(REFERENCE_QUANTITIES))
def test_distributed_quantities_match_the_reference(ident):
    spec = load_problem(bundled_example_path(ident))
    q = compute_distributed_quantities(spec.rho_ab, spec.m_a, spec.m_b, spec.p_zst, spec.p,
                                       spec.f_s, spec.f_t)
    for name, want in REFERENCE_QUANTITIES[ident].items():
        assert abs(getattr(q, name) - want) < 1e-12, name
    assert q.log_p == np.log2(spec.p)


@pytest.mark.parametrize("ident", sorted(REFERENCE_QUANTITIES))
def test_one_square_root_per_distributed_quantities(monkeypatch, ident):
    # sigma_1 and sigma_2 purify rho_AB and sigma_3 sandwiches with its root:
    # the three read the state's one cached root.
    calls = []
    real = linalg.psd_sqrt
    monkeypatch.setattr(linalg, "psd_sqrt", lambda *a, **k: calls.append(1) or real(*a, **k))
    spec = load_problem(bundled_example_path(ident))
    assert calls == []
    compute_distributed_quantities(spec.rho_ab, spec.m_a, spec.m_b, spec.p_zst, spec.p,
                                   spec.f_s, spec.f_t)
    assert len(calls) == 1


def test_p2p_quantities_match_the_reference(example1):
    q = compute_p2p_quantities(partial_trace(example1.rho_ab, traced=[1]), example1.m_a,
                               example1.p_zw, example1.p)
    want = {"i_w_r": 0.7810211143586168, "i_w_rz": 0.7975172819534895, "s_w": 0.999902933300698}
    for name, value in want.items():
        assert abs(getattr(q, name) - value) < 1e-12, name


def test_p2p_quantities_read_only_the_reached_letters(example2):
    # example2's p_zw is on F_3 while m_a has 2 outcomes: row 2 is never read.
    rho = partial_trace(example2.rho_ab, traced=[1])
    p_zw = example2.p_zw
    assert p_zw.input_sizes == (3,) and len(example2.m_a) == 2
    cut = StochasticMap((2,), p_zw.output_size, p_zw.probs[:2])
    assert (compute_p2p_quantities(rho, example2.m_a, p_zw, example2.p)
            == compute_p2p_quantities(rho, example2.m_a, cut, example2.p))
    spec = load_problem(bundled_example_path(4))
    q = compute_p2p_quantities(partial_trace(spec.rho_ab, traced=[1]), spec.m_a, spec.p_zw,
                               spec.p)
    assert abs(q.i_w_r - 0.7219280948873623) < 1e-12
    one_letter = StochasticMap((1,), 2, [[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"inputs \(1,\) do not cover the POVM outcomes \(2,\)"):
        compute_p2p_quantities(rho, example2.m_a, one_letter, example2.p)
