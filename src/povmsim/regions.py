"""Single-letter rate regions, Fourier-Motzkin elimination, and the gain surface scan.

All inequalities are of the form sum_v coeffs[v] * x_v >= const.  Regions are
conjunctions of such inequalities over named rate variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cq import (
    StochasticMap,
    build_sigma1,
    build_sigma2,
    build_sigma3,
    build_sigma_p2p,
    compose,
    cq_mutual_information,
    entropy_of,
    regroup,
)
from .linalg import LOG2, DensityOperator, Povm, require_finite, trace_norm

MEMBERSHIP_SLACK = 1e-9


@dataclass(frozen=True)
class LinearInequality:
    """sum_v coeffs[v] * x_v >= const, with at least one nonzero coefficient."""

    coeffs: dict
    const: float

    def __post_init__(self):
        require_finite(np.array([self.const, *self.coeffs.values()], dtype=float), "inequality")
        clean = {str(v): float(c) for v, c in self.coeffs.items() if abs(c) > 0.0}
        if not clean:
            raise ValueError("inequality needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", float(self.const))


@dataclass(frozen=True)
class RateRegion:
    """Conjunction of linear inequalities over named rate variables."""

    variables: tuple[str, ...]
    inequalities: tuple
    feasible: bool = True   # False when elimination produced a violated constant row

    def __post_init__(self):
        varset = set(self.variables)
        ineqs = tuple(self.inequalities)
        for ineq in ineqs:
            missing = set(ineq.coeffs) - varset
            if missing:
                raise ValueError(f"inequality references undeclared variables {missing}")
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "inequalities", ineqs)

    def matrix(self):
        """(A, c) with rows A x >= c, columns in variable order."""
        a = np.zeros((len(self.inequalities), len(self.variables)))
        c = np.zeros(len(self.inequalities))
        col = {v: j for j, v in enumerate(self.variables)}
        for i, ineq in enumerate(self.inequalities):
            for v, x in ineq.coeffs.items():
                a[i, col[v]] = x
            c[i] = ineq.const
        return a, c

    def contains_points(self, pts: np.ndarray, slack: float = MEMBERSHIP_SLACK) -> np.ndarray:
        """Vectorized membership for an (m, num_vars) array of points."""
        if not self.feasible:
            return np.zeros(pts.shape[0], dtype=bool)
        a, c = self.matrix()
        return np.all(pts @ a.T >= c - slack, axis=1)


def _dominance_prune(ineqs) -> list:
    """Drop inequalities made redundant by another row with identical direction.

    Rows are normalized by their largest absolute coefficient; among rows with
    equal normalized coefficients only the largest constant (tightest >= bound)
    survives.  No LP solve: correctness downstream is by membership, not
    minimality.
    """
    best: dict = {}
    order: list = []
    for ineq in ineqs:
        scale = max(abs(c) for c in ineq.coeffs.values())
        key = tuple(sorted((v, round(c / scale, 12)) for v, c in ineq.coeffs.items()))
        const = ineq.const / scale
        if key not in best:
            best[key] = LinearInequality({v: c for v, c in key}, const)
            order.append(key)
        elif const > best[key].const:
            best[key] = LinearInequality({v: c for v, c in key}, const)
    return [best[k] for k in order]


def fourier_motzkin_eliminate(region: RateRegion, var: str,
                              slack: float = MEMBERSHIP_SLACK) -> RateRegion:
    """Project out ``var`` by pairing every lower bound on it with every upper bound."""
    if var not in region.variables:
        raise ValueError(f"variable {var!r} not declared in region")
    lowers, uppers, keep = [], [], []
    for ineq in region.inequalities:
        c = ineq.coeffs.get(var, 0.0)
        if c > 0:
            lowers.append(ineq)
        elif c < 0:
            uppers.append(ineq)
        else:
            keep.append(ineq)
    new_vars = tuple(v for v in region.variables if v != var)
    feasible = region.feasible
    combined = []
    for lo, up in itertools.product(lowers, uppers):
        a_lo = lo.coeffs[var]
        a_up = up.coeffs[var]
        # a_lo * up + (-a_up) * lo has zero coefficient on var.
        coeffs: dict = {}
        for v, c in up.coeffs.items():
            coeffs[v] = coeffs.get(v, 0.0) + a_lo * c
        for v, c in lo.coeffs.items():
            coeffs[v] = coeffs.get(v, 0.0) + (-a_up) * c
        coeffs.pop(var, None)
        const = a_lo * up.const + (-a_up) * lo.const
        coeffs = {v: c for v, c in coeffs.items() if abs(c) > 1e-12}
        if not coeffs:
            # Constant row 0 >= const: vacuous if satisfied, else infeasible.
            if const > slack:
                feasible = False
            continue
        combined.append(LinearInequality(coeffs, const))
    return RateRegion(new_vars, tuple(_dominance_prune(keep + combined)), feasible=feasible)


# ---------------------------------------------------------------------------
# Information quantities feeding the regions.

@dataclass(frozen=True)
class InfoQuantities:
    """Named single-letter quantities; distributed entries use sigma_1..3,
    the point-to-point entries use the p2p auxiliary state."""

    i_u_rb: float = 0.0      # I(U; R,B) in sigma_1
    i_v_ra: float = 0.0      # I(V; R,A) in sigma_2
    i_u_rz: float = 0.0      # I(U; R,Z) in sigma_3
    i_v_rz: float = 0.0
    i_uv_rz: float = 0.0     # I(U,V; R,Z) in sigma_3
    i_w_u: float = 0.0       # I(W; U) in sigma_3, W = U + V
    i_w_v: float = 0.0
    i_u_v: float = 0.0       # I(U; V) in sigma_3
    s_u: float = 0.0
    s_v: float = 0.0
    s_uv: float = 0.0        # S(U, V)
    s_sum: float = 0.0       # S(U + V)
    i_u_rzv: float = 0.0     # I(U; R,Z,V) in sigma_3
    i_v_rzu: float = 0.0
    i_w_r: float = 0.0       # point-to-point I(W; R)
    i_w_rz: float = 0.0      # point-to-point I(W; R,Z)
    s_w: float = 0.0         # point-to-point S(W)
    log_p: float = 1.0


def compute_distributed_quantities(rho_ab: DensityOperator, m_a: Povm, m_b: Povm,
                                   p_zst: StochasticMap, p: int,
                                   f_s, f_t) -> InfoQuantities:
    """Build sigma_1, sigma_2, sigma_3, map S,T into F_p as U, V (and W = U + V
    in sigma_3), and read off the distributed-region information terms."""
    fs, ft = _field_table(f_s, len(m_a), p).tolist(), _field_table(f_t, len(m_b), p).tolist()
    s1 = regroup(build_sigma1(rho_ab, m_a), (("U", p),), lambda lab: (fs[lab[0]],))
    s2 = regroup(build_sigma2(rho_ab, m_b), (("V", p),), lambda lab: (ft[lab[0]],))
    s3 = regroup(build_sigma3(rho_ab, m_a, m_b, p_zst),
                 (("U", p), ("V", p), ("Z", p_zst.output_size), ("W", p)),
                 lambda lab: (fs[lab[0]], ft[lab[1]], lab[2], (fs[lab[0]] + ft[lab[1]]) % p))
    return InfoQuantities(
        i_u_rb=cq_mutual_information(s1, {"U"}, {"R", "B"}),
        i_v_ra=cq_mutual_information(s2, {"V"}, {"R", "A"}),
        i_u_rz=cq_mutual_information(s3, {"U"}, {"R", "Z"}),
        i_v_rz=cq_mutual_information(s3, {"V"}, {"R", "Z"}),
        i_uv_rz=cq_mutual_information(s3, {"U", "V"}, {"R", "Z"}),
        i_w_u=cq_mutual_information(s3, {"W"}, {"U"}),
        i_w_v=cq_mutual_information(s3, {"W"}, {"V"}),
        i_u_v=cq_mutual_information(s3, {"U"}, {"V"}),
        s_u=entropy_of(s3, {"U"}),
        s_v=entropy_of(s3, {"V"}),
        s_uv=entropy_of(s3, {"U", "V"}),
        s_sum=entropy_of(s3, {"W"}),
        i_u_rzv=cq_mutual_information(s3, {"U"}, {"R", "Z", "V"}),
        i_v_rzu=cq_mutual_information(s3, {"V"}, {"R", "Z", "U"}),
        log_p=float(np.log2(p)),
    )


def compute_p2p_quantities(rho: DensityOperator, m: Povm, p_zw: StochasticMap,
                           p: int) -> InfoQuantities:
    """Information terms of the point-to-point region from its auxiliary state."""
    sigma = build_sigma_p2p(rho, m, p_zw)
    return InfoQuantities(
        i_w_r=cq_mutual_information(sigma, {"W"}, {"R"}),
        i_w_rz=cq_mutual_information(sigma, {"W"}, {"R", "Z"}),
        s_w=entropy_of(sigma, {"W"}),
        log_p=float(np.log2(p)),
    )


# ---------------------------------------------------------------------------
# Regions.

def distributed_inequalities(q: InfoQuantities) -> tuple:
    """The five distributed communication inequalities over (R1, R2, C1, C2)."""
    I = LinearInequality
    return (
        I({"R1": 1}, q.i_u_rb + q.i_w_v - q.i_u_v),
        I({"R2": 1}, q.i_v_ra + q.i_w_u - q.i_u_v),
        I({"R1": 1, "C1": 1}, q.i_u_rz + q.i_w_v - q.i_u_v),
        I({"R2": 1, "C2": 1}, q.i_v_rz + q.i_w_u - q.i_u_v),
        I({"R1": 1, "R2": 1, "C1": 1, "C2": 1},
          q.i_uv_rz + q.i_w_u + q.i_w_v - q.i_u_v),
    )


def distributed_region(q: InfoQuantities) -> RateRegion:
    """Distributed rate region over (R1, R2, C1, C2).

    The five communication inequalities plus nonnegativity of each rate (rates
    are log-counts per use, hence nonnegative by definition).
    """
    I = LinearInequality
    rows = distributed_inequalities(q) + (
        I({"R1": 1}, 0.0), I({"R2": 1}, 0.0), I({"C1": 1}, 0.0), I({"C2": 1}, 0.0),
    )
    return RateRegion(("R1", "R2", "C1", "C2"), rows)


def unstructured_sum_constraint(q: InfoQuantities) -> LinearInequality:
    """The baseline sum-rate constraint obtained from unstructured codes."""
    return LinearInequality({"R1": 1, "R2": 1, "C1": 1, "C2": 1}, q.i_uv_rz)


def gain_indicator(q: InfoQuantities) -> float:
    """2 S(U+V) - S(U,V); negative iff the structured sum-rate bound is strictly weaker."""
    return 2.0 * q.s_sum - q.s_uv


def point_to_point_region(q: InfoQuantities) -> RateRegion:
    """Point-to-point region over (R, R1, C)."""
    I = LinearInequality
    rows = [
        I({"R1": 1, "R": 1}, q.i_w_r - q.s_w + q.log_p),
        I({"R1": 1, "R": 1, "C": 1}, q.i_w_rz - q.s_w + q.log_p),
        I({"R1": 1}, 0.0),
        I({"R1": -1}, -(q.log_p - q.s_w)),
        I({"C": 1}, 0.0),
    ]
    return RateRegion(("R", "R1", "C"), tuple(rows))


def augmented_region(q: InfoQuantities) -> RateRegion:
    """Intermediate region over (Rt, R1, R2, C1, C2) before eliminating Rt."""
    I = LinearInequality
    rows = [
        I({"Rt": 1, "R1": 1}, q.i_u_rb - q.s_u + q.log_p),
        I({"Rt": 1, "R2": 1}, q.i_v_ra - q.s_v + q.log_p),
        I({"Rt": 1, "R1": 1, "C1": 1}, q.i_u_rz - q.s_u + q.log_p),
        I({"Rt": 1, "R2": 1, "C2": 1}, q.i_v_rz - q.s_v + q.log_p),
        I({"Rt": 2, "R1": 1, "R2": 1, "C1": 1, "C2": 1},
          q.i_uv_rz - q.s_uv + 2 * q.log_p),
        I({"Rt": 1}, 0.0),
        I({"Rt": -1}, -(q.log_p - q.s_sum)),
        I({"R1": 1}, 0.0), I({"R2": 1}, 0.0), I({"C1": 1}, 0.0), I({"C2": 1}, 0.0),
    ]
    return RateRegion(("Rt", "R1", "R2", "C1", "C2"), tuple(rows))


# ---------------------------------------------------------------------------
# Separable decomposition and sum structure checks.

@dataclass(frozen=True)
class DecompositionReport:
    residuals: tuple[float, ...]   # per-outcome trace-norm residual
    max_residual: float
    passed: bool


def check_separable_decomposition(m_ab: Povm, m_a: Povm, m_b: Povm,
                                  p_zst: StochasticMap,
                                  tol: float = 1e-9) -> DecompositionReport:
    """Residual per z of Lambda^AB_z - sum_{s,t} P(z|s,t) Lambda^A_s (x) Lambda^B_t."""
    if p_zst.input_sizes != (len(m_a), len(m_b)) or p_zst.output_size != len(m_ab):
        raise ValueError("stochastic map alphabets do not match the POVMs")
    if m_ab.dim != m_a.dim * m_b.dim:
        raise ValueError("joint POVM dimension is not the product of the factors")
    residuals = [trace_norm(lam_ab - lam)
                 for lam_ab, lam in zip(m_ab.elements, compose((m_a, m_b), p_zst).elements)]
    mx = max(residuals)
    return DecompositionReport(tuple(residuals), float(mx), mx <= tol)


def _field_table(f, size: int, p: int) -> np.ndarray:
    """[f(0), ..., f(size - 1)] of a label map given as a sequence or a callable, in F_p."""
    values = [f(x) if callable(f) else f[x] for x in range(size)]
    if any(int(v) != v for v in values):
        raise ValueError(f"label maps must be integer-valued, got {values}")
    table = np.array([int(v) for v in values], dtype=np.int64)
    if np.any((table < 0) | (table >= p)):
        raise ValueError("label maps must land in F_p")
    return table


def check_sum_structure(p_zst: StochasticMap, f_s, f_t, p: int,
                        p_zw: StochasticMap, atol: float = 1e-12) -> bool:
    """True iff P(z|s,t) = P_{Z|W}(z | f_S(s) + f_T(t)) for every (s, t, z)."""
    ns, nt = p_zst.input_sizes
    if p_zw.input_sizes != (p,) or p_zw.output_size != p_zst.output_size:
        raise ValueError("P_{Z|W} must be defined on all of F_p with matching outputs")
    w = (_field_table(f_s, ns, p)[:, None] + _field_table(f_t, nt, p)) % p
    return not np.any(np.abs(p_zst.probs - p_zw.probs[w]) > atol)


# ---------------------------------------------------------------------------
# Example-3 gain surface scan.

@dataclass(frozen=True)
class SurfacePoint:
    theta1: float
    theta2: float
    theta3: float
    valid: bool
    gain: float   # nan when invalid


@dataclass(frozen=True, eq=False)
class SurfaceScan:
    """The scanned grid in columns, theta3 varying fastest, then theta2, then theta1.

    ``axes`` holds the three theta grids; ``theta1``/``theta2``/``theta3`` are
    the per-point columns.  Indexing and iteration give ``SurfacePoint``s.
    """

    axes: tuple            # (theta1 grid, theta2 grid, theta3 grid)
    valid: np.ndarray      # (P,) bool
    gain: np.ndarray       # (P,) float, nan where invalid

    def _column(self, i: int) -> np.ndarray:
        return np.meshgrid(*self.axes, indexing="ij")[i].ravel()

    @property
    def theta1(self) -> np.ndarray:
        return self._column(0)

    @property
    def theta2(self) -> np.ndarray:
        return self._column(1)

    @property
    def theta3(self) -> np.ndarray:
        return self._column(2)

    def __len__(self) -> int:
        return self.valid.size

    def __getitem__(self, i: int) -> SurfacePoint:
        if not -len(self) <= i < len(self):
            raise IndexError(f"point {i} outside a scan of {len(self)}")
        i1, i2, i3 = np.unravel_index(i % len(self), tuple(a.size for a in self.axes))
        return SurfacePoint(float(self.axes[0][i1]), float(self.axes[1][i2]),
                            float(self.axes[2][i3]), bool(self.valid[i]),
                            float(self.gain[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def symmetric_axis(points: int, span: float = 1.0) -> np.ndarray:
    """Grid on [-span, span] that is exactly sign-symmetric in floating point.

    Odd point counts mirror the nonnegative half; even counts fall back to
    linspace (no exact mirror exists without 0).
    """
    if points % 2 == 0:
        return np.linspace(-span, span, points)
    half = np.linspace(0.0, span, points // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def _entropy_bits_rows(probs: np.ndarray) -> np.ndarray:
    """``entropy_bits`` of each row, with the same 1e-15 floor."""
    keep = probs > 1e-15
    terms = np.where(keep, probs * np.log(np.where(keep, probs, 1.0)), 0.0)
    return -terms.sum(axis=-1) / LOG2


def surface_scan(rho_ab: DensityOperator, theta_grid, field_p: int = 3) -> SurfaceScan:
    """Gain indicator over a (theta1, theta2, theta3) grid of two-outcome POVMs.

    Each theta triple parametrizes Lambda_0 = [[t1, t2+i t3], [t2-i t3, 1-t1]]
    with Lambda_1 = I - Lambda_0; both must be PSD for a valid point.  U and V
    are the outcomes embedded in F_p (default F_3, the OR-structure embedding)
    and the indicator is 2 S(U+V) - S(U,V) of the exact joint outcome
    distribution Tr{(Lambda_s (x) Lambda_t) rho_AB}.  Invalid points are
    flagged, not dropped.
    """
    axes = tuple(np.asarray(g, dtype=float).ravel() for g in theta_grid)
    da, db = rho_ab.register_dims
    if (da, db) != (2, 2):
        raise ValueError("the theta parametrization is for two-qubit states")
    t1, t2, t3 = axes[0][:, None, None], axes[1][:, None], axes[2]
    # PSD of Lambda_0 and I - Lambda_0: diagonal in [0,1] and det >= 0.
    det = t1 * (1.0 - t1) - (t2 * t2 + t3 * t3)
    valid = (0.0 <= t1) & (t1 <= 1.0) & (det >= 0.0)              # (n1, n2, n3)
    v = np.stack([np.ones(np.count_nonzero(valid)),
                  *(a[i] for a, i in zip(axes, np.nonzero(valid)))], axis=1)   # (valid, 4)
    # Lambda_0 = sum_k v_k B_k, so P(0,0) = v^T Q v with Q_kl = Tr{(B_k (x) B_l) rho} and
    # P_A(0), P_B(0) = v.m_A, v.m_B; Lambda_1 = I - Lambda_0 gives the other entries.
    basis = np.array([[[0, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
    rho = rho_ab.mat.reshape(2, 2, 2, 2)        # rho[(c, d), (a, b)]
    q = np.einsum("kac,lbd,cdab->kl", basis, basis, rho).real
    m_a = v @ np.einsum("kac,cbab->k", basis, rho).real
    m_b = v @ np.einsum("kbd,adab->k", basis, rho).real
    p00 = np.einsum("pk,pk->p", v @ q, v)
    joint = np.stack([p00, m_a - p00, m_b - p00, 1.0 - m_a - m_b + p00], axis=1)
    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum(axis=1, keepdims=True)
    wdist = np.zeros((joint.shape[0], field_p))
    for s in range(2):
        for t in range(2):
            wdist[:, (s + t) % field_p] += joint[:, 2 * s + t]
    valid = valid.ravel()
    gain = np.full(valid.size, np.nan)
    gain[valid] = 2.0 * _entropy_bits_rows(wdist) - _entropy_bits_rows(joint)
    return SurfaceScan(axes, valid, gain)


def surface_to_csv(scan: SurfaceScan) -> str:
    """The scan as CSV text: a header, then one line per point, each ending in a newline.

    Each axis value is formatted once.  The rows of one (theta1, theta2)
    group differ only in their tails "theta3,valid,gain", so a group is one
    join of its tails on its "theta1,theta2," prefix.  A group with no valid
    point joins the precomputed invalid tails as they are.
    """
    cols = [["%.6f" % v for v in axis.tolist()] for axis in scan.axes]
    n3 = len(cols[2])
    invalid = [c + ",0,\n" for c in cols[2]]
    at = np.flatnonzero(scan.valid)
    pos = (at % n3).tolist()
    tails = [cols[2][i] + ",1," + "%.12f" % g + "\n"
             for i, g in zip(pos, scan.gain[at].tolist())]
    # The valid points of group g are at[ends[g]:ends[g + 1]].
    ends = np.searchsorted(at // n3, np.arange(len(cols[0]) * len(cols[1]) + 1)).tolist()
    out = ["theta1,theta2,theta3,valid,gain_indicator\n"]
    groups = (f"{a},{b}," for a in cols[0] for b in cols[1])
    for prefix, lo, hi in zip(groups, ends[:-1], ends[1:]):
        group = invalid
        if hi > lo:
            group = invalid.copy()
            for k in range(lo, hi):
                group[pos[k]] = tails[k]
        out.append(prefix + prefix.join(group))
    return "".join(out)


# ---------------------------------------------------------------------------
# Region JSON.

def region_to_json(region: RateRegion) -> dict:
    return {
        "variables": list(region.variables),
        "inequalities": [{"coeffs": dict(i.coeffs), "const": i.const}
                         for i in region.inequalities],
        "feasible": region.feasible,
    }


def region_from_json(d: dict) -> RateRegion:
    ineqs = tuple(LinearInequality(dict(e["coeffs"]), e["const"]) for e in d["inequalities"])
    return RateRegion(tuple(d["variables"]), ineqs, feasible=bool(d.get("feasible", True)))
