"""Command-line entry point tying the modules into reproducible experiments.

Subcommands: rates, example, surface, simulate, covering, pruning, ucc, fm.
All inputs and outputs are JSON (CSV for the surface scan); every command is
deterministic under --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import codes, lab, protocol, regions
from .cq import StochasticMap, compose
from .linalg import DensityOperator, Povm, mat_from_json, partial_trace, validate_povm
from .memo import memoised, nbytes


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A distributed simulation problem: state, factor POVMs, and the maps."""

    rho_ab: DensityOperator
    m_a: Povm
    m_b: Povm
    m_ab: Povm
    p_zst: StochasticMap
    p: int
    f_s: tuple[int, ...]
    f_t: tuple[int, ...]
    p_zw: StochasticMap

    @property
    def nbytes(self) -> int:
        return nbytes(self.rho_ab.mat, self.m_a.elements, self.m_b.elements, self.m_ab.elements,
                      self.p_zst.probs, self.p_zw.probs)


def _povm_from_json(d: dict) -> Povm:
    return Povm(tuple(mat_from_json(e) for e in d["elements"]),
                tuple(d.get("outcomes", range(len(d["elements"])))))


def _map_from_json(d: dict) -> StochasticMap:
    sizes = tuple(int(s) for s in d["input_sizes"])
    out = int(d["output_size"])
    rows = np.array(d["rows"], dtype=float).reshape(sizes + (out,))
    return StochasticMap(sizes, out, rows)


def _require_povm(name: str, m: Povm) -> Povm:
    check = validate_povm(m)
    if not check.ok:
        raise ValueError(f"{name} is not a POVM: element PSD defects "
                         f"{check.element_psd_defects}, completeness defect "
                         f"{check.completeness_defect:.3e}")
    return m


def load_problem(source) -> ProblemSpec:
    """The problem of a file or dict; ``m_ab`` defaults to ``compose((m_a, m_b), p_zst)``.

    ``m_a`` and ``m_b`` must be POVMs on the two registers of ``rho``, a
    given ``m_ab`` one on both with an outcome per letter of ``p_zst``,
    ``f_s``/``f_t`` must map each of their outcomes into F_p for a prime
    ``p``, and ``p_zw`` must be defined on all of F_p.  A file is read on
    every call, but parsed and checked once per content: the problem is
    memoised by the file's bytes (see ``memo``), so an edited file is
    read afresh and a refused one is refused again.  A dict is parsed on
    every call.
    """
    if isinstance(source, dict):
        return _parse_problem(source)
    with open(source, "rb") as fh:
        raw = fh.read()
    return memoised(("problem", raw), lambda: _parse_problem(json.loads(raw)))


def _parse_problem(d: dict) -> ProblemSpec:
    rho = DensityOperator(mat_from_json(d["rho"]), tuple(d["dims"]))
    m_a = _require_povm("m_a", _povm_from_json(d["m_a"]))
    m_b = _require_povm("m_b", _povm_from_json(d["m_b"]))
    if rho.register_dims != (m_a.dim, m_b.dim):
        raise ValueError(f"rho's registers {rho.register_dims} are not those of m_a and m_b "
                         f"({m_a.dim}, {m_b.dim})")
    p_zst = _map_from_json(d["p_zst"])
    if p_zst.input_sizes != (len(m_a), len(m_b)):
        raise ValueError(f"p_zst inputs {p_zst.input_sizes} do not match the POVM "
                         f"outcome counts ({len(m_a)}, {len(m_b)})")
    if "m_ab" not in d:
        m_ab = compose((m_a, m_b), p_zst)
    else:
        m_ab = _povm_from_json(d["m_ab"])
        if (m_ab.dim, len(m_ab)) != (m_a.dim * m_b.dim, p_zst.output_size):
            raise ValueError(f"m_ab has {len(m_ab)} outcomes on dimension {m_ab.dim}, not "
                             f"{p_zst.output_size} on {m_a.dim * m_b.dim}")
        _require_povm("m_ab", m_ab)
    p = int(d["p"])
    if p != d["p"]:
        raise ValueError(f"p = {d['p']} is not an integer")
    p_zw = _map_from_json(d["p_zw"])
    if p_zw.input_sizes != (p,):
        raise ValueError(f"p_zw must be defined on all of F_p for p = {p}, "
                         f"not on inputs {p_zw.input_sizes}")
    codes.require_prime(p)
    labels = []
    for name, m in (("f_s", m_a), ("f_t", m_b)):
        if len(d[name]) != len(m):
            raise ValueError(f"{name} has {len(d[name])} entries for {len(m)} outcomes")
        labels.append(tuple(regions._field_table(d[name], len(m), p).tolist()))
    return ProblemSpec(rho, m_a, m_b, m_ab, p_zst, p, *labels, p_zw)


def bundled_example_path(ident: int) -> str:
    name = f"example{ident}.json"
    ref = resources.files("povmsim.data").joinpath(name)
    return str(ref)


def _emit(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _quantities_dict(q: regions.InfoQuantities) -> dict:
    from dataclasses import asdict
    return {k: float(v) for k, v in asdict(q).items()}


def _validate_problem(spec: ProblemSpec, tol: float) -> dict:
    rep = regions.check_separable_decomposition(spec.m_ab, spec.m_a, spec.m_b,
                                                spec.p_zst, tol=tol)
    sum_ok = regions.check_sum_structure(spec.p_zst, spec.f_s, spec.f_t, spec.p, spec.p_zw)
    return {"separable_max_residual": rep.max_residual,
            "separable_ok": rep.passed, "sum_structure_ok": sum_ok}


def cmd_rates(args) -> int:
    spec, refused = _load_file(load_problem, args.spec, "problem", args.out)
    if refused is not None:
        return refused
    try:
        checks = _validate_problem(spec, args.tolerance)
    except ValueError as exc:
        return _refuse(f"problem check failed: {exc}", EXIT_BAD_SPEC, args.out)
    if not (checks["separable_ok"] and checks["sum_structure_ok"]):
        _emit({"error": "problem validation failed", "checks": checks}, args.out)
        return 1
    q = regions.compute_distributed_quantities(
        spec.rho_ab, spec.m_a, spec.m_b, spec.p_zst, spec.p, spec.f_s, spec.f_t)
    region = regions.distributed_region(q)
    baseline = regions.unstructured_sum_constraint(q)
    gain = regions.gain_indicator(q)
    structured_sum_rhs = q.i_uv_rz + q.i_w_u + q.i_w_v - q.i_u_v
    _emit({
        "checks": checks,
        "quantities": _quantities_dict(q),
        "distributed_region": regions.region_to_json(region),
        "baseline_sum_rhs": baseline.const,
        "structured_sum_rhs": structured_sum_rhs,
        "gain_indicator": gain,
    }, args.out)
    return 0


REPORTED_VALUES = {
    1: {"s_sum": 0.5155, "s_u": 0.9999, "s_uv": 1.5154, "i_u_v": 0.4844,
        "gain": -0.4844},
    2: {"gain": -0.9039},
}


def cmd_example(args) -> int:
    ident = args.id
    if ident == 3:
        return _run_surface(args.grid, 1.0, args.out, "example3_surface.csv")
    spec = load_problem(bundled_example_path(ident))
    checks = _validate_problem(spec, args.tolerance)
    q = regions.compute_distributed_quantities(
        spec.rho_ab, spec.m_a, spec.m_b, spec.p_zst, spec.p, spec.f_s, spec.f_t)
    computed = {"s_sum": q.s_sum, "s_u": q.s_u, "s_v": q.s_v, "s_uv": q.s_uv,
                "i_u_v": q.i_u_v, "gain": regions.gain_indicator(q)}
    ok = checks["separable_ok"] and checks["sum_structure_ok"]
    print(f"example {ident}:  {'':>12}  reported   computed")
    for key, ref in REPORTED_VALUES[ident].items():
        val = computed[key]
        match = abs(val - ref) <= 5e-4
        ok = ok and match
        print(f"  {key:>14}  {ref:>10.4f}  {val:>10.6f}  {'ok' if match else 'MISMATCH'}")
    if args.out:
        _emit({"checks": checks, "computed": computed,
               "reported": REPORTED_VALUES[ident], "ok": ok}, args.out)
    return 0 if ok else 1


def _run_surface(grid: int, span: float, out: str | None, default_out: str) -> int:
    """Scan the state of ``example3.json`` and write the CSV to ``out`` (or ``default_out``).

    The file gives the state (``rho``, ``dims``) and the field F_p that the
    outcomes are embedded in; the grid comes from the flags.  A grid with no
    valid point is refused with a JSON error to ``out``, or to standard
    output when no ``--out`` was given.
    """
    if grid < 1:
        return _refuse(f"--grid {grid} must be >= 1", EXIT_BAD_EXPERIMENT, out)
    if grid ** 3 > codes.ENUMERATION_CAP:
        return _refuse(f"--grid {grid} has {grid}**3 points, above the cap "
                       f"{codes.ENUMERATION_CAP}", EXIT_BAD_EXPERIMENT, out)
    if not 0.0 < span < np.inf:
        return _refuse(f"--span {span} must be a positive finite number", EXIT_BAD_EXPERIMENT, out)
    with open(bundled_example_path(3)) as fh:
        d = json.load(fh)
    rho = DensityOperator(mat_from_json(d["rho"]), tuple(d["dims"]))
    axis = regions.symmetric_axis(grid, span)
    scan = regions.surface_scan(rho, (axis, axis, axis), field_p=int(d["p"]))
    valid = int(scan.valid.sum())
    if not valid:
        return _refuse(f"the --grid {grid} --span {span} grid has no valid POVM point",
                       EXIT_BAD_EXPERIMENT, out)
    out_path = out or default_out
    with open(out_path, "w") as fh:
        fh.write(regions.surface_to_csv(scan))
    finite = scan.gain[scan.valid]
    sign_change = bool(finite.min() < 0 < finite.max())
    print(f"surface scan: {len(scan)} points, {valid} valid, "
          f"gain range [{finite.min():.4f}, {finite.max():.4f}], "
          f"sign change: {sign_change}, csv: {out_path}")
    return 0 if sign_change else 1


def cmd_surface(args) -> int:
    return _run_surface(args.grid, args.span, args.out, "surface.csv")


@functools.cache
def _default_p2p_problem():
    """(rho, M, P_{Z|W}) of the default p2p problem, built once: its arrays are read-only."""
    rho = DensityOperator(np.eye(2) / 2, (2,))
    m = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
    p_zw = StochasticMap((2,), 2, np.eye(2))
    return rho, m, p_zw


# Exit codes for input a command refuses; argparse itself exits with 2.
EXIT_NOT_PRIME = 3
EXIT_NEEDS_L2 = 4
EXIT_NO_SPEC = 5
EXIT_BAD_PROTOCOL = 6    # the protocol construction rejected its parameters
EXIT_BAD_SPEC = 7        # the problem or region file is not valid JSON or not a valid one
EXIT_BAD_EXPERIMENT = 8  # surface, covering, pruning, ucc or fm rejected its parameters


def _not_prime(p: int) -> bool:
    """Whether ``p`` is refused as not prime; a p above the cap is left to ``require_prime``."""
    return p <= codes.ENUMERATION_CAP and not codes.is_prime(p)


def _refuse(message: str, code: int, out_path: str | None) -> int:
    _emit({"error": message}, out_path)
    return code


def _load_file(load, path: str, what: str, out_path: str | None):
    """(load(path), None), or (None, exit code) once an unreadable or malformed file is refused."""
    try:
        return load(path), None
    except OSError as exc:
        return None, _refuse(f"cannot read the {what} file: {exc}", EXIT_NO_SPEC, out_path)
    except (LookupError, TypeError, ValueError) as exc:
        # JSON decode errors and the content checks are ValueErrors; a missing
        # key or a wrongly shaped entry gives a LookupError or TypeError.
        return None, _refuse(f"malformed {what} file {path}: {type(exc).__name__}: {exc}",
                             EXIT_BAD_SPEC, out_path)


def _load_region(path: str) -> regions.RateRegion:
    with open(path) as fh:
        return regions.region_from_json(json.load(fh))


def _run_protocol(args, spec, p: int):
    """Build the protocol for ``args`` over F_p; returns (params, instance, K, bins_stats)."""
    sides = [(args.l, args.N)] + ([(args.l2, args.N2)] if args.mode == "distributed" else [])
    params = protocol.ProtocolParams(n=args.n, k=args.k, p=p, sides=sides,
                                     eta=args.eta, delta=args.delta, seed=args.seed)
    if args.mode == "p2p":
        if spec:
            rho, m, p_zw = partial_trace(spec.rho_ab, traced=[1]), spec.m_a, spec.p_zw
        else:
            rho, m, p_zw = _default_p2p_problem()
        inst = protocol.build_instance(params, m, rho)
        candidate = protocol.assemble_overall(inst, p_zw)
        target = protocol.target_overall(
            m, protocol.extend_map_to_field(p_zw, params.p), params.n)
        rho_n = protocol.tensor_power(rho, params.n)
        bins_stats = {
            "typical_words": int(inst.tset_w.mask.sum()),
            "typical_mass": inst.tset_w.mass,
            "bins_per_mu": params.p ** params.sides[0][0],
        }
    else:
        inst = protocol.build_distributed_instance(params, spec.m_a, spec.m_b, spec.rho_ab)
        candidate = protocol.assemble_overall_distributed(inst, spec.p_zw)
        target = protocol.target_overall_distributed(
            spec.m_a, spec.m_b, spec.p_zw, params.p, params.n)
        rho_n = protocol.tensor_power(spec.rho_ab, params.n)
        bins_stats = {
            "typical_words_w": int(inst.tset_w.mask.sum()),
            "typical_mass_w": inst.tset_w.mass,
            "bins_per_mu": [params.p ** l for l, _ in params.sides],
        }
    return params, inst, protocol.faithfulness(rho_n, target, candidate), bins_stats


def cmd_simulate(args) -> int:
    """Build the protocol and report K.

    With ``--spec``, p2p simulates rho_A = Tr_B rho_AB measured by the file's
    m_a, followed by its p_zw; distributed uses the whole problem (example1
    when no file is given).  The field is the problem file's p, or F_2 for the
    default p2p problem; a ``--p`` that disagrees with the file is refused.
    """
    if args.p is not None and _not_prime(args.p):
        return _refuse(f"--p {args.p} is not prime", EXIT_NOT_PRIME, args.out)
    if args.mode == "distributed" and (args.l2 is None or args.N2 is None):
        return _refuse("--mode distributed needs --l2 and --N2", EXIT_NEEDS_L2, args.out)
    spec = None
    if args.spec or args.mode == "distributed":
        spec, refused = _load_file(load_problem, args.spec or bundled_example_path(1),
                                   "problem", args.out)
        if refused is not None:
            return refused
    p = args.p if args.p is not None else (spec.p if spec else 2)
    if spec and p != spec.p:
        reason = f": its p_zw is larger than the field F_{p}" if spec.p > p else ""
        return _refuse(f"--p {p} does not match the problem file's p = {spec.p}{reason}",
                       EXIT_BAD_PROTOCOL, args.out)
    try:
        params, inst, k_value, bins_stats = _run_protocol(args, spec, p)
    except ValueError as exc:
        return _refuse(str(exc), EXIT_BAD_PROTOCOL, args.out)
    defect = inst.sub_povm_defect
    (l, num), (l2, num2) = params.sides + ((None, None),) * (2 - len(params.sides))
    _emit({
        "params": {"n": params.n, "k": params.k, "l": l, "p": params.p, "N": num,
                   "eta": params.eta, "delta": params.delta, "seed": params.seed,
                   "mode": args.mode, "l2": l2, "N2": num2},
        "K": k_value,
        "subpovm_defect": defect,
        "bins_stats": bins_stats,
        "decoder_collisions": inst.decoder_collisions,
    }, args.out)
    return 0 if defect <= 1e-9 else 1


def default_covering_instance(m: int) -> lab.CoveringInstance:
    """The standard qubit test ensemble: 4 letters over F_2^2, Pi = Pi_x = I."""
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    mu = np.full(4, 0.25)
    bloch = [(0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5), (-0.35, 0.35, 0)]
    pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    sigmas = np.stack([(np.eye(2) + sum(c * s for c, s in zip(b, pauli))) / 2
                       for b in bloch])
    eye = np.eye(2, dtype=complex)
    pi_x = np.stack([eye] * 4)
    d = 1.0 / max(np.linalg.eigvalsh(s)[-1] for s in sigmas)
    sigma = np.einsum("x,xij->ij", lam, sigmas)
    big_d = lab.trace_norm(lab.psd_sqrt(sigma)) ** 2
    return lab.CoveringInstance(lam, sigmas, mu, eye, pi_x,
                                eps=0.0, d=float(d), big_d=float(big_d), m=m)


def cmd_covering(args) -> int:
    try:
        inst = default_covering_instance(args.M)
        if args.sampler == "ucc":
            sampler = lab.ucc_code_sampler(inst, p=2, n=2, k=args.k, l=args.l)
        else:
            sampler = lab.iid_code_sampler(inst)
        rep = lab.covering_experiment(inst, trials=args.trials, seed=args.seed,
                                      sampler=sampler)
    except ValueError as exc:
        return _refuse(str(exc), EXIT_BAD_EXPERIMENT, args.out)
    _emit({"bound": rep.bound, "empirical_mean": rep.empirical_mean,
           "stderr": rep.stderr, "trials": rep.trials, "seed": rep.seed,
           "pass": rep.passed, "extras": rep.extras, "sampler": args.sampler}, args.out)
    return 0 if rep.passed else 1


def cmd_pruning(args) -> int:
    try:
        sampler = lab.ScaledWishartSampler(args.dim, args.shots, (1.0 - args.eta) / 2.0)
        rep = lab.pruning_inequality_experiment(sampler, trials=args.trials,
                                                eta=args.eta, seed=args.seed)
    except ValueError as exc:
        return _refuse(str(exc), EXIT_BAD_EXPERIMENT, args.out)
    ok = (rep.pathwise_violations == 0 and rep.markov_violations == 0
          and rep.aggregate_ok and rep.precondition_ok)
    _emit({"trials": rep.trials, "seed": rep.seed, "eta": rep.eta,
           "pathwise_violations": rep.pathwise_violations,
           "markov_violations": rep.markov_violations,
           "mean_cut": rep.mean_cut, "mean_bound": rep.mean_bound,
           "pass": ok}, args.out)
    return 0 if ok else 1


def cmd_ucc(args) -> int:
    if _not_prime(args.p):
        return _refuse(f"--p {args.p} is not prime", EXIT_NOT_PRIME, args.out)
    try:
        out, ok = _ucc_report(args)
    except ValueError as exc:
        return _refuse(str(exc), EXIT_BAD_EXPERIMENT, args.out)
    _emit(out, args.out)
    return 0 if ok else 1


def _ucc_report(args) -> tuple[dict, bool]:
    if not args.check_pairwise:
        spec = codes.CodeEnsembleSpec(args.p, args.n, args.k, args.l, N=1, seed=args.seed)
        code = codes.sample_ensemble(spec)[0]
        table = codes.multiplicity_table(code)
        return ({"code": codes.code_to_json(code), "multiplicity_sum": sum(table.values())},
                sum(table.values()) == args.p ** (args.k + args.l))
    rep = codes.pairwise_independence_check(args.p, args.n, args.k, args.l)
    out: dict = {"pairwise": {"ensembles": rep.num_ensembles,
                              "worst_single_deviation": rep.worst_single_deviation,
                              "worst_pair_deviation": rep.worst_pair_deviation,
                              "exact": rep.exact}}
    ok = rep.exact
    wit = rep.witness
    if wit is not None:
        out["three_way_witness"] = {
            "fires": wit.fires,
            "relation_coeffs": list(wit.relation_coeffs),
            "max_joint_deviation": wit.max_joint_deviation,
        }
        ok = ok and wit.fires
    return out, ok


def cmd_fm(args) -> int:
    region, refused = _load_file(_load_region, args.region, "region", args.out)
    if refused is not None:
        return refused
    try:
        result = regions.fourier_motzkin_eliminate(region, args.eliminate)
    except ValueError as exc:
        return _refuse(str(exc), EXIT_BAD_EXPERIMENT, args.out)
    _emit(regions.region_to_json(result), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="povmsim")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)

    def tolerance(p):
        p.add_argument("--tolerance", type=float, default=1e-9,
                       help="residual allowed in the separable-decomposition check")

    p = sub.add_parser("rates", help="rate region + baseline comparison for a problem file")
    p.add_argument("--spec", required=True)
    tolerance(p)
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("example", help="run a bundled example and compare to reported values")
    p.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--grid", type=int, default=21)
    tolerance(p)
    common(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("surface", help="gain-indicator scan over the theta grid")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--span", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("simulate", help="build a protocol instance and measure K")
    p.add_argument("--mode", choices=("p2p", "distributed"), default="p2p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, default=None,
                   help="the prime field; default the problem file's p, else 2")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--l2", type=int, default=None)
    p.add_argument("--N2", type=int, default=None)
    p.add_argument("--spec", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("covering", help="covering-lemma Monte Carlo")
    p.add_argument("--M", type=int, default=16)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--sampler", choices=("iid", "ucc"), default="iid")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("pruning", help="pruning trace-inequality Monte Carlo")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--eta", type=float, default=0.3)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--shots", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_pruning)

    p = sub.add_parser("ucc", help="emit or exhaustively verify a unionized coset code")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--check-pairwise", action="store_true")
    common(p)
    p.set_defaults(func=cmd_ucc)

    p = sub.add_parser("fm", help="Fourier-Motzkin elimination on a region file")
    p.add_argument("--region", required=True)
    p.add_argument("--eliminate", required=True)
    common(p)
    p.set_defaults(func=cmd_fm)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and shared by every later ``main``."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
