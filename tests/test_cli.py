import ast
import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from povmsim import cli, codes, regions
from povmsim.cli import (
    EXIT_BAD_EXPERIMENT,
    EXIT_BAD_PROTOCOL,
    EXIT_BAD_SPEC,
    EXIT_NEEDS_L2,
    EXIT_NO_SPEC,
    EXIT_NOT_PRIME,
    bundled_example_path,
    load_problem,
    main,
)
from povmsim.codes import EXHAUSTIVE_ENSEMBLE_CAP


def run(args):
    return main(args)


def test_rates_example1(tmp_path, capsys):
    out = tmp_path / "rates.json"
    code = run(["rates", "--spec", bundled_example_path(1), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks"]["separable_ok"] and report["checks"]["sum_structure_ok"]
    assert report["gain_indicator"] == pytest.approx(-0.4844, abs=5e-4)
    assert (report["structured_sum_rhs"] - report["baseline_sum_rhs"]
            == pytest.approx(report["gain_indicator"], abs=1e-9))


def test_rates_example2(tmp_path):
    out = tmp_path / "rates2.json"
    assert run(["rates", "--spec", bundled_example_path(2), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gain_indicator"] == pytest.approx(-0.9039, abs=5e-4)


def test_rates_trivial_identity_povms(tmp_path):
    # M = {I} on both sides: every information bound collapses to zero.
    spec = json.loads(Path(bundled_example_path(1)).read_text())
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    spec["m_a"] = {"outcomes": [0], "elements": [eye]}
    spec["m_b"] = {"outcomes": [0], "elements": [eye]}
    spec["p_zst"] = {"input_sizes": [1, 1], "output_size": 1, "rows": [[1.0]]}
    spec["p_zw"] = {"input_sizes": [2], "output_size": 1, "rows": [[1.0], [1.0]]}
    spec["f_s"] = [0]
    spec["f_t"] = [0]
    del spec["m_ab"]
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "trivial_rates.json"
    assert run(["rates", "--spec", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    q = report["quantities"]
    for key in ("i_u_rb", "i_v_ra", "i_u_rz", "i_v_rz", "i_uv_rz"):
        assert abs(q[key]) <= 1e-9
    for ineq in report["distributed_region"]["inequalities"]:
        assert ineq["const"] <= 1e-9


def test_rates_rejects_bad_decomposition(tmp_path):
    # m_ab with its two outcomes swapped is still a POVM, but not the one
    # that m_a, m_b and p_zst compose.
    spec = json.loads(Path(bundled_example_path(1)).read_text())
    spec["m_ab"]["elements"].reverse()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "bad_rates.json"
    assert run(["rates", "--spec", str(path), "--out", str(out)]) == 1
    assert "error" in json.loads(out.read_text())


def test_example_command_1(capsys):
    assert run(["example", "--id", "1"]) == 0
    text = capsys.readouterr().out
    assert "MISMATCH" not in text


def test_example_command_2(capsys):
    assert run(["example", "--id", "2"]) == 0


def test_example_command_3(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert run(["example", "--id", "3", "--grid", "9", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "theta1,theta2,theta3,valid,gain_indicator"
    assert len(rows) == 1 + 9 ** 3


def test_surface_command(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["surface", "--grid", "5", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 125


def test_simulate_p2p(tmp_path):
    out = tmp_path / "sim.json"
    code = run(["simulate", "--mode", "p2p", "--n", "2", "--k", "0", "--l", "4",
                "--N", "2", "--delta", "0.7", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["subpovm_defect"] <= 1e-9
    assert 0.0 <= report["K"] <= 2.0 + 1e-9
    assert report["params"]["mode"] == "p2p"


def test_simulate_distributed(tmp_path):
    out = tmp_path / "simd.json"
    code = run(["simulate", "--mode", "distributed", "--n", "2", "--k", "1",
                "--l", "1", "--l2", "1", "--N", "2", "--N2", "2",
                "--delta", "0.5", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["subpovm_defect"] <= 1e-9
    assert 0.0 <= report["K"] <= 2.0 + 1e-9


@pytest.mark.parametrize("ident, extra", [(1, []), (2, ["--p", "3"]), (2, [])])
def test_simulate_p2p_spec(tmp_path, ident, extra):
    # p2p on a problem file simulates m_a on rho_A = Tr_B rho_AB, then p_zw,
    # over the file's field unless --p names the same one.
    out = tmp_path / "simp.json"
    code = run(["simulate", "--mode", "p2p", "--spec", bundled_example_path(ident),
                "--n", "2", "--k", "0", "--l", "2", "--N", "2", "--delta", "0.5",
                "--out", str(out)] + extra)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["params"]["p"] == {1: 2, 2: 3}[ident]
    assert report["subpovm_defect"] <= 1e-9
    assert 0.0 <= report["K"] <= 2.0 + 1e-9


def _problem_files() -> list:
    """The bundled problem files that give the factor measurements m_a and m_b."""
    folder = Path(bundled_example_path(1)).parent
    return sorted(f.name for f in folder.glob("example*.json")
                  if {"m_a", "m_b"} <= set(json.loads(f.read_text())))


def test_problem_files_are_found():
    assert {"example1.json", "example2.json", "example4.json"} <= set(_problem_files())


@pytest.mark.parametrize("name", _problem_files())
@pytest.mark.parametrize("command", [["rates"], ["simulate", "--mode", "p2p"],
                                     ["simulate", "--mode", "distributed"]],
                         ids=["rates", "p2p", "distributed"])
def test_every_bundled_problem_runs(tmp_path, name, command):
    # A new problem file is covered without a new test.
    spec = str(Path(bundled_example_path(1)).parent / name)
    out = tmp_path / "out.json"
    sizes = ([] if command == ["rates"] else
             ["--n", "2", "--k", "1", "--l", "1", "--l2", "1", "--N", "2", "--N2", "2",
              "--delta", "0.5"])
    assert run(command + ["--spec", spec, *sizes, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    if command == ["rates"]:
        assert report["checks"]["separable_ok"] and report["checks"]["sum_structure_ok"]
    else:
        assert report["subpovm_defect"] <= 1e-9 and 0.0 <= report["K"] <= 2.0 + 1e-9


SIMULATE = ["simulate", "--n", "2", "--k", "0", "--l", "1"]


def test_simulate_rejects_non_prime_p(tmp_path):
    out = tmp_path / "err.json"
    assert run(SIMULATE + ["--p", "4", "--out", str(out)]) == EXIT_NOT_PRIME
    assert "prime" in json.loads(out.read_text())["error"]


def test_simulate_distributed_needs_l2_and_n2(tmp_path):
    out = tmp_path / "err.json"
    assert run(SIMULATE + ["--mode", "distributed", "--N", "2",
                           "--out", str(out)]) == EXIT_NEEDS_L2
    assert "--l2" in json.loads(out.read_text())["error"]


def test_simulate_missing_spec_file(tmp_path):
    out = tmp_path / "err.json"
    missing = tmp_path / "absent.json"
    assert run(SIMULATE + ["--spec", str(missing), "--out", str(out)]) == EXIT_NO_SPEC
    assert str(missing) in json.loads(out.read_text())["error"]
    assert len({0, 1, 2, EXIT_NOT_PRIME, EXIT_NEEDS_L2, EXIT_NO_SPEC}) == 6


@pytest.mark.parametrize("extra, phrase", [
    (["--delta", "1.5"], "delta"),
    (["--spec", bundled_example_path(2), "--p", "2"], "larger than the field"),
    (["--n", "13"], "cap"),
    (["--mode", "distributed", "--l2", "1", "--N2", "0"], "distributed sizes"),
    (["--mode", "distributed", "--l2", "-1", "--N2", "1"], "distributed sizes"),
    (["--l", "30"], "p**(k+l) exceeds"),
    (["--mode", "distributed", "--l2", "1", "--N2", "2", "--spec", bundled_example_path(1),
      "--p", "5"], "does not match the problem file's p = 2"),
    (["--mode", "distributed", "--n", "2", "--k", "0", "--l", "20", "--l2", "20", "--N", "1",
      "--N2", "1", "--delta", "0.5"], "p**(k+l+l2) exceeds"),
    # The decoder's entries count every tuple of mus: the sum code at the cap
    # is refused with two mus, and 300000 mus of 4 words each are refused too.
    (["--mode", "distributed", "--n", "2", "--k", "0", "--l", "10", "--l2", "10", "--N", "2",
      "--N2", "1", "--delta", "0.5"], "N1 N2 p**(k+l+l2) exceeds"),
    (["--n", "3", "--k", "0", "--l", "2", "--N", "300000"], "N p**(k+l) exceeds"),
])
def test_simulate_refuses_bad_protocol_input(tmp_path, extra, phrase):
    out = tmp_path / "err.json"
    assert run(SIMULATE + extra + ["--out", str(out)]) == EXIT_BAD_PROTOCOL
    assert phrase in json.loads(out.read_text())["error"]
    assert EXIT_BAD_PROTOCOL not in {0, 1, 2, EXIT_NOT_PRIME, EXIT_NEEDS_L2, EXIT_NO_SPEC}


@pytest.mark.parametrize("l2, n2", [("20", "1"), ("1", "2")])
def test_p2p_builds_one_side(tmp_path, l2, n2):
    # --l2 and --N2 size the second side of the distributed mode.  p2p builds
    # one side: they enter neither its decoder cap nor its params echo.
    out = tmp_path / "sim.json"
    assert run(SIMULATE + ["--l2", l2, "--N2", n2, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["params"]["l2"] is None and report["params"]["N2"] is None
    assert report["bins_stats"]["bins_per_mu"] == 2


def test_reused_parser_keeps_no_value_between_calls(tmp_path, monkeypatch):
    # main builds its argparse tree once per process; no flag of one call may
    # reach the next, and bad arguments still exit with code 2.
    out = tmp_path / "sim.json"
    assert run(["simulate", "--mode", "distributed", "--n", "2", "--k", "1", "--l", "1",
                "--l2", "1", "--N", "2", "--N2", "2", "--delta", "0.5", "--eta", "0.2",
                "--spec", bundled_example_path(2), "--p", "3", "--seed", "4",
                "--out", str(out)]) == 0
    first = json.loads(out.read_text())
    assert first["params"]["l2"] == 1 and first["params"]["N2"] == 2
    monkeypatch.setattr(cli, "build_parser", None)     # a rebuilt tree would fail here
    assert run(SIMULATE + ["--out", str(out)]) == 0
    second = json.loads(out.read_text())
    assert second["params"] == {"n": 2, "k": 0, "l": 1, "p": 2, "N": 1, "eta": 0.1,
                                "delta": 0.2, "seed": 0, "mode": "p2p",
                                "l2": None, "N2": None}
    assert "typical_words" in second["bins_stats"]          # the default problem, no --spec
    for bad in (["simulate", "--n", "2", "--k", "0"],         # --l missing
                ["simulate", "--mode", "joint"] + SIMULATE[1:],
                ["surface", "--grid", "three"],
                ["nosuch"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
    assert run(["surface", "--grid", "5", "--out", str(tmp_path / "s.csv")]) == 0
    assert run(SIMULATE + ["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == second


@pytest.mark.parametrize("argv", [
    ["surface", "--grid", "5"],
    SIMULATE,
    ["covering"],
    ["pruning"],
    ["ucc", "--p", "2", "--n", "2", "--k", "0", "--l", "1"],
    ["fm", "--region", "region.json", "--eliminate", "R1"],
], ids=lambda argv: argv[0])
def test_tolerance_is_refused_where_it_is_not_read(capsys, argv):
    # Only rates and example read --tolerance; every other command refuses it.
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--tolerance", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_tolerance_reaches_the_separable_check(tmp_path):
    out = tmp_path / "rates.json"
    assert run(["rates", "--spec", bundled_example_path(1), "--tolerance", "-1",
                "--out", str(out)]) == 1
    assert not json.loads(out.read_text())["checks"]["separable_ok"]
    assert run(["example", "--id", "1", "--tolerance", "-1", "--out", str(out)]) == 1


def test_rates_missing_spec_file(tmp_path):
    out = tmp_path / "err.json"
    missing = tmp_path / "absent.json"
    assert run(["rates", "--spec", str(missing), "--out", str(out)]) == EXIT_NO_SPEC
    assert str(missing) in json.loads(out.read_text())["error"]


def _malformed_spec(case: str) -> str:
    if case == "not_json":
        return "# A markdown file, not a problem file\n"
    spec = json.loads(Path(bundled_example_path(1)).read_text())
    if case == "missing_key":
        del spec["rho"]
    else:                                   # a Hermitian rho with eigenvalue -0.5
        spec["rho"] = [[[1.5 if i == j == 0 else -0.5 if i == j == 3 else 0.0, 0.0]
                        for j in range(4)] for i in range(4)]
    return json.dumps(spec)


@pytest.mark.parametrize("command", [SIMULATE, ["rates"]], ids=["simulate", "rates"])
@pytest.mark.parametrize("case, phrase", [("not_json", "JSONDecodeError"),
                                          ("missing_key", "KeyError: 'rho'"),
                                          ("non_psd", "not PSD")])
def test_malformed_spec_file_is_refused(tmp_path, command, case, phrase):
    spec = tmp_path / "problem.json"
    spec.write_text(_malformed_spec(case))
    out = tmp_path / "err.json"
    assert run(command + ["--spec", str(spec), "--out", str(out)]) == EXIT_BAD_SPEC
    assert phrase in json.loads(out.read_text())["error"]
    assert EXIT_BAD_SPEC not in {0, 1, 2, EXIT_NOT_PRIME, EXIT_NEEDS_L2, EXIT_NO_SPEC,
                                 EXIT_BAD_PROTOCOL}


@pytest.mark.parametrize("key, value, phrase", [
    ("f_s", [0, 5], "label maps must land in F_p"),
    ("p_zw", {"input_sizes": [1], "output_size": 2, "rows": [[0.5, 0.5]]}, "all of F_p"),
])
def test_rates_refuses_a_check_that_raises(tmp_path, key, value, phrase):
    spec = json.loads(Path(bundled_example_path(1)).read_text())
    spec[key] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "err.json"
    assert run(["rates", "--spec", str(path), "--out", str(out)]) == EXIT_BAD_SPEC
    assert phrase in json.loads(out.read_text())["error"]


def _refuse_constant(name):
    raise ValueError(f"the output holds the non-JSON constant {name}")


@pytest.mark.parametrize("command", [["rates"], SIMULATE + ["--mode", "p2p"],
                                     SIMULATE + ["--mode", "distributed", "--l2", "1",
                                                 "--N2", "1"]],
                         ids=["rates", "p2p", "distributed"])
@pytest.mark.parametrize("entry", ["rho", "m_a", "p_zw"])
def test_non_finite_input_is_refused(tmp_path, command, entry):
    # json.load reads NaN, and every comparison with NaN is false; the
    # operators and maps refuse it where they are built.
    spec = json.loads(Path(bundled_example_path(1)).read_text())
    row = {"rho": spec["rho"][0][0], "m_a": spec["m_a"]["elements"][0][0][0],
           "p_zw": spec["p_zw"]["rows"][0]}[entry]
    row[0] = float("nan")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "err.json"
    assert run(command + ["--spec", str(path), "--out", str(out)]) == EXIT_BAD_SPEC
    error = json.loads(out.read_text(), parse_constant=_refuse_constant)["error"]
    assert "non-finite" in error


@pytest.mark.parametrize("command", [SIMULATE + ["--mode", "distributed", "--l2", "1",
                                                "--N2", "1"], ["rates"]],
                         ids=["simulate", "rates"])
@pytest.mark.parametrize("sizes", [[1, 2], [3, 2]], ids=["fewer-letters", "more-letters"])
def test_problem_without_m_ab_needs_matching_p_zst(tmp_path, command, sizes):
    # Without m_ab the joint POVM is composed from m_a, m_b and p_zst, so
    # p_zst must take one letter per outcome of each factor POVM.
    spec = json.loads(Path(bundled_example_path(1)).read_text())
    del spec["m_ab"]
    spec["p_zst"] = {"input_sizes": sizes, "output_size": 2,
                     "rows": [[0.5, 0.5]] * (sizes[0] * sizes[1])}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "err.json"
    assert run(command + ["--spec", str(path), "--out", str(out)]) == EXIT_BAD_SPEC
    error = json.loads(out.read_text())["error"]
    assert f"p_zst inputs ({sizes[0]}, 2)" in error and "(2, 2)" in error


def _diagonal(entries):
    """A JSON complex matrix with ``entries`` on its diagonal."""
    return [[[entries[i] if i == j else 0.0, 0.0] for j in range(len(entries))]
            for i in range(len(entries))]


# One mutation of a problem file each, as the key path of an entry and its
# new value (or a function of the file giving it): non-finite, negative,
# fractional and out-of-range entries, wrong shapes, label maps of the wrong
# length, POVM elements that are not PSD or do not add up to I, a field that
# p_zw is not defined on (p = 3), a p that is no field (p = 4 or 2.5) and an
# m_ab on the wrong dimension, incomplete or with an outcome count other
# than p_zst's.  Every command refuses each of them at load.
MUTANTS = {
    "rho_nan": (("rho", 0, 0, 0), float("nan")),
    "m_b_inf": (("m_b", "elements", 1, 1, 1, 1), float("-inf")),
    "rho_negative": (("rho",), _diagonal([1.5, 0.0, 0.0, -0.5])),
    "p_zst_negative": (("p_zst", "rows", 0), [-0.2, 1.2]),
    "p_zw_out_of_range": (("p_zw", "rows", 1), [1.5, -0.5]),
    "f_s_out_of_range": (("f_s",), lambda d: [0, d["p"]]),
    "f_t_negative": (("f_t",), [0, -1]),
    "f_s_fractional": (("f_s",), [0, 1.5]),
    "f_s_short": (("f_s",), [0]),
    "f_t_short": (("f_t",), [1]),
    "f_s_long": (("f_s",), [0, 1, 1]),
    "m_a_not_psd": (("m_a", "elements", 0, 0, 0), [-1.0, 0.0]),
    "m_b_incomplete": (("m_b", "elements", 0), _diagonal([0.5, 0.5])),
    "rho_shape": (("rho",), _diagonal([1 / 3] * 3)),
    "one_register": (("dims",), [4]),
    "p_zst_shape": (("p_zst", "output_size"), 3),
    "p_3": (("p",), 3),
    "p_4": (("p",), 4),
    "p_fractional": (("p",), 2.5),
    "m_ab_dim": (("m_ab",), {"elements": [_diagonal([1.0, 0.0]), _diagonal([0.0, 1.0])]}),
    "m_ab_incomplete": (("m_ab", "elements", 0), _diagonal([0.5] * 4)),
    "m_ab_one_outcome": (("m_ab",), {"elements": [_diagonal([1.0] * 4)]}),
}


def _mutant(name: str, case: str) -> dict | None:
    """Bundled problem ``name`` with mutation ``case``, or None where it does not
    fit: its key path is not in the file, or the entry already holds the value."""
    spec = json.loads(Path(bundled_example_path(int(name[-1]))).read_text())
    (*keys, last), value = MUTANTS[case]
    entry = spec
    try:
        for key in keys:
            entry = entry[key]
        old = entry[last]
    except (KeyError, IndexError):
        return None
    entry[last] = value(spec) if callable(value) else value
    return None if entry[last] == old else spec


@pytest.mark.parametrize("case", list(MUTANTS))
def test_mutated_problem_file_exits_cleanly(tmp_path, capsys, case):
    # Each command prints strict JSON and exits with its documented code,
    # never with a traceback, on every bundled problem the mutation fits.
    sizes = ["--n", "2", "--k", "1", "--l", "1", "--N", "1", "--delta", "0.5"]
    mutated = {}
    for name in ("example1", "example2", "example4"):
        spec = _mutant(name, case)
        if spec is None:
            continue
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        codes = []
        for command in (["rates"], ["simulate", "--mode", "p2p", *sizes],
                        ["simulate", "--mode", "distributed", *sizes, "--l2", "1", "--N2", "1"]):
            codes.append(run(command + ["--spec", str(path)]))
            report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
            assert (codes[-1] == 0) == ("error" not in report)
        mutated[name] = tuple(codes)
    assert "example1" in mutated
    assert mutated == dict.fromkeys(mutated, (EXIT_BAD_SPEC,) * 3)


@pytest.mark.parametrize("argv, phrase", [
    (["surface", "--grid", "2"], "no valid POVM point"),
    (["surface", "--grid", "3", "--span", "0"], "--span 0.0 must be a positive finite number"),
    (["surface", "--grid", "3", "--span", "-1"], "--span -1.0 must be a positive"),
    (["covering", "--M", "0"], "M must be >= 1"),
    (["covering", "--trials", "1"], "trials must be >= 2"),
    (["covering", "--sampler", "ucc", "--M", "16", "--k", "1", "--l", "1"], "M = p**(k+l)"),
    (["covering", "--sampler", "ucc", "--M", "1099511627776", "--k", "0", "--l", "40",
      "--trials", "2"], "2**40 codewords exceed the desk-scale cap"),
    (["pruning", "--eta", "1.5"], "eta must lie in (0, 1)"),
    (["pruning", "--trials", "0"], "trials must be >= 2"),
    (["pruning", "--dim", "1000000", "--trials", "2"], "exceeds the desk-scale cap"),
    (["pruning", "--shots", "200000", "--trials", "2"], "exceeds the desk-scale cap"),
    (["ucc", "--p", "2", "--n", "5", "--k", "3", "--l", "3", "--check-pairwise"], "above the cap"),
    (["ucc", "--p", "3", "--n", "2", "--k", "1", "--l", "9", "--check-pairwise"],
     f"needs 3**39368 ensembles, above the cap {EXHAUSTIVE_ENSEMBLE_CAP}"),
    (["ucc", "--p", "2", "--n", "2", "--k", "0", "--l", "-1"], "k, l >= 0"),
    (["ucc", "--p", "2", "--n", "2", "--k", "0", "--l", "45"],
     "2**45 codewords exceed the desk-scale cap"),
    (["ucc", "--p", "2", "--n", "0", "--k", "0", "--l", "0"], "n >= 1"),
    (["ucc", "--p", "5", "--n", "8", "--k", "0", "--l", "0", "--check-pairwise"],
     "the pairwise table needs 5**16 counters, above the cap"),
    (["ucc", "--p", "3", "--n", "6", "--k", "1", "--l", "0", "--check-pairwise"],
     "the pairwise table needs 3**14 counters, above the cap"),
    (["ucc", "--p", "3", "--n", "5", "--k", "1", "--l", "0", "--check-pairwise"],
     "the three-way table needs 3**15 counters, above the cap"),
], ids=["surface-no-valid-point", "surface-zero-span", "surface-negative-span",
        "covering-M0", "covering-trials1", "covering-ucc-M",
         "covering-ucc-over-cap",
        "pruning-eta", "pruning-trials0", "pruning-dim-over-cap", "pruning-shots-over-cap",
        "ucc-over-cap", "ucc-over-cap-astronomical",
        "ucc-negative-l", "ucc-emit-over-cap", "ucc-zero-n",
        "ucc-pairwise-table-over-cap", "ucc-pairwise-table-over-cap-p3",
        "ucc-three-way-table-over-cap"])
def test_lab_commands_refuse_bad_experiments(tmp_path, monkeypatch, argv, phrase):
    # Every refusal comes before a code ensemble is enumerated.
    def refuse(*_, **__):
        raise AssertionError("an ensemble was enumerated")

    monkeypatch.setattr(codes, "codeword_indices", refuse)
    out = tmp_path / "err.json"
    assert run(argv + ["--out", str(out)]) == EXIT_BAD_EXPERIMENT
    assert phrase in json.loads(out.read_text())["error"]
    assert EXIT_BAD_EXPERIMENT not in {0, 1, 2, EXIT_NOT_PRIME, EXIT_NEEDS_L2, EXIT_NO_SPEC,
                                       EXIT_BAD_PROTOCOL, EXIT_BAD_SPEC}


def test_ucc_refuses_non_prime_p(tmp_path):
    out = tmp_path / "err.json"
    assert run(["ucc", "--p", "4", "--n", "2", "--k", "1", "--l", "1", "--check-pairwise",
                "--out", str(out)]) == EXIT_NOT_PRIME
    assert "not prime" in json.loads(out.read_text())["error"]


def test_surface_refusal_without_out_prints_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["surface", "--grid", "2"]) == EXIT_BAD_EXPERIMENT
    assert "error" in json.loads(capsys.readouterr().out)
    assert not (tmp_path / "surface.csv").exists()


def test_surface_csv_pinned(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["surface", "--grid", "9", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "7440b463e06c3dbaeaa1563d19d79f75fdb3a851228eefd176fc9f71f648a4f6"


def test_surface_csv_pinned_grid41(tmp_path):
    # The benchmark's grid: 68 921 rows, 4 149 of them valid.
    out = tmp_path / "scan.csv"
    assert run(["surface", "--grid", "41", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "c8a46f29bdac7719f8110dacc1d7596851f5420751c6bfb9efecae576610cfa5"


def test_surface_reads_state_and_field_from_example3(tmp_path, monkeypatch):
    # The scanned state and the field F_p come from example3.json: a copy
    # with p = 2 gives the F_2 scan of the same state.
    spec = json.loads(Path(bundled_example_path(3)).read_text())
    spec["p"] = 2
    path = tmp_path / "example3.json"
    path.write_text(json.dumps(spec))
    bundled = cli.bundled_example_path
    monkeypatch.setattr(cli, "bundled_example_path",
                        lambda ident: str(path) if ident == 3 else bundled(ident))
    out = tmp_path / "scan.csv"
    run(["surface", "--grid", "5", "--out", str(out)])
    axis = regions.symmetric_axis(5, 1.0)
    rho = cli.DensityOperator(cli.mat_from_json(spec["rho"]), tuple(spec["dims"]))
    want = regions.surface_scan(rho, (axis, axis, axis), field_p=2)
    assert out.read_text() == regions.surface_to_csv(want)
    default = regions.surface_scan(rho, (axis, axis, axis), field_p=3)
    assert not np.allclose(want.gain[want.valid], default.gain[default.valid])


def test_benchmark_wrapped_names_exist():
    # The benchmark's tracer replaces these names at run time; a missing one
    # crashes a traced run.  WRAPPED is read from the source, not imported.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    assert {"linalg", "lab", "codes", "regions", "cli"} <= set(wrapped)
    for layer, names in wrapped.items():
        module = importlib.import_module(f"povmsim.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_covering_command(tmp_path):
    out = tmp_path / "cov.json"
    assert run(["covering", "--M", "16", "--trials", "400", "--sampler", "ucc",
                "--k", "2", "--l", "2", "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"]
    assert report["empirical_mean"] <= report["bound"]


def test_pruning_command(tmp_path):
    out = tmp_path / "prune.json"
    assert run(["pruning", "--trials", "500", "--eta", "0.3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] and report["pathwise_violations"] == 0


@pytest.mark.parametrize("argv", [["--dim", "40"], ["--shots", "1000"]], ids=["dim40", "shots1000"])
def test_pruning_command_takes_sizes_beyond_one_block(tmp_path, argv):
    # A full block of such samples would exceed the cap; the blocks shrink instead.
    out = tmp_path / "prune.json"
    assert run(["pruning", "--trials", "3", *argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trials"] == 3


def test_ucc_emit_and_check(tmp_path):
    out = tmp_path / "code.json"
    assert run(["ucc", "--p", "2", "--n", "3", "--k", "1", "--l", "2",
                "--seed", "9", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["multiplicity_sum"] == 2 ** 3
    out2 = tmp_path / "check.json"
    assert run(["ucc", "--p", "2", "--n", "2", "--k", "1", "--l", "1",
                "--check-pairwise", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text()) == {"pairwise": {
        "ensembles": 64, "exact": True, "worst_pair_deviation": 0, "worst_single_deviation": 0}}


def test_ucc_check_pairwise_report(tmp_path):
    # The collinear triple's 81 joint values take 3**8 / 81 ensembles each,
    # 72 above the uniform 3**8 / 3**6.
    out = tmp_path / "check.json"
    assert run(["ucc", "--p", "3", "--n", "2", "--k", "1", "--l", "1",
                "--check-pairwise", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "pairwise": {"ensembles": 6561, "exact": True,
                     "worst_pair_deviation": 0, "worst_single_deviation": 0},
        "three_way_witness": {"fires": True, "max_joint_deviation": 72.0,
                              "relation_coeffs": [1, 1, 1]}}


def test_fm_command(tmp_path):
    region = {
        "variables": ["Rt", "R1"],
        "inequalities": [
            {"coeffs": {"Rt": 1, "R1": 1}, "const": 3.0},
            {"coeffs": {"Rt": -1}, "const": -1.0},
            {"coeffs": {"Rt": 1}, "const": 0.0},
        ],
    }
    src = tmp_path / "region.json"
    src.write_text(json.dumps(region))
    out = tmp_path / "elim.json"
    assert run(["fm", "--region", str(src), "--eliminate", "Rt", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["variables"] == ["R1"]
    assert got["inequalities"] == [{"coeffs": {"R1": 1.0}, "const": 2.0}]


@pytest.mark.parametrize("content, code, phrase", [
    (None, EXIT_NO_SPEC, "cannot read the region file"),
    ("# A markdown file, not a region file\n", EXIT_BAD_SPEC, "JSONDecodeError"),
    ('{"variables": ["Rt"]}', EXIT_BAD_SPEC, "KeyError: 'inequalities'"),
    ('{"variables": ["Rt"], "inequalities": [{"coeffs": [1], "const": 0}]}', EXIT_BAD_SPEC,
     "TypeError"),
    ('{"variables": ["R1"], "inequalities": [{"coeffs": {"R1": 1}, "const": 0}]}',
     EXIT_BAD_EXPERIMENT, "'Rt' not declared"),
    ('{"variables": ["Rt"], "inequalities": [{"coeffs": {"Rt": 1}, "const": NaN}]}',
     EXIT_BAD_SPEC, "non-finite"),
], ids=["missing", "not-json", "missing-key", "coeffs-not-a-map", "unknown-variable",
        "non-finite"])
def test_fm_refuses_a_bad_region_file(tmp_path, content, code, phrase):
    src = tmp_path / "region.json"
    if content is not None:
        src.write_text(content)
    out = tmp_path / "err.json"
    assert run(["fm", "--region", str(src), "--eliminate", "Rt", "--out", str(out)]) == code
    assert phrase in json.loads(out.read_text())["error"]


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--mode", "p2p", "--n", "2", "--k", "0", "--l", "4",
            "--N", "2", "--delta", "0.7", "--seed", "11"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    run(["covering", "--M", "4", "--trials", "100", "--seed", "2", "--out", str(c)])
    run(["covering", "--M", "4", "--trials", "100", "--seed", "2", "--out", str(d)])
    assert c.read_bytes() == d.read_bytes()
