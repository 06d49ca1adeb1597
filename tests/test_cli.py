import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graphtv import OrientedGraph, read_problem, write_problem
from graphtv.cli import main
from graphtv.errors import ParseError
from graphtv.instances import nonequivalence_instance
from graphtv.io import dumps_deterministic, format_float, problem_from_dict


@pytest.fixture()
def problem_file(tmp_path):
    g, f = nonequivalence_instance()
    path = tmp_path / "problem.json"
    write_problem(str(path), g, f)
    return str(path)


def test_problem_round_trip(tmp_path, problem_file):
    g0, f0 = nonequivalence_instance()
    g, f = read_problem(problem_file)
    assert g.vertex_count == g0.vertex_count
    assert g.edges == g0.edges
    assert g.names == g0.names
    assert g.cartesian == g0.cartesian
    assert np.abs(f - f0).max() == 0.0


def test_a_one_vertex_problem_round_trips(tmp_path, capsys):
    # a graph of one vertex has no edge: read_problem takes back the file
    # write_problem writes, and the CLI solves it.  Two values with no edge
    # are a graph that is not connected (exit 3)
    path = tmp_path / "one.json"
    write_problem(str(path), OrientedGraph(1, []), [3.0])
    assert json.loads(path.read_text()) == {"edges": [], "values": [3]}
    g, f = read_problem(str(path))
    assert (g.vertex_count, g.edge_count, f.tolist()) == (1, 0, [3.0])
    assert main(["rof", str(path), "--alpha", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [3]
    path.write_text('{"edges": [], "values": [1, 2]}')
    with pytest.raises(ParseError, match="graph must be connected"):
        read_problem(str(path))
    assert main(["rof", str(path), "--alpha", "1"]) == 3
    assert "graph must be connected" in capsys.readouterr().err


def test_float_formatting_round_trips():
    rng = np.random.default_rng(20240823)
    for x in rng.normal(0, 1e6, 200):
        assert float(format_float(float(x))) == float(x)
    assert format_float(0.1) == "0.1"
    assert format_float(1.0) == "1"


def test_parse_errors():
    with pytest.raises(ParseError):
        problem_from_dict({"values": [1.0]})
    with pytest.raises(ParseError):
        problem_from_dict({"edges": [[0, 1]], "values": ["x", 1.0]})
    with pytest.raises(ParseError):
        problem_from_dict({"edges": [[0, 0]], "values": [1.0, 2.0]})
    with pytest.raises(ParseError):
        problem_from_dict({"edges": [[0, 1]], "values": [1.0, 2.0],
                           "grid_coords": [[1, 1], [1, 2]]})


def test_an_integer_too_large_for_a_float_is_a_parse_error(tmp_path, capsys):
    # JSON integers have no bound; one past the float range is not finite,
    # as inf and nan are: ParseError, and exit 3 from the CLI
    with pytest.raises(ParseError, match="finite"):
        problem_from_dict({"edges": [[0, 1]], "values": [1, 10 ** 400]})
    path = tmp_path / "big.json"
    path.write_text('{"edges": [[0, 1]], "values": [1, 1%s]}' % ("0" * 400))
    assert main(["rof", str(path), "--alpha", "1"]) == 3
    assert "'values' must be finite" in capsys.readouterr().err


def test_cli_rof_and_flow(tmp_path, problem_file, capsys):
    assert main(["rof", problem_file, "--alpha", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["values"][1] - 20.5) < 1e-6

    assert main(["flow", problem_file, "--t-end", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["values"][1] - 20.8) < 1e-6


def test_cli_compare(problem_file, capsys):
    assert main(["compare", problem_file, "--grid", "0.2,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    reports = doc["reports"]
    assert reports[0]["equivalent"] is True
    assert reports[1]["equivalent"] is False
    assert abs(reports[1]["linf_distance"] - 0.3) < 1e-6


def test_cli_trajectory_output(tmp_path, problem_file):
    out = tmp_path / "traj.txt"
    assert main(["flow", problem_file, "--trajectory",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("breakpoints ")
    bps = [float(x) for x in lines[0].split()[1:]]
    assert min(abs(b - 0.4) for b in bps) < 1e-4
    rows = [ln for ln in lines[1:] if ln.startswith("row ")]
    assert len(rows) == len(bps)


def test_cli_verify_counterexample_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["verify", "--mode", "counterexample",
                 "--output", str(a)]) == 0
    assert main(["verify", "--mode", "counterexample",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"verification PASSED" in a.read_bytes()


def test_cli_verify_phimin(problem_file, capsys):
    assert main(["verify", "--mode", "phimin", problem_file,
                 "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out


def test_cli_verify_isotropic(problem_file, capsys):
    assert main(["verify", "--mode", "isotropic", problem_file,
                 "--alpha", "1", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "witness" in out


def test_cli_verify_tolerance_flags(problem_file, capsys, monkeypatch):
    # --solve-tol reaches both minimality verifiers; an unset flag keeps the
    # verifiers' own default
    import graphtv.cli as cli
    from graphtv.minimality import DEFAULT_CHECK_TOL
    seen = []

    def capture(real):
        def wrapper(*args, tol=None, **kwargs):
            seen.append(tol)
            return real(*args, tol=tol, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "verify_universal_minimality",
                        capture(cli.verify_universal_minimality))
    monkeypatch.setattr(cli, "demonstrate_isotropic_failure",
                        capture(cli.demonstrate_isotropic_failure))
    for mode, trials in (("phimin", []), ("isotropic", ["--trials", "2"])):
        assert main(["verify", "--mode", mode, problem_file, *trials,
                     "--solve-tol", "1e-7"]) == 0
        assert main(["verify", "--mode", mode, problem_file, *trials]) == 0
    capsys.readouterr()
    assert [t.solve_tol for t in seen] == [1e-7, DEFAULT_CHECK_TOL.solve_tol] * 2


def test_cli_exit_codes(tmp_path, problem_file, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["rof", missing, "--alpha", "1"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["rof", str(bad), "--alpha", "1"]) == 3
    # bytes that are not UTF-8, and an array nested deeper than the JSON
    # decoder recurses, are unreadable problems too, not tracebacks (exit 1)
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["rof", str(bad), "--alpha", "1"]) == 3
    bad.write_text("[" * 200000 + "]" * 200000)
    assert main(["rof", str(bad), "--alpha", "1"]) == 3
    assert main(["rof", problem_file, "--alpha", "-2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["rof", problem_file])  # neither --alpha nor --path
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_rof_at_an_alpha_whose_t_overflows_is_exit_4(problem_file, capsys):
    # at alpha below 2^-1024, t = 1 / alpha overflows a float: the solve
    # fails with that cause (exit 4), as a path does, not with a traceback
    assert main(["rof", problem_file, "--alpha", "1e-310"]) == 4
    assert capsys.readouterr().err == (
        "solver failed: t = 1 / alpha overflows a float at alpha = 1e-310 "
        "(9 vertices, 12 edges)\n")


def test_cli_flow_rejects_a_bad_time_before_the_flow(problem_file, capsys, monkeypatch):
    # a negative, nan or infinite --t-end is a usage error (exit 2, with
    # value_at's message) found before the flow runs, not after
    import graphtv.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("flow_solve ran")

    monkeypatch.setattr(graphtv.cli, "flow_solve", unreachable)
    for t in ("-1", "nan", "inf", "-inf"):
        assert main(["flow", problem_file, "--t-end=" + t]) == 2
        assert capsys.readouterr().err == (
            "usage error: parameter must be finite and nonnegative\n")


def test_cli_isotropic_rejects_a_negative_seed(problem_file, capsys, monkeypatch):
    # a negative --seed is a usage error (exit 2) naming the flag, found
    # before any solve runs; numpy would raise on it after the problem is read
    import graphtv.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the isotropic check ran")

    monkeypatch.setattr(graphtv.cli, "demonstrate_isotropic_failure", unreachable)
    for seed in ("-3", "-1"):
        assert main(["verify", "--mode", "isotropic", problem_file, "--trials", "4",
                     "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --seed must be at least 0\n"


def test_cli_unwritable_output_is_exit_3(tmp_path, problem_file, capsys):
    # an --output in a missing directory, or naming a directory, cannot be
    # written: the error names the path and exits 3, as an unreadable
    # problem file does, not 1, which says a verification failed
    for target in (str(tmp_path / "missing" / "x"), str(tmp_path)):
        assert main(["rof", problem_file, "--alpha", "1", "--output", target]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write %s: " % target)


def test_cli_isotropic_without_a_witness_fails(problem_file, capsys, monkeypatch):
    # a search that finds no witness prints FAIL with the number of data
    # and exits 1
    import graphtv.cli
    from graphtv.minimality import IsotropicFailureReport

    def no_witness(g, batch, alpha, tol=None):
        return IsotropicFailureReport(True, alpha, None, (), 6 * len(batch))

    monkeypatch.setattr(graphtv.cli, "demonstrate_isotropic_failure", no_witness)
    assert main(["verify", "--mode", "isotropic", problem_file, "--trials", "4"]) == 1
    assert capsys.readouterr().out == (
        "FAIL no witness among 4 data\nverification FAILED\n")


def test_deterministic_json_key_order():
    doc = {"b": 1.5, "a": [True, None, 3]}
    assert dumps_deterministic(doc) == '{"b": 1.5, "a": [true, null, 3]}'


def test_import_loads_no_scipy():
    # scipy.sparse alone doubles the resident memory of a CLI process
    import graphtv
    src = os.path.dirname(os.path.dirname(graphtv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, graphtv, graphtv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_rejects_tolerance_flags_a_mode_never_reads(problem_file, capsys):
    # neither rof nor the flow reads a tolerance, neither the comparison
    # nor the counterexample harness reads a solve tolerance, and neither
    # minimality verifier reads a flat tolerance: each such flag is a usage
    # error naming the flag and the mode
    cases = [(["rof", problem_file, "--path"], "--flat-tol", "rof --path"),
             (["rof", problem_file, "--path"], "--solve-tol", "rof --path"),
             (["rof", problem_file, "--alpha", "1"], "--flat-tol", "rof --alpha"),
             (["rof", problem_file, "--alpha", "1"], "--solve-tol", "rof --alpha"),
             (["flow", problem_file, "--t-end", "1"], "--flat-tol", "flow"),
             (["flow", problem_file, "--trajectory"], "--flat-tol", "flow"),
             (["flow", problem_file, "--t-end", "1"], "--solve-tol", "flow"),
             (["flow", problem_file, "--trajectory"], "--solve-tol", "flow"),
             (["verify", "--mode", "counterexample", problem_file], "--solve-tol",
              "verify --mode counterexample"),
             (["compare", problem_file, "--grid", "1"], "--solve-tol", "compare"),
             (["verify", "--mode", "phimin", problem_file], "--flat-tol",
              "verify --mode phimin"),
             (["verify", "--mode", "isotropic", problem_file], "--flat-tol",
              "verify --mode isotropic")]
    for argv, flag, mode in cases:
        assert main(argv + [flag, "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "%s has no effect on %s" % (flag, mode) in captured.err
    # nor does the counterexample harness read the problem file, --alpha,
    # --trials or --seed, or phimin --trials or --seed; the first such flag
    # is named, and a tolerance flag before any other
    verify = ["verify", "--mode"]
    cases = [(verify + ["counterexample", problem_file, "--alpha", "3", "--trials", "2",
                        "--seed", "1"], "problem", "counterexample"),
             (verify + ["counterexample", "--alpha", "3"], "--alpha", "counterexample"),
             (verify + ["counterexample", "--trials", "2"], "--trials", "counterexample"),
             (verify + ["counterexample", "--seed", "1"], "--seed", "counterexample"),
             (verify + ["counterexample", "--seed", "1", "--solve-tol", "1e-6"],
              "--solve-tol", "counterexample"),
             (verify + ["phimin", problem_file, "--trials", "2"], "--trials", "phimin"),
             (verify + ["phimin", problem_file, "--seed", "1"], "--seed", "phimin"),
             (verify + ["phimin", problem_file, "--seed", "1", "--flat-tol", "1e-6"],
              "--flat-tol", "phimin")]
    for argv, flag, mode in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "%s has no effect on verify --mode %s" % (flag, mode) in captured.err
    # isotropic mode runs at least one datum
    for trials in ("0", "-4"):
        assert main(verify + ["isotropic", problem_file, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials must be at least 1" in captured.err
    # the flags each mode reads are still taken
    assert main(["verify", "--mode", "counterexample", "--flat-tol", "1e-8"]) == 0
    assert main(["compare", problem_file, "--grid", "1", "--flat-tol", "1e-6"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["-1", "abc", "", ",", "0", "1,-2", "nan", "inf", "0.5,inf"])
def test_a_bad_grid_is_a_usage_error_before_any_solve(problem_file, grid, capsys, monkeypatch):
    # an empty, unparsable, non-positive or non-finite --grid value is a
    # usage error (exit 2), not an unreadable problem (exit 3), and is
    # rejected before the flow runs: nan and inf ran the whole flow first
    import graphtv.cli

    def no_solve(*args):
        raise AssertionError("flow_solve ran")

    monkeypatch.setattr(graphtv.cli, "flow_solve", no_solve)
    assert main(["compare", problem_file, "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: --grid")
