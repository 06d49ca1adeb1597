import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graphtv import read_problem, write_problem
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
    # --solve-tol reaches both minimality verifiers; unset flags keep the
    # verifiers' own defaults
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
    for mode in ("phimin", "isotropic"):
        assert main(["verify", "--mode", mode, problem_file, "--trials", "2",
                     "--solve-tol", "1e-7"]) == 0
        assert main(["verify", "--mode", mode, problem_file, "--trials", "2",
                     "--flat-tol", "1e-8"]) == 0
    capsys.readouterr()
    assert [t.solve_tol for t in seen] == [1e-7, DEFAULT_CHECK_TOL.solve_tol] * 2
    assert [t.flat_tol for t in seen] == [DEFAULT_CHECK_TOL.flat_tol, 1e-8] * 2


def test_cli_exit_codes(tmp_path, problem_file, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["rof", missing, "--alpha", "1"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["rof", str(bad), "--alpha", "1"]) == 3
    assert main(["rof", problem_file, "--alpha", "-2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["rof", problem_file])  # neither --alpha nor --path
    assert exc.value.code == 2
    capsys.readouterr()


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
    # rof --path reads no tolerance, rof --alpha no flat threshold, and the
    # flow runs no inner solve: each such flag is a usage error naming the
    # flag and the mode
    cases = [(["rof", problem_file, "--path"], "--flat-tol", "rof --path"),
             (["rof", problem_file, "--path"], "--solve-tol", "rof --path"),
             (["rof", problem_file, "--alpha", "1"], "--flat-tol", "rof --alpha"),
             (["flow", problem_file, "--t-end", "1"], "--solve-tol", "flow"),
             (["flow", problem_file, "--trajectory"], "--solve-tol", "flow")]
    for argv, flag, mode in cases:
        assert main(argv + [flag, "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "%s has no effect on %s" % (flag, mode) in captured.err
    # the flags each mode reads are still taken
    assert main(["rof", problem_file, "--alpha", "1", "--solve-tol", "1e-10"]) == 0
    assert main(["flow", problem_file, "--t-end", "1", "--flat-tol", "1e-6"]) == 0
    assert main(["compare", problem_file, "--grid", "1", "--flat-tol", "1e-6",
                 "--solve-tol", "1e-10"]) == 0
    capsys.readouterr()
