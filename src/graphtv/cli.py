"""Command line interface.

Subcommands:
  rof      solve the regularization problem at one alpha, or trace the
           whole solution path
  flow     evaluate the gradient flow at one time, or trace the full
           trajectory
  compare  contrast regularization and flow on a grid of parameters
  verify   run the built-in verification suites

Exit codes: 0 success, 1 a verification ran and failed, 2 bad usage,
3 unreadable or invalid problem file or unwritable --output, 4 solver did
not converge.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from io import StringIO
from typing import Optional

import numpy as np

from .bench import counterexample_harness, equivalence_report
from .errors import ConvergenceError, ParseError, PathError, ValidationError
from .flow import flow_solve
from .graph import DEFAULT_TOL, Tolerances
from .instances import nonequivalence_instance
from .io import dumps_deterministic, format_float, read_problem, write_trajectory
from .minimality import (DEFAULT_CHECK_TOL, demonstrate_isotropic_failure,
                         verify_universal_minimality)
from .rof import rof_path, rof_solve

EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 3
EXIT_SOLVER = 4


def _tolerances(args, base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """The tolerance flags given on the command line, over ``base``."""
    given = {name: getattr(args, name)
             for name in ("flat_tol", "solve_tol")
             if getattr(args, name) is not None}
    return replace(base, **given)


def _reject_unread(args, mode: str, *flags: str) -> None:
    """A usage error for each flag, or the problem file, given to a mode
    that never reads it."""
    for flag in flags:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is not None:
            raise ValidationError("%s has no effect on %s" % (flag, mode))


def _emit(args, text: str) -> None:
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError("cannot write %s: %s" % (args.output, exc)) from exc
    else:
        sys.stdout.write(text)


def _load(args):
    if getattr(args, "problem", None) is None:
        return nonequivalence_instance()
    return read_problem(args.problem)


def _cmd_rof(args) -> int:
    if args.path:
        _reject_unread(args, "rof --path", "--flat-tol", "--solve-tol")
    else:
        _reject_unread(args, "rof --alpha", "--flat-tol", "--solve-tol")
    g, f = _load(args)
    if args.path:
        path = rof_path(g, f)
        buf = StringIO()
        write_trajectory(buf, path)
        _emit(args, buf.getvalue())
        return 0
    sol = rof_solve(g, f, args.alpha)
    doc = {
        "alpha": float(args.alpha),
        "values": [float(x) for x in sol.u],
        "dual_flow": [float(x) for x in sol.dual_flow],
        "iterations": int(sol.report.iterations),
    }
    _emit(args, dumps_deterministic(doc) + "\n")
    return 0


def _cmd_flow(args) -> int:
    _reject_unread(args, "flow", "--flat-tol", "--solve-tol")
    g, f = _load(args)
    if args.t_end is not None and not (args.t_end >= 0 and math.isfinite(args.t_end)):
        # value_at's own check, made before the flow runs
        raise ValidationError("parameter must be finite and nonnegative")
    traj = flow_solve(g, f)
    if args.trajectory:
        buf = StringIO()
        write_trajectory(buf, traj.path)
        _emit(args, buf.getvalue())
        return 0
    u = traj.value_at(args.t_end)
    doc = {
        "t": float(args.t_end),
        "values": [float(x) for x in u],
        "extinction_time": float(traj.t_max),
    }
    _emit(args, dumps_deterministic(doc) + "\n")
    return 0


def _cmd_compare(args) -> int:
    _reject_unread(args, "compare", "--solve-tol")
    tol = _tolerances(args)
    try:
        alphas = [float(s) for s in args.grid.split(",") if s.strip()]
    except ValueError:
        raise ValidationError("--grid must be a comma separated list of numbers")
    if not alphas or not all(a > 0 and math.isfinite(a) for a in alphas):
        raise ValidationError("--grid needs finite positive parameter values")
    g, f = _load(args)
    traj = flow_solve(g, f)
    rows = []
    for a in sorted(alphas):
        rep = equivalence_report(g, f, a, tol, trajectory=traj)
        rows.append({
            "alpha": a,
            "linf_distance": rep.linf_distance,
            "l2_distance": rep.l2_distance,
            "equivalent": rep.averaged_derivative_member,
            "membership_residual": rep.membership_residual,
            "sufficient_condition": rep.sufficient_condition_holds,
            "first_segment": rep.first_segment,
        })
    _emit(args, dumps_deterministic({"reports": rows}) + "\n")
    return 0


def _cmd_verify(args) -> int:
    lines = []
    ok = True
    mode = "verify --mode " + args.mode
    alpha = 1.0 if args.alpha is None else args.alpha
    # each mode names the tolerance flag it never reads first
    if args.mode == "counterexample":
        _reject_unread(args, mode, "--solve-tol", "problem", "--alpha", "--trials", "--seed")
        report = counterexample_harness(_tolerances(args))
        for c in report.checks:
            lines.append("%s %s measured=%s expected=%s tol=%s" % (
                "PASS" if c.passed else "FAIL", c.name,
                format_float(c.measured), format_float(c.expected),
                format_float(c.tolerance)))
        ok = report.passed
    elif args.mode == "phimin":
        _reject_unread(args, mode, "--flat-tol", "--trials", "--seed")
        g, f = _load(args)
        reports = verify_universal_minimality(
            g, f, alpha, tol=_tolerances(args, DEFAULT_CHECK_TOL))
        for r in reports:
            lines.append("%s %s gap=%s relative=%s" % (
                "PASS" if r.ok else "FAIL", r.phi,
                format_float(r.gap), format_float(r.relative_gap)))
        ok = all(r.ok for r in reports)
    else:
        _reject_unread(args, mode, "--flat-tol")
        trials = 12 if args.trials is None else args.trials
        if trials < 1:
            raise ValidationError("--trials must be at least 1")
        if args.seed is not None and args.seed < 0:
            raise ValidationError("--seed must be nonnegative")
        g, f = _load(args)
        if g.cartesian is None:
            raise ParseError("isotropic mode needs a problem with grid structure")
        rng = np.random.default_rng(7 if args.seed is None else args.seed)
        span = float(f.max() - f.min()) or 1.0
        batch = [f] + [f + rng.normal(0.0, 0.25 * span, f.size)
                       for _ in range(trials - 1)]
        report = demonstrate_isotropic_failure(
            g, batch, alpha, tol=_tolerances(args, DEFAULT_CHECK_TOL))
        if report.witness_found:
            w = report.witness
            lines.append("PASS witness datum=%d phi=%s margin=%s" % (
                w.datum_index, w.phi, format_float(w.margin)))
        else:
            lines.append("FAIL no witness among %d data" % len(batch))
        ok = report.witness_found
    lines.append("verification %s" % ("PASSED" if ok else "FAILED"))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphtv",
        description="Total variation regularization and gradient flow on "
                    "oriented graphs.")
    common = argparse.ArgumentParser(add_help=False)
    # tolerance flags default to None: each mode fills in its own defaults,
    # and a mode that never reads one rejects it (exit 2)
    common.add_argument("--flat-tol", type=float, default=None,
                        help="relative threshold for treating an edge of a "
                             "computed state as flat (default 1e-7; compare "
                             "and verify --mode counterexample only)")
    common.add_argument("--solve-tol", type=float, default=None,
                        help="optimality tolerance for inner solves, and the "
                             "relative gap a verify check passes within "
                             "(default 1e-6; verify --mode phimin|isotropic "
                             "only)")
    common.add_argument("--output", default=None,
                        help="write the result here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rof = sub.add_parser("rof", parents=[common],
                           help="solve the regularization problem")
    p_rof.add_argument("problem", help="problem file (JSON)")
    mode = p_rof.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", type=float, help="regularization strength")
    mode.add_argument("--path", action="store_true",
                      help="trace the full solution path")
    p_rof.set_defaults(func=_cmd_rof)

    p_flow = sub.add_parser("flow", parents=[common],
                            help="integrate the gradient flow")
    p_flow.add_argument("problem", help="problem file (JSON)")
    mode = p_flow.add_mutually_exclusive_group(required=True)
    mode.add_argument("--t-end", type=float, help="evaluation time")
    mode.add_argument("--trajectory", action="store_true",
                      help="emit the full trajectory")
    p_flow.set_defaults(func=_cmd_flow)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="compare regularization against the flow")
    p_cmp.add_argument("problem", help="problem file (JSON)")
    p_cmp.add_argument("--grid", required=True,
                       help="comma separated parameter values")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a built-in verification suite")
    p_ver.add_argument("--mode", required=True,
                       choices=("phimin", "isotropic", "counterexample"))
    p_ver.add_argument("problem", nargs="?", default=None,
                       help="problem file (defaults to the built-in instance; "
                            "phimin and isotropic modes)")
    # like the tolerance flags, these default to None: each mode fills in
    # the defaults of those it reads and rejects the others (exit 2)
    p_ver.add_argument("--alpha", type=float, default=None,
                       help="regularization strength for the checks (default "
                            "1; phimin and isotropic modes)")
    p_ver.add_argument("--trials", type=int, default=None,
                       help="number of random data, at least 1 (default 12; "
                            "isotropic mode)")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="nonnegative seed for the data batch (default 7; "
                            "isotropic mode)")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PARSE
    except ValidationError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except (ConvergenceError, PathError) as exc:
        sys.stderr.write("solver failed: %s\n" % exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
