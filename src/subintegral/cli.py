"""Command-line front end.

Reads a program in the small command language from a file or stdin,
dispatches to the library, and prints either human-readable text or
deterministic JSON reports (schema 1).  Exit codes: 0 for definite
results, 2 when any result is inconclusive, 1 for usage, parse, or
input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache

from . import examples as examples_mod
from .arcs import ArcSampler, refute_star_membership
from .closure import i_greater, in_i_greater, in_integral_closure, integral_closure, vbar
from .cover import from_rrs, graph_on_deep_locus, unique_deep_root_check
from .errors import BudgetExceeded, ClosureError, ParseError
from .ideals import MonomialIdeal, ord_in
from .newton import newton_polyhedron, rees_valuations
from .parser import Request, parse
from .reductions import (
    classify_reductions,
    core_via_colon,
    dim_i_mod_igt,
    is_reduction_monomial,
    is_reduction_parameter,
    multiplicity,
    star_of_min_reduction,
)
from .rrs import bounded_search, construct_from_igt, derivative_chain_check, verify

SCHEMA = 1


class Options(namedtuple("Options", "seed budget", defaults=(0, None))):
    """The --seed and --budget flags of one CLI call."""

    __slots__ = ()


def _frac_str(value) -> str:
    if value == math.inf:
        return "infinity"
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _ideal_json(I, names) -> object:
    if isinstance(I, MonomialIdeal):
        return examples_mod.render_ideal(I, names)
    return [g.to_string(names) for g in I.gens]


def _system_json(system, names) -> dict:
    return {
        "q": system.q,
        "coefficients": [c.to_string(names) for c in system.coeffs],
    }


def _default_sample_points(nvars: int) -> list:
    pts = [
        [Fraction(1)] * nvars,
        [Fraction(-1)] * nvars,
        [Fraction(1, 2)] * nvars,
        [Fraction(2), *[Fraction(-1)] * (nvars - 1)],
        [Fraction(-1, 3), *[Fraction(3)] * (nvars - 1)],
    ]
    return pts


def run(req: Request, options: Options | None = None) -> dict:
    """Execute one request and build its report dictionary."""
    options = options or Options()
    names = req.ring
    report: dict = {"schema": SCHEMA, "command": req.command, "inputs": {}}
    if names:
        report["inputs"]["ring"] = list(names)
    if req.ideals:
        report["inputs"]["ideals"] = [_ideal_json(I, names) for I in req.ideals]
    if req.polys:
        report["inputs"]["polys"] = [p.to_string(names) for p in req.polys]
    if req.subcommand:
        report["inputs"]["subcommand"] = req.subcommand

    cmd = req.command
    if cmd == "newton":
        np = newton_polyhedron(req.ideals[0])
        report["result"] = {
            "vertices": [list(v) for v in np.vertices],
            "facets": [
                {"normal": list(f.normal), "value": f.value, "bounded": f.bounded}
                for f in np.facets
            ],
        }
    elif cmd == "rees":
        report["result"] = [
            {"weight": list(v.weight), "value": v.value_on_ideal}
            for v in rees_valuations(req.ideals[0])
        ]
    elif cmd == "iclose":
        report["result"] = {
            "generators": _ideal_json(integral_closure(req.ideals[0]), names)
        }
    elif cmd == "igt":
        report["result"] = {
            "generators": _ideal_json(i_greater(req.ideals[0]), names)
        }
    elif cmd == "vbar":
        report["result"] = {"value": _frac_str(vbar(req.polys[0], req.ideals[0]))}
    elif cmd == "ord":
        cap = options.budget or 64
        value = ord_in(req.polys[0], req.ideals[0], cap=cap)
        report["result"] = {
            "order": _frac_str(value) if value == math.inf else int(value),
            "cap": cap,
        }
    elif cmd == "colength":
        value = req.ideals[0].colength()
        report["result"] = {
            "value": _frac_str(value) if value == math.inf else int(value)
        }
    elif cmd == "multiplicity":
        report["result"] = {"value": multiplicity(req.ideals[0])}
    elif cmd == "reduction":
        J, I = req.ideals
        if isinstance(J, MonomialIdeal):
            result = is_reduction_monomial(J, I)
            method = "newton-polyhedron"
        else:
            result = is_reduction_parameter(J, I)
            method = "multiplicity"
        report["result"] = {"is_reduction": result, "method": method}
    elif cmd == "core":
        I, J = req.ideals
        report["result"] = {
            "generators": _ideal_json(core_via_colon(I, J), names),
            "note": "formula result",
        }
    elif cmd == "star-min-red":
        J, I = req.ideals
        star = star_of_min_reduction(J, I)
        result = {
            "truncation_order": star.order,
            "i_greater": _ideal_json(star.igt, names),
        }
        if req.polys:
            result["contains"] = star.contains(req.polys[0])
        report["result"] = result
    elif cmd == "dim-igt":
        report["result"] = {"value": dim_i_mod_igt(req.ideals[0])}
    elif cmd == "classify-reductions":
        report["result"] = {"value": classify_reductions(req.ideals[0]).value}
    elif cmd == "rrs":
        _run_rrs(req, options, report, names)
    elif cmd == "zz-check":
        _run_zz_check(req, options, report, names)
    elif cmd == "relclose":
        report["result"] = {"witness": _refute(req, options, report)}
    elif cmd == "classify":
        _run_classify(req, options, report, names)
    elif cmd == "examples":
        run_report = examples_mod.run_worked_examples()
        report["result"] = {"passed": run_report.ok, "diffs": run_report.diffs}
        if not run_report.ok:
            report["error"] = {
                "code": "examples-mismatch",
                "message": "worked examples disagree with pinned expectations",
            }
    else:  # pragma: no cover - the parser only emits known commands
        raise ValueError(f"unknown command {cmd!r}")
    return report


def _run_rrs(req: Request, options: Options, report: dict, names) -> None:
    h, I = req.polys[0], req.ideals[0]
    budget = options.budget or (32 if req.subcommand != "search" else 6)
    if req.subcommand in {"certify", "verify"}:
        system = construct_from_igt(h, I, q_max=budget)
        result = {
            "q": system.q,
            "verified": verify(h, system, I),
            "derivative_chain": derivative_chain_check(system),
        }
        report["certificates"] = [_system_json(system, names)]
        report["result"] = result
        report["budget_used"] = system.q
    else:
        system = bounded_search(h, I, q_max=budget)
        if system is None:
            report["result"] = {"found": False}
            report["inconclusive"] = True
            report["budget_used"] = budget
        else:
            report["result"] = {
                "found": True,
                "q": system.q,
                "verified": verify(h, system, I),
            }
            report["certificates"] = [_system_json(system, names)]
            report["budget_used"] = system.q


def _run_zz_check(req: Request, options: Options, report: dict, names) -> None:
    h, I = req.polys[0], req.ideals[0]
    if in_i_greater(h, I):
        system = construct_from_igt(h, I, q_max=options.budget or 32)
    else:
        system = bounded_search(h, I, q_max=options.budget or 6)
    if system is None:
        report["result"] = {"found": False}
        report["inconclusive"] = True
        return
    surface = from_rrs(system)
    points = _default_sample_points(h.nvars)
    report["certificates"] = [_system_json(system, names)]
    report["result"] = {
        "degree": surface.degree,
        "ell": surface.ell,
        "graph_on_deep_locus": graph_on_deep_locus(surface, h, points),
        "unique_deep_root": unique_deep_root_check(surface, points),
    }


def _run_classify(req: Request, options: Options, report: dict, names) -> None:
    # The --budget flag sizes the arc-sampling stage; the certificate
    # search keeps its small fixed ansatz depth (large q blows up the
    # coefficient space combinatorially and is never what a budget means).
    h, I = req.polys[0], req.ideals[0]
    if I.contains(h):
        report["result"] = {"verdict": "InIdeal"}
        return
    if not in_integral_closure(h, I):
        report["result"] = {"verdict": "NotInIntegralClosure"}
        return
    if in_i_greater(h, I):
        report["result"] = {"verdict": "InStarViaIGreater"}
        with suppress(BudgetExceeded):  # exact even with no certificate for q <= 32
            system = construct_from_igt(h, I, q_max=32)
            report["certificates"] = [_system_json(system, names)]
            report["result"]["q"] = system.q
        return
    system = bounded_search(h, I, q_max=4)
    if system is not None:
        report["certificates"] = [_system_json(system, names)]
        report["result"] = {"verdict": "CertifiedInStar", "q": system.q}
        return
    witness = _refute(req, options, report)
    report["result"] = {"verdict": "Unknown" if witness is None else "NotInStar"}


def _refute(req: Request, options: Options, report: dict) -> dict | None:
    """Run the arc refuter on h in I over --budget pairs (200 by default).
    Record the refuting pair and the pairs used, or mark the report
    inconclusive; return the pair as JSON, or None."""
    sampler = ArcSampler(seed=options.seed, count=options.budget or 200)
    refutation = refute_star_membership(req.polys[0], req.ideals[0], sampler)
    if refutation is None:
        report["inconclusive"] = True
        report["budget_used"] = sampler.count
        return None
    witness = refutation.pair.to_json()
    report["witnesses"] = [witness]
    report["budget_used"] = refutation.index + 1
    return witness


# -- rendering ---------------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [f"{report['command']}:"]
    if "error" in report:
        lines.append(f"  error[{report['error']['code']}]: {report['error']['message']}")
    result = report.get("result")
    if result is not None:
        body = json.dumps(result, indent=2, sort_keys=True, default=str)
        lines.extend("  " + line for line in body.splitlines())
    if report.get("inconclusive"):
        lines.append("  (inconclusive)")
    return "\n".join(lines)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, the code of every other input
    error; 2 is kept for inconclusive results."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@lru_cache(maxsize=1)
def _argument_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    `main` call (parsing keeps no state in it)."""
    parser = _ArgumentParser(
        prog="subintegral",
        description="Exact closure computations for monomial ideals",
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="program file in the command language ('-' reads stdin)",
    )
    parser.add_argument("-c", "--program", help="program text given inline")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument("--seed", type=int, default=0, help="sampler seed")
    parser.add_argument("--budget", type=_budget, help="search/sampling budget (>= 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _argument_parser().parse_args(argv)

    if args.program is not None:
        text = args.program
    elif args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error[io]: {exc}", file=sys.stderr)
            return 1

    options = Options(seed=args.seed, budget=args.budget)
    try:
        requests = parse(text)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1

    reports = []
    exit_code = 0
    for req in requests:
        try:
            report = run(req, options)
        except ClosureError as exc:
            report = {
                "schema": SCHEMA,
                "command": req.command,
                "error": {"code": exc.code, "message": str(exc)},
            }
            exit_code = 1
        if report.get("inconclusive") and exit_code == 0:
            exit_code = 2
        if "error" in report and report["error"].get("code") == "examples-mismatch":
            exit_code = 1
        reports.append(report)

    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for report in reports:
            print(_render_text(report))
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
