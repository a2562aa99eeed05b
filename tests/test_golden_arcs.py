"""Golden JSON reports of every CLI command.

The arc refuter's relclose and classify programs come first, then one or
more programs for each other command, a program with declared operands and
one library error.  Each program runs through the CLI with `--json --seed 0
--budget 100`; its exit code and standard output must match
`golden/arc_reports.json` byte for byte (witnesses, certificates, refutation
indices and `budget_used` included).  Rewrite the file only for an intended
change of output:

    PYTHONPATH=src python tests/test_golden_arcs.py --write
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from subintegral.cli import Options, main, run
from subintegral.errors import ClosureError
from subintegral.parser import parse

GOLDEN = pathlib.Path(__file__).with_name("golden") / "arc_reports.json"
ARGS = ["--json", "--seed", "0", "--budget", "100"]

PROGRAMS = [
    # two variables: refuted by the prefix, by a sampled pair, clean
    "ring QQ[x,y]; relclose (x*y) in (x^2, y^2)",
    "ring QQ[x,y]; relclose (x^2*y) in (x^4, y^3)",
    "ring QQ[x,y]; relclose (x*y^2 - x*y + 1/2*y^2) in (x^2, y^3)",
    "ring QQ[x,y]; relclose (x^2*y^2 + 3*x^3*y) in (x^4, x*y^2, y^5)",
    "ring QQ[x,y]; relclose (x^5*y + x*y^4) in (x^6, x^2*y^2, y^5)",
    # three variables
    "ring QQ[x,y,z]; relclose (x*y*z) in (x^2, y^2, z^2)",
    "ring QQ[x,y,z]; relclose (x*y - y*z + 2*x*z) in (x^2, y^2, z^2)",
    "ring QQ[x,y,z]; relclose (y^2*z) in (x^2, x*y^2, y^4, z^3)",
    "ring QQ[x,y,z]; relclose (-x^3*y^2*z + 2*x*y^2) in (x^3, x*y^2*z, y^4, z^3)",
    "ring QQ[x,y,z]; relclose (x^2*y*z + x*y^2*z) in (x^3, y^2, z^3, x*y*z)",
    # classify: refuted after the search, certified, via I_>
    "ring QQ[x,y]; classify (x*y) in (x^2, y^2)",
    "ring QQ[x,y]; classify (x^2*y) in (x^4, y^3)",
    "ring QQ[x,y]; classify (x^2*y^2) in (x^4, x^3*y, y^4)",
    "ring QQ[x,y,z]; classify (x*y*z - x^2*y) in (x^2, y^2, z^2)",
    # two reports from one program
    "ring QQ[x,y]; ideal I = (x^3, x*y, y^3); relclose (x^2 - y^2) in I; "
    "classify (x^2 - y^2) in I",
    # every other command
    "ring QQ[x,y]; newton (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; rees (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; iclose (x^4, x*y^2, y^5)",
    "ring QQ[x,y]; igt (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; vbar (x^2*y + x*y^3) in (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; ord (x^4*y^2) in (x^2, x*y, y^2)",
    "ring QQ[x,y]; colength (x^3, x*y^2, y^4)",
    "ring QQ[x,y,z]; multiplicity (x^2, y^3, z^2, x*y*z)",
    # reduction: monomial J (Newton polyhedra), parameter J (multiplicity)
    "ring QQ[x,y]; reduction (x^2, y^3) in (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; reduction (x^2 + x*y, y^2) in (x^2, x*y, y^2)",
    # linearly dependent parameter generators: not m-primary, so decided by
    # the first colength bound above the multiplicity
    "ring QQ[x,y]; reduction (x^4 + y^4, 2*x^4 + 2*y^4) in (x^4, y^4)",
    "ring QQ[x,y,z]; reduction (x^2 + y^2, y^2 + z^2, z^2 - x^2) in (x^2, y^2, z^2)",
    "ring QQ[x,y]; core (x^2, x*y^2, y^3) with (x^2, y^3)",
    "ring QQ[x,y]; star-min-red (x^2, y^3) in (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; star-min-red (x^3, y^3) in (x^3, x^2*y, x*y^2, y^3) "
    "contains (x^2*y)",
    "ring QQ[x,y]; dim-igt (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; classify-reductions (x^2, x*y, y^2)",
    "ring QQ[x,y]; rrs certify (x^2*y) in (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; rrs verify (x^3*y^2) in (x^4, y^4)",
    "ring QQ[x,y]; rrs search (x^2 + x*y^3) in (x^2, y^4)",
    # searched certificates whose q = 1 solve leaves free unknowns
    "ring QQ[x,y]; rrs search (x^2*y^2) in (x^3, x*y^3, y^4)",
    "ring QQ[x,y]; rrs search (x^4*y^3) in (x^5, y^5)",
    # two-term h: the certificate systems fall into many blocks, few of
    # which carry the right-hand side
    "ring QQ[x,y]; rrs search (x^3*y^3 + x^2*y^4) in (x^4, y^4)",
    "ring QQ[x,y]; zz-check (x^2*y^2 + x^3*y) in (x^3, x*y^3, y^4)",
    # zz-check: via I_> and via the bounded search
    "ring QQ[x,y]; zz-check (x^2*y) in (x^2, x*y^2, y^3)",
    "ring QQ[x,y]; zz-check (x^2 + x*y^3) in (x^2, y^4)",
    "examples",
    # declared operands
    "ring QQ[x,y]; ideal I = (x^2, x*y^2, y^3); poly h = x^2*y - 3/2*x*y^2; "
    "vbar h in I; igt I",
    # a library error: Rees valuations need finite colength (exit 1)
    "ring QQ[x,y]; rees (x^2)",
]


def run_program(program):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(ARGS + ["-c", program])
    return {"program": program, "exit_code": code, "stdout": out.getvalue()}


def load_golden():
    return {entry["program"]: entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("program", PROGRAMS)
def test_report_matches_golden(program):
    assert run_program(program) == load_golden()[program]


def test_golden_covers_every_program():
    assert sorted(load_golden()) == sorted(PROGRAMS)


def plain_json(value):
    """True when json.dumps needs no `default` for the value: only dicts
    with string keys, lists, strings, numbers, booleans and None.  A record
    (a tuple subclass) would be written as an array without notice."""
    if type(value) is dict:
        return all(type(k) is str and plain_json(v) for k, v in value.items())
    if type(value) is list:
        return all(plain_json(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


def test_reports_hold_only_plain_json_values():
    for program in PROGRAMS:
        for req in parse(program):
            try:
                report = run(req, Options(seed=0, budget=100))
            except ClosureError:
                continue
            assert plain_json(report), program


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    entries = [run_program(p) for p in PROGRAMS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
