"""Command-language parsing, report generation, and CLI behavior."""

import argparse
import json
import pathlib
import random

import pytest

from subintegral import (
    MonomialIdeal,
    ParseError,
    parse,
    parse_ideal_text,
    parse_poly_text,
    run_worked_examples,
)
from subintegral import cli
from subintegral.cli import Options, main, run
from subintegral.parser import COMMANDS
from subintegral.poly import SparsePoly, monomial_string
from subintegral.reductions import PolyIdeal

from oracles import bounded_facets_2d_sweep, random_monomial_ideal


class TestParser:
    def test_igt_program(self):
        reqs = parse("ring QQ[x,y]; ideal I = (x^2, x*y^2, y^3); igt I")
        assert len(reqs) == 1
        assert reqs[0].command == "igt"
        assert reqs[0].ideals[0] == MonomialIdeal(2, [(2, 0), (1, 2), (0, 3)])

    def test_vbar_with_inline_poly(self):
        reqs = parse("ring QQ[x,y]; ideal I = (x^2, y^2); vbar (x*y) in I")
        assert reqs[0].command == "vbar"
        assert reqs[0].polys[0] == SparsePoly.monomial((1, 1))

    def test_monomial_only_command_rejects_poly_ideal(self):
        with pytest.raises(ParseError):
            parse("ring QQ[x,y]; igt (x^2 + 1)")

    def test_hyphenated_commands(self):
        reqs = parse(
            "ring QQ[x,y]\nclassify-reductions (x^2, x*y, y^2)\ndim-igt (x, y)"
        )
        assert [r.command for r in reqs] == ["classify-reductions", "dim-igt"]

    def test_subtraction_still_parses(self):
        p = parse_poly_text("x^2-y", ("x", "y"))
        assert p == SparsePoly.monomial((2, 0)) - SparsePoly.monomial((0, 1))

    def test_rational_coefficients(self):
        from fractions import Fraction

        p = parse_poly_text("3/2*x - 1/3", ("x", "y"))
        assert p.coefficient((1, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 0)) == Fraction(-1, 3)

    def test_diagnostics_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse("ring QQ[x,y]; igt (x ? y)")
        assert info.value.line == 1

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly_text("x + z", ("x", "y"))

    def test_duplicate_ring_variable(self):
        with pytest.raises(ParseError):
            parse("ring QQ[x,x]; colength (x^2)")

    def test_command_before_ring(self):
        with pytest.raises(ParseError):
            parse("igt (x^2, y^2)")

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            parse("ring QQ[x,y]; frobnicate (x)")

    def test_round_trip_random_ideals(self):
        rng = random.Random(91)
        names = ("x", "y", "z")
        for _ in range(25):
            n = rng.choice([2, 3])
            I = random_monomial_ideal(rng, n, max_exp=5)
            text = I.to_string(names[:n])
            assert parse_ideal_text(text, names[:n]) == I

    def test_round_trip_random_polys(self):
        rng = random.Random(93)
        names = ("x", "y")
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exp = (rng.randint(0, 4), rng.randint(0, 4))
                terms[exp] = rng.choice([1, -1, 2, -3, 5])
            p = SparsePoly(2, terms)
            assert parse_poly_text(p.to_string(names), names) == p


RING = "ring QQ[x,y]; "

# (program, line, column) of a parse error, reported at the offending
# token: a polynomial ideal in a monomial slot at the operand's first token,
# a bad subcommand, keyword or operand at its own token.
PARSE_ERRORS = [
    (RING + "dim-igt (x^2+y, y^2)", 1, 23),
    (RING + "vbar (x*y) in (x^2 + y, y^2)", 1, 29),
    (RING + "reduction (x^2, y^2) in (x^2 + y, y^2)", 1, 39),
    (RING + "core (x^2 + y, y^2) with (x^2, y^2)", 1, 20),
    (RING + "core (x^2, y^2) with (x^2 + y, y^2)", 1, 36),
    (RING + "star-min-red (x^2, y^2) in (x^2 + y, y^2)", 1, 42),
    (RING + "rrs certify (x*y) in (x^2 + y, y^2)", 1, 36),
    (RING + "rrs prove (x*y) in (x^2, y^2)", 1, 19),
    (RING + "vbar (x) (x^2)", 1, 24),
    (RING + "core (x^2, y^2) (x^2, y^2)", 1, 31),
    (RING + "star-min-red (x^2, y^3) in (x^2, x*y^2, y^3) contains", 1, 68),
    (RING + "igt", 1, 18),
    ("rrs certify (x) in (x)", 1, 5),
    ("ring QQ[x,y]\n\nigt (x + y)\n", 3, 5),
    ("ring QQ[x,y]\nideal I = (x + y)\n  colength I", 3, 12),
    # inside a product: at the offending factor's token
    (RING + "vbar (x*1/0) in (x^2, y^2)", 1, 25),
    (RING + "vbar (2*x*z^2) in (x^2, y^2)", 1, 25),
    (RING + "vbar (x*y^y) in (x^2, y^2)", 1, 25),
    (RING + "vbar (x* - y) in (x^2, y^2)", 1, 24),
    (RING + "vbar (x*y +) in (x^2, y^2)", 1, 26),
    (RING + "igt (x^2, 3/x*y, y^3)", 1, 27),
    ("ring QQ[x,y]\npoly h = x*y - 2/3*x*q^2\nvbar h in (x^2, y^2)", 2, 22),
    # a digit that int() does not read is an unexpected character
    (RING + "vbar (x^\u00b2) in (x^2, y^2)", 1, 23),
    # a comment advances the column of the newline and of the end
    ("ring QQ[x,y]\nigt (x^2, y^2  # note\n", 2, 22),
]


class TestCommandOperands:
    @pytest.mark.parametrize("program, line, column", PARSE_ERRORS)
    def test_parse_error_position(self, program, line, column):
        with pytest.raises(ParseError) as info:
            parse(program)
        error = info.value
        assert (error.code, error.line, error.column) == ("parse", line, column)

    def test_star_min_red_contains_is_optional(self):
        program = RING + "star-min-red (x^2, y^3) in (x^2, x*y^2, y^3)"
        without, with_h = parse(program + "; " + program + " contains (x*y^2)")
        assert without.polys == []
        assert with_h.polys == [SparsePoly.monomial((1, 2))]
        assert len(without.ideals) == len(with_h.ideals) == 2

    def test_reduction_accepts_polynomial_j(self):
        (req,) = parse(RING + "reduction (x^2 + x*y, y^2) in (x^2, x*y, y^2)")
        J, I = req.ideals
        assert isinstance(J, PolyIdeal)
        assert I == MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])

    def test_readme_lists_every_command(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("### Commands", 1)[1].split("```")[1]
        names = {line.split()[0] for line in block.splitlines() if line[:1].strip()}
        assert names == set(COMMANDS)


class TestRun:
    def test_rees_report(self):
        req = parse("ring QQ[x,y]; rees (x^2, x*y^2, y^3)")[0]
        report = run(req)
        assert report["schema"] == 1
        assert report["result"] == [{"weight": [3, 2], "value": 6}]

    def test_igt_report_generators(self):
        req = parse("ring QQ[x,y]; igt (x^2, x*y^2, y^3)")[0]
        report = run(req)
        assert report["result"]["generators"] == ["x^3", "x^2*y", "x*y^2", "y^4"]

    def test_parameter_reduction_via_cli(self):
        req = parse("ring QQ[x,y]; reduction (x^2 + x*y, y^2) in (x^2, x*y, y^2)")[0]
        report = run(req)
        assert report["result"] == {"is_reduction": True, "method": "multiplicity"}

    def test_zz_check_end_to_end(self):
        req = parse("ring QQ[x,y]; zz-check (x^2*y) in (x^2, x*y^2, y^3)")[0]
        report = run(req)
        assert report["result"]["graph_on_deep_locus"] is True
        assert report["result"]["unique_deep_root"] is True
        assert report["result"]["degree"] == 5

    def test_classify_not_in_star_with_witness(self):
        req = parse("ring QQ[x,y]; classify (x*y) in (x^2, y^2)")[0]
        report = run(req)
        assert report["result"]["verdict"] == "NotInStar"
        assert report["witnesses"] == [
            {"first": ["t", "t"], "second": ["t", "-t"]}
        ]

    def test_classify_pipeline_orders(self):
        cases = {
            "classify (x^2) in (x^2, y^2)": "InIdeal",
            "classify (x^2*y) in (x^2, x*y^2, y^3)": "InIdeal",
            "classify (x) in (x^2, y^2)": "NotInIntegralClosure",
            # strictly above the facet but outside the ideal
            "classify (x^3*y^2) in (x^4, y^4)": "InStarViaIGreater",
            # generator plus an i_greater element: only the search sees it
            "classify (x^2 + x*y^3) in (x^2, y^4)": "CertifiedInStar",
        }
        for program, verdict in cases.items():
            req = parse("ring QQ[x,y]; " + program)[0]
            assert run(req)["result"]["verdict"] == verdict, program

    def test_relclose_witness_and_budget(self):
        req = parse("ring QQ[x,y]; relclose (x*y) in (x^2, y^2)")[0]
        report = run(req)
        assert report["result"]["witness"] is not None
        assert report["budget_used"] == 6

    def test_star_min_red_contains(self):
        req = parse(
            "ring QQ[x,y]; star-min-red (x^2, y^3) in (x^2, x*y^2, y^3) contains (x*y^2)"
        )[0]
        assert run(req)["result"]["contains"] is True

    def test_rrs_search_inconclusive(self):
        req = parse("ring QQ[x,y]; rrs search (x*y) in (x^2, y^2)")[0]
        report = run(req, Options(budget=3))
        assert report["inconclusive"] is True
        assert report["result"] == {"found": False}


class TestMainEntry:
    def test_json_deterministic(self, capsys):
        program = "ring QQ[x,y]; classify (x*y) in (x^2, y^2)"
        assert main(["--json", "-c", program]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "-c", program]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["result"]["verdict"] == "NotInStar"

    def test_one_argument_parser_for_many_calls(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._argument_parser.cache_clear()
        try:
            for program in ("ring QQ[x,y]; igt (x^2, y^2)", "igt igt igt"):
                main(["--json", "-c", program])
                main(["-c", program, "--seed", "3"])
        finally:
            cli._argument_parser.cache_clear()
        assert len(built) <= 1

    def test_parse_error_exit_code(self, capsys):
        assert main(["-c", "igt igt igt"]) == 1

    @pytest.mark.parametrize(
        "program",
        [
            "ring QQ[x,y]; ord (x^4*y^2) in (x^2, x*y, y^2)",
            "ring QQ[x,y]; rrs search (x*y) in (x^2, y^2)",
            "ring QQ[x,y]; relclose (x*y) in (x^2, y^2)",
        ],
    )
    @pytest.mark.parametrize("budget", ["-5", "0", "two"])
    def test_budget_below_one_is_a_usage_error(self, capsys, program, budget):
        with pytest.raises(SystemExit) as exc:
            main(["-c", program, "--budget", budget])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget: must be an integer >= 1" in captured.err
        assert "Traceback" not in captured.err

    def test_budget_one_is_the_cap(self, capsys):
        assert main(["--json", "-c", "ring QQ[x,y]; ord (x^4*y^2) in (x^2, x*y, y^2)",
                     "--budget", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == {"cap": 1, "order": 1}

    def test_usage_error_exit_code(self, capsys):
        # 2 is reserved for inconclusive results.
        with pytest.raises(SystemExit) as exc:
            main(["--no-such-flag", "-c", "ring QQ[x,y]; igt (x^2, y^2)"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_inconclusive_exit_code(self, capsys):
        assert main(["-c", "ring QQ[x,y]; rrs search (x*y) in (x^2, y^2)", "--budget", "2"]) == 2

    def test_library_error_reported(self, capsys):
        # Rees valuations of a non-finite-colength ideal: unsupported input.
        assert main(["--json", "-c", "ring QQ[x,y]; rees (x^2)"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["code"] == "unsupported-input"

    def test_classify_i_greater_verdict_past_certificate_budget(self, capsys):
        # x^30*y^2 lies in I_> of (x^31, y^31), but its least certificate
        # window is q = 46, past classify's q <= 32: the verdict stands alone.
        program = "ring QQ[x,y]; classify (x^30*y^2) in (x^31, y^31)"
        assert main(["--json", "-c", program]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == {"verdict": "InStarViaIGreater"}
        assert "certificates" not in payload and "error" not in payload

    def test_rrs_certify_keeps_its_budget_error(self, capsys):
        program = "ring QQ[x,y]; rrs certify (x^30*y^2) in (x^31, y^31)"
        assert main(["--json", "-c", program]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "budget"
        assert main(["--json", "--budget", "46", "-c", program]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["q"] == 46 and result["verified"] is True

    def test_large_axis_degrees(self, capsys):
        """iclose and igt of (x^1000, x*y, y^1000) against the staircase of
        the hull sweep's facets: per x-exponent i the least y-exponent j with
        <w, (i, j)> >= v + slack on every facet, kept where it drops."""
        gens = [(1000, 0), (1, 1), (0, 1000)]
        facets = bounded_facets_2d_sweep(gens)

        def staircase(slack):
            corners, prev = [], None
            for i in range(1000 + slack + 1):
                j = max(0, *(-((w[0] * i - v - slack) // w[1]) for w, v in facets))
                if prev is None or j < prev:
                    corners.append((i, j))
                prev = j
            return [monomial_string(g, ("x", "y")) for g in sorted(corners, reverse=True)]

        program = "ring QQ[x,y]; ideal I = (x^1000, x*y, y^1000); iclose I; igt I"
        assert main(["--json", "-c", program]) == 0
        iclose, igt = json.loads(capsys.readouterr().out)
        assert iclose["result"]["generators"] == ["x^1000", "x*y", "y^1000"]
        assert iclose["result"]["generators"] == staircase(0)
        assert igt["result"]["generators"] == staircase(1)

    def test_file_input(self, tmp_path, capsys):
        script = tmp_path / "program.txt"
        script.write_text(
            "ring QQ[x,y]\nideal I = (x^2, x*y, y^2)\nclassify-reductions I\n"
        )
        assert main([str(script)]) == 0
        out = capsys.readouterr().out
        assert "IntersectionIsIGreater" in out

    @pytest.mark.parametrize("content", [None, b"ring QQ[x,y]; iclose (x^2, y^2)\xff\n"])
    def test_unreadable_file_is_an_io_error(self, tmp_path, capsys, content):
        # A missing file, and a file that is not UTF-8 text.
        script = tmp_path / "program.txt"
        if content is not None:
            script.write_bytes(content)
        assert main([str(script)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[io]: ")
        assert "Traceback" not in captured.err


class TestWorkedExamples:
    def test_fresh_build_is_green(self):
        report = run_worked_examples()
        assert report.ok, report.diffs

    def test_perturbed_expectations_diff(self, tmp_path):
        import importlib.resources as resources

        data = json.loads(
            resources.files("subintegral")
            .joinpath("data/worked_examples.json")
            .read_text()
        )
        data["examples"][0]["expect"]["dim_i_mod_igt"] = 3
        path = tmp_path / "expect.json"
        path.write_text(json.dumps(data))
        report = run_worked_examples(str(path))
        assert not report.ok
        assert any("dim_i_mod_igt" in d for d in report.diffs)

    def test_examples_cli_green(self, capsys):
        assert main(["--json", "-c", "examples"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["passed"] is True

    def test_examples_output_byte_identical(self, capsys):
        assert main(["--json", "-c", "examples"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "-c", "examples"]) == 0
        assert capsys.readouterr().out == first
