"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run the benchmark on small inputs, plant wrong answers in real reports
to show that every check rejects them, and repeat a traced run to show that
its counts are exact.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from subintegral import cli  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_one_round_of_each_workload(workload):
    queries = workloads.ROUNDS[workload](3)
    out = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.1"))
    faults = sum(1 for q in queries if q.family.startswith("fault/"))
    assert out["correct"] is True
    assert out["attempted"] == len(queries)
    assert out["failed"] == faults
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_rounds_depend_only_on_the_seed():
    for make_round in workloads.ROUNDS.values():
        assert make_round(5) == make_round(5)
        assert make_round(5) != make_round(6)


def test_traced_counts_repeat_exactly():
    runs = [
        result_of(bench("--workload", "refute", "--seed", "2", "--seconds", "0.1", "--trace", "1"))
        for _ in range(2)
    ]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "ratio")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["arcs.module.cache_hits"] > 0
    assert counts[0]["arcs.module.cache_misses"] > 0
    assert counts[0]["arcs.witnesses"] == workloads.REFUTE_BOUNDARY


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "refute", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- every check rejects a planted wrong answer ------------------------------------


def answer(query):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(query.argv())
    return code, json.loads(buf.getvalue())


def first(family, workload):
    return next(q for q in workloads.ROUNDS[workload](1) if q.family == family)


def planted(family, workload, plant):
    """The check passes the real answer and rejects the planted one."""
    query = first(family, workload)
    code, report = answer(query)
    assert workloads.check(query, code, json.dumps(report)) is None
    plant(report)
    return workloads.check(query, code, json.dumps(report))


def test_staircase_checks_reject_wrong_answers():
    assert planted("iclose", "staircase", lambda r: r["result"]["generators"].pop(1))
    assert planted("igt", "staircase", lambda r: r["result"]["generators"].pop(1))
    assert planted("colength", "staircase", lambda r: r["result"].update(value=r["result"]["value"] + 1))
    assert planted("dim-igt/coprime", "staircase", lambda r: r["result"].update(value=4))
    assert planted("dim-igt/equal", "staircase", lambda r: r["result"].update(value=2))
    assert planted("multiplicity", "staircase", lambda r: r["result"].update(value=r["result"]["value"] - 1))


def test_refute_checks_reject_wrong_answers():
    # A pair that does not separate: the all-t arc twice.
    idle = {"first": ["t", "t"], "second": ["t", "t"]}
    assert planted("relclose/boundary", "refute", lambda r: r["result"].update(witness=idle))
    assert planted("relclose/boundary", "refute", lambda r: r["result"].update(witness=None))
    # A member of I + I_> must never be refuted.
    splitting = {"first": ["t", "t"], "second": ["t", "-t"]}
    assert planted("relclose/shared", "refute", lambda r: r["result"].update(witness=splitting))
    assert planted("relclose/fresh", "refute", lambda r: r.update(budget_used=3))


def _negated_h(report):
    return "-" + report["inputs"]["polys"][0] if not report["inputs"]["polys"][0].startswith("-") \
        else report["inputs"]["polys"][0][1:]


def test_classify_checks_reject_wrong_answers():
    def bad_coefficient(r):
        cert = r["certificates"][0]
        cert["coefficients"][-1] = cert["coefficients"][-1] + " + x"
    assert planted("classify/igt", "classify", bad_coefficient)
    assert planted("rrs-verify", "classify", bad_coefficient)
    assert planted("rrs-search", "classify", bad_coefficient)

    def cheap_certificate(r):
        # a_1 = -h satisfies the window identity at q = 0 but is not in I.
        r["certificates"] = [{"q": 0, "coefficients": [_negated_h(r)]}]
        r["result"]["q"] = 0
    assert planted("classify/certified", "classify", cheap_certificate)
    assert planted("classify/refuted", "classify",
                   lambda r: r["result"].update(verdict="CertifiedInStar", q=1))
    assert planted("classify/igt", "classify", lambda r: r["result"].update(verdict="Unknown"))
    assert planted("rrs-search", "classify", lambda r: r["result"].update(found=False))
    assert planted("zz-check", "classify", lambda r: r["result"].update(unique_deep_root=False))
    assert planted("zz-check", "classify", lambda r: r["result"].update(degree=5))


def test_named_faults_fail():
    unknown = workloads.CLASSIFY_FAULTS[0]
    code, report = answer(unknown)
    assert report["result"]["verdict"] == "Unknown"
    assert "NotInStar" in workloads.check(unknown, code, json.dumps(report))
