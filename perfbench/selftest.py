"""Tests of the benchmark itself: python3 -m pytest -q perfbench/selftest.py"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from qverify import cli  # noqa: E402


def _run_bench(*args: str) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), *args]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    result = _run_bench("--workload", "find-error", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def _send(request) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(request.argv))
    return code, out.getvalue()


def _first(plan, kind_prefix: str):
    return next(r for r in plan.requests if r.kind.startswith(kind_prefix))


def _doctored(stdout: str, **changes) -> str:
    report = json.loads(stdout)
    report.update(changes)
    return json.dumps(report)


@pytest.fixture(scope="module")
def dense_plan(tmp_path_factory):
    return workloads.make_plan("dense-mix", 5, tmp_path_factory.mktemp("dense"))


@pytest.mark.parametrize(
    "kind, code, changes",
    [
        ("swap-test-n6-eq", 0, {"ones_observed": 3, "verdict": "different"}),
        ("swap-test-n6-eq", 1, {}),
        ("distance-n4-eq", 0, {"verdict": "different"}),
        ("distance-n4-diff", 1, {"worst_distance": 0.5}),
        ("distance-n4-diff", 0, {"verdict": "equal"}),
        ("inverse-test-n4-diff", 1, {"analytic_p": 0.01}),
        ("conditional-test-n6-diff", 0, {"ones_observed": 0, "verdict": "equal"}),
    ],
)
def test_check_rejects_doctored_dense_report(dense_plan, kind, code, changes):
    request = _first(dense_plan, kind)
    real_code, stdout = _send(request)
    assert checks.check(request, real_code, stdout) is None
    assert checks.check(request, code, _doctored(stdout, **changes)) is not None


def test_check_rejects_doctored_clifford_and_finder_reports(tmp_path):
    plan = workloads.make_plan("clifford-verify", 5, tmp_path / "c")
    equal = _first(plan, "clifford-test-n2-eq")
    code, stdout = _send(equal)
    assert code == 0 and checks.check(equal, code, stdout) is None
    runs = json.loads(stdout)["runs"]
    runs[0]["outcome"] = -runs[0]["eigenvalue"]
    assert checks.check(equal, 0, _doctored(stdout, runs=runs, rejections=1)) is not None
    assert checks.check(equal, 1, _doctored(stdout, verdict="different")) is not None
    assert checks.check(equal, 0, _doctored(stdout, runs=runs[1:])) is not None

    plan = workloads.make_plan("find-error", 5, tmp_path / "f")
    single = _first(plan, "find-error-s50-1fault")
    code, stdout = _send(single)
    assert code == 1 and checks.check(single, code, stdout) is None
    u_text = Path(single.argv[single.argv.index("--u") + 1]).read_text()
    assert checks.check(single, 1, _doctored(stdout, candidate=u_text)) is not None
    assert checks.check(single, 1, _doctored(stdout, found=False)) is not None


def test_check_rejects_doctored_production_report(tmp_path):
    plan = workloads.make_plan("production-line", 5, tmp_path)
    request = min(plan.requests, key=lambda r: int(r.argv[r.argv.index("--batches") + 1]))
    code, stdout = _send(request)
    assert checks.check(request, code, stdout) is None
    report = json.loads(stdout)
    assert checks.check(request, code, _doctored(stdout, kept_total=report["kept_total"] + 1)) is not None
    assert checks.check(request, code, _doctored(stdout, post_rate=0.02)) is not None
    assert checks.check(request, code, _doctored(stdout, tests_per_batch=55)) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    def snapshot(seed: int, where: Path):
        plan = workloads.make_plan(workload, seed, where)
        files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
        kinds = [r.kind for r in plan.requests]
        argv = [[a.replace(str(where), "<dir>") for a in r.argv] for r in plan.requests]
        return files, kinds, argv

    first = snapshot(7, tmp_path / "a")
    assert snapshot(7, tmp_path / "b") == first
    assert snapshot(8, tmp_path / "c") != first
