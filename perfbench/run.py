"""qverify benchmark: seeded CLI requests in a closed loop, one client, one process.

    python3 perfbench/run.py --workload dense-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; it benchmarks the qverify under ./src.
Each run generates its workload's circuit files from the seed, then
sends the workload's pass of requests to `qverify.cli.main(argv)` over
and over, each request after the previous one completes, until the
passes have taken --seconds.  Every output is checked outside the timed
region.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and the metrics: end-to-end ones with --trace 0,
per-layer ones with --trace 1 (see perfbench/README.md).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads: steady figures on a shared
# machine, and the same thread count on every commit measured.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many requests above it (never below p50)
CHILD_TIMEOUT_S = 600


def _import_qverify():
    if not (SRC / "qverify" / "__init__.py").is_file():
        sys.exit(f"error: no qverify sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy
    import qverify

    if Path(qverify.__file__).resolve().parent != SRC / "qverify":
        sys.exit(f"error: imported qverify from {qverify.__file__}, not from {SRC}")
    return numpy


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(numpy) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class BlackBoxCounter:
    """Counts Clifford black-box runs by wrapping CliffordBlackBox.run_and_measure."""

    def __init__(self, box_class):
        self.n = 0
        self._cls = box_class
        self._original = box_class.__dict__["run_and_measure"]
        original = self._original
        counter = self

        def run_and_measure(box, *args, **kwargs):
            counter.n += 1
            return original(box, *args, **kwargs)

        box_class.run_and_measure = run_and_measure

    def close(self) -> None:
        self._cls.run_and_measure = self._original


def black_box_uses(argv, stdout: str, clifford_rounds: int) -> int:
    """The paper's cost unit: protocol shots, pair tests x majority runs, Clifford rounds."""
    if argv[0] in ("swap-test", "conditional-test", "inverse-test"):
        return json.loads(stdout)["shots"]
    if argv[0] == "production-line":
        report = json.loads(stdout)
        return report["tests_per_batch"] * report["batches"]
    return clifford_rounds


class Runner:
    """Sends requests and checks their outputs."""

    def __init__(self, cli, checks, counter: BlackBoxCounter):
        self.cli = cli
        self.checks = checks
        self.counter = counter
        self.attempted = 0
        self.failures: list[str] = []

    def send(self, request) -> tuple[int | None, str, float, int]:
        """(exit code, stdout, seconds, black-box runs); code None and the error if it raised."""
        out, err = io.StringIO(), io.StringIO()
        runs_before = self.counter.n
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(request.argv))
        except Exception as exc:  # a crashing request is a failed one, not a crashed benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        text = out.getvalue() if code is not None else err.getvalue()
        return code, text, elapsed, self.counter.n - runs_before

    def verify(self, request, code, stdout: str, runs: int) -> tuple[bool, int]:
        """Check one output; (passed, black-box uses)."""
        self.attempted += 1
        if code is None:
            reason = f"raised {stdout}"
        else:
            reason = self.checks.check(request, code, stdout)
        if reason is not None:
            self.fail(request, reason)
            return False, 0
        return True, black_box_uses(request.argv, stdout, runs)

    def fail(self, request, reason: str) -> None:
        self.failures.append(f"{request.kind}: {reason}")


def run_pass(runner: Runner, plan, tracer=None):
    """One closed-loop pass over the plan: (wall seconds, per-request results)."""
    gc.collect()
    results = []
    start = time.perf_counter()
    for i, request in enumerate(plan.requests):
        if tracer is not None:
            tracer.request = i
            tracer.recording = True
        results.append(runner.send(request))
        if tracer is not None:
            tracer.recording = False
    return time.perf_counter() - start, results


class Passes:
    """What the timed passes measured, checked against the first pass."""

    def __init__(self, runner: Runner, plan):
        self.runner = runner
        self.plan = plan
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.digests: list[str] = []
        self.uses: list[int] = []  # black-box uses per request of the first pass

    def p50_by_kind(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        kinds = [r.kind for r in self.plan.requests] * len(self.walls)
        for kind, latency in zip(kinds, self.latencies):
            by_kind.setdefault(kind, []).append(latency)
        return {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())}

    def record(self, wall: float, results) -> int:
        """Check a pass's outputs (untimed); returns its report bytes."""
        self.walls.append(wall)
        first = not self.digests
        report_bytes = 0
        for i, (request, (code, text, elapsed, runs)) in enumerate(zip(self.plan.requests, results)):
            self.latencies.append(elapsed)
            report_bytes += len(text.encode())
            ok, n_uses = self.runner.verify(request, code, text, runs)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if first:
                self.digests.append(digest)
                self.uses.append(n_uses)
            elif ok and (digest, n_uses) != (self.digests[i], self.uses[i]):
                self.runner.fail(request, "output or black-box uses differ from the first pass")
        return report_bytes


def timed_passes(passes: Passes, seconds: float) -> None:
    """Whole passes until they have taken `seconds`."""
    while not passes.walls or sum(passes.walls) < seconds:
        passes.record(*run_pass(passes.runner, passes.plan))


def traced_passes(passes: Passes, seconds: float):
    """One untraced pass, then traced passes until they have taken `seconds`.

    Returns the per-pass layer metrics and the spans of the first traced pass.
    """
    import tracing

    passes.record(*run_pass(passes.runner, passes.plan))
    tracer = tracing.Tracer()
    tracer.install()
    per_pass, spans = [], None
    try:
        while len(passes.walls) < 2 or sum(passes.walls[1:]) < seconds:
            tracer.reset()
            report_bytes = passes.record(*run_pass(passes.runner, passes.plan, tracer))
            per_pass.append(tracer.pass_metrics(report_bytes))
            spans = spans or tracer.spans
    finally:
        tracer.uninstall()
    return per_pass, spans


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    numpy = _import_qverify()
    import checks
    import workloads
    from qverify import cli, cliffordtest

    import_s = time.perf_counter() - _T0
    counter = BlackBoxCounter(cliffordtest.CliffordBlackBox)
    runner = Runner(cli, checks, counter)
    workdir = BENCH / ".work" / f"{workload}-{seed}"
    try:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            plan = workloads.make_plan(workload, seed, workdir)
            code, text, _, runs = runner.send(plan.warmup)
            setup_runs.append(time.perf_counter() - start)
            runner.verify(plan.warmup, code, text, runs)

        passes = Passes(runner, plan)
        if traced:
            per_pass, spans = traced_passes(passes, seconds)
        else:
            timed_passes(passes, seconds)

        # The README promises byte-identical JSON for a fixed config and seed.
        code, text, _, runs = runner.send(plan.requests[0])
        if runner.verify(plan.requests[0], code, text, runs)[0]:
            if hashlib.sha256(text.encode()).hexdigest() != passes.digests[0]:
                runner.fail(plan.requests[0], "repeated request gave different bytes")
    finally:
        counter.close()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies, walls = passes.latencies, passes.walls
    n = len(latencies)
    tail_index = max(n // 2, n - 1 - TAIL_BEYOND)
    failed = len(runner.failures)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(numpy),
        "passes": len(walls),
        "pass_walls_s": walls,
        "requests_per_pass": len(plan.requests),
        "latency_samples": n,
        "latency_tail_percentile": 100.0 * (tail_index + 1) / n,
        "latency_p50_ms_by_kind": passes.p50_by_kind(),
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
    }
    if traced:
        import tracing

        layers, unsteady = tracing.combine_passes(per_pass)
        layers["trace.overhead_s"] = statistics.median(walls[1:]) - walls[0]
        result["unsteady_counters"] = unsteady
        result["correct"] = result["correct"] and not unsteady
        result["metrics"] = layers
        _write_spans(workload, seed, spans, result)
    else:
        result["metrics"] = {
            "setup_s": import_s + statistics.median(setup_runs),
            "throughput_rps": statistics.median(len(plan.requests) / w for w in walls),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * sorted(latencies)[tail_index],
            "bb_queries": sum(passes.uses),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / runner.attempted,
        }
    return result


def _write_spans(workload: str, seed: int, spans, result: dict) -> None:
    out = BENCH / ".out"
    out.mkdir(exist_ok=True)
    record = {
        "fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": spans,
        "metrics": result["metrics"],
        "environment": result["environment"],
    }
    with open(out / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as f:
        json.dump(record, f)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _units() -> dict[str, str]:
    spec = _spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def emit(result: dict) -> None:
    """Print the run record, one line per metric, then the result line."""
    units = _units()
    metrics = result.pop("metrics")
    summary = {k: result.pop(k) for k in ("correct", "attempted", "failed")}
    print(json.dumps(result, sort_keys=True))
    print(f"failed_frac {result['failed_frac']:.6g} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    summary["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps(summary))


def run_all(args, workloads: list[str]) -> None:
    """Each workload in a fresh process, so peak RSS and set-up time are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.exit(f"error: {workload} exited {child.returncode}: {child.stderr.strip()[-400:]}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = [w["name"] for w in _spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args, workloads)
    else:
        emit(measure(args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    main()
