"""Spans and counters around qverify's public functions, from outside src/.

`Tracer.install()` replaces each traced function, in every qverify
module that holds it, by a wrapper that records a span
[name, start, end, parent index, request id] while `recording` is
set.  Counters are taken in the same wrappers, from the call's
arguments and result.  `pass_metrics()` turns the spans and counters
of one pass into the per-layer metrics; a span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from qverify import circuit_format, cliffordtest, pipeline

# (module, function, span name): module-level functions, patched by identity.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("circuit_format", "parse_circuit", "circuit_format.parse"),
    ("core", "circuit_unitary", "core.circuit_unitary"),
    ("metrics", "trace_overlap", "metrics.trace_overlap"),
    ("metrics", "worst_distance", "metrics.worst_distance"),
    ("protocols", "run_swap_test", "protocols.test"),
    ("protocols", "run_conditional_test", "protocols.test"),
    ("protocols", "run_inverse_test", "protocols.test"),
    ("pipeline", "simulate_production", "pipeline.simulate_production"),
    ("pipeline", "winnow_batch", "pipeline.winnow_batch"),
    ("clifford", "tableau_dagger", "clifford.tableau_dagger"),
    ("clifford", "tableau_from_circuit", "clifford.tableau_from_circuit"),
    ("clifford", "conjugate_pauli", "clifford.conjugate_pauli"),
    ("cliffordtest", "equivalence_verdict", "cliffordtest.equivalence_verdict"),
    ("cliffordtest", "find_error", "cliffordtest.find_error"),
    ("cliffordtest", "run_test_once", "cliffordtest.round"),
    ("cliffordtest", "prepare_input", "cliffordtest.prepare_input"),
    ("seeding", "rng_from_seed", "seeding.rng_from_seed"),
)

# (class, method, span name)
METHODS = (
    (pipeline.FactoryModel, "__post_init__", "pipeline.factory_check"),
    (pipeline.SwapShotTester, "shot_probability", "pipeline.shot_probability"),
    (cliffordtest.CliffordBlackBox, "run_and_measure", "cliffordtest.bb_measure"),
)

_TABLEAU_SPANS = ("clifford.tableau_dagger", "clifford.tableau_from_circuit")

# Per-layer metrics that count work; they must repeat exactly for a seed.
COUNTERS = (
    "core.circuit_unitary_calls",
    "core.dense_gate_applications",
    "metrics.worst_distance_calls",
    "protocols.shots",
    "pipeline.shot_probability_calls",
    "pipeline.pair_tests",
    "pipeline.unitary_builds",
    "pipeline.distinct_circuits",
    "pipeline.unitary_builds_per_distinct_circuit",
    "circuit_format.gates_parsed",
    "cli.report_bytes",
    "clifford.tableau_builds",
    "clifford.tableau_gate_steps",
    "clifford.conjugations",
    "cliffordtest.rounds",
    "seeding.rng_from_seed_calls",
    "cliffordtest.candidates_tried",
    "cliffordtest.candidate_rounds",
    "cliffordtest.rounds_per_candidate",
    "trace.spans",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.recording = False
        self._built_texts: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "circuit_format.parse": self._on_parse,
            "core.circuit_unitary": self._on_unitary,
            "protocols.test": self._on_protocol,
            "pipeline.simulate_production": self._on_production,
            "pipeline.winnow_batch": self._on_winnow,
            "clifford.tableau_from_circuit": self._on_tableau,
        }
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("qverify.")]
        for module_name, attr, span_name in FUNCTIONS:
            fn = getattr(sys.modules[f"qverify.{module_name}"], attr)
            wrapper = self._wrap(span_name, fn, hooks.get(span_name))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, name, fn))
                        setattr(m, name, wrapper)
        for cls, attr, span_name in METHODS:
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(span_name, fn, None))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _wrap(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    # -- counters taken at the span boundaries ------------------------------

    def _on_parse(self, span, args, circuit):
        self.counts["circuit_format.gates_parsed"] += circuit.n_gates

    def _on_unitary(self, span, args, result):
        circuit = args[0]
        self.counts["core.dense_gate_applications"] += circuit.n_gates
        parent = span[3]
        if parent >= 0 and self.spans[parent][0] == "pipeline.shot_probability":
            self.counts["pipeline.unitary_builds"] += 1
            self._built_texts.add(circuit_format.emit_circuit(circuit))

    def _on_protocol(self, span, args, outcome):
        self.counts["protocols.shots"] += outcome.shots

    def _on_production(self, span, args, summary):
        # Distinct circuits are counted per request: the tester's cache lives that long.
        self.counts["pipeline.distinct_circuits"] += len(self._built_texts)
        self._built_texts.clear()

    def _on_winnow(self, span, args, result):
        n = len(args[0])
        self.counts["pipeline.pair_tests"] += n * (n - 1) // 2

    def _on_tableau(self, span, args, tableau):
        self.counts["clifford.tableau_gate_steps"] += args[0].n_gates

    # -- per-pass metrics ---------------------------------------------------

    def pass_metrics(self, report_bytes: int) -> dict[str, float]:
        spans = self.spans
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        tableau_outer = 0.0
        under_finder: Counter = Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            total[name] += dur
            self_time[name] += dur - child[i]
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if name in _TABLEAU_SPANS and parent_name not in _TABLEAU_SPANS:
                tableau_outer += dur
            if parent_name == "cliffordtest.find_error":
                under_finder[name] += 1
        c = self.counts
        candidates = under_finder["clifford.tableau_dagger"]
        candidate_rounds = under_finder["cliffordtest.round"]
        builds, distinct = c["pipeline.unitary_builds"], c["pipeline.distinct_circuits"]
        return {
            "core.circuit_unitary_s": total["core.circuit_unitary"],
            "core.circuit_unitary_calls": calls["core.circuit_unitary"],
            "core.dense_gate_applications": c["core.dense_gate_applications"],
            "metrics.worst_distance_s": total["metrics.worst_distance"],
            "metrics.worst_distance_calls": calls["metrics.worst_distance"],
            "metrics.trace_overlap_s": total["metrics.trace_overlap"],
            "protocols.test_s": total["protocols.test"],
            "protocols.shots": c["protocols.shots"],
            "pipeline.simulate_production_s": total["pipeline.simulate_production"],
            "pipeline.winnow_batch_s": total["pipeline.winnow_batch"],
            "pipeline.factory_check_s": total["pipeline.factory_check"],
            "pipeline.shot_probability_s": total["pipeline.shot_probability"],
            "pipeline.shot_probability_calls": calls["pipeline.shot_probability"],
            "pipeline.pair_tests": c["pipeline.pair_tests"],
            "pipeline.unitary_builds": builds,
            "pipeline.distinct_circuits": distinct,
            "pipeline.unitary_builds_per_distinct_circuit": builds / distinct if distinct else 0.0,
            "circuit_format.parse_s": total["circuit_format.parse"],
            "circuit_format.gates_parsed": c["circuit_format.gates_parsed"],
            "cli.self_s": self_time["cli.main"],
            "cli.report_bytes": report_bytes,
            "clifford.tableau_build_s": tableau_outer,
            "clifford.tableau_builds": calls["clifford.tableau_from_circuit"],
            "clifford.tableau_gate_steps": c["clifford.tableau_gate_steps"],
            "clifford.conjugate_s": total["clifford.conjugate_pauli"],
            "clifford.conjugations": calls["clifford.conjugate_pauli"],
            "cliffordtest.rounds": calls["cliffordtest.round"],
            "cliffordtest.round_self_s": self_time["cliffordtest.round"],
            "cliffordtest.prepare_input_s": total["cliffordtest.prepare_input"],
            "cliffordtest.bb_measure_s": total["cliffordtest.bb_measure"],
            "seeding.rng_from_seed_s": total["seeding.rng_from_seed"],
            "seeding.rng_from_seed_calls": calls["seeding.rng_from_seed"],
            "cliffordtest.candidates_tried": candidates,
            "cliffordtest.candidate_rounds": candidate_rounds,
            "cliffordtest.rounds_per_candidate": candidate_rounds / candidates if candidates else 0.0,
            "trace.spans": len(spans),
        }


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counters of the first pass and the median of each time over all passes.

    Also returns the counters that differ between passes, which must be none:
    every pass sends the same requests with the same seeds.
    """
    first = per_pass[0]
    unsteady = [k for k in COUNTERS if any(p[k] != first[k] for p in per_pass[1:])]
    combined = {
        k: (v if k in COUNTERS else statistics.median(p[k] for p in per_pass))
        for k, v in first.items()
    }
    return combined, unsteady
