"""Command-line front door.

Subcommands: distance, swap-test, conditional-test, inverse-test,
production-line, clifford-test, find-error, fidelity-bound.  Reports
are emitted as JSON (--json) or a short text summary; either way the
seed and every analytic probability used for sampling are included,
so results are auditable and byte-reproducible for a fixed config.

Exit codes: 0 = verdict equal (or bound holds), 1 = verdict different
(or bound violated), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .circuit_format import emit_circuit, load_circuit
from .cliffordtest import (
    CliffordBlackBox,
    entanglement_fidelity_clifford,
    equivalence_verdict,
    find_error,
    one_qubit_clifford_circuits,
)
from .clifford import random_clifford_circuit, tableau_equal, tableau_from_circuit
from .core import DEFAULT_QUBIT_CAP, Circuit, Gate, GateKind, window
from .errors import CandidateNotFound, QverifyError
from .metrics import detection_probabilities, theorem1
from .pipeline import FactoryModel, simulate_production
from .protocols import (
    ALL_CAPABILITIES,
    BlackBoxUnitary,
    run_conditional_test,
    run_inverse_test,
    run_swap_test,
)
from .seeding import rng_from_seed


def _base_report(args: argparse.Namespace) -> dict:
    return {
        "report_version": 1,
        "tool": "qverify",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
    }


def _protocol_report(outcome) -> dict:
    return {
        "protocol": outcome.protocol,
        "shots": outcome.shots,
        "ones_observed": outcome.ones_observed,
        "analytic_p": outcome.analytic_p,
        "verdict": outcome.verdict,
    }


def _cmd_distance(args: argparse.Namespace) -> tuple[int, dict]:
    u = load_circuit(args.u)
    report = detection_probabilities(*window(u, load_circuit(args.ut), cap=args.cap))
    lhs, rhs, holds = theorem1(report, u.n_qubits)
    # metrics snaps D below 1e-12 to exactly 0, and equal pairs land there.
    verdict = "equal" if report.avg_distance == 0.0 else "different"
    out = _base_report(args)
    out.update(
        {
            "n": u.n_qubits,
            "trace_overlap": {"re": report.trace_overlap.real, "im": report.trace_overlap.imag},
            "avg_distance": report.avg_distance,
            "worst_distance": report.worst_distance,
            "ent_fidelity": report.ent_fidelity,
            "p_swap": report.p_swap,
            "p_conditional": report.p_conditional,
            "theorem1": {"lhs": lhs, "rhs": rhs, "holds": holds},
            "verdict": verdict,
        }
    )
    return (0 if verdict == "equal" else 1), out


def _cmd_protocol(args: argparse.Namespace) -> tuple[int, dict]:
    u_circ = load_circuit(args.u)
    ut_circ = load_circuit(args.ut)
    if args.command == "swap-test":
        u = BlackBoxUnitary(u_circ)
        ut = BlackBoxUnitary(ut_circ)
        outcome = run_swap_test(u, ut, args.shots, args.seed, cap=args.cap)
    elif args.command == "conditional-test":
        u = BlackBoxUnitary(u_circ, ALL_CAPABILITIES)
        ut = BlackBoxUnitary(ut_circ, ALL_CAPABILITIES)
        outcome = run_conditional_test(u, ut, args.shots, args.seed, cap=args.cap)
    else:
        ut = BlackBoxUnitary(ut_circ)
        outcome = run_inverse_test(u_circ, ut, args.shots, args.seed, cap=args.cap)
    out = _base_report(args)
    out.update(_protocol_report(outcome))
    return (0 if outcome.verdict == "equal" else 1), out


_FAULT_ALPHABET = (
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.SDG,
    GateKind.T,
    GateKind.I,
)

# CNOT with the roles of its two listed targets exchanged, expressed in
# the original target order (replacements must keep that order).
_REVERSED_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def _replacements(ideal: Circuit) -> list[tuple[int, Gate]]:
    """Every single-gate replacement of `ideal` the fault model allows.

    Each named one-qubit gate may become any other alphabet gate and a
    CNOT its reversal; CUSTOM gates are left alone.
    """
    options = []
    for pos, g in enumerate(ideal.gates):
        if g.kind is GateKind.CNOT:
            options.append((pos, Gate(GateKind.CUSTOM, g.targets, _REVERSED_CNOT)))
        elif g.kind is not GateKind.CUSTOM:
            options += [(pos, Gate(k, g.targets)) for k in _FAULT_ALPHABET if k is not g.kind]
    return options


def _cmd_production_line(args: argparse.Namespace) -> tuple[int, dict]:
    ideal = load_circuit(args.ideal)
    factory = FactoryModel(ideal, args.fault_prob, _replacements(ideal), args.eps)
    summary = simulate_production(
        factory, args.batch, args.batches, args.delta, args.seed, cap=args.cap
    )
    out = _base_report(args)
    out.update(
        {
            "pre_rate": summary.pre_rate,
            "post_rate": summary.post_rate,
            "tests_per_batch": summary.tests_per_batch,
            "batches": summary.batches,
            "kept_total": summary.kept_total,
            "discarded_total": summary.discarded_total,
            "overfull_rate": summary.overfull_rate,
            "bound": summary.bound,
            "fault_options": len(factory.faults),
        }
    )
    return 0, out


def _run_to_dict(run) -> dict:
    return {
        "pauli": str(run.pauli),
        "conjugated": str(run.conjugated),
        "eigenvalue": run.eigenvalue,
        "outcome": run.outcome,
    }


def _cmd_clifford_test(args: argparse.Namespace) -> tuple[int, dict]:
    u = load_circuit(args.u)
    ut = CliffordBlackBox(load_circuit(args.ut))
    report = equivalence_verdict(u, ut, args.runs, args.seed)
    out = _base_report(args)
    out.update(
        {
            "runs": [_run_to_dict(r) for r in report.runs],
            "rejections": sum(r.rejected for r in report.runs),
            "per_run_detection_estimate": report.per_run_detection_estimate,
            "verdict": report.verdict,
        }
    )
    return (0 if report.verdict == "equal" else 1), out


def _cmd_find_error(args: argparse.Namespace) -> tuple[int, dict]:
    u = load_circuit(args.u)
    ut = CliffordBlackBox(load_circuit(args.ut))
    out = _base_report(args)
    try:
        candidate = find_error(u, ut, args.depth, args.runs_per_candidate, args.seed)
    except CandidateNotFound as exc:
        out.update({"found": False, "detail": str(exc), "verdict": "different"})
        return 1, out
    same_as_u = tableau_equal(tableau_from_circuit(candidate), tableau_from_circuit(u))
    out.update(
        {
            "found": True,
            "candidate": emit_circuit(candidate),
            "candidate_equals_u": same_as_u,
            "verdict": "equal" if same_as_u else "different",
        }
    )
    return (0 if same_as_u else 1), out


def _cmd_fidelity_bound(args: argparse.Namespace) -> tuple[int, dict]:
    pairs = 0
    max_fidelity = 0.0
    if args.exhaustive:
        if args.n != 1:
            raise QverifyError("--exhaustive supports --n 1 only")
        circuits = one_qubit_clifford_circuits()
        tableaux = [tableau_from_circuit(c) for c in circuits]
        for i, ti in enumerate(tableaux):
            for j, tj in enumerate(tableaux):
                if i == j:
                    continue
                pairs += 1
                max_fidelity = max(max_fidelity, entanglement_fidelity_clifford(ti, tj))
    else:
        for i in range(args.runs):
            rng = rng_from_seed(args.seed, i)
            a = tableau_from_circuit(random_clifford_circuit(args.n, 30, rng))
            b = tableau_from_circuit(random_clifford_circuit(args.n, 30, rng))
            if tableau_equal(a, b):
                continue
            pairs += 1
            max_fidelity = max(max_fidelity, entanglement_fidelity_clifford(a, b))
    holds = max_fidelity <= 0.5 + 1e-12
    out = _base_report(args)
    out.update(
        {
            "n": args.n,
            "pairs_checked": pairs,
            "max_fidelity": max_fidelity,
            "bound": 0.5,
            "bound_holds": holds,
        }
    )
    return (0 if holds else 1), out


_COMMANDS = {
    "distance": _cmd_distance,
    "swap-test": _cmd_protocol,
    "conditional-test": _cmd_protocol,
    "inverse-test": _cmd_protocol,
    "production-line": _cmd_production_line,
    "clifford-test": _cmd_clifford_test,
    "find-error": _cmd_find_error,
    "fidelity-bound": _cmd_fidelity_bound,
}


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as one `error:` line, without the usage block."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _checked(convert, accept, requirement: str):
    """An argparse type: `convert` the text, then insist on `accept`."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_NON_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
# numpy's binomial draw takes its count as an int64.
_SHOTS = _checked(int, lambda v: 0 <= v <= 2**63 - 1, "in [0, 2**63 - 1]")
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_ODD_BATCH = _checked(int, lambda v: v >= 1 and v % 2 == 1, "odd and >= 1")
_OPEN_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
# Dmax <= 1, and eps <= 0 would admit every replacement.
_DISTANCE = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qverify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, circuits=True, dense=False):
        if circuits:
            p.add_argument("--u", required=True, help="circuit file for U")
            p.add_argument("--ut", required=True, help="circuit file for Ut")
        p.add_argument("--seed", type=_NON_NEGATIVE, help="default: $QVERIFY_SEED, else 0")
        if dense:
            p.add_argument(
                "--cap", type=_COUNT, default=DEFAULT_QUBIT_CAP,
                help="max qubits of a dense unitary: the window, or production-line's circuit",
            )
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("distance", help="exact distances and detection probabilities")
    common(p, dense=True)
    for name in ("swap-test", "conditional-test", "inverse-test"):
        p = sub.add_parser(name, help=f"sampled {name.replace('-', ' ')}")
        common(p, dense=True)
        p.add_argument("--shots", type=_SHOTS, default=1000)

    p = sub.add_parser("production-line", help="winnow a simulated production line")
    p.add_argument("--ideal", required=True, help="ideal circuit file")
    p.add_argument("--fault-prob", type=float, default=0.1)
    p.add_argument("--eps", type=_DISTANCE, default=0.5)
    p.add_argument("--batch", type=_ODD_BATCH, default=11)
    p.add_argument("--batches", type=_COUNT, default=1000)
    p.add_argument("--delta", type=_OPEN_UNIT, default=1e-4)
    common(p, circuits=False, dense=True)

    p = sub.add_parser("clifford-test", help="randomized Clifford equality test")
    common(p)
    p.add_argument("--runs", type=_COUNT, default=60)

    p = sub.add_parser("find-error", help="locate a gate-level difference")
    common(p)
    p.add_argument("--depth", type=int, choices=(1, 2), default=1)
    p.add_argument("--runs-per-candidate", type=_COUNT, default=40)

    p = sub.add_parser("fidelity-bound", help="check the Clifford fidelity bound")
    common(p, circuits=False)
    p.add_argument("--n", type=_COUNT, default=1)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--runs", type=_COUNT, default=200)

    return parser


def _text_summary(report: dict) -> str:
    lines = [f"{report['command']} (seed {report['seed']})"]
    for key in sorted(report):
        if key in ("report_version", "tool", "version", "command", "seed", "runs"):
            continue
        lines.append(f"  {key}: {report[key]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.seed is None:  # read on every call: the parser outlives the environment
        try:
            args.seed = _NON_NEGATIVE(os.environ.get("QVERIFY_SEED", "0"))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: argument --seed: {exc}", file=sys.stderr)
            return 2
    try:
        code, report = _COMMANDS[args.command](args)
    except (QverifyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # Python's own MemoryError has no message
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_text_summary(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
