"""Output checks: does a request's exit code and JSON report say what it must?

`check(request, code, stdout)` returns None when the output is right
and a one-line reason when it is not.  The expected values come from
the plan (workloads.py), which knows how each input was built; they
are never read back from the program under test.
"""

from __future__ import annotations

import json
import math

from qverify import parse_circuit, tableau_equal, tableau_from_circuit
from qverify.errors import QverifyError

# Distances come out of 2^n-dimensional products and eigensolves, the
# expectations out of 2^k-dimensional ones; both carry rounding only.
DISTANCE_TOL = 1e-6
PROBABILITY_TOL = 1e-9
SIGMAS = 6.0


def _close(report: dict, expect: dict, key: str, tol: float) -> str | None:
    if abs(report[key] - expect[key]) > tol:
        return f"{key} {report[key]!r} differs from the transfer value {expect[key]!r}"
    return None


def _check_distance(r: dict, code: int, e: dict) -> str | None:
    if e["equal"]:
        return None if (code, r["verdict"]) == (0, "equal") else f"equal pair got exit {code}, {r['verdict']}"
    if (code, r["verdict"]) != (1, "different"):
        return f"one-gate pair got exit {code}, {r['verdict']}"
    if not r["theorem1"]["holds"]:
        return "theorem1 does not hold"
    for key, tol in (
        ("avg_distance", DISTANCE_TOL),
        ("worst_distance", DISTANCE_TOL),
        ("p_swap", PROBABILITY_TOL),
        ("p_conditional", PROBABILITY_TOL),
    ):
        if reason := _close(r, e, key, tol):
            return reason
    return None


_PROTOCOL_P = {"swap-test": "p_swap", "conditional-test": "p_conditional", "inverse-test": "p_inverse"}


def _check_protocol(r: dict, code: int, e: dict, command: str) -> str | None:
    shots, ones, p = r["shots"], r["ones_observed"], r["analytic_p"]
    if shots != e["shots"]:
        return f"shots {shots} != {e['shots']}"
    if r["verdict"] != ("different" if ones else "equal") or code != (1 if ones else 0):
        return f"verdict {r['verdict']} / exit {code} inconsistent with {ones} ones"
    if e["equal"]:
        return None if (p, ones) == (0.0, 0) else f"equal pair: analytic_p {p!r}, {ones} ones"
    want = e[_PROTOCOL_P[command]]
    if abs(p - want) > PROBABILITY_TOL:
        return f"analytic_p {p!r} differs from the transfer value {want!r}"
    if ones == 0 or abs(ones - shots * p) > SIGMAS * math.sqrt(shots * p * (1 - p)) + 1:
        return f"{ones} ones in {shots} shots is implausible for p={p!r}"
    return None


def _check_production(r: dict, code: int, e: dict) -> str | None:
    batch, batches = e["batch"], e["batches"]
    majority_runs = math.ceil(18.0 * math.log(1.0 / e["delta"]))
    if code != 0:
        return f"exit {code}"
    if r["batches"] != batches:
        return f"batches {r['batches']} != {batches}"
    if r["tests_per_batch"] != math.comb(batch, 2) * majority_runs:
        return f"tests_per_batch {r['tests_per_batch']} != C({batch},2) x {majority_runs}"
    if r["kept_total"] + r["discarded_total"] != batch * batches:
        return "kept + discarded does not cover every circuit"
    if not r["post_rate"] < 0.01:
        return f"post_rate {r['post_rate']} >= 0.01"
    return None


def _check_clifford(r: dict, code: int, e: dict) -> str | None:
    runs = r["runs"]
    if len(runs) != e["runs"]:
        return f"{len(runs)} runs reported, {e['runs']} requested"
    rejections = sum(run["outcome"] != run["eigenvalue"] for run in runs)
    if rejections != r["rejections"]:
        return f"rejections {r['rejections']} != {rejections} counted in runs"
    if e["equal"]:
        if (code, r["verdict"], rejections) != (0, "equal", 0):
            return f"equal pair got exit {code}, {r['verdict']}, {rejections} rejections"
    elif (code, r["verdict"]) != (1, "different"):
        return f"Pauli-shifted pair got exit {code}, {r['verdict']}"
    return None


def _check_find_error(r: dict, code: int, e: dict) -> str | None:
    if code != 1 or r["verdict"] != "different":
        return f"exit {code}, verdict {r['verdict']} for a planted fault"
    if not r["found"]:
        return "in-model plant not found" if e["in_model"] else None
    found = tableau_from_circuit(parse_circuit(r["candidate"]))
    if not tableau_equal(found, tableau_from_circuit(e["planted"])):
        return "found candidate does not have the planted circuit's tableau"
    return None


def check(request, code: int, stdout: str) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    e = request.expect
    command = request.argv[0]
    try:
        r = json.loads(stdout)
    except ValueError:
        return f"exit {code}, output is not JSON: {stdout[:80]!r}"
    try:
        if r["command"] != command or str(r["seed"]) != request.argv[request.argv.index("--seed") + 1]:
            return "report names another command or seed"
        if e["check"] == "distance":
            return _check_distance(r, code, e)
        if e["check"] in _PROTOCOL_P:
            return _check_protocol(r, code, e, command)
        if e["check"] == "production-line":
            return _check_production(r, code, e)
        if e["check"] == "clifford-test":
            return _check_clifford(r, code, e)
        return _check_find_error(r, code, e)
    except (KeyError, TypeError, ValueError, QverifyError) as exc:
        return f"report fails to check: {type(exc).__name__}: {exc}"
