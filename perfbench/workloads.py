"""Seeded request plans for the four benchmark workloads.

A plan is the fixed list of CLI requests one pass of a workload sends,
plus one warm-up request.  `make_plan(workload, seed, workdir)` writes
every circuit file the requests name into `workdir` and records, for
each request, what its output must be (see checks.py).  The same
workload and seed always give the same files and the same plan.

Only qverify's public API is used.  Faults are planted from the gate
alphabet the README documents: X, Y, Z, H, S, SDG, T, I at one-qubit
positions and an orientation flip at CNOTs (T is left out where the
black box must stay Clifford).  A CUSTOM position is replaced by a
fresh random unitary on the same targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qverify import Circuit, Gate, GateKind, random_clifford_circuit, save_circuit

WORKLOADS = ("dense-mix", "production-line", "clifford-verify", "find-error")

NAMED_1Q = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG, GateKind.T, GateKind.I)
CLIFFORD_1Q = tuple(k for k in NAMED_1Q if k is not GateKind.T)
# The one-qubit kinds random_clifford_circuit draws from.
RANDOM_CLIFFORD_1Q = (GateKind.H, GateKind.S, GateKind.X, GateKind.Y, GateKind.Z)
PROTOCOL_COMMANDS = ("swap-test", "conditional-test", "inverse-test")

# CNOT(c, t) with control and target exchanged, written on the order (c, t).
REVERSED_CNOT = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)

SELF_CANCELLING = (
    (GateKind.H, GateKind.H),
    (GateKind.S, GateKind.SDG),
    (GateKind.SDG, GateKind.S),
    (GateKind.X, GateKind.X),
    (GateKind.Y, GateKind.Y),
    (GateKind.Z, GateKind.Z),
    (GateKind.CNOT, GateKind.CNOT),
)

SHOTS = 100_000
DENSE_GATES = 40


@dataclass(frozen=True)
class Request:
    """One CLI request: its argv (without the program name) and its expected output."""

    kind: str
    argv: tuple[str, ...]
    expect: dict


@dataclass(frozen=True)
class Plan:
    warmup: Request
    requests: tuple[Request, ...]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def general_circuit(n: int, length: int, rng: np.random.Generator) -> Circuit:
    """Random circuit with T gates, CNOTs and 2-qubit CUSTOM gates mixed in."""
    gates = []
    for _ in range(length):
        r = rng.random()
        if r < 0.25:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            if r < 0.1:
                gates.append(Gate(GateKind.CUSTOM, (a, b), haar_unitary(4, rng)))
            else:
                gates.append(Gate(GateKind.CNOT, (a, b)))
        else:
            kind = NAMED_1Q[int(rng.integers(0, len(NAMED_1Q) - 1))]  # no I in base circuits
            gates.append(Gate(kind, (int(rng.integers(0, n)),)))
    return Circuit(n, tuple(gates))


def insert_identity(c: Circuit, rng: np.random.Generator) -> Circuit:
    """c with a self-cancelling gate pair inserted: equal by construction."""
    first, second = SELF_CANCELLING[int(rng.integers(0, len(SELF_CANCELLING)))]
    if first is GateKind.CNOT:
        targets = tuple(int(q) for q in rng.choice(c.n_qubits, size=2, replace=False))
    else:
        targets = (int(rng.integers(0, c.n_qubits)),)
    pos = int(rng.integers(0, c.n_gates + 1))
    pair = (Gate(first, targets), Gate(second, targets))
    return Circuit(c.n_qubits, c.gates[:pos] + pair + c.gates[pos:])


def replacement(g: Gate, rng: np.random.Generator, clifford: bool = False) -> Gate:
    """A different gate on the same qubits.

    A flipped CNOT is written as CUSTOM on the original target order,
    which the transfer identities need, or with `clifford` as a named
    CNOT, which the Clifford black box can run.
    """
    if g.kind is GateKind.CNOT:
        if clifford:
            return Gate(GateKind.CNOT, g.targets[::-1])
        return Gate(GateKind.CUSTOM, g.targets, REVERSED_CNOT)
    if g.kind is GateKind.CUSTOM:
        return Gate(GateKind.CUSTOM, g.targets, haar_unitary(2 ** g.n_targets, rng))
    choices = [k for k in (CLIFFORD_1Q if clifford else NAMED_1Q) if k is not g.kind]
    return Gate(choices[int(rng.integers(0, len(choices)))], g.targets)


def replace_gate(c: Circuit, pos: int, g: Gate) -> Circuit:
    return Circuit(c.n_qubits, c.gates[:pos] + (g,) + c.gates[pos + 1 :])


def transfer_expectation(g: Gate, gt: Gate) -> dict:
    """D, Dmax and protocol probabilities of a one-gate pair, from the 2^k gate matrices.

    By the transfer identities the full circuits share the trace overlap
    Tr(G^dag Gt) / 2^k and the worst-case distance of the two gates.
    Dmax comes from the eigenphases of G^dag Gt: when they fit in an arc
    shorter than pi, the origin lies cos(arc/2) from their convex hull.
    """
    w = g.unitary().conj().T @ gt.unitary()
    ov = complex(np.trace(w)) / w.shape[0]
    phases = np.sort(np.angle(np.linalg.eigvals(w)))
    gaps = np.diff(np.concatenate([phases, phases[:1] + 2 * np.pi]))
    arc = 2 * np.pi - float(gaps.max())
    d2 = max(0.0, 1.0 - abs(ov) ** 2)
    return {
        "avg_distance": float(np.sqrt(d2)),
        "worst_distance": float(np.sin(min(arc, np.pi) / 2)),
        "p_swap": d2 / 2,
        "p_conditional": 0.5 - 0.5 * ov.real,
        "p_inverse": d2,
    }


class _Writer:
    """Saves circuits under numbered names in the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def save(self, c: Circuit) -> str:
        path = self.workdir / f"c{self.count:03d}.qc"
        self.count += 1
        save_circuit(c, path)
        return str(path)


def _dense_pair(w: _Writer, n: int, equal: bool, rng) -> tuple[str, str, dict]:
    u = general_circuit(n, DENSE_GATES, rng)
    if equal:
        return w.save(u), w.save(insert_identity(u, rng)), {"equal": True}
    pos = int(rng.integers(0, u.n_gates))
    alt = replacement(u.gates[pos], rng)
    expect = {"equal": False, **transfer_expectation(u.gates[pos], alt)}
    return w.save(u), w.save(replace_gate(u, pos, alt)), expect


def _dense_request(w: _Writer, command: str, n: int, equal: bool, rng) -> Request:
    u, ut, expect = _dense_pair(w, n, equal, rng)
    argv = [command, "--u", u, "--ut", ut, "--json", "--seed", str(int(rng.integers(0, 2**31)))]
    if command != "distance":
        argv += ["--shots", str(SHOTS)]
        expect["shots"] = SHOTS
    return Request(f"{command}-n{n}-{'eq' if equal else 'diff'}", tuple(argv), {"check": command, **expect})


def evenly_entangled_clifford(n: int, length: int, rng: np.random.Generator) -> Circuit:
    """Random Clifford circuit with a CNOT at every sixth position.

    random_clifford_circuit draws a CNOT with probability 1/6 per gate.
    The error finder tries 50 alternatives at a CNOT and 6 at any other
    gate, and the production line 1 and 7, so fixing where the CNOTs sit
    fixes how much work a circuit of a given length makes, whatever the
    seed.
    """
    gates = []
    for i in range(length):
        if i % 6 == 5:
            c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Gate(GateKind.CNOT, (c, t)))
        else:
            kind = RANDOM_CLIFFORD_1Q[int(rng.integers(0, len(RANDOM_CLIFFORD_1Q)))]
            gates.append(Gate(kind, (int(rng.integers(0, n)),)))
    return Circuit(n, tuple(gates))


# Each pass mixes a few latency classes.  The sizes are chosen so that
# the median and the 11th-slowest request of a run fall inside one class
# of near-equal requests, not on the edge between two classes: there the
# figure would jump with the seed.


def _dense_mix(w: _Writer, rng) -> tuple[Request, list[Request]]:
    warmup = _dense_request(w, "distance", 4, False, rng)
    slots = [(cmd, n, eq) for cmd in PROTOCOL_COMMANDS for n in (4, 6) for eq in (True, False)]
    slots += [("distance", n, eq) for n in (8, 6, 4) for eq in (True, False)]
    return warmup, [_dense_request(w, cmd, n, eq, rng) for cmd, n, eq in slots]


def _production_request(w: _Writer, n: int, batches: int, rng) -> Request:
    ideal = evenly_entangled_clifford(n, 4 * n, rng)
    argv = [
        "production-line", "--ideal", w.save(ideal), "--fault-prob", "0.1", "--eps", "0.5",
        "--batch", "11", "--batches", str(batches), "--delta", "1e-4",
        "--seed", str(int(rng.integers(0, 2**31))), "--json",
    ]
    expect = {"check": "production-line", "batch": 11, "batches": batches, "delta": 1e-4}
    return Request(f"production-line-n{n}-b{batches}", tuple(argv), expect)


def _production_line(w: _Writer, rng) -> tuple[Request, list[Request]]:
    # Batch counts that cost about the same at each n, two circuits each.
    warmup = _production_request(w, 2, 100, rng)
    slots = [(2, 200), (3, 150), (5, 60)] * 4
    return warmup, [_production_request(w, n, b, rng) for n, b in slots]


def _clifford_pair(w: _Writer, u: Circuit, runs: int, shifted: bool, rng) -> Request:
    n = u.n_qubits
    if shifted:
        ut = Circuit(n, u.gates + (Gate(GateKind.Z, (int(rng.integers(0, n)),)),))
    else:
        ut = insert_identity(u, rng)
    argv = [
        "clifford-test", "--u", w.save(u), "--ut", w.save(ut), "--runs", str(runs),
        "--seed", str(int(rng.integers(0, 2**31))), "--json",
    ]
    expect = {"check": "clifford-test", "equal": not shifted, "runs": runs}
    return Request(f"clifford-test-n{n}-{'shift' if shifted else 'eq'}", tuple(argv), expect)


def _clifford_verify(w: _Writer, rng) -> tuple[Request, list[Request]]:
    warmup = _clifford_pair(w, random_clifford_circuit(2, 50, rng), 200, True, rng)
    requests = []
    # About 0.25 s each: small n with many rounds, and n = 200 with a 10^4-gate parse.
    for n, gates, runs in ((2, 50, 3000), (8, 100, 2400), (200, 10_000, 100)):
        u = random_clifford_circuit(n, gates, rng)
        requests += [_clifford_pair(w, u, runs, shifted, rng) for shifted in (False, True)]
    # The slow class, three per pass so a run has more than 10 of them.
    big = [random_clifford_circuit(1000, 10_000, rng) for _ in range(2)]
    requests += [_clifford_pair(w, big[0], 100, shifted, rng) for shifted in (False, True)]
    requests.append(_clifford_pair(w, big[1], 100, False, rng))
    return warmup, requests


def _find_error_request(w: _Writer, s: int, positions: list[int], rng) -> Request:
    """Plant one replacement at each position; two plants lie outside the search model."""
    u = evenly_entangled_clifford(8, s, rng)
    planted = u
    for pos in positions:
        planted = replace_gate(planted, pos, replacement(u.gates[pos], rng, clifford=True))
    argv = [
        "find-error", "--u", w.save(u), "--ut", w.save(planted), "--depth", "1",
        "--runs-per-candidate", "40", "--seed", str(int(rng.integers(0, 2**31))), "--json",
    ]
    expect = {"check": "find-error", "in_model": len(positions) == 1, "planted": planted}
    return Request(f"find-error-s{s}-{len(positions)}fault", tuple(argv), expect)


def _cnot(k: int) -> int:
    """Position of the k-th CNOT of an evenly entangled circuit."""
    return 6 * k + 5


def _find_error(w: _Writer, rng) -> tuple[Request, list[Request]]:
    # Single plants flip the k-th CNOT, for fixed k.  A one-qubit plant can
    # often be reproduced by replacing an earlier gate on its qubit, which
    # ends the search at a seed-dependent point; a flipped CNOT rarely can.
    warmup = _find_error_request(w, 50, [_cnot(3)], rng)
    requests = [_find_error_request(w, 50, [_cnot(k)], rng) for k in (0, 1, 3, 3, 3, 4, 4, 4)]
    requests += [_find_error_request(w, 200, [_cnot(k)], rng) for k in (8, 9, 10, 11)]
    pair = sorted(int(q) for q in rng.choice(50, size=2, replace=False))
    requests.append(_find_error_request(w, 50, pair, rng))
    return warmup, requests


_BUILDERS = {
    "dense-mix": _dense_mix,
    "production-line": _production_line,
    "clifford-verify": _clifford_verify,
    "find-error": _find_error,
}


def make_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's circuit files into `workdir` and return its plan.

    The request order within a pass is shuffled by the seed; the mix of
    request kinds is fixed, so every seed loads the same layers equally.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    warmup, requests = _BUILDERS[workload](_Writer(workdir), rng)
    order = rng.permutation(len(requests))
    return Plan(warmup, tuple(requests[i] for i in order))
