"""Shared test helpers: independent dense oracles and random objects."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qverify.clifford import PauliString, _product
from qverify.core import Circuit, Gate, GateKind
from qverify.errors import DimensionMismatch

# Property tests draw the same examples on every run and write no
# example database, so the suite stays deterministic.
settings.register_profile("qverify", derandomize=True, database=None, deadline=None)
settings.load_profile("qverify")

# Independent letter matrices for oracle checks (kron order: qubit 0
# is the most significant factor, matching the package convention).
PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_kron(letters: str, sign: int = 1) -> np.ndarray:
    m = np.array([[complex(sign)]])
    for ch in letters:
        m = np.kron(m, PAULI_1Q[ch])
    return m


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a b, by the library's product rule."""
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n} qubits")
    return PauliString(a.n, *_product((a.x, a.z, a.phase_t), (b.x, b.z, b.phase_t)))


def negated(p: PauliString) -> PauliString:
    """-p."""
    return PauliString(p.n, p.x, p.z, p.phase_t + 2)


INV_SQRT2 = 1 / np.sqrt(2)

# Eigenstates written out independently of the package, keyed by
# (letter, sign); "T+" is (|0> + e^(i pi/4)|1>)/sqrt(2), the state the
# Clifford test prepares where the pulled-back Pauli has an identity.
ORACLE_STATES = {
    ("X", 1): np.array([1, 1]) * INV_SQRT2,
    ("X", -1): np.array([1, -1]) * INV_SQRT2,
    ("Y", 1): np.array([1, 1j]) * INV_SQRT2,
    ("Y", -1): np.array([1, -1j]) * INV_SQRT2,
    ("Z", 1): np.array([1, 0]),
    ("Z", -1): np.array([0, 1]),
    ("T+", 1): np.array([1, np.exp(1j * np.pi / 4)]) * INV_SQRT2,
}


def prep_statevector(prep) -> np.ndarray:
    """Dense amplitudes of an EigenstatePrep, built from ORACLE_STATES."""
    amps = np.array([1.0], dtype=complex)
    for j, letter in enumerate(prep.q.letters()):
        if letter == "I":
            state = ORACLE_STATES[("T+", 1)]
        else:
            state = ORACLE_STATES[(letter, -1 if (prep.signs >> j) & 1 else 1)]
        amps = np.kron(amps, state)
    return amps


def embed_oracle(g: Gate, n: int) -> np.ndarray:
    """Independent basis-state-enumeration embedding of a gate."""
    k = g.n_targets
    m = g.unitary()
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        gate_in = 0
        for j, t in enumerate(g.targets):
            gate_in |= bits[t] << (k - 1 - j)
        for gate_out in range(2**k):
            new_bits = list(bits)
            for j, t in enumerate(g.targets):
                new_bits[t] = (gate_out >> (k - 1 - j)) & 1
            idx = 0
            for q in range(n):
                idx |= new_bits[q] << (n - 1 - q)
            out[idx, i] += m[gate_out, gate_in]
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


ONE_QUBIT_KINDS = [k for k in GateKind if k not in (GateKind.CNOT, GateKind.CUSTOM)]


@st.composite
def gates_on(draw, n: int) -> Gate:
    """A named or CUSTOM gate on a permuted, possibly non-contiguous target list."""
    kind = draw(st.sampled_from(ONE_QUBIT_KINDS + [GateKind.CNOT, GateKind.CUSTOM]))
    if kind is GateKind.CNOT and n < 2:
        kind = GateKind.CUSTOM
    k = {GateKind.CNOT: 2, GateKind.CUSTOM: draw(st.integers(1, min(3, n)))}.get(kind, 1)
    targets = tuple(draw(st.permutations(range(n)))[:k])
    if kind is GateKind.CUSTOM:
        seed = draw(st.integers(0, 2**32 - 1))
        return Gate(kind, targets, haar_unitary(2**k, np.random.default_rng(seed)))
    return Gate(kind, targets)


@st.composite
def circuits(draw, max_n: int = 5, min_n: int = 1) -> Circuit:
    n = draw(st.integers(min_n, max_n))
    return Circuit(n, tuple(draw(st.lists(gates_on(n), max_size=10))))


def dagger(c: Circuit) -> Circuit:
    """The inverse circuit: gates reversed and individually inverted.

    Self-inverse kinds pass through, S and SDG swap, T becomes a CUSTOM
    gate holding its conjugate transpose (there is no named Tdg kind),
    and CUSTOM matrices are conjugate-transposed.
    """
    inv = []
    for g in reversed(c.gates):
        if g.kind is GateKind.S:
            inv.append(Gate(GateKind.SDG, g.targets))
        elif g.kind is GateKind.SDG:
            inv.append(Gate(GateKind.S, g.targets))
        elif g.kind is GateKind.T:
            inv.append(Gate(GateKind.CUSTOM, g.targets, g.unitary().conj().T))
        elif g.kind is GateKind.CUSTOM:
            inv.append(Gate(GateKind.CUSTOM, g.targets, g.matrix.conj().T))
        else:
            inv.append(g)
    return Circuit(c.n_qubits, tuple(inv))


CLIFFORD_ONE_QUBIT_KINDS = [
    GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG
]


@st.composite
def clifford_gates_on(draw, n: int) -> Gate:
    """A tableau gate: one of the named one-qubit Cliffords or a CNOT."""
    kind = draw(st.sampled_from(CLIFFORD_ONE_QUBIT_KINDS + ([GateKind.CNOT] if n >= 2 else [])))
    return Gate(kind, tuple(draw(st.permutations(range(n)))[: 2 if kind is GateKind.CNOT else 1]))


@st.composite
def clifford_circuits(draw, max_n: int = 4, min_n: int = 1) -> Circuit:
    n = draw(st.integers(min_n, max_n))
    return Circuit(n, tuple(draw(st.lists(clifford_gates_on(n), max_size=20))))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


GENERAL_GATE_KINDS = (
    GateKind.I,
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.SDG,
    GateKind.T,
    GateKind.CNOT,
)


def random_general_circuit(
    n: int, length: int, rng: np.random.Generator, custom_prob: float = 0.0
) -> Circuit:
    """Random circuit over the full named gate set, optionally with
    Haar-random custom 2-qubit gates mixed in."""
    gates = []
    for _ in range(length):
        if n >= 2 and rng.random() < custom_prob:
            t = rng.choice(n, size=2, replace=False)
            gates.append(Gate(GateKind.CUSTOM, (int(t[0]), int(t[1])), haar_unitary(4, rng)))
            continue
        kind = GENERAL_GATE_KINDS[rng.integers(0, len(GENERAL_GATE_KINDS))]
        if kind is GateKind.CNOT:
            if n < 2:
                kind = GateKind.H
                gates.append(Gate(kind, (0,)))
                continue
            t = rng.choice(n, size=2, replace=False)
            gates.append(Gate(kind, (int(t[0]), int(t[1]))))
        else:
            gates.append(Gate(kind, (int(rng.integers(0, n)),)))
    return Circuit(n, tuple(gates))


def random_one_gate_pair(n, rng, k=None, non_contiguous=False):
    """(one_gate_pair result, (original, replacement), k) with Haar gates."""
    from qverify.metrics import one_gate_pair

    base = random_general_circuit(n, 12, rng)
    if k is None:
        k = int(rng.integers(1, 4))
    if non_contiguous and n >= 3 and k >= 2:
        targets = (0, n - 1, n // 2)[:k]
    else:
        targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
    original = Gate(GateKind.CUSTOM, targets, haar_unitary(2**k, rng))
    replacement = Gate(GateKind.CUSTOM, targets, haar_unitary(2**k, rng))
    position = int(rng.integers(0, base.n_gates + 1))
    gates = base.gates[:position] + (original,) + base.gates[position:]
    return one_gate_pair(Circuit(n, gates), position, replacement), (original, replacement), k


def load_benchmark_module(monkeypatch, name: str):
    """perfbench/<name>.py, loaded from its file as perfbench_<name>."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def load_benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, which writes the benchmark's circuit files."""
    return load_benchmark_module(monkeypatch, "workloads")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
