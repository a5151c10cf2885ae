"""Core simulation substrate: circuit unitaries, dagger, validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    dagger,
    embed_oracle,
    haar_unitary,
    pauli_kron,
    random_general_circuit,
    random_state,
)
from literal_protocols import _apply, literal_swap_test_probability
from qverify.core import (
    Circuit,
    Gate,
    GateKind,
    UnitaryMatrix,
    circuit_unitary,
    custom_gate,
    gate,
    one_gate_transfers,
)
from qverify.errors import (
    CapExceeded,
    DimensionMismatch,
    DuplicateTarget,
    IndexOutOfRange,
    NonUnitaryCustomGate,
)

INV_SQRT2 = 1 / np.sqrt(2)


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        u = circuit_unitary(Circuit(3, ()))
        assert np.array_equal(u.matrix, np.eye(8))

    def test_single_hadamard(self):
        u = circuit_unitary(Circuit(1, (gate("H", 0),)))
        expected = INV_SQRT2 * np.array([[1, 1], [1, -1]])
        assert np.allclose(u.matrix, expected, atol=1e-12)

    def test_bell_preparation_column(self):
        # Hand multiplication of the two 4x4 gate matrices against |00>.
        u = circuit_unitary(Circuit(2, (gate("H", 0), gate("CNOT", 0, 1))))
        bell = np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex)
        assert np.allclose(u.matrix[:, 0], bell, atol=1e-12)

    def test_result_unitary_within_tolerance(self, rng):
        for _ in range(10):
            c = random_general_circuit(4, 25, rng, custom_prob=0.2)
            u = circuit_unitary(c).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-9

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            circuit_unitary(Circuit(13, ()))
        # configurable
        with pytest.raises(CapExceeded):
            circuit_unitary(Circuit(5, ()), cap=4)


class TestOneGateTransfers:
    def test_ideal_times_transfer_is_replaced_circuit(self, rng):
        for _ in range(10):
            c = random_general_circuit(3, 12, rng, custom_prob=0.3)
            replacements = [
                (int(pos), custom_gate(haar_unitary(2 ** c.gates[pos].n_targets, rng), *c.gates[pos].targets))
                for pos in rng.integers(0, c.n_gates, 5)
            ]
            u = circuit_unitary(c).matrix
            for (pos, g), v in zip(replacements, one_gate_transfers(c, replacements)):
                replaced = Circuit(3, c.gates[:pos] + (g,) + c.gates[pos + 1 :])
                assert np.max(np.abs(u @ v - circuit_unitary(replaced).matrix)) < 1e-12

    def test_cap_enforced(self):
        c = Circuit(5, (gate("H", 0),))
        with pytest.raises(CapExceeded):
            one_gate_transfers(c, [(0, gate("X", 0))], cap=4)


def embed_gate(g: Gate, n: int) -> np.ndarray:
    return circuit_unitary(Circuit(n, (g,))).matrix


class TestEmbedGate:
    """One gate's circuit unitary: the gate embedded among n qubits."""

    def test_x_on_second_qubit_is_i_kron_x(self):
        assert np.array_equal(embed_gate(gate("X", 1), 2), pauli_kron("IX"))

    def test_cnot_reversed_targets(self):
        # Control on qubit 1: swaps |01> and |11>, fixes |00> and |10>.
        u = embed_gate(gate("CNOT", 1, 0), 2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        assert np.array_equal(u, expected)

    def test_custom_gate_non_contiguous_targets(self, rng):
        g = custom_gate(haar_unitary(4, rng), 2, 0)
        assert np.allclose(embed_gate(g, 3), embed_oracle(g, 3), atol=1e-12)

    def test_permuted_targets_against_oracle(self, rng):
        for _ in range(10):
            n = 4
            k = int(rng.integers(1, 4))
            targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
            g = custom_gate(haar_unitary(2**k, rng), *targets)
            assert np.allclose(embed_gate(g, n), embed_oracle(g, n), atol=1e-12)

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            embed_gate(gate("X", 5), 2)
        with pytest.raises(DuplicateTarget):
            gate("CNOT", 1, 1)


def apply_gates(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Run `c` gate by gate on a state vector with the literal simulations' `_apply`."""
    arr = state.reshape([2] * c.n_qubits)
    for g in c.gates:
        arr = _apply(arr, g.unitary(), *g.targets)
    return arr.reshape(-1)


class TestApplyCircuit:
    """Gate-by-gate application to a state, the path the literal protocol
    simulations take, against the circuit unitary."""

    def test_identity_circuit(self, rng):
        s = random_state(8, rng)
        assert np.array_equal(apply_gates(Circuit(3, ()), s), s)

    def test_x_flips_most_significant_qubit(self):
        out = apply_gates(Circuit(3, (gate("X", 0),)), np.eye(8)[0])
        assert np.array_equal(out, np.eye(8)[0b100])

    def test_matches_full_matrix_product(self, rng):
        for _ in range(5):
            c = random_general_circuit(6, 20, rng, custom_prob=0.15)
            s = random_state(64, rng)
            assert np.max(np.abs(apply_gates(c, s) - circuit_unitary(c).matrix @ s)) <= 1e-9

    def test_matches_full_matrix_product_all_widths(self, rng):
        # 100 random (circuit, state) pairs across n = 1..8
        for i in range(100):
            n = 1 + i % 8
            c = random_general_circuit(n, 12, rng, custom_prob=0.1)
            s = random_state(2**n, rng)
            assert np.max(np.abs(apply_gates(c, s) - circuit_unitary(c).matrix @ s)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            literal_swap_test_probability(Circuit(2, ()), Circuit(3, ()))

    def test_apply_gate_matches_embedding(self, rng):
        s = random_state(8, rng)
        g = gate("CNOT", 2, 0)
        assert np.allclose(apply_gates(Circuit(3, (g,)), s), embed_oracle(g, 3) @ s, atol=1e-12)


class TestDagger:
    def test_hadamard_self_inverse(self):
        c = Circuit(1, (gate("H", 0),))
        assert dagger(c).gates == c.gates

    def test_s_becomes_sdg_and_cancels(self):
        c = Circuit(1, (gate("S", 0),))
        d = dagger(c)
        assert d.gates[0].kind is GateKind.SDG
        combined = circuit_unitary(Circuit(1, c.gates + d.gates)).matrix
        assert np.allclose(combined, np.eye(2), atol=1e-12)

    def test_reverses_and_inverts(self):
        c = Circuit(2, (gate("H", 0), gate("S", 0), gate("CNOT", 0, 1)))
        d = dagger(c)
        assert [g.kind for g in d.gates] == [GateKind.CNOT, GateKind.SDG, GateKind.H]
        product = circuit_unitary(Circuit(2, c.gates + d.gates)).matrix
        assert np.allclose(product, np.eye(4), atol=1e-9)

    def test_unitary_is_conjugate_transpose(self, rng):
        for _ in range(5):
            c = random_general_circuit(4, 15, rng, custom_prob=0.2)
            u = circuit_unitary(c).matrix
            ud = circuit_unitary(dagger(c)).matrix
            assert np.max(np.abs(ud - u.conj().T)) <= 1e-9

    def test_involution_up_to_renaming(self, rng):
        for _ in range(5):
            c = random_general_circuit(3, 12, rng, custom_prob=0.2)
            u = circuit_unitary(c).matrix
            udd = circuit_unitary(dagger(dagger(c))).matrix
            assert np.max(np.abs(udd - u)) <= 1e-9


class TestValidation:
    def test_non_unitary_custom_rejected(self):
        with pytest.raises(NonUnitaryCustomGate):
            custom_gate(np.array([[1, 0], [1, 1]], dtype=complex), 0)

    def test_custom_requires_matching_shape(self):
        with pytest.raises(NonUnitaryCustomGate):
            custom_gate(np.eye(4), 0)

    def test_named_gate_arity(self):
        with pytest.raises(IndexOutOfRange):
            gate("CNOT", 0)

    def test_circuit_target_bounds(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(2, (gate("X", 2),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_custom_rejected(self, bad):
        # nan > tol is False, so a defect test written that way let nan through.
        m = np.eye(2, dtype=complex)
        m[0, 0] = bad
        with pytest.raises(NonUnitaryCustomGate):
            custom_gate(m, 0)
        with pytest.raises(NonUnitaryCustomGate):
            UnitaryMatrix(m)

    def test_unitary_matrix_checked(self):
        with pytest.raises(NonUnitaryCustomGate):
            UnitaryMatrix(np.ones((2, 2)))


def _with_negative_zeros(m: np.ndarray) -> np.ndarray:
    """A copy of `m` whose zero real and imaginary parts are all -0.0."""
    out = np.array(m, dtype=complex)
    out.real[out.real == 0] = -0.0
    out.imag[out.imag == 0] = -0.0
    return out


@st.composite
def custom_matrices(draw, k: int) -> np.ndarray:
    """Haar unitaries, or monomial ones (a permuted diagonal of +-1, +-i)
    whose many exact zeros can carry either sign."""
    d = 2**k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return haar_unitary(d, rng)
    m = np.zeros((d, d), dtype=complex)
    m[rng.permutation(d), np.arange(d)] = rng.choice(np.array([1, -1, 1j, -1j]), d)
    return m


@st.composite
def separately_built_pairs(draw) -> tuple[Circuit, Circuit]:
    """Two equal circuits built gate by gate from the same description;
    the second copy's CUSTOM matrices have their zeros negated."""
    n = draw(st.integers(1, 4))
    specs = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(list(GateKind)))
        if kind is GateKind.CNOT and n < 2:
            kind = GateKind.CUSTOM
        k = {GateKind.CNOT: 2, GateKind.CUSTOM: draw(st.integers(1, min(2, n)))}.get(kind, 1)
        targets = tuple(draw(st.permutations(range(n)))[:k])
        specs.append((kind, targets, draw(custom_matrices(k)) if kind is GateKind.CUSTOM else None))
    first = Circuit(n, tuple(Gate(kind, t, m) for kind, t, m in specs))
    negated = [(kind, t, None if m is None else _with_negative_zeros(m)) for kind, t, m in specs]
    second = Circuit(n, tuple(Gate(kind, t, m) for kind, t, m in negated))
    return first, second


class TestContentHash:
    @given(separately_built_pairs())
    def test_equal_circuits_hash_equal(self, pair):
        first, second = pair
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert all(hash(a) == hash(b) for a, b in zip(first.gates, second.gates))
        assert len({first: 0, second: 1}) == 1

    def test_negative_zero_matrix_is_one_key(self):
        plus = custom_gate(np.array([[0, 1], [1, 0]]), 0)
        minus = custom_gate(_with_negative_zeros(plus.matrix), 0)
        assert np.signbit(minus.matrix.real[0, 0]) and not np.signbit(plus.matrix.real[0, 0])
        assert plus == minus and hash(plus) == hash(minus)
        assert len({Circuit(1, (plus,)): 0, Circuit(1, (minus,)): 1}) == 1

    def test_circuit_hash_computed_once(self, monkeypatch):
        c = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1)))
        first = hash(c)
        monkeypatch.setattr(Gate, "__hash__", lambda g: 1 / 0)
        assert hash(c) == first
