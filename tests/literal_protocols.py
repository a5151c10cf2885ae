"""Literal full-width simulations of the three black-box protocols.

Each function builds the whole test circuit on a statevector (EPR
pairs, the black box on its register, the final interference) and
reads the probability of output 1.  The library samples from a
closed-form Bernoulli parameter instead; these are the small-n
cross-checks for it.  The black boxes are used only through their
public `apply`, `apply_conditional` and `apply_inverse`.
"""

from __future__ import annotations

import numpy as np

from qverify.core import Circuit, Gate, GateKind, StateVector, apply_gate, zero_state
from qverify.errors import DimensionMismatch
from qverify.protocols import CAP_INVERSE, BlackBoxUnitary

_CSWAP = np.eye(8, dtype=complex)
_CSWAP[[5, 6]] = _CSWAP[[6, 5]]
_CSWAP.setflags(write=False)


def _entangle(state: StateVector, first: int, n: int) -> StateVector:
    """H + CNOT preparation of n EPR pairs on qubits first..first+2n-1."""
    for j in range(n):
        state = apply_gate(Gate(GateKind.H, (first + j,)), state)
        state = apply_gate(Gate(GateKind.CNOT, (first + j, first + n + j)), state)
    return state


def _prob_qubit0_is_one(state: StateVector) -> float:
    half = state.amplitudes.reshape(2, -1)[1]
    return float(np.sum(np.abs(half) ** 2))


def _check_widths(u_qubits: int, ut_qubits: int) -> None:
    if u_qubits != ut_qubits:
        raise DimensionMismatch(f"{u_qubits} vs {ut_qubits} qubits")


def literal_swap_test_probability(u: BlackBoxUnitary, ut: BlackBoxUnitary) -> float:
    """P(output 1) from simulating the full 4n+1-qubit swap-test circuit."""
    _check_widths(u.n_qubits, ut.n_qubits)
    n = u.n_qubits
    state = zero_state(4 * n + 1)
    state = _entangle(state, 1, n)
    state = _entangle(state, 2 * n + 1, n)
    state = u.apply(state, range(1, n + 1))
    state = ut.apply(state, range(2 * n + 1, 3 * n + 1))
    state = apply_gate(Gate(GateKind.H, (0,)), state)
    for i in range(2 * n):
        state = apply_gate(Gate(GateKind.CUSTOM, (0, 1 + i, 2 * n + 1 + i), _CSWAP), state)
    state = apply_gate(Gate(GateKind.H, (0,)), state)
    return _prob_qubit0_is_one(state)


def literal_conditional_test_probability(u: BlackBoxUnitary, ut: BlackBoxUnitary) -> float:
    """P(output 1) from simulating the 2n+1-qubit conditional test."""
    _check_widths(u.n_qubits, ut.n_qubits)
    n = u.n_qubits
    state = zero_state(2 * n + 1)
    state = apply_gate(Gate(GateKind.H, (0,)), state)
    state = _entangle(state, 1, n)
    state = u.apply_conditional(state, control=0, on_value=0, qubits=range(1, n + 1))
    state = ut.apply_conditional(state, control=0, on_value=1, qubits=range(1, n + 1))
    state = apply_gate(Gate(GateKind.H, (0,)), state)
    return _prob_qubit0_is_one(state)


def literal_inverse_test_probability(u: Circuit, ut: BlackBoxUnitary) -> float:
    """P(reject) from simulating the 2n-qubit inverse-based test."""
    _check_widths(u.n_qubits, ut.n_qubits)
    n = u.n_qubits
    state = zero_state(2 * n)
    state = _entangle(state, 0, n)
    state = ut.apply(state, range(n))
    state = BlackBoxUnitary(u, {CAP_INVERSE}).apply_inverse(state, range(n))
    # Undo the entangling preparation and read P(not all zeros).
    for j in reversed(range(n)):
        state = apply_gate(Gate(GateKind.CNOT, (j, n + j)), state)
        state = apply_gate(Gate(GateKind.H, (j,)), state)
    return 1.0 - float(abs(state.amplitudes[0]) ** 2)
