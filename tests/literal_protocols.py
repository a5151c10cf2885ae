"""Literal full-width simulations of the three black-box protocols.

Each function builds the whole test circuit on a state tensor (EPR
pairs, U and Ut on their registers, the final interference) and reads
the probability of output 1.  The library samples from a closed-form
Bernoulli parameter instead; these are the small-n cross-checks for it.
U and Ut are plain circuits, so the oracle does not go through the
black box: their matrices come from `circuit_unitary`, and a use of U
conditioned on a control qubit is the block matrix diag(I, U) on
(control,) + U's register.
"""

from __future__ import annotations

import numpy as np

from qverify.core import FIXED_GATE_MATRICES, Circuit, GateKind, _contract, circuit_unitary
from qverify.errors import DimensionMismatch

_H = FIXED_GATE_MATRICES[GateKind.H]
_X = FIXED_GATE_MATRICES[GateKind.X]
_CNOT = FIXED_GATE_MATRICES[GateKind.CNOT]
_CSWAP = np.eye(8, dtype=complex)
_CSWAP[[5, 6]] = _CSWAP[[6, 5]]


def _zeros(width: int) -> np.ndarray:
    state = np.zeros([2] * width, dtype=complex)
    state[(0,) * width] = 1.0
    return state


def _apply(state: np.ndarray, matrix: np.ndarray, *qubits: int) -> np.ndarray:
    """`matrix` on the listed qubits of a [2] * width state tensor."""
    return _contract(state, matrix, list(qubits))


def _controlled(u: np.ndarray) -> np.ndarray:
    """diag(I, U): U runs when the first qubit is 1."""
    out = np.eye(2 * len(u), dtype=complex)
    out[len(u) :, len(u) :] = u
    return out


def _entangle(state: np.ndarray, first: int, n: int) -> np.ndarray:
    """H + CNOT preparation of n EPR pairs on qubits first..first+2n-1."""
    for j in range(n):
        state = _apply(state, _H, first + j)
        state = _apply(state, _CNOT, first + j, first + n + j)
    return state


def _prob_qubit0_is_one(state: np.ndarray) -> float:
    return float(np.sum(np.abs(state[1]) ** 2))


def _unitaries(u: Circuit, ut: Circuit) -> tuple[np.ndarray, np.ndarray]:
    if u.n_qubits != ut.n_qubits:
        raise DimensionMismatch(f"{u.n_qubits} vs {ut.n_qubits} qubits")
    return circuit_unitary(u).matrix, circuit_unitary(ut).matrix


def literal_swap_test_probability(u: Circuit, ut: Circuit) -> float:
    """P(output 1) from simulating the full 4n+1-qubit swap-test circuit."""
    um, utm = _unitaries(u, ut)
    n = u.n_qubits
    state = _entangle(_entangle(_zeros(4 * n + 1), 1, n), 2 * n + 1, n)
    state = _apply(state, um, *range(1, n + 1))
    state = _apply(state, utm, *range(2 * n + 1, 3 * n + 1))
    state = _apply(state, _H, 0)
    for i in range(2 * n):
        state = _apply(state, _CSWAP, 0, 1 + i, 2 * n + 1 + i)
    return _prob_qubit0_is_one(_apply(state, _H, 0))


def literal_conditional_test_probability(u: Circuit, ut: Circuit) -> float:
    """P(output 1) from simulating the 2n+1-qubit conditional test:
    U runs when the control is 0, Ut when it is 1."""
    um, utm = _unitaries(u, ut)
    n = u.n_qubits
    register = range(1, n + 1)
    state = _entangle(_apply(_zeros(2 * n + 1), _H, 0), 1, n)
    state = _apply(state, _X, 0)
    state = _apply(state, _controlled(um), 0, *register)
    state = _apply(state, _X, 0)
    state = _apply(state, _controlled(utm), 0, *register)
    return _prob_qubit0_is_one(_apply(state, _H, 0))


def literal_inverse_test_probability(u: Circuit, ut: Circuit) -> float:
    """P(reject) from simulating the 2n-qubit inverse-based test."""
    um, utm = _unitaries(u, ut)
    n = u.n_qubits
    state = _entangle(_zeros(2 * n), 0, n)
    state = _apply(state, utm, *range(n))
    state = _apply(state, um.conj().T, *range(n))
    # Undo the entangling preparation and read P(not all zeros).
    for j in reversed(range(n)):
        state = _apply(state, _CNOT, j, n + j)
        state = _apply(state, _H, j)
    return 1.0 - float(abs(state[(0,) * 2 * n]) ** 2)
