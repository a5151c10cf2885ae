"""Black-box comparison protocols: swap, conditional and inverse tests.

The protocols never read a wrapped circuit's gate list; they only use
the access modes the black box grants (plain application, conditional
application, or application of the inverse).  Shot outcomes are drawn
from the analytically computed Bernoulli parameter, which has exactly
the same distribution as simulating the full test circuit shot by
shot but keeps 10^5-shot runs instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_QUBIT_CAP,
    Circuit,
    Gate,
    GateKind,
    StateVector,
    _apply_gate_tensor,
    dagger,
    maximally_entangled_state,
)
from .errors import CapabilityMissing, DimensionMismatch, IndexOutOfRange
from .seeding import rng_from_seed

CAP_PLAIN = "plain"
CAP_CONDITIONAL = "conditional"
CAP_INVERSE = "inverse"
ALL_CAPABILITIES = frozenset({CAP_PLAIN, CAP_CONDITIONAL, CAP_INVERSE})


def _retarget(g: Gate, qubits: Sequence[int]) -> Gate:
    return Gate(g.kind, tuple(qubits[t] for t in g.targets), g.matrix)


def _controlled_matrix(g: Gate, on_value: int) -> np.ndarray:
    m = g.unitary()
    d = m.shape[0]
    out = np.eye(2 * d, dtype=complex)
    if on_value == 1:
        out[d:, d:] = m
    else:
        out[:d, :d] = m
    return out


def apply_circuit_to(c: Circuit, state: StateVector, qubits: Sequence[int]) -> StateVector:
    """Apply an n-qubit circuit to the listed qubits of a wider state."""
    if len(qubits) != c.n_qubits or len(set(qubits)) != len(qubits):
        raise DimensionMismatch(
            f"circuit on {c.n_qubits} qubits cannot bind to targets {tuple(qubits)}"
        )
    n = state.n_qubits
    if any(q >= n or q < 0 for q in qubits):
        raise IndexOutOfRange(f"targets {tuple(qubits)} outside state of {n} qubits")
    arr = state.amplitudes.reshape([2] * n)
    for g in c.gates:
        arr = _apply_gate_tensor(arr, _retarget(g, qubits), n)
    return StateVector(n, np.ascontiguousarray(arr).reshape(-1))


class BlackBoxUnitary:
    """Opaque handle over a circuit, exposing only gated access modes.

    The wrapped gate list is not reachable through the public surface;
    protocols see the qubit count and whichever of apply /
    apply_conditional / apply_inverse the capability flags allow.
    """

    def __init__(self, circuit: Circuit, capabilities: frozenset[str] = frozenset({CAP_PLAIN})):
        caps = frozenset(capabilities)
        if not caps <= ALL_CAPABILITIES:
            raise CapabilityMissing(f"unknown capabilities {caps - ALL_CAPABILITIES}")
        self.__circuit = circuit
        self._capabilities = caps

    @property
    def n_qubits(self) -> int:
        return self.__circuit.n_qubits

    @property
    def capabilities(self) -> frozenset[str]:
        return self._capabilities

    def require(self, capability: str) -> None:
        if capability not in self._capabilities:
            raise CapabilityMissing(f"black box does not grant {capability!r}")

    def apply(self, state: StateVector, qubits: Sequence[int] | None = None) -> StateVector:
        """Run the hidden unitary on the listed qubits (default: first n)."""
        self.require(CAP_PLAIN)
        return _apply_hidden(self, state, qubits)

    def apply_inverse(self, state: StateVector, qubits: Sequence[int] | None = None) -> StateVector:
        self.require(CAP_INVERSE)
        return apply_circuit_to(
            dagger(self.__circuit), state, self._default_qubits(qubits)
        )

    def apply_conditional(
        self,
        state: StateVector,
        control: int,
        on_value: int = 1,
        qubits: Sequence[int] | None = None,
    ) -> StateVector:
        """Run the hidden unitary conditioned on a control qubit's value."""
        self.require(CAP_CONDITIONAL)
        qs = self._default_qubits(qubits)
        if control in qs:
            raise IndexOutOfRange(f"control {control} overlaps targets {qs}")
        n = state.n_qubits
        arr = state.amplitudes.reshape([2] * n)
        for g in self.__circuit.gates:
            mapped = _retarget(g, qs)
            cg = Gate(
                GateKind.CUSTOM,
                (control,) + mapped.targets,
                _controlled_matrix(mapped, on_value),
            )
            arr = _apply_gate_tensor(arr, cg, n)
        return StateVector(n, np.ascontiguousarray(arr).reshape(-1))

    def _default_qubits(self, qubits: Sequence[int] | None) -> tuple[int, ...]:
        return tuple(qubits) if qubits is not None else tuple(range(self.n_qubits))


def _hidden_circuit(box: BlackBoxUnitary) -> Circuit:
    # Module-internal: the simulation backend may read the circuit, the
    # protocol layer may not.
    return box._BlackBoxUnitary__circuit


def _apply_hidden(
    box: BlackBoxUnitary, state: StateVector, qubits: Sequence[int] | None = None
) -> StateVector:
    qs = tuple(qubits) if qubits is not None else tuple(range(box.n_qubits))
    return apply_circuit_to(_hidden_circuit(box), state, qs)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Sampled result of one protocol invocation.

    ones_observed counts the shots whose auxiliary measurement came out
    1 (that result maps directly to test output 1); the verdict is
    'different' exactly when at least one shot fired.
    """

    protocol: str
    shots: int
    ones_observed: int
    analytic_p: float
    verdict: str
    seed: int

    def __post_init__(self):
        if not 0 <= self.ones_observed <= self.shots:
            raise ValueError("ones_observed must lie in [0, shots]")
        if (self.verdict == "different") != (self.ones_observed > 0):
            raise ValueError("verdict must be 'different' iff ones_observed > 0")


def _outcome(protocol: str, shots: int, p: float, seed: int) -> ProtocolOutcome:
    rng = rng_from_seed(seed)
    ones = int(rng.binomial(shots, p)) if shots > 0 else 0
    return ProtocolOutcome(
        protocol=protocol,
        shots=shots,
        ones_observed=ones,
        analytic_p=p,
        verdict="different" if ones > 0 else "equal",
        seed=seed,
    )


def _clamp01(v: float) -> float:
    # Snap to the exact boundary: equal circuits must never fire (the
    # tests are one-sided), but rounding leaves p ~ 1e-16 after the
    # overlap computation.
    if v < 1e-12:
        return 0.0
    if v > 1.0 - 1e-12:
        return 1.0
    return v


def _choi_overlap(u: BlackBoxUnitary, ut: BlackBoxUnitary, cap: int) -> complex:
    """<psi_U|psi_Ut> where psi = (box x I) applied to n EPR pairs."""
    if u.n_qubits != ut.n_qubits:
        raise DimensionMismatch(f"{u.n_qubits} vs {ut.n_qubits} qubits")
    n = u.n_qubits
    mes = maximally_entangled_state(n, cap=cap)
    psi_u = _apply_hidden(u, mes, range(n))
    psi_ut = _apply_hidden(ut, mes, range(n))
    return complex(np.vdot(psi_u.amplitudes, psi_ut.amplitudes))


def run_swap_test(
    u: BlackBoxUnitary,
    ut: BlackBoxUnitary,
    shots: int,
    seed: int,
    cap: int = DEFAULT_QUBIT_CAP,
) -> ProtocolOutcome:
    """Choi-state swap test: each shot fires with p = D(U,Ut)^2 / 2.

    Phase-blind: Ut = e^(i theta) U gives p = 0.
    """
    u.require(CAP_PLAIN)
    ut.require(CAP_PLAIN)
    overlap = _choi_overlap(u, ut, cap)
    p = _clamp01(0.5 - 0.5 * abs(overlap) ** 2)
    return _outcome("swap", shots, p, seed)


def run_conditional_test(
    u: BlackBoxUnitary,
    ut: BlackBoxUnitary,
    shots: int,
    seed: int,
    cap: int = DEFAULT_QUBIT_CAP,
) -> ProtocolOutcome:
    """Conditional-application test: p = 1/2 - Re(Tr(U^dag Ut)) / 2^(n+1).

    Unlike the swap test this sees the relative phase: p(U, -U) = 1.
    """
    u.require(CAP_CONDITIONAL)
    ut.require(CAP_CONDITIONAL)
    overlap = _choi_overlap(u, ut, cap)
    p = _clamp01(0.5 - 0.5 * overlap.real)
    return _outcome("conditional", shots, p, seed)


def run_inverse_test(
    u: Circuit,
    ut: BlackBoxUnitary,
    shots: int,
    seed: int,
    cap: int = DEFAULT_QUBIT_CAP,
) -> ProtocolOutcome:
    """Inverse-based test using n EPR pairs (half the swap test's width).

    U is a known classical circuit whose inverse we can build; Ut stays
    a black box.  Per shot the all-zeros check fails with probability
    D(U, Ut)^2.
    """
    ut.require(CAP_PLAIN)
    if u.n_qubits != ut.n_qubits:
        raise DimensionMismatch(f"{u.n_qubits} vs {ut.n_qubits} qubits")
    n = u.n_qubits
    mes = maximally_entangled_state(n, cap=cap)
    state = _apply_hidden(ut, mes, range(n))
    state = apply_circuit_to(dagger(u), state, range(n))
    p_zero = abs(np.vdot(mes.amplitudes, state.amplitudes)) ** 2
    p = _clamp01(1.0 - p_zero)
    return _outcome("inverse", shots, p, seed)


def repeat_until_confident(
    tester: Callable[[int], ProtocolOutcome],
    eps: float,
    delta: float,
    k: int = 1,
) -> tuple[str, int]:
    """Repeat a one-sided test enough to push the miss rate below delta.

    Under the one-gate promise on k qubits, Dmax >= eps implies a
    per-shot detection probability of at least eps^2 / 2^(k+2), so
    r = ceil(ln(1/delta) / (eps^2 / 2^(k+2))) runs suffice.  Equal
    circuits are never misjudged.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    p_min = eps**2 / 2 ** (k + 2)
    runs = math.ceil(math.log(1.0 / delta) / p_min)
    if runs == 0:
        return "equal", 0
    return tester(runs).verdict, runs

