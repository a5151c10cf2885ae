"""Black-box comparison protocols: swap, conditional and inverse tests.

The protocols never read a wrapped circuit's gate list; they only use
the access modes the black box grants (plain application, conditional
application, or application of the inverse).  The box builds its
dense unitary U for each use, and every access mode contracts U (or
U^dag) into the listed qubits of a state.  Each protocol fires with a
probability that depends only on the overlap v = Tr(U^dag Ut) / 2^n,
so protocols run on circuits of up to `cap` qubits, like `distance`.
Shot outcomes are drawn from that analytic Bernoulli parameter, which
has exactly the same distribution as simulating the full test
circuit shot by shot but keeps 10^5-shot runs instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_QUBIT_CAP,
    Circuit,
    StateVector,
    UnitaryMatrix,
    _contract,
    circuit_unitary,
)
from .errors import CapabilityMissing, DimensionMismatch, IndexOutOfRange
from .metrics import _clamp01, trace_overlap
from .seeding import rng_from_seed

CAP_PLAIN = "plain"
CAP_CONDITIONAL = "conditional"
CAP_INVERSE = "inverse"
ALL_CAPABILITIES = frozenset({CAP_PLAIN, CAP_CONDITIONAL, CAP_INVERSE})


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

    def _unitary(self, capability: str, cap: int = DEFAULT_QUBIT_CAP) -> UnitaryMatrix:
        """The hidden unitary, for callers holding `capability`."""
        self.require(capability)
        return circuit_unitary(self.__circuit, cap=cap)

    def apply(self, state: StateVector, qubits: Sequence[int] | None = None) -> StateVector:
        """Run the hidden unitary on the listed qubits (default: first n)."""
        u = self._unitary(CAP_PLAIN).matrix
        qs = self._targets(state, qubits)
        return _state(_contract(_tensor(state), u, qs))

    def apply_inverse(self, state: StateVector, qubits: Sequence[int] | None = None) -> StateVector:
        u = self._unitary(CAP_INVERSE).matrix
        qs = self._targets(state, qubits)
        return _state(_contract(_tensor(state), u.conj().T, qs))

    def apply_conditional(
        self,
        state: StateVector,
        control: int,
        on_value: int = 1,
        qubits: Sequence[int] | None = None,
    ) -> StateVector:
        """Run the hidden unitary conditioned on a control qubit's value."""
        u = self._unitary(CAP_CONDITIONAL).matrix
        qs = self._targets(state, qubits)
        if control in qs or not 0 <= control < state.n_qubits:
            raise IndexOutOfRange(f"control {control} must be a free qubit, not in {qs}")
        # Only the control = on_value slice moves; it lacks the control axis.
        arr = np.array(_tensor(state))
        branch = (slice(None),) * control + (on_value,)
        arr[branch] = _contract(arr[branch], u, [q - (q > control) for q in qs])
        return _state(arr)

    def _targets(self, state: StateVector, qubits: Sequence[int] | None) -> tuple[int, ...]:
        qs = tuple(qubits) if qubits is not None else tuple(range(self.n_qubits))
        if len(qs) != self.n_qubits or len(set(qs)) != len(qs):
            raise DimensionMismatch(
                f"circuit on {self.n_qubits} qubits cannot bind to targets {qs}"
            )
        if any(not 0 <= q < state.n_qubits for q in qs):
            raise IndexOutOfRange(f"targets {qs} outside state of {state.n_qubits} qubits")
        return qs


def _tensor(state: StateVector) -> np.ndarray:
    return state.amplitudes.reshape([2] * state.n_qubits)


def _state(arr: np.ndarray) -> StateVector:
    return StateVector(arr.ndim, np.ascontiguousarray(arr).reshape(-1))


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
    v = trace_overlap(u._unitary(CAP_PLAIN, cap), ut._unitary(CAP_PLAIN, cap))
    p = _clamp01(0.5 - 0.5 * abs(v) ** 2)
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
    v = trace_overlap(u._unitary(CAP_CONDITIONAL, cap), ut._unitary(CAP_CONDITIONAL, cap))
    p = _clamp01(0.5 - 0.5 * v.real)
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
    v = trace_overlap(circuit_unitary(u, cap=cap), ut._unitary(CAP_PLAIN, cap))
    p = _clamp01(1.0 - abs(v) ** 2)
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

