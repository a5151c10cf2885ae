"""Black-box comparison protocols: swap, conditional and inverse tests.

The protocols never read a wrapped circuit's gate list; they only use
the access the black box grants (plain or conditional application).
Each protocol fires with a probability that depends only on the overlap
v = Tr(U^dag Ut) / 2^n, and v = Tr(X^dag Y) / 2^m on the window where
the two circuits differ (`core.window`: strip the shared gate prefix
and suffix, keep the m qubits the middles X and Y touch).  The box's
one reader, `_window`, returns those two 2^m x 2^m unitaries to a
caller holding the capability a protocol needs, so the hidden circuits
stay inside the box.  `cap` bounds the window's m, as for `distance`,
so the circuits may have any width.  Shot outcomes are drawn from the
analytic Bernoulli parameter, which has exactly the same distribution
as simulating the full test circuit shot by shot but keeps 10^5-shot
runs instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import DEFAULT_QUBIT_CAP, Circuit, UnitaryMatrix, window
from .errors import CapabilityMissing
from .metrics import _clamp01, trace_overlap
from .seeding import rng_from_seed

CAP_PLAIN = "plain"
CAP_CONDITIONAL = "conditional"
ALL_CAPABILITIES = frozenset({CAP_PLAIN, CAP_CONDITIONAL})


class BlackBoxUnitary:
    """Opaque handle over a circuit, exposing only gated access.

    The wrapped gate list is not reachable through the public surface;
    protocols see the qubit count, and the unitary only as its window
    against another circuit, through `_window` with a capability the
    flags allow.
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

    def _window(
        self, capability: str, other: Circuit | BlackBoxUnitary, cap: int = DEFAULT_QUBIT_CAP
    ) -> tuple[UnitaryMatrix, UnitaryMatrix]:
        """The window unitaries (X, Y) of `other` (U) against the hidden circuit (Ut).

        Both boxes must grant `capability` when `other` is a box.
        """
        self.require(capability)
        if isinstance(other, BlackBoxUnitary):
            other.require(capability)
            other = other.__circuit
        return window(other, self.__circuit, cap=cap)


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
    v = trace_overlap(*ut._window(CAP_PLAIN, u, cap))
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
    v = trace_overlap(*ut._window(CAP_CONDITIONAL, u, cap))
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
    v = trace_overlap(*ut._window(CAP_PLAIN, u, cap))
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
    # -log(delta), not log(1/delta): 1/delta overflows for subnormal delta.
    runs = math.ceil(-math.log(delta) / p_min)
    if runs == 0:
        return "equal", 0
    return tester(runs).verdict, runs

