"""Distance and fidelity quantities between two unitaries.

Two distances matter here.  The average-case distance

    D(U, V) = sqrt(1 - |Tr(U^dag V) / 2^n|^2)

is what a Choi-state swap test detects (with per-shot probability
D^2 / 2).  The worst-case distance

    Dmax(U, V) = max_phi sqrt(1 - |<phi| U^dag V |phi>|^2)

is the verification target.  Since W = U^dag V is unitary, the set
{<phi|W|phi>} is the convex hull of W's eigenvalues on the unit
circle, so Dmax follows from the shortest arc holding W's
eigenphases.  This module computes both exactly, plus the
single-gate transfer identities and the named adversarial examples.

Every quantity here depends on U and V only through W's spectrum and
its overlap per dimension, so it may be given the window unitaries X
and Y of two circuits (`core.window`) in place of the full ones: W is
A^dag (X^dag Y (x) I) A there, with the same eigenphases, the same
Tr(W) / 2^n = Tr(X^dag Y) / 2^m and the same phase-aligned residual
per dimension.  Only theorem 1's bound needs the full width n.  The
matrices arrive built under `circuit_unitary`'s width cap, so nothing
here takes a cap of its own, bar the two example builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_QUBIT_CAP,
    Circuit,
    Gate,
    GateKind,
    UnitaryMatrix,
)
from .errors import CapExceeded, DimensionMismatch, IndexOutOfRange, TargetMismatch


def _clamp01(v: float) -> float:
    # Snap to the exact boundary: equal circuits must never fire (the
    # tests are one-sided), but rounding leaves p ~ 1e-16 after the
    # overlap computation.
    if v < 1e-12:
        return 0.0
    if v > 1.0 - 1e-12:
        return 1.0
    return v


def _check_same_dim(u: UnitaryMatrix, ut: UnitaryMatrix) -> None:
    if u.dim != ut.dim:
        raise DimensionMismatch(f"dimensions differ: {u.dim} vs {ut.dim}")


def trace_overlap(u: UnitaryMatrix, ut: UnitaryMatrix) -> complex:
    """(1/2^n) Tr(U^dag V); modulus at most 1 up to rounding."""
    _check_same_dim(u, ut)
    return complex(np.vdot(u.matrix, ut.matrix)) / u.dim


def _avg_distance_sq(u: UnitaryMatrix, ut: UnitaryMatrix, v: complex) -> float:
    """D^2 = (1 - |v|)(1 + |v|) for the overlap v of (u, ut).

    1 - |v| comes from the phase-aligned residual ||U - e^{-i arg v} V||_F^2 / 2d,
    which stays accurate relative to its own size as V -> U, where
    1 - |v|^2 is left with rounding of order 1e-16 (and D with 1e-8).
    """
    modulus = abs(v)
    residual = u.matrix - (v.conjugate() / modulus if modulus else 1.0) * ut.matrix
    return float(np.vdot(residual, residual).real) / (2 * u.dim) * (1.0 + modulus)


def avg_distance(u: UnitaryMatrix, ut: UnitaryMatrix) -> float:
    """sqrt(1 - |trace_overlap|^2), the average-case distance D."""
    return math.sqrt(_avg_distance_sq(u, ut, trace_overlap(u, ut)))


def worst_distance(u: UnitaryMatrix, ut: UnitaryMatrix) -> float:
    """The worst-case distance Dmax from the eigenphases of W = U^dag V.

    W is unitary, so its eigenvalues lie on the unit circle.  If the
    shortest arc holding them all is shorter than pi, their hull lies
    cos(arc/2) from the origin and Dmax = sin(arc/2); otherwise Dmax = 1.
    """
    _check_same_dim(u, ut)
    phases = np.sort(np.angle(np.linalg.eigvals(u.matrix.conj().T @ ut.matrix)))
    arc = 2 * math.pi - float(np.diff(phases, append=phases[0] + 2 * math.pi).max())
    return math.sin(min(max(arc, 0.0), math.pi) / 2)


@dataclass(frozen=True)
class DistanceReport:
    """All comparison quantities for one pair of unitaries.

    p_swap is the per-shot detection probability of the Choi swap test
    (D^2/2); p_conditional the one of the conditional test, which is
    sensitive to the relative phase.
    """

    trace_overlap: complex
    avg_distance: float
    worst_distance: float
    ent_fidelity: float
    p_swap: float
    p_conditional: float


def detection_probabilities(u: UnitaryMatrix, ut: UnitaryMatrix) -> DistanceReport:
    """Populate a DistanceReport for the pair (u, ut)."""
    v = trace_overlap(u, ut)
    d2 = _avg_distance_sq(u, ut, v)
    return DistanceReport(
        trace_overlap=v,
        avg_distance=_clamp01(math.sqrt(d2)),
        worst_distance=worst_distance(u, ut),
        ent_fidelity=_clamp01(abs(v) ** 2),
        p_swap=_clamp01(d2 / 2.0),
        p_conditional=_clamp01(0.5 - v.real / 2.0),
    )


def theorem1(report: DistanceReport, n_qubits: int) -> tuple[float, float, bool]:
    """Dmax <= 2^((n+1)/2) * D on an n-qubit report; returns (lhs, rhs, holds).

    From n = 2047 the factor passes the float range: rhs is then inf
    when D > 0 and 0.0 when D = 0.
    """
    d = report.avg_distance
    try:
        rhs = 2.0 ** ((n_qubits + 1) / 2.0) * d
    except OverflowError:
        rhs = math.inf if d else 0.0
    return report.worst_distance, rhs, report.worst_distance <= rhs + 1e-9


def verify_theorem1(u: UnitaryMatrix, ut: UnitaryMatrix) -> tuple[float, float, bool]:
    """Check Dmax <= 2^((n+1)/2) * D; returns (lhs, rhs, holds)."""
    return theorem1(detection_probabilities(u, ut), u.n_qubits)


def one_gate_pair(base: Circuit, position: int, replacement: Gate) -> tuple[Circuit, Circuit]:
    """The pair (base, base-with-one-replaced-gate).

    The replacement must act on the same ordered target tuple as the
    original, which guarantees the factorisation U = U1 (G x I) U2,
    Ut = U1 (Gt x I) U2 and hence the transfer identities
    D(U, Ut) = D(G, Gt) and Dmax(U, Ut) = Dmax(G, Gt).
    """
    if not 0 <= position < base.n_gates:
        raise IndexOutOfRange(f"gate position {position} outside 0..{base.n_gates - 1}")
    original = base.gates[position]
    if replacement.targets != original.targets:
        raise TargetMismatch(
            f"replacement targets {replacement.targets} differ from {original.targets}"
        )
    modified = list(base.gates)
    modified[position] = replacement
    return base, Circuit(base.n_qubits, tuple(modified))


def multi_controlled_not(n_qubits: int) -> np.ndarray:
    """The C^(n-1)NOT matrix: X on the last qubit when all others are 1."""
    dim = 2**n_qubits
    m = np.eye(dim, dtype=complex)
    m[dim - 2 : dim, dim - 2 : dim] = np.array([[0, 1], [1, 0]], dtype=complex)
    return m


def two_fault_example(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> tuple[Circuit, Circuit]:
    """The adversarial two-fault pair built around V = C^(n-1)NOT.

    U = (I x H) V (I x H) and Ut = V: dropping the two Hadamards leaves
    Tr(U^dag Ut) = 2^n - 2, so D is exponentially small while Dmax = 1.
    """
    if not 2 <= n_qubits <= cap:
        raise CapExceeded(f"two_fault_example needs 2 <= n <= {cap}, got {n_qubits}")
    v = Gate(GateKind.CUSTOM, tuple(range(n_qubits)), multi_controlled_not(n_qubits))
    h_last = Gate(GateKind.H, (n_qubits - 1,))
    u = Circuit(n_qubits, (h_last, v, h_last))
    ut = Circuit(n_qubits, (v,))
    return u, ut


def flipped_diagonal_pair(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """Identity vs identity-with-one-negated-diagonal-entry.

    The needle-in-a-haystack pair: Dmax = 1 while D = sqrt(4/2^n - 4/2^2n)
    is exponentially small.
    """
    if n_qubits > cap:
        raise CapExceeded(f"{n_qubits} qubits exceeds dense cap {cap}")
    dim = 2**n_qubits
    flipped = np.eye(dim, dtype=complex)
    flipped[dim - 1, dim - 1] = -1.0
    return UnitaryMatrix(np.eye(dim, dtype=complex)), UnitaryMatrix(flipped)
