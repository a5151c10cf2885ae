"""Dense unitary simulation of quantum circuits.

Conventions used throughout the package:

* Qubit 0 is the MOST significant bit of a basis-state index, so for
  ``n = 2`` the order is ``|q0 q1>`` and index 2 means ``|10>``.  With
  numpy this makes axis ``j`` of a ``[2] * n`` tensor the axis of
  qubit ``j``.
* Circuits are ordered gate lists; ``gates[0]`` acts first, so the
  circuit unitary is ``G_s @ ... @ G_1``.
* All dense arithmetic is complex128.  Construction-time unitarity is
  checked to 1e-10; products of validated inputs are allowed a decade
  of accumulation slack (1e-9).
* There is one dense kernel, ``_contract``: a 2^k x 2^k matrix is
  contracted into k qubit axes of a ``[2] * n (+ batch axes)`` tensor,
  so it costs O(2^k) per entry and is never embedded as a 2^n x 2^n
  matrix.  Whole unitaries are built this way, from an identity tensor
  with the columns as one batch axis.
* Two circuits are compared on their window (``window``): strip the
  shared gate prefix A and suffix B, and the middles X and Y touch only
  m qubits.  Then U^dag Ut = A^dag (X^dag Y (x) I) A, so the overlap
  Tr(U^dag Ut) / 2^n = Tr(X^dag Y) / 2^m, the eigenphases and the
  distances all come from two 2^m x 2^m unitaries.

A size limit sits only where a 2^n object is built: ``circuit_unitary``
and ``one_gate_transfers`` refuse more than ``cap`` qubits (default
``DEFAULT_QUBIT_CAP``), so ``window`` bounds the width of the window,
not of the circuits.
Everything here is immutable after construction and safe to use from
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import (
    CapExceeded,
    DimensionMismatch,
    DuplicateTarget,
    IndexOutOfRange,
    NonUnitaryCustomGate,
)

DEFAULT_QUBIT_CAP = 12

INPUT_TOL = 1e-10
DERIVED_TOL = 1e-9

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class GateKind(str, Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"
    H = "H"
    S = "S"
    SDG = "SDG"
    T = "T"
    CNOT = "CNOT"
    CUSTOM = "CUSTOM"


FIXED_GATE_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    # CNOT: first listed target is the control (most significant of the pair).
    GateKind.CNOT: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}
for _m in FIXED_GATE_MATRICES.values():
    _m.setflags(write=False)

_GATE_ARITY = {k: 1 for k in GateKind}
_GATE_ARITY[GateKind.CNOT] = 2

# Hashes are built from numbers only, so they do not depend on the
# process's string-hash seed: a circuit's cached hash stays valid when
# it is pickled to another process.
_KIND_CODE = {k: i for i, k in enumerate(GateKind)}


def _check_unitary(m: np.ndarray, tol: float) -> None:
    d = m.shape[0]
    if m.shape != (d, d):
        raise NonUnitaryCustomGate(f"matrix is not square: shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.max(np.abs(m.conj().T @ m - np.eye(d)))
    if not defect <= tol:  # a nan defect fails too, so non-finite entries are rejected
        raise NonUnitaryCustomGate(f"unitarity defect {defect:.3e} exceeds {tol:.0e}")


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: a named kind or a custom 2^k x 2^k unitary on `targets`.

    Targets are an ordered tuple of distinct qubit indices; for CUSTOM
    gates the first target corresponds to the most significant bit of
    the supplied matrix.
    """

    kind: GateKind
    targets: tuple[int, ...]
    matrix: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if self.kind is not other.kind or self.targets != other.targets:
            return False
        if self.kind is GateKind.CUSTOM:
            return np.array_equal(self.matrix, other.matrix)
        return True

    def __hash__(self):
        # Python floats hash -0.0 like 0.0, as np.array_equal compares
        # them; the raw bytes would not.
        entries = tuple(self.matrix.ravel().tolist()) if self.kind is GateKind.CUSTOM else ()
        return hash((_KIND_CODE[self.kind], self.targets, entries))

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if len(set(self.targets)) != len(self.targets):
            raise DuplicateTarget(f"repeated target in {self.targets}")
        if any(t < 0 for t in self.targets):
            raise IndexOutOfRange(f"negative target in {self.targets}")
        if self.kind is GateKind.CUSTOM:
            if self.matrix is None:
                raise NonUnitaryCustomGate("CUSTOM gate requires a matrix")
            m = np.array(self.matrix, dtype=complex)
            if m.shape != (2 ** len(self.targets),) * 2:
                raise NonUnitaryCustomGate(
                    f"matrix shape {m.shape} does not match {len(self.targets)} targets"
                )
            _check_unitary(m, INPUT_TOL)
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            if self.matrix is not None:
                raise NonUnitaryCustomGate("only CUSTOM gates carry a matrix")
            if len(self.targets) != _GATE_ARITY[self.kind]:
                raise IndexOutOfRange(
                    f"{self.kind.value} takes {_GATE_ARITY[self.kind]} target(s), "
                    f"got {self.targets}"
                )

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def unitary(self) -> np.ndarray:
        """The gate's own 2^k x 2^k matrix (not embedded)."""
        if self.kind is GateKind.CUSTOM:
            return self.matrix
        return FIXED_GATE_MATRICES[self.kind]


def gate(kind: str | GateKind, *targets: int) -> Gate:
    """Shorthand constructor for named gates: ``gate("H", 0)``."""
    return Gate(GateKind(kind), tuple(targets))


def custom_gate(matrix: np.ndarray, *targets: int) -> Gate:
    """Shorthand constructor for a custom unitary on the given targets."""
    return Gate(GateKind.CUSTOM, tuple(targets), np.asarray(matrix, dtype=complex))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence on `n_qubits` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_qubits < 1:
            raise IndexOutOfRange(f"n_qubits must be >= 1, got {self.n_qubits}")
        for g in self.gates:
            for t in g.targets:
                if t >= self.n_qubits:
                    raise IndexOutOfRange(
                        f"target {t} outside circuit of {self.n_qubits} qubits"
                    )

    def __hash__(self):
        # Computed once per object: a circuit may key many table lookups.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n_qubits, self.gates))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def n_gates(self) -> int:
        return len(self.gates)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """A dense 2^n x 2^n unitary, checked at construction."""

    matrix: np.ndarray
    tol: float = INPUT_TOL

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n = int(round(np.log2(m.shape[0])))
        if m.shape != (2**n, 2**n):
            raise DimensionMismatch(f"dimension {m.shape} is not a square power of 2")
        _check_unitary(m, self.tol)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def _contract(arr: np.ndarray, matrix: np.ndarray, targets) -> np.ndarray:
    """Contract a 2^k x 2^k `matrix` into the k `targets` axes of `arr`.

    The first target binds to the matrix's most significant bit.  Every
    other axis of `arr` is carried along untouched (used to batch
    matrix columns).
    """
    k = len(targets)
    gt = matrix.reshape([2] * (2 * k))
    out = np.tensordot(gt, arr, axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(out, list(range(k)), list(targets))


def circuit_unitary(c: Circuit, cap: int = DEFAULT_QUBIT_CAP) -> UnitaryMatrix:
    """Product of the gate unitaries in application order.

    Each gate is contracted into an identity tensor at O(4^n * 2^k) cost,
    never embedded as a full matrix.  Every gate was checked when it was
    built, so unitarity is checked once, on the finished product.
    """
    if c.n_qubits > cap:
        raise CapExceeded(f"{c.n_qubits} qubits exceeds dense cap {cap}")
    n = c.n_qubits
    dim = 2**n
    arr = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    for g in c.gates:
        arr = _contract(arr, g.unitary(), g.targets)
    return UnitaryMatrix(arr.reshape(dim, dim), tol=DERIVED_TOL)


def one_gate_transfers(
    c: Circuit, replacements: Sequence[tuple[int, Gate]], cap: int = DEFAULT_QUBIT_CAP
) -> list[np.ndarray]:
    """V = P_i^dag (G_i^dag Gt (x) I) P_i for each replacement (i, Gt) of `c`.

    P_i is the product of the gates before position i, so `c` with
    gate i replaced by Gt has unitary U V, and two such circuits
    have Tr(U_a^dag U_b) = Tr(V_a^dag V_b): the gates after a
    replacement are never needed.  One sweep over the gates holds one
    live prefix; each V then costs one contraction and one matmul.
    """
    if c.n_qubits > cap:
        raise CapExceeded(f"{c.n_qubits} qubits exceeds dense cap {cap}")
    n = c.n_qubits
    dim = 2**n
    prefix = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    swept = 0
    out: list = [None] * len(replacements)
    order = sorted(range(len(replacements)), key=lambda r: replacements[r][0])
    for pos, group in groupby(order, key=lambda r: replacements[r][0]):
        for g in c.gates[swept:pos]:
            prefix = _contract(prefix, g.unitary(), g.targets)
        swept = pos
        original = c.gates[pos]
        g_dag = original.unitary().conj().T
        p_dag = prefix.reshape(dim, dim).conj().T
        for r in group:
            diff = g_dag @ replacements[r][1].unitary()
            out[r] = p_dag @ _contract(prefix, diff, original.targets).reshape(dim, dim)
    return out


def window(
    a: Circuit, b: Circuit, cap: int = DEFAULT_QUBIT_CAP
) -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """The unitaries X and Y of the middles where `a` and `b` differ.

    The gate lists are cut into a shared prefix A, the middles and a
    shared suffix B, so U^dag Ut = A^dag (X^dag Y (x) I) A.  X and Y act
    on the m qubits the middles touch, relabelled 0..m-1 in increasing
    order, and carry every quantity that depends only on U^dag Ut's
    spectrum: Tr(U^dag Ut) / 2^n = Tr(X^dag Y) / 2^m, the eigenphases,
    and the phase-aligned residual per dimension.  Equal lists give two
    1-qubit identities.  `cap` bounds m, so the circuits may have any
    width.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(f"widths differ: {a.n_qubits} vs {b.n_qubits} qubits")
    ga, gb = a.gates, b.gates
    shorter = min(len(ga), len(gb))
    start = 0
    while start < shorter and ga[start] == gb[start]:
        start += 1
    end = 0
    while end < shorter - start and ga[-1 - end] == gb[-1 - end]:
        end += 1
    middles = (ga[start : len(ga) - end], gb[start : len(gb) - end])
    qubits = sorted({t for middle in middles for g in middle for t in g.targets})
    label = {q: i for i, q in enumerate(qubits)}
    m = max(len(qubits), 1)

    def unitary(middle) -> UnitaryMatrix:
        relabelled = (Gate(g.kind, tuple(label[t] for t in g.targets), g.matrix) for g in middle)
        return circuit_unitary(Circuit(m, tuple(relabelled)), cap=cap)

    return unitary(middles[0]), unitary(middles[1])
