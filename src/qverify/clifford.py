"""Signed Pauli strings and Clifford tableaux over F2.

A Pauli string is stored as two n-bit integers (x, z) plus a phase
exponent t mod 4, meaning the operator

    i^t * prod_j X^x_j Z^z_j         (per qubit j)

The (x_j, z_j) pair encodes the letter: 00=I, 10=X, 01=Z, 11=Y.  Since
XZ = -iY, the coefficient in front of the letter form is
i^(t - #Y) and the string is Hermitian exactly when t and #Y have the
same parity.  Tracking t mod 4 (rather than just a sign) makes Pauli
multiplication exact.

A Clifford tableau stores the conjugated images U X_j U^dag and
U Z_j U^dag for j = 0..n-1 as rows (x, z, t) in generator order: X_j at
row j, Z_j at row n + j, so row g is selected by bit g of x | z << n.
Construction walks the circuit gate by gate on a column-major bit
representation (a gate touches only its target columns), then
transposes the whole column block into rows at once.  The inverse
circuit's tableau walks the gates backwards, each inverted.  The same
backwards walk, seeded with R Paulis instead of the 2n generators,
pulls all R back through the circuit with no tableau at all
(`_pull_back_batch`).  One product rule (`_product`) and one
conjugation loop (`_conjugate`) serve the tableaux here and the error
finder's Pauli frames; `PauliString` wraps a row only where a caller
needs the object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Circuit, Gate, GateKind
from .errors import DimensionMismatch, NonCliffordGate

# Hex digit j of x + 2z, when x and z are written in binary and read as hex.
_LETTER_OF_DIGIT = str.maketrans("0123", "IXZY")

CLIFFORD_GATE_KINDS = frozenset(
    {GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG, GateKind.CNOT}
)


@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli in (x bits, z bits, phase exponent) form."""

    n: int
    x: int
    z: int
    phase_t: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        object.__setattr__(self, "x", self.x & mask)
        object.__setattr__(self, "z", self.z & mask)
        object.__setattr__(self, "phase_t", self.phase_t % 4)

    @classmethod
    def from_bits(cls, n: int, x: int, z: int, sign: int = 1) -> PauliString:
        """Hermitian string with the given letter bits and sign (+1/-1)."""
        mask = (1 << n) - 1
        x &= mask
        z &= mask
        y = (x & z).bit_count()
        t = (y + (0 if sign > 0 else 2)) % 4
        return cls(n, x, z, t)

    @classmethod
    def from_label(cls, label: str) -> PauliString:
        """Parse '+XIZY' / '-IYZI' (optional +, -, +i, -i prefix)."""
        s = label.strip()
        t_extra = 0
        for prefix, t in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if s.startswith(prefix):
                t_extra = t
                s = s[len(prefix) :]
                break
        x = z = 0
        for j, ch in enumerate(s):
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli letter {ch!r} in {label!r}")
            if ch in "XY":
                x |= 1 << j
            if ch in "ZY":
                z |= 1 << j
        y = (x & z).bit_count()
        return cls(len(s), x, z, (y + t_extra) % 4)

    def letters(self) -> str:
        guard = 1 << self.n  # keeps leading I letters as digits
        digits = int(f"{self.x | guard:b}", 16) + 2 * int(f"{self.z | guard:b}", 16)
        return f"{digits:x}"[:0:-1].translate(_LETTER_OF_DIGIT)

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def sign(self) -> int:
        """+1 or -1; only defined on Hermitian strings."""
        r = (self.phase_t - self.y_count) % 4
        if r == 0:
            return 1
        if r == 2:
            return -1
        raise ValueError(f"{self} is not Hermitian")

    def __str__(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[(self.phase_t - self.y_count) % 4]
        return prefix + self.letters()


_Pauli = tuple[int, int, int]  # (x, z, t): i^t X^x Z^z, a tableau row


def _product(a: _Pauli, b: _Pauli) -> _Pauli:
    """Exact product a b: bits XOR, phase picks up i^2 per Z-over-X swap."""
    (ax, az, at), (bx, bz, bt) = a, b
    return ax ^ bx, az ^ bz, (at + bt + 2 * (az & bx).bit_count()) % 4


def _conjugate(rows, x: int, z: int, t: int) -> _Pauli:
    """i^t X^x Z^z with each generator replaced by its row: row g for
    bit g of x | z << m, on m = len(rows) // 2 qubits."""
    vec = x | z << (len(rows) >> 1)
    acc_x = acc_z = 0
    while vec:
        rx, rz, rt = rows[(vec & -vec).bit_length() - 1]
        vec &= vec - 1
        t += rt + 2 * (acc_z & rx).bit_count()
        acc_x ^= rx
        acc_z ^= rz
    return acc_x, acc_z, t % 4


def random_pauli(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform over all 4^n strings (identity included), sign +1."""
    nbytes = (n + 7) // 8
    raw = rng.bytes(2 * nbytes)
    x = int.from_bytes(raw[:nbytes], "little")
    z = int.from_bytes(raw[nbytes:], "little")
    return PauliString.from_bits(n, x, z, 1)


@dataclass(frozen=True)
class CliffordTableau:
    """Images of the 2n Pauli generators under conjugation.

    rows[j] = U X_j U^dag for j < n, rows[n + j] = U Z_j U^dag, each a
    Hermitian (x, z, t) triple.
    """

    n: int
    rows: tuple[_Pauli, ...]


def _transpose(vectors: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of result i is bit i of vectors[j],
    for `width`-bit vectors.  n-bit rows become columns and back."""
    nbytes = (width + 7) // 8
    block = b"".join(v.to_bytes(nbytes, "little") for v in vectors)
    # Byte b of every vector, then unpacked: bits[i] holds bit i of every vector.
    by_byte = np.frombuffer(block, dtype=np.uint8).reshape(len(vectors), nbytes).T.copy()
    bits = np.unpackbits(by_byte, axis=0, count=width, bitorder="little")
    packed = np.packbits(bits, axis=1, bitorder="little").tobytes()
    step = (len(vectors) + 7) // 8
    return [int.from_bytes(packed[i * step : (i + 1) * step], "little") for i in range(width)]


class _ColumnTableau:
    """Mutable column-major Pauli frames, walked through a circuit.

    Bit g of colx[q] / colz[q] is the x/z component at qubit q of frame
    g, and bit g of signs is 1 when frame g carries a minus sign.  By
    default the 2n frames are the generators (g < n: X_g, else Z_{g-n}),
    which a walk turns into tableau rows.  Seeded with R Hermitian rows
    instead, one walk moves all R Paulis at once (Pauli-frame
    simulation, as in Gidney 2021, arXiv:2103.02202).  A gate touches
    only its target columns, so a walk is O(gates) big-int operations.
    """

    def __init__(self, n: int, frames: list[_Pauli] | None = None):
        self.n = n
        if frames is None:
            self.width = 2 * n
            self.colx = [1 << q for q in range(n)]
            self.colz = [1 << (n + q) for q in range(n)]
            self.signs = 0
        else:
            self.width = len(frames)
            columns = _transpose([x | z << n for x, z, _ in frames], 2 * n)
            self.colx, self.colz = columns[:n], columns[n:]
            self.signs = sum(
                (((t - (x & z).bit_count()) >> 1) & 1) << g for g, (x, z, t) in enumerate(frames)
            )

    def apply(self, kind: GateKind, targets: tuple[int, ...]) -> None:
        if kind not in CLIFFORD_GATE_KINDS:
            raise NonCliffordGate(f"{kind.value} is not a Clifford gate")
        if kind is GateKind.I:
            return
        if kind is GateKind.CNOT:
            c, t = targets
            self.signs ^= self.colx[c] & self.colz[t] & ~(self.colx[t] ^ self.colz[c])
            self.colx[t] ^= self.colx[c]
            self.colz[c] ^= self.colz[t]
            return
        (q,) = targets
        if kind is GateKind.H:
            self.signs ^= self.colx[q] & self.colz[q]
            self.colx[q], self.colz[q] = self.colz[q], self.colx[q]
        elif kind is GateKind.S:
            self.signs ^= self.colx[q] & self.colz[q]
            self.colz[q] ^= self.colx[q]
        elif kind is GateKind.SDG:
            self.colz[q] ^= self.colx[q]
            self.signs ^= self.colx[q] & self.colz[q]
        elif kind is GateKind.X:
            self.signs ^= self.colz[q]
        elif kind is GateKind.Z:
            self.signs ^= self.colx[q]
        else:  # Y
            self.signs ^= self.colx[q] ^ self.colz[q]

    def apply_inverse(self, kind: GateKind, targets: tuple[int, ...]) -> None:
        """Apply the gate's inverse: S and SDG swap, the others are self-inverse."""
        self.apply(_INVERSE_KIND.get(kind, kind), targets)

    def rows(self) -> list[_Pauli]:
        """The frames as Hermitian rows (x, z, t), transposed out of the columns at once."""
        n, mask = self.n, (1 << self.n) - 1
        rows = []
        for g, vec in enumerate(_transpose(self.colx + self.colz, self.width)):
            x, z = vec & mask, vec >> n
            rows.append((x, z, ((x & z).bit_count() + 2 * ((self.signs >> g) & 1)) % 4))
        return rows

    def to_tableau(self) -> CliffordTableau:
        return CliffordTableau(self.n, tuple(self.rows()))


def tableau_from_circuit(c: Circuit) -> CliffordTableau:
    """Walk the circuit and return the conjugation tableau.

    Raises NonCliffordGate on T or CUSTOM gates.
    """
    cols = _ColumnTableau(c.n_qubits)
    for g in c.gates:
        cols.apply(g.kind, g.targets)
    return cols.to_tableau()


# S and SDG invert each other; every other tableau gate is self-inverse.
_INVERSE_KIND = {GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S}


def _walk_dagger(c: Circuit, cols: _ColumnTableau) -> _ColumnTableau:
    """Conjugate every frame of cols by U^dag for U = c: the gates walked
    backwards, each inverted.  Raises NonCliffordGate on T or CUSTOM gates."""
    for g in reversed(c.gates):
        cols.apply_inverse(g.kind, g.targets)
    return cols


def tableau_dagger(c: Circuit) -> CliffordTableau:
    """Tableau of the inverse circuit: the generators walked back through c.

    Raises NonCliffordGate on T or CUSTOM gates.
    """
    return _walk_dagger(c, _ColumnTableau(c.n_qubits)).to_tableau()


def _pull_back_batch(c: Circuit, paulis: list[PauliString]) -> list[PauliString]:
    """U^dag p U for every Hermitian p, signs included, for U = c: one walk
    of all the Paulis as frames, with no tableau and no conjugation."""
    n = c.n_qubits
    frames = _ColumnTableau(n, [(p.x, p.z, p.phase_t) for p in paulis])
    return [PauliString(n, *row) for row in _walk_dagger(c, frames).rows()]


def conjugate_pauli(t: CliffordTableau, p: PauliString) -> PauliString:
    """U p U^dag: expand p over generators and multiply their images."""
    if t.n != p.n:
        raise DimensionMismatch(f"tableau on {t.n} qubits, Pauli on {p.n}")
    return PauliString(t.n, *_conjugate(t.rows, p.x, p.z, p.phase_t))


def _difference_kernel(a: CliffordTableau, b: CliffordTableau):
    """Yield a basis of the kernel K of M_a - M_b over GF(2): the Paulis
    both tableaux send to the same letters (bit g selects generator g).

    One elimination of the rows M_a[g] + M_b[g] tracks which rows each
    reduced row combines; a row reduced to zero yields its combination.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n} qubits")
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (reduced row, combination)
    for g, ((ax, az, _), (bx, bz, _)) in enumerate(zip(a.rows, b.rows)):
        row, combination = (ax ^ bx) | (az ^ bz) << a.n, 1 << g
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = (row, combination)
                break
            row ^= basis[lead][0]
            combination ^= basis[lead][1]
        else:
            yield combination


def symplectic_rank_diff(a: CliffordTableau, b: CliffordTableau) -> int:
    """GF(2) rank of M_a - M_b."""
    return 2 * a.n - sum(1 for _ in _difference_kernel(a, b))


def differing_pauli_fraction(a: CliffordTableau, b: CliffordTableau) -> float:
    """Fraction of the 4^n Paulis whose images differ (ignoring signs)."""
    return 1.0 - 2.0 ** (-symplectic_rank_diff(a, b))


def tableau_equal(a: CliffordTableau, b: CliffordTableau) -> bool:
    """True when all generator images agree, signs included."""
    return a.n == b.n and a.rows == b.rows


def random_clifford_circuit(n: int, length: int, rng: np.random.Generator) -> Circuit:
    """Uniform i.i.d. gates from {H, S, CNOT, X, Y, Z} on random targets.

    This samples circuits, not uniformly random Clifford group
    elements; spread is good enough for testing purposes.
    """
    one_qubit = (GateKind.H, GateKind.S, GateKind.X, GateKind.Y, GateKind.Z)
    gates = []
    for _ in range(length):
        if n >= 2 and rng.integers(0, 6) == 5:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(Gate(GateKind.CNOT, (int(c), int(t))))
        else:
            kind = one_qubit[rng.integers(0, len(one_qubit))]
            gates.append(Gate(kind, (int(rng.integers(0, n)),)))
    return Circuit(n, tuple(gates))
