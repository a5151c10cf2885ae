"""Randomized equality test between a known and a black-box Clifford.

One round: draw a uniformly random Pauli P, classically pull it back
to Q = U^dag P U, prepare a random product-state eigenstate of Q with
known eigenvalue, run the black box once on it and measure P.  Equal
circuits reproduce the eigenvalue with probability 1; distinct
Cliffords flip it with constant probability, either because their
symplectic maps differ on at least half of all Paulis or because they
differ by a nonidentity Pauli factor (which anticommutes with half of
all P).

The black box measures through the tableau of its inverse circuit, so
a round costs O(n + gates) classical work and runs at hundreds of
qubits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import (
    CliffordTableau,
    PauliString,
    _difference_kernel,
    conjugate_pauli,
    random_pauli,
    tableau_dagger,
    tableau_from_circuit,
)
from .core import Circuit, Gate, GateKind
from .errors import CandidateNotFound, CapExceeded, DimensionMismatch
from .seeding import rng_from_seed


@dataclass(frozen=True)
class EigenstatePrep:
    """Product eigenstate of the pulled-back Pauli q, as bit masks.

    Where q has a letter, qubit j holds its +1 eigenstate, or its -1
    eigenstate when bit j of `signs` is set.  Where q is the identity
    (the T+ qubits), it holds (|0> + e^(i pi/4)|1>)/sqrt(2), whose X and
    Y expectations are 1/sqrt(2) and whose Z expectation is 0.
    """

    q: PauliString
    signs: int

    def __post_init__(self):
        if self.signs & ~(self.q.x | self.q.z):
            raise ValueError("sign bits must lie on the support of q")

    @property
    def eigenvalue(self) -> int:
        """q |psi_in> = eigenvalue |psi_in>."""
        return -self.q.sign() if self.signs.bit_count() & 1 else self.q.sign()


def prepare_input(q: PauliString, rng: np.random.Generator) -> EigenstatePrep:
    """Random product-state eigenstate of the Hermitian Pauli q.

    Each non-identity position gets the +1 or -1 eigenstate of its
    letter (a fair coin each); identity positions get the T+ state.
    """
    coins = rng.integers(0, 2, size=q.n).astype(np.uint8)
    drawn = int.from_bytes(np.packbits(coins, bitorder="little").tobytes(), "little")
    return EigenstatePrep(q, drawn & (q.x | q.z))


def expectation_on_prep(prep: EigenstatePrep, p: PauliString) -> float:
    """<psi_in| p |psi_in> for the Hermitian Pauli p.

    Zero when p's letter differs from q's where both are non-identity,
    or when p has a Z on a T+ qubit.  Otherwise sign(p), flipped by each
    drawn -1 under p, times 1/sqrt(2) per T+ qubit where p has X or Y.
    """
    q = prep.q
    if p.n != q.n:
        raise DimensionMismatch(f"{p.n} vs {q.n} qubits")
    support_q = q.x | q.z
    support_p = p.x | p.z
    tplus = support_p & ~support_q
    if ((p.x ^ q.x) | (p.z ^ q.z)) & support_p & support_q:
        return 0.0
    if p.z & ~p.x & tplus:
        return 0.0
    sign = -p.sign() if (prep.signs & support_p).bit_count() & 1 else p.sign()
    return sign * 2.0 ** (-0.5 * tplus.bit_count())


class CliffordBlackBox:
    """Runnable-but-opaque Clifford circuit.

    run_and_measure prepares the given product state, runs the hidden
    circuit once and measures the given Pauli observable, returning a
    single +-1 sample drawn from the exact expectation, which is
    computed through the hidden inverse tableau.
    """

    def __init__(self, circuit: Circuit):
        self._dagger_tableau = tableau_dagger(circuit)

    @property
    def n_qubits(self) -> int:
        return self._dagger_tableau.n

    def measurement_expectation(self, prep: EigenstatePrep, observable: PauliString) -> float:
        """E[sample] = <psi_in| U^dag P U |psi_in> for the hidden U."""
        return expectation_on_prep(prep, conjugate_pauli(self._dagger_tableau, observable))

    def run_and_measure(
        self, prep: EigenstatePrep, observable: PauliString, rng: np.random.Generator
    ) -> int:
        e = min(1.0, max(-1.0, self.measurement_expectation(prep, observable)))
        return 1 if rng.random() < (1.0 + e) / 2.0 else -1


@dataclass(frozen=True)
class TestRun:
    """One round: observable, its pullback, known eigenvalue, sample."""

    pauli: PauliString
    conjugated: PauliString
    eigenvalue: int
    outcome: int

    @property
    def rejected(self) -> bool:
        return self.outcome != self.eigenvalue


@dataclass(frozen=True)
class CliffordTestReport:
    runs: tuple[TestRun, ...]
    verdict: str
    per_run_detection_estimate: float
    seed: int


def run_test_once(
    u_dagger_tableau: CliffordTableau, ut: CliffordBlackBox, rng: np.random.Generator
) -> TestRun:
    """One randomized round against the precomputed tableau of U^dag."""
    p = random_pauli(u_dagger_tableau.n, rng)
    q = conjugate_pauli(u_dagger_tableau, p)
    prep = prepare_input(q, rng)
    outcome = ut.run_and_measure(prep, p, rng)
    return TestRun(pauli=p, conjugated=q, eigenvalue=prep.eigenvalue, outcome=outcome)


def equivalence_verdict(
    u: Circuit, ut: CliffordBlackBox, repetitions: int, seed: int
) -> CliffordTestReport:
    """Run the test `repetitions` times with fresh Paulis; one-sided.

    Equal circuits are never rejected; a single eigenvalue mismatch
    proves the circuits differ.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if u.n_qubits != ut.n_qubits:
        raise DimensionMismatch(f"{u.n_qubits} vs {ut.n_qubits} qubits")
    td = tableau_dagger(u)
    runs = tuple(run_test_once(td, ut, rng_from_seed(seed, i)) for i in range(repetitions))
    rejections = sum(r.rejected for r in runs)
    return CliffordTestReport(
        runs=runs,
        verdict="different" if rejections else "equal",
        per_run_detection_estimate=rejections / repetitions,
        seed=seed,
    )


def detection_probability_exact(u: Circuit, ut: Circuit, max_qubits: int = 7) -> float:
    """Exact per-round rejection probability, averaged over all 4^n
    Paulis and all eigenstate sign draws.

    The sign draws average out analytically.  A drawn sign at a qubit
    where the hidden pullback has I flips the eigenvalue but not the
    expectation, so lambda * E averages to 0 (a fair coin).  Otherwise
    every drawn sign flips both and cancels, and the all-plus draw
    stands for all of them.
    """
    n = u.n_qubits
    if n > max_qubits:
        raise CapExceeded(f"exact enumeration capped at {max_qubits} qubits")
    if ut.n_qubits != n:
        raise DimensionMismatch(f"{n} vs {ut.n_qubits} qubits")
    td_u = tableau_dagger(u)
    td_ut = tableau_dagger(ut)
    total = 0.0
    for bits in range(4**n):
        p = _pauli_from_index(n, bits)
        q = conjugate_pauli(td_u, p)
        qt = conjugate_pauli(td_ut, p)
        agreement = 0.0
        if not (q.x | q.z) & ~(qt.x | qt.z):
            prep = EigenstatePrep(q, 0)
            agreement = prep.eigenvalue * expectation_on_prep(prep, qt)
        total += (1.0 - agreement) / 2.0
    return total / 4**n


def _pauli_from_index(n: int, bits: int) -> PauliString:
    """Enumerate P^n: two bits per qubit, (x, z) interleaved."""
    x = z = 0
    for j in range(n):
        x |= ((bits >> (2 * j)) & 1) << j
        z |= ((bits >> (2 * j + 1)) & 1) << j
    return PauliString.from_bits(n, x, z, 1)


# ---------------------------------------------------------------------------
# Error finding

_ONE_QUBIT_ALPHABET = (
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.SDG,
    GateKind.I,
)


def _position_alternatives(g: Gate) -> list[tuple[Gate, ...]]:
    """Replacement sequences for one position (the original excluded).

    Single-qubit positions draw from {X, Y, Z, H, S, SDG, I}; a CNOT
    position may flip orientation or become any ordered pair of
    single-qubit gates on its two qubits (I, I = dropped gate).
    """
    if g.kind is GateKind.CNOT:
        c, t = g.targets
        alts: list[tuple[Gate, ...]] = [(Gate(GateKind.CNOT, (t, c)),)]
        for k1, k2 in itertools.product(_ONE_QUBIT_ALPHABET, repeat=2):
            alts.append((Gate(k1, (c,)), Gate(k2, (t,))))
        return alts
    (q,) = g.targets
    return [(Gate(k, (q,)),) for k in _ONE_QUBIT_ALPHABET if k is not g.kind]


def _candidates(u: Circuit, depth: int):
    """Circuits within `depth` gate replacements of u, nearest first."""
    yield u
    gates = u.gates
    positions = range(len(gates))
    alternatives = [_position_alternatives(g) for g in gates]
    for i in positions:
        for alt in alternatives[i]:
            yield Circuit(u.n_qubits, gates[:i] + alt + gates[i + 1 :])
    if depth >= 2:
        for i, j in itertools.combinations(positions, 2):
            for alt_i in alternatives[i]:
                for alt_j in alternatives[j]:
                    yield Circuit(
                        u.n_qubits,
                        gates[:i] + alt_i + gates[i + 1 : j] + alt_j + gates[j + 1 :],
                    )


def find_error(
    u: Circuit,
    ut: CliffordBlackBox,
    depth: int,
    repetitions: int,
    seed: int,
) -> Circuit:
    """Search circuits near u for one that tests equal to the black box.

    Candidates differ from u in at most `depth` gate replacements drawn
    from the documented alphabet; each is tested with up to
    `repetitions` rounds (stopping at the first rejection).  Returns
    the first candidate that survives all rounds - a circuit whose
    tableau matches the hidden one with overwhelming probability.
    Raises CandidateNotFound when the error lies outside the model.
    """
    if depth not in (1, 2):
        raise ValueError(f"depth must be 1 or 2, got {depth}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for index, candidate in enumerate(_candidates(u, depth)):
        td = tableau_dagger(candidate)
        rng = rng_from_seed(seed, index)
        for _ in range(repetitions):
            if run_test_once(td, ut, rng).rejected:
                break
        else:
            return candidate
    raise CandidateNotFound(
        f"no circuit within {depth} replacement(s) of u matches the black box"
    )


# ---------------------------------------------------------------------------
# Entanglement fidelity bound for Cliffords

def entanglement_fidelity_clifford(u: CliffordTableau, ut: CliffordTableau) -> float:
    """|Tr(U^dag Ut) / 2^n|^2 by GF(2) algebra, at any n.

    W = U^dag Ut fixes P up to a sign s_P (the product of the two image
    signs) exactly when P lies in the kernel K of M_u - M_ut, and the
    fidelity is sum(s_P over P in K) / 4^n.  s is a character on K, so
    the sum is |K| when s = +1 on a basis of K and 0 otherwise (the
    stabilizer-formalism trace; Dehaene and De Moor 2003).  Distinct
    tableaux have dim K < 2n or a non-constant s, capping it at 1/2.
    """
    n = u.n
    dim = 0
    for v in _difference_kernel(u, ut):
        p = PauliString.from_bits(n, v, v >> n)
        if conjugate_pauli(u, p).sign() != conjugate_pauli(ut, p).sign():
            return 0.0
        dim += 1
    return 2.0 ** (dim - 2 * n)


@lru_cache(maxsize=1)
def one_qubit_clifford_circuits() -> tuple[Circuit, ...]:
    """The 24 single-qubit Cliffords (mod phase) as {H, S} circuits.

    Breadth-first closure starting from the empty circuit; circuits
    are deduplicated by tableau, so each group element appears once.
    """
    seen: dict[tuple, Circuit] = {}
    queue = [Circuit(1, ())]
    while queue:
        c = queue.pop(0)
        key = tableau_from_circuit(c).images
        if key in seen:
            continue
        seen[key] = c
        for kind in (GateKind.H, GateKind.S):
            queue.append(Circuit(1, c.gates + (Gate(kind, (0,)),)))
    return tuple(seen.values())
