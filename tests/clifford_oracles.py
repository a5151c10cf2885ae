"""Tableau-only oracles for the Clifford path.

`acceptance_probability` evaluates one round exactly, through the
tableaux of both circuits, without any 2^n object: the oracle for the
soundness and dense-agreement acceptance criteria.  It needs U^dag P U
from the tableau of U, which takes a GF(2) solve.
`entanglement_fidelity_enumerated` sums the fixed Paulis' signs over
all 4^n Paulis, the oracle for the GF(2) kernel formula.
`find_error_by_tableaux` searches `candidates` with one circuit and one
inverse tableau per candidate, screening each on u's recorded rounds with
`expectation_on_prep`: the oracle for the Pauli-frame search and its
bit-level screen.
`rows_by_bits` transposes a circuit walk's columns into tableau rows one
bit at a time, the oracle for the vectorised transpose.
`verdict_by_rounds` runs the equality test one `run_test_once` round at a
time through both inverse tableaux, the oracle for the verdict's chunked
Pauli-frame walks.
"""

from __future__ import annotations

import itertools

from conftest import negated
from qverify.clifford import (
    CliffordTableau,
    PauliString,
    _ColumnTableau,
    conjugate_pauli,
    random_pauli,
    tableau_dagger,
)
from qverify.cliffordtest import (
    CliffordBlackBox,
    CliffordTestReport,
    EigenstatePrep,
    _position_alternatives,
    expectation_on_prep,
    prepare_input,
    run_test_once,
)
from qverify.core import Circuit
from qverify.errors import CandidateNotFound, DimensionMismatch
from qverify.seeding import rng_from_seed


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of the binary matrix whose rows are the given bit vectors."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def gf2_solve(rows: list[int], rhs: list[int], n_cols: int) -> int | None:
    """Solve M v = b over GF(2); rows are bit vectors, rhs bits 0/1.

    Returns one solution as a bit vector (free variables set to 0), or
    None when the system is inconsistent.
    """
    aug = [r | (b << n_cols) for r, b in zip(rows, rhs)]
    pivots: dict[int, int] = {}  # pivot column -> row owning it
    for row in aug:
        for col, prow in pivots.items():
            if (row >> col) & 1:
                row ^= prow
        if row == 0:
            continue
        coeffs = row & ((1 << n_cols) - 1)
        if coeffs == 0:
            return None
        col = coeffs.bit_length() - 1
        for c in pivots:
            if (pivots[c] >> col) & 1:
                pivots[c] ^= row
        pivots[col] = row
    solution = 0
    for col, prow in pivots.items():
        if (prow >> n_cols) & 1:
            solution |= 1 << col
    return solution


def _matrix_rows(t: CliffordTableau) -> list[int]:
    """Rows of M_U as bit vectors (bit g of row r = M[r, g]).

    M_U holds the image vectors (x | z << n) as its columns, so this
    transposes.
    """
    n = t.n
    rows = [0] * (2 * n)
    for g, (x, z, _) in enumerate(t.rows):
        col = x | (z << n)
        while col:
            r = (col & -col).bit_length() - 1
            rows[r] |= 1 << g
            col &= col - 1
    return rows


def rows_by_bits(c: Circuit) -> tuple[tuple[int, int, int], ...]:
    """The rows of tableau_from_circuit(c), read off the column walk bit by bit:
    bit q of row g's x (z) is bit g of column colx[q] (colz[q])."""
    n = c.n_qubits
    cols = _ColumnTableau(n)
    for g in c.gates:
        cols.apply(g.kind, g.targets)
    rows = []
    for g in range(2 * n):
        x = sum(((cols.colx[q] >> g) & 1) << q for q in range(n))
        z = sum(((cols.colz[q] >> g) & 1) << q for q in range(n))
        minus = (cols.signs >> g) & 1
        rows.append((x, z, ((x & z).bit_count() + 2 * minus) % 4))
    return tuple(rows)


def conjugate_pauli_inverse(t: CliffordTableau, p: PauliString) -> PauliString:
    """U^dag p U given the tableau of U, via a GF(2) solve.

    The bit part solves M q = p; the sign is fixed by conjugating the
    candidate forward and comparing.
    """
    if t.n != p.n:
        raise DimensionMismatch(f"tableau on {t.n} qubits, Pauli on {p.n}")
    n = t.n
    vec_p = p.x | (p.z << n)
    sol = gf2_solve(_matrix_rows(t), [(vec_p >> i) & 1 for i in range(2 * n)], 2 * n)
    if sol is None:
        raise ValueError("tableau matrix is singular; not a valid Clifford tableau")
    q = PauliString.from_bits(n, sol & ((1 << n) - 1), sol >> n, 1)
    if conjugate_pauli(t, q).sign() != p.sign():
        q = negated(q)
    return q


def acceptance_probability(
    u: CliffordTableau, ut: CliffordTableau, q: PauliString, prep: EigenstatePrep
) -> float:
    """P(outcome = prep.eigenvalue) for one round with pulled-back Pauli q.

    q must be U^dag P U for the measured observable P, and prep must
    have been drawn for q.  The probability is
    (1 + lambda * <psi_in| Ut^dag P Ut |psi_in>) / 2.
    """
    if u.n != ut.n or u.n != q.n:
        raise DimensionMismatch("tableaux and Pauli must share the qubit count")
    if prep.q != q:
        raise ValueError(f"prep was drawn for {prep.q}, not for {q}")
    q_tilde = conjugate_pauli_inverse(ut, conjugate_pauli(u, q))
    return (1.0 + prep.eigenvalue * expectation_on_prep(prep, q_tilde)) / 2.0


def entanglement_fidelity_enumerated(u: CliffordTableau, ut: CliffordTableau) -> float:
    """|Tr(U^dag Ut) / 2^n|^2 as a sum over all 4^n Paulis.

    W = U^dag Ut fixes P (up to sign s_P) exactly when both tableaux
    send P to the same letter string, and then s_P is the product of
    the two image signs; the fidelity is sum(s_P over fixed P) / 4^n.
    """
    if u.n != ut.n:
        raise DimensionMismatch(f"{u.n} vs {ut.n} qubits")
    n = u.n
    total = 0
    for x in range(2**n):
        for z in range(2**n):
            p = PauliString.from_bits(n, x, z, 1)
            a = conjugate_pauli(u, p)
            b = conjugate_pauli(ut, p)
            if a.x == b.x and a.z == b.z:
                total += a.sign() * b.sign()
    return total / 4**n


def candidates(u: Circuit, depth: int):
    """Circuits within `depth` gate replacements of u, in find_error's order."""
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


def find_error_by_tableaux(
    u: Circuit, ut: CliffordBlackBox, depth: int, repetitions: int, seed: int
) -> Circuit:
    """find_error with a circuit and a tableau of its inverse per candidate.

    u's rounds are drawn in full and recorded as (p, prep, outcome); a
    later candidate is dropped when some recorded outcome equals minus its
    own expectation on that prep, else re-tested on rounds of its own.
    """
    n = u.n_qubits
    td = tableau_dagger(u)
    rng = rng_from_seed(seed, 0)
    record = []
    for _ in range(repetitions):
        p = random_pauli(n, rng)
        prep = prepare_input(conjugate_pauli(td, p), rng)
        record.append((p, prep, ut.run_and_measure(prep, p, rng)))
    if all(outcome == prep.eigenvalue for _, prep, outcome in record):
        return u
    for index, candidate in enumerate(candidates(u, depth)):
        if index == 0:
            continue
        td = tableau_dagger(candidate)
        if any(
            expectation_on_prep(prep, conjugate_pauli(td, p)) == -outcome
            for p, prep, outcome in record
        ):
            continue
        rng = rng_from_seed(seed, index)
        for _ in range(repetitions):
            if run_test_once(td, ut, rng).rejected:
                break
        else:
            return candidate
    raise CandidateNotFound(
        f"no circuit within {depth} replacement(s) of u matches the black box"
    )


def verdict_by_rounds(
    u: Circuit, ut: CliffordBlackBox, repetitions: int, seed: int
) -> CliffordTestReport:
    """equivalence_verdict as one run_test_once per round, round i on
    rng_from_seed(seed, i), each pulled back through u's inverse tableau
    and measured through the box's."""
    td = tableau_dagger(u)
    runs = tuple(run_test_once(td, ut, rng_from_seed(seed, i)) for i in range(repetitions))
    rejections = sum(r.rejected for r in runs)
    return CliffordTestReport(
        runs=runs,
        verdict="different" if rejections else "equal",
        per_run_detection_estimate=rejections / repetitions,
        seed=seed,
    )
