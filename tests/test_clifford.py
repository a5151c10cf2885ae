"""Stabilizer engine: Pauli arithmetic, tableaux, symplectic structure."""

import time

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from clifford_oracles import (
    _matrix_rows,
    conjugate_pauli_inverse,
    gf2_rank,
    gf2_solve,
    rows_by_bits,
)
from conftest import (
    CLIFFORD_ONE_QUBIT_KINDS,
    clifford_circuits,
    dagger,
    negated,
    pauli_kron,
    pauli_multiply,
)
from qverify.clifford import (
    CliffordTableau,
    PauliString,
    _pull_back_batch,
    conjugate_pauli,
    differing_pauli_fraction,
    random_clifford_circuit,
    random_pauli,
    symplectic_rank_diff,
    tableau_dagger,
    tableau_equal,
    tableau_from_circuit,
)
from qverify.core import Circuit, Gate, GateKind, circuit_unitary, gate
from qverify.cliffordtest import _CHUNK
from qverify.errors import DimensionMismatch, NonCliffordGate


def dense(p: PauliString) -> np.ndarray:
    """p as a matrix: i^(t - #Y) times the tensor of its letters."""
    return pauli_kron(p.letters(), 1j ** ((p.phase_t - p.y_count) % 4))


def commutes(a: PauliString, b: PauliString) -> bool:
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def identity_tableau(n: int) -> CliffordTableau:
    return tableau_from_circuit(Circuit(n, ()))


def compose(a: CliffordTableau, b: CliffordTableau) -> CliffordTableau:
    """Tableau of the product A B (conjugation by A after B)."""
    images = (conjugate_pauli(a, PauliString(b.n, *row)) for row in b.rows)
    return CliffordTableau(a.n, tuple((img.x, img.z, img.phase_t) for img in images))


class TestGF2:
    def test_rank_known(self):
        assert gf2_rank([0b11, 0b01, 0b10]) == 2
        assert gf2_rank([0, 0]) == 0
        assert gf2_rank([0b101, 0b011, 0b110]) == 2  # third = xor of first two

    def test_rank_matches_numpy(self, rng):
        for _ in range(20):
            m = rng.integers(0, 2, size=(6, 6))
            rows = [int("".join(str(b) for b in reversed(row)), 2) for row in m]
            # rank over GF(2) via row reduction with numpy
            a = m.copy() % 2
            r = 0
            for col in range(6):
                piv = next((i for i in range(r, 6) if a[i, col]), None)
                if piv is None:
                    continue
                a[[r, piv]] = a[[piv, r]]
                for i in range(6):
                    if i != r and a[i, col]:
                        a[i] ^= a[r]
                r += 1
            assert gf2_rank(rows) == r

    def test_solve_round_trip(self, rng):
        for _ in range(20):
            n = 8
            m = rng.integers(0, 2, size=(n, n))
            x = rng.integers(0, 2, size=n)
            b = (m @ x) % 2
            rows = [int("".join(str(v) for v in reversed(row)), 2) for row in m]
            sol = gf2_solve(rows, [int(v) for v in b], n)
            assert sol is not None
            sol_bits = np.array([(sol >> i) & 1 for i in range(n)])
            assert np.array_equal((m @ sol_bits) % 2, b)

    def test_solve_inconsistent(self):
        assert gf2_solve([0b01, 0b01], [0, 1], 2) is None


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("+XIZY", "-IYZI", "+IIII", "-ZZZZ"):
            assert str(PauliString.from_label(label)) == label

    def test_letter_encoding(self):
        p = PauliString.from_label("+XZYI")
        assert tuple(p.letters()[j] for j in range(4)) == ("X", "Z", "Y", "I")
        assert ((p.x >> 0) & 1, (p.z >> 0) & 1) == (1, 0)
        assert ((p.x >> 1) & 1, (p.z >> 1) & 1) == (0, 1)
        assert ((p.x >> 2) & 1, (p.z >> 2) & 1) == (1, 1)

    def test_sign_accessor(self):
        assert PauliString.from_label("+XY").sign() == 1
        assert PauliString.from_label("-XY").sign() == -1
        with pytest.raises(ValueError):
            pauli_multiply(PauliString.from_label("+X"), PauliString.from_label("+Z")).sign()

    def test_x_times_z_is_minus_i_y(self):
        prod = pauli_multiply(PauliString.from_label("+X"), PauliString.from_label("+Z"))
        assert prod.letters() == "Y"
        assert np.allclose(dense(prod), -1j * pauli_kron("Y"), atol=1e-12)

    def test_hermitian_square_is_identity(self, rng):
        for _ in range(30):
            p = random_pauli(5, rng)
            if rng.random() < 0.5:
                p = negated(p)
            sq = pauli_multiply(p, p)
            assert sq.letters() == "IIIII"
            assert sq.sign() == 1

    def test_anticommutation_against_dense(self, rng):
        a = PauliString.from_label("+XI")
        b = PauliString.from_label("+ZZ")
        assert np.allclose(dense(pauli_multiply(a, b)), -dense(pauli_multiply(b, a)), atol=1e-12)
        assert not commutes(a, b)

    def test_multiplication_matches_dense(self, rng):
        for _ in range(25):
            a, b = random_pauli(3, rng), random_pauli(3, rng)
            assert np.allclose(dense(pauli_multiply(a, b)), dense(a) @ dense(b), atol=1e-12)

    def test_to_matrix_matches_kron_oracle(self, rng):
        p = PauliString.from_label("-XIZY")
        assert np.allclose(dense(p), pauli_kron("XIZY", sign=-1), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pauli_multiply(PauliString.from_label("+X"), PauliString.from_label("+XX"))


def single(kind, n=1):
    return Circuit(n, (gate(kind, 0),))


class TestTableauFromCircuit:
    def test_hadamard_rules(self):
        t = tableau_from_circuit(single("H"))
        assert str(PauliString(1, *t.rows[0])) == "+Z"
        assert str(PauliString(1, *t.rows[1])) == "+X"
        assert str(conjugate_pauli(t, PauliString.from_label("+Y"))) == "-Y"

    def test_phase_gate_rules(self):
        t = tableau_from_circuit(single("S"))
        assert str(PauliString(1, *t.rows[0])) == "+Y"
        assert str(PauliString(1, *t.rows[1])) == "+Z"
        assert str(conjugate_pauli(t, PauliString.from_label("+Y"))) == "-X"

    def test_pauli_x_rules(self):
        t = tableau_from_circuit(single("X"))
        assert str(PauliString(1, *t.rows[0])) == "+X"
        assert str(PauliString(1, *t.rows[1])) == "-Z"

    def test_cnot_all_sixteen_paulis_match_dense(self):
        c = Circuit(2, (gate("CNOT", 0, 1),))
        t = tableau_from_circuit(c)
        u = circuit_unitary(c).matrix
        for x in range(4):
            for z in range(4):
                p = PauliString.from_bits(2, x, z, 1)
                got = conjugate_pauli(t, p)
                assert np.allclose(u @ dense(p) @ u.conj().T, dense(got), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 63, 64, 65, 127, 128, 129])
    def test_transpose_across_byte_boundaries(self, rng, n):
        # 2n bits per column: n = 4 fills one byte, n = 64 fills 16.
        for _ in range(3):
            c = random_clifford_circuit(n, 4 * n + 10, rng)
            assert tableau_from_circuit(c).rows == rows_by_bits(c)

    def test_rejects_non_clifford(self):
        with pytest.raises(NonCliffordGate):
            tableau_from_circuit(single("T"))
        with pytest.raises(NonCliffordGate, match="^T is not a Clifford gate$"):
            tableau_dagger(single("T"))


def every_kind_circuit(n: int, length: int, rng: np.random.Generator) -> Circuit:
    """Random gates of every tableau kind (I, X, Y, Z, H, S, SDG, CNOT)."""
    kinds = CLIFFORD_ONE_QUBIT_KINDS + ([GateKind.CNOT] if n >= 2 else [])
    gates = []
    for _ in range(length):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        targets = rng.choice(n, size=2 if kind is GateKind.CNOT else 1, replace=False)
        gates.append(Gate(kind, tuple(int(t) for t in targets)))
    return Circuit(n, tuple(gates))


def signed_paulis(n: int, count: int, rng: np.random.Generator) -> list[PauliString]:
    """Random letters with random signs; all-Y and -I lead when there is room."""
    full = (1 << n) - 1
    ps = [PauliString.from_bits(n, full, full, -1), PauliString.from_bits(n, 0, 0, -1)]
    while len(ps) < count:
        p = random_pauli(n, rng)
        ps.append(PauliString.from_bits(n, p.x, p.z, int(rng.choice((1, -1)))))
    return ps[:count]


class TestPullBackBatch:
    """One frame walk pulls R Paulis back as U^dag p U, signs included."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
    def test_matches_tableau_conjugation(self, n):
        rng = np.random.default_rng(n)
        for count in (1, 7, 8, 9, 64, 65):
            c = every_kind_circuit(n, 3 * n + 10, rng)
            ps = signed_paulis(n, count, rng)
            td = tableau_dagger(c)
            assert _pull_back_batch(c, ps) == [conjugate_pauli(td, p) for p in ps]

    def test_batch_larger_than_a_chunk(self, rng):
        c = every_kind_circuit(9, 60, rng)
        ps = signed_paulis(9, _CHUNK + 45, rng)
        td = tableau_dagger(c)
        assert _pull_back_batch(c, ps) == [conjugate_pauli(td, p) for p in ps]

    def test_empty_circuit_returns_the_batch(self, rng):
        ps = signed_paulis(5, 20, rng)
        assert _pull_back_batch(Circuit(5, ()), ps) == ps

    def test_rejects_non_clifford(self):
        with pytest.raises(NonCliffordGate, match="^T is not a Clifford gate$"):
            _pull_back_batch(single("T"), [PauliString.from_label("X")])


def generator(n: int, g: int) -> np.ndarray:
    """X_g for g < n, else Z_(g-n), as a dense matrix."""
    letters = ["I"] * n
    letters[g % n] = "X" if g < n else "Z"
    return pauli_kron("".join(letters))


class TestTableauOracle:
    """Tableaux against dense conjugation by circuit_unitary, n <= 4."""

    @given(clifford_circuits())
    def test_tableaux_match_dense_conjugation(self, c):
        n = c.n_qubits
        u = circuit_unitary(c).matrix
        forward, backward = tableau_from_circuit(c), tableau_dagger(c)
        for g in range(2 * n):
            gen = generator(n, g)
            image, image_dagger = (PauliString(n, *t.rows[g]) for t in (forward, backward))
            assert np.allclose(dense(image), u @ gen @ u.conj().T, atol=1e-9)
            assert np.allclose(dense(image_dagger), u.conj().T @ gen @ u, atol=1e-9)

    @given(clifford_circuits())
    def test_dagger_walk_matches_dagger_circuit(self, c):
        assert tableau_dagger(c) == tableau_from_circuit(dagger(c))

    @given(clifford_circuits(), st.integers(0, 15), st.integers(0, 15), st.sampled_from([1, -1]))
    def test_inverse_conjugation_undoes_conjugation(self, c, x, z, sign):
        t = tableau_from_circuit(c)
        p = PauliString.from_bits(c.n_qubits, x, z, sign)
        assert conjugate_pauli_inverse(t, conjugate_pauli(t, p)) == p


class TestConjugation:
    def test_identity_tableau_fixes_everything(self, rng):
        t = identity_tableau(4)
        for _ in range(10):
            p = random_pauli(4, rng)
            assert conjugate_pauli(t, p) == p

    def test_matches_dense_oracle(self, rng):
        # 500 (circuit, P) pairs: distinct signed Paulis differ by >= 1
        # in max norm, so allclose at 1e-9 is an exact letter+sign match
        for _ in range(20):
            n = int(rng.integers(1, 6))
            c = random_clifford_circuit(n, 200, rng)
            t = tableau_from_circuit(c)
            u = circuit_unitary(c).matrix
            for _ in range(25):
                p = random_pauli(n, rng)
                got = conjugate_pauli(t, p)
                assert got.sign() in (1, -1)  # raises unless got is Hermitian
                assert np.allclose(u @ dense(p) @ u.conj().T, dense(got), atol=1e-9)

    def test_inverse_conjugation_round_trip(self, rng):
        c = random_clifford_circuit(5, 80, rng)
        t = tableau_from_circuit(c)
        for _ in range(20):
            p = random_pauli(5, rng)
            assert conjugate_pauli(t, conjugate_pauli_inverse(t, p)) == p

    def test_commutation_relations_preserved(self, rng):
        # generator images must reproduce the generators' relations
        for _ in range(5):
            n = int(rng.integers(2, 6))
            t = tableau_from_circuit(random_clifford_circuit(n, 60, rng))
            images = [PauliString(n, *row) for row in t.rows]
            xs, zs = images[:n], images[n:]
            for j in range(n):
                assert not commutes(xs[j], zs[j])
                for l in range(n):
                    if l != j:
                        assert commutes(xs[j], zs[l])
                        assert commutes(xs[j], xs[l])
                        assert commutes(zs[j], zs[l])


class TestTableauAlgebra:
    def test_compose_with_identity(self, rng):
        t = tableau_from_circuit(random_clifford_circuit(3, 40, rng))
        assert tableau_equal(compose(t, identity_tableau(3)), t)
        assert tableau_equal(compose(identity_tableau(3), t), t)

    def test_dagger_composes_to_identity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            c = random_clifford_circuit(n, int(rng.integers(0, 60)), rng)
            composed = compose(tableau_from_circuit(c), tableau_dagger(c))
            assert tableau_equal(composed, identity_tableau(n))

    def test_homomorphism_on_splits(self, rng):
        for _ in range(10):
            n = 4
            c = random_clifford_circuit(n, 50, rng)
            k = int(rng.integers(0, 51))
            first = Circuit(n, c.gates[:k])
            second = Circuit(n, c.gates[k:])
            assert tableau_equal(
                tableau_from_circuit(c),
                compose(tableau_from_circuit(second), tableau_from_circuit(first)),
            )

    def test_distinguishes_s_from_sdg(self):
        assert not tableau_equal(
            tableau_from_circuit(single("S")), tableau_from_circuit(single("SDG"))
        )


class TestSymplectic:
    def test_matrix_invertible(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            t = tableau_from_circuit(random_clifford_circuit(n, 50, rng))
            assert gf2_rank(_matrix_rows(t)) == 2 * n

    def test_matrix_acts_on_bit_vectors(self, rng):
        n = 3
        t = tableau_from_circuit(random_clifford_circuit(n, 40, rng))
        rows = _matrix_rows(t)
        for _ in range(10):
            p = random_pauli(n, rng)
            img = conjugate_pauli(t, p)
            for r, row in enumerate(rows):
                assert (row & (p.x | p.z << n)).bit_count() % 2 == ((img.x | img.z << n) >> r) & 1

    def test_rank_diff_zero_for_equal(self, rng):
        t = tableau_from_circuit(random_clifford_circuit(3, 30, rng))
        assert symplectic_rank_diff(t, t) == 0
        assert differing_pauli_fraction(t, t) == 0.0

    def test_fraction_at_least_half_when_distinct(self, rng):
        found = 0
        while found < 20:
            a = tableau_from_circuit(random_clifford_circuit(3, 30, rng))
            b = tableau_from_circuit(random_clifford_circuit(3, 30, rng))
            if symplectic_rank_diff(a, b) == 0:
                continue
            found += 1
            assert differing_pauli_fraction(a, b) >= 0.5

    def test_exhaustive_count_matches_rank_formula(self, rng):
        n = 2
        for _ in range(10):
            a = tableau_from_circuit(random_clifford_circuit(n, 25, rng))
            b = tableau_from_circuit(random_clifford_circuit(n, 25, rng))
            differing = 0
            for x in range(4):
                for z in range(4):
                    p = PauliString.from_bits(n, x, z, 1)
                    ia, ib = conjugate_pauli(a, p), conjugate_pauli(b, p)
                    if (ia.x, ia.z) != (ib.x, ib.z):
                        differing += 1
            rank = symplectic_rank_diff(a, b)
            assert differing == 16 * (1 - 2.0**-rank)


class TestRandomCliffordCircuit:
    def test_zero_length_is_identity(self, rng):
        c = random_clifford_circuit(3, 0, rng)
        assert c.n_gates == 0

    def test_always_tableau_compatible(self, rng):
        for _ in range(20):
            c = random_clifford_circuit(4, 30, rng)
            tableau_from_circuit(c)

    def test_symplectic_spread(self, rng):
        seen = set()
        for _ in range(10**4):
            t = tableau_from_circuit(random_clifford_circuit(2, 50, rng))
            seen.add(tuple((x, z) for x, z, _ in t.rows))
        assert len(seen) >= 100


def test_conjugation_pipeline_speed():
    rng = np.random.default_rng(5)
    n = 500
    c = random_clifford_circuit(n, 10**4, rng)
    start = time.perf_counter()
    t = tableau_from_circuit(c)
    p = random_pauli(n, rng)
    out = conjugate_pauli(t, p)
    elapsed = time.perf_counter() - start
    assert out.n == n
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
