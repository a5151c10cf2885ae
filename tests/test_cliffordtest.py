"""Randomized Clifford equality test: exactness, oracles, error finding."""

import itertools
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifford_oracles import (
    acceptance_probability,
    candidates,
    conjugate_pauli_inverse,
    entanglement_fidelity_enumerated,
    find_error_by_tableaux,
    verdict_by_rounds,
)
from conftest import (
    INV_SQRT2,
    ORACLE_STATES,
    clifford_circuits,
    clifford_gates_on,
    negated,
    pauli_kron,
    pauli_multiply,
    prep_statevector,
)
from qverify.clifford import (
    PauliString,
    conjugate_pauli,
    random_clifford_circuit,
    random_pauli,
    tableau_dagger,
    tableau_equal,
    tableau_from_circuit,
)
from qverify.cliffordtest import (
    _CHUNK,
    CliffordBlackBox,
    EigenstatePrep,
    _round,
    _rules_out,
    _search,
    detection_probability_exact,
    entanglement_fidelity_clifford,
    equivalence_verdict,
    expectation_on_prep,
    find_error,
    one_qubit_clifford_circuits,
    prepare_input,
    run_test_once,
)
from qverify.core import Circuit, Gate, circuit_unitary, gate
from qverify.errors import CandidateNotFound, CapExceeded, DimensionMismatch, NonCliffordGate
from qverify.metrics import trace_overlap
from qverify.seeding import rng_from_seed


def one_qubit_expectation(entry: tuple[str, int], letter: str) -> float:
    """expectation_on_prep on one qubit prepared as ORACLE_STATES[entry]."""
    basis, sign = entry
    if basis == "T+":
        prep = EigenstatePrep(PauliString(1, 0, 0), 0)
    else:
        prep = EigenstatePrep(PauliString.from_label(basis), 0 if sign == 1 else 1)
    return expectation_on_prep(prep, PauliString.from_label(letter))


def drawn_signs(prep: EigenstatePrep) -> list[int]:
    return [-1 if (prep.signs >> j) & 1 else 1 for j in range(prep.q.n)]


def mixed_prep(q: PauliString, rng: np.random.Generator) -> tuple[EigenstatePrep, int]:
    """The symmetric alternative to T+: an eigenstate of q whose identity
    positions hold a uniformly random one of the six X/Y/Z eigenstates.

    Returns it as the prep of q with those letters filled in, and its
    eigenvalue under q itself.
    """
    prep = prepare_input(q, rng)
    fill_x = fill_z = fill_signs = 0
    for j, letter in enumerate(q.letters()):
        if letter == "I":
            basis = "XYZ"[rng.integers(0, 3)]
            fill_x |= (basis in "XY") << j
            fill_z |= (basis in "YZ") << j
            fill_signs |= int(rng.integers(0, 2)) << j
    filled = PauliString.from_bits(q.n, q.x | fill_x, q.z | fill_z, q.sign())
    return EigenstatePrep(filled, prep.signs | fill_signs), prep.eigenvalue


class TestSingleQubitExpectation:
    def test_identity_letter(self):
        assert one_qubit_expectation(("Z", 1), "I") == 1.0
        assert one_qubit_expectation(("T+", 1), "I") == 1.0

    def test_matching_eigenstate(self):
        assert one_qubit_expectation(("Z", 1), "Z") == 1.0
        assert one_qubit_expectation(("Y", -1), "Y") == -1.0

    def test_mutually_unbiased(self):
        assert one_qubit_expectation(("X", 1), "Y") == 0.0
        assert one_qubit_expectation(("Z", -1), "X") == 0.0

    def test_tplus_values(self):
        assert one_qubit_expectation(("T+", 1), "X") == pytest.approx(INV_SQRT2)
        assert one_qubit_expectation(("T+", 1), "Y") == pytest.approx(INV_SQRT2)
        assert one_qubit_expectation(("T+", 1), "Z") == 0.0

    def test_whole_table_against_dense_oracle(self):
        for entry, state in ORACLE_STATES.items():
            for letter in "IXYZ":
                dense = np.vdot(state, pauli_kron(letter) @ state).real
                assert one_qubit_expectation(entry, letter) == pytest.approx(
                    dense, abs=1e-12
                )

    def test_product_states_against_dense_oracle(self, rng):
        # random signed observables on random preps, n <= 4; half of the
        # observables copy q's letters on a random subset of qubits, so
        # nonzero values are common
        nonzero = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            q = random_pauli(n, rng)
            q = negated(q) if rng.random() < 0.5 else q
            prep = prepare_input(q, rng)
            p = random_pauli(n, rng)
            if rng.random() < 0.5:
                keep = int(rng.integers(0, 2**n))
                x = (q.x & keep) | (p.x & ~keep)
                p = PauliString.from_bits(n, x, (q.z & keep) | (p.z & ~keep), 1)
            p = negated(p) if rng.random() < 0.5 else p
            psi = prep_statevector(prep)
            dense = np.vdot(psi, pauli_kron(p.letters(), p.sign()) @ psi).real
            value = expectation_on_prep(prep, p)
            assert value == pytest.approx(dense, abs=1e-12)
            nonzero += value != 0.0
        assert nonzero > 50


class TestPrepareInput:
    def test_eigenvalue_is_sign_times_draws(self, rng):
        q = PauliString.from_label("+ZZ")
        for _ in range(20):
            prep = prepare_input(q, rng)
            drawn = drawn_signs(prep)
            assert prep.q == q
            assert prep.eigenvalue == drawn[0] * drawn[1]

    def test_negative_sign_counts(self, rng):
        q = PauliString.from_label("-XI")
        for _ in range(10):
            prep = prepare_input(q, rng)
            assert prep.q.letters()[1] == "I" and not prep.signs >> 1  # T+
            assert prep.q.letters()[0] == "X"
            assert prep.eigenvalue == -drawn_signs(prep)[0]

    def test_dense_eigenstate_property(self, rng):
        # Q |psi_in> = lambda |psi_in> for 100 random draws at n = 4
        for _ in range(100):
            q = random_pauli(4, rng)
            if rng.random() < 0.5:
                q = negated(q)
            prep = prepare_input(q, rng)
            psi = prep_statevector(prep)
            qm = pauli_kron(q.letters(), q.sign())
            assert np.allclose(qm @ psi, prep.eigenvalue * psi, atol=1e-12)

    def test_mixed_mode_still_sound_on_equal_circuits(self, rng):
        # identity positions in any X/Y/Z eigenstate instead of T+: the
        # state is still a lambda-eigenstate of q, and equal tableaux
        # still accept with probability exactly 1
        u = random_clifford_circuit(3, 30, rng)
        t = tableau_from_circuit(u)
        td = tableau_dagger(u)
        for _ in range(20):
            q = conjugate_pauli(td, random_pauli(3, rng))
            prep, eigenvalue = mixed_prep(q, rng)
            psi = prep_statevector(prep)
            qm = pauli_kron(q.letters(), q.sign())
            assert np.allclose(qm @ psi, eigenvalue * psi, atol=1e-12)
            q_tilde = conjugate_pauli_inverse(t, conjugate_pauli(t, q))
            assert (1.0 + eigenvalue * expectation_on_prep(prep, q_tilde)) / 2.0 == 1.0

    def test_sign_bits_off_support_rejected(self):
        with pytest.raises(ValueError):
            EigenstatePrep(PauliString.from_label("+XI"), 0b10)


class TestAcceptanceProbability:
    def test_equal_tableaux_accept_exactly(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            c = random_clifford_circuit(n, 40, rng)
            t = tableau_from_circuit(c)
            q = conjugate_pauli(tableau_dagger(c), random_pauli(n, rng))
            prep = prepare_input(q, rng)
            assert acceptance_probability(t, t, q, prep) == 1.0

    def test_matches_dense_simulation(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            u = random_clifford_circuit(n, 30, rng)
            ut = random_clifford_circuit(n, 30, rng)
            p = random_pauli(n, rng)
            q = conjugate_pauli(tableau_dagger(u), p)
            prep = prepare_input(q, rng)
            analytic = acceptance_probability(
                tableau_from_circuit(u), tableau_from_circuit(ut), q, prep
            )
            evolved = circuit_unitary(ut).matrix @ prep_statevector(prep)
            e = np.vdot(evolved, pauli_kron(p.letters()) @ evolved).real
            assert analytic == pytest.approx((1 + prep.eigenvalue * e) / 2, abs=1e-9)

    def test_prep_mismatch_rejected(self, rng):
        c = random_clifford_circuit(2, 10, rng)
        t = tableau_from_circuit(c)
        q = PauliString.from_label("+XI")
        with pytest.raises(ValueError):
            acceptance_probability(t, t, q, prepare_input(PauliString.from_label("+IX"), rng))
        with pytest.raises(ValueError):
            acceptance_probability(t, t, q, prepare_input(negated(q), rng))


def _match_signed_pauli(m: np.ndarray, n: int):
    for letters in itertools.product("IXYZ", repeat=n):
        word = "".join(letters)
        ref = pauli_kron(word)
        for sign in (1, -1):
            if np.allclose(m, sign * ref, atol=1e-9):
                return word, sign
    raise AssertionError("matrix is not a signed Pauli")


def detection_oracle(u: Circuit, ut: Circuit) -> float:
    """Brute-force rejection probability: enumerate Paulis AND sign draws
    with dense matrices only."""
    n = u.n_qubits
    um = circuit_unitary(u).matrix
    utm = circuit_unitary(ut).matrix
    total = 0.0
    n_paulis = 0
    for letters in itertools.product("IXYZ", repeat=n):
        word = "".join(letters)
        n_paulis += 1
        pm = pauli_kron(word)
        q_word, q_sign = _match_signed_pauli(um.conj().T @ pm @ um, n)
        non_identity = [j for j, ch in enumerate(q_word) if ch != "I"]
        per_pauli = 0.0
        draws = list(itertools.product((1, -1), repeat=len(non_identity)))
        for draw in draws:
            lam = q_sign
            psi = np.array([1.0], dtype=complex)
            it = iter(draw)
            for j, ch in enumerate(q_word):
                if ch == "I":
                    psi = np.kron(psi, ORACLE_STATES[("T+", 1)])
                else:
                    s = next(it)
                    lam *= s
                    psi = np.kron(psi, ORACLE_STATES[(ch, s)])
            evolved = utm @ psi
            e = np.vdot(evolved, pm @ evolved).real
            per_pauli += (1 - lam * e) / 2
        total += per_pauli / len(draws)
    return total / n_paulis


class TestDetectionProbabilityExact:
    def test_equal_circuits_zero(self, rng):
        c = random_clifford_circuit(3, 30, rng)
        assert detection_probability_exact(c, c) == 0.0

    def test_pauli_shift_exactly_half_exhaustive(self, rng):
        # every nonidentity Pauli layer appended after u, n <= 3
        for n in (1, 2, 3):
            u = random_clifford_circuit(n, 20, rng)
            for bits in range(1, 4**n):
                x = sum(((bits >> (2 * j)) & 1) << j for j in range(n))
                z = sum(((bits >> (2 * j + 1)) & 1) << j for j in range(n))
                r = PauliString.from_bits(n, x, z, 1)
                layer = tuple(gate(a, j) for j, a in enumerate(r.letters()) if a != "I")
                ut = Circuit(n, u.gates + layer)
                assert detection_probability_exact(u, ut) == 0.5

    def test_independent_of_qubit_order(self, rng):
        # Relabelling the qubits permutes the 4^n terms without changing them.
        # The hidden circuit runs a few gates before u, so many terms carry
        # T+ qubits and irrational agreements.
        for _ in range(60):
            n = int(rng.integers(2, 6))
            u = random_clifford_circuit(n, 20, rng)
            ut = Circuit(n, random_clifford_circuit(n, 3, rng).gates + u.gates)
            perm = [int(t) for t in rng.permutation(n)]

            def relabel(c: Circuit) -> Circuit:
                gates = (Gate(g.kind, tuple(perm[t] for t in g.targets)) for g in c.gates)
                return Circuit(n, tuple(gates))

            assert detection_probability_exact(u, ut) == detection_probability_exact(
                relabel(u), relabel(ut)
            )

    def test_s_versus_sdg(self):
        u = Circuit(1, (gate("S", 0),))
        ut = Circuit(1, (gate("SDG", 0),))
        assert detection_probability_exact(u, ut) > 0.0

    def test_matches_brute_force_oracle(self, rng):
        for n in (1, 2):
            for _ in range(6):
                u = random_clifford_circuit(n, 15, rng)
                ut = random_clifford_circuit(n, 15, rng)
                assert detection_probability_exact(u, ut) == pytest.approx(
                    detection_oracle(u, ut), abs=1e-9
                )

    def test_strictly_positive_for_distinct(self, rng):
        # exhaustive over the 1-qubit group, plus 500 random pairs n <= 4
        circuits = one_qubit_clifford_circuits()
        tableaux = [tableau_from_circuit(c) for c in circuits]
        for i, a in enumerate(circuits):
            for j, b in enumerate(circuits):
                if tableau_equal(tableaux[i], tableaux[j]):
                    continue
                assert detection_probability_exact(a, b) > 0.0
        for i in range(500):
            n = 1 + i % 4
            a = random_clifford_circuit(n, 25, rng)
            b = random_clifford_circuit(n, 25, rng)
            if tableau_equal(tableau_from_circuit(a), tableau_from_circuit(b)):
                continue
            assert detection_probability_exact(a, b) > 0.0

    def test_every_one_qubit_pair(self):
        # The exact per-round detection probability takes three values on
        # the 552 ordered pairs of distinct one-qubit Cliffords.
        circuits = one_qubit_clifford_circuits()
        values = Counter(
            Fraction(detection_probability_exact(a, b))
            for a, b in itertools.permutations(circuits, 2)
        )
        assert values == {Fraction(1, 4): 144, Fraction(3, 8): 192, Fraction(1, 2): 216}

    def test_cap(self, rng):
        c = random_clifford_circuit(8, 5, rng)
        with pytest.raises(CapExceeded):
            detection_probability_exact(c, c)


class TestRunOnce:
    def test_wrapped_equal_circuit_never_rejects(self, rng):
        u = random_clifford_circuit(4, 50, rng)
        box = CliffordBlackBox(u)
        td = tableau_dagger(u)
        for _ in range(300):
            run = run_test_once(td, box, rng)
            assert run.outcome == run.eigenvalue

    def test_identity_observable_is_wasted_run(self, rng):
        u = random_clifford_circuit(3, 30, rng)
        box = CliffordBlackBox(u)
        identity = PauliString(3, 0, 0)
        prep = prepare_input(identity, rng)
        assert prep.eigenvalue == 1
        assert prep.signs == 0 and prep.q.x | prep.q.z == 0  # every qubit in T+
        assert box.run_and_measure(prep, identity, rng) == 1

    def test_prep_width_mismatch(self, rng):
        box = CliffordBlackBox(random_clifford_circuit(3, 10, rng))
        prep = prepare_input(random_pauli(2, rng), rng)
        with pytest.raises(DimensionMismatch):
            box.measurement_expectation(prep, random_pauli(3, rng))

    def test_dense_mode_matches_analytic_expectation(self, rng):
        # the black box's tableau expectation against a dense simulation
        u = random_clifford_circuit(3, 25, rng)
        analytic = CliffordBlackBox(u)
        um = circuit_unitary(u).matrix
        other = random_clifford_circuit(3, 25, rng)
        td = tableau_dagger(other)
        for _ in range(25):
            p = random_pauli(3, rng)
            prep = prepare_input(conjugate_pauli(td, p), rng)
            ea = analytic.measurement_expectation(prep, p)
            evolved = um @ prep_statevector(prep)
            ed = np.vdot(evolved, pauli_kron(p.letters()) @ evolved).real
            assert ea == pytest.approx(ed, abs=1e-9)

    def test_empirical_detection_matches_exact(self, rng):
        u = Circuit(3, (gate("H", 0), gate("CNOT", 0, 1), gate("S", 2)))
        ut = Circuit(3, (gate("H", 0), gate("CNOT", 0, 1), gate("SDG", 2)))
        exact = detection_probability_exact(u, ut)
        box = CliffordBlackBox(ut)
        td = tableau_dagger(u)
        trials = 10**4
        rejects = sum(run_test_once(td, box, rng).rejected for _ in range(trials))
        sigma = np.sqrt(exact * (1 - exact) / trials)
        assert abs(rejects / trials - exact) <= 4 * sigma


class TestEquivalenceVerdict:
    def test_equal_pair(self, rng):
        u = random_clifford_circuit(4, 40, rng)
        report = equivalence_verdict(u, CliffordBlackBox(u), 50, seed=3)
        assert report.verdict == "equal"
        assert report.per_run_detection_estimate == 0.0

    def test_pauli_difference_never_missed(self, rng):
        u = random_clifford_circuit(2, 20, rng)
        ut = Circuit(2, u.gates + (gate("X", 0),))
        box = CliffordBlackBox(ut)
        misses = 0
        for trial in range(10**4):
            report = equivalence_verdict(u, box, 20, seed=trial)
            misses += report.verdict == "equal"
        assert misses == 0

    def test_general_distinct_pairs_never_missed_at_r60(self):
        rng = np.random.default_rng(606)
        pairs = []
        while len(pairs) < 100:
            u = random_clifford_circuit(4, 30, rng)
            ut = random_clifford_circuit(4, 30, rng)
            if tableau_equal(tableau_from_circuit(u), tableau_from_circuit(ut)):
                continue
            pairs.append((u, ut))
        misses = 0
        for i, (u, ut) in enumerate(pairs):
            rep = equivalence_verdict(u, CliffordBlackBox(ut), 60, seed=7000 + i)
            misses += rep.verdict == "equal"
        assert misses == 0

    def test_deterministic(self, rng):
        u = random_clifford_circuit(3, 30, rng)
        ut = Circuit(3, u.gates + (gate("Z", 1),))
        a = equivalence_verdict(u, CliffordBlackBox(ut), 10, seed=42)
        b = equivalence_verdict(u, CliffordBlackBox(ut), 10, seed=42)
        assert a == b

    @pytest.mark.parametrize("n", [1, 2, 8, 65])
    def test_same_report_as_round_by_round(self, n):
        # More rounds than a chunk where n is small, so chunk edges are crossed.
        rng = np.random.default_rng(n)
        repetitions = _CHUNK + 44 if n <= 8 else 40
        u = random_clifford_circuit(n, 4 * n + 10, rng)
        for ut in (u, Circuit(n, u.gates + (gate("Z", int(rng.integers(0, n))),))):
            box = CliffordBlackBox(ut)
            for seed in (0, 9):
                report = equivalence_verdict(u, box, repetitions, seed)
                assert report == verdict_by_rounds(u, box, repetitions, seed)

    def test_one_box_shared_by_threads(self, rng):
        # Verdicts walk the box in chunks; lone rounds make it build its
        # tableau on first use.  Four threads on one fresh box, switching
        # often, get what one thread gets.
        u = random_clifford_circuit(6, 60, rng)
        hidden = Circuit(6, u.gates + (gate("Y", 2),))
        td = tableau_dagger(u)

        def job(box, k):
            if k % 2:
                return equivalence_verdict(u if k % 4 == 1 else Circuit(6, ()), box, 300, k)
            return [run_test_once(td, box, rng_from_seed(k, i)) for i in range(60)]

        alone_box = CliffordBlackBox(hidden)
        alone = [job(alone_box, k) for k in range(12)]
        box = CliffordBlackBox(hidden)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(job, box, k) for k in range(12)]
                shared = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert shared == alone
        assert all(report.verdict == "different" for report in alone[1::2])

    def test_non_clifford_box_rejected_at_construction(self):
        with pytest.raises(NonCliffordGate, match="^T is not a Clifford gate$"):
            CliffordBlackBox(Circuit(2, (gate("T", 0), gate("CNOT", 0, 1), gate("T", 1))))


class TestFindError:
    def test_equal_black_box_returns_u(self, rng):
        u = random_clifford_circuit(4, 20, rng)
        found = find_error(u, CliffordBlackBox(u), depth=1, repetitions=20, seed=0)
        assert found == u

    def test_recovers_planted_single_fault(self, rng):
        for trial in range(3):
            u = random_clifford_circuit(6, 30, rng)
            position = int(rng.integers(0, 30))
            alternatives = [
                alt
                for alt in candidates(u, 1)
                if alt is not u and alt.n_gates >= 1
            ]
            planted = alternatives[int(rng.integers(0, len(alternatives)))]
            if tableau_equal(tableau_from_circuit(planted), tableau_from_circuit(u)):
                continue
            found = find_error(
                u, CliffordBlackBox(planted), depth=1, repetitions=40, seed=trial
            )
            assert tableau_equal(tableau_from_circuit(found), tableau_from_circuit(planted))

    def test_out_of_alphabet_fault_not_found(self, rng):
        u = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("S", 1)))
        # replace the final S by S-then-H: a two-gate substitution no
        # single-replacement candidate can express
        ut = Circuit(2, u.gates + (gate("H", 1),))
        truth = tableau_from_circuit(ut)
        assert not any(
            tableau_equal(tableau_from_circuit(c), truth) for c in candidates(u, 1)
        )
        with pytest.raises(CandidateNotFound):
            find_error(u, CliffordBlackBox(ut), depth=1, repetitions=30, seed=1)

    def test_depth_two_recovers_double_fault(self, rng):
        u = Circuit(2, (gate("H", 0), gate("S", 1), gate("CNOT", 0, 1), gate("H", 1)))
        ut = Circuit(2, (gate("S", 0), gate("S", 1), gate("CNOT", 0, 1), gate("X", 1)))
        found = find_error(u, CliffordBlackBox(ut), depth=2, repetitions=40, seed=5)
        assert tableau_equal(tableau_from_circuit(found), tableau_from_circuit(ut))

    def test_depth_validation(self, rng):
        u = random_clifford_circuit(2, 5, rng)
        with pytest.raises(ValueError):
            find_error(u, CliffordBlackBox(u), depth=3, repetitions=5, seed=0)

    def test_same_answer_and_box_uses_as_per_candidate_tableaux(self, rng):
        # Seeded pairs: a planted fault from the alphabet (one or two
        # replacements), an unrelated circuit or u itself, repetitions 1-5.
        for case in range(60):
            depth = 1 + case % 2
            n = int(rng.integers(1, 4))
            u = random_clifford_circuit(n, int(rng.integers(0, 8 if depth == 1 else 5)), rng)
            replacements = case // 2 % 4  # 3 stands for an unrelated circuit
            if replacements == 0:
                ut = u
            elif replacements == 3:
                ut = random_clifford_circuit(n, 6, rng)
            else:
                near = list(candidates(u, replacements))
                ut = near[int(rng.integers(0, len(near)))]
            results = []
            for search in (find_error, find_error_by_tableaux):
                box = CountingBox(ut)
                try:
                    found = search(u, box, depth, 1 + case % 5, seed=case)
                except CandidateNotFound:
                    found = None
                results.append((found, box.uses))
            assert results[0] == results[1], case

    def test_one_inverse_tableau_per_search(self, rng, monkeypatch):
        cases = []
        for n, s, depth in ((3, 0, 1), (4, 12, 1), (8, 200, 1), (2, 6, 2)):
            u = random_clifford_circuit(n, s, rng)
            cases.append((u, u, depth))  # found at once
            ut = random_clifford_circuit(n, s + 3, rng)
            cases.append((u, ut, depth))  # most likely not found
        calls = []

        def counted(c):
            calls.append(c)
            return tableau_dagger(c)

        monkeypatch.setattr("qverify.cliffordtest.tableau_dagger", counted)
        outcomes = []
        for u, hidden, depth in cases:
            box = CliffordBlackBox(hidden)
            assert calls == []  # the box builds its tableau on its first run
            try:
                find_error(u, box, depth=depth, repetitions=20, seed=0)
                outcomes.append("found")
            except CandidateNotFound:
                outcomes.append("not found")
            # u's tableau, then the box's on its first run; no candidate's.
            assert calls == [u, hidden]
            calls.clear()
        assert "not found" in outcomes


class CountingBox(CliffordBlackBox):
    """A black box that counts its runs."""

    def __init__(self, circuit: Circuit):
        super().__init__(circuit)
        self.uses = 0

    def run_and_measure(self, prep, observable, rng):
        self.uses += 1
        return super().run_and_measure(prep, observable, rng)


@st.composite
def paulis_with_y(draw, n: int) -> list[PauliString]:
    """All-Y, a Y wherever x is set, and one drawn Pauli, on n qubits."""
    full = (1 << n) - 1
    x, z = draw(st.integers(0, full)), draw(st.integers(0, full))
    return [
        PauliString.from_bits(n, full, full),
        PauliString.from_bits(n, x, x),
        PauliString.from_bits(n, x, z),
    ]


@st.composite
def short_clifford_circuits(draw, min_gates: int, max_gates: int) -> Circuit:
    """A Clifford circuit on 1-5 qubits with every tableau gate kind possible."""
    n = draw(st.integers(1, 5))
    gates = draw(st.lists(clifford_gates_on(n), min_size=min_gates, max_size=max_gates))
    return Circuit(n, tuple(gates))


class TestPauliFrame:
    """find_error's per-candidate pull-back equals C^dag p C from C's own tableau."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_depth_one_candidates(self, data):
        u = data.draw(short_clifford_circuits(1, 20))
        ps = data.draw(paulis_with_y(u.n_qubits))
        near = list(candidates(u, 1))
        for index, pull_back, build in _search(u, tableau_dagger(u), 1, ()):
            assert build() == near[index]
            td = tableau_dagger(build())
            for p in ps:
                assert pull_back(p) == conjugate_pauli(td, p)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_sampled_depth_two_candidates(self, data):
        u = data.draw(short_clifford_circuits(2, 5))
        ps = data.draw(paulis_with_y(u.n_qubits))
        stride = data.draw(st.sampled_from([17, 31, 61]))
        start = data.draw(st.integers(0, stride - 1))
        search = _search(u, tableau_dagger(u), 2, ())
        for _, pull_back, build in itertools.islice(search, start, None, stride):
            td = tableau_dagger(build())
            for p in ps:
                assert pull_back(p) == conjugate_pauli(td, p)


def screened(u: Circuit, depth: int, record) -> set[int]:
    """Indices of the candidates find_error's screen keeps on `record`."""
    return {index for index, _, _ in _search(u, tableau_dagger(u), depth, record)}


@st.composite
def recorded_rounds(draw, u: Circuit) -> list:
    """Rounds as find_error records them: p, u's pull-back q with drawn
    eigenstate signs on q's support, and a drawn outcome.  Three p come
    from paulis_with_y, and three are chosen so that q has its letters,
    which are rich in Y."""
    n = u.n_qubits
    td, forward = tableau_dagger(u), tableau_from_circuit(u)
    images = (conjugate_pauli(forward, q) for q in draw(paulis_with_y(n)))
    record = []
    for p in [*draw(paulis_with_y(n)), *(PauliString.from_bits(n, p.x, p.z) for p in images)]:
        q = conjugate_pauli(td, p)
        signs = draw(st.integers(0, (1 << n) - 1)) & (q.x | q.z)
        record.append((p, EigenstatePrep(q, signs), draw(st.sampled_from([1, -1]))))
    return record


def ruled_out(candidate: Circuit, round_) -> bool:
    """The round's outcome has probability 0 for the candidate."""
    p, prep, outcome = round_
    return expectation_on_prep(prep, conjugate_pauli(tableau_dagger(candidate), p)) == -outcome


class TestScreen:
    """The bit-level screen on recorded rounds, against expectation_on_prep."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_rule_on_lifts_sharing_q_letters(self, data):
        # L copies q's letters on a drawn subset (rich in Y) and sometimes
        # one more drawn letter, with a drawn sign: the cases where the
        # round's outcome can be impossible.
        n = data.draw(st.integers(1, 6))
        q = data.draw(paulis_with_y(n))[data.draw(st.integers(0, 2))]
        q = negated(q) if data.draw(st.booleans()) else q
        keep = data.draw(st.integers(0, (1 << n) - 1))
        extra_x, extra_z = (
            data.draw(st.integers(0, 1)) << data.draw(st.integers(0, n - 1)) for _ in "xz"
        )
        sign = data.draw(st.sampled_from([1, -1]))
        lift = PauliString.from_bits(n, (q.x & keep) ^ extra_x, (q.z & keep) ^ extra_z, sign)
        prep = EigenstatePrep(q, data.draw(st.integers(0, (1 << n) - 1)) & (q.x | q.z))
        outcome = data.draw(st.sampled_from([1, -1]))
        recorded = (0, q.x, q.z, prep.signs, outcome != prep.eigenvalue)
        expected = expectation_on_prep(prep, pauli_multiply(lift, q)) == -outcome
        assert _rules_out((lift.x, lift.z, lift.phase_t), recorded) == expected

    @settings(max_examples=60)
    @given(data=st.data())
    def test_depth_one_drop_decision(self, data):
        u = data.draw(short_clifford_circuits(1, 12))
        for round_ in data.draw(recorded_rounds(u)):
            kept = screened(u, 1, [round_])
            for index, c in enumerate(candidates(u, 1)):
                if index:
                    assert (index in kept) == (not ruled_out(c, round_)), index

    @settings(max_examples=40)
    @given(data=st.data())
    def test_sampled_depth_two_drop_decision(self, data):
        u = data.draw(short_clifford_circuits(2, 5))
        stride = data.draw(st.sampled_from([7, 17, 31]))
        start = data.draw(st.integers(1, stride))
        for round_ in data.draw(recorded_rounds(u)):
            kept = screened(u, 2, [round_])
            sample = itertools.islice(enumerate(candidates(u, 2)), start, None, stride)
            for index, c in sample:
                assert (index in kept) == (not ruled_out(c, round_)), index

    @settings(max_examples=60)
    @given(data=st.data())
    def test_never_drops_the_box(self, data):
        depth = data.draw(st.sampled_from([1, 2]))
        u = data.draw(short_clifford_circuits(1, 10 if depth == 1 else 4))
        near = list(candidates(u, depth))
        box = near[data.draw(st.integers(0, len(near) - 1))]
        n, td = u.n_qubits, tableau_dagger(u)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pull_back = partial(conjugate_pauli, td)
        record = [_round(n, pull_back, CliffordBlackBox(box), rng) for _ in range(30)]
        kept = screened(u, depth, record)
        truth = tableau_from_circuit(box).rows
        step = 1 if depth == 1 else 7
        for index in range(1, len(near), step):
            if tableau_from_circuit(near[index]).rows == truth:
                assert index in kept, index
        assert near.index(box) == 0 or near.index(box) in kept


@st.composite
def fidelity_pairs(draw) -> tuple[Circuit, Circuit]:
    """An equal, Pauli-shifted, one-gate or random pair of Clifford circuits, n <= 5."""
    u = draw(clifford_circuits(max_n=5))
    n = u.n_qubits
    kind = draw(st.sampled_from(["equal", "pauli-shifted", "one-gate", "random"]))
    at = draw(st.integers(0, u.n_gates))
    if kind == "equal":
        q = draw(st.integers(0, n - 1))
        cancelling = draw(st.sampled_from([("H", "H"), ("S", "SDG"), ("X", "X")]))
        inserted = tuple(gate(k, q) for k in cancelling)
    elif kind == "pauli-shifted":
        inserted = (gate(draw(st.sampled_from("XYZ")), draw(st.integers(0, n - 1))),)
    elif kind == "one-gate" and u.n_gates:
        at = min(at, u.n_gates - 1)
        return u, Circuit(n, u.gates[:at] + (draw(clifford_gates_on(n)),) + u.gates[at + 1 :])
    else:
        return u, draw(clifford_circuits(max_n=n, min_n=n))
    return u, Circuit(n, u.gates[:at] + inserted + u.gates[at:])


class TestEntanglementFidelity:
    def test_equal_tableaux(self, rng):
        t = tableau_from_circuit(random_clifford_circuit(3, 30, rng))
        assert entanglement_fidelity_clifford(t, t) == 1.0

    def test_phase_gate_saturates_bound(self):
        t_s = tableau_from_circuit(Circuit(2, (gate("S", 0),)))
        t_i = tableau_from_circuit(Circuit(2, ()))
        assert entanglement_fidelity_clifford(t_s, t_i) == 0.5

    def test_all_distinct_one_qubit_pairs_bounded(self):
        circuits = one_qubit_clifford_circuits()
        assert len(circuits) == 24
        tableaux = [tableau_from_circuit(c) for c in circuits]
        pairs = 0
        for i, a in enumerate(tableaux):
            for j, b in enumerate(tableaux):
                if i == j:
                    continue
                pairs += 1
                assert entanglement_fidelity_clifford(a, b) <= 0.5 + 1e-12
        assert pairs == 552

    def test_matches_dense_trace_overlap(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            u = random_clifford_circuit(n, 30, rng)
            ut = random_clifford_circuit(n, 30, rng)
            via_counting = entanglement_fidelity_clifford(
                tableau_from_circuit(u), tableau_from_circuit(ut)
            )
            dense = abs(trace_overlap(circuit_unitary(u), circuit_unitary(ut))) ** 2
            assert via_counting == pytest.approx(dense, abs=1e-9)

    @settings(max_examples=300)
    @given(fidelity_pairs())
    def test_kernel_formula_equals_enumeration(self, pair):
        u, ut = (tableau_from_circuit(c) for c in pair)
        assert entanglement_fidelity_clifford(u, ut) == entanglement_fidelity_enumerated(u, ut)

    @pytest.mark.parametrize("n", [8, 1000])
    def test_any_width(self, rng, n):
        c = random_clifford_circuit(n, 4 * n, rng)
        t = tableau_from_circuit(c)
        padded = Circuit(n, c.gates[:n] + (gate("H", 3), gate("H", 3)) + c.gates[n:])
        assert entanglement_fidelity_clifford(t, tableau_from_circuit(padded)) == 1.0
        shifted = Circuit(n, c.gates + (gate("Z", n // 2),))
        assert entanglement_fidelity_clifford(t, tableau_from_circuit(shifted)) == 0.0
        s, identity = Circuit(n, (gate("S", n - 1),)), Circuit(n, ())
        assert entanglement_fidelity_clifford(*map(tableau_from_circuit, (s, identity))) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            entanglement_fidelity_clifford(
                tableau_from_circuit(Circuit(2, ())), tableau_from_circuit(Circuit(3, ()))
            )


def test_one_qubit_clifford_group_structure():
    circuits = one_qubit_clifford_circuits()
    keys = {tableau_from_circuit(c).rows for c in circuits}
    assert len(keys) == 24
