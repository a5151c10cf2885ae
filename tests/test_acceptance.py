"""Acceptance suite: one test per release criterion, with a printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from clifford_oracles import acceptance_probability
from conftest import haar_unitary, random_one_gate_pair
from qverify.clifford import (
    conjugate_pauli,
    random_clifford_circuit,
    random_pauli,
    symplectic_rank_diff,
    tableau_dagger,
    tableau_equal,
    tableau_from_circuit,
)
from qverify.cliffordtest import (
    CliffordBlackBox,
    _position_alternatives,
    detection_probability_exact,
    entanglement_fidelity_clifford,
    equivalence_verdict,
    find_error,
    one_qubit_clifford_circuits,
    prepare_input,
    run_test_once,
)
from qverify.core import Circuit, UnitaryMatrix, circuit_unitary, gate
from qverify.metrics import (
    avg_distance,
    detection_probabilities,
    flipped_diagonal_pair,
    one_gate_pair,
    trace_overlap,
    two_fault_example,
    verify_theorem1,
    worst_distance,
)
from qverify.pipeline import FactoryModel, batch_failure_bound, simulate_production
from qverify.protocols import BlackBoxUnitary, run_swap_test


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_swap_test_reproduces_detection_probability():
    """200 random one-gate pairs (n=5, k in {1,2}): empirical swap-test
    frequency at 1e5 shots within 3 binomial sigma of D^2/2; < 1 min."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    shots = 10**5
    worst_dev = 0.0
    for i in range(200):
        (u, ut), _, k = random_one_gate_pair(5, rng, k=1 + i % 2)
        p = detection_probabilities(circuit_unitary(u), circuit_unitary(ut)).p_swap
        outcome = run_swap_test(
            BlackBoxUnitary(u), BlackBoxUnitary(ut), shots, seed=2000 + i
        )
        sigma = np.sqrt(p * (1 - p) / shots)
        dev = abs(outcome.ones_observed / shots - p)
        worst_dev = max(worst_dev, dev - 3 * sigma)
        assert dev <= 3 * sigma, f"pair {i}: |freq - p| = {dev:.2e} > 3 sigma"
    elapsed = time.perf_counter() - start
    report(
        1,
        "swap test matches D^2/2 within 3 sigma on 200 one-gate pairs",
        elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_transfer_identities():
    """D and Dmax transfer from the whole circuit to the differing gate;
    detection floor p >= Dmax^2 / 2^(k+2)."""
    rng = np.random.default_rng(102)
    for i in range(100):
        (u, ut), (g, gt), k = random_one_gate_pair(
            5, rng, k=1 + i % 3, non_contiguous=(i % 2 == 0)
        )
        cu, cut = circuit_unitary(u), circuit_unitary(ut)
        gu = UnitaryMatrix(g.matrix, tol=1e-9)
        gut = UnitaryMatrix(gt.matrix, tol=1e-9)
        assert abs(avg_distance(cu, cut) - avg_distance(gu, gut)) <= 1e-9
        assert abs(worst_distance(cu, cut) - worst_distance(gu, gut)) <= 1e-9
        p_swap = detection_probabilities(cu, cut).p_swap
        assert p_swap >= worst_distance(cu, cut) ** 2 / 2 ** (k + 2) - 1e-9
    report(2, "one-gate transfer identities hold on 100 pairs", True)


def test_criterion_03_worst_case_bounded_by_average():
    """Dmax <= 2^((n+1)/2) D on 500 random unitary pairs, n <= 6."""
    rng = np.random.default_rng(103)
    violations = 0
    for i in range(500):
        n = 1 + i % 6
        u = UnitaryMatrix(haar_unitary(2**n, rng))
        ut = UnitaryMatrix(haar_unitary(2**n, rng))
        if not verify_theorem1(u, ut)[2]:
            violations += 1
    report(3, "Dmax <= 2^((n+1)/2) D on 500 random pairs", violations == 0)


def test_criterion_04_needle_example_n10():
    """Flipped-diagonal pair at n = 10: Dmax = 1, D exponentially small."""
    u, ut = flipped_diagonal_pair(10)
    dmax = worst_distance(u, ut)
    d = avg_distance(u, ut)
    expected_d = np.sqrt(4 / 1024 - 4 / 1024**2)
    ok = abs(dmax - 1.0) <= 1e-9 and abs(d - expected_d) <= 1e-9
    report(4, "needle pair at n=10", ok, f"Dmax={dmax:.12f}, D={d:.6e}")


def test_criterion_05_two_fault_counterexample():
    """C^(n-1)NOT with dropped Hadamards, n = 2..10: trace 2^n - 2,
    Dmax = 1, yet per-shot swap detection collapses to ~4/2^n / 2."""
    for n in range(2, 11):
        u, ut = two_fault_example(n)
        cu, cut = circuit_unitary(u), circuit_unitary(ut)
        v = trace_overlap(cu, cut)
        assert abs(v * 2**n - (2**n - 2)) <= 1e-9, f"trace at n={n}"
        assert abs(worst_distance(cu, cut) - 1.0) <= 1e-9, f"Dmax at n={n}"
        expected_p = (1 - (1 - 2 / 2**n) ** 2) / 2
        p = detection_probabilities(cu, cut).p_swap
        assert abs(p - expected_p) <= 1e-9, f"p_swap at n={n}"
    report(5, "two-fault pair: undetectable despite Dmax = 1, n = 2..10", True)


def test_criterion_06_clifford_soundness():
    """Equal Cliffords always accept: probability exactly 1 and zero
    rejections in 1e4 sampled runs across 100 random circuits."""
    rng = np.random.default_rng(106)
    rejections = 0
    for i in range(100):
        n = 1 + i % 6
        c = random_clifford_circuit(n, 40, rng)
        t = tableau_from_circuit(c)
        td = tableau_dagger(c)
        for _ in range(3):
            q = conjugate_pauli(td, random_pauli(n, rng))
            prep = prepare_input(q, rng)
            assert acceptance_probability(t, t, q, prep) == 1.0
        box = CliffordBlackBox(c)
        for _ in range(100):
            run = run_test_once(td, box, rng)
            rejections += run.outcome != run.eigenvalue
    report(6, "equal Cliffords never rejected (1e4 runs)", rejections == 0)


def test_criterion_07_pauli_difference_detected_half_the_time():
    """Pauli-shifted pairs have per-run detection exactly 1/2,
    exhaustively over all nonidentity shifts at n <= 3."""
    rng = np.random.default_rng(107)
    for n in (1, 2, 3):
        u = random_clifford_circuit(n, 25, rng)
        for bits in range(1, 4**n):
            x = sum(((bits >> (2 * j)) & 1) << j for j in range(n))
            z = sum(((bits >> (2 * j + 1)) & 1) << j for j in range(n))
            from qverify.clifford import PauliString

            r = PauliString.from_bits(n, x, z, 1)
            layer = tuple(gate(a, j) for j, a in enumerate(r.letters()) if a != "I")
            ut = Circuit(n, u.gates + layer)
            assert detection_probability_exact(u, ut) == 0.5
    report(7, "Pauli shifts detected with probability exactly 1/2", True)


def test_criterion_08_tableau_path_matches_dense_simulation():
    """Acceptance probabilities through tableaux equal dense statevector
    simulation to 1e-9 on 200 random distinct Clifford pairs, n <= 5."""
    from conftest import pauli_kron, prep_statevector

    rng = np.random.default_rng(108)
    checked = 0
    while checked < 200:
        n = 1 + checked % 5
        u = random_clifford_circuit(n, 30, rng)
        ut = random_clifford_circuit(n, 30, rng)
        tu, tut = tableau_from_circuit(u), tableau_from_circuit(ut)
        if tableau_equal(tu, tut):
            continue
        p = random_pauli(n, rng)
        q = conjugate_pauli(tableau_dagger(u), p)
        prep = prepare_input(q, rng)
        analytic = acceptance_probability(tu, tut, q, prep)
        psi = prep_statevector(prep)
        evolved = circuit_unitary(ut).matrix @ psi
        e = np.vdot(evolved, pauli_kron(p.letters()) @ evolved).real
        dense = (1 + prep.eigenvalue * e) / 2
        assert abs(analytic - dense) <= 1e-9
        checked += 1
    report(8, "tableau acceptance probabilities match dense simulation", True)


def test_criterion_09_differing_pauli_fraction():
    """Distinct symplectic matrices differ on a 1 - 2^(-rank) >= 1/2
    fraction of Paulis; exhaustive Pauli enumeration at n <= 3."""
    rng = np.random.default_rng(109)
    distinct_seen = 0
    for i in range(60):
        n = 1 + i % 3
        a = tableau_from_circuit(random_clifford_circuit(n, 25, rng))
        b = tableau_from_circuit(random_clifford_circuit(n, 25, rng))
        rank = symplectic_rank_diff(a, b)
        differing = 0
        for bits in range(4**n):
            x = sum(((bits >> (2 * j)) & 1) << j for j in range(n))
            z = sum(((bits >> (2 * j + 1)) & 1) << j for j in range(n))
            from qverify.clifford import PauliString

            p = PauliString.from_bits(n, x, z, 1)
            ia, ib = conjugate_pauli(a, p), conjugate_pauli(b, p)
            differing += (ia.x, ia.z) != (ib.x, ib.z)
        assert differing == 4**n * (1 - 2.0**-rank)
        if rank > 0:
            distinct_seen += 1
            assert differing / 4**n >= 0.5
    report(
        9,
        "differing-Pauli fraction equals 1 - 2^(-rank) and is >= 1/2",
        distinct_seen >= 30,
        f"{distinct_seen} distinct pairs",
    )


def test_criterion_10_clifford_fidelity_bound():
    """Distinct Cliffords have entanglement fidelity <= 1/2; the bound is
    tight (exactly 1/2) for the phase gate against the identity."""
    circuits = one_qubit_clifford_circuits()
    assert len(circuits) == 24
    tableaux = [tableau_from_circuit(c) for c in circuits]
    worst = 0.0
    pairs = 0
    for i, a in enumerate(tableaux):
        for j, b in enumerate(tableaux):
            if i == j:
                continue
            pairs += 1
            worst = max(worst, entanglement_fidelity_clifford(a, b))
    tight = entanglement_fidelity_clifford(
        tableau_from_circuit(Circuit(2, (gate("S", 0),))),
        tableau_from_circuit(Circuit(2, ())),
    )
    ok = pairs == 552 and worst <= 0.5 + 1e-12 and tight == 0.5
    report(10, "fidelity <= 1/2 on all 552 pairs, tight at S x I", ok, f"max={worst}")


def test_criterion_11_error_finder_recovers_planted_faults():
    """100 plant-and-recover trials (n=8, s=50, one replacement from the
    alphabet, 40 runs per candidate): >= 99 recoveries, < 5 min."""
    rng = np.random.default_rng(111)
    start = time.perf_counter()
    recovered = 0
    for trial in range(100):
        u = random_clifford_circuit(8, 50, rng)
        position = int(rng.integers(0, 50))
        alternatives = _position_alternatives(u.gates[position])
        replacement = alternatives[int(rng.integers(0, len(alternatives)))]
        planted = Circuit(
            8, u.gates[:position] + replacement + u.gates[position + 1 :]
        )
        try:
            found = find_error(
                u, CliffordBlackBox(planted), depth=1, repetitions=40, seed=trial
            )
        except Exception:
            continue
        recovered += tableau_equal(
            tableau_from_circuit(found), tableau_from_circuit(planted)
        )
    elapsed = time.perf_counter() - start
    report(
        11,
        "error finder recovers planted faults",
        recovered >= 99 and elapsed < 300,
        f"{recovered}/100 in {elapsed:.0f}s",
    )


def test_criterion_12_production_line_winnowing():
    """f=0.1, per-pair detection >= 1/3, batch 11, delta=1e-4, 1e4
    batches: post-winnow fault rate < 0.01 and overfull-batch rate within
    the Chernoff bound."""
    ideal = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("S", 1)))
    # Both faults sit at Dmax = 1 and give single-shot detection 1/2 >= 1/3.
    options = [(0, gate("I", 0)), (2, gate("SDG", 1))]
    factory = FactoryModel(ideal, 0.1, options, eps=1.0)
    for pos, g in options:
        faulty = one_gate_pair(ideal, pos, g)[1]
        p = detection_probabilities(circuit_unitary(ideal), circuit_unitary(faulty)).p_swap
        assert p >= 1 / 3
    summary = simulate_production(factory, 11, 10**4, delta=1e-4, seed=112)
    bound = batch_failure_bound(0.1, 11)
    ok = summary.post_rate < 0.01 and summary.overfull_rate <= bound
    report(
        12,
        "winnowing reduces fault rate below 1%",
        ok,
        f"pre={summary.pre_rate:.4f}, post={summary.post_rate:.2e}, "
        f"overfull={summary.overfull_rate:.2e} <= bound={bound:.2e}",
    )


def test_criterion_13_clifford_test_scales():
    """clifford-test at n=200 with 1e4-gate circuits, 100 runs, < 10 s."""
    rng = np.random.default_rng(113)
    n = 200
    u = random_clifford_circuit(n, 10**4, rng)
    ut = Circuit(n, u.gates + (gate("Z", 17),))
    start = time.perf_counter()
    box = CliffordBlackBox(ut)
    rep = equivalence_verdict(u, box, 100, seed=113)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10 and rep.verdict == "different"
    report(13, "n=200, 1e4 gates, 100 runs", ok, f"{elapsed:.2f}s, verdict {rep.verdict}")
