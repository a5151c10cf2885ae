"""Distance metrics: closed forms, eigenphase-arc worst case, transfer identities."""

import numpy as np
import pytest

from conftest import haar_unitary, random_general_circuit, random_one_gate_pair
from qverify.core import Circuit, UnitaryMatrix, circuit_unitary, gate
from qverify.errors import DimensionMismatch, TargetMismatch
from qverify.metrics import (
    DistanceReport,
    avg_distance,
    detection_probabilities,
    flipped_diagonal_pair,
    multi_controlled_not,
    one_gate_pair,
    theorem1,
    trace_overlap,
    two_fault_example,
    verify_theorem1,
    worst_distance,
)


def u_eye(n):
    return UnitaryMatrix(np.eye(2**n, dtype=complex))


class TestTraceOverlap:
    def test_equal(self, rng):
        u = UnitaryMatrix(haar_unitary(8, rng))
        assert trace_overlap(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_negated(self, rng):
        u = haar_unitary(8, rng)
        assert trace_overlap(UnitaryMatrix(u), UnitaryMatrix(-u)) == pytest.approx(
            -1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_two_fault_closed_form(self, n):
        u, ut = two_fault_example(n)
        v = trace_overlap(circuit_unitary(u), circuit_unitary(ut))
        assert v == pytest.approx((2**n - 2) / 2**n, abs=1e-9)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            trace_overlap(u_eye(1), u_eye(2))


class TestAvgDistance:
    def test_global_phase_invisible(self, rng):
        u = haar_unitary(16, rng)
        assert avg_distance(UnitaryMatrix(u), UnitaryMatrix(np.exp(0.7j) * u)) == pytest.approx(
            0.0, abs=1e-9
        )

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_needle_closed_form(self, n):
        u, ut = flipped_diagonal_pair(n)
        assert avg_distance(u, ut) == pytest.approx(
            np.sqrt(4 / 2**n - 4 / 2 ** (2 * n)), abs=1e-12
        )

    def test_two_fault_closed_form(self):
        u, ut = two_fault_example(5)
        d = avg_distance(circuit_unitary(u), circuit_unitary(ut))
        assert d**2 == pytest.approx(1 - (1 - 2 / 32) ** 2, abs=1e-9)

    def test_zero_overlap_gives_one(self):
        # v = 0 has no phase to align; D must still be exactly 1.
        assert avg_distance(u_eye(1), circuit_unitary(Circuit(1, (gate("X", 0),)))) == 1.0

    def test_exact_on_padded_equal_pair(self, rng):
        # 1 - |v|^2 leaves ~1e-16 of rounding, so sqrt gave D ~ 1e-8; the
        # phase-aligned residual keeps D at the rounding of U itself.
        c = random_general_circuit(4, 30, rng, custom_prob=0.2)
        padded = Circuit(4, c.gates + (gate("H", 2), gate("H", 2)))
        u, ut = circuit_unitary(c), circuit_unitary(padded)
        assert avg_distance(u, ut) < 1e-14
        report = detection_probabilities(u, ut)
        assert (report.avg_distance, report.p_swap, report.worst_distance) == (0.0, 0.0, 0.0)
        assert theorem1(report, 4) == (0.0, 0.0, True)


class TestWorstDistance:
    def test_negated_unitary_indistinguishable(self, rng):
        u = haar_unitary(8, rng)
        assert worst_distance(UnitaryMatrix(u), UnitaryMatrix(-u)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_needle_maximal(self):
        u, ut = flipped_diagonal_pair(6)
        assert worst_distance(u, ut) == pytest.approx(1.0, abs=1e-9)

    def test_two_fault_maximal(self):
        u, ut = two_fault_example(4)
        assert worst_distance(circuit_unitary(u), circuit_unitary(ut)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_hull_never_exceeds_sampled_minimum(self, rng):
        # Random search can only overestimate the true minimum modulus.
        for n in (1, 2, 3):
            for _ in range(3):
                w = haar_unitary(2**n, rng) @ haar_unitary(2**n, rng).conj().T
                mu_hull = np.sqrt(max(0.0, 1 - worst_distance(u_eye(n), UnitaryMatrix(w)) ** 2))
                phis = rng.standard_normal((2**n, 10**5)) + 1j * rng.standard_normal(
                    (2**n, 10**5)
                )
                phis /= np.linalg.norm(phis, axis=0)
                sampled = np.abs(np.sum(phis.conj() * (w @ phis), axis=0)).min()
                assert mu_hull <= sampled + 1e-6


class TestTheorem1:
    def test_equal_pair_exact(self):
        lhs, rhs, holds = verify_theorem1(u_eye(3), u_eye(3))
        assert (lhs, rhs, holds) == (0.0, 0.0, True)

    def test_equal_pair_haar(self, rng):
        # sqrt amplifies the ~1e-16 rounding in W = U^dag U to ~1e-8
        u = UnitaryMatrix(haar_unitary(8, rng))
        lhs, rhs, holds = verify_theorem1(u, u)
        assert lhs <= 1e-7 and rhs <= 1e-7 and holds

    def test_equal_circuits_with_cancelling_pair(self, rng):
        # Regression: Dmax came out ~1e-8 here (sqrt(1 - mu^2) at mu ~ 1)
        # against rhs 0, so the bound was reported as violated.
        base = random_general_circuit(8, 40, rng, custom_prob=0.1)
        h = gate("H", 3)
        padded = Circuit(8, base.gates[:20] + (h, h) + base.gates[20:])
        u, ut = circuit_unitary(base), circuit_unitary(padded)
        assert worst_distance(u, ut) <= 1e-12
        assert verify_theorem1(u, ut)[2]

    def test_needle_n4(self):
        u, ut = flipped_diagonal_pair(4)
        lhs, rhs, holds = verify_theorem1(u, ut)
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert rhs == pytest.approx(2**2.5 * np.sqrt(4 / 16 - 4 / 256), abs=1e-9)
        assert holds

    def test_values_below_overflow_unchanged(self):
        report = DistanceReport(0.5 + 0j, 0.8, 1.0, 0.25, 0.32, 0.25)
        for n in (1, 4, 2045, 2046):
            assert theorem1(report, n)[1] == 2.0 ** ((n + 1) / 2.0) * 0.8

    def test_random_pairs_never_violate(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            u = UnitaryMatrix(haar_unitary(2**n, rng))
            ut = UnitaryMatrix(haar_unitary(2**n, rng))
            assert verify_theorem1(u, ut)[2]


class TestDetectionProbabilities:
    def test_equal_pair(self, rng):
        u = UnitaryMatrix(haar_unitary(4, rng))
        report = detection_probabilities(u, u)
        assert report.p_swap == pytest.approx(0.0, abs=1e-12)
        assert report.p_conditional == pytest.approx(0.0, abs=1e-9)

    def test_equal_circuits_report_exact_zero(self, rng):
        for _ in range(30):
            c = random_general_circuit(int(rng.integers(1, 6)), 20, rng, custom_prob=0.2)
            report = detection_probabilities(circuit_unitary(c), circuit_unitary(c))
            assert (report.p_swap, report.p_conditional, report.ent_fidelity) == (0.0, 0.0, 1.0)

    def test_negated_pair(self, rng):
        u = haar_unitary(4, rng)
        report = detection_probabilities(UnitaryMatrix(u), UnitaryMatrix(-u))
        assert report.p_swap == pytest.approx(0.0, abs=1e-12)
        assert report.p_conditional == pytest.approx(1.0, abs=1e-9)

    def test_two_fault_n10_swap_probability(self):
        u, ut = two_fault_example(10)
        report = detection_probabilities(circuit_unitary(u), circuit_unitary(ut))
        assert report.p_swap == pytest.approx((1 - (1 - 2 / 1024) ** 2) / 2, abs=1e-9)

    def test_report_invariants(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            r = detection_probabilities(
                UnitaryMatrix(haar_unitary(2**n, rng)), UnitaryMatrix(haar_unitary(2**n, rng))
            )
            assert r.avg_distance**2 + abs(r.trace_overlap) ** 2 == pytest.approx(1, abs=1e-9)
            assert r.worst_distance >= r.avg_distance - 1e-9
            assert abs(r.p_swap - r.avg_distance**2 / 2) <= 1e-12
            assert 0 <= r.p_conditional <= 1

    def test_global_phase_invariance_except_conditional(self, rng):
        u = UnitaryMatrix(haar_unitary(8, rng))
        ut = haar_unitary(8, rng)
        a = detection_probabilities(u, UnitaryMatrix(ut))
        b = detection_probabilities(u, UnitaryMatrix(np.exp(1.2345j) * ut))
        assert a.avg_distance == pytest.approx(b.avg_distance, abs=1e-9)
        assert a.worst_distance == pytest.approx(b.worst_distance, abs=1e-9)
        assert a.ent_fidelity == pytest.approx(b.ent_fidelity, abs=1e-9)
        assert a.p_swap == pytest.approx(b.p_swap, abs=1e-9)
        assert abs(a.p_conditional - b.p_conditional) > 1e-6


class TestOneGatePair:
    def test_identical_replacement(self, rng):
        base = random_general_circuit(3, 8, rng)
        u, ut = one_gate_pair(base, 2, base.gates[2])
        assert avg_distance(circuit_unitary(u), circuit_unitary(ut)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_target_mismatch_rejected(self, rng):
        base = Circuit(3, (gate("H", 0), gate("CNOT", 0, 1)))
        with pytest.raises(TargetMismatch):
            one_gate_pair(base, 1, gate("CNOT", 1, 0))

    def test_transfer_identities(self, rng):
        for i in range(25):
            (u, ut), (g, gt), k = random_one_gate_pair(5, rng, non_contiguous=(i % 2 == 0))
            cu, cut = circuit_unitary(u), circuit_unitary(ut)
            gu = UnitaryMatrix(g.matrix, tol=1e-9)
            gut = UnitaryMatrix(gt.matrix, tol=1e-9)
            assert avg_distance(cu, cut) == pytest.approx(avg_distance(gu, gut), abs=1e-9)
            assert worst_distance(cu, cut) == pytest.approx(worst_distance(gu, gut), abs=1e-9)

    def test_swap_detection_floor(self, rng):
        for _ in range(25):
            (u, ut), _, k = random_one_gate_pair(4, rng)
            report = detection_probabilities(circuit_unitary(u), circuit_unitary(ut))
            assert report.p_swap >= report.worst_distance**2 / 2 ** (k + 2) - 1e-9


class TestTwoFaultExample:
    def test_n2_trace(self):
        u, ut = two_fault_example(2)
        v = trace_overlap(circuit_unitary(u), circuit_unitary(ut))
        assert v * 4 == pytest.approx(2.0, abs=1e-9)

    def test_mcnot_matrix(self):
        m = multi_controlled_not(3)
        # |111> <-> |110>, everything else fixed
        assert m[7, 6] == 1 and m[6, 7] == 1 and m[6, 6] == 0
        assert np.array_equal(m[:6, :6], np.eye(6))


def test_haar_average_identity(rng):
    # D^2 = (2^n + 1)/2^n * E_phi[1 - |<phi|W|phi>|^2] over Haar states.
    n = 2
    u = haar_unitary(4, rng)
    ut = haar_unitary(4, rng)
    w = u.conj().T @ ut
    d2 = avg_distance(UnitaryMatrix(u), UnitaryMatrix(ut)) ** 2
    n_samples = 2 * 10**4
    phis = rng.standard_normal((4, n_samples)) + 1j * rng.standard_normal((4, n_samples))
    phis /= np.linalg.norm(phis, axis=0)
    samples = 1 - np.abs(np.sum(phis.conj() * (w @ phis), axis=0)) ** 2
    scale = (2**n + 1) / 2**n
    mean = scale * samples.mean()
    stderr = scale * samples.std(ddof=1) / np.sqrt(n_samples)
    assert abs(mean - d2) <= 3 * stderr
