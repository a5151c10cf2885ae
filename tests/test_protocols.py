"""Black-box protocols: analytic probabilities, sampling, capabilities."""

import numpy as np
import pytest

from conftest import random_general_circuit
from literal_protocols import (
    literal_conditional_test_probability,
    literal_inverse_test_probability,
    literal_swap_test_probability,
)
from qverify.core import DEFAULT_QUBIT_CAP, Circuit, circuit_unitary, custom_gate, gate
from qverify.errors import CapabilityMissing, CapExceeded, DimensionMismatch
from qverify.metrics import detection_probabilities, one_gate_pair
from qverify.protocols import (
    ALL_CAPABILITIES,
    BlackBoxUnitary,
    repeat_until_confident,
    run_conditional_test,
    run_inverse_test,
    run_swap_test,
)

MINUS_I_GATES = (gate("Z", 0), gate("X", 0), gate("Z", 0), gate("X", 0))  # X Z X Z = -I
PLUS_I_GATES = (gate("Y", 0), gate("X", 0), gate("Z", 0))  # Z X Y = i I


def box(circuit, caps=ALL_CAPABILITIES):
    return BlackBoxUnitary(circuit, caps)


def needle_circuits(n):
    dim = 2**n
    m = np.eye(dim, dtype=complex)
    m[dim - 1, dim - 1] = -1
    return Circuit(n, ()), Circuit(n, (custom_gate(m, *range(n)),))


class TestSwapTest:
    def test_equal_pair_never_fires(self, rng):
        c = random_general_circuit(3, 15, rng)
        out = run_swap_test(box(c), box(c), shots=2000, seed=1)
        assert out.ones_observed == 0
        assert out.verdict == "equal"
        assert out.analytic_p == 0.0

    def test_phase_blind(self, rng):
        c = random_general_circuit(2, 10, rng)
        minus = Circuit(2, c.gates + MINUS_I_GATES)
        out = run_swap_test(box(c), box(minus), shots=100, seed=2)
        assert out.analytic_p == pytest.approx(0.0, abs=1e-12)

    def test_empirical_frequency_within_3_sigma(self, rng):
        base = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1)))
        u, ut = one_gate_pair(base, 0, gate("I", 0))  # H vs I: D = 1, p = 1/2
        shots = 10**5
        out = run_swap_test(box(u), box(ut), shots=shots, seed=3)
        p = out.analytic_p
        assert p == pytest.approx(0.5, abs=1e-12)
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(out.ones_observed / shots - p) <= 3 * sigma

    def test_deterministic_given_seed(self, rng):
        c1 = random_general_circuit(2, 8, rng)
        c2 = random_general_circuit(2, 8, rng)
        a = run_swap_test(box(c1), box(c2), shots=500, seed=77)
        b = run_swap_test(box(c1), box(c2), shots=500, seed=77)
        assert a == b

    def test_requires_plain(self, rng):
        c = random_general_circuit(2, 5, rng)
        with pytest.raises(CapabilityMissing):
            run_swap_test(BlackBoxUnitary(c, frozenset({"conditional"})), box(c), 10, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            run_swap_test(box(Circuit(1, ())), box(Circuit(2, ())), 10, 1)


class TestConditionalTest:
    def test_equal_pair(self, rng):
        c = random_general_circuit(2, 10, rng)
        out = run_conditional_test(box(c), box(c), shots=200, seed=4)
        assert out.analytic_p == pytest.approx(0.0, abs=1e-12)
        assert out.verdict == "equal"

    def test_negated_pair_always_fires(self, rng):
        c = random_general_circuit(2, 10, rng)
        minus = Circuit(2, c.gates + MINUS_I_GATES)
        out = run_conditional_test(box(c), box(minus), shots=500, seed=5)
        assert out.analytic_p == pytest.approx(1.0, abs=1e-12)
        assert out.ones_observed == 500

    def test_i_phase_gives_half(self, rng):
        c = random_general_circuit(2, 10, rng)
        shifted = Circuit(2, c.gates + PLUS_I_GATES)
        out = run_conditional_test(box(c), box(shifted), shots=10, seed=6)
        assert out.analytic_p == pytest.approx(0.5, abs=1e-12)

    def test_requires_conditional(self, rng):
        c = random_general_circuit(2, 5, rng)
        with pytest.raises(CapabilityMissing):
            run_conditional_test(BlackBoxUnitary(c), BlackBoxUnitary(c), 10, 1)


class TestInverseTest:
    def test_equal_pair(self, rng):
        c = random_general_circuit(3, 12, rng)
        out = run_inverse_test(c, box(c), shots=300, seed=7)
        assert out.analytic_p == pytest.approx(0.0, abs=1e-9)
        assert out.verdict == "equal"

    def test_phase_blind(self, rng):
        c = random_general_circuit(1, 6, rng)
        shifted = Circuit(1, c.gates + PLUS_I_GATES)
        out = run_inverse_test(c, box(shifted), shots=100, seed=8)
        assert out.analytic_p == pytest.approx(0.0, abs=1e-12)

    def test_needle_closed_form_and_sampling(self):
        u, ut = needle_circuits(5)
        shots = 10**5
        out = run_inverse_test(u, box(ut), shots=shots, seed=9)
        expected = 4 / 32 - 4 / 1024
        assert out.analytic_p == pytest.approx(expected, abs=1e-12)
        sigma = np.sqrt(expected * (1 - expected) / shots)
        assert abs(out.ones_observed / shots - expected) <= 3 * sigma


class TestQubitCap:
    """The protocols take a window of up to cap qubits, like `distance`, and stop beyond it."""

    def test_n7_matches_detection_probabilities(self, rng):
        tail = random_general_circuit(7, 30, rng, custom_prob=0.2)
        u, ut = one_gate_pair(Circuit(7, (gate("H", 3),) + tail.gates), 0, gate("T", 3))
        report = detection_probabilities(circuit_unitary(u), circuit_unitary(ut))
        assert report.p_swap > 0.01
        swap = run_swap_test(box(u), box(ut), shots=10, seed=1).analytic_p
        conditional = run_conditional_test(box(u), box(ut), shots=10, seed=1).analytic_p
        inverse = run_inverse_test(u, box(ut), shots=10, seed=1).analytic_p
        assert swap == pytest.approx(report.p_swap, abs=1e-12)
        assert conditional == pytest.approx(report.p_conditional, abs=1e-12)
        assert inverse == pytest.approx(1 - report.ent_fidelity, abs=1e-12)

    @pytest.mark.parametrize("n, cap", [(7, 6), (DEFAULT_QUBIT_CAP + 1, DEFAULT_QUBIT_CAP)])
    def test_cap_plus_one_raises(self, n, cap):
        # An n-qubit window inside wider circuits: CapExceeded names the window.
        c = Circuit(n + 2, tuple(gate("H", q) for q in range(1, n + 1)))
        empty = Circuit(n + 2, ())
        with pytest.raises(CapExceeded, match=f"^{n} qubits exceeds dense cap {cap}$"):
            run_swap_test(box(c), box(empty), 10, 1, cap=cap)
        with pytest.raises(CapExceeded, match=f"^{n} qubits exceeds dense cap {cap}$"):
            run_conditional_test(box(c), box(empty), 10, 1, cap=cap)
        with pytest.raises(CapExceeded, match=f"^{n} qubits exceeds dense cap {cap}$"):
            run_inverse_test(c, box(empty), 10, 1, cap=cap)

    def test_equal_pair_above_cap_runs(self):
        # Its window is empty, so no unitary wider than one qubit is built.
        c = Circuit(DEFAULT_QUBIT_CAP + 1, tuple(gate("H", q) for q in range(DEFAULT_QUBIT_CAP + 1)))
        assert run_swap_test(box(c), box(c), 10, 1).verdict == "equal"
        assert run_conditional_test(box(c), box(c), 10, 1).verdict == "equal"
        assert run_inverse_test(c, box(c), 10, 1).verdict == "equal"


class TestLiteralSimulations:
    """The shortcut Bernoulli parameter equals full statevector simulation."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swap_literal_matches(self, n, rng):
        c1 = random_general_circuit(n, 10, rng)
        c2 = random_general_circuit(n, 10, rng)
        shortcut = run_swap_test(box(c1), box(c2), shots=1, seed=1).analytic_p
        literal = literal_swap_test_probability(c1, c2)
        assert shortcut == pytest.approx(literal, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conditional_literal_matches(self, n, rng):
        c1 = random_general_circuit(n, 10, rng)
        c2 = random_general_circuit(n, 10, rng)
        shortcut = run_conditional_test(box(c1), box(c2), shots=1, seed=1).analytic_p
        literal = literal_conditional_test_probability(c1, c2)
        assert shortcut == pytest.approx(literal, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverse_literal_matches(self, n, rng):
        c1 = random_general_circuit(n, 10, rng)
        c2 = random_general_circuit(n, 10, rng)
        shortcut = run_inverse_test(c1, box(c2), shots=1, seed=1).analytic_p
        literal = literal_inverse_test_probability(c1, c2)
        assert shortcut == pytest.approx(literal, abs=1e-9)

    def test_conditional_literal_sees_minus(self, rng):
        c = random_general_circuit(2, 8, rng)
        minus = Circuit(2, c.gates + MINUS_I_GATES)
        assert literal_conditional_test_probability(c, minus) == pytest.approx(1.0, abs=1e-9)
        assert literal_swap_test_probability(c, minus) == pytest.approx(0.0, abs=1e-9)


class TestBlackBoxOpacity:
    def test_gate_list_not_reachable(self, rng):
        b = box(random_general_circuit(2, 5, rng))
        assert not hasattr(b, "circuit")
        assert not hasattr(b, "gates")
        public = [a for a in dir(b) if not a.startswith("_")]
        assert set(public) <= {"n_qubits", "capabilities", "require"}

    def test_apply_matches_direct_application(self, rng):
        # The box's one reader returns the window of another circuit or
        # box against the hidden circuit; against the empty circuit, with
        # every qubit touched, that is the hidden circuit's unitary.
        c = Circuit(2, (gate("CNOT", 0, 1),) + random_general_circuit(2, 8, rng).gates)
        empty = Circuit(2, ())
        for other in (empty, box(empty)):
            identity, got = box(c)._window("plain", other)
            assert np.array_equal(got.matrix, circuit_unitary(c).matrix)
            assert np.array_equal(identity.matrix, np.eye(4))

    def test_window_needs_the_capability_on_both_boxes(self, rng):
        c = random_general_circuit(2, 8, rng)
        with pytest.raises(CapabilityMissing):
            box(c)._window("conditional", BlackBoxUnitary(c))
        with pytest.raises(CapabilityMissing):
            BlackBoxUnitary(c)._window("conditional", box(c))
        box(c)._window("conditional", c)  # a known circuit needs no grant

    def test_inverse_capability(self, rng):
        # The inverse test builds U^dag classically, so Ut needs only
        # plain access and no box grants an inverse.
        c = random_general_circuit(2, 8, rng)
        with pytest.raises(CapabilityMissing):
            BlackBoxUnitary(c, frozenset({"inverse"}))
        assert run_inverse_test(c, BlackBoxUnitary(c), 10, 1).verdict == "equal"


class TestRepeatUntilConfident:
    def test_equal_pair_always_equal(self, rng):
        c = random_general_circuit(2, 8, rng)
        for trial in range(50):
            verdict, runs = repeat_until_confident(
                lambda shots: run_swap_test(box(c), box(c), shots, seed=trial),
                eps=0.5,
                delta=0.05,
            )
            assert verdict == "equal"
            assert runs > 0

    def test_detects_large_distance_with_confidence(self):
        base = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1)))
        u, ut = one_gate_pair(base, 0, gate("I", 0))  # Dmax = 1, p = 1/2
        delta = 0.1
        failures = 0
        for trial in range(1000):
            verdict, runs = repeat_until_confident(
                lambda shots: run_swap_test(box(u), box(ut), shots, seed=trial),
                eps=1.0,
                delta=delta,
            )
            failures += verdict != "different"
        assert runs == int(np.ceil(np.log(1 / delta) * 8))
        assert failures / 1000 <= delta

    def test_subnormal_delta(self):
        # 1 / 1e-320 overflows to inf; -log(delta) stays finite.
        base = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1)))
        u, ut = one_gate_pair(base, 0, gate("I", 0))
        verdict, runs = repeat_until_confident(
            lambda shots: run_swap_test(box(u), box(ut), shots, seed=0), eps=1.0, delta=1e-320
        )
        assert (verdict, runs) == ("different", int(np.ceil(-np.log(1e-320) * 8)))

    def test_delta_one_boundary(self, rng):
        c = random_general_circuit(2, 5, rng)
        verdict, runs = repeat_until_confident(
            lambda shots: run_swap_test(box(c), box(c), shots, seed=0), eps=0.5, delta=1.0
        )
        assert (verdict, runs) == ("equal", 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            repeat_until_confident(lambda s: None, eps=0.0, delta=0.5)
        with pytest.raises(ValueError):
            repeat_until_confident(lambda s: None, eps=0.5, delta=0.0)


def test_outcome_invariant():
    from qverify.protocols import ProtocolOutcome

    with pytest.raises(ValueError):
        ProtocolOutcome("swap", 10, 11, 0.5, "different", 0)
