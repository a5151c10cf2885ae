"""Property tests of the dense kernels against independent oracles.

* `circuit_unitary` (tensor contraction) against the product of
  basis-enumeration embeddings of each gate.
* `worst_distance` (shortest eigenphase arc) against the distance from
  the origin to the eigenvalues' convex hull.
* `window` (the 2^m window where two circuits differ) against the full
  2^n unitaries: overlap, D, Dmax and the three protocols' shot
  probabilities; and, on one-gate pairs of up to 64 qubits, against
  the transfer values of the two gate matrices.
* Theorem 1 at the window's width m against the full unitaries' D and
  Dmax.
* The production line's pair table (read off the factory's rows)
  against the full 2^n unitaries of every pair of its circuits.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import qverify.core as core
from conftest import (
    ONE_QUBIT_KINDS,
    circuits,
    embed_oracle,
    gates_on,
    haar_unitary,
    load_benchmark_workloads,
    random_general_circuit,
)
from hull_oracle import hull_worst_distance
from qverify.circuit_format import load_circuit
from qverify.core import Circuit, Gate, GateKind, UnitaryMatrix, circuit_unitary, custom_gate, gate, window
from qverify.errors import DomainError
from qverify.metrics import detection_probabilities, one_gate_pair, theorem1, worst_distance
from qverify.pipeline import FactoryModel, _RowPairs
from qverify.protocols import (
    ALL_CAPABILITIES,
    BlackBoxUnitary,
    run_conditional_test,
    run_inverse_test,
    run_swap_test,
)


def product_oracle(c: Circuit) -> np.ndarray:
    u = np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        u = embed_oracle(g, c.n_qubits) @ u
    return u


class TestCircuitUnitaryOracle:
    @given(circuits())
    def test_matches_product_of_embedded_gates(self, c):
        assert np.max(np.abs(circuit_unitary(c).matrix - product_oracle(c))) <= 1e-12

    def test_one_unitarity_check_per_call(self, rng, monkeypatch):
        c = random_general_circuit(5, 40, rng, custom_prob=0.3)
        checks = []
        real_check = core._check_unitary
        monkeypatch.setattr(core, "_check_unitary", lambda m, tol: checks.append(tol) or real_check(m, tol))
        circuit_unitary(c)
        assert checks == [core.DERIVED_TOL]


def unitary_with_phases(phases, seed: int) -> np.ndarray:
    """Q diag(e^{i phases}) Q^dag for a Haar-random Q."""
    q = haar_unitary(len(phases), np.random.default_rng(seed))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def arc_and_hull(phases, seed: int) -> tuple[float, float]:
    w = unitary_with_phases(phases, seed)
    identity = UnitaryMatrix(np.eye(len(phases), dtype=complex))
    return worst_distance(identity, UnitaryMatrix(w)), hull_worst_distance(w)


def assert_agree(arc: float, hull: float) -> None:
    # sqrt(1 - mu^2) turns rounding in the hull's mu ~ 1 into ~1e-8 in
    # Dmax, so compare both Dmax and mu = sqrt(1 - Dmax^2).
    assert arc == pytest.approx(hull, abs=1e-7)
    assert math.sqrt(1 - arc**2) == pytest.approx(math.sqrt(1 - hull**2), abs=1e-7)


def wrapped(x: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * x))


@st.composite
def phase_clusters(draw) -> list[float]:
    """2^n phases spread over an arc of any width around any centre.

    Centres near +-pi put the cluster across the branch cut of `angle`.
    """
    d = 2 ** draw(st.integers(1, 4))
    centre = draw(st.floats(-math.pi, math.pi))
    width = draw(st.floats(0.0, 2 * math.pi))
    offsets = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    return list(wrapped(centre + width * np.array(offsets)))


@st.composite
def repeated_phases(draw) -> list[float]:
    """2^n phases drawn with repetition from a pool of at most three."""
    d = 2 ** draw(st.integers(1, 4))
    pool = draw(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))


class TestWorstDistanceOracle:
    @given(phase_clusters(), st.integers(0, 2**32 - 1))
    @example([math.pi - 0.1, -math.pi + 0.1], 0)  # wraps: arc 0.2, not 2pi - 0.2
    @example([3.0, -3.0, math.pi, -math.pi], 1)
    def test_clusters_match_hull(self, phases, seed):
        assert_agree(*arc_and_hull(phases, seed))

    @given(repeated_phases(), st.integers(0, 2**32 - 1))
    @example([0.3, 0.3, 0.3, 0.3], 2)
    @example([0.0, 0.0, 2.0, 2.0], 3)
    def test_repeated_eigenvalues_match_hull(self, phases, seed):
        assert_agree(*arc_and_hull(phases, seed))

    @pytest.mark.parametrize(
        "phases",
        [[0.0, math.pi], [math.pi / 2, -math.pi / 2], [0.0, 0.0, math.pi, math.pi], [1.0, 1.0 + math.pi]],
    )
    def test_arc_of_exactly_pi_is_maximal(self, phases):
        for seed in range(5):
            arc, hull = arc_and_hull(phases, seed)
            assert arc == pytest.approx(1.0, abs=1e-12)
            assert hull == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minus_identity_is_distance_zero(self, n):
        eye = np.eye(2**n, dtype=complex)
        assert worst_distance(UnitaryMatrix(eye), UnitaryMatrix(-eye)) == 0.0
        for seed in range(5):
            arc, hull = arc_and_hull([math.pi] * 2**n, seed)
            assert arc <= 1e-12
            assert hull <= 1e-7


def assert_window_matches_full(a: Circuit, b: Circuit) -> int:
    """Compare the window's values with the full ones; returns the window's width."""
    x, y = window(a, b)
    assert x.n_qubits == y.n_qubits
    u, ut = circuit_unitary(a), circuit_unitary(b)
    full = detection_probabilities(u, ut)
    win = detection_probabilities(x, y)
    assert abs(win.trace_overlap - full.trace_overlap) <= 1e-12
    assert win.avg_distance == pytest.approx(full.avg_distance, abs=1e-12)
    assert win.worst_distance == pytest.approx(full.worst_distance, abs=1e-9)
    # The protocols read the window through the box; the full values
    # are the closed forms on the full overlap.
    boxes = BlackBoxUnitary(a, ALL_CAPABILITIES), BlackBoxUnitary(b, ALL_CAPABILITIES)
    assert run_swap_test(*boxes, 1, 0).analytic_p == pytest.approx(full.p_swap, abs=1e-12)
    assert run_conditional_test(*boxes, 1, 0).analytic_p == pytest.approx(full.p_conditional, abs=1e-12)
    inverse = run_inverse_test(a, boxes[1], 1, 0).analytic_p
    assert inverse == pytest.approx(1 - full.ent_fidelity, abs=1e-12)
    return x.n_qubits


@st.composite
def window_pairs(draw, max_n: int = 6) -> tuple[Circuit, Circuit, int]:
    """Two circuits around middles that may differ, and the middles' width.

    Either shared part may be empty (a window at either end, or over the
    whole circuit), the middles may be empty or of different lengths, and
    they act on a drawn subset of the qubits, often not contiguous.
    """
    n = draw(st.integers(1, max_n))
    shared = st.lists(gates_on(n), max_size=6)
    prefix, suffix = tuple(draw(shared)), tuple(draw(shared))
    subset = sorted(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
    middle = st.lists(gates_on(len(subset)), max_size=4)

    def placed(gates):
        return tuple(Gate(g.kind, tuple(subset[t] for t in g.targets), g.matrix) for g in gates)

    xa, xb = placed(draw(middle)), placed(draw(middle))
    return Circuit(n, prefix + xa + suffix), Circuit(n, prefix + xb + suffix), len(subset)


_T = gate("T", 2)
_CUSTOM = custom_gate(haar_unitary(4, np.random.default_rng(5)), 4, 1)
_TAIL = (gate("H", 0), gate("CNOT", 0, 3), gate("S", 5), _CUSTOM)
# name: (a, b, width of their window)
_EDGE_PAIRS = {
    "empty window": (Circuit(6, _TAIL), Circuit(6, _TAIL), 1),
    "window at the start": (Circuit(6, (_T,) + _TAIL), Circuit(6, (gate("X", 2),) + _TAIL), 1),
    "window at the end": (Circuit(6, _TAIL + (_T,)), Circuit(6, _TAIL), 1),
    "non-contiguous CUSTOM window": (
        Circuit(6, _TAIL[:2] + (_CUSTOM,) + _TAIL[2:]),
        Circuit(6, _TAIL[:2] + (custom_gate(haar_unitary(4, np.random.default_rng(6)), 4, 1),) + _TAIL[2:]),
        2,
    ),
    "different lengths": (
        Circuit(6, _TAIL),
        Circuit(6, _TAIL[:2] + (gate("H", 5), gate("H", 5)) + _TAIL[2:]),
        1,
    ),
    "whole circuit": (
        Circuit(6, _TAIL + (gate("CNOT", 1, 2),)),
        Circuit(6, (gate("T", 1),) + _TAIL + (gate("CNOT", 2, 1),)),
        6,
    ),
}


class TestWindowOracle:
    @given(window_pairs())
    def test_matches_full_unitaries(self, pair):
        a, b, width = pair
        assert assert_window_matches_full(a, b) <= width

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(circuits(n, n), circuits(n, n))))
    def test_unrelated_circuits_match_full_unitaries(self, pair):
        assert_window_matches_full(*pair)

    @pytest.mark.parametrize("case", list(_EDGE_PAIRS))
    def test_edge_cases_match_full_unitaries(self, case):
        a, b, width = _EDGE_PAIRS[case]
        assert assert_window_matches_full(a, b) == width

    def test_whole_circuit_window(self):
        a, b, _ = _EDGE_PAIRS["whole circuit"]
        assert np.array_equal(window(a, b)[0].matrix, circuit_unitary(a).matrix)

    def test_empty_window_is_exactly_equal(self):
        x, y = window(*_EDGE_PAIRS["empty window"][:2])
        assert np.array_equal(x.matrix, np.eye(2)) and np.array_equal(y.matrix, np.eye(2))
        report = detection_probabilities(x, y)
        assert report.trace_overlap == 1
        assert report.avg_distance == report.worst_distance == 0.0

    def test_relabels_in_increasing_qubit_order(self):
        # The middles touch qubits 4 and 1; the CUSTOM gate lists 4 first,
        # so on the window's qubits (1 -> 0, 4 -> 1) it acts on (1, 0).
        x, _ = window(*_EDGE_PAIRS["non-contiguous CUSTOM window"][:2])
        relabelled = Circuit(2, (Gate(GateKind.CUSTOM, (1, 0), _CUSTOM.matrix),))
        assert np.array_equal(x.matrix, circuit_unitary(relabelled).matrix)

    @given(window_pairs())
    def test_theorem1_holds_at_window_width(self, pair):
        # X and Y are m-qubit unitaries, so 2^((m+1)/2) bounds Dmax / D
        # of the full circuits too.
        a, b, _ = pair
        x, y = window(a, b)
        m = x.n_qubits
        assert theorem1(detection_probabilities(x, y), m)[2]
        full = detection_probabilities(circuit_unitary(a), circuit_unitary(b))
        assert full.worst_distance <= 2.0 ** ((m + 1) / 2.0) * full.avg_distance + 1e-9

    def test_benchmark_dense_pairs_match_full_unitaries(self, tmp_path, monkeypatch):
        workloads = load_benchmark_workloads(monkeypatch)
        pairs = 0
        for seed in (1, 2, 11):
            plan = workloads.make_plan("dense-mix", seed, tmp_path / str(seed))
            for request in (plan.warmup, *plan.requests):
                argv = list(request.argv)
                a = load_circuit(argv[argv.index("--u") + 1])
                b = load_circuit(argv[argv.index("--ut") + 1])
                assert assert_window_matches_full(a, b) <= 2
                pairs += 1
        assert pairs == 57


@st.composite
def wide_one_gate_pairs(draw, max_n: int = 64) -> tuple[Circuit, Circuit, Gate, Gate]:
    """A pair differing in one gate, on up to `max_n` qubits, and its two gates."""
    n = draw(st.integers(1, max_n))
    shared = st.lists(gates_on(n), max_size=6)
    prefix, suffix = tuple(draw(shared)), tuple(draw(shared))
    original = draw(gates_on(n))
    k = original.n_targets
    if k == 1 and draw(st.booleans()):
        replacement = Gate(draw(st.sampled_from(ONE_QUBIT_KINDS)), original.targets)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        replacement = custom_gate(haar_unitary(2**k, np.random.default_rng(seed)), *original.targets)
    u, ut = one_gate_pair(Circuit(n, prefix + (original,) + suffix), len(prefix), replacement)
    return u, ut, original, replacement


class TestOneGatePairsAtAnyWidth:
    @given(wide_one_gate_pairs())
    def test_match_gate_transfer_values(self, case):
        u, ut, original, replacement = case
        gates = detection_probabilities(UnitaryMatrix(original.unitary()), UnitaryMatrix(replacement.unitary()))
        widths = []
        real_build = core.circuit_unitary

        def recording(c, cap=core.DEFAULT_QUBIT_CAP):
            widths.append(c.n_qubits)
            return real_build(c, cap)

        boxes = BlackBoxUnitary(u, ALL_CAPABILITIES), BlackBoxUnitary(ut, ALL_CAPABILITIES)
        with mock.patch.object(core, "circuit_unitary", recording):
            report = detection_probabilities(*window(u, ut))
            swap = run_swap_test(*boxes, 1, 0).analytic_p
            conditional = run_conditional_test(*boxes, 1, 0).analytic_p
            inverse = run_inverse_test(u, boxes[1], 1, 0).analytic_p
        assert max(widths) <= original.n_targets
        assert report.avg_distance == pytest.approx(gates.avg_distance, abs=1e-12)
        assert report.worst_distance == pytest.approx(gates.worst_distance, abs=1e-9)
        assert swap == pytest.approx(gates.p_swap, abs=1e-12)
        assert conditional == pytest.approx(gates.p_conditional, abs=1e-12)
        assert inverse == pytest.approx(1 - gates.ent_fidelity, abs=1e-12)


@st.composite
def factories(draw, max_n: int = 4) -> FactoryModel:
    """A factory on a random ideal of named and CUSTOM gates.

    Each position gets up to three replacements on its targets, named
    or CUSTOM, so faults share positions as well as sit apart.
    """
    ideal = draw(circuits(max_n=max_n).filter(lambda c: c.n_gates > 0))
    replacements = []
    for pos, g in enumerate(ideal.gates):
        for _ in range(draw(st.integers(0, 3))):
            if g.n_targets == 1 and draw(st.booleans()):
                alt = Gate(draw(st.sampled_from(ONE_QUBIT_KINDS)), g.targets)
            else:
                seed = draw(st.integers(0, 2**32 - 1))
                alt = custom_gate(haar_unitary(2**g.n_targets, np.random.default_rng(seed)), *g.targets)
            replacements.append((pos, alt))
    try:
        return FactoryModel(ideal, 0.1, replacements, eps=1e-6)
    except DomainError:  # no replacement differs from its gate
        assume(False)


class TestPairTableOracle:
    @given(factories())
    def test_every_pair_matches_full_unitaries(self, factory):
        faulty = (one_gate_pair(factory.ideal, pos, g)[1] for pos, g in factory.faults)
        circuits_by_row = (factory.ideal, *faulty)
        unitaries = [circuit_unitary(c).matrix for c in circuits_by_row]
        batch = list(range(len(circuits_by_row))) * 2  # every pair of rows, and every row with itself
        [got] = _RowPairs(factory, cap=core.DEFAULT_QUBIT_CAP).pair_probabilities(np.array([batch]))
        i, j = np.triu_indices(len(batch), 1)
        for a, b, p in zip(np.array(batch)[i], np.array(batch)[j], got):
            if a == b:
                assert p == 0.0
                continue
            overlap = np.vdot(unitaries[a], unitaries[b]) / len(unitaries[a])
            assert abs(p - (0.5 - 0.5 * abs(overlap) ** 2)) <= 1e-12
