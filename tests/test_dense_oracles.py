"""Property tests of the dense kernels against independent oracles.

* `circuit_unitary` (tensor contraction) against the product of
  basis-enumeration embeddings of each gate.
* `worst_distance` (shortest eigenphase arc) against the distance from
  the origin to the eigenvalues' convex hull.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qverify.core as core
from conftest import embed_oracle, haar_unitary, random_general_circuit
from hull_oracle import hull_worst_distance
from qverify.core import Circuit, Gate, GateKind, UnitaryMatrix, circuit_unitary
from qverify.metrics import worst_distance

ONE_QUBIT_KINDS = [k for k in GateKind if k not in (GateKind.CNOT, GateKind.CUSTOM)]


@st.composite
def gates_on(draw, n: int) -> Gate:
    """A named or CUSTOM gate on a permuted, possibly non-contiguous target list."""
    kind = draw(st.sampled_from(ONE_QUBIT_KINDS + [GateKind.CNOT, GateKind.CUSTOM]))
    if kind is GateKind.CNOT and n < 2:
        kind = GateKind.CUSTOM
    k = {GateKind.CNOT: 2, GateKind.CUSTOM: draw(st.integers(1, min(3, n)))}.get(kind, 1)
    targets = tuple(draw(st.permutations(range(n)))[:k])
    if kind is GateKind.CUSTOM:
        seed = draw(st.integers(0, 2**32 - 1))
        return Gate(kind, targets, haar_unitary(2**k, np.random.default_rng(seed)))
    return Gate(kind, targets)


@st.composite
def circuits(draw, max_n: int = 5) -> Circuit:
    n = draw(st.integers(1, max_n))
    return Circuit(n, tuple(draw(st.lists(gates_on(n), max_size=10))))


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
