"""Winnowing pipeline: KL bound, repeated swap shots, batch discipline."""

import numpy as np
import pytest

import qverify.core as core
import qverify.pipeline as pipeline
from conftest import haar_unitary, random_general_circuit
from qverify.core import Circuit, UnitaryMatrix, custom_gate, gate
from qverify.errors import CapExceeded, DomainError, EvenBatch
from qverify.metrics import one_gate_pair, worst_distance
from qverify.pipeline import (
    FactoryModel,
    SwapShotTester,
    batch_failure_bound,
    kl_divergence_binary,
    simulate_production,
    winnow_batch,
)

LN2 = float(np.log(2))

IDEAL = Circuit(1, (gate("H", 0),))
DISTINCT_FAULTS = [Circuit(1, (gate(k, 0),)) for k in ("X", "Y", "Z", "S", "SDG")]

# H -> I and S -> SDG both sit at worst-case distance 1 and give a
# single-shot swap detection of 1/2.
LINE_FAULTS = [(0, gate("I", 0)), (2, gate("SDG", 1))]


def line_ideal():
    return Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("S", 1)))


class TestKLDivergence:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_zero_on_diagonal(self, p):
        q = min(max(p, 1e-9), 1 - 1e-9)
        assert kl_divergence_binary(q, q) == pytest.approx(0.0, abs=1e-15)

    def test_half_versus_point_one(self):
        # 0.5 ln 5 + 0.5 ln(5/9), evaluated by hand
        assert kl_divergence_binary(0.5, 0.1) == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_single_term_case(self):
        assert kl_divergence_binary(1.0, 0.5) == pytest.approx(LN2, abs=1e-15)

    def test_zero_times_log_zero(self):
        assert kl_divergence_binary(0.0, 0.3) == pytest.approx(np.log(1 / 0.7), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kl_divergence_binary(0.5, 0.0)
        with pytest.raises(DomainError):
            kl_divergence_binary(0.5, 1.0)
        with pytest.raises(DomainError):
            kl_divergence_binary(1.5, 0.5)

    def test_matching_endpoints_allowed(self):
        assert kl_divergence_binary(0.0, 0.0) == 0.0
        assert kl_divergence_binary(1.0, 1.0) == 0.0


class TestBatchFailureBound:
    def test_approaches_one_near_half(self):
        assert batch_failure_bound(0.4999999, 11) == pytest.approx(1.0, abs=1e-4)

    def test_frozen_value(self):
        assert batch_failure_bound(0.1, 11) == pytest.approx(3.6290e-3, rel=1e-3)

    def test_monotone_in_f_and_n(self):
        assert batch_failure_bound(0.1, 11) < batch_failure_bound(0.2, 11)
        assert batch_failure_bound(0.1, 13) < batch_failure_bound(0.1, 11)

    def test_zero_fault_rate(self):
        assert batch_failure_bound(0.0, 11) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            batch_failure_bound(0.5, 11)
        with pytest.raises(DomainError):
            batch_failure_bound(0.1, 10)

    def test_chernoff_dominates_monte_carlo(self, rng):
        f, n, batches = 0.1, 11, 10**5
        overfull = (rng.binomial(n, f, size=batches) > n / 2).mean()
        assert overfull <= batch_failure_bound(f, n)


def _fixed_table(n, p):
    """A batch of n circuits whose every pair fires one swap shot with probability p."""
    return np.full((n, n), p)


# 449 circuits make 100,576 pairs, each an independent draw of r shots.
MANY = 449


class TestRepeatedShots:
    def test_equal_pair_never_fires(self, rng):
        r = SwapShotTester(delta=1e-3).repetitions
        for _ in range(1000):
            assert not winnow_batch(_fixed_table(3, 0.0), r, rng).pair_verdicts.any()

    def test_one_sided_detection_floor_one_third(self, rng):
        r = SwapShotTester(delta=1e-4).repetitions
        table = winnow_batch(_fixed_table(MANY, 1 / 3), r, rng).pair_verdicts
        verdicts = table[np.triu_indices(MANY, 1)]
        assert len(verdicts) >= 10**5
        assert np.mean(~verdicts) <= 1e-4

    def test_lax_delta_still_at_least_one_run(self):
        t = SwapShotTester(delta=0.5)
        assert t.repetitions >= 1
        assert t.repetitions == int(np.ceil(18 * np.log(2)))

    def test_subnormal_delta(self):
        # 1 / 1e-320 overflows to inf; -log(delta) stays finite.
        t = SwapShotTester(delta=1e-320)
        assert t.repetitions == int(np.ceil(18 * -np.log(1e-320)))

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            SwapShotTester(delta=0.0)
        with pytest.raises(DomainError):
            SwapShotTester(delta=1.0)


def _row_pairs(factory, cap=12):
    return pipeline._RowPairs(factory, cap)


def _fault_circuits(factory):
    """The factory's faulty circuits, rebuilt from their (position, gate) sites."""
    return tuple(one_gate_pair(factory.ideal, pos, g)[1] for pos, g in factory.faults)


def _row_circuit(factory, row):
    return factory.ideal if row == 0 else one_gate_pair(factory.ideal, *factory.faults[row - 1])[1]


class TestSwapShotTester:
    def test_equal_circuits_never_fire(self, rng):
        # Rounding leaves 0.5 - 0.5 |v|^2 at ~1e-15 on equal pairs; the
        # one-sided tester must report exactly 0.
        tester = SwapShotTester(1e-3)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            c = random_general_circuit(n, 20, rng, custom_prob=0.2)
            q = int(rng.integers(0, n))
            padded = Circuit(n, c.gates + (gate("H", q), gate("H", q)))
            assert tester.shot_probability(c, c) == 0.0
            assert tester.shot_probability(c, padded) == 0.0

    def test_pair_probabilities_match_shot_probability(self, rng):
        # A run's pairs, read off the factory's rows, against the two
        # circuits compared on their window.
        ideal = random_general_circuit(3, 8, rng, custom_prob=0.5)
        replacements = [
            (pos, custom_gate(haar_unitary(2**g.n_targets, rng), *g.targets))
            for pos, g in enumerate(ideal.gates)
            for _ in range(2)
        ]
        factory = FactoryModel(ideal, 0.1, replacements, eps=1e-3)
        tester, pairs = SwapShotTester(1e-3), _row_pairs(factory)
        for _ in range(20):
            rows = rng.integers(0, len(factory.faults) + 1, (3, 7))
            got = pairs.pair_probabilities(rows)
            for batch, probabilities in zip(rows, got):
                expected = [
                    tester.shot_probability(_row_circuit(factory, batch[i]), _row_circuit(factory, batch[j]))
                    for i in range(7)
                    for j in range(i + 1, 7)
                ]
                assert probabilities == pytest.approx(expected, abs=1e-12)


def _per_pair_verdicts(probabilities, repetitions, rng):
    """Reference: one scalar binomial draw per pair, pair by pair."""
    n = len(probabilities)
    return np.array(
        [rng.binomial(repetitions, probabilities[i, j]) > 0 for i in range(n) for j in range(i + 1, n)],
        dtype=bool,
    )


class _CountingContract:
    """Stands in for core._contract and counts its calls."""

    _real = staticmethod(core._contract)

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self._real(*args)


class TestPairTable:
    def test_contractions_bounded_by_faults_not_batches(self, monkeypatch):
        # Every dense build goes through core._contract: at most one sweep
        # of the ideal's gates per new transfer V, plus one per V.  The
        # longer run spans several chunks and builds nothing more.
        factory = make_factory(0.3)
        calls = []
        for batches in (300, 3000):
            counter = _CountingContract()
            monkeypatch.setattr(core, "_contract", counter)
            simulate_production(factory, 11, batches, delta=1e-4, seed=5)
            calls.append(counter.calls)
        faults, gates = len(factory.faults), factory.ideal.n_gates
        assert 0 < calls[0] == calls[1] <= faults * (gates + 1)

    def test_one_gate_ideal_builds_nothing_dense(self, monkeypatch):
        # Every fault sits at the one position: each pair is a row against
        # itself, the ideal against a fault, or two faults at one position.
        monkeypatch.setattr(core, "_contract", lambda *a: pytest.fail("dense build"))
        ideal = Circuit(2, (gate("CNOT", 0, 1),))
        replacements = [(0, custom_gate(haar_unitary(4, np.random.default_rng(s)), 0, 1)) for s in range(6)]
        factory = FactoryModel(ideal, 0.4, replacements, eps=0.1)
        summary = simulate_production(factory, 7, 400, delta=1e-3, seed=2)
        assert summary.pre_rate > 0.3
        assert summary.post_rate < summary.pre_rate

    @pytest.mark.parametrize("delta", [0.4, 1e-4, 1e-30])
    def test_one_draw_equals_per_pair_loop(self, rng, delta):
        r = SwapShotTester(delta).repetitions
        factory = make_factory(0.4)
        pairs = _row_pairs(factory)
        for seed in range(40):
            n = int(rng.choice([1, 3, 5, 11]))
            [p] = pairs.pair_probabilities(rng.integers(0, 3, (1, n)))
            table = np.zeros((n, n))
            table[np.triu_indices(n, 1)] = p
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            a = winnow_batch(table, r, rng_a)
            reference = _per_pair_verdicts(table, r, rng_b)
            assert np.array_equal(a.pair_verdicts[np.triu_indices(n, 1)], reference)
            losses = np.zeros(n, dtype=int)
            np.add.at(losses, np.concatenate(np.triu_indices(n, 1)), np.tile(reference, 2))
            assert a.kept == tuple(k for k in range(n) if losses[k] <= (n - 1) // 2)
            assert a.tests_run == len(reference) * r
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _oracle_table(batch):
    """Error-free pairwise tester: one shot, fired exactly when circuits differ."""
    return np.array([[float(a != b) for b in batch] for a in batch])


class TestWinnowBatch:
    def test_even_batch_rejected(self, rng):
        with pytest.raises(EvenBatch):
            winnow_batch(_oracle_table([IDEAL] * 4), 1, rng)

    def test_all_perfect_batch_keeps_everything(self, rng):
        result = winnow_batch(_oracle_table([IDEAL] * 11), 1, rng)
        assert result.discarded == ()
        assert result.kept == tuple(range(11))
        assert result.tests_run == 55

    def test_single_fault_removed(self, rng):
        batch = [IDEAL] * 11
        batch[4] = DISTINCT_FAULTS[0]
        result = winnow_batch(_oracle_table(batch), 1, rng, truth=[i == 4 for i in range(11)])
        assert result.discarded == (4,)
        assert result.truth[4] is True

    def test_majority_faulty_batch_mishandled(self, rng):
        # 6 identical faults in a batch of 11: the conditioning event
        # fails and all good circuits are thrown away instead.
        batch = [DISTINCT_FAULTS[0]] * 6 + [IDEAL] * 5
        result = winnow_batch(_oracle_table(batch), 1, rng)
        assert result.discarded == (6, 7, 8, 9, 10)
        assert result.kept == (0, 1, 2, 3, 4, 5)

    def test_exhaustive_minority_fault_patterns(self, rng):
        # every truth pattern on 5 circuits with < 3 faults, distinct faults
        n = 5
        for pattern in range(2**n):
            flags = [(pattern >> i) & 1 == 1 for i in range(n)]
            if sum(flags) >= 3:
                continue
            fault_iter = iter(DISTINCT_FAULTS)
            batch = [next(fault_iter) if f else IDEAL for f in flags]
            result = winnow_batch(_oracle_table(batch), 1, rng, truth=flags)
            assert set(result.discarded) == {i for i, f in enumerate(flags) if f}

    def test_pair_table_symmetric(self, rng):
        batch = [IDEAL] * 4 + [DISTINCT_FAULTS[0]]
        result = winnow_batch(_oracle_table(batch), 1, rng)
        assert np.array_equal(result.pair_verdicts, result.pair_verdicts.T)
        assert not result.pair_verdicts.diagonal().any()

    def test_tests_run_counts_majority_repetitions(self, rng):
        t = SwapShotTester(delta=0.1)
        result = winnow_batch(_oracle_table([IDEAL] * 5), t.repetitions, rng)
        assert result.tests_run == 10 * t.repetitions


def make_factory(fault_prob=0.1):
    return FactoryModel(line_ideal(), fault_prob, LINE_FAULTS, eps=1.0)


class TestFactoryModel:
    def test_validates_fault_distance(self):
        ideal = Circuit(1, (gate("H", 0),))
        with pytest.raises(DomainError):
            FactoryModel(ideal, 0.1, [(0, gate("H", 0))], eps=0.5)
        factory = FactoryModel(ideal, 0.1, [(0, gate("H", 0)), (0, gate("X", 0))], eps=0.5)
        assert _fault_circuits(factory) == (Circuit(1, (gate("X", 0),)),)

    def test_screens_each_distinct_matrix_pair_once(self, monkeypatch):
        # The H positions share H -> X, and the two reversed CNOTs
        # (separate CUSTOM arrays, equal content) share one check.
        reversed_cnot = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        ideal = Circuit(3, (gate("H", 0), gate("CNOT", 0, 1), gate("H", 1), gate("CNOT", 2, 1), gate("H", 2)))
        replacements = [
            (0, gate("X", 0)), (1, custom_gate(reversed_cnot, 0, 1)), (2, gate("X", 1)),
            (3, custom_gate(reversed_cnot, 2, 1)), (4, gate("T", 2)), (4, gate("X", 2)),
        ]
        reference = tuple(
            one_gate_pair(ideal, p, g)[1]
            for p, g in replacements
            if worst_distance(UnitaryMatrix(ideal.gates[p].unitary()), UnitaryMatrix(g.unitary())) >= 0.5 - 1e-9
        )
        calls = []
        monkeypatch.setattr(pipeline, "worst_distance", lambda u, v: calls.append(1) or worst_distance(u, v))
        assert _fault_circuits(FactoryModel(ideal, 0.1, replacements, eps=0.5)) == reference
        assert len(calls) == 3  # H -> X, CNOT -> reversed CNOT, H -> T

    def test_sample_rates(self, rng):
        factory = make_factory(0.25)
        rows = factory.sample_rows(rng, 2000)
        assert abs(np.mean([row > 0 for row in rows]) - 0.25) < 0.05
        assert set(rows) == {0, 1, 2}

    def test_fault_prob_domain(self):
        with pytest.raises(DomainError):
            make_factory(0.6)


class TestSimulateProduction:
    def test_zero_fault_rate(self):
        summary = simulate_production(make_factory(0.0), 5, 50, delta=1e-3, seed=1)
        assert summary.post_rate == 0.0
        assert summary.discarded_total == 0
        assert summary.pre_rate == 0.0

    def test_deterministic(self):
        a = simulate_production(make_factory(), 5, 40, delta=1e-3, seed=9)
        b = simulate_production(make_factory(), 5, 40, delta=1e-3, seed=9)
        assert a == b

    def test_winnowing_reduces_fault_rate(self):
        summary = simulate_production(make_factory(0.15), 7, 400, delta=1e-3, seed=3)
        assert summary.pre_rate > 0.05
        assert summary.post_rate <= summary.pre_rate
        assert summary.tests_per_batch == 21 * SwapShotTester(1e-3).repetitions

    @pytest.mark.parametrize("f,delta", [(0.05, 1e-3), (0.1, 1e-4), (0.2, 1e-3)])
    def test_never_increases_fault_rate(self, f, delta):
        summary = simulate_production(make_factory(f), 5, 300, delta=delta, seed=11)
        assert summary.post_rate <= summary.pre_rate

    def test_lax_delta_degrades_post_rate(self):
        # S over-rotated by theta = 2 arcsin(sqrt(0.1)) sits at Dmax =
        # sqrt(0.1) and fires a swap shot with p = Dmax^2 / 2 = 0.05.  delta
        # = 0.4 leaves such faults mostly unflagged while delta = 1e-4
        # still catches them: the delta << 1/n^2 regime matters.
        theta = 2 * np.arcsin(np.sqrt(0.1))
        over_rotated = custom_gate(np.diag([1, np.exp(1j * (np.pi / 2 + theta))]), 1)
        factory = FactoryModel(line_ideal(), 0.15, [(2, over_rotated)], eps=0.3)
        [fault] = _fault_circuits(factory)
        assert SwapShotTester(0.4).shot_probability(factory.ideal, fault) == pytest.approx(0.05)
        lax = simulate_production(factory, 11, 300, delta=0.4, seed=13)
        tight = simulate_production(factory, 11, 300, delta=1e-4, seed=13)
        assert lax.post_rate > 0.05
        assert tight.post_rate < 0.02
        assert lax.post_rate > 3 * tight.post_rate

    def test_cap_checked_before_any_batch(self, monkeypatch):
        # A batch of one circuit has no pair, so no unitary would be built.
        monkeypatch.setattr(pipeline, "winnow_batch", lambda *a: pytest.fail("batch run"))
        ghz = Circuit(3, (gate("H", 0), gate("CNOT", 0, 1), gate("CNOT", 1, 2)))
        factory = FactoryModel(ghz, 0.1, [(0, gate("X", 0))], eps=0.5)
        with pytest.raises(CapExceeded):
            simulate_production(factory, 1, 1, delta=1e-3, seed=0, cap=2)

    def test_even_batch_rejected(self):
        with pytest.raises(EvenBatch):
            simulate_production(make_factory(), 4, 10, delta=1e-3, seed=0)
