"""Winnowing pipeline: KL bound, repeated swap shots, batch discipline."""

import numpy as np
import pytest

import qverify.pipeline as pipeline
from conftest import random_general_circuit
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


class _FixedShot(SwapShotTester):
    """Every pair's swap shot fires with fixed probability p."""

    def __init__(self, p, delta):
        super().__init__(delta)
        self.p = p

    def shot_probability(self, a, b):
        return self.p


# 448 circuits make 100,128 pairs, each an independent draw of r shots.
MANY = 448


class TestRepeatedShots:
    def test_equal_pair_never_fires(self, rng):
        t = _FixedShot(0.0, delta=1e-3)
        assert not any(t.pair_verdicts([IDEAL, DISTINCT_FAULTS[0]], rng)[0] for _ in range(1000))

    def test_one_sided_detection_floor_one_third(self, rng):
        t = _FixedShot(1 / 3, delta=1e-4)
        verdicts = t.pair_verdicts([IDEAL] * MANY, rng)
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
        pool = [random_general_circuit(2, 6, rng, custom_prob=0.5) for _ in range(4)]
        tester, reference = SwapShotTester(1e-3), SwapShotTester(1e-3)
        for _ in range(20):
            batch = [pool[k] for k in rng.integers(0, len(pool), 7)]
            expected = [
                reference.shot_probability(batch[i], batch[j])
                for i in range(7)
                for j in range(i + 1, 7)
            ]
            assert tester.pair_probabilities(batch).tolist() == expected


class _CountingSwapShotTester(SwapShotTester):
    def __init__(self):
        super().__init__(1e-4)
        self.calls = 0

    def shot_probability(self, a, b):
        self.calls += 1
        return super().shot_probability(a, b)


class _PerPairSwapShotTester(SwapShotTester):
    """Reference: one scalar binomial draw per pair, pair by pair."""

    def pair_verdicts(self, batch, rng):
        n = len(batch)
        fires = [
            rng.binomial(self.repetitions, self.shot_probability(batch[i], batch[j])) > 0
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return np.array(fires, dtype=bool)


def _fresh_line_circuit(k):
    """Option k of the test factory as a new object: 0 is the ideal, else a fault."""
    ideal = line_ideal()
    return ideal if k == 0 else one_gate_pair(ideal, *LINE_FAULTS[k - 1])[1]


class TestPairTable:
    def test_fresh_equal_circuits_share_one_unitary(self, rng, monkeypatch):
        builds = []
        real_build = pipeline.circuit_unitary
        monkeypatch.setattr(
            pipeline, "circuit_unitary", lambda c, cap: builds.append(c) or real_build(c, cap=cap)
        )
        tester = _CountingSwapShotTester()
        for _ in range(300):
            batch = [_fresh_line_circuit(k) for k in rng.integers(0, 3, 11)]
            winnow_batch(batch, tester, rng)
        distinct = 2 + 1  # the two fault options and the ideal circuit
        assert len(builds) <= distinct
        assert len(tester._unitaries) <= distinct
        assert tester.calls <= distinct**2

    @pytest.mark.parametrize("delta", [0.4, 1e-4, 1e-30])
    def test_one_draw_equals_per_pair_loop(self, rng, delta):
        pool = [random_general_circuit(2, 4, rng, custom_prob=0.5) for _ in range(5)]
        pool += [Circuit(2, pool[0].gates)]  # equal to pool[0], built separately
        one_draw = SwapShotTester(delta)
        per_pair = _PerPairSwapShotTester(delta)
        for seed in range(40):
            batch = [pool[k] for k in rng.integers(0, len(pool), int(rng.choice([1, 3, 5, 11])))]
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            a = winnow_batch(batch, one_draw, rng_a)
            b = winnow_batch(batch, per_pair, rng_b)
            assert np.array_equal(a.pair_verdicts, b.pair_verdicts)
            assert (a.kept, a.tests_run) == (b.kept, b.tests_run)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class _OracleTester:
    """Error-free pairwise tester: fires exactly when circuits differ."""

    repetitions = 1

    def pair_verdicts(self, batch, rng):
        n = len(batch)
        return np.array([batch[i] != batch[j] for i in range(n) for j in range(i + 1, n)], bool)


class TestWinnowBatch:
    def test_even_batch_rejected(self, rng):
        with pytest.raises(EvenBatch):
            winnow_batch([IDEAL] * 4, _OracleTester(), rng)

    def test_all_perfect_batch_keeps_everything(self, rng):
        result = winnow_batch([IDEAL] * 11, _OracleTester(), rng)
        assert result.discarded == ()
        assert result.kept == tuple(range(11))
        assert result.tests_run == 55

    def test_single_fault_removed(self, rng):
        batch = [IDEAL] * 11
        batch[4] = DISTINCT_FAULTS[0]
        result = winnow_batch(batch, _OracleTester(), rng, truth=[i == 4 for i in range(11)])
        assert result.discarded == (4,)
        assert result.truth[4] is True

    def test_majority_faulty_batch_mishandled(self, rng):
        # 6 identical faults in a batch of 11: the conditioning event
        # fails and all good circuits are thrown away instead.
        batch = [DISTINCT_FAULTS[0]] * 6 + [IDEAL] * 5
        result = winnow_batch(batch, _OracleTester(), rng)
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
            result = winnow_batch(batch, _OracleTester(), rng, truth=flags)
            assert set(result.discarded) == {i for i, f in enumerate(flags) if f}

    def test_pair_table_symmetric(self, rng):
        batch = [IDEAL] * 4 + [DISTINCT_FAULTS[0]]
        result = winnow_batch(batch, _OracleTester(), rng)
        assert np.array_equal(result.pair_verdicts, result.pair_verdicts.T)
        assert not result.pair_verdicts.diagonal().any()

    def test_tests_run_counts_majority_repetitions(self, rng):
        t = SwapShotTester(delta=0.1)
        result = winnow_batch([IDEAL] * 5, t, rng)
        assert result.tests_run == 10 * t.repetitions


def make_factory(fault_prob=0.1):
    return FactoryModel(line_ideal(), fault_prob, LINE_FAULTS, eps=1.0)


class TestFactoryModel:
    def test_validates_fault_distance(self):
        ideal = Circuit(1, (gate("H", 0),))
        with pytest.raises(DomainError):
            FactoryModel(ideal, 0.1, [(0, gate("H", 0))], eps=0.5)
        factory = FactoryModel(ideal, 0.1, [(0, gate("H", 0)), (0, gate("X", 0))], eps=0.5)
        assert factory.faults == (Circuit(1, (gate("X", 0),)),)

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
        assert FactoryModel(ideal, 0.1, replacements, eps=0.5).faults == reference
        assert len(calls) == 3  # H -> X, CNOT -> reversed CNOT, H -> T

    def test_sample_rates(self, rng):
        factory = make_factory(0.25)
        flags = [factory.sample(rng)[1] for _ in range(2000)]
        assert abs(np.mean(flags) - 0.25) < 0.05

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
        [fault] = factory.faults
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
