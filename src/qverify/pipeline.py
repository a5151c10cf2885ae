"""Production-line winnowing: batch testing circuits against each other.

A factory emits circuits that equal an ideal circuit with probability
1 - f and are faulty (one replaced gate, worst-case distance >= eps)
with probability f.  Batches of odd size are compared pairwise; every
circuit losing more than half of its comparisons is discarded.  As
long as fewer than half the batch is faulty - which fails with
probability at most exp(-KL(1/2 || f) * n) - an error-free pairwise
tester removes exactly the faulty circuits.

The swap-shot tester keys circuits by content: each distinct circuit
gets one row of a table of pair probabilities and one unitary, built
on first sight, so the work and memory of a run grow with the number
of distinct circuits, not with the number of batches.  A batch costs
one table lookup and one vectorised binomial draw.  The table grows in
place, so a tester serves one run in one thread; `simulate_production`
builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DEFAULT_QUBIT_CAP, Circuit, Gate, UnitaryMatrix, circuit_unitary
from .errors import CapExceeded, DomainError, EvenBatch
from .metrics import _clamp01, one_gate_pair, worst_distance
from .seeding import rng_from_seed


def kl_divergence_binary(p: float, q: float) -> float:
    """KL divergence (nats) between Bernoulli(p) and Bernoulli(q).

    0*ln(0/q) counts as 0; q in {0, 1} is only allowed when p matches,
    otherwise the divergence is infinite and DomainError is raised.
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise DomainError(f"probabilities must lie in [0,1]: p={p}, q={q}")
    if q == 0.0 and p > 0.0:
        raise DomainError("KL(p || 0) is infinite for p > 0")
    if q == 1.0 and p < 1.0:
        raise DomainError("KL(p || 1) is infinite for p < 1")
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def batch_failure_bound(f: float, n: int) -> float:
    """Chernoff bound exp(-KL(1/2 || f) * n) on P(more than half faulty)."""
    if not 0.0 <= f < 0.5:
        raise DomainError(f"fault rate must lie in [0, 1/2), got {f}")
    if n % 2 == 0:
        raise DomainError(f"batch size must be odd, got {n}")
    if f == 0.0:
        return 0.0
    return math.exp(-kl_divergence_binary(0.5, f) * n)


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of n items, row-major."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class SwapShotTester:
    """One-sided pairwise tester: r = ceil(18 ln(1/delta)) swap-test shots.

    A pair is 'not equal' as soon as one shot fires; equal circuits
    never fire.  `pair_probabilities` reads a batch's pairs from the
    content-keyed table, filling an entry by `shot_probability` the
    first time its pair is seen; unitaries are built only there.
    """

    def __init__(self, delta: float, cap: int = DEFAULT_QUBIT_CAP):
        if not 0.0 < delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {delta}")
        # -log(delta), not log(1/delta): 1/delta overflows for subnormal delta.
        self.repetitions = max(1, math.ceil(18.0 * -math.log(delta)))
        self._cap = cap
        self._rows: dict[Circuit, int] = {}
        self._unitaries: dict[int, np.ndarray] = {}
        self._table = np.empty((0, 0))  # shot probability by (row, row); nan until seen

    def _row(self, c: Circuit) -> int:
        row = self._rows.setdefault(c, len(self._rows))
        size = len(self._table)
        if row == size:
            grown = np.full((2 * size + 1, 2 * size + 1), np.nan)
            grown[:size, :size] = self._table
            self._table = grown
        return row

    def _unitary(self, c: Circuit) -> np.ndarray:
        row = self._row(c)
        if row not in self._unitaries:
            self._unitaries[row] = circuit_unitary(c, cap=self._cap).matrix
        return self._unitaries[row]

    def shot_probability(self, a: Circuit, b: Circuit) -> float:
        ua, ub = self._unitary(a), self._unitary(b)
        overlap = complex(np.vdot(ua, ub)) / ua.shape[0]
        return _clamp01(0.5 - 0.5 * abs(overlap) ** 2)

    def pair_probabilities(self, batch: Sequence[Circuit]) -> np.ndarray:
        """Shot probabilities of the pairs i < j of `batch`, in row-major order."""
        ids = np.array([self._row(c) for c in batch])
        i, j = _pairs(len(batch))
        a, b = ids[i], ids[j]
        for k in np.flatnonzero(np.isnan(self._table[a, b])):
            if np.isnan(self._table[a[k], b[k]]):  # an earlier pair may have filled it
                self._table[a[k], b[k]] = self.shot_probability(batch[i[k]], batch[j[k]])
        return self._table[a, b]

    def pair_verdicts(self, batch: Sequence[Circuit], rng: np.random.Generator) -> np.ndarray:
        """'Not equal' verdicts of the pairs i < j of `batch`, in row-major order.

        One binomial draw for the whole batch: numpy draws an array in
        the same stream, and so to the same counts, as one draw per pair.
        """
        return rng.binomial(self.repetitions, self.pair_probabilities(batch)) > 0


@dataclass(frozen=True)
class FactoryModel:
    """Source of circuits: the ideal one w.p. 1-f, else a uniform fault.

    `replacements` lists candidate faults as (position, gate) pairs.
    By the transfer identity Dmax(U, Ut) = Dmax(G, Gt) (the one-gate
    case of `core.window`), each is screened on the two gate matrices,
    once per distinct pair of matrices, and those at distance >= eps
    become `faults`; no circuit unitary is built.  The model never
    changes, so runs may share it; each run's tester is its own.
    """

    ideal: Circuit
    fault_prob: float
    replacements: Sequence[tuple[int, Gate]]
    eps: float
    faults: tuple[Circuit, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.fault_prob < 0.5:
            raise DomainError(f"fault_prob must lie in [0, 1/2), got {self.fault_prob}")
        # Keyed by matrix content, so every position sharing a gate pair
        # (every reversed CNOT, say) shares one check.
        matrices: dict[bytes, UnitaryMatrix] = {}
        reaches: dict[tuple[bytes, bytes], bool] = {}

        def key(g: Gate) -> bytes:
            m = g.unitary()
            k = m.tobytes()
            if k not in matrices:
                matrices[k] = UnitaryMatrix(m)
            return k

        faults = []
        for pos, g in self.replacements:
            faulty = one_gate_pair(self.ideal, pos, g)[1]  # checks position and targets
            pair = (key(self.ideal.gates[pos]), key(g))
            if pair not in reaches:
                distance = worst_distance(matrices[pair[0]], matrices[pair[1]])
                reaches[pair] = distance >= self.eps - 1e-9
            if reaches[pair]:
                faults.append(faulty)
        if not faults:
            raise DomainError(
                f"no single-gate replacement of the ideal circuit reaches eps={self.eps}"
            )
        object.__setattr__(self, "faults", tuple(faults))

    def sample(self, rng: np.random.Generator) -> tuple[Circuit, bool]:
        """One circuit off the line plus its ground-truth faulty flag."""
        if rng.random() < self.fault_prob:
            return self.faults[rng.integers(0, len(self.faults))], True
        return self.ideal, False


@dataclass(frozen=True)
class BatchResult:
    """Outcome of winnowing one batch."""

    batch_size: int
    kept: tuple[int, ...]
    discarded: tuple[int, ...]
    truth: tuple[bool, ...] | None
    pair_verdicts: np.ndarray
    tests_run: int


def winnow_batch(
    batch: Sequence[Circuit],
    tester: SwapShotTester,
    rng: np.random.Generator,
    truth: Sequence[bool] | None = None,
) -> BatchResult:
    """Test all pairs; discard circuits losing more than half their tests.

    With odd batch size n each circuit is in n-1 tests; n-1 is even, so
    a circuit with exactly (n-1)/2 'not equal' verdicts is a tie and is
    kept (the rule is strictly more than half).
    """
    n = len(batch)
    if n % 2 == 0:
        raise EvenBatch(f"batch size must be odd, got {n}")
    rows, cols = _pairs(n)
    table = np.zeros((n, n), dtype=bool)
    table[rows, cols] = tester.pair_verdicts(batch, rng)
    table |= table.T
    counts = table.sum(axis=1)
    discarded = tuple(i for i in range(n) if counts[i] > (n - 1) // 2)
    kept = tuple(i for i in range(n) if counts[i] <= (n - 1) // 2)
    table.setflags(write=False)
    return BatchResult(
        batch_size=n,
        kept=kept,
        discarded=discarded,
        truth=tuple(truth) if truth is not None else None,
        pair_verdicts=table,
        tests_run=len(rows) * tester.repetitions,
    )


@dataclass(frozen=True)
class ProductionSummary:
    """Aggregate statistics over a simulated production run."""

    pre_rate: float
    post_rate: float
    tests_per_batch: int
    batches: int
    kept_total: int
    discarded_total: int
    faulty_kept: int
    overfull_rate: float
    bound: float


def simulate_production(
    factory: FactoryModel,
    batch_size: int,
    batches: int,
    delta: float,
    seed: int,
    cap: int = DEFAULT_QUBIT_CAP,
) -> ProductionSummary:
    """Run many batches through winnowing and measure the fault rates.

    pre_rate is the observed factory fault fraction, post_rate the
    faulty fraction among kept circuits.  overfull_rate measures how
    often more than half a batch was faulty, for comparison against
    batch_failure_bound.  The run gets a fresh tester of its own; an
    ideal circuit wider than `cap` qubits is refused before any batch.
    """
    if batch_size % 2 == 0:
        raise EvenBatch(f"batch size must be odd, got {batch_size}")
    if factory.ideal.n_qubits > cap:
        raise CapExceeded(f"{factory.ideal.n_qubits} qubits exceeds dense cap {cap}")
    tester = SwapShotTester(delta, cap)
    total = 0
    faulty_total = 0
    kept_total = 0
    faulty_kept = 0
    overfull = 0
    tests_per_batch = 0
    for b in range(batches):
        sample_rng = rng_from_seed(seed, b, 0)
        test_rng = rng_from_seed(seed, b, 1)
        circuits = []
        truth = []
        for _ in range(batch_size):
            c, bad = factory.sample(sample_rng)
            circuits.append(c)
            truth.append(bad)
        result = winnow_batch(circuits, tester, test_rng, truth)
        tests_per_batch = result.tests_run
        total += batch_size
        faulty_total += sum(truth)
        kept_total += len(result.kept)
        faulty_kept += sum(truth[i] for i in result.kept)
        overfull += sum(truth) > batch_size / 2
    return ProductionSummary(
        pre_rate=faulty_total / total if total else 0.0,
        post_rate=faulty_kept / kept_total if kept_total else 0.0,
        tests_per_batch=tests_per_batch,
        batches=batches,
        kept_total=kept_total,
        discarded_total=total - kept_total,
        faulty_kept=faulty_kept,
        overfull_rate=overfull / batches if batches else 0.0,
        bound=batch_failure_bound(factory.fault_prob, batch_size),
    )
