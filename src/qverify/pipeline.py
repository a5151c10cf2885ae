"""Production-line winnowing: batch testing circuits against each other.

A factory emits circuits that equal an ideal circuit with probability
1 - f and are faulty (one replaced gate, worst-case distance >= eps)
with probability f.  Batches of odd size are compared pairwise; every
circuit losing more than half of its comparisons is discarded.  As
long as fewer than half the batch is faulty - which fails with
probability at most exp(-KL(1/2 || f) * n) - an error-free pairwise
tester removes exactly the faulty circuits.

A run works on the factory's rows, not on circuits: row 0 is the ideal
and row f + 1 is the ideal with fault f's gate in place.  Batches are
drawn as rows a chunk at a time, and only the pairs of rows that meet
in a chunk get a swap-shot probability, each from the smallest object
that carries it:

* a row against itself: exactly 0;
* the ideal against a fault, or two faults at one position: the two
  2^k gate matrices, Tr(G_a^dag G_b) / 2^k (the transfer identity);
* two faults at positions i != j: V_f = P_i^dag (G_i^dag Gt_f (x) I) P_i
  from the ideal's prefix products (`core.one_gate_transfers`).  Fault
  f's unitary is U V_f, so Tr(U_a^dag U_b) = Tr(V_a^dag V_b) and the
  suffix is never built.

No circuit unitary is built: a run holds one live prefix while it
sweeps the ideal's gates, plus one V per fault that met a fault at
another position.  Each batch then costs one vectorised binomial draw
on its own seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DEFAULT_QUBIT_CAP, Circuit, Gate, UnitaryMatrix, one_gate_transfers, window
from .errors import CapExceeded, DomainError, EvenBatch
from .metrics import _clamp01, one_gate_pair, trace_overlap, worst_distance
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


# Pairs drawn and filled at once: a run's memory stays flat in its batch count.
_CHUNK_PAIRS = 1 << 16


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of n items, row-major."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _shot_probability(overlap: complex) -> float:
    """One swap shot's firing probability at trace overlap Tr(U^dag V) / 2^n."""
    return _clamp01(0.5 - 0.5 * abs(overlap) ** 2)


class SwapShotTester:
    """One-sided pairwise tester: r = ceil(18 ln(1/delta)) swap-test shots.

    A pair is 'not equal' as soon as one of its r shots fires; equal
    circuits never fire.  `shot_probability` compares two circuits on
    the window where they differ (`core.window`), so `cap` bounds the
    window, not the circuits.  `simulate_production` takes r from here
    and reads its pairs' probabilities off the factory's rows instead.
    """

    def __init__(self, delta: float, cap: int = DEFAULT_QUBIT_CAP):
        if not 0.0 < delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {delta}")
        # -log(delta), not log(1/delta): 1/delta overflows for subnormal delta.
        self.repetitions = max(1, math.ceil(18.0 * -math.log(delta)))
        self._cap = cap

    def shot_probability(self, a: Circuit, b: Circuit) -> float:
        return _shot_probability(trace_overlap(*window(a, b, cap=self._cap)))


@dataclass(frozen=True)
class FactoryModel:
    """Source of circuits: the ideal one w.p. 1-f, else a uniform fault.

    `replacements` lists candidate faults as (position, gate) pairs.
    By the transfer identity Dmax(U, Ut) = Dmax(G, Gt) (the one-gate
    case of `core.window`), each is screened on the two gate matrices,
    once per distinct pair of matrices, and those at distance >= eps
    become `faults`, with their (position, gate) in `fault_sites`; no
    circuit unitary is built.  The model never changes, so runs may
    share it.
    """

    ideal: Circuit
    fault_prob: float
    replacements: Sequence[tuple[int, Gate]]
    eps: float
    faults: tuple[Circuit, ...] = field(init=False, repr=False, compare=False)
    fault_sites: tuple[tuple[int, Gate], ...] = field(init=False, repr=False, compare=False)

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

        faults, sites = [], []
        for pos, g in self.replacements:
            faulty = one_gate_pair(self.ideal, pos, g)[1]  # checks position and targets
            pair = (key(self.ideal.gates[pos]), key(g))
            if pair not in reaches:
                distance = worst_distance(matrices[pair[0]], matrices[pair[1]])
                reaches[pair] = distance >= self.eps - 1e-9
            if reaches[pair]:
                faults.append(faulty)
                sites.append((pos, g))
        if not faults:
            raise DomainError(
                f"no single-gate replacement of the ideal circuit reaches eps={self.eps}"
            )
        object.__setattr__(self, "faults", tuple(faults))
        object.__setattr__(self, "fault_sites", tuple(sites))

    def sample_rows(self, rng: np.random.Generator, count: int) -> list[int]:
        """`count` circuits off the line, as rows: 0 for the ideal, f + 1 for faults[f].

        Each circuit draws rng.random(), then rng.integers for a fault.
        """
        random, integers, faults = rng.random, rng.integers, len(self.faults)
        return [int(integers(0, faults)) + 1 if random() < self.fault_prob else 0 for _ in range(count)]


class _RowPairs:
    """Swap-shot probabilities between a factory's rows, for the pairs that meet.

    Row 0 is the ideal and row f + 1 is fault f (see the module notes).
    The ideal's probability against a fault is kept once computed, and
    a fault's V once it met a fault at another position.
    """

    def __init__(self, factory: FactoryModel, cap: int):
        self._ideal = factory.ideal
        self._sites = factory.fault_sites
        self._cap = cap
        self._against_ideal = np.full(len(self._sites) + 1, np.nan)  # by row, nan until met
        self._transfers: dict[int, np.ndarray] = {}  # V by fault

    def pair_probabilities(self, rows: np.ndarray) -> np.ndarray:
        """Probabilities of the pairs i < j of each batch (a row of `rows`), row-major."""
        i, j = _pairs(rows.shape[1])
        left, right = rows[:, i], rows[:, j]
        out = np.zeros(left.shape)  # a row against itself stays exactly 0
        with_ideal = (left == 0) != (right == 0)
        faults = left[with_ideal] + right[with_ideal]
        for f in set(faults[np.isnan(self._against_ideal[faults])].tolist()):
            self._against_ideal[f] = self._probability(0, f)
        out[with_ideal] = self._against_ideal[faults]
        two = (left != right) & (left > 0) & (right > 0)
        lo, hi = np.minimum(left[two], right[two]), np.maximum(left[two], right[two])
        width = len(self._sites) + 1
        keys, where = np.unique(lo * width + hi, return_inverse=True)
        met = [divmod(k, width) for k in keys.tolist()]
        apart = {
            f
            for a, b in met
            if self._sites[a - 1][0] != self._sites[b - 1][0]
            for f in (a - 1, b - 1)
            if f not in self._transfers
        }
        if apart:
            new = sorted(apart)
            transfers = one_gate_transfers(self._ideal, [self._sites[f] for f in new], self._cap)
            self._transfers.update(zip(new, transfers))
        out[two] = np.array([self._probability(a, b) for a, b in met])[where]
        return out

    def _probability(self, a: int, b: int) -> float:
        """Rows a < b: the ideal (a = 0) or a fault against fault b - 1."""
        pos, gate_b = self._sites[b - 1]
        if a == 0:
            gate_a = self._ideal.gates[pos]
        else:
            pos_a, gate_a = self._sites[a - 1]
            if pos_a != pos:
                va, vb = self._transfers[a - 1], self._transfers[b - 1]
                return _shot_probability(complex(np.vdot(va, vb)) / va.shape[0])
        ma, mb = gate_a.unitary(), gate_b.unitary()
        return _shot_probability(complex(np.vdot(ma, mb)) / ma.shape[0])


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
    probabilities: np.ndarray,
    repetitions: int,
    rng: np.random.Generator,
    truth: Sequence[bool] | None = None,
) -> BatchResult:
    """Test all pairs; discard circuits losing more than half their tests.

    `probabilities` is the batch's n x n table of single-shot firing
    probabilities; entry (i, j), i < j, is read for the pair (i, j).
    Each pair gets `repetitions` shots and is 'not equal' if any fires,
    all from one binomial draw in row-major pair order: numpy draws an
    array in the same stream, and so to the same counts, as one draw
    per pair.  With odd batch size n each circuit is in n-1 tests; n-1
    is even, so a circuit with exactly (n-1)/2 'not equal' verdicts is
    a tie and is kept (the rule is strictly more than half).
    """
    n = len(probabilities)
    if n % 2 == 0:
        raise EvenBatch(f"batch size must be odd, got {n}")
    rows, cols = _pairs(n)
    table = np.zeros((n, n), dtype=bool)
    table[rows, cols] = rng.binomial(repetitions, probabilities[rows, cols]) > 0
    table |= table.T
    counts = table.sum(axis=1).tolist()
    discarded = tuple(i for i, c in enumerate(counts) if c > (n - 1) // 2)
    kept = tuple(i for i, c in enumerate(counts) if c <= (n - 1) // 2)
    table.setflags(write=False)
    return BatchResult(
        batch_size=n,
        kept=kept,
        discarded=discarded,
        truth=tuple(truth) if truth is not None else None,
        pair_verdicts=table,
        tests_run=len(rows) * repetitions,
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
    batch_failure_bound.  Batch b draws its rows from its own
    rng_from_seed(seed, b, 0) stream and its shots from
    rng_from_seed(seed, b, 1).  An ideal circuit wider than `cap`
    qubits is refused before any batch.
    """
    if batch_size % 2 == 0:
        raise EvenBatch(f"batch size must be odd, got {batch_size}")
    if factory.ideal.n_qubits > cap:
        raise CapExceeded(f"{factory.ideal.n_qubits} qubits exceeds dense cap {cap}")
    repetitions = SwapShotTester(delta, cap).repetitions
    pairs = _RowPairs(factory, cap)
    i, j = _pairs(batch_size)
    chunk = max(1, _CHUNK_PAIRS // max(1, len(i)))
    total = 0
    faulty_total = 0
    kept_total = 0
    faulty_kept = 0
    overfull = 0
    tests_per_batch = 0
    for start in range(0, batches, chunk):
        span = range(start, min(start + chunk, batches))
        rows = np.array([factory.sample_rows(rng_from_seed(seed, b, 0), batch_size) for b in span])
        for b, batch, p in zip(span, rows, pairs.pair_probabilities(rows)):
            table = np.zeros((batch_size, batch_size))
            table[i, j] = p
            truth = (batch > 0).tolist()
            result = winnow_batch(table, repetitions, rng_from_seed(seed, b, 1), truth)
            tests_per_batch = result.tests_run
            total += batch_size
            faulty_total += sum(truth)
            kept_total += len(result.kept)
            faulty_kept += sum(truth[k] for k in result.kept)
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
