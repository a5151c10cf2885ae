"""Randomized equality test between a known and a black-box Clifford.

One round: draw a uniformly random Pauli P, classically pull it back
to Q = U^dag P U, prepare a random product-state eigenstate of Q with
known eigenvalue, run the black box once on it and measure P.  Equal
circuits reproduce the eigenvalue with probability 1; distinct
Cliffords flip it with constant probability, either because their
symplectic maps differ on at least half of all Paulis or because they
differ by a nonidentity Pauli factor (which anticommutes with half of
all P).

A verdict draws its rounds in chunks.  One backwards walk of the
known circuit pulls every Pauli of a chunk back at once, as R-bit
Pauli frames, and the black box answers the chunk with one backwards
walk of its hidden circuit.  So a chunk costs O(gates) big-int steps
plus O(n) per round, with no tableau and no per-round conjugation, at
any width.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .clifford import (
    CLIFFORD_GATE_KINDS,
    CliffordTableau,
    PauliString,
    _ColumnTableau,
    _conjugate,
    _difference_kernel,
    _Pauli,
    _product,
    _pull_back_batch,
    conjugate_pauli,
    random_pauli,
    tableau_dagger,
    tableau_from_circuit,
)
from .core import Circuit, Gate, GateKind
from .errors import CandidateNotFound, CapExceeded, DimensionMismatch, NonCliffordGate
from .seeding import rng_from_seed


@dataclass(frozen=True)
class EigenstatePrep:
    """Product eigenstate of the pulled-back Pauli q, as bit masks.

    Where q has a letter, qubit j holds its +1 eigenstate, or its -1
    eigenstate when bit j of `signs` is set.  Where q is the identity
    (the T+ qubits), it holds (|0> + e^(i pi/4)|1>)/sqrt(2), whose X and
    Y expectations are 1/sqrt(2) and whose Z expectation is 0.
    """

    q: PauliString
    signs: int

    def __post_init__(self):
        if self.signs & ~(self.q.x | self.q.z):
            raise ValueError("sign bits must lie on the support of q")

    @property
    def eigenvalue(self) -> int:
        """q |psi_in> = eigenvalue |psi_in>."""
        return -self.q.sign() if self.signs.bit_count() & 1 else self.q.sign()


def prepare_input(q: PauliString, rng: np.random.Generator) -> EigenstatePrep:
    """Random product-state eigenstate of the Hermitian Pauli q.

    Each non-identity position gets the +1 or -1 eigenstate of its
    letter (a fair coin each); identity positions get the T+ state.
    """
    coins = rng.integers(0, 2, size=q.n).astype(np.uint8)
    drawn = int.from_bytes(np.packbits(coins, bitorder="little").tobytes(), "little")
    return EigenstatePrep(q, drawn & (q.x | q.z))


def expectation_on_prep(prep: EigenstatePrep, p: PauliString) -> float:
    """<psi_in| p |psi_in> for the Hermitian Pauli p.

    Zero when p's letter differs from q's where both are non-identity,
    or when p has a Z on a T+ qubit.  Otherwise sign(p), flipped by each
    drawn -1 under p, times 1/sqrt(2) per T+ qubit where p has X or Y.
    """
    q = prep.q
    if p.n != q.n:
        raise DimensionMismatch(f"{p.n} vs {q.n} qubits")
    support_q = q.x | q.z
    support_p = p.x | p.z
    tplus = support_p & ~support_q
    if ((p.x ^ q.x) | (p.z ^ q.z)) & support_p & support_q:
        return 0.0
    if p.z & ~p.x & tplus:
        return 0.0
    sign = -p.sign() if (prep.signs & support_p).bit_count() & 1 else p.sign()
    return sign * 2.0 ** (-0.5 * tplus.bit_count())


class CliffordBlackBox:
    """Runnable-but-opaque Clifford circuit.

    run_and_measure prepares the given product state, runs the hidden
    circuit U once and measures the given Pauli observable P, returning
    a single +-1 sample drawn from the exact expectation
    <psi_in| U^dag P U |psi_in>.  It is the one entry that counts as a
    run.  A verdict's chunk of rounds gets every U^dag P U from one
    backwards walk of U (`_run_batch`), which then calls run_and_measure
    once per round with that image; the box keeps nothing of the chunk.
    A call from outside a batch pulls P back through the inverse
    tableau, which is built on the first such call.
    """

    def __init__(self, circuit: Circuit):
        kinds = [g.kind for g in circuit.gates if g.kind not in CLIFFORD_GATE_KINDS]
        if kinds:  # named as a backwards walk meets them: the last one first
            raise NonCliffordGate(f"{kinds[-1].value} is not a Clifford gate")
        self._circuit = circuit
        self._dagger_tableau: CliffordTableau | None = None

    @property
    def n_qubits(self) -> int:
        return self._circuit.n_qubits

    def measurement_expectation(self, prep: EigenstatePrep, observable: PauliString) -> float:
        """E[sample] = <psi_in| U^dag P U |psi_in> for the hidden U."""
        # Two threads may both build the tableau once; they store equal values.
        if self._dagger_tableau is None:
            self._dagger_tableau = tableau_dagger(self._circuit)
        return expectation_on_prep(prep, conjugate_pauli(self._dagger_tableau, observable))

    def run_and_measure(
        self,
        prep: EigenstatePrep,
        observable: PauliString,
        rng: np.random.Generator,
        *,
        _image: PauliString | None = None,
    ) -> int:
        """One run: a +-1 sample of P; _image is U^dag P U when a chunk's walk gave it."""
        if _image is None:
            e = self.measurement_expectation(prep, observable)
        else:
            e = expectation_on_prep(prep, _image)
        e = min(1.0, max(-1.0, e))
        return 1 if rng.random() < (1.0 + e) / 2.0 else -1

    def _run_batch(
        self,
        preps: list[EigenstatePrep],
        observables: list[PauliString],
        rngs: list[np.random.Generator],
    ) -> list[int]:
        """run_and_measure per round, each given its U^dag P U from one
        backwards walk of the hidden circuit over all the observables."""
        images = _pull_back_batch(self._circuit, observables)
        return [
            self.run_and_measure(prep, p, rng, _image=image)
            for prep, p, rng, image in zip(preps, observables, rngs, images)
        ]


@dataclass(frozen=True)
class TestRun:
    """One round: observable, its pullback, known eigenvalue, sample."""

    pauli: PauliString
    conjugated: PauliString
    eigenvalue: int
    outcome: int

    @property
    def rejected(self) -> bool:
        return self.outcome != self.eigenvalue


@dataclass(frozen=True)
class CliffordTestReport:
    runs: tuple[TestRun, ...]
    verdict: str
    per_run_detection_estimate: float
    seed: int


def _round(
    n: int,
    pull_back: Callable[[PauliString], PauliString],
    ut: CliffordBlackBox,
    rng: np.random.Generator,
) -> tuple[PauliString, EigenstatePrep, int]:
    """One randomized round: (p, the eigenstate prep of C^dag p C, the box's
    outcome), where pull_back(p) is C^dag p C for the known circuit C."""
    p = random_pauli(n, rng)
    prep = prepare_input(pull_back(p), rng)
    return p, prep, ut.run_and_measure(prep, p, rng)


def run_test_once(
    u_dagger_tableau: CliffordTableau, ut: CliffordBlackBox, rng: np.random.Generator
) -> TestRun:
    """One randomized round against the precomputed tableau of U^dag."""
    pull_back = partial(conjugate_pauli, u_dagger_tableau)
    p, prep, outcome = _round(u_dagger_tableau.n, pull_back, ut, rng)
    return TestRun(pauli=p, conjugated=prep.q, eigenvalue=prep.eigenvalue, outcome=outcome)


# Rounds whose Paulis walk through the circuits together; a round's draws
# do not depend on it.
_CHUNK = 256


def equivalence_verdict(
    u: Circuit, ut: CliffordBlackBox, repetitions: int, seed: int
) -> CliffordTestReport:
    """Run the test `repetitions` times with fresh Paulis; one-sided.

    Equal circuits are never rejected; a single eigenvalue mismatch
    proves the circuits differ.

    Round i draws from its own rng_from_seed(seed, i): its Pauli, its
    eigenstate coins, its outcome, as run_test_once does.  A chunk's
    Paulis are drawn first and pulled back through u by one backwards
    walk, then each round's coins and outcome follow, so the report is
    the one run_test_once gives round by round.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if u.n_qubits != ut.n_qubits:
        raise DimensionMismatch(f"{u.n_qubits} vs {ut.n_qubits} qubits")
    n = u.n_qubits
    runs = []
    for start in range(0, repetitions, _CHUNK):
        rngs = [rng_from_seed(seed, i) for i in range(start, min(start + _CHUNK, repetitions))]
        paulis = [random_pauli(n, rng) for rng in rngs]
        preps = [prepare_input(q, rng) for q, rng in zip(_pull_back_batch(u, paulis), rngs)]
        outcomes = ut._run_batch(preps, paulis, rngs)
        runs += [
            TestRun(pauli=p, conjugated=prep.q, eigenvalue=prep.eigenvalue, outcome=outcome)
            for p, prep, outcome in zip(paulis, preps, outcomes)
        ]
    rejections = sum(r.rejected for r in runs)
    return CliffordTestReport(
        runs=tuple(runs),
        verdict="different" if rejections else "equal",
        per_run_detection_estimate=rejections / repetitions,
        seed=seed,
    )


# 4^n Paulis per call: 16,384 at the cap.
_EXACT_QUBIT_CAP = 7


def detection_probability_exact(u: Circuit, ut: Circuit) -> float:
    """Exact per-round rejection probability, averaged over all 4^n
    Paulis and all eigenstate sign draws.

    The sign draws average out analytically.  A drawn sign at a qubit
    where the hidden pullback has I flips the eigenvalue but not the
    expectation, so lambda * E averages to 0 (a fair coin).  Otherwise
    every drawn sign flips both and cancels, and the all-plus draw
    stands for all of them.

    Each Pauli adds (1 - a)/2 with agreement a = lambda * E, which is 0
    or +-2^(-k/2) for the k T+ qubits under the hidden pullback.  The
    terms are counted per (sign, k) in integers and summed once, so the
    result does not depend on the enumeration order.
    """
    n = u.n_qubits
    if n > _EXACT_QUBIT_CAP:
        raise CapExceeded(f"exact enumeration capped at {_EXACT_QUBIT_CAP} qubits")
    if ut.n_qubits != n:
        raise DimensionMismatch(f"{n} vs {ut.n_qubits} qubits")
    td_u = tableau_dagger(u)
    td_ut = tableau_dagger(ut)
    net = [0] * (n + 1)  # per k: terms with a = +2^(-k/2) minus those with -2^(-k/2)
    for bits in range(4**n):
        p = PauliString.from_bits(n, bits, bits >> n)
        q = conjugate_pauli(td_u, p)
        qt = conjugate_pauli(td_ut, p)
        support, hidden_support = q.x | q.z, qt.x | qt.z
        if support & ~hidden_support:
            continue
        prep = EigenstatePrep(q, 0)
        agreement = prep.eigenvalue * expectation_on_prep(prep, qt)
        if agreement:
            net[(hidden_support & ~support).bit_count()] += 1 if agreement > 0 else -1
    # sum of a = (even + odd / sqrt(2)) / 2^n, both integers
    even = sum(c << (n - k // 2) for k, c in enumerate(net) if k % 2 == 0)
    odd = sum(c << (n - k // 2) for k, c in enumerate(net) if k % 2)
    return (float((4**n << n) - even) - odd * 2**-0.5) / (4**n << (n + 1))


# ---------------------------------------------------------------------------
# Error finding
#
# A candidate C replaces gate g_i of U = S_i g_i P_i by a gate sequence A on
# g_i's qubits T.  With f = S_i^dag p S_i,
#
#     C^dag p C = (P_i^dag D P_i) (U^dag p U),    D = (A^dag f A)(g_i^dag f g_i),
#
# and D is a Pauli on T that depends only on f's letters there: f's sign and
# its letters off T cancel in the product.  So one tableau of U^dag serves
# every candidate.  A round reads f's local letters as parities of the
# suffix-inverse tableau's columns at T, looks D up, and lifts it through the
# prefix-inverse rows P_i^dag X_t P_i, P_i^dag Z_t P_i at T (Pauli-frame
# corrections, as in Gidney 2021, arXiv:2103.02202).  A second replacement at
# j > i lifts its D_j through the rows of the prefix that already carries A.
#
# The black box runs u's rounds once, and they form a record that all other
# candidates share.  On a recorded round with prep of q = U^dag p U, eigenvalue
# lambda and lifted correction L, C's expectation is <prep| L q |prep> =
# lambda <prep| L |prep>.  That is +-1 only when L's letters are q's on L's
# support, so two mask tests and a parity decide whether the recorded outcome
# had probability 0 for C.  Such a C is dropped without a run.  A circuit
# equal to the box gives every outcome it produced a positive probability, so
# it is never dropped.  The survivors are re-tested on rounds of their own.
#
# A Pauli is a tableau row (x, z, t) for i^t X^x Z^z.  Local rows, suffix
# columns and D tables all use the tableau's order: on m local qubits, X_k at
# k and Z_k at m + k, so a local Pauli's index is x | z << m.

_ONE_QUBIT_ALPHABET = (
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.SDG,
    GateKind.I,
)

# A gate sequence on local qubits: (kind, local targets) per gate.
_Steps = tuple[tuple[GateKind, tuple[int, ...]], ...]


@lru_cache(maxsize=None)
def _local_alternatives(kind: GateKind) -> tuple[_Steps, ...]:
    """Replacement sequences for a position holding `kind` (the original
    excluded), on local qubits: 0 is the gate's first target, 1 its second.

    One-qubit positions draw from {X, Y, Z, H, S, SDG, I}; a CNOT position
    may flip orientation or become any ordered pair of one-qubit gates on
    its two qubits (I, I = dropped gate).
    """
    if kind is GateKind.CNOT:
        pairs = itertools.product(_ONE_QUBIT_ALPHABET, repeat=2)
        return (((GateKind.CNOT, (1, 0)),),) + tuple(((k1, (0,)), (k2, (1,))) for k1, k2 in pairs)
    return tuple(((k, (0,)),) for k in _ONE_QUBIT_ALPHABET if k is not kind)


def _position_alternatives(g: Gate) -> list[tuple[Gate, ...]]:
    """The replacement sequences for g's position, as gates on g's qubits."""
    return [
        tuple(Gate(kind, tuple(g.targets[k] for k in local)) for kind, local in alt)
        for alt in _local_alternatives(g.kind)
    ]


def _original(kind: GateKind) -> _Steps:
    """A `kind` gate as a local sequence."""
    return ((kind, (0, 1) if kind is GateKind.CNOT else (0,)),)


@lru_cache(maxsize=None)
def _local_images(steps: _Steps, m: int) -> tuple[_Pauli, ...]:
    """Local rows of Q -> A^dag Q A on m qubits for the sequence A."""
    cols = _ColumnTableau(m)
    for kind, targets in reversed(steps):
        cols.apply_inverse(kind, targets)
    return cols.to_tableau().rows


@lru_cache(maxsize=None)
def _corrections(kind: GateKind) -> tuple[tuple[_Pauli | None, ...], ...]:
    """Per alternative A of a `kind` position: D = (A^dag f A)(g^dag f g)
    for every local f, indexed by f's letter bits x | z << m; None where
    D = +I.

    f is built Hermitian: a bare X^x Z^z carries i^(#Y), whose square
    would flip D's sign once per Y letter.
    """
    original = _original(kind)
    m = len(original[0][1])
    g_images = _local_images(original, m)
    tables = []
    for alt in _local_alternatives(kind):
        a_images = _local_images(alt, m)
        table = []
        for bits in range(4**m):
            x, z = bits & ((1 << m) - 1), bits >> m
            f = x, z, (x & z).bit_count()
            d = _product(_conjugate(a_images, *f), _conjugate(g_images, *f))
            table.append(None if d == (0, 0, 0) else d)
        tables.append(tuple(table))
    return tuple(tables)


def _identity_rows(n: int) -> list[_Pauli]:
    """Rows of the empty prefix: X_q at q, Z_q at n + q."""
    return [(1 << q, 0, 0) for q in range(n)] + [(0, 1 << q, 0) for q in range(n)]


def _local_rows(rows: list[_Pauli], targets: tuple[int, ...]) -> tuple[_Pauli, ...]:
    """The rows of X_t, then of Z_t, for t in targets."""
    n = len(rows) // 2
    return tuple(rows[t] for t in targets) + tuple(rows[n + t] for t in targets)


def _advance(rows: list[_Pauli], targets: tuple[int, ...], steps: _Steps) -> None:
    """Append the local sequence `steps` on `targets` to the prefix whose rows these are."""
    n, m = len(rows) // 2, len(targets)
    local = _local_rows(rows, targets)
    images = [_conjugate(local, *img) for img in _local_images(steps, m)]
    for k, t in enumerate(targets):
        rows[t], rows[n + t] = images[k], images[m + k]


def _suffix_columns(u: Circuit) -> list[tuple[int, ...]]:
    """Per position i, the columns colx at g_i's targets, then colz, of the
    tableau of S_i^dag, where S_i is the suffix after g_i: bit j of f's
    local letters is the parity of column j masked by p's bits."""
    cols = _ColumnTableau(u.n_qubits)
    columns = [()] * u.n_gates
    for i in reversed(range(u.n_gates)):
        kind, targets = u.gates[i].kind, u.gates[i].targets
        columns[i] = tuple(cols.colx[t] for t in targets) + tuple(cols.colz[t] for t in targets)
        cols.apply_inverse(kind, targets)
    return columns


# (suffix columns, D table, prefix rows) at one replaced position
_Correction = tuple[tuple[int, ...], tuple[_Pauli | None, ...], tuple[_Pauli, ...]]

# A recorded round as bits: (p's x | z << n, q's x, q's z, drawn signs, u rejected)
_Recorded = tuple[int, int, int, int, bool]


def _local_index(columns: tuple[int, ...], pvec: int) -> int:
    """f's local letter bits x | z << m: bit j is the parity of suffix
    column j masked by p's bits pvec."""
    return sum(((c & pvec).bit_count() & 1) << j for j, c in enumerate(columns))


def _lift(rows: tuple[_Pauli, ...], d: _Pauli | None) -> _Pauli:
    """The local correction d lifted through the prefix rows; +I for None.
    A local +-I has no letters, so it passes through untouched."""
    return (0, 0, 0) if d is None else _conjugate(rows, *d)


def _pull_back(
    td_u: CliffordTableau, corrections: tuple[_Correction, ...], p: PauliString
) -> PauliString:
    """C^dag p C for the candidate C: U^dag p U times each position's lifted
    D, earliest position first, each multiplied on the left."""
    q = conjugate_pauli(td_u, p)
    pvec = p.x | (p.z << td_u.n)
    acc = q.x, q.z, q.phase_t
    for columns, table, rows in corrections:
        acc = _product(_lift(rows, table[_local_index(columns, pvec)]), acc)
    return PauliString(td_u.n, *acc)


def _rules_out(lift: _Pauli, rnd: _Recorded) -> bool:
    """True when the recorded outcome had probability 0 for the candidate
    whose pull-back is lift * q.

    <prep| L q |prep> = lambda <prep| L |prep>, and <prep| L |prep> is +-1
    exactly when L's letters are q's on L's support: sign(L), flipped by
    each drawn -1 there.  Otherwise it is 0 or +-2^(-k/2).  The outcome is
    impossible when that +-1 is -1 on a round u passed, +1 on one it failed.
    """
    x, z, t = lift
    _, q_x, q_z, signs, rejected = rnd
    support = x | z
    if ((x ^ q_x) | (z ^ q_z)) & support:
        return False
    minus = ((t - (x & z).bit_count()) >> 1) + (signs & support).bit_count()
    return (minus & 1) != rejected


def _screen(keys, lift: Callable[[object, int], _Pauli], rounds: list[_Recorded]):
    """The keys no recorded round rules out, in order; lift(key, r) is that
    candidate's lifted correction on round r.  Rounds run outermost, so a
    round is read only while some candidate is left."""
    for r, rnd in enumerate(rounds):
        if not keys:
            break
        keys = [key for key in keys if not _rules_out(lift(key, r), rnd)]
    return keys


def _replaced(u: Circuit, replacements: tuple[tuple[int, int], ...]) -> Circuit:
    """u with each (position, alternative index) replacement made."""
    gates = list(u.gates)
    for i, a in reversed(replacements):
        gates[i : i + 1] = _position_alternatives(u.gates[i])[a]
    return Circuit(u.n_qubits, tuple(gates))


def _search(u: Circuit, td_u: CliffordTableau, depth: int, record):
    """(index, pull-back, builder) per candidate that no round of `record`
    rules out, nearest first: one replacement at each position, then
    (depth 2) two, for i < j, for each alternative at i, for each at j.
    u is candidate 0 and is not yielded; `record` holds _round's
    (p, prep, outcome) triples for u."""
    n, gates = u.n_qubits, u.gates
    rounds = [
        (p.x | p.z << n, prep.q.x, prep.q.z, prep.signs, outcome != prep.eigenvalue)
        for p, prep, outcome in record
    ]
    columns = _suffix_columns(u)
    known = [[] for _ in gates]  # per position: f's local index on the rounds read so far

    def f(i: int, r: int) -> int:
        seen = known[i]
        while len(seen) <= r:
            seen.append(_local_index(columns[i], rounds[len(seen)][0]))
        return seen[r]

    index = 1
    rows = _identity_rows(n)
    for i, g in enumerate(gates):
        here = _local_rows(rows, g.targets)
        tables = _corrections(g.kind)
        lifted = lru_cache(maxsize=None)(partial(_lift, here))
        for a in _screen(range(len(tables)), lambda a, r: lifted(tables[a][f(i, r)]), rounds):
            yield (
                index + a,
                partial(_pull_back, td_u, ((columns[i], tables[a], here),)),
                partial(_replaced, u, ((i, a),)),
            )
        index += len(tables)
        _advance(rows, g.targets, _original(g.kind))
    if depth < 2:
        return
    rows = _identity_rows(n)
    for i, g in enumerate(gates):
        here = _local_rows(rows, g.targets)
        lifted = lru_cache(maxsize=None)(partial(_lift, here))
        firsts = _corrections(g.kind)
        branches = []  # rows of the prefix through position i with each alternative there
        for alt in _local_alternatives(g.kind):
            branches.append(list(rows))
            _advance(branches[-1], g.targets, alt)
        for j in range(i + 1, len(gates)):
            h = gates[j]
            tables = _corrections(h.kind)
            theres = [_local_rows(branch, h.targets) for branch in branches]

            def lift(key: tuple[int, int], r: int) -> _Pauli:
                a, b = key
                return _product(_lift(theres[a], tables[b][f(j, r)]), lifted(firsts[a][f(i, r)]))

            pairs = itertools.product(range(len(firsts)), range(len(tables)))
            for a, b in _screen(list(pairs), lift, rounds):
                yield (
                    index + a * len(tables) + b,
                    partial(
                        _pull_back,
                        td_u,
                        ((columns[i], firsts[a], here), (columns[j], tables[b], theres[a])),
                    ),
                    partial(_replaced, u, ((i, a), (j, b))),
                )
            index += len(firsts) * len(tables)
            for branch in branches:
                _advance(branch, h.targets, _original(h.kind))
        _advance(rows, g.targets, _original(g.kind))


def find_error(
    u: Circuit,
    ut: CliffordBlackBox,
    depth: int,
    repetitions: int,
    seed: int,
) -> Circuit:
    """Search circuits near u for one that tests equal to the black box.

    Candidates differ from u in at most `depth` gate replacements drawn
    from the documented alphabet.  u's `repetitions` rounds run in full
    and form a record that every other candidate shares: a candidate is
    dropped, at no cost in runs, when a recorded outcome had probability
    0 for it, which never happens to a circuit equal to the box.  Each
    survivor, in order, is re-tested with up to `repetitions` rounds of
    its own (stopping at the first rejection).  Returns u when it passes
    its rounds, else the first survivor that passes - a circuit whose
    tableau matches the hidden one with overwhelming probability.
    Raises CandidateNotFound when the error lies outside the model.

    The tableau of U^dag is built once; each candidate's rounds pull p
    back through it and correct the result at the replaced positions.
    The box is queried one round at a time, because each candidate's
    rounds draw from one seeded stream in turn (its Pauli, its coins,
    its outcome, then the next round's Pauli); so the box builds its
    inverse tableau on the first of them.
    """
    if depth not in (1, 2):
        raise ValueError(f"depth must be 1 or 2, got {depth}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    n = u.n_qubits
    td_u = tableau_dagger(u)
    rng = rng_from_seed(seed, 0)
    record = [_round(n, partial(conjugate_pauli, td_u), ut, rng) for _ in range(repetitions)]
    if all(outcome == prep.eigenvalue for _, prep, outcome in record):
        return u
    for index, pull_back, build in _search(u, td_u, depth, record):
        rng = rng_from_seed(seed, index)
        rounds = (_round(n, pull_back, ut, rng) for _ in range(repetitions))
        if all(outcome == prep.eigenvalue for _, prep, outcome in rounds):
            return build()
    raise CandidateNotFound(
        f"no circuit within {depth} replacement(s) of u matches the black box"
    )


# ---------------------------------------------------------------------------
# Entanglement fidelity bound for Cliffords

def entanglement_fidelity_clifford(u: CliffordTableau, ut: CliffordTableau) -> float:
    """|Tr(U^dag Ut) / 2^n|^2 by GF(2) algebra, at any n.

    W = U^dag Ut fixes P up to a sign s_P (the product of the two image
    signs) exactly when P lies in the kernel K of M_u - M_ut, and the
    fidelity is sum(s_P over P in K) / 4^n.  s is a character on K, so
    the sum is |K| when s = +1 on a basis of K and 0 otherwise (the
    stabilizer-formalism trace; Dehaene and De Moor 2003).  Distinct
    tableaux have dim K < 2n or a non-constant s, capping it at 1/2.
    """
    n = u.n
    dim = 0
    for v in _difference_kernel(u, ut):
        p = PauliString.from_bits(n, v, v >> n)
        if conjugate_pauli(u, p).sign() != conjugate_pauli(ut, p).sign():
            return 0.0
        dim += 1
    return 2.0 ** (dim - 2 * n)


@lru_cache(maxsize=1)
def one_qubit_clifford_circuits() -> tuple[Circuit, ...]:
    """The 24 single-qubit Cliffords (mod phase) as {H, S} circuits.

    Breadth-first closure starting from the empty circuit; circuits
    are deduplicated by tableau, so each group element appears once.
    """
    seen: dict[tuple, Circuit] = {}
    queue = [Circuit(1, ())]
    while queue:
        c = queue.pop(0)
        key = tableau_from_circuit(c).rows
        if key in seen:
            continue
        seen[key] = c
        for kind in (GateKind.H, GateKind.S):
            queue.append(Circuit(1, c.gates + (Gate(kind, (0,)),)))
    return tuple(seen.values())
