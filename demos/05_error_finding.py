"""Not just detecting an error, but naming it.

If the black box is promised to differ from the known circuit in at
most one gate (from a fixed replacement alphabet), the list of
candidate circuits is only about as long as the circuit itself.
The black box's rounds against the known circuit are recorded once;
every candidate is screened on that record without further runs, and
the few survivors are re-tested with the randomized equality test.
That identifies one implementing the same Clifford unitary, which is
everything a black box can reveal.  Also shown: the fidelity separation making any
Clifford
difference visible - distinct Cliffords never overlap more than 1/2.
"""

import time

import numpy as np

from qverify import (
    Circuit,
    CliffordBlackBox,
    entanglement_fidelity_clifford,
    find_error,
    gate,
    one_qubit_clifford_circuits,
    random_clifford_circuit,
    tableau_equal,
    tableau_from_circuit,
)
from qverify.errors import CandidateNotFound

rng = np.random.default_rng(21)

print("=" * 70)
print("1. Plant a fault, then recover it")
print("=" * 70)
print()
n, s = 8, 50
u = random_clifford_circuit(n, s, rng)
position = 23
planted = Circuit(n, u.gates[:position] + (gate("H", u.gates[position].targets[0]),)
                  + u.gates[position + 1:])
print(f"known circuit: {s} gates on {n} qubits")
print(f"hidden implementation: gate {position} ({u.gates[position].kind.value}) "
      f"silently replaced by H")
print()
start = time.perf_counter()
found = find_error(u, CliffordBlackBox(planted), depth=1, repetitions=40, seed=0)
elapsed = time.perf_counter() - start
same = tableau_equal(tableau_from_circuit(found), tableau_from_circuit(planted))
print(f"search over single-replacement candidates took {elapsed:.2f}s")
print(f"recovered circuit implements the hidden unitary: {same}")
print()

print("=" * 70)
print("2. A fault outside the model is reported, not misattributed")
print("=" * 70)
print()
small = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("S", 1)))
outside = Circuit(2, small.gates + (gate("H", 1),))  # an extra gate, not a swap
try:
    find_error(small, CliffordBlackBox(outside), depth=1, repetitions=30, seed=1)
    print("unexpectedly found a candidate")
except CandidateNotFound as exc:
    print(f"CandidateNotFound: {exc}")
print()

print("=" * 70)
print("3. Why every difference is visible: the fidelity gap")
print("=" * 70)
print()
group = one_qubit_clifford_circuits()
tableaux = [tableau_from_circuit(c) for c in group]
fidelities = [
    entanglement_fidelity_clifford(a, b)
    for i, a in enumerate(tableaux)
    for j, b in enumerate(tableaux)
    if i != j
]
print(f"all {len(fidelities)} ordered pairs of distinct 1-qubit Cliffords:")
print(f"  max entanglement fidelity = {max(fidelities):.4f}   (bound: 0.5)")
t_s = tableau_from_circuit(Circuit(2, (gate("S", 0),)))
t_i = tableau_from_circuit(Circuit(2, ()))
print(f"  phase gate vs identity on 2 qubits: {entanglement_fidelity_clifford(t_s, t_i)}")
print()
print("General unitaries can overlap arbitrarily close to 1, but distinct")
print("Cliffords cannot exceed 1/2 - a constant-accuracy fidelity estimate")
print("is already a perfect discriminator.")
