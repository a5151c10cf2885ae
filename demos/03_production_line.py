"""Winnowing faulty circuits out of a production line.

A factory stamps out circuits that should all equal an ideal circuit
U, but each one is independently faulty with probability f.  Without a
trusted reference we compare the circuits against each other: in an
odd batch, the (likely) majority of good circuits vote out the bad
ones.  The probability that a batch has a faulty majority decays like
exp(-KL(1/2 || f) * n), so modest batches already drive the shipped
fault rate way below f.
"""

import numpy as np

from qverify import (
    Circuit,
    FactoryModel,
    batch_failure_bound,
    custom_gate,
    gate,
    kl_divergence_binary,
    simulate_production,
)

ideal = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("S", 1)))
faults = [(0, gate("I", 0)), (2, gate("SDG", 1))]

f = 0.1
factory = FactoryModel(ideal, f, faults, eps=1.0)

print("Factory model: ideal = H, CNOT, S on 2 qubits; with probability")
print(f"f = {f} a circuit ships with its H dropped or its S inverted.")
print("Both faults sit at worst-case distance 1 and are caught by a")
print("single swap-test shot with probability 1/2.")
print()

print("The Chernoff guard: P(batch has faulty majority) <= exp(-KL(1/2||f) n)")
print(f"  KL(1/2 || {f}) = {kl_divergence_binary(0.5, f):.4f} nats")
for n in (5, 11, 21):
    print(f"  batch {n:2d}: bound = {batch_failure_bound(f, n):.2e}")
print()

for batch, delta, batches in [(5, 1e-3, 2000), (11, 1e-4, 2000)]:
    summary = simulate_production(factory, batch, batches, delta, seed=42)
    print(f"batch size {batch}, per-pair error budget delta = {delta:.0e}:")
    print(f"  fault rate off the line: {summary.pre_rate:.4f}")
    print(f"  fault rate after winnowing: {summary.post_rate:.2e}")
    print(
        f"  discarded {summary.discarded_total} of "
        f"{summary.kept_total + summary.discarded_total} circuits, "
        f"{summary.tests_per_batch} base tests per batch"
    )
    print(
        f"  batches with faulty majority: {summary.overfull_rate:.2e}"
        f"  (bound {summary.bound:.2e})"
    )
    print()

print("A lax delta shows why per-pair error reduction matters.  Strong")
print("faults (detection 1/2 per shot) survive even delta = 0.4, so make")
print("the fault subtle: the phase gate over-rotated by 0.3 radians, at")
print("worst-case distance ~0.15 and per-shot detection ~1.1%.")
subtle_matrix = np.array([[1, 0], [0, np.exp(1j * (np.pi / 2 + 0.3))]])
weak_factory = FactoryModel(ideal, f, [(2, custom_gate(subtle_matrix, 1))], eps=0.14)
for delta in (0.4, 1e-4):
    run = simulate_production(weak_factory, 11, 2000, delta, seed=43)
    print(f"  delta = {delta:.0e}: post-winnow rate {run.post_rate:.3e}"
          f"  ({run.tests_per_batch} tests/batch)")
