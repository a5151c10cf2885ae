"""qverify: equivalence testing for quantum circuits.

Exact distance computation (average- and worst-case), black-box
comparison protocols built on the Choi-state swap test, production-line
winnowing, and a lightweight randomized equality test for Clifford
circuits with error localization.
"""

__version__ = "0.1.0"

from .circuit_format import emit_circuit, load_circuit, parse_circuit, save_circuit
from .clifford import (
    CliffordTableau,
    PauliString,
    conjugate_pauli,
    differing_pauli_fraction,
    random_clifford_circuit,
    random_pauli,
    symplectic_rank_diff,
    tableau_dagger,
    tableau_equal,
    tableau_from_circuit,
)
from .cliffordtest import (
    CliffordBlackBox,
    CliffordTestReport,
    EigenstatePrep,
    detection_probability_exact,
    entanglement_fidelity_clifford,
    equivalence_verdict,
    find_error,
    one_qubit_clifford_circuits,
    prepare_input,
    run_test_once,
)
from .core import (
    DEFAULT_QUBIT_CAP,
    Circuit,
    Gate,
    GateKind,
    UnitaryMatrix,
    circuit_unitary,
    custom_gate,
    gate,
    window,
)
from .metrics import (
    DistanceReport,
    avg_distance,
    detection_probabilities,
    flipped_diagonal_pair,
    one_gate_pair,
    trace_overlap,
    two_fault_example,
    verify_theorem1,
    worst_distance,
)
from .pipeline import (
    BatchResult,
    FactoryModel,
    SwapShotTester,
    batch_failure_bound,
    kl_divergence_binary,
    simulate_production,
    winnow_batch,
)
from .protocols import (
    BlackBoxUnitary,
    ProtocolOutcome,
    repeat_until_confident,
    run_conditional_test,
    run_inverse_test,
    run_swap_test,
)
