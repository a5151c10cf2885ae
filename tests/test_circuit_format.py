"""Circuit text format: parsing, emission, exact round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import gates_on, random_general_circuit
from qverify.circuit_format import emit_circuit, load_circuit, parse_circuit, save_circuit
from qverify.core import Circuit, Gate, GateKind, gate
from qverify.errors import NonUnitaryCustomGate, ParseError, UnknownGate


def test_minimal_file():
    c = parse_circuit("QUBITS 1\nH 0\n")
    assert c.n_qubits == 1
    assert c.n_gates == 1
    assert c.gates[0].kind is GateKind.H


def test_comments_and_blank_lines():
    text = "# header\n\nQUBITS 2  # width\nH 0\n  # trailing\nCNOT 0 1\n"
    c = parse_circuit(text)
    assert [g.kind for g in c.gates] == [GateKind.H, GateKind.CNOT]


def test_malformed_cnot_reports_line():
    with pytest.raises(ParseError) as err:
        parse_circuit("QUBITS 2\nCNOT 0\n")
    assert err.value.line == 2


def test_repeated_lines_parse_as_each_alone():
    text = "QUBITS 3\nH 0\nCNOT 0 1\nH 0  # again\nh 0\nH  0\nCNOT 0 1\nCNOT 1 0\n"
    c = parse_circuit(text)
    alone = [parse_circuit(f"QUBITS 3\n{line}\n").gates[0] for line in text.splitlines()[1:]]
    assert list(c.gates) == alone


def test_repeated_bad_line_reports_its_first_line():
    with pytest.raises(ParseError) as err:
        parse_circuit("QUBITS 2\nH 0\nCNOT 1 1\nH 0\nCNOT 1 1\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_circuit("QUBITS 2\nH 0\nH 0\nH 5\n")
    assert err.value.line is None  # out of range: checked on the whole circuit


def test_repeated_custom_header_reads_its_own_matrix():
    c = parse_circuit("QUBITS 1\nCUSTOM 1 0\n0,0 1,0\n1,0 0,0\nCUSTOM 1 0\n1,0 0,0\n0,0 -1,0\n")
    assert np.array_equal(c.gates[0].matrix, [[0, 1], [1, 0]])
    assert np.array_equal(c.gates[1].matrix, [[1, 0], [0, -1]])


def test_unknown_gate():
    with pytest.raises(UnknownGate):
        parse_circuit("QUBITS 1\nFOO 0\n")


def test_missing_header():
    with pytest.raises(ParseError):
        parse_circuit("H 0\n")


def test_non_unitary_custom_block():
    text = "QUBITS 1\nCUSTOM 1 0\n1.0,0.0 0.0,0.0\n1.0,0.0 1.0,0.0\n"
    with pytest.raises(NonUnitaryCustomGate):
        parse_circuit(text)


@pytest.mark.parametrize("entry", ["nan,0.0", "0.0,inf", "-inf,nan"])
def test_non_finite_custom_entry_reports_line(entry):
    text = f"QUBITS 1\nH 0\nCUSTOM 1 0\n1.0,0.0 0.0,0.0\n0.0,0.0 {entry}\n"
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5


def test_custom_matrix_row_count_checked():
    with pytest.raises(ParseError):
        parse_circuit("QUBITS 1\nCUSTOM 1 0\n1.0,0.0 0.0,0.0\n")


def test_round_trip_named_gates():
    c = Circuit(3, (gate("H", 0), gate("CNOT", 2, 1), gate("SDG", 2), gate("T", 0)))
    assert parse_circuit(emit_circuit(c)) == c


def test_round_trip_custom_bit_exact(rng):
    for _ in range(5):
        c = random_general_circuit(3, 10, rng, custom_prob=0.4)
        text = emit_circuit(c)
        reparsed = parse_circuit(text)
        assert reparsed == c
        # emission is canonical: emitting the reparse reproduces the text
        assert emit_circuit(reparsed) == text


def test_file_round_trip(tmp_path, rng):
    c = random_general_circuit(2, 6, rng, custom_prob=0.5)
    path = tmp_path / "c.qc"
    save_circuit(c, path)
    assert load_circuit(path) == c


# Signed zeros and subnormals: far below the unitarity tolerance, so
# they may sit anywhere in a CUSTOM matrix, and a lossy round trip
# would change the gate's bytes.
_TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(-1e-308, 1e-308)


@st.composite
def edge_custom_gates(draw, n: int) -> Gate:
    """A permutation matrix with unit phases, every zero replaced by a tiny value."""
    k = draw(st.integers(1, min(2, n)))
    d = 2**k
    perm = draw(st.permutations(range(d)))
    m = np.array([[complex(draw(_TINY), draw(_TINY)) for _ in range(d)] for _ in range(d)])
    for col, row in enumerate(perm):
        theta = draw(st.floats(-math.pi, math.pi))
        m[row, col] = complex(math.cos(theta), math.sin(theta))
    return Gate(GateKind.CUSTOM, tuple(draw(st.permutations(range(n)))[:k]), m)


@st.composite
def format_circuits(draw) -> Circuit:
    n = draw(st.integers(1, 4))
    gates = st.one_of(gates_on(n), edge_custom_gates(n))
    return Circuit(n, tuple(draw(st.lists(gates, max_size=8))))


def _matrix_bytes(c: Circuit) -> list[bytes | None]:
    return [g.matrix.tobytes() if g.matrix is not None else None for g in c.gates]


_SIGNED = np.array([[1, complex(-0.0, 5e-324)], [complex(0.0, -0.0), -1]])


@given(format_circuits())
@example(Circuit(1, (Gate(GateKind.CUSTOM, (0,), _SIGNED),)))
def test_parse_emit_is_identity(c):
    reparsed = parse_circuit(emit_circuit(c))
    assert reparsed == c
    # Gate equality lets -0.0 equal 0.0; the bytes keep the sign too.
    assert _matrix_bytes(reparsed) == _matrix_bytes(c)
