"""Circuit text format: parsing, emission, exact round trips."""

import pytest

from conftest import random_general_circuit
from qverify.circuit_format import emit_circuit, load_circuit, parse_circuit, save_circuit
from qverify.core import Circuit, GateKind, gate
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
