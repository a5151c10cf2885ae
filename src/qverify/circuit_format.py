"""Text format for circuits, parsed and emitted losslessly.

One gate per line, e.g.::

    # a Bell pair
    QUBITS 2
    H 0
    CNOT 0 1

Custom gates are ``CUSTOM k q0 ... q(k-1)`` followed by 2^k rows of
2^k complex entries written ``re,im`` and separated by spaces.  ``#``
starts a comment anywhere on a line.  Floats are emitted with repr so
a parse/emit round trip is bit-exact.
"""

from __future__ import annotations

import cmath

from .core import Circuit, Gate, GateKind
from .errors import ParseError, UnknownGate


def _parse_complex(token: str, line_no: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 're,im', got {token!r}", line_no)
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParseError(f"bad complex entry {token!r}", line_no) from None
    if not cmath.isfinite(value):
        raise ParseError(f"non-finite complex entry {token!r}", line_no)
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse the text format into a Circuit.

    Raises ParseError (with line number) on malformed input and
    UnknownGate on unrecognised gate names.  Each distinct named-gate
    line is validated once; its repeats share the validated Gate.
    """
    lines = text.splitlines()
    # (line_no, stripped line) with comments and blanks removed
    items = []
    for i, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            items.append((i, stripped))

    if not items:
        raise ParseError("empty circuit file", None)
    line_no, head = items[0][0], items[0][1].split()
    if head[0] != "QUBITS" or len(head) != 2:
        raise ParseError("first line must be 'QUBITS n'", line_no)
    try:
        n_qubits = int(head[1])
    except ValueError:
        raise ParseError(f"bad qubit count {head[1]!r}", line_no) from None

    gates = []
    known: dict[str, Gate] = {}  # named-gate line -> its validated Gate
    pos = 1
    while pos < len(items):
        line_no, line = items[pos]
        if line in known:
            gates.append(known[line])
            pos += 1
            continue
        tokens = line.split()
        name = tokens[0].upper()
        if name == "CUSTOM":
            if len(tokens) < 2:
                raise ParseError("CUSTOM needs an arity", line_no)
            try:
                k = int(tokens[1])
                targets = tuple(int(t) for t in tokens[2:])
            except ValueError:
                raise ParseError("bad CUSTOM header", line_no) from None
            if len(targets) != k:
                raise ParseError(f"CUSTOM {k} expects {k} targets, got {len(targets)}", line_no)
            dim = 2**k
            if pos + dim >= len(items):
                raise ParseError(f"CUSTOM matrix needs {dim} rows", line_no)
            rows = []
            for r in range(dim):
                row_line, row = items[pos + 1 + r]
                row_tokens = row.split()
                if len(row_tokens) != dim:
                    raise ParseError(
                        f"matrix row has {len(row_tokens)} entries, expected {dim}", row_line
                    )
                rows.append([_parse_complex(t, row_line) for t in row_tokens])
            gates.append(Gate(GateKind.CUSTOM, targets, rows))
            pos += 1 + dim
        else:
            try:
                kind = GateKind(name)
            except ValueError:
                raise UnknownGate(f"unknown gate {tokens[0]!r}", line_no) from None
            try:
                targets = tuple(int(t) for t in tokens[1:])
            except ValueError:
                raise ParseError("targets must be integers", line_no) from None
            try:
                known[line] = Gate(kind, targets)
            except Exception as exc:
                raise ParseError(str(exc), line_no) from None
            gates.append(known[line])
            pos += 1

    try:
        return Circuit(n_qubits, tuple(gates))
    except Exception as exc:
        raise ParseError(str(exc), None) from None


def emit_circuit(c: Circuit) -> str:
    """Canonical text form of a circuit; parse(emit(c)) == c exactly."""
    out = [f"QUBITS {c.n_qubits}"]
    for g in c.gates:
        if g.kind is GateKind.CUSTOM:
            out.append(f"CUSTOM {g.n_targets} " + " ".join(str(t) for t in g.targets))
            for row in g.matrix:
                out.append(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
        else:
            out.append(g.kind.value + " " + " ".join(str(t) for t in g.targets))
    return "\n".join(out) + "\n"


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", None) from None
    return parse_circuit(text)


def save_circuit(c: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(emit_circuit(c))
