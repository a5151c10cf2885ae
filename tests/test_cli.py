"""CLI surface: exit codes, JSON reports, reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import load_benchmark_workloads, random_general_circuit
from qverify import cli, core
from qverify.circuit_format import load_circuit, save_circuit
from qverify.clifford import random_clifford_circuit
from qverify.cli import main
from qverify.core import Circuit, Gate, GateKind, circuit_unitary, custom_gate, gate
from qverify.errors import DomainError, ParseError
from qverify.metrics import one_gate_pair, worst_distance
from qverify.pipeline import FactoryModel

try:
    import resource
except ImportError:  # not on every platform
    resource = None

BELL = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1)))
BELL_SHIFTED = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("X", 0)))
BELL_REPLACED = Circuit(2, (gate("X", 0), gate("CNOT", 0, 1)))
BELL_T = Circuit(2, (gate("H", 0), gate("CNOT", 0, 1), gate("T", 1)))

# The subcommands that compare two circuits on dense unitaries.
DENSE_PAIR_COMMANDS = ["distance", "swap-test", "conditional-test", "inverse-test"]


@pytest.fixture
def files(tmp_path):
    paths = {}
    fixtures = [
        ("u", BELL),
        ("shifted", BELL_SHIFTED),
        ("replaced", BELL_REPLACED),
        ("t", BELL_T),
    ]
    for name, circ in fixtures:
        p = tmp_path / f"{name}.qc"
        save_circuit(circ, p)
        paths[name] = str(p)
    return paths


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args, "--json")
    return code, json.loads(out)


class TestDistanceCommand:
    def test_identical_files_exit_zero(self, files, capsys):
        code, report = run_json(capsys, "distance", "--u", files["u"], "--ut", files["u"])
        assert code == 0
        # exactly 0 since D uses the phase-aligned residual; the bound predates it
        assert report["avg_distance"] == pytest.approx(0.0, abs=1e-6)
        assert report["verdict"] == "equal"

    def test_different_files_exit_one(self, files, capsys):
        code, report = run_json(
            capsys, "distance", "--u", files["u"], "--ut", files["t"]
        )
        assert code == 1
        assert report["avg_distance"] > 0.1
        assert report["theorem1"]["holds"]
        assert set(report) >= {
            "n",
            "trace_overlap",
            "avg_distance",
            "worst_distance",
            "ent_fidelity",
            "p_swap",
            "p_conditional",
            "theorem1",
        }

    def test_tiny_rotation_is_different(self, tmp_path, capsys):
        # D ~ 5e-8: below the old 1e-5 equality margin, far above the 1e-12 snap.
        theta = 1e-7
        rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        u, ut = tmp_path / "u.qc", tmp_path / "ut.qc"
        save_circuit(Circuit(2, (gate("H", 0), custom_gate(np.eye(2), 1))), u)
        save_circuit(Circuit(2, (gate("H", 0), custom_gate(rz, 1))), ut)
        code, report = run_json(capsys, "distance", "--u", str(u), "--ut", str(ut))
        assert 0 < report["avg_distance"] < 1e-5
        assert (code, report["verdict"]) == (1, "different")

    def test_equal_pair_satisfies_theorem1(self, files, capsys, tmp_path):
        padded = tmp_path / "padded.qc"
        save_circuit(Circuit(2, BELL.gates + (gate("H", 1), gate("H", 1))), padded)
        code, report = run_json(capsys, "distance", "--u", files["u"], "--ut", str(padded))
        assert code == 0
        assert report["worst_distance"] <= 1e-12
        assert report["theorem1"]["holds"] is True


class TestAnyWidth:
    """--cap bounds the window, so a one-gate pair runs at any width."""

    @pytest.mark.parametrize("command", DENSE_PAIR_COMMANDS)
    @pytest.mark.parametrize("n", [50, 3000])
    def test_one_gate_pair_gets_its_verdict(self, tmp_path, capsys, command, n):
        base = Circuit(n, (gate("H", 0), gate("CNOT", 0, n - 1), gate("H", n // 2)))
        u, ut = tmp_path / "u.qc", tmp_path / "ut.qc"
        save_circuit(base, u)
        save_circuit(one_gate_pair(base, 2, gate("T", n // 2))[1], ut)
        code, report = run_json(capsys, command, "--u", str(u), "--ut", str(ut), "--seed", "1")
        assert code == 1
        assert report["verdict"] == "different"
        assert capsys.readouterr().err == ""

    def test_equal_pair_at_n3000(self, tmp_path, capsys):
        path = tmp_path / "u.qc"
        save_circuit(Circuit(3000, (gate("H", 2999), gate("CNOT", 0, 2999))), path)
        code, report = run_json(capsys, "distance", "--u", str(path), "--ut", str(path))
        assert code == 0
        assert report["theorem1"] == {"lhs": 0.0, "rhs": 0.0, "holds": True}
        assert report["verdict"] == "equal"

    def test_equal_pair_above_default_cap_runs(self, tmp_path, capsys):
        path = tmp_path / "u.qc"
        save_circuit(Circuit(core.DEFAULT_QUBIT_CAP + 1, (gate("H", 0),)), path)
        for command in DENSE_PAIR_COMMANDS:
            code, report = run_json(capsys, command, "--u", str(path), "--ut", str(path))
            assert (code, report["verdict"]) == (0, "equal")


class TestProtocolCommands:
    def test_swap_test_accepts_t_gates(self, files, capsys):
        code, report = run_json(
            capsys, "swap-test", "--u", files["u"], "--ut", files["t"],
            "--shots", "2000", "--seed", "5",
        )
        assert code == 1
        assert report["ones_observed"] > 0
        assert 0 < report["analytic_p"] < 0.5

    def test_inverse_and_conditional(self, files, capsys):
        for cmd in ("inverse-test", "conditional-test"):
            code, report = run_json(
                capsys, cmd, "--u", files["u"], "--ut", files["u"], "--seed", "1"
            )
            assert code == 0
            assert report["verdict"] == "equal"

    def test_byte_identical_reports(self, files, capsys):
        args = ("swap-test", "--u", files["u"], "--ut", files["t"], "--shots", "500", "--seed", "9")
        _, first = run_cli(capsys, *args, "--json")
        _, second = run_cli(capsys, *args, "--json")
        assert first == second

    def test_env_seed_read_on_every_call(self, files, capsys, monkeypatch):
        seeds = []
        for value in ("5", "6"):
            monkeypatch.setenv("QVERIFY_SEED", value)
            seeds.append(run_json(capsys, "swap-test", "--u", files["u"], "--ut", files["u"])[1]["seed"])
        assert seeds == [5, 6]

    def test_seed_recorded_and_env_default(self, files, capsys, monkeypatch):
        monkeypatch.setenv("QVERIFY_SEED", "777")
        _, report = run_json(capsys, "swap-test", "--u", files["u"], "--ut", files["u"])
        assert report["seed"] == 777
        _, report = run_json(
            capsys, "swap-test", "--u", files["u"], "--ut", files["u"], "--seed", "3"
        )
        assert report["seed"] == 3


class TestCliffordCommands:
    def test_pauli_shift_detected(self, files, capsys):
        code, report = run_json(
            capsys, "clifford-test", "--u", files["u"], "--ut", files["shifted"],
            "--runs", "40", "--seed", "2",
        )
        assert code == 1
        assert report["verdict"] == "different"
        assert report["rejections"] > 0

    def test_t_gate_rejected_with_exit_two(self, files, capsys):
        code = main(["clifford-test", "--u", files["u"], "--ut", files["t"]])
        assert code == 2

    # sha256 of `clifford-test --json` stdout on seeded pairs; a change to the
    # rounds' random stream shows here as the outputs it moves.
    PINNED_REPORTS = {
        (2, False): "b3047321c9328b64cafb51eae47ccd9be947f9a246a09da5f4ff51ddb1bc1521",
        (2, True): "195a52989b035d7131ad889b6ed534b63fa168a19249baa2a096e226d0505b6d",
        (8, False): "83638b3e3a3a95f0c5a4c4d6dd7b1a9694b3fd1abe1b62f275c24651b7a6b708",
        (8, True): "676e862fbdcb64d736068f860dafbae10d4ff37f583a4ba766ebf26c5819e47e",
        (200, False): "9ac98f886a3556020c40f1f09504d03f4f52132b45595a88bebfec393a99a177",
        (200, True): "6dea7657e30033f8f4d97936bb9d31a283106674bc01569b3afc714c31af158d",
    }

    @pytest.mark.parametrize("n, shifted", sorted(PINNED_REPORTS))
    def test_seeded_report_bytes_pinned(self, tmp_path, capsys, n, shifted):
        gates, runs = {2: (40, 600), 8: (80, 300), 200: (2000, 60)}[n]
        rng = np.random.default_rng(n)
        u = random_clifford_circuit(n, gates, rng)
        ut = Circuit(n, u.gates + (gate("Z", int(rng.integers(0, n))),)) if shifted else u
        save_circuit(u, tmp_path / "u.qc")
        save_circuit(ut, tmp_path / "ut.qc")
        code, out = run_cli(
            capsys, "clifford-test", "--u", str(tmp_path / "u.qc"), "--ut", str(tmp_path / "ut.qc"),
            "--runs", str(runs), "--seed", "11", "--json",
        )
        assert code == (1 if shifted else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_REPORTS[n, shifted]

    def test_find_error_recovers(self, files, capsys):
        code, report = run_json(
            capsys, "find-error", "--u", files["u"], "--ut", files["replaced"],
            "--runs-per-candidate", "30", "--seed", "4",
        )
        assert code == 1
        assert report["found"] is True
        assert not report["candidate_equals_u"]

    def test_find_error_on_equal_pair(self, files, capsys):
        code, report = run_json(
            capsys, "find-error", "--u", files["u"], "--ut", files["u"], "--seed", "4"
        )
        assert code == 0
        assert report["candidate_equals_u"] is True

    def test_fidelity_bound_exhaustive(self, capsys):
        code, report = run_json(capsys, "fidelity-bound", "--n", "1", "--exhaustive")
        assert code == 0
        assert report["pairs_checked"] == 552
        assert report["max_fidelity"] == pytest.approx(0.5, abs=1e-12)
        assert report["bound_holds"] is True

    def test_fidelity_bound_sampled(self, capsys):
        code, report = run_json(
            capsys, "fidelity-bound", "--n", "3", "--runs", "30", "--seed", "6"
        )
        assert code == 0
        assert report["bound_holds"] is True


def _fault_options_by_circuit_unitary(ideal, eps):
    """The fault options screened on the full circuit unitaries."""
    ideal_u = circuit_unitary(ideal)
    options = []
    for pos, g in enumerate(ideal.gates):
        if g.kind is GateKind.CNOT:
            alternatives = [Gate(GateKind.CUSTOM, g.targets, cli._REVERSED_CNOT)]
        elif g.kind is GateKind.CUSTOM:
            continue
        else:
            alternatives = [Gate(k, g.targets) for k in cli._FAULT_ALPHABET if k is not g.kind]
        for alt in alternatives:
            faulty = one_gate_pair(ideal, pos, alt)[1]
            if worst_distance(ideal_u, circuit_unitary(faulty)) >= eps - 1e-9:
                options.append(faulty)
    return tuple(options)


def _screened_faults(ideal, eps):
    """The production line's faults: the CLI's replacements, screened by the factory."""
    try:
        return FactoryModel(ideal, 0.1, cli._replacements(ideal), eps).faults
    except DomainError:  # no replacement reaches eps
        return ()


class TestFaultOptions:
    def test_benchmark_ideals_match_full_unitary_screen(self, tmp_path, monkeypatch):
        workloads = load_benchmark_workloads(monkeypatch)
        ideals = []
        for seed in (1, 2, 11):
            plan = workloads.make_plan("production-line", seed, tmp_path / str(seed))
            for request in (plan.warmup, *plan.requests):
                argv = list(request.argv)
                ideal = load_circuit(argv[argv.index("--ideal") + 1])
                ideals.append((ideal, float(argv[argv.index("--eps") + 1])))
        assert len(ideals) == 39
        for ideal, eps in ideals:
            assert _screened_faults(ideal, eps) == _fault_options_by_circuit_unitary(ideal, eps)

    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.9, 1.0])
    def test_general_circuits_match_full_unitary_screen(self, rng, eps):
        for _ in range(5):
            ideal = random_general_circuit(3, 8, rng, custom_prob=0.2)
            assert _screened_faults(ideal, eps) == _fault_options_by_circuit_unitary(ideal, eps)

    def test_builds_no_circuit_unitary(self, rng, monkeypatch):
        # Every dense build contracts its gates through core._contract.
        monkeypatch.setattr(core, "_contract", lambda *a: pytest.fail("unitary built"))
        ideal = random_general_circuit(4, 12, rng)
        assert FactoryModel(ideal, 0.1, cli._replacements(ideal), 0.5).faults


class TestProductionLineCommand:
    def test_contractions_bounded_by_faults_not_batches(self, files, capsys, monkeypatch):
        # Every dense build goes through core._contract: at most one sweep
        # of the ideal's gates per fault's transfer V, plus one per V.
        real, calls = core._contract, []
        monkeypatch.setattr(core, "_contract", lambda *a: calls.append(1) or real(*a))
        ideal = load_circuit(files["u"])
        for batches in ("50", "500"):
            calls.clear()
            code, report = run_json(
                capsys, "production-line", "--ideal", files["u"], "--fault-prob", "0.2",
                "--eps", "0.5", "--batch", "5", "--batches", batches, "--seed", "3",
            )
            assert code == 0
            assert report["pre_rate"] > 0
            assert len(calls) <= report["fault_options"] * (ideal.n_gates + 1)

    def test_one_gate_ideal_at_width_13(self, tmp_path, capsys):
        # Every fault of a one-gate ideal sits at its one position, so no
        # 2^13 x 2^13 unitary is needed.
        (tmp_path / "wide.qc").write_text("QUBITS 13\nH 0\n")
        start = time.perf_counter()
        code, report = run_json(
            capsys, "production-line", "--ideal", str(tmp_path / "wide.qc"),
            "--cap", "13", "--batches", "1", "--seed", "1",
        )
        assert code == 0
        assert report["batches"] == 1
        assert time.perf_counter() - start < 2.0

    def test_small_run(self, files, capsys):
        code, report = run_json(
            capsys, "production-line", "--ideal", files["u"],
            "--fault-prob", "0.1", "--eps", "0.9", "--batch", "5",
            "--batches", "40", "--delta", "1e-3", "--seed", "8",
        )
        assert code == 0
        assert set(report) >= {"pre_rate", "post_rate", "tests_per_batch", "bound"}
        assert report["post_rate"] <= report["pre_rate"] + 1e-9

    def test_cap_checked_before_any_batch(self, tmp_path, capsys):
        # A batch of one circuit has no pair, so no unitary is ever built:
        # only an up-front check can refuse the 3-qubit ideal.
        ideal = tmp_path / "ghz.qc"
        save_circuit(Circuit(3, (gate("H", 0), gate("CNOT", 0, 1), gate("CNOT", 1, 2))), ideal)
        argv = ["production-line", "--ideal", str(ideal), "--cap", "2", "--batch", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # sha256 of `production-line --json` stdout on the seed-1 benchmark plan,
    # warm-up first, then the plan's order.
    PINNED_PLAN_REPORTS = (
        "7fb17c302e51dbf598a67d473bf27cef823ba3cba830bb1bd6e2b6fe0cedf764",
        "d212b989b65846cac43b6c4fb66277ca9b5f654cedd61c6b1fef269efd53c0b0",
        "d586614fbeba14f88365dd6299eab0c5a4044c1b925d2d72cfd2cf8538243768",
        "47c3de3bc8be83a9d0bdc22c6ca1c9ebcf3a794b8151aed852aeb353f8e3568a",
        "453c38f268870a5f3155806e3c81917c611eb1fbff80c754788a818bff03087a",
        "9f3dcbc4fd49f17f662e1b8cda009d188c339f9546a81a6af28239876b1d9db8",
        "a265040403a4f2c4f8a1d3f9ed1a0be863cd7dd9b2faa4de8731ef7bd3da1534",
        "f1626ad2ed219ec1f4fa9f6d336d8083da04300feac77f02487275cdaba53276",
        "d3b8d9a665e638758af8c58b80a0ee2329bc54ae32dd4dd77072d470badc3c26",
        "4a144c0fcedec6a401b5f31f30cb2a3fde7006e8cc250969680f8551a84a8fc1",
        "e0d95818bce3c305fb544acdfc1d7039c1076f4d39f3d5881d207b70acde8253",
        "a44f5045fd7110ec32fc92d14f9ef4ade8055a5b9876f346119eb414e52b55b9",
        "259dfdc446a6775137d8596962bf0b4d311e6cd459f67650da43029591bb0915",
    )

    def test_seeded_plan_report_bytes_pinned(self, tmp_path, capsys, monkeypatch):
        workloads = load_benchmark_workloads(monkeypatch)
        plan = workloads.make_plan("production-line", 1, tmp_path)
        digests = []
        for request in (plan.warmup, *plan.requests):
            code, out = run_cli(capsys, *request.argv)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == self.PINNED_PLAN_REPORTS

    def test_seeded_custom_ideal_report_bytes_pinned(self, tmp_path, capsys):
        # Seven alternatives share each named one-qubit position, the CNOT
        # has one, and the CUSTOM gate sits in every prefix past position 1.
        qft2 = 0.5 * np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]])
        ideal = Circuit(3, (
            gate("H", 0), custom_gate(qft2, 2, 0), gate("CNOT", 0, 1),
            gate("T", 2), gate("S", 1), gate("H", 2),
        ))
        save_circuit(ideal, tmp_path / "ideal.qc")
        code, out = run_cli(
            capsys, "production-line", "--ideal", str(tmp_path / "ideal.qc"), "--fault-prob", "0.3",
            "--eps", "0.3", "--batch", "7", "--batches", "300", "--delta", "1e-3", "--seed", "5", "--json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "509f9d497a9e3e8c13b67040a9f567468f1a0b61e80d4ecdd4b22aef6a3f3494"
        )

    def test_subnormal_delta(self, files, capsys):
        # 1 / 1e-320 overflows to inf; the repetition count must not.
        code, report = run_json(
            capsys, "production-line", "--ideal", files["u"], "--batch", "5",
            "--batches", "3", "--delta", "1e-320", "--seed", "8",
        )
        assert code == 0
        assert report["tests_per_batch"] == 10 * math.ceil(18 * -math.log(1e-320))


class TestErrorHandling:
    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("QUBITS 2\nCNOT 0\n")
        code = main(["distance", "--u", str(bad), "--ut", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["distance", "--u", "/nonexistent.qc", "--ut", "/nonexistent.qc"]) == 2

    def test_parse_circuit_file_raises(self, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("NOT A CIRCUIT\n")
        with pytest.raises(ParseError):
            load_circuit(str(bad))

    def test_non_finite_matrix_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "nan.qc"
        bad.write_text("QUBITS 1\nCUSTOM 1 0\nnan,0.0 0.0,0.0\n0.0,0.0 1.0,0.0\n")
        code = main(["distance", "--u", str(bad), "--ut", str(bad)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["swap-test", "--u", "u", "--ut", "u", "--shots", "-5"],
            ["swap-test", "--u", "u", "--ut", "u", "--shots", str(2**63)],
            ["swap-test", "--u", "u", "--ut", "u", "--shots", "99999999999999999999"],
            ["distance", "--u", "u", "--ut", "u", "--cap", "0"],
            ["production-line", "--ideal", "u", "--cap", "-3"],
            ["swap-test", "--u", "u", "--ut", "u", "--seed", "-1"],
            ["clifford-test", "--u", "u", "--ut", "u", "--runs", "0"],
            ["fidelity-bound", "--runs", "0"],
            ["find-error", "--u", "u", "--ut", "u", "--runs-per-candidate", "0"],
            ["production-line", "--ideal", "u", "--delta", "0"],
            ["production-line", "--ideal", "u", "--delta", "1"],
            ["production-line", "--ideal", "u", "--batch", "4"],
            ["production-line", "--ideal", "u", "--batch", "-1"],
            ["production-line", "--ideal", "u", "--batches", "-3"],
            ["find-error", "--u", "u", "--ut", "u", "--depth", "3"],
            ["find-error", "--u", "u", "--ut", "u", "--depth", "0"],
            ["fidelity-bound", "--n", "0"],
            ["fidelity-bound", "--n", "-2"],
            ["production-line", "--ideal", "u", "--eps", "-1"],
            ["production-line", "--ideal", "u", "--eps", "0"],
            ["production-line", "--ideal", "u", "--eps", "nan"],
            ["production-line", "--ideal", "u", "--eps", "5"],
        ],
        ids=["shots", "shots-2**63", "shots-overflow", "cap-0", "cap-negative", "seed-negative",
             "runs", "fidelity-runs", "runs-per-candidate", "delta-0", "delta-1",
             "batch-even", "batch-negative", "batches-negative", "depth-3", "depth-0",
             "n-0", "n-negative", "eps-negative", "eps-0", "eps-nan", "eps-5"],
    )
    def test_bad_argument_exit_two_one_line(self, files, capsys, argv):
        argv = [files[a] if a in files else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument " + argv[-2]) and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["clifford-test", "find-error"])
    def test_cap_only_on_dense_commands(self, files, capsys, command):
        assert main([command, "--u", files["u"], "--ut", files["u"], "--cap", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unrecognized arguments: --cap -1\n"

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_seed_environment_exit_two_one_line(self, files, capsys, monkeypatch, value):
        monkeypatch.setenv("QVERIFY_SEED", value)
        assert main(["swap-test", "--u", files["u"], "--ut", files["u"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seed") and err.count("\n") == 1

    def test_non_utf8_file_exit_two_one_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.qc"
        bad.write_bytes(b"QUBITS 1\n# caf\xe9\nH 0\n")
        with pytest.raises(ParseError):
            load_circuit(bad)
        assert main(["distance", "--u", str(bad), "--ut", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", DENSE_PAIR_COMMANDS)
    def test_width_mismatch_exit_two_one_line(self, files, tmp_path, capsys, command):
        wide = tmp_path / "wide.qc"
        save_circuit(Circuit(3, BELL.gates), wide)
        assert main([command, "--u", files["u"], "--ut", str(wide)]) == 2
        assert capsys.readouterr().err == "error: widths differ: 2 vs 3 qubits\n"

    @pytest.mark.parametrize("command", DENSE_PAIR_COMMANDS)
    def test_wide_width_mismatch_short_line(self, tmp_path, capsys, command):
        # Worded in qubits, not as 2^n written out (a 1,800-character line here).
        u, ut = tmp_path / "u.qc", tmp_path / "ut.qc"
        save_circuit(Circuit(3000, (gate("H", 0),)), u)
        save_circuit(Circuit(3001, (gate("H", 0),)), ut)
        assert main([command, "--u", str(u), "--ut", str(ut)]) == 2
        err = capsys.readouterr().err
        assert err == "error: widths differ: 3000 vs 3001 qubits\n" and len(err) < 80

    @pytest.mark.parametrize("command", DENSE_PAIR_COMMANDS)
    @pytest.mark.parametrize("cap", [2, core.DEFAULT_QUBIT_CAP])
    def test_window_above_cap_exit_two_one_line(self, tmp_path, capsys, command, cap):
        # The circuits are wider still; only the window's width counts.
        n = cap + 5
        u, ut = tmp_path / "u.qc", tmp_path / "ut.qc"
        save_circuit(Circuit(n, tuple(gate("H", q) for q in range(2, cap + 3))), u)
        save_circuit(Circuit(n, ()), ut)
        assert main([command, "--u", str(u), "--ut", str(ut), "--cap", str(cap)]) == 2
        assert capsys.readouterr().err == f"error: {cap + 1} qubits exceeds dense cap {cap}\n"

    @staticmethod
    def run_capped(tmp_path, command: str, qubits: int) -> subprocess.CompletedProcess:
        """`command` on a pair of equal one-gate files of `qubits` qubits, in
        a child that may map 512 MiB."""
        wide = tmp_path / "wide.qc"
        wide.write_text(f"QUBITS {qubits}\nH 0\n")
        limit = 512 * 2**20

        def cap_child():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        return subprocess.run(
            [sys.executable, "-m", "qverify.cli", command, "--u", str(wide), "--ut", str(wide)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap_child,
            timeout=120,
        )

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize("command", ["clifford-test", "find-error"])
    def test_out_of_memory_exit_two_one_line(self, tmp_path, command):
        # find-error builds a 30,000-qubit tableau, gigabytes.  clifford-test
        # keeps no tableau, but 60 Pauli frames on 10^7 qubits alone need
        # more than the cap.
        qubits = {"clifford-test": 10**7, "find-error": 30_000}[command]
        done = self.run_capped(tmp_path, command, qubits)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
        assert done.stdout == ""

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_wide_clifford_test_needs_no_tableau(self, tmp_path):
        # The 30,000-qubit pair find-error runs out of memory on: a verdict
        # walks 60 Pauli frames through the gates instead.
        done = self.run_capped(tmp_path, "clifford-test", 30_000)
        assert done.returncode == 0, done.stderr
        assert "verdict: equal" in done.stdout and done.stderr == ""

    def test_usage_error(self, capsys):
        assert main(["distance"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
