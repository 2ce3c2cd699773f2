"""Tests for the ASCII visualisation helpers and the command-line interface."""

import pytest

from repro.arch.durations import GateDurationMap
from repro.cli import build_parser, main
from repro.core.circuit import Circuit
from repro.sim.scheduler import asap_schedule
from repro.visualization import draw_circuit, draw_schedule

DUR = GateDurationMap(single=1, two=2, swap=6)


class TestDrawCircuit:
    def test_empty_register(self):
        assert draw_circuit(Circuit(0)) == "(empty circuit)"

    def test_single_qubit_gates_on_wire(self):
        text = draw_circuit(Circuit(2).h(0).t(1))
        lines = text.splitlines()
        assert lines[0].startswith("q0")
        assert "H" in lines[0]
        assert "T" in lines[1]

    def test_two_qubit_gate_connects_wires(self):
        text = draw_circuit(Circuit(3).cx(0, 2))
        lines = text.splitlines()
        assert "*" in lines[0]
        assert "|" in lines[1]
        assert "CX" in lines[2]

    def test_measure_rendered_as_m(self):
        assert "M" in draw_circuit(Circuit(1).measure(0))

    def test_barrier_rendered(self):
        text = draw_circuit(Circuit(2).h(0).barrier(0, 1).h(1))
        assert "‖" in text

    def test_long_circuit_truncated(self):
        circ = Circuit(1)
        for _ in range(200):
            circ.h(0)
        text = draw_circuit(circ, max_columns=60)
        assert all(len(line) <= 70 for line in text.splitlines())
        assert "..." in text


class TestDrawSchedule:
    def test_empty_schedule(self):
        assert draw_schedule(asap_schedule(Circuit(1), DUR)) == "(empty schedule)"

    def test_gate_symbols_and_makespan(self):
        schedule = asap_schedule(Circuit(2).cx(0, 1).t(0), DUR)
        text = draw_schedule(schedule)
        assert "makespan = 3" in text
        assert "C" in text and "T" in text

    def test_durations_visible_as_box_lengths(self):
        schedule = asap_schedule(Circuit(2).swap(0, 1), DUR)
        text = draw_schedule(schedule)
        first_row = text.splitlines()[0]
        assert first_row.count("S") == 6  # a SWAP occupies six cycles

    def test_truncation_noted(self):
        circ = Circuit(1)
        for _ in range(500):
            circ.h(0)
        text = draw_schedule(asap_schedule(circ, DUR), max_columns=50)
        assert "truncated" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "ibm_q20_tokyo" in out
        assert "google_sycamore54" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "Ion Q5" in capsys.readouterr().out

    def test_route_command_roundtrip(self, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[2];\nmeasure q -> c;\n"
        )
        output = tmp_path / "routed.qasm"
        code = main(["route", str(qasm), "--device", "ibm_q16_melbourne",
                     "--output", str(output)])
        assert code == 0
        text = output.read_text()
        assert text.startswith("OPENQASM 2.0;")
        captured = capsys.readouterr()
        assert "weighted depth" in captured.err

    def test_route_command_sabre_to_stdout(self, tmp_path, capsys):
        qasm = tmp_path / "pair.qasm"
        qasm.write_text("qreg q[2];\ncx q[0],q[1];\n")
        code = main(["route", str(qasm), "--device", "ibm_q20_tokyo",
                     "--router", "sabre"])
        assert code == 0
        assert "cx" in capsys.readouterr().out

    def test_speedup_parser_options(self):
        args = build_parser().parse_args(["speedup", "--arch", "ibm_q20_tokyo",
                                          "--detailed"])
        assert args.arch == ["ibm_q20_tokyo"]
        assert args.detailed and not args.full

    def test_fidelity_parser(self):
        args = build_parser().parse_args(["fidelity"])
        assert args.command == "fidelity"

    def test_route_command_accepts_every_registered_router(self, tmp_path,
                                                           capsys):
        qasm = tmp_path / "pair.qasm"
        qasm.write_text("qreg q[3];\ncx q[0],q[2];\ncx q[1],q[2];\n")
        for router in ("codar", "codar-noise-aware", "sabre", "astar",
                       "trivial"):
            assert main(["route", str(qasm), "--device", "ibm_qx4",
                         "--router", router]) == 0, router
            captured = capsys.readouterr()
            assert "cx" in captured.out
            assert "# verified       : True" in captured.err

    def test_serve_and_cluster_serve_parse_shared_flags_alike(self):
        defaults = {"host": "127.0.0.1", "server_workers": 2, "max_depth": 256,
                    "job_timeout": None, "verbose": False,
                    "no_monitor": False, "monitor_interval": 5.0,
                    "tenant_weight": None, "tenant_quota": None,
                    "default_tenant_quota": None, "tenant_slos": False}
        given = ["--host", "0.0.0.0", "--server-workers", "3",
                 "--max-depth", "9", "--job-timeout", "2.5", "--verbose",
                 "--no-monitor", "--monitor-interval", "0.5",
                 "--tenant-weight", "a=2", "--tenant-quota", "a=4",
                 "--default-tenant-quota", "7", "--tenant-slos"]
        for argv, expected in (([], defaults),
                               (given, {"host": "0.0.0.0",
                                        "server_workers": 3, "max_depth": 9,
                                        "job_timeout": 2.5, "verbose": True,
                                        "no_monitor": True,
                                        "monitor_interval": 0.5,
                                        "tenant_weight": ["a=2"],
                                        "tenant_quota": ["a=4"],
                                        "default_tenant_quota": 7,
                                        "tenant_slos": True})):
            for command in (["serve"], ["cluster", "serve"]):
                args = vars(build_parser().parse_args(command + argv))
                assert {name: args[name] for name in defaults} == expected

    def test_route_command_rejects_an_unknown_router(self, tmp_path, capsys):
        qasm = tmp_path / "pair.qasm"
        qasm.write_text("qreg q[2];\ncx q[0],q[1];\n")
        assert main(["route", str(qasm), "--router", "qiskit"]) == 2
        assert "unknown router 'qiskit'" in capsys.readouterr().err

    def test_route_command_on_directed_device(self, tmp_path, capsys):
        qasm = tmp_path / "qx4.qasm"
        qasm.write_text("qreg q[4];\nh q[0];\ncx q[0],q[3];\ncx q[2],q[1];\n")
        code = main(["route", str(qasm), "--device", "ibm_qx4",
                     "--router", "astar"])
        assert code == 0
        assert "cx" in capsys.readouterr().out

    def test_baselines_command(self, capsys):
        assert main(["baselines", "--max-qubits", "4"]) == 0
        out = capsys.readouterr().out
        assert "geomean_speedup_vs_sabre" in out
        for router in ("codar", "sabre", "astar", "trivial"):
            assert router in out

    def test_ablation_command(self, capsys):
        assert main(["ablation", "--max-qubits", "4"]) == 0
        assert "average_slowdown_vs_full" in capsys.readouterr().out

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--max-qubits", "4"]) == 0
        assert "2q/1q ratio" in capsys.readouterr().out

    def test_layouts_command(self, capsys):
        assert main(["layouts", "--max-qubits", "4"]) == 0
        assert "reverse_traversal_1" in capsys.readouterr().out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--qubits", "6", "--gates", "40", "80"]) == 0
        out = capsys.readouterr().out
        assert "us_per_gate" in out and "Growth factors" in out


class TestBatchCli:
    def test_batch_requires_circuits(self, capsys):
        assert main(["batch"]) == 2
        assert "no circuits" in capsys.readouterr().err

    def test_batch_rejects_unknown_router(self, capsys):
        assert main(["batch", "--suite", "--max-qubits", "4",
                     "--router", "bogus"]) == 2
        assert "unknown router" in capsys.readouterr().err

    def test_batch_over_files_and_suite(self, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text("qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        code = main(["batch", str(qasm), "--suite", "--max-qubits", "3",
                     "--device", "ibm_q20_tokyo", "--device", "ibm_q16_melbourne",
                     "--router", "codar", "--router", "sabre"])
        assert code == 0
        captured = capsys.readouterr()
        assert "bell" in captured.out and "ghz_3" in captured.out
        assert "0 failures" in captured.err

    def test_batch_cache_warm_run_and_json(self, tmp_path, capsys):
        import json as json_module

        cache_dir = str(tmp_path / "cache")
        out_file = str(tmp_path / "out.json")
        argv = ["batch", "--suite", "--max-qubits", "3",
                "--cache-dir", cache_dir, "--json", out_file]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "cached" in captured.out
        assert "'hit_rate': 1.0" in captured.err
        with open(out_file, encoding="utf-8") as handle:
            records = json_module.load(handle)
        assert records and all(r["outcome"]["status"] == "ok" for r in records)

    def test_batch_parametric_device(self, capsys):
        assert main(["batch", "--suite", "--max-qubits", "3",
                     "--device", "grid_2x2"]) == 0
        assert "grid_2x2" in capsys.readouterr().out

    def test_batch_reports_oversized_skips(self, tmp_path, capsys):
        big = tmp_path / "big.qasm"
        big.write_text("qreg q[25];\ncx q[0],q[24];\n")
        assert main(["batch", str(big), "--device", "ibm_q20_tokyo"]) == 2
        err = capsys.readouterr().err
        assert "skipped: big (25q) does not fit ibm_q20_tokyo" in err
        assert "every (circuit, device) combination was skipped" in err

    def test_batch_malformed_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[2];\ncx q[0],q[9];\n")
        assert main(["batch", str(bad)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_cache_command_reports_and_clears(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", "--suite", "--max-qubits", "3",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "entries   : 0" not in out
        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "entries   : 0" in capsys.readouterr().out

    def test_speedup_parser_accepts_service_options(self):
        args = build_parser().parse_args(["speedup", "--workers", "4",
                                          "--cache-dir", "/tmp/c"])
        assert args.workers == 4 and args.cache_dir == "/tmp/c"
