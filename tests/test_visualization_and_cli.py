"""Tests for the ASCII visualisation helpers and the command-line interface."""

import argparse

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


#: A port nothing listens on: every client call is refused at once.
DEAD_URL = "http://127.0.0.1:1"

#: Each user error ends in one ``error: ...`` line on stderr and exit 2.
#: ``{dir}`` holds ``pair.qasm`` (valid) and ``bad.qasm`` (a qubit index past
#: its register).
USER_ERRORS = {
    "route-missing-file": (["route", "/nonexistent.qasm"], "No such file"),
    "route-qubit-out-of-range": (["route", "{dir}/bad.qasm"], "out of range"),
    "route-unknown-router": (["route", "{dir}/pair.qasm", "--router", "qiskit"],
                             "unknown router 'qiskit'"),
    "speedup-unknown-arch": (["speedup", "--arch", "bogus"],
                             "unknown device 'bogus'"),
    "cache-dir-is-a-file": (["cache", "--cache-dir", "{dir}/pair.qasm"],
                            "File exists"),
    "slo-refused": (["slo", "--url", DEAD_URL], "Connection refused"),
    "alerts-refused": (["alerts", "--url", DEAD_URL], "Connection refused"),
    "status-refused": (["status", "--url", DEAD_URL], "Connection refused"),
    "trace-refused": (["trace", "abc", "--url", DEAD_URL],
                      "Connection refused"),
    "loadtest-bad-rate": (["loadtest", "--rates", "x"],
                          "could not convert string to float: 'x'"),
    "pipeline-unknown-preset": (["pipeline", "describe", "bogus"],
                                "unknown pipeline preset 'bogus'"),
    "batch-unknown-router": (["batch", "--suite", "--max-qubits", "4",
                              "--router", "bogus"], "unknown router"),
    "batch-qubit-out-of-range": (["batch", "{dir}/bad.qasm"], "out of range"),
    "serve-deleted-profile-flag": (["serve", "--profile-slow-s", "1"],
                                   "unrecognized arguments: --profile-slow-s"),
    "portfolio-deleted-hedge-flag": (
        ["portfolio", "{dir}/pair.qasm", "--hedge-timeout", "1"],
        "unrecognized arguments: --hedge-timeout"),
    "pipeline-unknown-stage-param": (
        ["pipeline", "run", "{dir}/pair.qasm", "--pipeline",
         '["parse", "layout", "route", '
         '{{"name": "verify", "params": {{"bogus": 1}}}}]'],
        "stage 'verify': got an unexpected keyword argument 'bogus'"),
}


@pytest.mark.parametrize("argv, message", list(USER_ERRORS.values()),
                         ids=list(USER_ERRORS))
def test_user_error_exits_2(argv, message, tmp_path, capsys):
    (tmp_path / "pair.qasm").write_text("qreg q[2];\ncx q[0],q[1];\n")
    (tmp_path / "bad.qasm").write_text("qreg q[2];\ncx q[0],q[5];\n")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0], errors


def test_deleted_cluster_status_is_an_invalid_choice(capsys):
    """``repro status`` serves both roles; ``repro cluster status`` is gone,
    refused by argparse before ``main()``'s error boundary."""
    with pytest.raises(SystemExit) as excinfo:
        main(["cluster", "status", "--url", DEAD_URL])
    assert excinfo.value.code == 2
    assert "invalid choice: 'status'" in capsys.readouterr().err


#: Every command path's options as ``STRINGS DEST=DEFAULT``, in parser order
#: (``<arg>`` marks a positional).
CLI_SURFACE = {
    '': ["--version version='==SUPPRESS=='"],
    'route': ['<arg> file=None', "--device device='ibm_q20_tokyo'",
              "--router router='codar'", '--output output=None',
              '--no-verify no_verify=False'],
    'batch': ['<arg> files=None', '--suite suite=False',
              '--max-qubits max_qubits=10', '--max-gates max_gates=500',
              '--device device=None', '--router router=None',
              "--layout layout='reverse_traversal'", '--seed seed=None',
              '--workers workers=None', '--cache-dir cache_dir=None',
              '--json json=None', '--verbose verbose=False'],
    'portfolio': ['<arg> files=None', '--suite suite=False',
                  '--max-qubits max_qubits=10', '--max-gates max_gates=500',
                  "--device device='ibm_q20_tokyo'", "--preset preset='fast'",
                  '--router router=None', "--cost cost='weighted_depth'",
                  '--workers workers=None', '--beat-bound beat_bound=None',
                  '--seed seed=None', '--cache-dir cache_dir=None',
                  '--json json=None', '--verbose verbose=False'],
    'pipeline': [],
    'pipeline list': [],
    'pipeline describe': ['<arg> spec=None'],
    'pipeline run': ['<arg> file=None', "--pipeline pipeline='default'",
                     "--device device='ibm_q20_tokyo'", '--seed seed=None',
                     '--cache-dir cache_dir=None', '--json json=None',
                     '--output output=None', '--quiet quiet=False'],
    'cache': ['--cache-dir cache_dir=None', '--clear clear=False'],
    'devices': [],
    'routers': [],
    'serve': ['--port port=8642', '--cache-dir cache_dir=None',
              '--slow-request-s slow_request_s=5.0',
              '--trace-spans trace_spans=None', "--host host='127.0.0.1'",
              '--server-workers server_workers=2', '--max-depth max_depth=256',
              '--job-timeout job_timeout=None', '--verbose verbose=False',
              '--no-monitor no_monitor=False',
              '--monitor-interval monitor_interval=5.0',
              '--tenant-weight tenant_weight=None',
              '--tenant-quota tenant_quota=None',
              '--default-tenant-quota default_tenant_quota=None',
              '--tenant-slos tenant_slos=False'],
    'cluster': [],
    'cluster serve': ['--shards shards=2', '--port port=8700',
                      '--health-interval health_interval=1.0',
                      "--host host='127.0.0.1'",
                      '--server-workers server_workers=2',
                      '--max-depth max_depth=256',
                      '--job-timeout job_timeout=None',
                      '--verbose verbose=False',
                      '--no-monitor no_monitor=False',
                      '--monitor-interval monitor_interval=5.0',
                      '--tenant-weight tenant_weight=None',
                      '--tenant-quota tenant_quota=None',
                      '--default-tenant-quota default_tenant_quota=None',
                      '--tenant-slos tenant_slos=False'],
    'submit': ['<arg> files=None', "--url url='http://127.0.0.1:8642'",
               "--device device='ibm_q20_tokyo'", "--router router='codar'",
               "--layout layout='reverse_traversal'", '--seed seed=None',
               '--priority priority=0', '--timeout timeout=60.0',
               '--async async=False', '--tenant tenant=None'],
    'status': ['<arg> key=None', "--url url='http://127.0.0.1:8642'"],
    'trace': ['<arg> ident=None', "--url url='http://127.0.0.1:8642'",
              '--json json=False'],
    'top': ["--url url='http://127.0.0.1:8642'", '--interval interval=2.0',
            '--once once=False', '--no-color no_color=False',
            '--color color=False'],
    'loadtest': ["--url url=''", '--spawn-shards spawn_shards=0',
                 '--server-workers server_workers=2',
                 '--max-depth max_depth=256', "--tenants tenants='default:1'",
                 "--rates rates='4,8,16'", '--duration duration=10.0',
                 "--arrival arrival='poisson'", '--p95-target p95_target=2.0',
                 "--device device='ibm_q20_tokyo'", "--router router='codar'",
                 '--seed seed=0', '--json json=None'],
    'slo': ["--url url='http://127.0.0.1:8642'"],
    'alerts': ["--url url='http://127.0.0.1:8642'", '--limit limit=50'],
    'speedup': ['--full full=False', '--arch arch=None',
                '--detailed detailed=False', '--workers workers=None',
                '--cache-dir cache_dir=None'],
    'fidelity': [],
    'table1': [],
    'ablation': ["--device device='ibm_q20_tokyo'",
                 '--max-qubits max_qubits=10'],
    'baselines': ["--device device='ibm_q20_tokyo'",
                  '--max-qubits max_qubits=10', '--detailed detailed=False',
                  '--workers workers=None', '--cache-dir cache_dir=None'],
    'sensitivity': ["--device device='ibm_q20_tokyo'",
                    '--max-qubits max_qubits=12'],
    'layouts': ["--device device='ibm_q20_tokyo'",
                '--max-qubits max_qubits=10'],
    'scaling': ["--device device='ibm_q20_tokyo'", '--qubits qubits=16',
                '--gates gates=[100, 400, 1600]'],
    'lint': ['<arg> paths=None', '--json as_json=False',
             "--baseline baseline='lint-baseline.json'",
             '--update-baseline update_baseline=False', '--rules rules=None',
             '--list-rules list_rules=False', "--root root='.'"],
}


def _cli_surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    surface = {path: []}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                surface.update(_cli_surface(child, f"{path} {name}".strip()))
            continue
        surface[path].append(f"{'/'.join(action.option_strings) or '<arg>'} "
                             f"{action.dest}={action.default!r}")
    return surface


def test_cli_surface_is_pinned():
    assert _cli_surface(build_parser()) == CLI_SURFACE
