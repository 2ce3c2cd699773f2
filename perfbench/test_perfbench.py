"""Self-tests of the benchmark: output contract, determinism, checks, errors."""

from __future__ import annotations

import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import types

import pytest

from perfbench import check, hooks, inputs, layers, run, workloads
from perfbench.workloads import Run, Served

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Deterministic routing-quality metrics (the rest are timings).
QUALITY = ("weighted_depth_geomean", "swaps_total", "speedup_geomean")
#: Two cheap Fig. 8 pairs keep the real runs below a second or two.
CHEAP_PAIRS = [("ghz_4", "ibm_q20_tokyo"), ("qft_5", "grid_6x6")]


@pytest.fixture
def cheap_fig8(monkeypatch):
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "fig8_pairs",
                        lambda seed, seconds: list(CHEAP_PAIRS))


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, workloads.UNITS[name]) for name in workloads.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, workloads.layer_unit(name)) for name in workloads.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_every_metric_is_printed_with_its_unit(cheap_fig8, capsys):
    measured = workloads.fig8_sweep(seed=3, seconds=1, trace=False)
    result = run.report(measured, trace=False)
    printed = capsys.readouterr().out.splitlines()
    assert result["correct"] and result["attempted"] == 2 * len(CHEAP_PAIRS)
    for name in workloads.END_TO_END:
        unit = workloads.UNITS[name]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in printed), name
    for name in workloads.UNGATED:
        assert any(line.startswith(f"{name} = ")
                   and f" {workloads.UNITS[name]} " in line for line in printed)
    assert any(line.startswith("error_ratio = 0 ratio") for line in printed)


def test_one_seed_repeats_quality_and_call_counts(cheap_fig8):
    first = workloads.fig8_sweep(seed=5, seconds=1, trace=True)
    second = workloads.fig8_sweep(seed=5, seconds=1, trace=True)
    counts = [name for name in workloads.PER_LAYER if name.endswith(".calls")]
    assert counts and all(name in first.metrics for name in counts)
    assert {n: first.metrics[n] for n in counts} == {
        n: second.metrics[n] for n in counts}
    assert first.metrics["kernel.codar_best_swap.calls"] > 0
    plain = [workloads.fig8_sweep(seed=5, seconds=1, trace=False)
             for _ in range(2)]
    assert {n: plain[0].metrics[n] for n in QUALITY} == {
        n: plain[1].metrics[n] for n in QUALITY}


def _routed(name: str) -> tuple[str, dict]:
    from repro.service.executor import execute_job
    from repro.service.jobs import CompileJob

    outcome = execute_job(CompileJob(
        qasm=inputs.serve_qasm(name), device=inputs.SERVE_DEVICE,
        router="codar", seed=0, circuit_name=name))
    assert outcome.ok
    return outcome.routed_qasm, outcome.summary


def test_dropping_one_swap_fails_the_check():
    device = inputs.devices()[inputs.SERVE_DEVICE]
    original = inputs.serve_qasm("qft4_scaffcc")
    routed, summary = _routed("qft4_scaffcc")
    assert check.check_outcome(original, routed, summary, device) == []
    lines = routed.splitlines()
    swap = next(i for i, line in enumerate(lines) if line.startswith("swap"))
    dropped = "\n".join(lines[:swap] + lines[swap + 1:])
    assert check.check_outcome(original, dropped, summary, device)


def test_off_coupling_gate_fails_the_check():
    device = inputs.devices()[inputs.SERVE_DEVICE]
    original = inputs.serve_qasm("bell_measure")
    routed, summary = _routed("bell_measure")
    a, b = summary["initial_layout"][:2]
    far = next(q for q in range(device["num_qubits"])
               if q != a and sorted((a, q)) not in device["edges"])
    moved = routed.replace(f"q[{b}];", f"q[{far}];")
    failures = check.check_outcome(original, moved, summary, device)
    assert any("not a coupling edge" in f for f in failures)


class _Refuse(http.server.BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - stdlib naming
        body = json.dumps({"error": "queue is full"}).encode()
        self.send_response(429)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args):
        pass


def test_refused_and_failed_requests_count_in_error_ratio(capsys):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Refuse)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        jobs = workloads.serve_jobs(2)
        served, _ = workloads.closed_loop(
            f"http://127.0.0.1:{server.server_address[1]}", jobs)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(item.error.startswith("refused: HTTP 429") for item in served)
    failed_job = Served(0.01, {"outcome": {"status": "error",
                                           "error": "boom"}}, None, None)
    measured = Run()
    workloads._check_served(measured, jobs + jobs[:1], served + [failed_job])
    assert len(measured.failures) == 3 and measured.attempted == 3
    result = run.report(measured, trace=False)
    assert not result["correct"] and result["failed"] == 3
    assert "error_ratio = 1 ratio" in capsys.readouterr().out


def test_timings_are_scaled_to_nominal_speed_and_printed_as_measured():
    measured = Run()
    setup = types.SimpleNamespace(slowdown=1.5)
    timed = types.SimpleNamespace(slowdown=2.0)
    workloads.end_to_end(measured, setup_s=0.9, setup_probe=setup,
                         latencies=[0.01, 0.02, 0.03], completed=3, wall=1.5,
                         probe=timed, codar=[], speedups=[])
    assert measured.metrics["setup_s"] == pytest.approx(0.6)
    assert measured.metrics["jobs_per_s"] == pytest.approx(4.0)
    assert measured.metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert measured.metrics["setup_s_measured"] == pytest.approx(0.9)
    assert measured.metrics["jobs_per_s_measured"] == pytest.approx(2.0)
    assert measured.metrics["latency_p50_ms_measured"] == pytest.approx(20.0)


def test_speed_sampler_reports_the_reference_loop_during_a_phase():
    with workloads.DriftProbe() as probe:
        workloads.reference_loop()
    assert probe.record["speed_samples"] >= 1
    assert probe.record["reference_loop_s_during"] > 0
    assert probe.slowdown > 0
    assert probe.sampler.popen.poll() is not None


def test_serve_job_prefixes_do_not_depend_on_the_seed():
    jobs = workloads.serve_jobs(96)
    first = workloads.shuffled_blocks(jobs, 48, seed=1)
    second = workloads.shuffled_blocks(jobs, 48, seed=2)
    assert first != second
    seeds = [[job["seed"] for job in order[:48]] for order in (first, second)]
    assert sorted(seeds[0]) == sorted(seeds[1]) == list(range(48))


def _span(name, span_id, parent, start, end):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "start": start, "end": end}


def test_layer_self_times_and_residual_add_up_to_the_latency():
    spans = [
        _span("gateway.request", "g", "client", 1.0, 2.0),
        _span("gateway.proxy", "p", "g", 1.1, 1.9),
        _span("server.request", "s", "p", 1.2, 1.8),
        _span("queue.wait", "q", "s", 1.2, 1.3),
        _span("job.execute", "j", "s", 1.3, 1.75),
        _span("stage.route", "r", "j", 1.35, 1.7),
        _span("stage.layout", "l", "r", 1.35, 1.5),
        _span("stage.route", "rt", "l", 1.4, 1.45),
        _span("stage.route", "ri", "r", 1.5, 1.65),
        _span("stage.schedule", "x", "j", 1.7, 1.72),
    ]
    split = layers.attribute(spans, 1.25, transport=True)
    assert split["http.transport"] == pytest.approx(0.25)
    assert split["gateway.self"] == pytest.approx(0.2)
    assert split["gateway.hop"] == pytest.approx(0.2)
    assert split["queue.wait"] == pytest.approx(0.1)
    assert split["job.execute.self"] == pytest.approx(0.08)
    # Reverse traversal's route span counts toward the layout stage.
    assert split["stage.layout"] == pytest.approx(0.15)
    assert split["stage.route.self"] == pytest.approx(0.05 + 0.15)
    assert split["residual"] == pytest.approx(0.02)  # stage.schedule
    assert sum(split.values()) == pytest.approx(1.25)


def test_a_removed_hook_target_is_reported_missing():
    counted = hooks.Hooks({"kernel.gone": "repro.compiler.nowhere:f",
                           "export.qasm": "repro.qasm.exporter:nothing"})
    assert set(counted.missing) == {"kernel.gone", "export.qasm"}
    measured = Run()
    workloads.hook_metrics(measured, hooks.diff(counted.snapshot(),
                                                counted.snapshot()))
    assert "export.qasm.s_total" not in measured.metrics
    assert "export.qasm" in measured.missing


def test_edited_frozen_input_is_refused(tmp_path):
    copy = tmp_path / "inputs"
    shutil.copytree(inputs.INPUT_DIR, copy)
    inputs.verify(str(copy))
    (copy / "serve" / "ghz_5.qasm").write_text("OPENQASM 2.0;\n")
    with pytest.raises(inputs.InputError):
        inputs.verify(str(copy))


def test_benchmark_alone_exits_non_zero_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
