"""A fig8_sweep program process: Fig. 8 pairs through ``execute_job``.

Protocol on stdin/stdout with :mod:`perfbench.workloads`:

1. reads one JSON line ``{"pairs": [[circuit, architecture], ...],
   "trace": bool}``;
2. imports the program, builds the jobs from the frozen QASM and warms the
   device analyses of the architectures (set-up routes nothing), then
   prints ``ready``;
3. on ``go`` (it exits on anything else) it asks for work with ``@next``
   and runs the pair whose index it reads back, until it reads ``end``;
4. prints ``@result <json>``.

Each pair runs as the CODAR job, then the SABRE job, exactly as
``SpeedupExperiment.run_architecture`` builds them: shared reverse-traversal
layout, seed 0.  With ``trace`` each job runs under its own
``TraceContext`` inside a benchmark-side ``job.execute`` span, and the
:mod:`perfbench.hooks` wrappers count calls into the layers below.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUTERS = ("codar", "sabre")


def main() -> int:
    config = json.loads(sys.stdin.readline())
    sys.path.insert(0, ROOT)
    from perfbench import inputs
    from repro.compiler import analyze
    from repro.service.executor import execute_job
    from repro.service.jobs import CompileJob
    from repro.service.registry import build_device

    jobs = [[CompileJob(qasm=inputs.suite_qasm(name), device=arch,
                        router=router, layout_strategy="reverse_traversal",
                        seed=0, circuit_name=name) for router in ROUTERS]
            for name, arch in config["pairs"]]
    for arch in sorted({arch for _, arch in config["pairs"]}):
        analyze(build_device(arch))
    hooks = None
    if config["trace"]:
        from perfbench.hooks import Hooks, diff
        from repro.obs.store import get_store
        from repro.obs.trace import TraceContext, activate, span

        hooks = Hooks()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    before = hooks.snapshot() if hooks else None
    done = {}
    started = time.perf_counter()
    while True:
        print("@next", flush=True)
        line = sys.stdin.readline().strip()
        if not line or line == "end":
            break
        pair = {"latencies_s": [], "outcomes": [], "traces": []}
        for job in jobs[int(line)]:
            if hooks is None:
                start = time.perf_counter()
                outcome = execute_job(job)
                pair["latencies_s"].append(time.perf_counter() - start)
            else:
                context = TraceContext.new()
                start = time.perf_counter()
                with activate(context), span("job.execute", job_key=job.key):
                    outcome = execute_job(job)
                pair["latencies_s"].append(time.perf_counter() - start)
                pair["traces"].append(get_store().trace(context.trace_id))
            pair["outcomes"].append(outcome.to_dict())
        done[line] = pair
    result = {"start": started, "end": time.perf_counter(), "pairs": done,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              "hooks": diff(hooks.snapshot(), before) if hooks else None}
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
