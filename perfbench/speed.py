"""Sample the host's CPU speed while a timed phase runs.

A benchmark-side process, started by :class:`perfbench.workloads.DriftProbe`
around set-up and around every timed phase.  It prints ``ready``, then every
``PERIOD_S`` times a slice of a fixed pure-Python loop in CPU seconds of its
own thread, until its stdin closes: a slower core (a busy neighbour, a lower
clock) makes a slice longer, waiting for a core does not.  It then prints
``@<json>`` with the mean slice time scaled to the 10^6 iterations of
:func:`perfbench.workloads.reference_loop`, and the sample count.

At ``PERIOD_S`` = 50 ms the slices keep about 4% of one core busy.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time

ITERATIONS = 20_000
PERIOD_S = 0.05
SCALE = 1_000_000 / ITERATIONS


def sample() -> float:
    """CPU seconds of one slice of the reference loop."""
    start = time.thread_time()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.thread_time() - start


def main() -> int:
    closed = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        closed.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    sample()  # the first slice pays for warming the loop's code
    print("ready", flush=True)
    samples = []
    while not closed.wait(PERIOD_S):
        samples.append(sample())
    samples.append(sample())  # a phase shorter than one period still has one
    print("@" + json.dumps({"loop_s": statistics.fmean(samples) * SCALE,
                            "samples": len(samples)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
