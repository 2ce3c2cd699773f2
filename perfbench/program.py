"""Launch, watch and stop the program's processes from outside.

Readiness comes from the line a process prints when it is ready (``# serving
on <url>``, ``# gateway on <url>``, or the fig8 worker's ``ready``), read by
a thread that keeps draining the pipe so a chatty server never blocks on a
full stderr.  Nothing here sleeps to wait for a process to come up.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time

from perfbench.hooks import SNAPSHOT_PREFIX

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVE_READY = "# serving on "
GATEWAY_READY = "# gateway on "
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def program_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
    return env


class Process:
    """One launched program process and the lines it prints on ``stream``.

    ``ready_prefix`` marks the line that ends start-up; the rest of that
    line is kept in :attr:`ready_text` (a server's URL).  Lines starting
    with ``capture_prefix`` are queued for :meth:`next_captured`.
    """

    def __init__(self, argv: list[str], ready_prefix: str, *,
                 stream: str = "stderr", capture_prefix: str | None = None,
                 stdin: bool = False):
        self.launched = time.perf_counter()
        self.ready_text: str | None = None
        self.ready_s: float | None = None
        self.tail: list[str] = []
        self._ready = threading.Event()
        self._captured: queue.Queue[str | None] = queue.Queue()
        self._prefix, self._capture = ready_prefix, capture_prefix
        pipes = {"stdin": subprocess.PIPE if stdin else subprocess.DEVNULL,
                 "stdout": subprocess.DEVNULL, "stderr": None}
        pipes[stream] = subprocess.PIPE
        self.popen = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                                      text=True, **pipes)
        self._reader = threading.Thread(
            target=self._drain, args=(getattr(self.popen, stream),),
            daemon=True)
        self._reader.start()

    def _drain(self, pipe) -> None:
        for line in pipe:
            line = line.rstrip("\n")
            if self._capture and line.startswith(self._capture):
                self._captured.put(line[len(self._capture):])
                continue
            if not self._ready.is_set() and line.startswith(self._prefix):
                self.ready_s = time.perf_counter() - self.launched
                words = line[len(self._prefix):].split()
                self.ready_text = words[0] if words else ""
                self._ready.set()
                continue
            self.tail = (self.tail + [line])[-20:]
        self._ready.set()  # end of stream: unblock a waiter either way
        self._captured.put(None)

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> str:
        """Block until the ready line; returns the text after the marker."""
        self._ready.wait(timeout)
        if self.ready_text is None:
            self.stop()
            raise RuntimeError(f"{' '.join(self.popen.args[1:])} did not "
                               f"become ready: {' | '.join(self.tail[-5:])}")
        return self.ready_text

    def next_captured(self, timeout: float) -> str:
        """The next captured line; raises once the stream has ended."""
        try:
            line = self._captured.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"no reply within {timeout:g} s") from None
        if line is None:
            self._captured.put(None)
            raise RuntimeError(f"{' '.join(self.popen.args[1:])} ended: "
                               f"{' | '.join(self.tail[-5:])}")
        return line

    @property
    def pid(self) -> int:
        return self.popen.pid

    def children(self) -> list[int]:
        """Live child processes (the shards of a gateway)."""
        found = []
        try:
            tasks = os.listdir(f"/proc/{self.pid}/task")
        except OSError:
            return found
        for task in tasks:
            try:
                with open(f"/proc/{self.pid}/task/{task}/children") as f:
                    found.extend(int(c) for c in f.read().split())
            except OSError:
                continue
        return found

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; end every child too."""
        children = self.children()
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(STOP_TIMEOUT_S)
        for pid in children:
            _kill_and_wait(pid)
        self._reader.join(STOP_TIMEOUT_S)
        for pipe in (self.popen.stdin, self.popen.stdout, self.popen.stderr):
            if pipe is not None:
                pipe.close()


def _kill_and_wait(pid: int) -> None:
    """End a grandchild (a shard) the parent failed to stop."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while os.path.exists(f"/proc/{pid}"):
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return  # exited; its new parent reaps it
            os.kill(pid, signal.SIGKILL)
        except (OSError, IndexError):
            return
        if time.monotonic() > deadline:
            return
        time.sleep(0.01)  # sleep-ok: waiting for the kernel to tear down a killed pid


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def launch_server(cluster: bool, *, hooked: bool = False) -> Process:
    """``repro serve`` or ``repro cluster serve --shards 2`` on a free port.

    ``hooked`` starts the same CLI through ``perfbench/hooks.py`` so the
    traced run can count calls inside the server processes.
    """
    command = ["cluster", "serve", "--shards", "2"] if cluster else ["serve"]
    entry = ([os.path.join(ROOT, "perfbench", "hooks.py")] if hooked
             else ["-m", "repro.cli"])
    return Process([sys.executable, *entry, *command, "--port", "0"],
                   GATEWAY_READY if cluster else SERVE_READY,
                   capture_prefix=SNAPSHOT_PREFIX if hooked else None)
