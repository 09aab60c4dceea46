"""Worker-process lifecycle: spawn, pin, connect back, terminate.

The broker turns ``runtime_workers`` into OS processes running
``python -m repro.runtime.worker``, each of which dials the coordinator's
loopback listener and announces itself with one ``hello`` frame.  Workers
are pinned to cores best-effort (``os.sched_setaffinity`` where the
platform has it, worker ``i`` to core ``i % cores``) so a 4-worker cohort
on a 4-core box actually trains on four cores instead of thrashing one.

The broker owns *processes only* — one broker is one worker fleet.  Task
dispatch and RPC serving live with the coordinator
(:class:`~repro.runtime.coordinator.MultiprocessDecentralizedFL`), which
sends the fleet an ``init`` at the start of every run; the broker's job ends
at handing back connected :class:`WorkerHandle` triples and, later, making
the processes go away — gracefully after the goodbye handshake
(:meth:`Broker.shutdown`) or forcibly on the error path
(:meth:`Broker.terminate`).  A fleet may serve many runs in between: the
:class:`~repro.scenarios.runner.ScenarioContext` of a sweep keeps one per
worker count and shuts it down when the context closes.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import WireProtocolError, WorkerCrashedError
from repro.runtime.wire import WireChannel, WireClosedError

#: Seconds a freshly spawned worker gets to dial back before the launch
#: is declared failed (the first import pays for numpy and the library).
CONNECT_TIMEOUT = 120.0


@dataclass
class WorkerHandle:
    """One live worker process and its coordinator-side channel."""

    index: int
    process: subprocess.Popen
    channel: WireChannel


def _worker_env() -> dict[str, str]:
    """Child environment with the library's source root importable."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


def _pin_to_core(pid: int, index: int) -> None:
    """Best-effort: pin worker ``index`` to core ``index % cores``."""
    setaffinity = getattr(os, "sched_setaffinity", None)
    cores = os.cpu_count()
    if setaffinity is None or not cores:  # pragma: no cover - platform-dependent
        return
    try:
        setaffinity(pid, {index % cores})
    except OSError:  # pragma: no cover - platform-dependent
        pass


class Broker:
    """Spawns the worker cohort and owns its process lifecycle."""

    def __init__(self, workers: int, connect_timeout: float = CONNECT_TIMEOUT) -> None:
        if workers < 1:
            raise WireProtocolError(f"broker needs at least one worker, got {workers}")
        self.workers = workers
        self.connect_timeout = connect_timeout
        self.handles: list[WorkerHandle] = []
        #: True from a successful launch until the workers are reaped or
        #: terminated; a stopped fleet is launched anew before its next use.
        self.running = False

    def launch(self) -> list[WorkerHandle]:
        """Spawn every worker and wait for all of them to dial back."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        processes: list[subprocess.Popen] = []
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(self.workers)
            port = listener.getsockname()[1]
            env = _worker_env()
            for index in range(self.workers):
                process = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.runtime.worker",
                        "--connect",
                        f"127.0.0.1:{port}",
                        "--worker",
                        str(index),
                    ],
                    env=env,
                )
                _pin_to_core(process.pid, index)
                processes.append(process)
            handles = self._accept_all(listener, processes)
        except BaseException:
            self._terminate_processes(processes)
            raise
        finally:
            listener.close()
        self.handles = handles
        self.running = True
        return self.handles

    def _accept_all(
        self, listener: socket.socket, processes: list[subprocess.Popen]
    ) -> list[WorkerHandle]:
        handles: list[Optional[WorkerHandle]] = [None] * self.workers
        listener.settimeout(1.0)
        polls_left = max(int(self.connect_timeout), 1)
        while any(handle is None for handle in handles):
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                for index, process in enumerate(processes):
                    if handles[index] is None and process.poll() is not None:
                        raise WorkerCrashedError(
                            f"worker {index} exited with code "
                            f"{process.returncode} before connecting"
                        )
                polls_left -= 1
                if polls_left <= 0:
                    raise WorkerCrashedError(
                        f"workers failed to connect within {self.connect_timeout:.0f}s"
                    )
                continue
            channel = WireChannel(sock)
            header, _blobs, _size = channel.recv()
            if header.get("kind") != "hello" or "worker" not in header:
                raise WireProtocolError(
                    f"expected a hello frame, got {header.get('kind')!r}"
                )
            index = int(header["worker"])
            if not 0 <= index < self.workers or handles[index] is not None:
                raise WireProtocolError(f"hello from unexpected worker index {index}")
            handles[index] = WorkerHandle(index, processes[index], channel)
        return [handle for handle in handles if handle is not None]

    # -- teardown ----------------------------------------------------------

    def shutdown(self) -> None:
        """Say goodbye to every (idle) worker, then reap them all.

        A worker that cannot take part in the handshake makes it a
        :class:`WorkerCrashedError`, after the whole fleet is terminated.
        """
        try:
            for handle in self.handles:
                handle.channel.send({"kind": "task", "op": "shutdown", "params": {}})
            for handle in self.handles:
                handle.channel.recv()
        except (WireClosedError, OSError) as exc:
            self.terminate()
            raise WorkerCrashedError(f"a worker died during shutdown: {exc}") from exc
        self.reap()

    def reap(self) -> None:
        """Join workers after a clean shutdown handshake."""
        self.running = False
        for handle in self.handles:
            handle.channel.close()
        for handle in self.handles:
            try:
                handle.process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                handle.process.kill()
                handle.process.wait(timeout=30)

    def terminate(self) -> None:
        """Force-stop every worker (error path; no goodbye frames)."""
        self.running = False
        for handle in self.handles:
            handle.channel.close()
        self._terminate_processes([handle.process for handle in self.handles])

    @staticmethod
    def _terminate_processes(processes: list[subprocess.Popen]) -> None:
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                process.kill()
                process.wait(timeout=10)
