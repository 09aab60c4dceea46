"""Multiprocess round driver: the DecentralizedFL barrier over worker tasks.

:class:`MultiprocessDecentralizedFL` runs the in-process driver's round
loop unchanged and swaps its :class:`~repro.core.shard.PeerShard` for a
:class:`RemoteShard`, which sends every round step to the worker
processes that own the peers as a task — ``(op, round, per-peer
inputs)``, in the wire form :data:`~repro.runtime.steps.STEPS` states
once.  The coordinator deals the peers to the workers, and each worker's
``init`` names its hand.  The subclass itself adds only the worker
fleet's lifecycle (launch or borrow, ``init``, task dispatch, teardown)
and its reporting.  A driver built without a fleet launches its
own and shuts it down at the end of ``run()``; one handed a shared fleet
(:meth:`~repro.scenarios.runner.ScenarioContext.fleet`, which is how
``run_scenario`` builds it) sends the already-running workers an ``init``
and leaves them running for the context's next run.  Every per-run
counter — channel bytes, blob pulls — starts at ``init``, so a run on a
reused fleet reports what the same run on a fresh one does.

Everything that makes the simulation a simulation stays here, untouched:
the event engine and its clock, the PoW chain fabric, block propagation,
the round barrier, the waiting policies — and every ledger operation.
The driver reads nonces and views, puts blobs off-chain and
submits transactions through each peer's own gateway stack (fault layers
included) exactly as in-process; a task carries in what it read and a
result carries out what it will write.  That is what keeps a multiprocess
run byte-identical to the in-process one at the same seed, faults and
all.

Wire discipline of the select loop: each worker has at most one
outstanding task, and a worker mid-task blocks on at most one blob
request at a time — so the coordinator can always serve every readable
channel without buffering, and a ``result`` frame retires the worker's
slot.  Worker death (channel EOF, process exit) surfaces as
:class:`~repro.errors.WorkerCrashedError`, which ends the run: it is a
failure of the runtime, never of a round.
"""

from __future__ import annotations

import selectors
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Optional

from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.core.shard import PeerRoundLog, PeerShard
from repro.errors import ConfigError, WireProtocolError, WorkerCrashedError
from repro.runtime.broker import Broker, WorkerHandle
from repro.runtime.server import GatewayServer
from repro.runtime.speccodec import encode_spec
from repro.runtime.steps import STEPS
from repro.runtime.wire import WireClosedError, decode_error
from repro.utils.rng import RngFactory


def _merge_numbers(into: dict, extra: dict) -> None:
    """Key-wise numeric accumulation, recursing into nested dicts."""
    for key, value in extra.items():
        if isinstance(value, dict):
            _merge_numbers(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


class RemoteShard:
    """:class:`~repro.core.shard.PeerShard`'s round steps, served by the workers.

    The coordinator decides ownership once: the peers the participation
    plan ever selects are dealt round-robin, in cohort order, over the
    workers (``owned[i]`` is worker ``i``'s hand) — balanced to one peer
    under sampling, and under full participation worker ``i`` holds cohort
    positions ``i, i+W, i+2W, ...``.  ``init`` hands each worker its hand.

    Every round step in :data:`~repro.runtime.steps.STEPS` is one generic
    dispatch: the ``{peer_id: input}`` maps are split by owning worker,
    each owner gets one task, and the results are decoded and returned in
    the driver's order.  ``configure`` is the one lifecycle broadcast.
    ``local`` is the coordinator's own shard of chain-only peers: it holds
    the deployed addresses.
    """

    def __init__(self, driver: "MultiprocessDecentralizedFL", local: PeerShard) -> None:
        self.driver = driver
        self.local = local
        dealt = list(local.peers)  # the ever-selected peers, in cohort order
        workers = driver.num_workers
        self.owned = [dealt[index::workers] for index in range(workers)]
        self.owner = {peer_id: index for index, hand in enumerate(self.owned) for peer_id in hand}

    def configure(self, model_store, coordinator, addresses) -> None:
        self.local.configure(model_store, coordinator, addresses)
        params = {"model_store": model_store, "coordinator": coordinator, "addresses": addresses}
        self.driver._run_tasks(
            {handle.index: {"op": "configure", "params": params} for handle in self.driver.handles}
        )

    def __getattr__(self, op: str):
        if op not in STEPS:
            raise AttributeError(op)
        return partial(self._dispatch, op)

    def _dispatch(self, op: str, round_id: int, **inputs: dict) -> dict:
        """Run round step ``op`` on the workers owning the inputs' peers."""
        step = STEPS[op]
        order = list(next(iter(inputs.values())))
        hands: dict[int, list[str]] = {}
        for peer_id in order:
            hands.setdefault(self.owner[peer_id], []).append(peer_id)
        tasks = {
            index: {"op": op, "params": step.task(round_id, hand, inputs)}
            for index, hand in hands.items()
        }
        results = self.driver._run_tasks(tasks)
        outputs: dict = {}
        for index, task in tasks.items():
            outputs.update(step.outputs(self.driver.offchain, task["params"], *results[index]))
        return {peer_id: outputs[peer_id] for peer_id in order}


class MultiprocessDecentralizedFL(DecentralizedFL):
    """DecentralizedFL whose cohort's models live in worker processes."""

    def __init__(
        self,
        spec,
        peer_configs: list[PeerConfig],
        config: DecentralizedConfig,
        rng_factory: Optional[RngFactory] = None,
        fleets: Optional[Callable[[int], Broker]] = None,
    ) -> None:
        """``fleets`` maps a worker count to a shared fleet
        (:meth:`~repro.scenarios.runner.ScenarioContext.fleet`); without
        it the driver launches a fleet of its own and reaps it after
        ``run()``."""
        self.spec = spec
        self.num_workers = min(spec.runtime_workers, len(peer_configs))
        self._owns_fleet = fleets is None
        self.broker = Broker(self.num_workers) if fleets is None else fleets(self.num_workers)
        #: The fleet's handles while it serves this run, between ``init``
        #: and the end of ``run()``.
        self.handles: list[WorkerHandle] = []
        self.server: Optional[GatewayServer] = None
        self._worker_stats: list[dict] = []
        self._channel_base = {"bytes_sent": 0, "bytes_received": 0}
        self._channel_totals = {"bytes_sent": 0, "bytes_received": 0}
        # No datasets, no model builder: the base class builds chain-only
        # peers that sign and read the ledger for the round barrier, and
        # creates (same recipe, never draws from) the rng streams the
        # workers re-derive.
        super().__init__(
            peer_configs,
            {},
            {},
            model_builder=None,
            config=config,
            rng_factory=rng_factory,
        )
        self.shard = RemoteShard(self, self.shard)
        self._exports: dict[str, bytes] = {}

    # -- worker fleet ------------------------------------------------------

    @contextmanager
    def _fleet_guard(self) -> Iterator[None]:
        """Launch and ``init`` the workers if needed; terminate every one of
        them if the guarded block fails — a failure never leaves a worker
        running, and a shared fleet that failed is launched anew by the
        context's next run."""
        try:
            self._ensure_runtime()
            yield
        except BaseException:
            self.broker.terminate()
            self.handles = []
            raise

    def _ensure_runtime(self) -> None:
        """Launch the fleet unless it is running; have every worker rebuild
        its peer shard — the peers it was dealt — for this run."""
        if self.handles:
            return
        self.server = GatewayServer(self.offchain)
        if not self.broker.running:
            self.broker.launch()
        self.handles = self.broker.handles
        self._channel_base = self._channel_bytes()
        spec_payload = encode_spec(self.spec)
        self._run_tasks(
            {
                handle.index: {
                    "op": "init",
                    "params": {"spec": spec_payload, "peers": self.shard.owned[handle.index]},
                }
                for handle in self.handles
            }
        )

    def _run_tasks(self, tasks: dict[int, dict]) -> dict[int, tuple]:
        """Dispatch one task per listed worker; serve blob requests until
        all reply.

        Returns ``{worker_index: (value, blobs)}``.  A typed error result
        re-raises here; a closed channel or dead process raises
        :class:`WorkerCrashedError`.
        """
        results: dict[int, tuple] = {}
        pending = set(tasks)
        selector = selectors.DefaultSelector()
        try:
            for index in sorted(tasks):
                handle = self.handles[index]
                try:
                    handle.channel.send({"kind": "task", **tasks[index]})
                except OSError as exc:
                    raise self._crashed(handle, "refused a task") from exc
                selector.register(handle.channel.sock, selectors.EVENT_READ, handle)
            while pending:
                events = selector.select(timeout=1.0)
                if not events:
                    self._check_workers_alive(pending)
                    continue
                for key, _mask in events:
                    handle: WorkerHandle = key.data
                    if handle.index not in pending:
                        continue
                    try:
                        header, blobs, _size = handle.channel.recv()
                    except (WireClosedError, OSError) as exc:
                        raise self._crashed(handle, "channel closed mid-task") from exc
                    kind = header.get("kind")
                    if kind == "rpc":
                        assert self.server is not None
                        handle.channel.send(*self.server.handle(header))
                    elif kind == "result":
                        pending.discard(handle.index)
                        selector.unregister(handle.channel.sock)
                        if "error" in header:
                            raise decode_error(header["error"])
                        results[handle.index] = (header.get("value"), blobs)
                    else:
                        raise WireProtocolError(
                            f"coordinator got unexpected frame kind {kind!r} "
                            f"from worker {handle.index}"
                        )
        finally:
            selector.close()
        return results

    @staticmethod
    def _crashed(handle: WorkerHandle, what: str) -> WorkerCrashedError:
        return WorkerCrashedError(
            f"worker {handle.index} {what} (exit code {handle.process.poll()})"
        )

    def _check_workers_alive(self, pending: set) -> None:
        for index in sorted(pending):
            handle = self.handles[index]
            if handle.process.poll() is not None:
                raise WorkerCrashedError(
                    f"worker {index} exited with code {handle.process.returncode} "
                    "while a task was outstanding"
                )

    # -- lifecycle ---------------------------------------------------------

    def deploy_contracts(self) -> None:
        with self._fleet_guard():
            super().deploy_contracts()

    def run(self) -> list[PeerRoundLog]:
        with self._fleet_guard():
            logs = super().run()
            # Collected now, served after the workers move on.
            self._exports = self.shard.export(
                self.last_finished_round, peers=dict.fromkeys(self.peers)
            )
            self._collect_stats()
            if self._owns_fleet:
                self.broker.shutdown()
            self.handles = []
        return logs

    def _channel_bytes(self) -> dict[str, int]:
        return {
            key: sum(getattr(handle.channel, key) for handle in self.handles)
            for key in ("bytes_sent", "bytes_received")
        }

    def _collect_stats(self) -> None:
        # Channel totals are taken before the `stats` task goes out: its
        # reply carries wall-clock floats whose printed length varies from
        # run to run, and every byte counted from `init` to here is
        # deterministic.
        now = self._channel_bytes()
        self._channel_totals = {key: now[key] - self._channel_base[key] for key in now}
        results = self._run_tasks(
            {handle.index: {"op": "stats", "params": {}} for handle in self.handles}
        )
        self._worker_stats = [
            results[handle.index][0] for handle in self.handles
        ]

    def crash_worker(self, index: int) -> None:
        """Test hook: make worker ``index`` die mid-protocol.

        The worker ``os._exit``\\ s without a goodbye; the next task sent
        to it raises :class:`WorkerCrashedError`, which ends the run and
        terminates the rest of the fleet (a shared one included).
        """
        with self._fleet_guard():
            handle = self.handles[index]
            handle.channel.send({"kind": "task", "op": "crash", "params": {}})
            handle.process.wait(timeout=30)

    # -- reporting ---------------------------------------------------------

    def export_model_bytes(self, peer_id: str) -> bytes:
        """From the owning worker while the fleet serves this run;
        afterwards, the bytes ``run()`` collected before it let them go."""
        if self.handles:
            return super().export_model_bytes(peer_id)
        if peer_id not in self._exports:
            raise ConfigError(f"{peer_id}: multiprocess exports are collected when run() completes")
        return self._exports[peer_id]

    def gateway_stats(self) -> dict:
        """The driver's ledger-gateway counters — every ledger operation ran
        coordinator-side, so they equal the in-process run's — plus the
        workers' blob pulls, which are wire traffic, not ledger transport."""
        payload = super().gateway_stats()
        if not self._worker_stats:
            return payload
        wire_trips = 0
        wire_seconds = 0.0
        method_seconds: dict = {}
        for stats in self._worker_stats:
            wire_trips += stats["wire"]["rpc_round_trips"]
            wire_seconds += stats["wire_seconds"]
            _merge_numbers(method_seconds, stats["wire_method_seconds"])
        payload["wire"] = {
            "workers": self.num_workers,
            **self._channel_totals,
            "rpc_round_trips": wire_trips,
            "seconds": wire_seconds,
            "method_seconds": method_seconds,
        }
        payload["worker_stats"] = [
            {key: stats[key] for key in ("worker", "peers", "wire", "channel")}
            for stats in self._worker_stats
        ]
        payload["runtime"] = "multiprocess"
        return payload
