"""Worker process: owns a shard of the cohort's models, knows no ledger.

Launched as ``python -m repro.runtime.worker --connect HOST:PORT
--worker INDEX`` by the broker.  The worker dials the coordinator, says
``hello``, then serves tasks one at a time until ``shutdown``.  A worker
may serve many runs: ``init`` starts each one with the
:class:`~repro.scenarios.spec.ScenarioSpec` and the peers the coordinator
dealt this worker, and re-derives everything from them — a
:class:`~repro.core.shard.PeerShard` over exactly those peers, their
datasets, models and rng streams, the blob mirror and the wire counters —
so nothing heavyweight crosses the wire and nothing of one run leaks into
the next.  The worker samples only its own peers' data; it resolves no
participation plan and never learns the worker count.  Only the
datasets, pretrained backbones and frozen-trunk features persist, in the
process's one :class:`~repro.scenarios.runner.ScenarioContext`, under the
same memo keys the in-process runner uses: a hit returns the bytes a
fresh worker would sample.  A round-step task ``(op, round, per-peer
inputs)`` is solved by the table entry of its op
(:data:`repro.runtime.steps.STEPS`): the shard method of the same name —
the very compute the in-process driver runs, against the same named rng
streams — with the outputs encoded as the table says.

A task carries in what the driver read from the chain for it — nonces,
each peer's view records, finalized hashes — and a result carries out
what the driver writes: signed commitments with their weight blobs,
aggregate archives, rating triples, round logs.  The worker's peers hold
no gateway, and it holds no node and no simulator: the only thing it asks
the coordinator for mid-task is a weight blob, by content address
(:class:`~repro.runtime.gateway.RemoteOffchain`).  It never re-seeds from
pid or wall clock, which is what makes a multiprocess run byte-identical
to the in-process one.

Determinism contract (why sharding cannot change results):

* peer ``rng`` streams are ``chain.get("peer", peer_id)`` — derived
  from (seed, label), not from draw order, so a peer's draws are the
  same no matter which worker owns it or what its siblings do;
* model init uses one shared ``model-init`` seed drawn coordinator- and
  worker-side at the same point of the same stream recipe;
* every ledger operation — nonce and view reads, off-chain puts, submits,
  waits — happens in the coordinator's driver, in the same per-peer order
  as in-process, so mempool order and injected-fault draws are
  scheduler-controlled, not process-race-controlled.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Optional

from repro.core.shard import PeerShard
from repro.errors import GatewayError, NetworkError, SerializationError, WireProtocolError
from repro.runtime.gateway import RemoteOffchain
from repro.runtime.steps import STEPS
from repro.runtime.wire import WireChannel, WireClosedError, connect, encode_error
from repro.utils.rng import RngFactory

#: Errors a task handler may raise as part of normal protocol operation;
#: they cross the wire typed.  Anything else is a worker bug and crosses
#: as a generic :class:`GatewayError` (with the traceback on stderr).
_TASK_SAFE_ERRORS = (GatewayError, SerializationError, NetworkError)


class WorkerRuntime:
    """Task loop for one worker process."""

    def __init__(self, channel: WireChannel, index: int) -> None:
        # Imported lazily: the scenario runner imports this package back
        # (repro.runtime.coordinator) for the multiprocess dispatch.
        from repro.scenarios.runner import ScenarioContext

        self.channel = channel
        self.index = index
        #: Datasets, backbones and frozen features, shared by every run.
        self.context = ScenarioContext()
        # Per-run state, rebuilt by every ``init``.
        self.shard = None
        self.offchain: Optional[RemoteOffchain] = None
        self._channel_base = (0, 0)

    # -- serve loop --------------------------------------------------------

    def serve(self) -> None:
        """Receive tasks until ``shutdown`` (or the channel closes)."""
        while True:
            header, _blobs, _size = self.channel.recv()
            if header.get("kind") != "task":
                self.channel.send(
                    {
                        "kind": "result",
                        "error": encode_error(
                            WireProtocolError(
                                f"worker expected a task frame, got {header.get('kind')!r}"
                            )
                        ),
                    }
                )
                continue
            op = header.get("op", "")
            if op == "shutdown":
                self.channel.send({"kind": "result", "value": "bye"})
                return
            if op == "crash":
                # Test hook: die without a goodbye, as a real fault would.
                os._exit(13)
            try:
                value, out_blobs = self.dispatch(op, header.get("params", {}))
            except _TASK_SAFE_ERRORS as exc:
                self.channel.send({"kind": "result", "error": encode_error(exc)})
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                self.channel.send(
                    {
                        "kind": "result",
                        "error": encode_error(
                            GatewayError(f"worker {self.index} {op} failed: {exc!r}")
                        ),
                    }
                )
            else:
                self.channel.send({"kind": "result", "value": value}, out_blobs)

    def dispatch(self, op: str, params: dict) -> tuple:
        """Route one task; returns ``(value, blobs)`` for the result frame.
        A round step (:data:`~repro.runtime.steps.STEPS`) runs the shard
        method of its name; the rest are lifecycle ops."""
        if op in STEPS:
            return STEPS[op].solve(self.shard, op, params)
        handler = {"init": self._init, "configure": self._configure, "stats": self._stats}.get(op)
        if handler is None:
            raise WireProtocolError(f"unknown worker task op {op!r}")
        return handler(params), ()

    # -- lifecycle tasks ---------------------------------------------------

    def _channel_bytes(self) -> tuple[int, int]:
        if self.channel is None:  # a runtime built without a connection
            return 0, 0
        return self.channel.bytes_sent, self.channel.bytes_received

    def _init(self, params: dict):
        """Rebuild the shard over the peers the coordinator dealt this
        worker, sampling only their datasets."""
        from repro.runtime.speccodec import decode_spec
        from repro.scenarios.runner import decentralized_inputs

        spec = decode_spec(params["spec"])
        hand = frozenset(params["peers"])
        rngs = RngFactory(spec.seed)
        inputs = decentralized_inputs(spec, rngs, self.context, materialize=hand)
        self.offchain = RemoteOffchain(self.channel)
        self._channel_base = self._channel_bytes()
        self.shard = PeerShard(
            inputs.config, self.offchain, rngs.spawn("chain"), inputs.model_builder
        )
        for pc in inputs.peer_configs:
            if pc.peer_id in hand:
                self.shard.add_peer(
                    pc, None, inputs.train_sets[pc.peer_id], inputs.test_sets[pc.peer_id]
                )
        return sorted(self.shard.peers)

    def _configure(self, params: dict):
        self.shard.configure(params["model_store"], params["coordinator"], params["addresses"])
        return "configured"

    # -- collection tasks --------------------------------------------------

    def _stats(self, params: dict):
        wire = self.offchain.stats
        sent, received = self._channel_bytes()
        return {
            "worker": self.index,
            "peers": sorted(self.shard.peers),
            "wire": {
                "rpc_round_trips": wire.rpc_round_trips,
                "bytes_sent": wire.wire_bytes_sent,
                "bytes_received": wire.wire_bytes_received,
            },
            "wire_seconds": wire.wire_seconds,
            "wire_method_seconds": dict(wire.wire_method_seconds),
            "channel": {
                "bytes_sent": sent - self._channel_base[0],
                "bytes_received": received - self._channel_base[1],
            },
        }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repro cohort worker process")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--worker", required=True, type=int)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    channel = connect(host, int(port))
    try:
        channel.send({"kind": "hello", "worker": args.worker})
        WorkerRuntime(channel, args.worker).serve()
    except WireClosedError:
        # Coordinator went away mid-task; nothing left to serve.
        return 0
    finally:
        channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
