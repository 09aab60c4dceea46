"""How a round step crosses the wire: the one table, :data:`STEPS`.

Every :class:`~repro.core.shard.PeerShard` round step has one calling
convention — ``step(round_id, **{input: {peer_id: value}})`` returns
``{peer_id: output}`` in the inputs' order — so a task is replayable data:
``(op, round, per-peer inputs)``.  The inputs are what the driver read
from the ledger and are JSON already.  A task's params are ``round``,
``peers`` and ``inputs``, each input a list aligned with ``peers``
(canonical JSON sorts object keys, so maps travel as aligned lists); a
result carries one JSON ``value`` per peer and, for a step with blobs,
one blob per peer, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.chain.transaction import Transaction
from repro.core.shard import PeerRoundLog
from repro.errors import WireProtocolError
from repro.nn.serialize import WeightArchive


def _as_sent(_store, _round_id: int, _peer_id: str, value, _blob):
    return value


@dataclass(frozen=True)
class Step:
    """One round step's wire form: the shard method's ``inputs``; a peer's
    JSON ``value(output)`` (``None``: it sends none) and ``blob(output,
    shard)`` (``None``: no blobs), made on the worker; and ``decode(store,
    round_id, peer_id, value, blob)``, the output rebuilt coordinator-side,
    where ``store`` is the driver's off-chain store."""

    inputs: tuple[str, ...]
    decode: Callable[..., Any] = _as_sent
    value: Optional[Callable[[Any], Any]] = lambda output: output
    blob: Optional[Callable[[Any, Any], bytes]] = None

    def task(self, round_id: int, peers: list[str], inputs: dict[str, dict]) -> dict:
        """The params of a task running this step for ``peers``."""
        return {
            "round": round_id,
            "peers": peers,
            "inputs": {name: [inputs[name][peer_id] for peer_id in peers] for name in self.inputs},
        }

    def solve(self, shard, op: str, params: dict) -> tuple[list, tuple]:
        """Worker side: run the task on ``shard``; the result's value and blobs."""
        peers = params["peers"]
        outputs = getattr(shard, op)(
            int(params["round"]),
            **{name: dict(zip(peers, params["inputs"][name], strict=True)) for name in self.inputs},
        )
        ordered = [outputs[peer_id] for peer_id in peers]
        values = [None if self.value is None else self.value(output) for output in ordered]
        blobs = () if self.blob is None else tuple(self.blob(output, shard) for output in ordered)
        return values, blobs

    def outputs(self, store, params: dict, values: list, blobs: tuple) -> dict:
        """Coordinator side: a task's result as ``{peer_id: output}``."""
        peers = params["peers"]
        if self.blob is None:
            blobs = (None,) * len(peers)
        return {
            peer_id: self.decode(store, params["round"], peer_id, value, blob)
            for peer_id, value, blob in zip(peers, values, blobs, strict=True)
        }


def _commitment(store, _round_id: int, peer_id: str, value: dict, blob: bytes) -> tuple:
    """The signed commitment and its duration; the weight blob goes into
    the driver's store before the driver schedules the submit."""
    tx = Transaction.from_dict(value["tx"])
    if store.put(blob) != tx.args["weights_hash"]:
        raise WireProtocolError(f"{peer_id}: blob does not match its commitment")
    return tx, float(value["duration"])


def _log_value(log: PeerRoundLog) -> list:
    """A round log's search result, in field order (the clock marks are
    the driver's).  The accuracy table travels as pairs: its insertion
    order, the search's enumeration order, must survive for reports to
    stay byte-identical."""
    return [
        list(log.combination_accuracy.items()),
        log.chosen_combination,
        log.chosen_accuracy,
        log.models_used,
        log.updates_visible,
    ]


def _log(_store, round_id: int, peer_id: str, value: list, _blob) -> PeerRoundLog:
    table, chosen, accuracy, models_used, visible = value
    return PeerRoundLog(peer_id, round_id, dict(table), tuple(chosen), accuracy, models_used, visible)


#: Every ``PeerShard`` round step, by name.
STEPS: dict[str, Step] = {
    "train": Step(
        ("nonces",),
        _commitment,
        value=lambda trained: {"tx": trained[0].to_dict(), "duration": trained[1]},
        blob=lambda trained, shard: shard.offchain.get(trained[0].args["weights_hash"]),
    ),
    "score": Step(("views",), _log, value=_log_value),
    "vote": Step(
        ("views",),
        lambda _store, _round_id, _peer_id, _value, blob: WeightArchive.from_bytes(blob),
        value=None,
        blob=lambda archive, _shard: archive.payload,
    ),
    "adopt_final": Step(("views", "finals"), _log, value=_log_value),
    "rate": Step(("views",)),
    "catch_up": Step(("records",)),
    "export": Step(
        ("peers",),
        lambda _store, _round_id, _peer_id, _value, blob: blob,
        value=None,
        blob=lambda payload, _shard: payload,
    ),
}
