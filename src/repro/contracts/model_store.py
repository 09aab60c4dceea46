"""Model commitment store contract.

Each training round, every peer submits the hash of its serialized local
model weights (plus metadata: round, sample count, self-reported accuracy).
Full weights travel off-chain through a content-addressed store (as IPFS
does in related work); the on-chain hash makes the
submission non-repudiable — the signed transaction binds author, round, and
exact weights.

The contract optionally consults a :class:`ParticipantRegistry` so banned or
unregistered addresses cannot submit.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.chain.runtime import CallContext, Contract

_REGISTRY_KEY = "registry_address"
_SUBMISSION_PREFIX = "submission:"   # submission:<round>:<address>
_ROUND_INDEX_PREFIX = "round_index:"  # round_index:<round> -> [addresses]


def _submission_key(round_id: int, address: str) -> str:
    return f"{_SUBMISSION_PREFIX}{int(round_id):08d}:{address}"


def _round_index_key(round_id: int) -> str:
    return f"{_ROUND_INDEX_PREFIX}{int(round_id):08d}"


class ModelStore(Contract):
    """Per-round local-model commitments with author attribution."""

    NAME = "model_store"

    def init(self, ctx: CallContext, registry_address: Optional[str] = None) -> None:
        """Optionally bind to a participant registry for authorization."""
        ctx.sstore(_REGISTRY_KEY, registry_address)
        ctx.sstore("total_submissions", 0)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def submit_model(
        self,
        ctx: CallContext,
        round_id: int,
        weights_hash: str,
        num_samples: int,
        model_kind: str = "",
        reported_accuracy: float = 0.0,
        size_bytes: int = 0,
    ) -> dict[str, Any]:
        """Commit the sender's local model for ``round_id``.

        Re-submission in the same round is rejected — one model per peer per
        round, as in the paper's protocol.  ``size_bytes`` carries the
        serialized model size (the paper's model-size metric), read off the
        same single encoding that produced ``weights_hash``.
        """
        ctx.require(round_id >= 0, "round_id must be non-negative")
        ctx.require(bool(weights_hash), "weights_hash required")
        ctx.require(num_samples > 0, "num_samples must be positive")
        ctx.require(size_bytes >= 0, "size_bytes must be non-negative")
        registry = ctx.sload(_REGISTRY_KEY)
        if registry is not None:
            ctx.require(
                bool(ctx.call(registry, "is_member", address=ctx.sender)),
                "sender not a registered participant",
            )
        key = _submission_key(round_id, ctx.sender)
        ctx.require(ctx.sload(key) is None, "already submitted this round")
        record = {
            "author": ctx.sender,
            "round_id": int(round_id),
            "weights_hash": weights_hash,
            "num_samples": int(num_samples),
            "model_kind": model_kind,
            "reported_accuracy": float(reported_accuracy),
            "size_bytes": int(size_bytes),
            "block_number": ctx.block_number,
            "timestamp": ctx.timestamp,
        }
        ctx.sstore(key, record)
        index = list(ctx.sload(_round_index_key(round_id), []))
        index.append(ctx.sender)
        ctx.sstore(_round_index_key(round_id), sorted(index))
        ctx.sstore("total_submissions", int(ctx.sload("total_submissions", 0)) + 1)
        ctx.log(
            "ModelSubmitted",
            author=ctx.sender,
            round_id=int(round_id),
            weights_hash=weights_hash,
            num_samples=int(num_samples),
        )
        return record

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def get_submission(self, ctx: CallContext, round_id: int, address: str) -> Optional[dict]:
        """One peer's commitment for a round, or ``None``."""
        return ctx.sload(_submission_key(round_id, address))

    def round_submitters(self, ctx: CallContext, round_id: int) -> list[str]:
        """Sorted addresses that submitted in ``round_id``."""
        return list(ctx.sload(_round_index_key(round_id), []))

    def round_submissions(self, ctx: CallContext, round_id: int) -> list[dict]:
        """All commitments for a round, author-sorted."""
        return [
            ctx.sload(_submission_key(round_id, address))
            for address in ctx.sload(_round_index_key(round_id), [])
        ]

    def submission_count(self, ctx: CallContext, round_id: int) -> int:
        """How many peers have submitted in ``round_id``."""
        return len(ctx.sload(_round_index_key(round_id), []))

    def total_submissions(self, ctx: CallContext) -> int:
        """Lifetime number of commitments."""
        return int(ctx.sload("total_submissions", 0))

    def verify_authorship(self, ctx: CallContext, round_id: int, address: str, weights_hash: str) -> bool:
        """Non-repudiation check: did ``address`` commit ``weights_hash``?

        A ``True`` answer is backed by the signed transaction embedded in a
        mined block — the author cannot deny it.
        """
        record = ctx.sload(_submission_key(round_id, address))
        return record is not None and record["weights_hash"] == weights_hash
