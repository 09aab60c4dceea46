"""Smart contracts for blockchain-based federated learning.

These are the Python equivalents of the paper's Solidity contract suite,
executed by :class:`repro.chain.runtime.ContractRuntime`:

* :class:`ParticipantRegistry` — who may train/aggregate (authorization).
* :class:`ModelStore` — per-round local-model commitments (hash of the
  serialized weights) with signer attribution: the non-repudiation record.
* :class:`AggregationCoordinator` — round lifecycle, wait-for-k quorum
  tracking, and finalization votes for the "common global model" mode.
* :class:`ReputationLedger` — score-based incentive extension (the paper's
  related-work/future-work direction, used by the
  ``adversarial/reputation`` scenario).
"""

from repro.contracts.registry import ParticipantRegistry
from repro.contracts.model_store import ModelStore
from repro.contracts.aggregation import AggregationCoordinator
from repro.contracts.reputation import ReputationLedger


def register_all(runtime) -> None:
    """Register every FL contract class on a runtime."""
    runtime.register(ParticipantRegistry)
    runtime.register(ModelStore)
    runtime.register(AggregationCoordinator)
    runtime.register(ReputationLedger)


__all__ = [
    "ParticipantRegistry",
    "ModelStore",
    "AggregationCoordinator",
    "ReputationLedger",
    "register_all",
]
