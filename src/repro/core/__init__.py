"""The paper's contribution: fully coupled blockchain-based FL.

Every peer is simultaneously data holder, trainer, miner, and aggregator
(:mod:`repro.core.peer`); the decentralized orchestrator
(:mod:`repro.core.decentralized`) runs communication rounds over the
simulated Ethereum network, reproducing Tables II-IV and Figure 4, and
asks a :mod:`repro.core.shard` for every step of a peer's local work; a
:class:`~repro.core.rounds.Round` is the one record of a round in flight —
who is live, who was dropped, when each peer submitted and when its
waiting policy fired — handed from one named phase of the driver to the next;
:mod:`repro.core.nonrepudiation` assembles and verifies the on-chain
authorship evidence.  Experiments are defined and run one layer up:
:class:`repro.scenarios.ScenarioSpec` and :func:`repro.scenarios.run_scenario`.

Model commitments flow through a content-addressed cached pipeline: each
local model is serialized exactly once per round into a
:class:`~repro.nn.serialize.WeightArchive` whose single encoding supplies
the off-chain payload (:mod:`repro.core.offchain`), the on-chain
commitment hash, and the model-size telemetry carried by ``submit_model``;
the off-chain store memoizes decoded archives so cross-peer fetches never
re-deserialize.  ``OffchainStore.marshalling_stats()`` and
``DecentralizedFL.chain_stats()`` expose the counters,
``tests/test_core_commitment_pipeline.py`` pins one encode per model, and
``benchmarks/perf`` records the ``nn.serialize.encode.*`` cost.
"""

from repro.core.offchain import OffchainStore
from repro.core.rounds import Round
from repro.core.peer import FullPeer, PeerConfig
from repro.core.shard import PeerRoundLog, PeerShard
from repro.core.decentralized import DecentralizedFL, DecentralizedConfig
from repro.core.nonrepudiation import EvidenceBundle, collect_evidence, verify_evidence

__all__ = [
    "OffchainStore",
    "Round",
    "FullPeer",
    "PeerConfig",
    "DecentralizedFL",
    "DecentralizedConfig",
    "PeerRoundLog",
    "PeerShard",
    "EvidenceBundle",
    "collect_evidence",
    "verify_evidence",
]
