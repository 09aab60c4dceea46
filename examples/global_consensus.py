"""Operating mode 2: a common global model finalized by on-chain votes.

Section III-B of the paper describes two options for each peer: customize
an arbitrary combination (personalized mode — Tables II-IV), or "agree on a
common block of local updates ... like a global model; however, instead of
a fixed single aggregator, this mechanism allows any peer to become the
aggregator".  This example runs that second mode with the reputation
extension enabled:

1. every peer aggregates all visible models and votes the aggregate's hash
   through the AggregationCoordinator contract;
2. the first hash reaching the vote threshold is finalized — every peer
   adopts the identical global model (verified bit-for-bit below);
3. after each round peers rate each other on the ReputationLedger based on
   local fitness evaluations.

Run:  python examples/global_consensus.py
"""

from __future__ import annotations

import numpy as np

from repro.chain.spec import ChainSpec
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.trainer import TrainConfig
from repro.metrics.tables import render_table
from repro.nn.models import build_simple_nn
from repro.nn.serialize import weights_hash
from repro.utils.rng import RngFactory


def main() -> None:
    spec = SyntheticSpec(seed=17)
    factory = SyntheticImageDataset(spec)
    rngs = RngFactory(17)
    peers = ("A", "B", "C")

    driver = DecentralizedFL(
        [
            PeerConfig(
                peer_id=p,
                train_config=TrainConfig(epochs=2, learning_rate=0.01),
                training_time=25.0,
            )
            for p in peers
        ],
        {p: factory.sample(300, rngs.get("train", p)) for p in peers},
        {p: factory.sample(200, rngs.get("test", p)) for p in peers},
        model_builder=lambda rng: build_simple_nn(np.random.default_rng(42)),
        # FL knobs are DecentralizedConfig fields; chain knobs live on the
        # ChainSpec it holds.  Every peer polls the vote tally each round,
        # so the read-coalescing gateway fits (it never changes a result).
        config=DecentralizedConfig(
            rounds=3,
            mode="global_vote",
            enable_reputation=True,
            chain=ChainSpec(gateway="batching"),
        ),
        rng_factory=rngs.spawn("chain"),
    )
    print("Running 3 rounds in global-vote mode with reputation enabled ...")
    logs = driver.run()

    rows = []
    for log in logs:
        rows.append(
            [
                str(log.round_id),
                log.peer_id,
                ",".join(log.chosen_combination),
                f"{log.chosen_accuracy:.4f}",
            ]
        )
    print()
    print(render_table("Adopted global model per peer per round", ["round", "peer", "members", "local acc"], rows))

    # Every peer holds the byte-identical global model.
    hashes = {
        peer_id: weights_hash(peer.client.model.get_weights())[:18] + "..."
        for peer_id, peer in driver.peers.items()
    }
    print()
    print("Model hash held by each peer after round 3 (identical = consensus):")
    for peer_id, digest in hashes.items():
        print(f"  {peer_id}: {digest}")

    # On-chain finalization record for each round.
    viewer = driver.peers["A"]
    print()
    print("Finalized aggregate hash per round (from A's chain view):")
    for round_id in range(1, 4):
        final = viewer.gateway.call(
            viewer.coordinator_address, "finalized_hash", round_id=round_id
        )
        print(f"  round {round_id}: {final[:18]}...")

    print()
    print("Reputation scores after three honest rounds:")
    for peer_id in peers:
        print(f"  {peer_id}: {driver.reputation_of(peer_id)}")


if __name__ == "__main__":
    main()
