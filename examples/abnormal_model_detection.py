"""Abnormal-model detection, evidence, and on-chain banishment.

Demonstrates the paper's non-repudiation case (Section III, Case 3) end to
end:

1. run one round of blockchain-based FL where client C trains on
   label-flipped (poisoned) data;
2. client A notices C's model fails the fitness evaluation on A's test set
   and excludes it from aggregation (the "consider" behaviour);
3. A assembles on-chain evidence — the signed submission transaction, its
   Merkle inclusion proof, and the committed weights hash — proving C
   authored exactly those weights;
4. every peer independently verifies the evidence, and the registry admin
   bans C, whose future submissions then revert.

Run:  python examples/abnormal_model_detection.py
"""

from __future__ import annotations

import numpy as np

from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.nonrepudiation import collect_evidence, verify_evidence
from repro.core.peer import PeerConfig
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.poisoning import LabelFlipAttacker
from repro.fl.trainer import TrainConfig
from repro.nn.models import build_simple_nn
from repro.utils.rng import RngFactory


def main() -> None:
    spec = SyntheticSpec(seed=23)
    factory = SyntheticImageDataset(spec)
    rngs = RngFactory(23)
    peers = ("A", "B", "C")

    train_sets = {
        p: factory.sample(300, rngs.get("train", p), name=f"train/{p}") for p in peers
    }
    test_sets = {
        p: factory.sample(200, rngs.get("test", p), name=f"test/{p}") for p in peers
    }
    # Client C's training data is poisoned: every label flipped to class 0.
    attacker = LabelFlipAttacker()
    train_sets["C"] = attacker.poison_dataset(train_sets["C"], rngs.get("attack"))
    print("Client C's training labels have been flipped to class 0 (poisoning).")

    driver = DecentralizedFL(
        [
            PeerConfig(
                peer_id=p,
                train_config=TrainConfig(epochs=3, learning_rate=0.01),
                training_time=20.0,
            )
            for p in peers
        ],
        train_sets,
        test_sets,
        model_builder=lambda rng: build_simple_nn(np.random.default_rng(42)),
        config=DecentralizedConfig(rounds=1),
        rng_factory=rngs.spawn("chain"),
    )
    logs = driver.run()

    print()
    print("Round 1 aggregation choices (best combination per peer):")
    for log in logs:
        marker = " <- excluded C" if "C" not in log.chosen_combination else ""
        print(
            f"  peer {log.peer_id}: chose {{{','.join(log.chosen_combination)}}} "
            f"at accuracy {log.chosen_accuracy:.4f}{marker}"
        )

    # Non-repudiation: A proves C committed exactly those poisoned weights.
    # Evidence assembly needs raw blocks and Merkle proofs — chain forensics
    # below the gateway API — so it reaches into the in-process backend's
    # node deliberately: the pragma is the sanctioned escape hatch.
    accuser = driver.peers["A"]
    suspect = driver.peers["C"]
    evidence = collect_evidence(
        accuser.gateway.node,  # repro-lint: disable=seam
        suspect.address,
        1,
        accuser.model_store_address,
    )
    weights = driver.offchain.get_weights(evidence.committed_hash)
    print()
    print("Evidence bundle assembled by A against C:")
    print(f"  committed hash : {evidence.committed_hash[:18]}...")
    print(f"  block number   : {evidence.block_number}")
    print(f"  merkle proof   : {len(evidence.proof)} node(s)")
    for peer_id, peer in driver.peers.items():
        verdict = verify_evidence(
            peer.gateway.node, evidence, weights=weights  # repro-lint: disable=seam
        )
        print(f"  verified by {peer_id}: {verdict}")

    # The registry admin (deployer A) bans C on-chain.
    registry = driver._registry_address()
    ban_tx = accuser.make_transaction(
        to=registry, method="ban", args={"address": suspect.address, "reason": "poisoned model"}
    )
    accuser.gateway.submit(ban_tx)
    driver.network.start_mining()
    driver._wait_until(
        lambda: accuser.gateway.call(registry, "is_banned", address=suspect.address),
        "ban transaction",
    )
    driver.network.stop_mining()
    print()
    print(
        "C banned on-chain:",
        accuser.gateway.call(registry, "is_banned", address=suspect.address),
    )
    print(
        "C still a member? ",
        accuser.gateway.call(registry, "is_member", address=suspect.address),
    )


if __name__ == "__main__":
    main()
