"""Quickstart: three peers, one blockchain, one federated round.

Builds the smallest end-to-end deployment the library supports — the
paper's architecture in miniature — and walks through every step:

1. synthesize a CIFAR-10-like dataset and split it across three clients;
2. spin up a simulated private Ethereum network (one node per peer) and
   deploy the FL contract suite;
3. run two communication rounds of fully coupled blockchain-based FL;
4. print each peer's combination table and the chain telemetry.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.data.synthetic import SyntheticSpec
from repro.metrics.tables import format_combination_table
from repro.scenarios import CohortSpec, ScenarioSpec, run_scenario


def main() -> None:
    # A small scenario so the whole script runs in a few seconds.
    spec = ScenarioSpec(
        kind="decentralized",
        model_kind="simple_nn",
        rounds=2,
        local_epochs=2,
        learning_rate=0.01,
        seed=7,
        cohort=CohortSpec(size=3, train_samples=300, test_samples=200),
        aggregator_test_samples=200,
        data_spec=SyntheticSpec(seed=7),
    )

    print("Running 2 rounds of blockchain-based federated learning")
    print(f"  model: {spec.model_kind}, clients: {', '.join(spec.client_ids())}")
    result = run_scenario(spec)

    for peer_id in spec.client_ids():
        print()
        print(
            format_combination_table(
                "Simple NN", peer_id, result.combination_accuracy[peer_id]
            )
        )

    print()
    print("Chain telemetry:")
    for key, value in result.chain_stats.items():
        print(f"  {key}: {value}")
    print()
    print("Mean aggregation wait per peer (simulated seconds):")
    for peer_id, wait in result.wait_times.items():
        print(f"  {peer_id}: {wait:.1f}s")


if __name__ == "__main__":
    main()
