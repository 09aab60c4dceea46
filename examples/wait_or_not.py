"""The paper's headline question, runnable: wait, or not to wait?

Sweeps the asynchronous-aggregation policy (wait-for-1, wait-for-2,
wait-for-all) over the decentralized deployment with peers whose training
speeds differ, and reports the speed/precision trade-off: how long each
policy waits versus what accuracy it reaches.

Run:  python examples/wait_or_not.py
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_decentralized_experiment
from repro.data.synthetic import SyntheticSpec
from repro.fl.async_policy import WaitForAll, WaitForK
from repro.metrics.tables import render_table


def main() -> None:
    config = ExperimentConfig(
        model_kind="simple_nn",
        rounds=3,
        local_epochs=2,
        train_samples_per_client=300,
        test_samples_per_client=200,
        aggregator_test_samples=200,
        learning_rate=0.01,
        seed=11,
        data_spec=SyntheticSpec(seed=11),
    )

    rows = []
    for policy in (WaitForK(1), WaitForK(2), WaitForAll()):
        result = run_decentralized_experiment(config, policy=policy)
        mean_wait = float(np.mean(list(result.wait_times.values())))
        final_acc = float(
            np.mean([log.chosen_accuracy for log in result.round_logs[-3:]])
        )
        visible = float(np.mean([log.updates_visible for log in result.round_logs]))
        rows.append(
            [policy.describe(), f"{mean_wait:.1f}", f"{final_acc:.4f}", f"{visible:.2f}"]
        )
        print(f"finished {policy.describe()}")

    print()
    print(
        render_table(
            "Wait or not to wait: speed vs precision",
            ["policy", "mean wait (sim s)", "final accuracy", "models visible"],
            rows,
        )
    )
    print()
    print(
        "Reading: wait-for-all maximizes the models available to each\n"
        "aggregation; wait-for-1 proceeds immediately. For simple models the\n"
        "accuracy column barely moves — asynchronous aggregation is, as the\n"
        "paper concludes, 'a viable and advantageous alternative'."
    )


if __name__ == "__main__":
    main()
