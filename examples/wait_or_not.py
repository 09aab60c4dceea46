"""The paper's headline question, runnable: wait, or not to wait?

Sweeps the asynchronous-aggregation policy (wait-for-1, wait-for-2,
wait-for-all) over the decentralized deployment with peers whose training
speeds differ — the 20/60/150 s devices of the registered ``paper/tradeoff``
scenario — and reports the speed/precision trade-off: how long each policy
waits versus what accuracy it reaches.

Run:  python examples/wait_or_not.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.data.synthetic import SyntheticSpec
from repro.fl.async_policy import WaitForAll, WaitForK
from repro.metrics.tables import render_table
from repro.scenarios import (
    CohortSpec,
    HeterogeneitySpec,
    ScenarioContext,
    ScenarioSpec,
    run_scenario,
)
from repro.scenarios.registry import TRADEOFF_DEVICE_TIMES


def main() -> None:
    spec = ScenarioSpec(
        kind="decentralized",
        model_kind="simple_nn",
        rounds=3,
        local_epochs=2,
        learning_rate=0.01,
        seed=11,
        cohort=CohortSpec(size=3, train_samples=300, test_samples=200),
        # A fast edge box, a mid-range laptop, a slow embedded device: on
        # equal devices wait-for-k never fires early and nothing is traded.
        heterogeneity=HeterogeneitySpec(kind="custom", times=TRADEOFF_DEVICE_TIMES),
        aggregator_test_samples=200,
        data_spec=SyntheticSpec(seed=11),
    )

    rows = []
    context = ScenarioContext()
    for policy in (WaitForK(1), WaitForK(2), WaitForAll()):
        result = run_scenario(replace(spec, policy=policy), context=context)
        mean_wait = result.mean_wait()
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
