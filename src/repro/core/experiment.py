"""Legacy experiment runners — thin shims over the scenario API.

``run_vanilla_experiment`` regenerates Table I / Figure 3 series for one
aggregation type; ``run_decentralized_experiment`` regenerates Tables
II-IV / Figure 4.  Both are deterministic functions of their config, and
both now delegate to :func:`repro.scenarios.run_scenario` — the scenario
runner uses the same named random streams, so results are bit-identical
to the pre-scenario implementations.  New workloads (large cohorts,
adversaries, heterogeneity) should build a
:class:`~repro.scenarios.ScenarioSpec` directly instead of extending
these signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.core.config import ExperimentConfig
from repro.core.decentralized import DecentralizedConfig
from repro.core.shard import PeerRoundLog
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticImageDataset
from repro.fl.async_policy import AsyncPolicy
from repro.fl.vanilla import VanillaRoundLog
from repro.utils.rng import RngFactory

# repro.scenarios imports this package's siblings, and this module is part
# of repro.core's public __init__ — import the scenario layer lazily to
# keep `import repro.scenarios` and `import repro.core` both cycle-free.


def _scenarios():
    from repro import scenarios

    return scenarios


@dataclass
class VanillaExperimentResult:
    """Table I slice: per-client accuracy series for one aggregation type."""

    config: ExperimentConfig
    aggregation_type: str
    client_accuracy: dict[str, list[float]]
    round_logs: list[VanillaRoundLog] = field(default_factory=list)

    def final_accuracy(self, client_id: str) -> float:
        """Accuracy after the last round."""
        return self.client_accuracy[client_id][-1]


@dataclass
class DecentralizedExperimentResult:
    """Tables II-IV: per-peer, per-combination accuracy series."""

    config: ExperimentConfig
    combination_accuracy: dict[str, dict[str, list[float]]]  # peer -> combo -> series
    wait_times: dict[str, float]
    chain_stats: dict
    round_logs: list[PeerRoundLog] = field(default_factory=list)

    def series(self, peer_id: str, combination: str) -> list[float]:
        """One table row."""
        return self.combination_accuracy[peer_id][combination]


def _build_datasets(
    config: ExperimentConfig, rngs: RngFactory
) -> tuple[SyntheticImageDataset, dict[str, Dataset], dict[str, Dataset], Dataset]:
    """Per-client train/test splits plus the aggregator's default test set.

    Kept for the benchmark harness; the scenario runner owns the logic
    (identical streams) and this wrapper adapts its return shape.
    """
    from repro.scenarios.runner import ScenarioContext, _cohort_datasets

    sc = _scenarios()
    ctx = ScenarioContext()
    spec = sc.ScenarioSpec.from_experiment_config(config)
    train_sets, test_sets, aggregator_test = _cohort_datasets(spec, rngs, ctx)
    return ctx.factory(spec.data_spec), train_sets, test_sets, aggregator_test


def _model_builder(config: ExperimentConfig, factory: SyntheticImageDataset):
    """Shared-architecture builder; init seed comes from the caller's rng."""
    from repro.scenarios.runner import ScenarioContext, _builder

    del factory  # the scenario context re-derives the backbone deterministically
    sc = _scenarios()
    return _builder(sc.ScenarioSpec.from_experiment_config(config), ScenarioContext())


def run_vanilla_experiment(
    config: ExperimentConfig,
    consider: bool,
) -> VanillaExperimentResult:
    """Centralized FL, one aggregation type (half of Table I)."""
    sc = _scenarios()
    spec = sc.ScenarioSpec.from_experiment_config(config, kind="vanilla", consider=consider)
    result = sc.run_scenario(spec)
    return VanillaExperimentResult(
        config=config,
        aggregation_type="consider" if consider else "not_consider",
        client_accuracy=result.client_accuracy,
        round_logs=result.round_logs,
    )


def run_decentralized_experiment(
    config: ExperimentConfig,
    policy: Optional[AsyncPolicy] = None,
    chain_config: Optional[DecentralizedConfig] = None,
    training_times: Optional[dict[str, float]] = None,
) -> DecentralizedExperimentResult:
    """Blockchain-based FL (Tables II-IV / Figure 4).

    ``policy`` defaults to wait-for-all, the setting under which the paper
    tabulates every combination; pass :class:`~repro.fl.async_policy.WaitForK`
    for the asynchronous trade-off benchmark.  ``training_times`` optionally
    assigns each client a simulated local-training duration (heterogeneous
    devices — the situation that motivates not waiting); the default is a
    homogeneous 30 s, matching the paper's three equal VMs.

    ``policy`` overrides only the waiting policy of ``chain_config``
    (``dataclasses.replace``) — every other field survives, the chain,
    fault and participation sub-specs included; ``chain_config.rounds`` is
    the one exception, ``config.rounds`` decides.
    """
    sc = _scenarios()
    dec_config = chain_config if chain_config is not None else DecentralizedConfig()
    if policy is not None:
        dec_config = replace(dec_config, policy=policy)

    if training_times is not None:
        missing = [cid for cid in config.client_ids if cid not in training_times]
        if missing:
            from repro.errors import ConfigError

            raise ConfigError(f"training_times missing entries for {missing}")
        heterogeneity = sc.HeterogeneitySpec(
            kind="custom",
            times=tuple(training_times[cid] for cid in config.client_ids),
        )
    else:
        heterogeneity = sc.HeterogeneitySpec()

    # The driver config's fields are ScenarioSpec fields of the same name,
    # so the caller's whole chain_config goes across; only ``rounds`` is
    # owned by the experiment ``config`` here.
    spec = sc.ScenarioSpec.from_experiment_config(
        config,
        kind="decentralized",
        heterogeneity=heterogeneity,
        **{f.name: getattr(dec_config, f.name) for f in fields(dec_config) if f.name != "rounds"},
    )
    result = sc.run_scenario(spec)
    return DecentralizedExperimentResult(
        config=config,
        combination_accuracy=result.combination_accuracy,
        wait_times=result.wait_times,
        chain_stats=result.chain_stats,
        round_logs=result.round_logs,
    )
