"""Run one :class:`~repro.scenarios.spec.ScenarioSpec` end to end.

``run_scenario`` is the single entry point behind every workload: the
paper's tables, large cohorts, adversarial cohorts, heterogeneous-device
sweeps.

Determinism contract: for a given spec, results are a pure function of
``spec.seed``.  Every random stream is named (see
:class:`~repro.utils.rng.RngFactory`), and the stream names used here for
the honest, homogeneous, 3-client paper configuration are *exactly* the
seed implementation's names — so the paper tables regenerate
bit-identically through the scenario API.  New axes (adversaries,
heterogeneity) draw from their own streams (``attack/...``, ``hetero``),
which by construction never perturb the honest streams.

A :class:`ScenarioContext` memoizes the dataset factory, sampled splits,
and pretrained backbones across runs, and keeps the multiprocess runtime's
worker fleets running between them; the sweep driver passes one context
to every point of a grid so a 10-50-peer sweep pays for each dataset — and
each fleet launch — once.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Callable, Optional

import numpy as np

from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.participation import ParticipationPlan
from repro.core.peer import PeerConfig
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec, client_class_probs
from repro.fl.client import FLClient
from repro.fl.trainer import TrainConfig
from repro.fl.vanilla import VanillaConfig, VanillaFL
from repro.nn.model import Sequential
from repro.nn.models import build_model
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import RngFactory


def _close_fleets(fleets: dict) -> None:
    """Shut down every running fleet in ``fleets``, forgetting each one."""
    while fleets:
        _workers, broker = fleets.popitem()
        if broker.running:
            broker.shutdown()


class ScenarioContext:
    """Caches and worker fleets shared across the runs of a sweep.

    Dataset splits are deterministic functions of (data spec, experiment
    seed, split name, size, class skew), so memoizing them is
    behaviour-preserving: a cache hit returns byte-identical arrays to what
    a fresh run would sample.  The arrays are read-only, so that holds
    whatever a consumer does (adversarial corruption writes new labels
    beside the shared samples).

    Multiprocess runs borrow their worker fleet from :meth:`fleet`, one per
    worker count, launched by the first run that needs it.  Close the
    context (or use it as a context manager) to shut the fleets down; one
    never closed shuts them down when it is collected or the process
    exits, so no worker outlives its coordinator.
    """

    def __init__(self) -> None:
        self._factories: dict[SyntheticSpec, SyntheticImageDataset] = {}
        self._backbones: dict[SyntheticSpec, tuple[np.ndarray, np.ndarray]] = {}
        self._datasets: dict[tuple, Dataset] = {}
        self._dataset_hits = 0
        self._fleets: dict = {}
        weakref.finalize(self, _close_fleets, self._fleets)

    def __enter__(self) -> "ScenarioContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down every worker fleet; the caches stay usable, and a later
        multiprocess run launches a new fleet."""
        _close_fleets(self._fleets)

    def fleet(self, workers: int):
        """The :class:`~repro.runtime.broker.Broker` of ``workers`` workers
        this context's runs share; the first run that uses it launches it.
        A fleet that stopped (a failed run terminates it) is replaced by a
        new, unlaunched one."""
        # Imported lazily: repro.runtime's worker side imports this module.
        from repro.runtime.broker import Broker

        broker = self._fleets.get(workers)
        if broker is None or (broker.handles and not broker.running):
            broker = self._fleets[workers] = Broker(workers)
        return broker

    def factory(self, data_spec: SyntheticSpec) -> SyntheticImageDataset:
        """The (cached) dataset factory for one generation spec."""
        if data_spec not in self._factories:
            self._factories[data_spec] = SyntheticImageDataset(data_spec)
        return self._factories[data_spec]

    def backbone(self, data_spec: SyntheticSpec):
        """Cached pretrained trunk for the transfer-learning model."""
        if data_spec not in self._backbones:
            self._backbones[data_spec] = self.factory(data_spec).pretrained_backbone()
        return self._backbones[data_spec]

    def dataset(self, key: tuple, sample) -> Dataset:
        """Memoized split: ``sample()`` runs only on a cache miss.  The split's
        ``x`` and ``y`` come back read-only, so no consumer can change the
        bytes a later hit hands out."""
        if key not in self._datasets:
            split = sample()
            split.x.flags.writeable = False
            split.y.flags.writeable = False
            self._datasets[key] = split
        else:
            self._dataset_hits += 1
        return self._datasets[key]

    @property
    def stats(self) -> dict[str, int]:
        """Cache counters: ``dataset_*`` for the memoized splits,
        ``feature_*`` for the frozen-prefix features memoised on them
        (:meth:`repro.data.dataset.Dataset.features`) — a miss is one pass
        of a frozen trunk over one split, a hit a training or evaluation
        call that found it done."""
        splits = self._datasets.values()
        return {
            "dataset_hits": self._dataset_hits,
            "dataset_misses": len(self._datasets),
            "feature_hits": sum(split.feature_hits for split in splits),
            "feature_misses": sum(split.feature_misses for split in splits),
        }


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``client_accuracy`` is the per-client accuracy series in both kinds
    (vanilla: local test accuracy after each round; decentralized: the
    adopted combination's accuracy).  ``combination_accuracy`` /
    ``wait_times`` / ``chain_stats`` are decentralized-only.
    """

    spec: ScenarioSpec
    client_accuracy: dict[str, list[float]]
    combination_accuracy: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    wait_times: dict[str, float] = field(default_factory=dict)
    chain_stats: dict = field(default_factory=dict)
    round_logs: list = field(default_factory=list)
    adversaries: tuple[str, ...] = ()
    training_times: dict[str, float] = field(default_factory=dict)
    #: Final on-chain reputation per client (reputation-enabled runs only).
    reputation: dict[str, int] = field(default_factory=dict)
    #: Rounds that ran to completion (== spec.rounds on a clean run).
    completed_rounds: int = 0
    #: Why a faults-active run stopped early, or "" (clean / fault-free).
    abort_reason: str = ""
    #: Scheduled round ids skipped because churn/windows left fewer than
    #: two available peers (participation-engaged runs only).
    skipped_rounds: tuple[int, ...] = ()
    #: SHA-256 of every peer's final model bytes (decentralized only) —
    #: the byte surface the runtime-equivalence tests compare.
    model_digests: dict[str, str] = field(default_factory=dict)

    def final_accuracy(self, client_id: str) -> float:
        """Accuracy after the last round for one client."""
        return self.client_accuracy[client_id][-1]

    def mean_final_accuracy(self, honest_only: bool = False) -> float:
        """Cohort-mean final accuracy (optionally excluding adversaries).

        Clients with no completed round (crashed before ever aggregating
        in an aborted faulty run) are skipped; 0.0 if nobody finished.
        """
        ids = [
            cid for cid in self.client_accuracy
            if self.client_accuracy[cid]
            and not (honest_only and cid in self.adversaries)
        ]
        if not ids:
            return 0.0
        return float(np.mean([self.client_accuracy[cid][-1] for cid in ids]))

    def mean_wait(self) -> float:
        """Mean per-peer wait time (0.0 for vanilla runs)."""
        if not self.wait_times:
            return 0.0
        return float(np.mean(list(self.wait_times.values())))

    def exclusion_rate(self, client_id: str) -> float:
        """How often *other* peers' adopted combinations excluded a client.

        The ``consider``-style signal of the decentralized mode: the
        fraction of (rater peer, round) aggregation decisions that left
        ``client_id`` out.  A high rate for an adversary (and a low rate
        for honest clients) means combination search alone already
        rejects the abnormal model.
        """
        views = [
            log
            for log in self.round_logs
            if log.peer_id != client_id and log.chosen_combination
        ]
        if not views:
            return 0.0
        return float(
            np.mean([client_id not in log.chosen_combination for log in views])
        )

    def summary(self) -> dict:
        """Speed/precision digest — one sweep-table row."""
        return {
            "scenario": self.spec.name or self.spec.kind,
            "kind": self.spec.kind,
            "cohort": len(self.client_accuracy),
            "policy": self.spec.policy.describe() if self.spec.kind == "decentralized" else "-",
            "mean_wait_s": round(self.mean_wait(), 4),
            "final_accuracy": round(self.mean_final_accuracy(), 6),
            "adversaries": len(self.adversaries),
        }


# ---------------------------------------------------------------------------
# Shared building blocks (stream names identical to the seed implementation)
# ---------------------------------------------------------------------------


def _cohort_datasets(
    spec: ScenarioSpec,
    rngs: RngFactory,
    ctx: ScenarioContext,
    only: Optional[AbstractSet[str]] = None,
) -> tuple[dict[str, Dataset], dict[str, Dataset]]:
    """Per-client train/test splits.

    Streams: ``data/train/<id>`` and ``data/test/<id>`` per client — the
    seed layout.  Adversarial dataset corruption (``attack/<id>``) happens
    here, after sampling, so honest splits stay cache-shareable across
    scenarios.

    ``only`` restricts materialization to the named clients (the ones a
    participation plan ever selects).  Streams are named per client, so
    skipping a client draws nothing and cannot perturb anyone else's
    split; the memo keys include the participation axis, so a sampled
    run can never hand back (or receive) a full-participation cache
    entry.
    """
    factory = ctx.factory(spec.data_spec)
    client_ids = spec.client_ids()
    attacker = spec.adversary.build_attacker()
    adversary_ids = set(spec.adversary.adversary_ids(client_ids))
    train_sets: dict[str, Dataset] = {}
    test_sets: dict[str, Dataset] = {}
    for index, client_id in enumerate(client_ids):
        if only is not None and client_id not in only:
            continue
        probs = client_class_probs(index, len(client_ids), skew=spec.cohort.label_skew)
        volume = spec.cohort.train_samples
        train_key = (spec.data_spec, spec.seed, "train", client_id, volume,
                     index, len(client_ids), spec.cohort.label_skew,
                     spec.participation)
        train_sets[client_id] = ctx.dataset(
            train_key,
            lambda: factory.sample(
                volume,
                rngs.get("data", "train", client_id),
                name=f"train/{client_id}",
                class_probs=probs,
            ),
        )
        test_key = (spec.data_spec, spec.seed, "test", client_id,
                    spec.cohort.test_samples, spec.participation)
        test_sets[client_id] = ctx.dataset(
            test_key,
            lambda: factory.sample(
                spec.cohort.test_samples,
                rngs.get("data", "test", client_id),
                name=f"test/{client_id}",
            ),
        )
        if attacker is not None and client_id in adversary_ids:
            train_sets[client_id] = attacker.poison_dataset(
                train_sets[client_id], rngs.get("attack", client_id)
            )
    return train_sets, test_sets


def _aggregator_test(spec: ScenarioSpec, rngs: RngFactory, ctx: ScenarioContext) -> Dataset:
    """The central aggregator's test set, from stream ``data/test/aggregator``
    — the seed layout.  Only the vanilla deployment has an aggregator; the
    stream is named, so not sampling it moves no other draw."""
    key = (spec.data_spec, spec.seed, "aggregator",
           spec.aggregator_test_samples, spec.participation)
    return ctx.dataset(
        key,
        lambda: ctx.factory(spec.data_spec).sample(
            spec.aggregator_test_samples,
            rngs.get("data", "test", "aggregator"),
            name="test/aggregator",
        ),
    )


def _builder(spec: ScenarioSpec, ctx: ScenarioContext):
    """Shared-architecture builder; init seed comes from the caller's rng."""
    if spec.model_kind == "efficientnet_b0_sim":
        return partial(build_model, spec.model_kind, backbone=ctx.backbone(spec.data_spec))
    return partial(build_model, spec.model_kind)


def _initial_model(
    builder, seed: int, uses: int
) -> Callable[[np.random.Generator], Sequential]:
    """A model builder for ``uses`` callers that builds from ``seed`` once.

    Every peer starts from the same initial weights, so one build serves
    them all: each caller but the last gets its own copy, the last gets
    the build itself (so no spare copy outlives the cohort's models), and
    a caller beyond ``uses`` gets a fresh build.  Each gets the bytes its
    own build from ``seed`` would give, and the weight draws are paid once
    per run rather than once per peer.  A copy's parameters and gradients
    are its own; its frozen prefix (:meth:`Sequential.frozen_depth`: no
    parameters, fixed content) is the build's, as every peer shares one
    pretrained trunk.  Like the per-caller builds this replaces, it
    ignores its rng.
    """
    template: Optional[Sequential] = None
    handed = 0

    def build(rng: np.random.Generator) -> Sequential:
        nonlocal template, handed
        handed += 1
        if template is None:
            template = builder(np.random.default_rng(seed))
        if handed < uses:
            frozen = template.layers[: template.frozen_depth()]
            return copy.deepcopy(template, {id(layer): layer for layer in frozen})
        model, template = template, None
        return model

    return build


def _train_config(spec: ScenarioSpec) -> TrainConfig:
    """Local-training hyperparameters of the scenario."""
    return TrainConfig(
        epochs=spec.local_epochs,
        batch_size=spec.batch_size,
        learning_rate=spec.resolved_learning_rate(),
    )


# ---------------------------------------------------------------------------
# The two deployment kinds
# ---------------------------------------------------------------------------


def _run_vanilla(
    spec: ScenarioSpec, rngs: RngFactory, ctx: ScenarioContext
) -> ScenarioResult:
    train_sets, test_sets = _cohort_datasets(spec, rngs, ctx)
    aggregator_test = _aggregator_test(spec, rngs, ctx)
    builder = _builder(spec, ctx)
    client_ids = spec.client_ids()
    adversary_ids = spec.adversary.adversary_ids(client_ids)
    # All clients start from identical initial weights (the shared model),
    # matching both the paper's deployment and standard FedAvg.
    # One model per client, plus the driver's scratch model.
    model_builder = _initial_model(builder, rngs.integers("model-init"), len(client_ids) + 1)
    train_config = _train_config(spec)
    clients = [
        FLClient(
            client_id,
            train_config,
            train_sets[client_id],
            test_sets[client_id],
            model_builder,
            rngs.get("client", client_id),
        )
        for client_id in client_ids
    ]
    driver = VanillaFL(
        clients,
        aggregator_test,
        VanillaConfig(rounds=spec.rounds, consider=spec.consider),
        model_builder=model_builder,
        rng=rngs.get("tie-break"),
    )
    logs = driver.run()
    return ScenarioResult(
        spec=spec,
        client_accuracy={cid: driver.accuracy_series(cid) for cid in client_ids},
        round_logs=logs,
        adversaries=adversary_ids,
        completed_rounds=spec.rounds,
    )


@dataclass
class DecentralizedInputs:
    """Everything a decentralized driver needs, derived from one spec.

    The in-process runner materializes all of it; the multiprocess
    coordinator asks for ``materialize=frozenset()`` (no datasets, no model
    builder — those live in the worker processes), and each worker calls
    :func:`decentralized_inputs` again with the same spec and the peers it
    was dealt, to rebuild their identical datasets, initial weights, and
    rng draws on its side.
    """

    config: DecentralizedConfig
    peer_configs: list[PeerConfig]
    train_sets: dict[str, Dataset]
    test_sets: dict[str, Dataset]
    model_builder: Optional[object]
    adversary_ids: tuple[str, ...]
    training_times: dict[str, float]


def decentralized_inputs(
    spec: ScenarioSpec,
    rngs: RngFactory,
    ctx: ScenarioContext,
    materialize: Optional[AbstractSet[str]] = None,
) -> DecentralizedInputs:
    """Derive the decentralized driver's construction inputs from ``spec``.

    ``materialize`` names the peers whose datasets are sampled; ``None``
    means every peer the participation plan ever selects.  An empty set
    samples nothing and builds no model builder.

    Every random stream here is named — derived from ``(seed, label
    path)``, never from draw order — so skipping materialization cannot
    perturb any other stream: two processes deriving from the same spec
    agree on every value whichever datasets they built.
    """
    client_ids = spec.client_ids()
    adversary_ids = spec.adversary.adversary_ids(client_ids)
    train_sets: dict[str, Dataset] = {}
    test_sets: dict[str, Dataset] = {}
    model_builder = None
    if materialize is None and spec.participation.engaged:
        # Only the peers the participation plan ever selects need data.
        # The plan is rebuilt from the same chain-spawned streams the
        # driver uses, so both sides agree on the set; skipping the rest
        # is what makes a 1000-registered / 25-sampled cohort affordable.
        materialize = ParticipationPlan(
            spec.participation, list(client_ids), spec.rounds, rngs.spawn("chain")
        ).ever_active
    builds = materialize is None or bool(materialize)
    if builds:
        train_sets, test_sets = _cohort_datasets(spec, rngs, ctx, only=materialize)
        builder = _builder(spec, ctx)
    init_rng_seed = rngs.integers("model-init")
    if builds:
        model_builder = _initial_model(builder, init_rng_seed, len(train_sets))
    training_times = spec.heterogeneity.training_times(client_ids, rngs.get("hetero"))

    # The projection the spec validated itself with at construction.
    dec_config = DecentralizedConfig.project(spec)
    train_config = _train_config(spec)
    peer_configs = [
        PeerConfig(
            peer_id=client_id,
            train_config=train_config,
            model_kind=spec.model_kind,
            training_time=training_times[client_id],
        )
        for client_id in client_ids
    ]
    return DecentralizedInputs(
        config=dec_config,
        peer_configs=peer_configs,
        train_sets=train_sets,
        test_sets=test_sets,
        model_builder=model_builder,
        adversary_ids=adversary_ids,
        training_times=training_times,
    )


def _run_decentralized(
    spec: ScenarioSpec, rngs: RngFactory, ctx: ScenarioContext
) -> ScenarioResult:
    if spec.runtime == "multiprocess":
        # Imported lazily: repro.runtime's worker side imports this module
        # back to rebuild its inputs, so the dependency stays one-way at
        # import time.
        from repro.runtime.coordinator import MultiprocessDecentralizedFL

        inputs = decentralized_inputs(spec, rngs, ctx, materialize=frozenset())
        driver: DecentralizedFL = MultiprocessDecentralizedFL(
            spec,
            inputs.peer_configs,
            config=inputs.config,
            rng_factory=rngs.spawn("chain"),
            fleets=ctx.fleet,
        )
    else:
        inputs = decentralized_inputs(spec, rngs, ctx)
        driver = DecentralizedFL(
            inputs.peer_configs,
            inputs.train_sets,
            inputs.test_sets,
            model_builder=inputs.model_builder,
            config=inputs.config,
            rng_factory=rngs.spawn("chain"),
        )
    client_ids = spec.client_ids()
    adversary_ids = inputs.adversary_ids
    training_times = inputs.training_times
    logs = driver.run()

    combination_accuracy: dict[str, dict[str, list[float]]] = {}
    client_accuracy: dict[str, list[float]] = {cid: [] for cid in client_ids}
    for log in logs:
        peer_table = combination_accuracy.setdefault(log.peer_id, {})
        for combo, acc in log.combination_accuracy.items():
            peer_table.setdefault(combo, []).append(acc)
        client_accuracy[log.peer_id].append(log.chosen_accuracy)

    reputation: dict[str, int] = {}
    if spec.enable_reputation:
        reputation = driver.reputation_scores()

    return ScenarioResult(
        spec=spec,
        client_accuracy=client_accuracy,
        combination_accuracy=combination_accuracy,
        wait_times=driver.wait_time_summary(),
        chain_stats=driver.chain_stats(),
        round_logs=logs,
        adversaries=adversary_ids,
        training_times=training_times,
        reputation=reputation,
        completed_rounds=driver.completed_rounds,
        abort_reason=driver.abort_reason,
        skipped_rounds=tuple(driver.skipped_rounds),
        model_digests=driver.model_digests(),
    )


def run_scenario(
    spec: ScenarioSpec, context: Optional[ScenarioContext] = None
) -> ScenarioResult:
    """Execute one scenario; deterministic in ``spec`` (including its seed).

    Pass a shared :class:`ScenarioContext` when running several related
    scenarios (the sweep driver does) to reuse dataset splits, pretrained
    backbones and worker fleets across runs.  Without one, the run gets a
    context of its own, closed before this returns.
    """
    if context is None:
        with ScenarioContext() as ctx:
            return run_scenario(spec, ctx)
    rngs = RngFactory(spec.seed)
    if spec.kind == "vanilla":
        return _run_vanilla(spec, rngs, context)
    return _run_decentralized(spec, rngs, context)
