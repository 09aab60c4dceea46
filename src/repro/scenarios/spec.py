"""Declarative scenario specification — every workload as one value.

A :class:`ScenarioSpec` composes independent axes:

* **cohort** — how many clients, how their ids are generated, how skewed
  their label distributions are, and how much data each holds;
* **adversary** — which attacker (from :mod:`repro.fl.poisoning`) corrupts
  what fraction of the cohort;
* **heterogeneity** — the distribution of simulated local-training times
  (the situation that motivates not waiting);
* **chain** — block interval, hashrate, gossip batching, link latency,
  message drop rate, gateway backend, scale-out
  (:class:`~repro.chain.spec.ChainSpec`, declared in the chain layer and
  re-exported here);
* **faults** — deterministic fault injection at the FL <-> chain seam
  (:class:`~repro.faults.FaultSpec`: transient/timeout/latency/duplicate/
  stale rates, crash windows, retry policy);
* plus the waiting policy, operating mode, combination-selection strategy,
  and the usual model/rounds/seed knobs.

Specs are frozen dataclasses: hashable, comparable, and cheap to derive
variants from with :func:`replace_axis` (dotted-path ``dataclasses.replace``),
which is what the sweep driver iterates over.  Validation raises
:class:`~repro.errors.ConfigError` at construction time, never mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from repro.chain.spec import ChainSpec
from repro.core.participation import ParticipationSpec
from repro.data.synthetic import SyntheticSpec
from repro.errors import ConfigError, require_finite
from repro.faults import FaultSpec
from repro.fl.async_policy import AsyncPolicy, WaitForAll
from repro.fl.poisoning import Attacker, LabelFlipAttacker, NoiseAttacker, ScaleAttacker
from repro.nn.models import NUM_CLASSES

#: The paper's three clients; cohorts of three reproduce the tables exactly.
PAPER_CLIENT_IDS = ("A", "B", "C")

#: Calibrated per-model learning rates (and the set of known model kinds):
#: the from-scratch MLP needs a small step on noisy 3072-dim inputs; the
#: linear head on frozen RBF features tolerates (and needs, for the paper's
#: fast round-1 rise) a large one.
MODEL_LEARNING_RATES = {"simple_nn": 0.008, "efficientnet_b0_sim": 0.5}

#: Execution runtimes for the decentralized deployment.  ``"inprocess"``
#: runs the whole cohort in the calling process; ``"multiprocess"`` fans
#: the peers' compute out to worker OS processes while the calling process
#: keeps the ledger (:mod:`repro.runtime`).  The runtime never changes a
#: result — equivalence tests pin the two byte-identical at every seed.
RUNTIME_KINDS = ("inprocess", "multiprocess")

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def default_client_ids(size: int) -> tuple[str, ...]:
    """Generated cohort ids: ``A..Z`` up to 26 peers, ``P00, P01, ...`` beyond.

    Sizes up to 26 keep the paper's single-letter ids (size 3 is exactly
    ``A, B, C``), so scaling the cohort axis never renames the paper's
    clients.
    """
    if size <= len(_ALPHABET):
        return tuple(_ALPHABET[:size])
    return tuple(f"P{index:02d}" for index in range(size))


@dataclass(frozen=True)
class CohortSpec:
    """Who participates and what data they hold.

    ``volumes`` (explicit per-client training-set sizes) overrides
    ``train_samples``; ``volume_profile="linear"`` spreads sizes from
    0.5x to 1.5x of ``train_samples`` across the cohort (per-client data
    volume heterogeneity with the same total budget).
    """

    size: int = 3
    client_ids: Optional[tuple[str, ...]] = None   # explicit override
    label_skew: float = 1.0
    train_samples: int = 800
    test_samples: int = 500
    volume_profile: str = "uniform"                # "uniform" | "linear"
    volumes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.size < 2:
            raise ConfigError(f"cohort size must be >= 2, got {self.size}")
        if self.client_ids is not None:
            if len(self.client_ids) != self.size:
                raise ConfigError(
                    f"client_ids has {len(self.client_ids)} entries for cohort size {self.size}"
                )
            if len(set(self.client_ids)) != len(self.client_ids):
                raise ConfigError(f"client_ids must be unique, got {self.client_ids!r}")
        if self.label_skew < 0:
            raise ConfigError(f"label_skew must be non-negative, got {self.label_skew}")
        if min(self.train_samples, self.test_samples) < 1:
            raise ConfigError("train_samples and test_samples must be >= 1")
        if self.volume_profile not in ("uniform", "linear"):
            raise ConfigError(f"unknown volume_profile {self.volume_profile!r}")
        if self.volumes is not None:
            if len(self.volumes) != self.size:
                raise ConfigError(
                    f"volumes has {len(self.volumes)} entries for cohort size {self.size}"
                )
            if min(self.volumes) < 1:
                raise ConfigError("every per-client volume must be >= 1")

    def ids(self) -> tuple[str, ...]:
        """Resolved client ids."""
        return self.client_ids if self.client_ids is not None else default_client_ids(self.size)

    def volume_of(self, index: int) -> int:
        """Training-set size of client ``index``."""
        if self.volumes is not None:
            return self.volumes[index]
        if self.volume_profile == "linear" and self.size > 1:
            return max(1, round(self.train_samples * (0.5 + index / (self.size - 1))))
        return self.train_samples


@dataclass(frozen=True)
class AdversarySpec:
    """Attacker kind and how much of the cohort it controls.

    The adversarial clients are the *last* ``round(fraction * size)``
    cohort ids, with a floor of one for any positive fraction
    (deterministic; matches the ablation benches where client ``C``
    attacks).  Kind-specific knobs mirror the attacker dataclasses in
    :mod:`repro.fl.poisoning`.
    """

    kind: str = "none"        # "none" | "label_flip" | "noise" | "scale"
    fraction: float = 0.0
    flip_fraction: float = 1.0
    target_class: int = 0
    noise_std: float = 0.5
    scale: float = 10.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in ("none", "label_flip", "noise", "scale"):
            raise ConfigError(f"unknown attacker kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(
                f"attacker_fraction must be in [0, 1], got {self.fraction}"
            )
        if self.kind != "none" and self.fraction == 0.0:
            raise ConfigError(f"attacker kind {self.kind!r} needs fraction > 0")
        if self.kind == "none" and self.fraction > 0.0:
            raise ConfigError(
                f"attacker_fraction {self.fraction} needs an attacker kind "
                "(label_flip, noise, or scale)"
            )
        # Kind-specific knobs fail here, not when a sweep point finally
        # instantiates the attacker mid-grid.
        if self.kind == "label_flip" and not 0.0 < self.flip_fraction <= 1.0:
            raise ConfigError(f"flip_fraction must be in (0, 1], got {self.flip_fraction}")
        if self.kind == "label_flip" and self.target_class < 0:
            raise ConfigError(f"target_class must be >= 0, got {self.target_class}")
        if self.kind == "noise" and self.noise_std <= 0:
            raise ConfigError(f"noise_std must be positive, got {self.noise_std}")
        if self.kind == "scale" and self.scale == 1.0:
            raise ConfigError("scale of 1.0 is not an attack")

    def build_attacker(self) -> Optional[Attacker]:
        """Instantiate the configured attacker (``None`` when honest)."""
        if self.kind == "none" or self.fraction == 0.0:
            return None
        if self.kind == "label_flip":
            return LabelFlipAttacker(
                flip_fraction=self.flip_fraction, target_class=self.target_class
            )
        if self.kind == "noise":
            return NoiseAttacker(noise_std=self.noise_std)
        return ScaleAttacker(scale=self.scale)

    def adversary_ids(self, client_ids: tuple[str, ...]) -> tuple[str, ...]:
        """Which cohort members attack: the last ``round(fraction * n)`` ids,
        but — like the stragglers convention — any positive fraction
        corrupts at least one client (an attack axis point is never
        silently honest; the honest baseline is ``kind="none"``)."""
        if self.kind == "none" or self.fraction == 0.0:
            return ()
        count = min(len(client_ids), max(1, round(self.fraction * len(client_ids))))
        return tuple(client_ids[len(client_ids) - count:])


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Distribution of simulated local-training durations.

    * ``homogeneous`` — everyone takes ``base_time`` (the paper's three
      equal VMs);
    * ``uniform`` — ``base_time`` ± ``spread``, drawn per client;
    * ``lognormal`` — ``base_time`` times a log-normal factor of sigma
      ``spread`` (long-tailed device speeds);
    * ``stragglers`` — ``base_time`` for most, ``base_time *
      straggler_factor`` for the last ``round(straggler_fraction * n)``
      clients (deterministic, like the adversary convention; any positive
      fraction straggles at least one client, 0.0 straggles none — the
      honest baseline of a straggler-fraction sweep);
    * ``custom`` — explicit per-client ``times``.
    """

    kind: str = "homogeneous"   # homogeneous | uniform | lognormal | stragglers | custom
    base_time: float = 30.0
    spread: float = 0.0
    straggler_fraction: float = 0.2
    straggler_factor: float = 5.0
    times: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in ("homogeneous", "uniform", "lognormal", "stragglers", "custom"):
            raise ConfigError(f"unknown heterogeneity kind {self.kind!r}")
        if self.base_time <= 0:
            raise ConfigError(f"base_time must be positive, got {self.base_time}")
        if self.spread < 0 or (self.kind == "uniform" and self.spread >= self.base_time):
            raise ConfigError(
                f"spread must be in [0, base_time) for uniform heterogeneity, got {self.spread}"
            )
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ConfigError(
                f"straggler_fraction must be in [0, 1], got {self.straggler_fraction}"
            )
        if self.straggler_factor < 1.0:
            raise ConfigError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        if self.kind == "custom" and not self.times:
            raise ConfigError(f"custom heterogeneity needs explicit times, got {self.times!r}")
        if self.times and min(self.times) <= 0:
            raise ConfigError("every training time must be positive")

    def training_times(
        self, client_ids: tuple[str, ...], rng: np.random.Generator
    ) -> dict[str, float]:
        """Per-client simulated training durations.

        ``rng`` is consumed only by the stochastic kinds (``uniform`` /
        ``lognormal``), so the deterministic kinds never draw.
        """
        n = len(client_ids)
        if self.kind == "custom":
            if len(self.times) != n:
                raise ConfigError(
                    f"custom times has {len(self.times)} entries for cohort size {n}"
                )
            return dict(zip(client_ids, self.times))
        if self.kind == "uniform":
            draws = rng.uniform(-self.spread, self.spread, size=n)
            return {cid: float(self.base_time + d) for cid, d in zip(client_ids, draws)}
        if self.kind == "lognormal":
            draws = rng.lognormal(0.0, self.spread, size=n)
            return {cid: float(self.base_time * d) for cid, d in zip(client_ids, draws)}
        times = {cid: self.base_time for cid in client_ids}
        if self.kind == "stragglers" and self.straggler_fraction > 0.0:
            count = min(n, max(1, round(self.straggler_fraction * n)))
            for cid in client_ids[n - count:]:
                times[cid] = self.base_time * self.straggler_factor
        return times


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified workload.

    ``kind`` selects the deployment: ``"vanilla"`` (centralized aggregator,
    Table I) or ``"decentralized"`` (blockchain peers, Tables II-IV).
    ``learning_rate=None`` resolves to the calibrated per-model rate.

    ``runtime`` selects how a decentralized cohort executes:
    ``"inprocess"`` (default) runs everything in the calling process;
    ``"multiprocess"`` spawns ``runtime_workers`` worker processes that
    hold the peers' datasets, models, and rng streams and compute their
    round work, while every ledger operation stays in the coordinator
    (:mod:`repro.runtime`).  Results are byte-identical across runtimes
    and worker counts, with or without fault injection: injected faults
    fire in the coordinator, on the same gateway stacks under both
    runtimes.  The ``"vanilla"`` kind has no chain and ignores the knob.
    The runtime's workers are the only way this code uses more than one
    core.
    """

    name: str = ""
    kind: str = "decentralized"            # "vanilla" | "decentralized"
    model_kind: str = "simple_nn"
    rounds: int = 10
    local_epochs: int = 5
    batch_size: int = 32
    learning_rate: Optional[float] = None
    seed: int = 42
    consider: bool = True                  # vanilla aggregation type
    mode: str = "personalized"             # decentralized operating mode
    policy: AsyncPolicy = field(default_factory=WaitForAll)
    selection: str = "auto"                # "exhaustive" | "greedy" | "auto"
    exhaustive_limit: int = 6
    enable_reputation: bool = False
    reputation_fitness_margin: float = 0.10
    cohort: CohortSpec = field(default_factory=CohortSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    heterogeneity: HeterogeneitySpec = field(default_factory=HeterogeneitySpec)
    chain: ChainSpec = field(default_factory=ChainSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    participation: ParticipationSpec = field(default_factory=ParticipationSpec)
    data_spec: SyntheticSpec = field(default_factory=SyntheticSpec)
    aggregator_test_samples: int = 500
    backbone_sigma: float = 0.55
    backbone_mismatch: float = 0.075
    runtime: str = "inprocess"             # "inprocess" | "multiprocess"
    runtime_workers: int = 2               # worker processes (multiprocess)

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in ("vanilla", "decentralized"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.model_kind not in MODEL_LEARNING_RATES:
            raise ConfigError(
                f"unknown model kind {self.model_kind!r}; choose from {sorted(MODEL_LEARNING_RATES)}"
            )
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("local_epochs and batch_size must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.mode not in ("personalized", "global_vote"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.selection not in ("exhaustive", "greedy", "auto"):
            raise ConfigError(f"unknown selection strategy {self.selection!r}")
        if self.exhaustive_limit < 1:
            raise ConfigError("exhaustive_limit must be >= 1")
        if self.aggregator_test_samples < 1:
            raise ConfigError("aggregator_test_samples must be >= 1")
        if self.backbone_sigma <= 0:
            raise ConfigError(f"backbone_sigma must be positive, got {self.backbone_sigma}")
        if self.backbone_mismatch < 0:
            raise ConfigError(
                f"backbone_mismatch must be non-negative, got {self.backbone_mismatch}"
            )
        if self.runtime not in RUNTIME_KINDS:
            raise ConfigError(
                f"unknown runtime {self.runtime!r}; choose from {RUNTIME_KINDS}"
            )
        if self.runtime_workers < 1:
            raise ConfigError(
                f"runtime_workers must be >= 1, got {self.runtime_workers}"
            )
        if self.kind == "vanilla" and self.faults.active:
            raise ConfigError(
                "fault injection targets the FL <-> chain seam; "
                'the "vanilla" centralized deployment has none'
            )
        if self.kind == "vanilla" and self.participation.engaged:
            raise ConfigError(
                "the participation axis (sampling, windows, churn) targets "
                'the decentralized deployment; the "vanilla" kind always '
                "trains every client"
            )
        if (
            self.participation.sampled_k is not None
            and self.participation.sampled_k > self.cohort.size
        ):
            raise ConfigError(
                f"sampled_k {self.participation.sampled_k} exceeds the "
                f"cohort size {self.cohort.size}"
            )
        for window in self.participation.windows:
            if window[0] >= self.cohort.size:
                raise ConfigError(
                    f"availability window peer index {window[0]} is out of "
                    f"range for cohort size {self.cohort.size}"
                )
        if self.data_spec.num_classes > NUM_CLASSES:
            raise ConfigError(
                f"data_spec has {self.data_spec.num_classes} classes but the "
                f"models output {NUM_CLASSES}"
            )
        if (
            self.adversary.kind == "label_flip"
            and self.adversary.target_class >= self.data_spec.num_classes
        ):
            raise ConfigError(
                f"label-flip target_class {self.adversary.target_class} is out "
                f"of range for {self.data_spec.num_classes} classes"
            )
        if self.heterogeneity.times is not None and len(self.heterogeneity.times) != self.cohort.size:
            raise ConfigError(
                f"heterogeneity times has {len(self.heterogeneity.times)} entries "
                f"for cohort size {self.cohort.size}"
            )

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------

    def resolved_learning_rate(self) -> float:
        """Explicit learning rate, or the calibrated per-model default."""
        if self.learning_rate is not None:
            return self.learning_rate
        return MODEL_LEARNING_RATES[self.model_kind]

    def client_ids(self) -> tuple[str, ...]:
        """Resolved cohort ids (delegates to the cohort axis)."""
        return self.cohort.ids()

    def quick(self) -> "ScenarioSpec":
        """Test-scale variant: 2 rounds, 1 epoch, small splits, same cohort."""
        return replace(
            self,
            rounds=min(self.rounds, 2),
            local_epochs=1,
            cohort=replace(
                self.cohort,
                train_samples=min(self.cohort.train_samples, 200),
                test_samples=min(self.cohort.test_samples, 150),
                volumes=None if self.cohort.volumes is None
                else tuple(min(v, 200) for v in self.cohort.volumes),
            ),
            aggregator_test_samples=min(self.aggregator_test_samples, 150),
        )


def replace_axis(spec: ScenarioSpec, axis: str, value: object) -> ScenarioSpec:
    """Return ``spec`` with the dotted-path ``axis`` replaced by ``value``.

    ``replace_axis(spec, "cohort.size", 25)`` rebuilds the nested frozen
    dataclasses (and re-validates them) along the path; ``"policy"`` or any
    top-level field works too.  Unknown path components raise
    :class:`~repro.errors.ConfigError` — the sweep driver's whole interface
    to spec surgery.
    """
    head, _, rest = axis.partition(".")
    known = {f.name for f in fields(spec)}
    if head not in known:
        raise ConfigError(f"unknown spec axis {head!r}; choose from {sorted(known)}")
    if not rest:
        return replace(spec, **{head: value})
    inner = getattr(spec, head)
    if not is_dataclass(inner):
        raise ConfigError(f"axis {head!r} has no sub-fields (got path {axis!r})")
    return replace(spec, **{head: replace_axis(inner, rest, value)})
