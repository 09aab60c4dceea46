"""Declarative scenario specification — every workload as one value.

A :class:`ScenarioSpec` composes independent axes:

* **cohort** — how many clients, how their ids are generated, how skewed
  their label distributions are, and how much data each holds;
* **adversary** — what fraction of the cohort flips its training labels
  (:mod:`repro.fl.poisoning`);
* **heterogeneity** — the distribution of simulated local-training times
  (the situation that motivates not waiting);
* **chain** — message drop rate, gateway backend, scale-out
  (:class:`~repro.chain.spec.ChainSpec`, declared in the chain layer and
  re-exported here);
* **faults** — deterministic fault injection at the FL <-> chain seam
  (:class:`~repro.faults.FaultSpec`: transient/timeout/latency rates,
  crash windows, the resilience toggle);
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
from repro.core.decentralized import DecentralizedConfig
from repro.core.participation import ParticipationSpec
from repro.data.synthetic import SyntheticSpec
from repro.errors import ConfigError, require_finite
from repro.faults import FaultSpec
from repro.fl.async_policy import AsyncPolicy, WaitForAll
from repro.fl.poisoning import LabelFlipAttacker

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


def _require_unread_at_default(spec, reads: dict[str, tuple[str, ...]], noun: str) -> None:
    """Raise unless every field ``spec.kind`` does not read (``reads[kind]``)
    keeps its default: a knob its kind ignores is silently dropped."""
    for spec_field in fields(spec):
        name = spec_field.name
        if name not in ("kind",) + reads[spec.kind] and getattr(spec, name) != spec_field.default:
            readers = " / ".join(kind for kind, names in reads.items() if name in names)
            raise ConfigError(f"{name} is read only by {readers} {noun}, not {spec.kind!r}")


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

    Every client trains on ``train_samples`` samples and tests on
    ``test_samples``; ``label_skew`` tilts each client's label
    distribution (:func:`~repro.data.synthetic.client_class_probs`).
    """

    size: int = 3
    client_ids: Optional[tuple[str, ...]] = None   # explicit override
    label_skew: float = 1.0
    train_samples: int = 800
    test_samples: int = 500

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

    def ids(self) -> tuple[str, ...]:
        """Resolved client ids."""
        return self.client_ids if self.client_ids is not None else default_client_ids(self.size)


@dataclass(frozen=True)
class AdversarySpec:
    """Attacker kind and how much of the cohort it controls.

    The adversarial clients are the *last* ``round(fraction * size)``
    cohort ids, with a floor of one for any positive fraction
    (deterministic, so the same clients attack at every seed).  The one
    attack is label flipping (:class:`~repro.fl.poisoning.LabelFlipAttacker`,
    whose knobs these mirror); a knob its kind does not read must keep its
    default.
    """

    #: The knobs each kind reads.
    READS = {
        "none": (),
        "label_flip": ("fraction", "flip_fraction", "target_class"),
    }

    kind: str = "none"        # "none" | "label_flip"
    fraction: float = 0.0
    flip_fraction: float = 1.0
    target_class: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in self.READS:
            raise ConfigError(f"unknown attacker kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(
                f"attacker_fraction must be in [0, 1], got {self.fraction}"
            )
        if self.kind != "none" and self.fraction == 0.0:
            raise ConfigError(f"attacker kind {self.kind!r} needs fraction > 0")
        _require_unread_at_default(self, self.READS, "attackers")
        # The attacker's own knobs fail here, not when a sweep point
        # finally instantiates it mid-grid.
        self.build_attacker()

    def build_attacker(self) -> Optional[LabelFlipAttacker]:
        """Instantiate the configured attacker (``None`` when honest)."""
        if self.kind == "none":
            return None
        return LabelFlipAttacker(
            flip_fraction=self.flip_fraction, target_class=self.target_class
        )

    def adversary_ids(self, client_ids: tuple[str, ...]) -> tuple[str, ...]:
        """Which cohort members attack: the last ``round(fraction * n)`` ids,
        but — like the stragglers convention — any positive fraction
        corrupts at least one client (an attack axis point is never
        silently honest; the honest baseline is ``kind="none"``)."""
        if self.kind == "none":
            return ()
        count = min(len(client_ids), max(1, round(self.fraction * len(client_ids))))
        return tuple(client_ids[len(client_ids) - count:])


#: Share of a ``stragglers`` cohort that straggles: the last
#: ``round(STRAGGLER_FRACTION * n)`` clients, at least one.
STRAGGLER_FRACTION = 0.2
#: How many times ``base_time`` a straggler's training takes.
STRAGGLER_FACTOR = 5.0


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Distribution of simulated local-training durations.

    * ``homogeneous`` — everyone takes ``base_time`` (the paper's three
      equal VMs);
    * ``uniform`` — ``base_time`` ± ``spread``, drawn per client;
    * ``lognormal`` — ``base_time`` times a log-normal factor of sigma
      ``spread`` (long-tailed device speeds);
    * ``stragglers`` — ``base_time`` for most, :data:`STRAGGLER_FACTOR`
      times it for the last :data:`STRAGGLER_FRACTION` of the cohort, at
      least one client (deterministic, like the adversary convention);
    * ``custom`` — explicit per-client ``times``.

    A knob its kind does not read must keep its default.
    """

    #: The knobs each kind reads.
    READS = {
        "homogeneous": ("base_time",),
        "uniform": ("base_time", "spread"),
        "lognormal": ("base_time", "spread"),
        "stragglers": ("base_time",),
        "custom": ("times",),
    }

    kind: str = "homogeneous"   # homogeneous | uniform | lognormal | stragglers | custom
    base_time: float = 30.0
    spread: float = 0.0
    times: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in self.READS:
            raise ConfigError(f"unknown heterogeneity kind {self.kind!r}")
        _require_unread_at_default(self, self.READS, "heterogeneity")
        if self.base_time <= 0:
            raise ConfigError(f"base_time must be positive, got {self.base_time}")
        if self.spread < 0:
            raise ConfigError(f"spread must be non-negative, got {self.spread}")
        if self.kind == "uniform" and self.spread >= self.base_time:
            raise ConfigError(
                f"spread must be < base_time for uniform heterogeneity, got {self.spread}"
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
        if self.kind == "stragglers":
            count = min(n, max(1, round(STRAGGLER_FRACTION * n)))
            for cid in client_ids[n - count:]:
                times[cid] = self.base_time * STRAGGLER_FACTOR
        return times


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified workload.

    ``kind`` selects the deployment: ``"vanilla"`` (centralized aggregator,
    Table I) or ``"decentralized"`` (blockchain peers, Tables II-IV).
    ``learning_rate=None`` resolves to the calibrated per-model rate.
    ``aggregator_test_samples`` sizes the central aggregator's default test
    set: only the ``"vanilla"`` kind has an aggregator and reads it, so a
    decentralized run never samples that split.

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
    enable_reputation: bool = False
    cohort: CohortSpec = field(default_factory=CohortSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    heterogeneity: HeterogeneitySpec = field(default_factory=HeterogeneitySpec)
    chain: ChainSpec = field(default_factory=ChainSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    participation: ParticipationSpec = field(default_factory=ParticipationSpec)
    data_spec: SyntheticSpec = field(default_factory=SyntheticSpec)
    aggregator_test_samples: int = 500
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
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("local_epochs and batch_size must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.aggregator_test_samples < 1:
            raise ConfigError("aggregator_test_samples must be >= 1")
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
        # The driver's own checks (rounds, mode, selection, windows against
        # rounds) on the config the runner builds from this spec.
        DecentralizedConfig.project(self)
        if self.kind == "vanilla" and self.participation.engaged:
            raise ConfigError(
                "the participation axis (sampling, windows, churn) targets "
                'the decentralized deployment; the "vanilla" kind always '
                "trains every client"
            )
        self.participation.check_cohort(self.cohort.size)
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
        """Test-scale variant: 2 rounds, 1 epoch, small splits, same cohort.

        A crash window or availability window that opens after the quick
        run's last round opens at that round instead, so every spec shrinks.
        """
        rounds = min(self.rounds, 2)
        return replace(
            self,
            rounds=rounds,
            local_epochs=1,
            cohort=replace(
                self.cohort,
                train_samples=min(self.cohort.train_samples, 200),
                test_samples=min(self.cohort.test_samples, 150),
            ),
            aggregator_test_samples=min(self.aggregator_test_samples, 150),
            faults=replace(self.faults, crash_round=min(self.faults.crash_round, rounds)),
            participation=replace(
                self.participation,
                windows=tuple(
                    (peer_index, min(first_round, rounds), length)
                    for peer_index, first_round, length in self.participation.windows
                ),
            ),
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
