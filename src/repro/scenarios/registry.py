"""Named-scenario registry: every workload reproducible by name.

A :class:`ScenarioDefinition` bundles the specs a named workload runs and
how to render their results.  Built-ins cover the paper's artifacts
(``paper/table1``, ``paper/tables234``, ``paper/fig3``, ``paper/fig4``,
``paper/tradeoff``), cohort-scaling workloads (``cohort/10`` …
``cohort/50`` — any ``cohort/<n>`` resolves dynamically), the adversarial ablations (``adversarial/label_flip``,
``adversarial/reputation`` — the latter measures the reputation ledger's
exclusion quality against ``consider``-only selection),
device heterogeneity (``hetero/stragglers``), and the fault-injection
workloads (``faults/transient``, ``faults/crash``, ``faults/lossy`` —
deterministic chain faults absorbed by the resilient gateway, or ridden
out via quorum rounds and rejoin catch-up).  Unknown names raise
:class:`~repro.errors.ConfigError` with a did-you-mean listing.

Register project-specific workloads with :func:`register_scenario`::

    @register_scenario("mylab/night-run", "50 peers, label flip, wait-for-10")
    def _night_run(seed=42, quick=False, models=None):
        return (replace(cohort_scenario(50, seed=seed), ...),)
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.decentralized import REPUTATION_INITIAL_SCORE
from repro.data.synthetic import SyntheticSpec
from repro.errors import ConfigError
from repro.fl.async_policy import WaitForAll, WaitForK
from repro.metrics.figures import (
    combination_figure_series,
    render_ascii_chart,
    vanilla_figure_series,
)
from repro.metrics.tables import (
    MODEL_LABELS,
    format_combination_table,
    format_table1,
    render_table,
)
from repro.core.participation import ParticipationSpec
from repro.faults import FaultSpec
from repro.scenarios.runner import ScenarioResult
from repro.scenarios.spec import (
    MODEL_LEARNING_RATES,
    PAPER_CLIENT_IDS,
    AdversarySpec,
    ChainSpec,
    CohortSpec,
    HeterogeneitySpec,
    ScenarioSpec,
)

#: Model families a paper artifact covers, in the paper's table order.
PAPER_MODELS = ("simple_nn", "efficientnet_b0_sim")

#: ``build`` signature: (seed, quick, models) -> ordered specs to run.
BuildFn = Callable[..., tuple[ScenarioSpec, ...]]
#: ``render`` signature: (specs, results) -> printable text blocks.
RenderFn = Callable[[Sequence[ScenarioSpec], Sequence[ScenarioResult]], list[str]]


def default_render(specs: Sequence[ScenarioSpec], results: Sequence[ScenarioResult]) -> list[str]:
    """Generic speed/precision summary — one row per scenario run."""
    rows = []
    for result in results:
        summary = result.summary()
        rows.append(
            [
                summary["scenario"],
                str(summary["cohort"]),
                summary["policy"],
                f"{summary['mean_wait_s']:.1f}",
                f"{summary['final_accuracy']:.4f}",
                ",".join(result.adversaries) or "-",
            ]
        )
    table = render_table(
        "Scenario summary",
        ["scenario", "cohort", "policy", "mean wait (sim s)", "final acc", "adversaries"],
        rows,
    )
    return [table]


@dataclass(frozen=True)
class ScenarioDefinition:
    """One named workload: what it runs and how it reports."""

    name: str
    description: str
    build: BuildFn
    render: RenderFn = default_render


_REGISTRY: dict[str, ScenarioDefinition] = {}


def register_scenario(
    name: str, description: str, render: Optional[RenderFn] = None
) -> Callable[[BuildFn], BuildFn]:
    """Decorator registering ``build`` under ``name``."""
    def decorator(build: BuildFn) -> BuildFn:
        if name in _REGISTRY:
            raise ConfigError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioDefinition(
            name=name,
            description=description,
            build=build,
            render=render if render is not None else default_render,
        )
        return build
    return decorator


def list_scenarios() -> list[ScenarioDefinition]:
    """Registered definitions, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


_COHORT_PATTERN = re.compile(r"^cohort/(\d+)(?:/sampled/(\d+))?$")


def get_scenario(name: str) -> ScenarioDefinition:
    """Resolve a scenario by name.

    ``cohort/<n>`` resolves for any integer n >= 2, registered or not,
    and ``cohort/<n>/sampled/<k>`` adds per-round client sampling of k
    peers (2 <= k <= n); anything else must be registered.  Unknown
    names get a did-you-mean listing built from the registry.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    match = _COHORT_PATTERN.match(name)
    if match:
        size = int(match.group(1))
        sampled_k = int(match.group(2)) if match.group(2) else None
        if size < 2:
            raise ConfigError(f"cohort size must be >= 2, got {name!r}")
        if sampled_k is not None and not 2 <= sampled_k <= size:
            raise ConfigError(
                f"sampled k must be in [2, {size}], got {name!r}"
            )
        return _cohort_definition(size, sampled_k)
    suggestions = difflib.get_close_matches(name, sorted(_REGISTRY), n=3, cutoff=0.4)
    hint = f"; did you mean: {', '.join(suggestions)}?" if suggestions else ""
    raise ConfigError(
        f"unknown scenario {name!r}{hint} "
        f"(run `python -m repro.experiments list` for all names)"
    )


# ---------------------------------------------------------------------------
# Paper artifacts
# ---------------------------------------------------------------------------


def _paper_models(models: Optional[Sequence[str]]) -> tuple[str, ...]:
    return tuple(models) if models else PAPER_MODELS


def _maybe_quick(spec: ScenarioSpec, quick: bool) -> ScenarioSpec:
    return spec.quick() if quick else spec


#: Seed of the calibrated synthetic dataset.  One shared generation spec
#: keeps the task identical across models (as CIFAR-10 is); its defaults
#: (:class:`~repro.data.synthetic.SyntheticSpec`) were tuned so that, over
#: ten rounds of 3-client FedAvg, ``simple_nn`` climbs steadily through the
#: 0.4-0.6 range (paper: 0.28 -> 0.60), limited by having to learn the
#: antipodal hard-class features from noisy pixels from scratch, and
#: ``efficientnet_b0_sim`` starts near 0.78 and plateaus in the mid 0.8s
#: (paper: 0.79 -> 0.86), limited by label noise.
CALIBRATED_DATA_SEED = 1234


def paper_spec(
    model_kind: str, seed: int = 42, kind: str = "decentralized", **overrides: object
) -> ScenarioSpec:
    """The paper-faithful spec for one model family: three clients A/B/C,
    ten communication rounds of five local epochs, the calibrated dataset."""
    return ScenarioSpec(
        kind=kind,
        model_kind=model_kind,
        rounds=10,
        local_epochs=5,
        batch_size=32,
        # Written out, not left to resolve: an unknown kind gets None here
        # and ScenarioSpec's own ConfigError.
        learning_rate=MODEL_LEARNING_RATES.get(model_kind),
        seed=seed,
        cohort=CohortSpec(
            size=3,
            client_ids=PAPER_CLIENT_IDS,
            label_skew=1.0,
            train_samples=800,
            test_samples=500,
        ),
        data_spec=SyntheticSpec(seed=CALIBRATED_DATA_SEED),
        aggregator_test_samples=500,
        **overrides,
    )


def _vanilla_series(specs, results, not_consider_key: str):
    """Per model family of a ``paper/table1`` run: its label and each
    client's consider / not-consider accuracy series (the formatters name
    the second key differently)."""
    for index in range(0, len(results), 2):
        consider, not_consider = results[index], results[index + 1]
        yield MODEL_LABELS[specs[index].model_kind], {
            client: {
                "consider": consider.client_accuracy[client],
                not_consider_key: not_consider.client_accuracy[client],
            }
            for client in specs[index].client_ids()
        }


def _render_table1(specs, results) -> list[str]:
    return [
        format_table1(label, series)
        for label, series in _vanilla_series(specs, results, "not_consider")
    ]


def _render_fig3(specs, results) -> list[str]:
    return [
        render_ascii_chart(curves, title=f"Fig 3 ({label}) {panel}")
        for label, series in _vanilla_series(specs, results, "not consider")
        for panel, curves in vanilla_figure_series(series).items()
    ]


# The paper draws Figure 3 from Table I's runs and Figure 4 from Tables
# II-IV's; the figure scenarios register the same builds under a second
# render.
@register_scenario(
    "paper/fig3",
    "Fig 3: vanilla FL accuracy curves per client (Table I's runs as ASCII charts)",
    render=_render_fig3,
)
@register_scenario(
    "paper/table1",
    "Table I: vanilla FL, consider vs not-consider, both model families",
    render=_render_table1,
)
def _build_table1(seed: int = 42, quick: bool = False, models=None) -> tuple[ScenarioSpec, ...]:
    specs = []
    for model_kind in _paper_models(models):
        for consider in (True, False):
            specs.append(
                _maybe_quick(
                    paper_spec(
                        model_kind,
                        seed=seed,
                        kind="vanilla",
                        consider=consider,
                        name="paper/table1",
                    ),
                    quick,
                )
            )
    return tuple(specs)


def _render_tables234(specs, results) -> list[str]:
    blocks = []
    for peer_id in ("A", "B", "C"):
        for spec, result in zip(specs, results):
            blocks.append(
                format_combination_table(
                    MODEL_LABELS[spec.model_kind],
                    peer_id,
                    result.combination_accuracy[peer_id],
                )
            )
    return blocks


def _render_fig4(specs, results) -> list[str]:
    return [
        render_ascii_chart(curves, title=f"Fig 4 ({MODEL_LABELS[spec.model_kind]}) {panel}")
        for spec, result in zip(specs, results)
        for panel, curves in combination_figure_series(result.combination_accuracy).items()
    ]


@register_scenario(
    "paper/fig4",
    "Fig 4: blockchain FL combination curves per client (Tables II-IV's runs as ASCII charts)",
    render=_render_fig4,
)
@register_scenario(
    "paper/tables234",
    "Tables II-IV: blockchain FL combination tables for clients A, B, C",
    render=_render_tables234,
)
def _build_tables234(seed: int = 42, quick: bool = False, models=None) -> tuple[ScenarioSpec, ...]:
    return tuple(
        _maybe_quick(paper_spec(model_kind, seed=seed, name="paper/tables234"), quick)
        for model_kind in _paper_models(models)
    )


def _tradeoff_row(result: ScenarioResult) -> list[str]:
    """One wait-or-not sweep row: policy, mean wait, final acc, visibility."""
    final_acc = float(np.mean([log.chosen_accuracy for log in result.round_logs[-3:]]))
    visible = float(np.mean([log.updates_visible for log in result.round_logs]))
    return [
        result.spec.policy.describe(),
        f"{result.mean_wait():.1f}",
        f"{final_acc:.4f}",
        f"{visible:.2f}",
    ]


def _render_tradeoff(specs, results) -> list[str]:
    return [
        render_table(
            f"Wait-or-not sweep ({MODEL_LABELS[specs[index].model_kind]})",
            ["policy", "mean wait (sim s)", "final acc", "models visible"],
            [_tradeoff_row(result) for result in results[index:index + 3]],
        )
        for index in range(0, len(results), 3)
    ]


#: Simulated local-training seconds of the trade-off cohort: a fast edge
#: box, a mid-range laptop, a slow embedded device.  This is the situation
#: the paper's asynchronous aggregation exists for — on equal devices
#: wait-for-k never fires early and the three policies are one run.
TRADEOFF_DEVICE_TIMES = (20.0, 60.0, 150.0)


@register_scenario(
    "paper/tradeoff",
    "Headline trade-off: wait-for-k sweep (k = 1, 2, all) on 20/60/150 s devices, "
    "per model family",
    render=_render_tradeoff,
)
def _build_tradeoff(seed: int = 42, quick: bool = False, models=None) -> tuple[ScenarioSpec, ...]:
    heterogeneity = HeterogeneitySpec(kind="custom", times=TRADEOFF_DEVICE_TIMES)
    return tuple(
        _maybe_quick(
            paper_spec(
                model_kind,
                seed=seed,
                policy=policy,
                heterogeneity=heterogeneity,
                name="paper/tradeoff",
            ),
            quick,
        )
        for model_kind in _paper_models(models)
        for policy in (WaitForK(1), WaitForK(2), WaitForAll())
    )


# ---------------------------------------------------------------------------
# Beyond the paper: cohorts, adversaries, heterogeneity
# ---------------------------------------------------------------------------


def cohort_scenario(
    size: int, seed: int = 42, sampled_k: Optional[int] = None
) -> ScenarioSpec:
    """Bench-scale ``size``-peer decentralized scenario.

    Reduced data and rounds keep 10-50-peer runs tractable; heterogeneous
    device speeds (uniform 60 ± 40 s) make the waiting policy matter, and
    ``selection="auto"`` switches to greedy forward selection above the
    exhaustive limit — the configuration behind the ROADMAP's
    speed/precision-at-scale measurement.  ``sampled_k`` trains only a k-peer
    subcohort per round (``cohort/<n>/sampled/<k>``) — the cross-device
    configuration that stretches n into the thousands.
    """
    participation = (
        ParticipationSpec(sampled_k=sampled_k)
        if sampled_k is not None
        else ParticipationSpec()
    )
    name = (
        f"cohort/{size}"
        if sampled_k is None
        else f"cohort/{size}/sampled/{sampled_k}"
    )
    return ScenarioSpec(
        name=name,
        kind="decentralized",
        model_kind="simple_nn",
        rounds=3,
        local_epochs=2,
        cohort=CohortSpec(size=size, train_samples=200, test_samples=150),
        heterogeneity=HeterogeneitySpec(kind="uniform", base_time=60.0, spread=40.0),
        seed=seed,
        aggregator_test_samples=150,
        participation=participation,
    )


def _cohort_build(size: int, seed: int = 42, quick: bool = False, models=None, sampled_k=None):
    return tuple(
        _maybe_quick(
            replace(
                cohort_scenario(size, seed=seed, sampled_k=sampled_k),
                model_kind=model_kind,
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )


def _cohort_definition(size: int, sampled_k: Optional[int] = None) -> ScenarioDefinition:
    """The one source of ``cohort/<n>[/sampled/<k>]`` definitions —
    registered sizes and dynamically resolved ones describe the workload
    identically."""
    if sampled_k is None:
        name = f"cohort/{size}"
        description = (
            f"{size}-peer decentralized cohort at bench scale (greedy selection, "
            "heterogeneous devices)"
        )
    else:
        name = f"cohort/{size}/sampled/{sampled_k}"
        description = (
            f"{size}-peer cohort training a sampled {sampled_k}-peer subcohort "
            "per round (deterministic participation streams)"
        )
    return ScenarioDefinition(
        name=name,
        description=description,
        build=lambda seed=42, quick=False, models=None, _n=size, _k=sampled_k: _cohort_build(
            _n, seed=seed, quick=quick, models=models, sampled_k=_k
        ),
    )


for _size in (10, 25, 50):
    _REGISTRY[f"cohort/{_size}"] = _cohort_definition(_size)


@register_scenario(
    "adversarial/label_flip",
    "Paper cohort with one label-flipping adversary (consider should exclude it)",
)
def _build_label_flip(seed: int = 42, quick: bool = False, models=None) -> tuple[ScenarioSpec, ...]:
    return tuple(
        _maybe_quick(
            paper_spec(
                model_kind,
                seed=seed,
                name="adversarial/label_flip",
                adversary=AdversarySpec(kind="label_flip", fraction=1 / 3),
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )


def _render_reputation(specs, results) -> list[str]:
    """Exclusion quality: the reputation ledger vs ``consider``-only search.

    Two signals identify the abnormal client: the combination search
    excluding its model from adopted aggregates (the paper's ``consider``
    behaviour, available without the extension), and the on-chain
    reputation score dropping below the initial grant.  The table shows
    both per client; the summary lines compare them head to head.
    """
    blocks = []
    for spec, result in zip(specs, results):
        adversaries = set(result.adversaries)
        rows = []
        for client_id in spec.client_ids():
            score = result.reputation.get(client_id)
            rows.append(
                [
                    client_id,
                    "yes" if client_id in adversaries else "-",
                    "-" if score is None else str(score),
                    f"{result.exclusion_rate(client_id):.2f}",
                ]
            )
        blocks.append(
            render_table(
                f"Reputation vs consider-only exclusion ({MODEL_LABELS[spec.model_kind]})",
                ["client", "adversary", "reputation", "excluded by selection"],
                rows,
            )
        )
        flagged = sorted(
            client_id
            for client_id, score in result.reputation.items()
            if score < REPUTATION_INITIAL_SCORE
        )
        adv_excluded = (
            float(np.mean([result.exclusion_rate(cid) for cid in sorted(adversaries)]))
            if adversaries
            else 0.0
        )
        honest = [cid for cid in spec.client_ids() if cid not in adversaries]
        honest_excluded = (
            float(np.mean([result.exclusion_rate(cid) for cid in honest])) if honest else 0.0
        )
        blocks.append(
            "\n".join(
                [
                    f"reputation flags (score < {REPUTATION_INITIAL_SCORE}): "
                    f"{', '.join(flagged) or 'none'} "
                    f"(adversaries: {', '.join(sorted(adversaries)) or 'none'})",
                    "consider-only exclusion rate: "
                    f"adversaries {adv_excluded:.2f} vs honest {honest_excluded:.2f}",
                ]
            )
        )
    return blocks


@register_scenario(
    "adversarial/reputation",
    "Label-flip cohort with the reputation ledger on; reports exclusion quality vs consider-only",
    render=_render_reputation,
)
def _build_reputation(seed: int = 42, quick: bool = False, models=None) -> tuple[ScenarioSpec, ...]:
    return tuple(
        _maybe_quick(
            paper_spec(
                model_kind,
                seed=seed,
                name="adversarial/reputation",
                adversary=AdversarySpec(kind="label_flip", fraction=1 / 3),
                enable_reputation=True,
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )


# ---------------------------------------------------------------------------
# Fault injection & resilience
# ---------------------------------------------------------------------------


def fault_scenario(
    name: str, faults: FaultSpec, seed: int = 42, drop_rate: float = 0.0
) -> ScenarioSpec:
    """Bench-scale 5-peer scenario with the fault axis engaged.

    Small data and few rounds keep fault sweeps cheap; the cohort is
    large enough (5 peers) that crashing the tail still leaves a quorum
    and the retry layer sees plenty of intercepted calls.
    """
    return ScenarioSpec(
        name=name,
        kind="decentralized",
        model_kind="simple_nn",
        rounds=3,
        local_epochs=2,
        cohort=CohortSpec(size=5, train_samples=200, test_samples=150),
        chain=ChainSpec(drop_rate=drop_rate),
        faults=faults,
        seed=seed,
        aggregator_test_samples=150,
    )


def _render_faults(specs, results) -> list[str]:
    """Resilience summary: completion, injected faults, retry absorption."""
    rows = []
    for spec, result in zip(specs, results):
        faults = result.chain_stats.get("faults", {})
        resilience = result.chain_stats.get("gateway", {}).get("resilience", {})
        rows.append(
            [
                spec.name,
                f"{result.completed_rounds}/{spec.rounds}",
                str(faults.get("injected", 0)),
                str(resilience.get("retries", 0)),
                str(resilience.get("gave_up", 0)),
                str(faults.get("catch_ups", 0)),
                f"{result.mean_final_accuracy():.4f}",
                result.abort_reason or "-",
            ]
        )
    table = render_table(
        "Fault resilience",
        [
            "scenario",
            "rounds",
            "injected",
            "retries",
            "gave up",
            "catch-ups",
            "final acc",
            "abort",
        ],
        rows,
    )
    return [table]


@register_scenario(
    "faults/transient",
    "Transient chain errors + timeouts fully absorbed by retry/backoff "
    "(byte-equivalent to the fault-free run)",
    render=_render_faults,
)
def _build_faults_transient(seed: int = 42, quick: bool = False, models=None):
    return tuple(
        _maybe_quick(
            replace(
                fault_scenario(
                    "faults/transient",
                    FaultSpec(transient_rate=0.15, timeout_rate=0.05),
                    seed=seed,
                ),
                model_kind=model_kind,
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )


@register_scenario(
    "faults/crash",
    "Tail peers crash for a mid-run round; quorum rounds proceed and the "
    "rejoining peers catch up",
    render=_render_faults,
)
def _build_faults_crash(seed: int = 42, quick: bool = False, models=None):
    return tuple(
        _maybe_quick(
            replace(
                fault_scenario(
                    "faults/crash",
                    FaultSpec(crash_fraction=0.4, crash_round=2, crash_rounds=1),
                    seed=seed,
                ),
                model_kind=model_kind,
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )


@register_scenario(
    "faults/lossy",
    "Lossy gossip (10% drops) plus latency spikes and occasional transient "
    "errors under the resilient gateway",
    render=_render_faults,
)
def _build_faults_lossy(seed: int = 42, quick: bool = False, models=None):
    return tuple(
        _maybe_quick(
            replace(
                fault_scenario(
                    "faults/lossy",
                    FaultSpec(
                        transient_rate=0.05, latency_rate=0.1, latency_spike=5.0
                    ),
                    seed=seed,
                    drop_rate=0.1,
                ),
                model_kind=model_kind,
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )


@register_scenario(
    "hetero/stragglers",
    "5-peer cohort with one 5x straggler device under wait-for-all",
)
def _build_stragglers(seed: int = 42, quick: bool = False, models=None) -> tuple[ScenarioSpec, ...]:
    return tuple(
        _maybe_quick(
            ScenarioSpec(
                name="hetero/stragglers",
                kind="decentralized",
                model_kind=model_kind,
                rounds=5,
                local_epochs=2,
                cohort=CohortSpec(size=5, train_samples=400, test_samples=300),
                heterogeneity=HeterogeneitySpec(kind="stragglers", base_time=30.0),
                policy=WaitForAll(),
                seed=seed,
                aggregator_test_samples=300,
            ),
            quick,
        )
        for model_kind in (models or ("simple_nn",))
    )
