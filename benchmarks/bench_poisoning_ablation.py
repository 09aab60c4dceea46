"""X3 — abnormal-model exclusion: 'consider' vs plain FedAvg under attack.

The paper's conclusion claims the consider-style selection is "a more
effective strategy" because it excludes abnormal (poisoned or noisy)
models before aggregation.  This bench injects a label-flip attacker into
one of the three clients and compares aggregators:

* plain FedAvg (the vulnerable baseline),
* the consider combination search (the paper's defense), and
* robust baselines (coordinate median, trimmed mean) for context.
"""

from __future__ import annotations


from conftest import run_once
from repro.fl.aggregation import ModelUpdate, coordinate_median, fedavg, trimmed_mean
from repro.fl.evaluation import evaluate_weights
from repro.fl.poisoning import LabelFlipAttacker, NoiseAttacker
from repro.fl.selection import best_combination
from repro.fl.trainer import LocalTrainer
from repro.metrics.tables import render_table
from repro.scenarios import ScenarioContext, paper_spec
from repro.scenarios.runner import decentralized_inputs
from repro.utils.rng import RngFactory, rng_from

_CACHE: dict = {}


def _attack_run(attacker_kind: str = "label_flip") -> dict:
    """Train A, B honestly and C under attack; score each aggregator."""
    if attacker_kind in _CACHE:
        return _CACHE[attacker_kind]
    spec = paper_spec("simple_nn")
    rngs = RngFactory(spec.seed)
    context = ScenarioContext()
    # The paper cohort's splits, shared initial weights and local-training
    # hyperparameters; the aggregator's default test set is the vanilla
    # deployment's ``data/test/aggregator`` stream, read from its start
    # (``rngs``' own copy of that stream has already been drawn from).
    inputs = decentralized_inputs(spec, rngs, context)
    aggregator_test = context.factory(spec.data_spec).sample(
        spec.aggregator_test_samples,
        rng_from(spec.seed, "data", "test", "aggregator"),
        name="test/aggregator",
    )

    attack_rng = rngs.get("attack")
    updates = []
    for peer in inputs.peer_configs:
        client_id = peer.peer_id
        dataset = inputs.train_sets[client_id]
        if client_id == "C" and attacker_kind == "label_flip":
            dataset = LabelFlipAttacker(flip_fraction=1.0, target_class=0).poison_dataset(
                dataset, attack_rng
            )
        model = inputs.model_builder(None)
        trainer = LocalTrainer(peer.train_config, rng=rngs.get("train", client_id))
        for _ in range(3):  # three rounds of solo training pre-aggregation
            trainer.train(model, dataset)
        update = ModelUpdate(
            client_id=client_id, weights=model.get_weights(), num_samples=len(dataset)
        )
        if client_id == "C" and attacker_kind == "noise":
            update = NoiseAttacker(noise_std=1.0).poison_update(update, attack_rng)
        updates.append(update)

    scratch = inputs.model_builder(None)
    scores = {
        "fedavg (not consider)": evaluate_weights(scratch, fedavg(updates), aggregator_test),
        "median": evaluate_weights(scratch, coordinate_median(updates), aggregator_test),
        "trimmed_mean": evaluate_weights(scratch, trimmed_mean(updates), aggregator_test),
    }
    best = best_combination(updates, scratch, aggregator_test)
    scores["consider (best combo)"] = best.accuracy
    result = {"scores": scores, "chosen": best.members}
    _CACHE[attacker_kind] = result
    return result


def test_poisoning_label_flip(benchmark):
    """Label-flip attacker: consider excludes it and beats plain FedAvg."""
    result = run_once(benchmark, lambda: _attack_run("label_flip"))
    scores, chosen = result["scores"], result["chosen"]
    print()
    print(
        render_table(
            "X3: aggregator accuracy with label-flip attacker at client C",
            ["aggregator", "accuracy"],
            [[name, f"{value:.4f}"] for name, value in sorted(scores.items())],
        )
    )
    print(f"consider chose combination: {','.join(chosen)}")
    assert "C" not in chosen, "consider failed to exclude the attacker"
    assert scores["consider (best combo)"] > scores["fedavg (not consider)"]


def test_poisoning_noise(benchmark):
    """Noisy-model (unintended abnormality): consider still filters it."""
    result = run_once(benchmark, lambda: _attack_run("noise"))
    scores, chosen = result["scores"], result["chosen"]
    print()
    print(
        render_table(
            "X3b: aggregator accuracy with noisy model at client C",
            ["aggregator", "accuracy"],
            [[name, f"{value:.4f}"] for name, value in sorted(scores.items())],
        )
    )
    assert "C" not in chosen
    assert scores["consider (best combo)"] >= scores["fedavg (not consider)"]


def test_robust_baselines_help_but_consider_wins(benchmark):
    """Median/trimmed-mean beat FedAvg under attack; consider tops both."""
    result = run_once(benchmark, lambda: _attack_run("label_flip"))
    scores = result["scores"]
    assert scores["median"] >= scores["fedavg (not consider)"] - 0.02
    assert scores["consider (best combo)"] >= scores["median"] - 0.02
