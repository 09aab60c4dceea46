"""Table I — Vanilla FL: clients' test accuracy on two aggregation types.

Regenerates the paper's Table I: for each model (SimpleNN, Efficient-B0
analog) and each client (A, B, C), the per-round accuracy under "consider"
(aggregator picks the best combination on its default test set) and
"not consider" (plain FedAvg over all three updates).

Shape criteria (paper): the two aggregation types track each other closely
— final-round gap 0.65 pp for SimpleNN, fluctuations within ~1 pp for
Efficient-B0 — and both rise monotonically-ish over ten rounds.
"""

from __future__ import annotations

from conftest import run_once
from repro.metrics.tables import format_table1

MODEL_LABELS = {"simple_nn": "Simple NN", "efficientnet_b0_sim": "Efficient-B0"}


def _table1_block(experiments, model_kind: str) -> str:
    consider = experiments.vanilla(model_kind, consider=True)
    not_consider = experiments.vanilla(model_kind, consider=False)
    series = {
        client: {
            "consider": consider.client_accuracy[client],
            "not_consider": not_consider.client_accuracy[client],
        }
        for client in consider.spec.client_ids()
    }
    return format_table1(MODEL_LABELS[model_kind], series)


def test_table1_simple_nn(benchmark, experiments):
    """Table I, SimpleNN block."""
    text = run_once(benchmark, lambda: _table1_block(experiments, "simple_nn"))
    print()
    print(text)
    consider = experiments.vanilla("simple_nn", True)
    not_consider = experiments.vanilla("simple_nn", False)
    for client in ("A", "B", "C"):
        gap = abs(consider.final_accuracy(client) - not_consider.final_accuracy(client))
        # Paper: 0.0065 gap; shape criterion: comparable accuracy (< 6 pp).
        assert gap < 0.06, f"consider/not-consider diverged for {client}: {gap:.4f}"
        series = not_consider.client_accuracy[client]
        assert series[-1] > series[0], "SimpleNN accuracy should rise over rounds"


def test_table1_efficientnet(benchmark, experiments):
    """Table I, Efficient-B0 block."""
    text = run_once(benchmark, lambda: _table1_block(experiments, "efficientnet_b0_sim"))
    print()
    print(text)
    consider = experiments.vanilla("efficientnet_b0_sim", True)
    not_consider = experiments.vanilla("efficientnet_b0_sim", False)
    for client in ("A", "B", "C"):
        gap = abs(consider.final_accuracy(client) - not_consider.final_accuracy(client))
        assert gap < 0.02, f"complex-model gap too large for {client}: {gap:.4f}"
        series = not_consider.client_accuracy[client]
        # Transfer-learning signature: high start, higher plateau.
        assert series[0] > 0.6
        assert series[-1] >= series[0]


def test_table1_complex_beats_simple(experiments):
    """Cross-block sanity: Efficient-B0 ends well above SimpleNN (paper: 86% vs 60%)."""
    simple = experiments.vanilla("simple_nn", False).final_accuracy("A")
    complex_ = experiments.vanilla("efficientnet_b0_sim", False).final_accuracy("A")
    assert complex_ > simple + 0.05
