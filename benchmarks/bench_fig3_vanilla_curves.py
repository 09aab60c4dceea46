"""Figure 3 — Vanilla FL: test accuracy curves, consider vs not-consider.

Regenerates the six panels of the paper's Figure 3 (three clients x two
models) as accuracy series, rendered as terminal sparklines.  The series
are the same data as Table I; the figure bench verifies the curve shapes:
SimpleNN rises throughout, Efficient-B0 jumps then plateaus, and the two
aggregation types visually overlap.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.metrics.figures import render_ascii_chart, vanilla_figure_series

MODEL_LABELS = {"simple_nn": "SimpleNN", "efficientnet_b0_sim": "Efficient B0"}


def _figure3(experiments, model_kind: str) -> str:
    consider = experiments.vanilla(model_kind, consider=True)
    not_consider = experiments.vanilla(model_kind, consider=False)
    series = {
        client: {
            "consider": consider.client_accuracy[client],
            "not consider": not_consider.client_accuracy[client],
        }
        for client in consider.spec.client_ids()
    }
    figures = vanilla_figure_series(series)
    blocks = [
        render_ascii_chart(curve_list, title=f"Fig 3 ({MODEL_LABELS[model_kind]}) {panel}")
        for panel, curve_list in figures.items()
    ]
    return "\n\n".join(blocks)


def test_fig3_simple_nn(benchmark, experiments):
    """Figure 3a — SimpleNN panels."""
    text = run_once(benchmark, lambda: _figure3(experiments, "simple_nn"))
    print()
    print(text)
    result = experiments.vanilla("simple_nn", consider=False)
    for client, series in result.client_accuracy.items():
        # Rising curve: final clearly above round 1, max near the end.
        assert series[-1] > series[0] + 0.05, f"{client} curve is flat"
        assert int(np.argmax(series)) >= len(series) // 2


def test_fig3_efficientnet(benchmark, experiments):
    """Figure 3b — Efficient-B0 panels."""
    text = run_once(benchmark, lambda: _figure3(experiments, "efficientnet_b0_sim"))
    print()
    print(text)
    result = experiments.vanilla("efficientnet_b0_sim", consider=False)
    for client, series in result.client_accuracy.items():
        # Plateau curve: round 2 already within 2pp of the final value.
        assert abs(series[1] - series[-1]) < 0.02, f"{client} did not plateau"


def test_fig3_curves_overlap(experiments):
    """The consider / not-consider curves overlap (the paper's similarity)."""
    for model_kind in ("simple_nn", "efficientnet_b0_sim"):
        consider = experiments.vanilla(model_kind, consider=True)
        not_consider = experiments.vanilla(model_kind, consider=False)
        for client in ("A", "B", "C"):
            a = np.array(consider.client_accuracy[client])
            b = np.array(not_consider.client_accuracy[client])
            assert np.mean(np.abs(a - b)) < 0.08
