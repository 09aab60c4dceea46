"""Combination selection — the paper's "consider" aggregation.

Section III: each peer holds a private test set, evaluates every received
model (or combination of models), filters out those below a fitness
threshold, and aggregates the best-scoring combination.  With three peers
there are seven non-empty subsets; the experiment tables enumerate the five
the paper reports (self, the two pairs containing self, the other pair, and
all three).

For larger cohorts exhaustive enumeration explodes, so
``greedy_combination`` implements forward selection — the paper's
future-work question about "the impact of an arbitrary number of local
updates" made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations as iter_combinations
from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import SelectionError
from repro.fl.aggregation import ModelUpdate, fedavg
from repro.fl.evaluation import evaluate_weights
from repro.nn.model import Sequential


@dataclass
class CombinationResult:
    """Score of one aggregated subset of updates."""

    members: tuple[str, ...]
    accuracy: float
    weights: dict[str, np.ndarray]

    @property
    def label(self) -> str:
        """Human-readable combination label, e.g. ``"A,B,C"``."""
        return ",".join(self.members)


def pick_best(results: Sequence, rng: Optional[np.random.Generator] = None):
    """Select the winner from results sorted by ``(-accuracy, members)``.

    The paper notes that when several combinations tie, "the device
    selects one of them randomly".  This is the single tie-break used by
    :func:`best_combination`, the decentralized orchestrator, and the
    scoring engine, so they all consume the RNG identically: exactly one
    ``integers(0, len(tied))`` draw when more than one combination ties
    for the top accuracy, and no draw otherwise (the lexicographically
    first winner stands).  ``results`` may be any sequence of objects
    with ``accuracy`` and ``members`` attributes.
    """
    top_acc = results[0].accuracy
    tied = [result for result in results if result.accuracy == top_acc]
    if rng is not None and len(tied) > 1:
        return tied[int(rng.integers(0, len(tied)))]
    return tied[0]


def enumerate_combinations(
    updates: Sequence[ModelUpdate],
    model: Sequential,
    test_set: Dataset,
    min_size: int = 1,
    max_size: Optional[int] = None,
) -> list[CombinationResult]:
    """Score every subset of ``updates`` with ``min_size <= |S| <= max_size``.

    Results are sorted by (accuracy desc, members asc) so ties break
    deterministically.
    """
    if not updates:
        raise SelectionError("no updates to combine")
    if min_size < 1:
        raise SelectionError(f"min_size must be >= 1, got {min_size}")
    limit = max_size if max_size is not None else len(updates)
    results: list[CombinationResult] = []
    ordered = sorted(updates, key=lambda update: update.client_id)
    for size in range(min_size, min(limit, len(ordered)) + 1):
        for subset in iter_combinations(ordered, size):
            weights = fedavg(subset)
            acc = evaluate_weights(model, weights, test_set)
            results.append(
                CombinationResult(
                    members=tuple(update.client_id for update in subset),
                    accuracy=acc,
                    weights=weights,
                )
            )
    results.sort(key=lambda result: (-result.accuracy, result.members))
    return results


def best_combination(
    updates: Sequence[ModelUpdate],
    model: Sequential,
    test_set: Dataset,
    rng: Optional[np.random.Generator] = None,
) -> CombinationResult:
    """The "consider" aggregator: best-scoring subset on the local test set.

    The paper notes that when several combinations tie, "the device selects
    one of them randomly" — pass ``rng`` to reproduce that; without it, the
    lexicographically-first tied combination wins.
    """
    results = enumerate_combinations(updates, model, test_set)
    return pick_best(results, rng)


def threshold_filter(
    updates: Sequence[ModelUpdate],
    model: Sequential,
    test_set: Dataset,
    threshold: float,
    always_keep: Optional[str] = None,
) -> list[ModelUpdate]:
    """Drop updates whose solo accuracy falls below ``threshold``.

    This is the paper's pre-aggregation fitness gate ("if the evaluation is
    over a pre-set threshold, the worker will include that model ...
    otherwise, it will be ignored").  ``always_keep`` pins the evaluating
    peer's own model so a client never discards itself.
    """
    kept = []
    for update in sorted(updates, key=lambda update: update.client_id):
        if always_keep is not None and update.client_id == always_keep:
            kept.append(update)
            continue
        if evaluate_weights(model, update.weights, test_set) >= threshold:
            kept.append(update)
    if not kept:
        raise SelectionError(f"no update passed threshold {threshold}")
    return kept


def greedy_combination(
    updates: Sequence[ModelUpdate],
    model: Sequential,
    test_set: Dataset,
    seed_client: Optional[str] = None,
) -> CombinationResult:
    """Forward selection for large cohorts (O(n^2) instead of O(2^n)).

    Starts from ``seed_client`` (or the best solo model) and adds the update
    that most improves local-test accuracy until no addition helps.
    """
    if not updates:
        raise SelectionError("no updates to combine")
    pool = {update.client_id: update for update in updates}
    if seed_client is not None:
        if seed_client not in pool:
            raise SelectionError(f"seed client {seed_client!r} not among updates")
        chosen = [pool.pop(seed_client)]
    else:
        solos = enumerate_combinations(list(pool.values()), model, test_set, min_size=1, max_size=1)
        best_solo = solos[0].members[0]
        chosen = [pool.pop(best_solo)]
    best_weights = fedavg(chosen)
    best_acc = evaluate_weights(model, best_weights, test_set)
    improved = True
    while improved and pool:
        improved = False
        best_candidate = None
        for client_id in sorted(pool):
            candidate_weights = fedavg(chosen + [pool[client_id]])
            acc = evaluate_weights(model, candidate_weights, test_set)
            if acc > best_acc:
                best_acc = acc
                best_candidate = client_id
                best_weights = candidate_weights
                improved = True
        if best_candidate is not None:
            chosen.append(pool.pop(best_candidate))
    return CombinationResult(
        members=tuple(update.client_id for update in chosen),
        accuracy=best_acc,
        weights=best_weights,
    )
