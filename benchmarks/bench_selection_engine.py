"""X5 — combination-scoring engine: serial vs memoized, batched vs one at a time.

ROADMAP item (c): the per-peer combination search dominates wall-clock at
25+ peers.  This bench times the same exhaustive search two ways over
10/25/50-update profiles of the paper's ~62k-parameter SimpleNN:

* **serial** — the seed path (:func:`repro.fl.selection.enumerate_combinations`):
  a full FedAvg recompute per subset plus a full save/restore of the
  scratch model around every evaluation;
* **memoized** — :class:`repro.fl.scoring.CombinationEngine`: pre-scaled
  incremental subset sums (one add + scale per subset), candidates
  evaluated a workspace-full at a time without ever being installed,
  content-addressed score memoization.

A second arm isolates the evaluation kernel: the same candidate models
scored **batched** (the engine's solo pass, ``BATCH_WIDTH`` candidates per
stacked forward pass) and by the **per-candidate oracle**
(:func:`repro.fl.evaluation.evaluate_weights`: install, one forward pass,
restore), with the accuracies asserted identical on every run and the
logits asserted ``np.array_equal`` for one workspace-full.

Larger profiles cap the subset size (25 -> up to quadruples, 50 ->
pairs), the way a fitness-gated deployment bounds its search; the
10-update profile enumerates all 1023 subsets.  Acceptance: >= 3x
memoized-vs-serial at the 25-update profile (typically 5-10x: beyond the
per-subset recompute, the seed path *retains* every subset's aggregated
weight dict — ~7.6 GB at 15275 subsets x 62k parameters; budget that
much RAM for the full tier — where the engine keeps scores only).  The
cache contract is asserted exactly: one real evaluation per distinct
subset, zero new evaluations when ``threshold_filter`` (the fitness
gate) and a re-enumeration hit the same cache, which is what the
reputation rating pass relies on.

``--smoke`` shrinks to one 8-update profile with a relaxed wall-clock
floor (1.3x) so tier-1 can run the same code path in seconds without
flaking on a loaded CI box.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_util import run_once
from repro.data.dataset import Dataset
from repro.fl.aggregation import ModelUpdate
from repro.fl.evaluation import evaluate_weights
from repro.fl.scoring import BATCH_WIDTH, CombinationEngine
from repro.fl.selection import enumerate_combinations, threshold_filter
from repro.metrics.tables import render_table
from repro.nn.models import build_simple_nn
from repro.nn.serialize import weights_fingerprint

_CACHE: dict = {}


def engine_params(smoke: bool = False) -> dict:
    """Profiles: (updates, max subset size, test samples) per row."""
    if smoke:
        return {"profiles": [(8, None, 32)], "floor": 1.3, "floor_at": 8, "kernel": (12, 40)}
    return {
        "profiles": [(10, None, 32), (25, 4, 32), (50, 2, 32)],
        "floor": 3.0,
        "floor_at": 25,
        "kernel": (64, 150),  # candidates, test samples (the cohort profiles' test-set size)
    }


def build_profile(
    n_updates: int, n_test: int, seed: int = 0
) -> tuple[object, Dataset, list[ModelUpdate]]:
    """One peer's search workload: scratch model, test set, updates.

    Updates are distinct perturbations of a shared base model with
    heterogeneous sample counts (so FedAvg coefficients differ per
    subset), matching what a peer sees after one training round.
    """
    rng = np.random.default_rng(seed)
    model = build_simple_nn(np.random.default_rng(seed + 1))
    x = rng.normal(size=(n_test, 3072))
    y = rng.integers(0, 10, size=n_test)
    base = model.get_weights()
    updates = [
        ModelUpdate(
            client_id=f"P{index:02d}",
            weights={key: value + rng.normal(0.0, 0.02, value.shape) for key, value in base.items()},
            num_samples=100 + 10 * index,
        )
        for index in range(n_updates)
    ]
    return model, Dataset(x, y), updates


def compare_engines(n_updates: int, max_size, n_test: int = 64, seed: int = 0) -> dict:
    """Time the two implementations on one profile; assert equivalence.

    The equivalence check *is* part of the bench: a speedup that changed
    any member set or accuracy would be a bug, not a win.
    """
    key = (n_updates, max_size, n_test, seed)
    if key in _CACHE:
        return _CACHE[key]
    model, test_set, updates = build_profile(n_updates, n_test, seed)

    start = time.perf_counter()
    serial = enumerate_combinations(updates, model, test_set, max_size=max_size)
    serial_s = time.perf_counter() - start

    engine = CombinationEngine(model, test_set)
    start = time.perf_counter()
    memoized = engine.enumerate(updates, max_size=max_size)
    memoized_s = time.perf_counter() - start

    reference = [(result.members, result.accuracy) for result in serial]
    assert reference == [(r.members, r.accuracy) for r in memoized], "memoized path diverged"

    # Cache contract: one real evaluation per distinct subset, then the
    # fitness gate and a re-enumeration are served entirely from cache.
    evaluations = engine.cache.stats["misses"]
    engine.threshold_filter(updates, threshold=0.0)
    engine.enumerate(updates, max_size=max_size)
    result = {
        "updates": n_updates,
        "max_size": max_size if max_size is not None else n_updates,
        "subsets": len(serial),
        "serial_s": serial_s,
        "memoized_s": memoized_s,
        "speedup": serial_s / memoized_s,
        "evaluations": evaluations,
        "reuse_evaluations": engine.cache.stats["misses"] - evaluations,
    }
    _CACHE[key] = result
    return result


def compare_kernel(n_candidates: int, n_test: int, seed: int = 5) -> dict:
    """Score the same models batched and one at a time; assert identity.

    The batched arm is the engine's solo pass (a cold cache, so every
    candidate is evaluated, ``BATCH_WIDTH`` per kernel call); the oracle
    installs each model into the scratch network and runs the ordinary
    forward pass.  Accuracies must be equal, and for one workspace-full
    the raw logits are compared bit for bit as well.
    """
    model, test_set, updates = build_profile(n_candidates, n_test, seed)
    for update in updates:  # as fetched updates arrive: content hash attached
        update.fingerprint = weights_fingerprint(update.weights)
    engine = CombinationEngine(model, test_set)
    engine.enumerate(updates[:BATCH_WIDTH], max_size=1)  # BLAS warm-up, shape verdicts
    engine = CombinationEngine(model, test_set)
    start = time.perf_counter()
    batched = engine.enumerate(updates, max_size=1)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    oracle = {
        (update.client_id,): evaluate_weights(model, update.weights, test_set)
        for update in updates
    }
    oracle_s = time.perf_counter() - start
    assert {scored.members: scored.accuracy for scored in batched} == oracle, "kernel diverged"

    head = updates[:BATCH_WIDTH]
    stack = model.candidate_stack(BATCH_WIDTH)
    for slot, update in enumerate(head):
        for name, value in update.weights.items():
            stack[name][slot] = value
    logits = model.predict_stacked(test_set.x, stack, len(head))
    own = model.get_weights()
    for slot, update in enumerate(head):
        model.set_weights(update.weights)
        assert np.array_equal(logits[slot], model.predict(test_set.x)), "logits diverged"
    model.set_weights(own)
    return {
        "candidates": n_candidates,
        "test_samples": n_test,
        "batched_ms": 1e3 * batched_s / n_candidates,
        "oracle_ms": 1e3 * oracle_s / n_candidates,
        "speedup": oracle_s / batched_s,
        "batched_evaluations": engine.cache.stats["misses"],
    }


def solo_reuse_counters(n_updates: int = 6, n_test: int = 48, seed: int = 3) -> dict:
    """The seed's redundant-evaluation profile vs the engine's.

    The seed path scores every solo during enumeration, then again in
    ``threshold_filter``; the engine's second pass is all cache hits.
    """
    model, test_set, updates = build_profile(n_updates, n_test, seed)
    calls = {"count": 0}
    engine = CombinationEngine(
        model, test_set, instrument=lambda key: calls.__setitem__("count", calls["count"] + 1)
    )
    engine.enumerate(updates)
    after_enumerate = calls["count"]
    engine.threshold_filter(updates, threshold=0.0)
    for update in updates:
        engine.solo_accuracy(update)
    # The serial reference pays n extra evaluations for the same gate.
    threshold_filter(updates, model, test_set, threshold=0.0)
    return {
        "subsets": 2 ** n_updates - 1,
        "engine_evaluations": calls["count"],
        "engine_extra_after_enumerate": calls["count"] - after_enumerate,
        "serial_gate_evaluations": n_updates,
    }


def _rows(results: list[dict]) -> list[list[str]]:
    return [
        [
            str(result["updates"]),
            str(result["max_size"]),
            str(result["subsets"]),
            f"{result['serial_s']:.2f}",
            f"{result['memoized_s']:.2f}",
            f"{result['speedup']:.2f}x",
        ]
        for result in results
    ]


def test_engine_speedup(benchmark, smoke):
    """Memoized incremental scoring beats the seed loop; >= 3x at 25."""
    params = engine_params(smoke)
    results = run_once(
        benchmark,
        lambda: [compare_engines(n, max_size, n_test) for n, max_size, n_test in params["profiles"]],
    )
    print()
    print(
        render_table(
            "X5: combination-scoring engine (exhaustive search)",
            ["updates", "max size", "subsets", "serial s", "memoized s", "speedup"],
            _rows(results),
        )
    )
    for result in results:
        assert result["evaluations"] <= result["subsets"]
        assert result["reuse_evaluations"] == 0, "fitness gate / re-enumeration re-evaluated"
    floor = {result["updates"]: result["speedup"] for result in results}
    assert floor[params["floor_at"]] >= params["floor"], (
        f"expected >= {params['floor']}x at {params['floor_at']} updates, got {floor}"
    )


def test_batched_kernel_matches_per_candidate_oracle(benchmark, smoke):
    """One stacked pass per workspace-full scores what one pass each did."""
    candidates, n_test = engine_params(smoke)["kernel"]
    result = run_once(benchmark, lambda: compare_kernel(candidates, n_test))
    print()
    print(
        render_table(
            "X5: evaluation kernel (solo models, cold cache)",
            ["candidates", "test samples", "batched ms/cand", "oracle ms/cand", "speedup"],
            [[
                str(result["candidates"]),
                str(result["test_samples"]),
                f"{result['batched_ms']:.3f}",
                f"{result['oracle_ms']:.3f}",
                f"{result['speedup']:.2f}x",
            ]],
        )
    )
    # Identity is the contract and was asserted in compare_kernel; the rate
    # (about 1.4x one BLAS thread at 150 samples) is reported, not gated —
    # benchmarks/perf is where wall-clock claims are judged.
    assert result["batched_evaluations"] == result["candidates"]


def test_solo_scores_never_recomputed(benchmark, smoke):
    """Enumeration's solo scores satisfy every later solo lookup."""
    counters = run_once(benchmark, solo_reuse_counters)
    assert counters["engine_evaluations"] == counters["subsets"]
    assert counters["engine_extra_after_enumerate"] == 0
    assert counters["serial_gate_evaluations"] > 0
