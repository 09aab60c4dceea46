"""X3 — commitment pipeline: cached single-encoding vs the seed's re-marshalling.

The seed paid three full weight serializations per local model on the
submit path (off-chain put, commitment-hash check, size probe) and one full
deserialization per (peer, fetch) on the read path.  The content-addressed
pipeline pays one encode per model — :class:`~repro.nn.serialize.WeightArchive`
answers payload/hash/size from a single encoding — and at most one decode
per distinct blob ever, via the store's decoded-archive cache.

Reported: serializations-per-round on a real decentralized round, and the
wall-clock speedup of the commit/fetch hot path (acceptance: >= 2x).

Run fast: ``pytest benchmarks/bench_commitment_pipeline.py --smoke``
or directly: ``python benchmarks/bench_commitment_pipeline.py --smoke``.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_util import run_once
from repro.core.offchain import OffchainStore
from repro.nn.serialize import (
    SERIALIZATION_STATS,
    WeightArchive,
    weights_from_bytes,
    weights_hash,
    weights_size_bytes,
    weights_to_bytes,
)
from repro.metrics.tables import render_table
from repro.utils.hashing import keccak_like

def pipeline_params(smoke: bool) -> dict:
    """compare_pipelines sizing; ``--smoke`` shrinks it to ~1s."""
    if smoke:
        return dict(n_models=3, n_fetchers=3, repeats=2)
    return dict(n_models=6, n_fetchers=6, repeats=3)


#: Shapes roughly matching the paper's SimpleNN head (~62k params).
_WEIGHT_SHAPES = {
    "conv/W": (3, 3, 8, 16),
    "conv/b": (16,),
    "dense/W": (784, 64),
    "dense/b": (64,),
    "out/W": (64, 10),
    "out/b": (10,),
}


def make_weight_sets(n_models: int, seed: int = 0) -> list[dict]:
    """``n_models`` distinct weight dicts of realistic commitment size."""
    rng = np.random.default_rng(seed)
    return [
        {key: rng.normal(size=shape) for key, shape in _WEIGHT_SHAPES.items()}
        for _ in range(n_models)
    ]


def legacy_commit_fetch(weight_sets: list[dict], n_fetchers: int) -> dict:
    """The seed call pattern, reproduced byte for byte.

    Per model: raw put (encode #1), commitment-hash verification
    (encode #2), size probe (encode #3).  Per (fetcher, model): integrity
    re-hash plus a full decode.
    """
    store = OffchainStore()
    started = time.perf_counter()
    keys = []
    for weights in weight_sets:
        key = store.put(weights_to_bytes(weights))
        assert key == weights_hash(weights)
        weights_size_bytes(weights)
        keys.append(key)
    for _ in range(n_fetchers):
        for key in keys:
            payload = store.get(key)
            assert keccak_like(payload) == key
            weights_from_bytes(payload)
    return {"seconds": time.perf_counter() - started, "store": store}


def cached_commit_fetch(weight_sets: list[dict], n_fetchers: int) -> dict:
    """The archive pipeline: one encode per model, cached fetches."""
    store = OffchainStore()
    started = time.perf_counter()
    keys = []
    for weights in weight_sets:
        archive = WeightArchive.from_weights(weights)
        key = store.put_archive(archive)
        archive.hash, archive.size  # commitment + telemetry: already paid
        keys.append(key)
    for _ in range(n_fetchers):
        for key in keys:
            store.get_weights(key)
    return {"seconds": time.perf_counter() - started, "store": store}


def compare_pipelines(n_models: int = 6, n_fetchers: int = 6, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall-clock comparison of both pipelines."""
    weight_sets = make_weight_sets(n_models)
    # Warm both paths once so allocator effects don't skew the first timing.
    legacy_commit_fetch(weight_sets[:1], 1)
    cached_commit_fetch(weight_sets[:1], 1)

    SERIALIZATION_STATS.reset()
    legacy_seconds = min(
        legacy_commit_fetch(weight_sets, n_fetchers)["seconds"] for _ in range(repeats)
    )
    legacy_marshalling = SERIALIZATION_STATS.as_dict()

    SERIALIZATION_STATS.reset()
    cached_runs = [cached_commit_fetch(weight_sets, n_fetchers) for _ in range(repeats)]
    cached_seconds = min(run["seconds"] for run in cached_runs)
    cached_marshalling = SERIALIZATION_STATS.as_dict()

    return {
        "n_models": n_models,
        "n_fetchers": n_fetchers,
        "legacy_seconds": legacy_seconds,
        "cached_seconds": cached_seconds,
        "speedup": legacy_seconds / cached_seconds,
        "legacy_encodes_per_model": legacy_marshalling["encodes"] / (repeats * n_models),
        "cached_encodes_per_model": cached_marshalling["encodes"] / (repeats * n_models),
        "cached_store": cached_runs[-1]["store"].marshalling_stats(),
    }


def round_serialization_profile(rounds: int = 1) -> dict:
    """Serializations per model per round on a real decentralized round."""
    import sys
    from pathlib import Path

    tests_dir = str(Path(__file__).resolve().parent.parent / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    from test_core_decentralized import make_driver

    driver = make_driver(rounds=rounds)
    driver.deploy_contracts()
    SERIALIZATION_STATS.reset()
    for round_id in range(1, rounds + 1):
        driver.run_round(round_id)
    n_models = len(driver.peers) * rounds
    return {
        "models_committed": n_models,
        "encodes": SERIALIZATION_STATS.encodes,
        "encodes_per_model": SERIALIZATION_STATS.encodes / n_models,
        "store": driver.offchain.marshalling_stats(),
    }


def _report(result: dict, profile: dict) -> None:
    print()
    print(
        render_table(
            "X3: commitment pipeline (commit + fetch hot path)",
            ["pipeline", "seconds", "encodes/model"],
            [
                ["seed (re-marshalling)", f"{result['legacy_seconds']:.4f}", f"{result['legacy_encodes_per_model']:.1f}"],
                ["cached archive", f"{result['cached_seconds']:.4f}", f"{result['cached_encodes_per_model']:.1f}"],
            ],
        )
    )
    print(f"speedup: {result['speedup']:.2f}x  (acceptance floor: 2.00x)")
    print(
        f"live round: {profile['encodes']} encodes for {profile['models_committed']} models "
        f"({profile['encodes_per_model']:.2f}/model), store={profile['store']}"
    )


def test_commit_fetch_speedup(benchmark, smoke):
    """The cached pipeline beats the seed call pattern by >= 2x wall-clock."""
    result = run_once(benchmark, lambda: compare_pipelines(**pipeline_params(smoke)))
    profile = round_serialization_profile(rounds=1 if smoke else 2)
    _report(result, profile)
    assert result["speedup"] >= 2.0
    assert result["cached_encodes_per_model"] == 1.0
    assert result["legacy_encodes_per_model"] >= 3.0


def test_live_round_serializes_once_per_model(smoke):
    """A real decentralized round encodes each committed model exactly once."""
    profile = round_serialization_profile(rounds=1)
    assert profile["encodes_per_model"] == 1.0
    assert profile["store"]["deserializations"] == 0  # all fetches cache-hit


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny fast mode")
    args = parser.parse_args()
    _report(
        compare_pipelines(**pipeline_params(args.smoke)),
        round_serialization_profile(rounds=1 if args.smoke else 2),
    )
