"""X8 — chain scale-out: parallel execution, cold storage, snap sync.

PR 10 adds the ledger-side scale axis: deterministic parallel transaction
execution, a spillable cold block/receipt store, and root-verified
snapshot state-sync.  This bench prices all three and proves the
contracts that make them safe to ship:

* **Parallel is byte-identical to serial.**  A thousand-registration
  block imports through the speculate/merge scheduler and must produce
  the same head hash, state root, and per-transaction receipts as the
  serial import (the import-time state-root check enforces this
  independently; the bench re-asserts it on the receipts).  Speculation
  runs in-process, so the wall-clock ratio prices the scheduler's
  overhead and is reported, never floored.
* **Memory is bounded by the hot window, not the chain.**  The paper's
  cross-device profile (1000 registered / 25 sampled) runs with cold
  storage on: blocks and receipts beyond the hot window live in the
  segment file, and peak RSS stays well under a gigabyte at full scale.
* **A rejoining peer replays the interval, not the chain.**
  ``sync_from`` fast-forwards a fresh node to the provider's head after
  executing only the post-checkpoint tail — asserted to be a small
  fraction of the chain length.

Smoke (``--smoke``, tier-1) trims to a 30-tx block, a 30/5 cohort, and a
20-block chain; identity and replay-bound asserts run at every tier,
wall-clock floors never do.
"""

from __future__ import annotations

import resource
import time

from _bench_util import run_once
from repro.chain.crypto import KeyPair
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.chain.scale import ColdStore, snapshot_key
from repro.chain.transaction import Transaction
from repro.contracts import register_all
from repro.metrics.tables import render_table
from repro.scenarios import cohort_scenario, run_scenario
from repro.scenarios.spec import replace_axis

_CACHE: dict = {}


def scaleout_params(smoke: bool = False) -> dict:
    """Workload profile for one tier."""
    if smoke:
        return {
            "block_txs": 30,
            "registered": 30,
            "sampled": 5,
            "rounds": 2,
            "hot_window": 4,
            "chain_length": 20,
            "snapshot_interval": 8,
        }
    return {
        "block_txs": 1000,
        "registered": 1000,
        "sampled": 25,
        "rounds": 3,
        "hot_window": 8,
        "chain_length": 60,
        "snapshot_interval": 16,
    }


# ---------------------------------------------------------------------------
# Pillar 1: parallel import of a thousand-registration block
# ---------------------------------------------------------------------------


def _registration_chain(n_txs: int, seed: int = 7):
    """A two-block chain: registry deploy, then ``n_txs`` registrations."""
    kps = [KeyPair.from_seed(f"scaleout-{seed}-{i}") for i in range(n_txs + 1)]
    genesis = GenesisSpec(allocations={kp.address: 10**15 for kp in kps})
    runtime = ContractRuntime()
    register_all(runtime)
    builder = Node(kps[0], genesis, runtime, NodeConfig())
    deploy = Transaction(
        sender=kps[0].address,
        to=None,
        nonce=0,
        args={"contract": "participant_registry"},
    ).sign_with(kps[0])
    builder.submit_transaction(deploy)
    deploy_block = builder.build_block_candidate(13.0, difficulty=1)
    builder.seal_and_import(deploy_block, nonce=0)
    registry = builder.receipt_of(deploy.tx_hash).contract_address
    for i, kp in enumerate(kps[1:]):
        tx = Transaction(
            sender=kp.address,
            to=registry,
            nonce=0,
            method="register",
            args={"display_name": f"peer-{i}"},
        ).sign_with(kp)
        builder.submit_transaction(tx)
    big_block = builder.build_block_candidate(26.0, difficulty=1)
    builder.seal_and_import(big_block, nonce=0)
    assert len(big_block.transactions) == n_txs
    return genesis, runtime, deploy_block, big_block


def _timed_import(genesis, runtime, deploy_block, big_block, **cfg):
    """Import the registration block on a fresh node; returns (s, node)."""
    node = Node(KeyPair.from_seed("scaleout-observer"), genesis, runtime, NodeConfig(**cfg))
    node.import_block(deploy_block)
    start = time.perf_counter()
    node.import_block(big_block)
    return time.perf_counter() - start, node


def run_parallel_identity(n_txs: int, seed: int = 7) -> dict:
    """Serial vs parallel import of one ``n_txs``-registration block.

    Asserts byte identity (head hash, state root, every receipt) and
    that all registrations merged on the clean fast path — the registry
    keeps no shared counter slot, so distinct senders never conflict.
    """
    key = ("identity", n_txs, seed)
    if key in _CACHE:
        return _CACHE[key]
    chain = _registration_chain(n_txs, seed=seed)
    serial_s, serial = _timed_import(*chain)
    parallel_s, parallel = _timed_import(
        *chain,
        execution="parallel",
        parallel_min_txs=2,
    )
    big_block = chain[3]
    assert parallel.head.block_hash == serial.head.block_hash
    assert parallel.state.state_root() == serial.state.state_root()
    for tx in big_block.transactions:
        assert (
            parallel.receipt_of(tx.tx_hash).to_dict()
            == serial.receipt_of(tx.tx_hash).to_dict()
        ), f"receipt diverged for {tx.tx_hash[:10]}"
    stats = parallel.execution_stats
    assert stats.parallel_blocks == 1
    assert stats.clean_txs == n_txs, (
        f"only {stats.clean_txs}/{n_txs} registrations merged clean"
    )
    profile = {
        "n_txs": n_txs,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "clean_txs": stats.clean_txs,
        "dirty_txs": stats.dirty_txs,
    }
    _CACHE[key] = profile
    return profile


# ---------------------------------------------------------------------------
# Pillar 2: the cross-device profile on cold storage
# ---------------------------------------------------------------------------


def run_cold_profile(
    registered: int,
    sampled: int,
    rounds: int,
    hot_window: int,
    seed: int = 42,
) -> dict:
    """The 1000-registered / 25-sampled cohort with spilling enabled.

    Asserts that the cold store actually absorbed history (whenever the
    chain outgrew the hot window) and reports rounds/sec plus peak RSS —
    the number the hot-window bound exists to keep flat.
    """
    key = ("cold", registered, sampled, rounds, hot_window, seed)
    if key in _CACHE:
        return _CACHE[key]
    base = cohort_scenario(registered, seed=seed, sampled_k=sampled)
    spec = replace_axis(base, "rounds", rounds)
    spec = replace_axis(spec, "chain.cold_storage", True)
    spec = replace_axis(spec, "chain.hot_window", hot_window)
    spec = replace_axis(spec, "chain.execution", "parallel")
    spec = replace_axis(spec, "chain.parallel_min_txs", 32)

    start = time.perf_counter()
    result = run_scenario(spec)
    wall = time.perf_counter() - start

    storage = result.chain_stats["storage"]
    height = max(result.chain_stats["heights"].values())
    if height > hot_window + 1:
        assert storage["spilled_blocks"] > 0, (
            f"chain reached height {height} with hot_window={hot_window} "
            "but nothing spilled"
        )
        assert storage["cold"]["puts"] > 0
        assert storage["cold_entries"] > 0
    assert storage["hot_blocks"] <= len(result.chain_stats["heights"]) * (
        hot_window + 1
    )
    profile = {
        "registered": registered,
        "sampled": sampled,
        "rounds": rounds,
        "height": height,
        "wall_s": wall,
        "rounds_per_s": rounds / wall,
        "spilled_blocks": storage["spilled_blocks"],
        "cold_entries": storage.get("cold_entries", 0),
        "cold_mb": storage.get("cold_bytes", 0) / 2**20,
        "parallel_blocks": result.chain_stats["execution"]["parallel_blocks"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _CACHE[key] = profile
    return profile


# ---------------------------------------------------------------------------
# Pillar 3: snapshot rejoin
# ---------------------------------------------------------------------------


def run_rejoin_profile(chain_length: int, interval: int, seed: int = 7) -> dict:
    """A fresh peer joins a ``chain_length`` chain via snapshot sync.

    Asserts the joiner lands on the provider's exact head and state root
    after executing only the post-checkpoint tail — a small fraction of
    the chain, bounded by the snapshot interval.
    """
    key = ("rejoin", chain_length, interval, seed)
    if key in _CACHE:
        return _CACHE[key]
    kps = [KeyPair.from_seed(f"rejoin-{seed}-{i}") for i in range(2)]
    genesis = GenesisSpec(allocations={kp.address: 10**15 for kp in kps})
    runtime = ContractRuntime()
    register_all(runtime)
    cold = ColdStore()
    provider = Node(
        kps[0],
        genesis,
        runtime,
        NodeConfig(cold_store=cold, hot_window=4, snapshot_interval=interval),
    )
    for _ in range(chain_length):
        block = provider.build_block_candidate(
            provider.head.header.timestamp + 13.0, difficulty=1
        )
        provider.seal_and_import(block, nonce=0)
    lineage = [
        provider.store.get(provider.store.canonical_hash(number))
        for number in range(1, chain_length + 1)
    ]
    pivot = (chain_length // interval) * interval
    payload = cold.get(snapshot_key(lineage[pivot - 1].block_hash))

    joiner = Node(kps[1], genesis, runtime, NodeConfig())
    start = time.perf_counter()
    executed = joiner.sync_from(payload, lineage[:pivot], lineage[pivot:])
    wall = time.perf_counter() - start

    assert joiner.head.block_hash == provider.head.block_hash
    assert joiner.state.state_root() == provider.state.state_root()
    assert executed == chain_length - pivot
    assert executed * 4 <= chain_length, (
        f"rejoin replayed {executed} of {chain_length} blocks — the "
        "checkpoint did not bound the catch-up"
    )
    profile = {
        "chain_length": chain_length,
        "interval": interval,
        "skipped": pivot,
        "replayed": executed,
        "sync_s": wall,
    }
    _CACHE[key] = profile
    return profile


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


def _print_identity(profile: dict) -> None:
    print()
    print(
        render_table(
            f"X8: parallel import ({profile['n_txs']} txs)",
            ["metric", "value"],
            [
                ["serial s", f"{profile['serial_s']:.3f}"],
                ["parallel s", f"{profile['parallel_s']:.3f}"],
                ["speedup", f"{profile['speedup']:.2f}x"],
                ["clean txs", f"{profile['clean_txs']}"],
                ["dirty txs", f"{profile['dirty_txs']}"],
            ],
        )
    )


def test_parallel_import_byte_identical(benchmark, smoke):
    """Thousand-tx registration block: parallel == serial, priced.

    Identity (head hash, state root, receipts) is asserted inside
    :func:`run_parallel_identity` at every scale.
    """
    params = scaleout_params(smoke)
    profile = run_once(benchmark, lambda: run_parallel_identity(params["block_txs"]))
    _print_identity(profile)


def test_cold_storage_bounds_memory(benchmark, smoke):
    """1000 registered / 25 sampled on cold storage: RSS stays bounded."""
    params = scaleout_params(smoke)
    profile = run_once(
        benchmark,
        lambda: run_cold_profile(
            params["registered"],
            params["sampled"],
            params["rounds"],
            params["hot_window"],
        ),
    )
    print()
    print(
        render_table(
            (
                f"X8: cold-storage cohort ({profile['registered']} registered, "
                f"{profile['sampled']} sampled, {profile['rounds']} rounds)"
            ),
            ["metric", "value"],
            [
                ["wall s", f"{profile['wall_s']:.1f}"],
                ["rounds/s", f"{profile['rounds_per_s']:.3f}"],
                ["chain height", f"{profile['height']}"],
                ["spilled blocks", f"{profile['spilled_blocks']}"],
                ["cold entries", f"{profile['cold_entries']}"],
                ["cold MB", f"{profile['cold_mb']:.1f}"],
                ["parallel blocks", f"{profile['parallel_blocks']}"],
                ["peak RSS MB", f"{profile['peak_rss_mb']:.0f}"],
            ],
        )
    )
    assert profile["rounds_per_s"] > 0
    if not smoke:
        assert profile["peak_rss_mb"] < 1024, (
            f"peak RSS {profile['peak_rss_mb']:.0f} MB — the hot window "
            "is not bounding memory"
        )


def test_snapshot_rejoin_replays_the_tail(benchmark, smoke):
    """A rejoining peer executes the post-checkpoint tail, not the chain."""
    params = scaleout_params(smoke)
    profile = run_once(
        benchmark,
        lambda: run_rejoin_profile(
            params["chain_length"], params["snapshot_interval"]
        ),
    )
    print()
    print(
        render_table(
            f"X8: snapshot rejoin ({profile['chain_length']} blocks)",
            ["metric", "value"],
            [
                ["chain length", f"{profile['chain_length']}"],
                ["skipped (snapshot)", f"{profile['skipped']}"],
                ["replayed (tail)", f"{profile['replayed']}"],
                ["sync s", f"{profile['sync_s']:.3f}"],
            ],
        )
    )
    assert profile["replayed"] * 4 <= profile["chain_length"]
