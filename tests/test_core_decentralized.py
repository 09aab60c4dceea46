"""Integration tests for the decentralized blockchain-FL orchestrator.

``tests/fixtures/driver_outcome_digests.json`` pins what the seed
per-subset scoring loops (``repro.fl.selection``) made these small drivers
produce: it was recorded at the commit before the ``scoring="serial"``
runtime option was deleted, by running ``make_driver(scoring="serial",
**case)`` for every case of ``OUTCOME_CASES`` against that commit's
``src/`` and taking ``outcome_digest``.  The engine-driven runs below must
reproduce those bytes.  Float results depend on the BLAS kernels, so the
digests are compared only on the platform that recorded them; the
function-level engine-vs-seed-loop equivalence in ``test_fl_scoring.py``
holds everywhere.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.chain.spec import ChainSpec
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.core.shard import PeerShard
from repro.data.dataset import Dataset
from repro.errors import ConfigError, RoundError
from repro.fl.async_policy import WaitForAll, WaitForK
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.utils.rng import RngFactory
from repro.utils.serialization import canonical_dumps


def easy_dataset(rng, n=100):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y)


def shared_builder(rng):
    return Sequential([Dense(6, name="h"), ReLU(), Dense(2, name="out")]).build(
        np.random.default_rng(42), (4,)
    )


def make_driver(policy=None, rounds=2, peers=("A", "B", "C"), training_times=None, **config_kwargs):
    data_rng = np.random.default_rng(0)
    config = DecentralizedConfig(rounds=rounds, **config_kwargs)
    if policy is not None:
        config.policy = policy
    times = training_times if training_times is not None else [10.0] * len(peers)
    peer_configs = [
        PeerConfig(
            peer_id=p,
            train_config=TrainConfig(epochs=1, learning_rate=0.1),
            training_time=t,
            training_time_jitter=2.0,
        )
        for p, t in zip(peers, times)
    ]
    return DecentralizedFL(
        peer_configs,
        {p: easy_dataset(data_rng) for p in peers},
        {p: easy_dataset(data_rng, n=60) for p in peers},
        shared_builder,
        config,
        rng_factory=RngFactory(7),
    )


class TestDeployment:
    def test_contracts_deployed_everywhere(self):
        driver = make_driver()
        driver.deploy_contracts()
        for peer in driver.peers.values():
            assert peer.gateway.has_contract(peer.model_store_address)
            assert peer.gateway.has_contract(peer.coordinator_address)

    def test_all_peers_registered(self):
        driver = make_driver()
        driver.deploy_contracts()
        registry = driver._registry_address()
        for peer in driver.peers.values():
            for other in driver.peers.values():
                assert peer.gateway.call(registry, "is_member", address=other.address)

    def test_rounds_require_deployment(self):
        driver = make_driver()
        with pytest.raises(RoundError):
            driver.run_round(1)

    def test_replayed_round_refused_before_side_effects(self):
        """A second ``run_round(1)`` used to be refused only after its
        ``open_round`` transaction had gone out (and reverted on chain)."""
        driver = make_driver()
        driver.deploy_contracts()
        driver.run_round(1)
        gateway = driver.peers["A"].gateway  # the coordinator's
        address = driver.addresses["A"]
        submits, nonce = gateway.stats.submits, gateway.next_nonce(address)
        logged = len(driver.round_logs)
        with pytest.raises(RoundError, match="round 1 already opened"):
            driver.run_round(1)
        assert gateway.stats.submits == submits
        assert gateway.next_nonce(address) == nonce
        assert len(driver.round_logs) == logged
        assert len(driver.run_round(2)) == 3  # and the run carries on

    def test_two_peers_minimum(self):
        with pytest.raises(ConfigError):
            make_driver(peers=("A",))

    @pytest.mark.parametrize(
        "chain_kwargs",
        [
            dict(gateway="carrier-pigeon"),
            dict(gateway_staleness=0.0),
            dict(drop_rate=1.0),
            dict(execution="speculative"),
            dict(snapshot_interval=8),
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_hand_built_driver_gets_chain_validation(self, chain_kwargs):
        """A driver built without a ScenarioSpec holds a ChainSpec too, so
        it cannot be constructed around a knob that would fail mid-run."""
        with pytest.raises(ConfigError):
            make_driver(chain=ChainSpec(**chain_kwargs))


class TestRounds:
    def test_full_run_produces_logs(self):
        driver = make_driver(rounds=2)
        logs = driver.run()
        assert len(logs) == 6  # 3 peers x 2 rounds
        for log in logs:
            assert log.combination_accuracy  # every combination scored
            assert log.chosen_combination
            assert log.chosen_accuracy == max(log.combination_accuracy.values())

    def test_wait_for_all_sees_seven_combos(self):
        driver = make_driver(rounds=1)
        logs = driver.run()
        for log in logs:
            assert len(log.combination_accuracy) == 7  # all subsets of 3

    def test_wait_for_one_sees_fewer_models(self):
        # Stagger training well past the block interval so the fastest
        # peer's commitment is mined long before the slowest submits.
        driver = make_driver(policy=WaitForK(1), rounds=1, training_times=[5.0, 120.0, 240.0])
        logs = driver.run()
        # The earliest peer aggregates with only its own model visible.
        models_used = [log.models_used for log in logs]
        assert min(models_used) >= 1
        combos = [len(log.combination_accuracy) for log in logs]
        assert min(combos) < 7

    def test_wait_times_lower_for_async(self):
        stagger = [5.0, 60.0, 120.0]
        sync_driver = make_driver(policy=WaitForAll(), rounds=2, training_times=stagger)
        sync_driver.run()
        async_driver = make_driver(policy=WaitForK(1), rounds=2, training_times=stagger)
        async_driver.run()
        sync_mean = float(np.mean(list(sync_driver.wait_time_summary().values())))
        async_mean = float(np.mean(list(async_driver.wait_time_summary().values())))
        assert async_mean <= sync_mean

    def test_submissions_recorded_on_chain(self):
        driver = make_driver(rounds=1)
        driver.run()
        peer = driver.peers["A"]
        submissions = peer.visible_submissions(1)
        assert len(submissions) == 3
        authors = {record["author"] for record in submissions}
        assert authors == {p.address for p in driver.peers.values()}

    def test_deterministic_given_seed(self):
        logs_a = make_driver(rounds=1).run()
        logs_b = make_driver(rounds=1).run()
        acc_a = {(l.peer_id, k): v for l in logs_a for k, v in l.combination_accuracy.items()}
        acc_b = {(l.peer_id, k): v for l in logs_b for k, v in l.combination_accuracy.items()}
        assert acc_a == acc_b

    def test_chain_stats_shape(self):
        driver = make_driver(rounds=1)
        driver.run()
        stats = driver.chain_stats()
        assert stats["blocks_mined"] > 0
        assert stats["offchain_blobs"] == 3  # one weight blob per peer
        assert set(stats["heights"]) == {"A", "B", "C"}

    def test_combination_series_accessor(self):
        driver = make_driver(rounds=2)
        driver.run()
        series = driver.combination_series("A", "A,B,C")
        assert len(series) == 2
        assert all(0.0 <= value <= 1.0 for value in series)


OUTCOME_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "driver_outcome_digests.json"

#: The small drivers whose serial-reference outcome is pinned.
OUTCOME_CASES = {
    "exhaustive": dict(rounds=1),
    "greedy": dict(rounds=1, selection="greedy"),
    "reputation": dict(rounds=1, enable_reputation=True),
}


def platform_key() -> str:
    """What bit-exact float results depend on (numpy build + CPU model).

    A trailing `` @ 2.10GHz`` is dropped from the model name: the clock
    speed does not choose a BLAS kernel, and some hosts omit it.
    """
    model = "unknown cpu"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip().rsplit(" @ ", 1)[0]
                break
    except OSError:
        pass
    return f"numpy {np.__version__}, {platform.machine()}, {model}"


def outcome_digest(driver) -> str:
    """SHA-256 over everything the scoring path can influence: every
    peer's accuracy table (in enumeration order) and adopted combination,
    the final model bytes, and the reputation ledger when it is on."""
    logs = driver.run()
    payload = {
        "logs": [
            [
                log.peer_id,
                log.round_id,
                list(log.chosen_combination),
                log.chosen_accuracy,
                [[label, accuracy] for label, accuracy in log.combination_accuracy.items()],
            ]
            for log in logs
        ],
        "models": driver.model_digests(),
    }
    if driver.config.enable_reputation:
        payload["reputation"] = driver.reputation_scores()
    return hashlib.sha256(canonical_dumps(payload)).hexdigest()


def pinned_outcome(case: str) -> str:
    fixture = json.loads(OUTCOME_FIXTURE.read_text())
    if fixture["platform"] != platform_key():
        pytest.skip(f"serial-reference digests were recorded on {fixture['platform']!r}")
    return fixture["digests"][case]


class TestScoringEngineIntegration:
    """The engine-driven driver vs the pinned seed serial path, end to end."""

    def test_engine_matches_serial_reference(self):
        driver = make_driver(**OUTCOME_CASES["exhaustive"])
        assert set(driver.shard.engines) == {"A", "B", "C"}
        assert outcome_digest(driver) == pinned_outcome("exhaustive")

    def test_greedy_matches_serial_reference(self):
        assert outcome_digest(make_driver(**OUTCOME_CASES["greedy"])) == pinned_outcome("greedy")

    def test_invalid_scoring_config(self):
        for bad in (dict(selection="fastest"), dict(mode="oracle")):
            with pytest.raises(ConfigError):
                DecentralizedConfig(**bad)


class TestRateRoundReusesScores:
    """Reputation rating re-uses the aggregation phase's solo scores.

    The seed re-evaluated every solo model a second time in
    the rating pass; the engine path must answer those lookups from the
    cache — the instrumentation hook counts every *real* evaluation, so
    a round with reputation on performs exactly one evaluation per
    distinct subset and not one more.
    """

    def test_rating_adds_zero_evaluations(self):
        driver = make_driver(rounds=1, enable_reputation=True)
        engines = driver.shard.engines
        evaluations = {peer_id: [] for peer_id in engines}
        for peer_id, engine in engines.items():
            engine.instrument = evaluations[peer_id].append
        driver.run()
        for peer_id, engine in engines.items():
            # 3 visible updates -> 7 subsets; the rating pass (own solo +
            # 2 subjects per rater) added nothing.
            assert len(evaluations[peer_id]) == 7, (
                f"{peer_id}: expected 7 evaluations, saw {len(evaluations[peer_id])}"
            )
            assert engine.cache.stats["hits"] >= 3  # the rating lookups

    def test_reputation_scores_match_serial_reference(self):
        driver = make_driver(**OUTCOME_CASES["reputation"])
        assert outcome_digest(driver) == pinned_outcome("reputation")


def visible_updates(driver, peer_id: str, round_id: int = 1):
    """The peer's decoded view of a finished round (the shard's memo)."""
    records = driver.peers[peer_id].visible_submissions(round_id)
    return driver.shard.view(round_id, peer_id, records)


class TestSearchScopedRows:
    """A search's rows — ``n_k`` times an update's pre-activations on the
    viewer's own test set, then its parameters after the first ``Dense``
    (``repro.fl.scoring``, "Incremental aggregation") — belong to that
    viewer's engine and to that search: built once for the solo pass and
    every greedy step, gone when the search returns."""

    PEERS = tuple("ABCDEFG")

    def scored_round(self, rounds=1):
        driver = make_driver(rounds=rounds, peers=self.PEERS, selection="greedy")
        driver.deploy_contracts()
        logs = driver.run_round(1)
        return driver, logs

    def test_rows_hold_pre_activations_not_weights(self):
        driver, _logs = self.scored_round()
        shard = driver.shard
        engine, updates = shard.engines["A"], visible_updates(driver, "A")
        x = engine.test_set.x
        mid_search = []
        engine.instrument = lambda _key: mid_search.append(dict(engine._rows))
        engine.cache.clear()
        engine.greedy(updates)
        engine.instrument = None
        # One set of rows from the first evaluation to the last: seven
        # viewers' updates, seven rows, the same arrays at every step.
        assert len(mid_search) > len(updates)
        assert set(mid_search[0]) == {(u.fingerprint, u.num_samples) for u in updates}
        assert all(
            later.keys() == mid_search[0].keys()
            and all(later[key] is row for key, row in mid_search[0].items())
            for later in mid_search
        )
        tail = sum(u.size for name, u in updates[0].weights.items() if not name.startswith("h/"))
        for update in updates:
            row = mid_search[0][(update.fingerprint, update.num_samples)]
            z = x @ update.weights["h/W"] + update.weights["h/b"]
            assert row.size == z.size + tail  # no room for h/W: its product is there
            np.testing.assert_allclose(
                row[: z.size].reshape(z.shape), update.num_samples * z, rtol=1e-12
            )
            assert np.array_equal(row[-2:], update.num_samples * update.weights["out/b"])
        assert engine.rechecked == 0  # the guard sent nothing to weight space

    def test_no_engine_holds_a_row_after_score(self):
        driver, _logs = self.scored_round(rounds=2)
        engines = driver.shard.engines.values()
        assert all(engine._rows is None for engine in engines)
        assert all(len(engine.cache) > 0 for engine in engines)  # scores stay for `rate`
        driver.run_round(2)
        assert all(engine._rows is None for engine in engines)

    def test_a_search_that_raises_releases_its_rows(self):
        driver, _logs = self.scored_round()
        engine, updates = driver.shard.engines["A"], visible_updates(driver, "A")
        engine.cache.clear()

        def explode(_key):
            raise RuntimeError("mid-search")

        engine.instrument = explode
        with pytest.raises(RuntimeError):
            engine.greedy(updates)
        assert engine._rows is None

    def test_a_worker_slice_scores_like_the_whole_cohort(self):
        """A wire worker holds a ``PeerShard`` over every ``workers``-th peer
        (the coordinator deals them); its 3 or 4 viewers still see 7
        updates, build their own rows over them, and keep none."""
        driver, logs = self.scored_round()
        adopted = {log.peer_id: (log.chosen_combination, log.chosen_accuracy) for log in logs}
        model_store = driver.peers["A"].model_store_address
        coordinator = driver.peers["A"].coordinator_address
        for index in range(2):
            mine = list(self.PEERS[index::2])
            worker = PeerShard(driver.config, driver.offchain, RngFactory(7), shared_builder)
            for peer_id in mine:
                peer = driver.peers[peer_id]
                worker.add_peer(
                    peer.config, peer.gateway, peer.client.train_set, peer.client.test_set
                )
            worker.configure(model_store, coordinator, driver.addresses)
            views = {peer_id: driver.peers[peer_id].visible_submissions(1) for peer_id in mine}
            slice_logs = worker.score(1, views=views)
            assert all(engine._rows is None for engine in worker.engines.values())
            assert {
                peer_id: (log.chosen_combination, log.chosen_accuracy)
                for peer_id, log in slice_logs.items()
            } == {peer_id: adopted[peer_id] for peer_id in mine}
