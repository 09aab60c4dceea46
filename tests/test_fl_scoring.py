"""Unit tests for the combination-scoring engine and its cache."""

import hashlib

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.errors import ConfigError, SelectionError
from repro.fl.aggregation import ModelUpdate
from repro.fl.evaluation import evaluate_weights
from repro.fl.scoring import (
    BATCH_WIDTH,
    CombinationEngine,
    EvaluationCache,
    dataset_fingerprint,
    weights_fingerprint,
)
from repro.fl.selection import enumerate_combinations, greedy_combination
from repro.nn.layers import Dense
from repro.nn.model import Sequential


@pytest.fixture
def scratch_model():
    return Sequential([Dense(2, name="head")]).build(np.random.default_rng(0), (2,))


@pytest.fixture
def test_set():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    y = (x[:, 1] > x[:, 0]).astype(np.int64)
    return Dataset(x, y)


def good_weights():
    return {"head/W": np.array([[1.0, -1.0], [-1.0, 1.0]]), "head/b": np.zeros(2)}


def bad_weights():
    return {"head/W": np.array([[-1.0, 1.0], [1.0, -1.0]]), "head/b": np.zeros(2)}


def upd(client_id, weights, n=100):
    return ModelUpdate(client_id=client_id, weights=weights, num_samples=n)


class TestFingerprints:
    def test_content_addressed(self):
        a = good_weights()
        b = good_weights()
        assert weights_fingerprint(a) == weights_fingerprint(b)
        b["head/b"] = b["head/b"] + 1.0
        assert weights_fingerprint(a) != weights_fingerprint(b)

    def test_shape_and_dtype_distinguished(self):
        flat = {"w": np.zeros(4)}
        square = {"w": np.zeros((2, 2))}
        ints = {"w": np.zeros(4, dtype=np.int64)}
        prints = {weights_fingerprint(w) for w in (flat, square, ints)}
        assert len(prints) == 3

    def test_dataset_fingerprint_tracks_content(self):
        x = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        base = dataset_fingerprint(Dataset(x, y))
        assert base == dataset_fingerprint(Dataset(x.copy(), y.copy()))
        assert base != dataset_fingerprint(Dataset(x + 1.0, y))

    @pytest.fixture
    def hashes(self, monkeypatch):
        """One entry per SHA-256 started."""
        started = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda: started.append(1) or sha256())
        return started

    def test_dataset_fingerprint_hashes_each_object_once(self, hashes, scratch_model):
        dataset = Dataset(np.arange(8.0).reshape(4, 2), np.zeros(4, dtype=np.int64))
        first = dataset_fingerprint(dataset)
        assert dataset_fingerprint(dataset) == first
        for _ in range(3):
            assert CombinationEngine(scratch_model, dataset).test_set_id == first
        assert len(hashes) == 1
        twin = Dataset(dataset.x.copy(), dataset.y.copy())
        assert dataset_fingerprint(twin) == first and len(hashes) == 2

    def test_dataset_copies_hash_afresh(self, hashes):
        dataset = Dataset(np.arange(12.0).reshape(3, 2, 2), np.zeros(3, dtype=np.int64))
        first = dataset_fingerprint(dataset)
        copies = [dataset.take(3), dataset.subset(np.arange(3)), dataset.flattened()]
        assert [copy.fingerprint for copy in copies] == [None] * 3
        assert [dataset_fingerprint(copy) == first for copy in copies] == [True, True, False]
        assert len(hashes) == 4


class TestCacheCorrectness:
    def test_mutated_weights_reevaluate(self, scratch_model, test_set):
        """A hand-built update's weights changed in place never produce a
        stale hit: its weights are hashed on every request."""
        engine = CombinationEngine(scratch_model, test_set)
        update = upd("A", good_weights())
        first = engine.solo_accuracy(update)
        assert first == 1.0
        update.weights["head/W"] *= -1.0  # in-place: now classifies inverted
        second = engine.solo_accuracy(update)
        assert second == 0.0
        assert engine.cache.stats == {"hits": 0, "misses": 2}

    def test_identical_content_hits(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        engine.solo_accuracy(upd("A", good_weights()))
        engine.solo_accuracy(upd("B", good_weights()))  # distinct objects, same bytes
        assert engine.cache.stats["hits"] == 1
        assert engine.cache.stats["misses"] == 1

    def test_distinct_test_sets_never_share_entries(self, scratch_model, test_set):
        """One shared cache, two test sets: same weights, separate keys."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 2))
        other = Dataset(x, (x[:, 1] <= x[:, 0]).astype(np.int64))  # inverted labels
        shared = EvaluationCache()
        engine_a = CombinationEngine(scratch_model, test_set)
        engine_b = CombinationEngine(scratch_model, other)
        engine_a.cache = engine_b.cache = shared
        acc_a = engine_a.solo_accuracy(upd("A", good_weights()))
        acc_b = engine_b.solo_accuracy(upd("A", good_weights()))
        assert shared.stats["misses"] == 2  # no cross-test-set hit
        assert len(shared) == 2
        assert acc_a == 1.0 and acc_b == 0.0

    def test_solo_scores_shared_with_threshold_filter(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        engine.enumerate(updates)
        evaluations = engine.cache.stats["misses"]
        kept = engine.threshold_filter(updates, threshold=0.5)
        assert [u.client_id for u in kept] == ["A"]
        assert engine.cache.stats["misses"] == evaluations  # all cache hits

    def test_clear_drops_entries_keeps_stats(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        engine.solo_accuracy(upd("A", good_weights()))
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.stats["misses"] == 1
        engine.solo_accuracy(upd("A", good_weights()))
        assert engine.cache.stats["misses"] == 2  # re-evaluated after clear


class TestExceptionSafety:
    def test_evaluate_weights_restores_on_error(self, scratch_model, test_set):
        """The seed primitive restores the model even when scoring raises."""
        before = scratch_model.get_weights()
        bad_data = Dataset(np.zeros((4, 7)), np.zeros(4, dtype=np.int64))  # wrong dim
        with pytest.raises(Exception):
            evaluate_weights(scratch_model, good_weights(), bad_data)
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_engine_restores_on_error(self, scratch_model):
        bad_data = Dataset(np.zeros((4, 7)), np.zeros(4, dtype=np.int64))
        engine = CombinationEngine(scratch_model, bad_data)
        before = scratch_model.get_weights()
        with pytest.raises(Exception):
            engine.enumerate([upd("A", good_weights()), upd("B", bad_weights())])
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_engine_restores_after_search(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        before = scratch_model.get_weights()
        engine.enumerate([upd("A", good_weights()), upd("B", bad_weights())])
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_mismatched_keys_rejected(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        with pytest.raises(SelectionError):
            engine.solo_accuracy(upd("A", {"other/W": np.zeros((2, 2))}))

    def test_partial_dict_rejected_mid_session(self, scratch_model, test_set):
        """A malformed update after a valid one must error, not silently
        score against the previous update's leftover parameters."""
        engine = CombinationEngine(scratch_model, test_set)
        partial = upd("B", {"head/W": np.array([[1.0, -1.0], [-1.0, 1.0]])})
        with pytest.raises(SelectionError):
            engine.threshold_filter([upd("A", good_weights()), partial], threshold=-1.0)
        wrong_shape = upd("B", {"head/W": np.zeros((2, 2)), "head/b": np.zeros((1, 2))})
        with pytest.raises(SelectionError):
            engine.threshold_filter([upd("A", good_weights()), wrong_shape], threshold=-1.0)


def random_updates(count, seed=3):
    """Distinct random models, distinct sample counts, ids A, B, C, ..."""
    rng = np.random.default_rng(seed)
    return [
        upd(
            chr(ord("A") + index),
            {"head/W": rng.normal(size=(2, 2)), "head/b": rng.normal(size=2)},
            n=10 + index,
        )
        for index in range(count)
    ]


def key_of(engine, subset):
    """The cache key the engine files ``subset`` (updates, in order) under."""
    if len(subset) == 1:
        return engine.solo_key(subset[0])
    trace = tuple((weights_fingerprint(u.weights), u.num_samples) for u in subset)
    return ("fedavg", trace, engine.test_set_id)


def depth_first(updates, prefix=()):
    """Subsets in the serial walk's evaluation order: A, AB, ABC, ..., AC, ..."""
    for index, update in enumerate(updates):
        subset = prefix + (update,)
        yield subset
        yield from depth_first(updates[index + 1 :], subset)


class TestBatching:
    def test_equal_keys_in_one_batch_cost_one_evaluation_and_one_hit(
        self, scratch_model, test_set
    ):
        """A and C carry the same bytes and sample count: the solo pass
        queues A, meets C's equal key before the batch has run, and must
        account for it as the serial walk did — one evaluation, one hit."""
        seen = []
        engine = CombinationEngine(scratch_model, test_set, instrument=seen.append)
        updates = [upd("A", good_weights()), upd("B", bad_weights()), upd("C", good_weights())]
        assert BATCH_WIDTH >= len(updates)  # all three share a batch
        scored = {s.members: s.accuracy for s in engine.enumerate(updates, max_size=1)}
        assert scored == {("A",): 1.0, ("B",): 0.0, ("C",): 1.0}
        assert len(seen) == 2
        assert engine.cache.stats == {"hits": 1, "misses": 2}

    def test_equal_subset_keys_across_a_full_walk(self, scratch_model, test_set):
        """Seven subsets of [A, B, C = A's bytes]: solo C repeats solo A's
        key (traces are ordered, so no pair repeats) — six evaluations and
        one hit, as in the serial walk."""
        engine = CombinationEngine(scratch_model, test_set)
        updates = [upd("A", good_weights()), upd("B", bad_weights()), upd("C", good_weights())]
        reference = enumerate_combinations(updates, scratch_model, test_set)
        scored = engine.enumerate(updates)
        assert [(r.members, r.accuracy) for r in reference] == [
            (s.members, s.accuracy) for s in scored
        ]
        assert engine.cache.stats == {"hits": 1, "misses": 6}

    def test_enumerate_evaluates_in_the_serial_order(self, scratch_model, test_set):
        """Fifteen subsets span two kernel calls; ``instrument`` still sees
        the depth-first order, once each, and a repeat sees nothing."""
        seen = []
        engine = CombinationEngine(scratch_model, test_set, instrument=seen.append)
        updates = random_updates(4)
        assert 2**4 - 1 > BATCH_WIDTH
        engine.enumerate(list(reversed(updates)))  # input order is irrelevant
        assert seen == [key_of(engine, subset) for subset in depth_first(updates)]
        assert engine.cache.stats == {"hits": 0, "misses": 15}
        engine.enumerate(updates)
        assert len(seen) == 15
        assert engine.cache.stats == {"hits": 15, "misses": 15}

    def test_greedy_evaluates_in_the_serial_order(self, scratch_model, test_set):
        """Solos in id order, then each step's candidates in id order after
        the members chosen so far; the last step adds nothing."""
        seen = []
        engine = CombinationEngine(scratch_model, test_set, instrument=seen.append)
        updates = random_updates(10)
        by_id = {update.client_id: update for update in updates}
        result = engine.greedy(updates)
        chosen = [by_id[member] for member in result.members]
        expected = [engine.solo_key(update) for update in updates]
        for step in range(1, len(chosen) + 1):
            rest = [u for u in updates if u.client_id not in result.members[:step]]
            expected += [key_of(engine, (*chosen[:step], candidate)) for candidate in rest]
        assert seen == expected
        assert engine.cache.stats["misses"] == len(expected)
        reference = greedy_combination(updates, scratch_model, test_set)
        assert (result.members, result.accuracy) == (reference.members, reference.accuracy)

    def test_scratch_model_is_never_written(self, scratch_model, test_set):
        """Same parameter arrays, same bytes, after every kind of search —
        also one that raises with candidates already queued."""
        arrays = scratch_model.parameters()
        before = scratch_model.get_weights()
        engine = CombinationEngine(scratch_model, test_set)
        updates = random_updates(5)
        engine.enumerate(updates)
        engine.greedy(updates)
        engine.threshold_filter(updates, threshold=0.0)
        engine.solo_accuracy(updates[0])
        partial = upd("Z", {"head/W": np.zeros((2, 2))})
        with pytest.raises(SelectionError):
            engine.threshold_filter(random_updates(3, seed=8) + [partial], threshold=0.0)
        with pytest.raises(SelectionError):
            engine.enumerate([upd("A", {"head/W": np.zeros((3, 2)), "head/b": np.zeros(2)})] * 2)
        after = scratch_model.parameters()
        for key, value in before.items():
            assert after[key] is arrays[key]
            assert np.array_equal(after[key], value)

    def test_carried_fingerprint_is_used_and_hand_built_updates_are_hashed(
        self, scratch_model, test_set
    ):
        engine = CombinationEngine(scratch_model, test_set)
        hand_built = upd("A", good_weights())
        assert engine.solo_key(hand_built)[0] == weights_fingerprint(hand_built.weights)
        fetched = ModelUpdate("A", good_weights(), 100, fingerprint="known")
        assert engine.solo_key(fetched) == ("known", engine.test_set_id)


class TestInstrumentation:
    def test_hook_fires_only_on_real_evaluations(self, scratch_model, test_set):
        seen = []
        engine = CombinationEngine(scratch_model, test_set, instrument=seen.append)
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        engine.enumerate(updates)
        assert len(seen) == 3  # A, B, A+B
        engine.enumerate(updates)
        engine.threshold_filter(updates, threshold=0.0)
        assert len(seen) == 3  # everything above was a cache hit


class TestEngineSearches:
    def test_enumerate_matches_reference_ordering(self, scratch_model, test_set):
        updates = [upd("B", good_weights()), upd("A", good_weights()), upd("C", bad_weights())]
        reference = enumerate_combinations(updates, scratch_model, test_set)
        engine = CombinationEngine(scratch_model, test_set)
        scored = engine.enumerate(updates)
        assert [(r.members, r.accuracy) for r in reference] == [
            (s.members, s.accuracy) for s in scored
        ]

    @pytest.mark.parametrize("max_size", [0, 1])
    def test_min_size_above_max_size_is_empty(self, scratch_model, test_set, max_size):
        """min_size > max_size is the reference's empty size range — not
        a backdoor to the solo fast path."""
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        reference = enumerate_combinations(
            updates, scratch_model, test_set, min_size=2, max_size=max_size
        )
        engine = CombinationEngine(scratch_model, test_set)
        assert engine.enumerate(updates, min_size=2, max_size=max_size) == reference == []

    def test_empty_and_bad_min_size_rejected(self, scratch_model, test_set):
        engine = CombinationEngine(scratch_model, test_set)
        with pytest.raises(SelectionError):
            engine.enumerate([])
        with pytest.raises(SelectionError):
            engine.enumerate([upd("A", good_weights())], min_size=0)
        with pytest.raises(SelectionError):
            engine.greedy([])
        with pytest.raises(SelectionError):
            engine.greedy([upd("A", good_weights())], seed_client="Z")

    #: Each way an update reaches the engine.
    SEARCHES = {
        "enumerate": lambda engine, updates: engine.enumerate(updates),
        "greedy": lambda engine, updates: engine.greedy(updates),
        "seeded_greedy": lambda engine, updates: engine.greedy(updates, seed_client="A"),
        "threshold_filter": lambda engine, updates: engine.threshold_filter(updates, 0.0),
    }

    @pytest.mark.parametrize("search", [*SEARCHES, "test_set"])
    def test_a_dtype_other_than_the_models_is_refused(self, scratch_model, test_set, search):
        """Rows are one vector of the model's float dtype: a float32 update
        on a float64 model is a SelectionError wherever it is scored, also
        after a float64 one, and a float32 test set is a ConfigError."""
        if search == "test_set":
            with pytest.raises(ConfigError, match="dtype"):
                CombinationEngine(scratch_model, Dataset(test_set.x.astype(np.float32), test_set.y))
            return
        float32 = {name: value.astype(np.float32) for name, value in good_weights().items()}
        engine = CombinationEngine(scratch_model, test_set)
        with pytest.raises(SelectionError, match="dtype"):
            self.SEARCHES[search](engine, [upd("A", good_weights()), upd("B", float32)])
        assert engine._rows is None

    def test_engine_aggregates_only_by_fedavg(self, scratch_model, test_set):
        """Other aggregators are the serial reference's business; the engine
        takes no ``aggregator`` and has nothing to fall back from."""
        with pytest.raises(TypeError):
            CombinationEngine(scratch_model, test_set, aggregator=None)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_validation(self, scratch_model, test_set, batch_size):
        """A negative batch size used to score every candidate 0.0."""
        with pytest.raises(ConfigError):
            CombinationEngine(scratch_model, test_set, batch_size=batch_size)
