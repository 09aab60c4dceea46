"""Tests for combination selection ('consider' aggregation)."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.errors import SelectionError
from repro.fl.aggregation import ModelUpdate, fedavg
from repro.fl.selection import (
    CombinationResult,
    best_combination,
    enumerate_combinations,
    greedy_combination,
    pick_best,
    threshold_filter,
)
from repro.nn.layers import Dense
from repro.nn.model import Sequential


@pytest.fixture
def scratch_model():
    """1-layer linear model over 2 features, 2 classes."""
    return Sequential([Dense(2, name="head")]).build(np.random.default_rng(0), (2,))


@pytest.fixture
def test_set():
    """Class = which feature is larger; trivially separable."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    y = (x[:, 1] > x[:, 0]).astype(np.int64)
    return Dataset(x, y)


def good_weights():
    """Weights that classify the test_set perfectly."""
    return {"head/W": np.array([[1.0, -1.0], [-1.0, 1.0]]), "head/b": np.zeros(2)}


def bad_weights():
    """Weights that classify everything inverted."""
    return {"head/W": np.array([[-1.0, 1.0], [1.0, -1.0]]), "head/b": np.zeros(2)}


def upd(client_id, weights, n=100):
    return ModelUpdate(client_id=client_id, weights=weights, num_samples=n)


class TestEnumerate:
    def test_counts_all_subsets(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", good_weights()), upd("C", good_weights())]
        results = enumerate_combinations(updates, scratch_model, test_set)
        assert len(results) == 7  # 2^3 - 1

    def test_size_bounds(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", good_weights()), upd("C", good_weights())]
        pairs = enumerate_combinations(updates, scratch_model, test_set, min_size=2, max_size=2)
        assert len(pairs) == 3
        assert all(len(r.members) == 2 for r in pairs)

    def test_sorted_by_accuracy(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        results = enumerate_combinations(updates, scratch_model, test_set)
        assert results[0].members == ("A",)
        assert results[0].accuracy >= results[-1].accuracy
        assert results[-1].members == ("B",)

    def test_labels(self, scratch_model, test_set):
        updates = [upd("B", good_weights()), upd("A", good_weights())]
        results = enumerate_combinations(updates, scratch_model, test_set)
        labels = {r.label for r in results}
        assert labels == {"A", "B", "A,B"}

    def test_empty_updates_rejected(self, scratch_model, test_set):
        with pytest.raises(SelectionError):
            enumerate_combinations([], scratch_model, test_set)

    def test_invalid_min_size(self, scratch_model, test_set):
        with pytest.raises(SelectionError):
            enumerate_combinations([upd("A", good_weights())], scratch_model, test_set, min_size=0)

    def test_every_result_is_the_fedavg_of_its_members(self, scratch_model, test_set):
        rng = np.random.default_rng(2)
        updates = [
            upd(name, {"head/W": rng.normal(size=(2, 2)), "head/b": rng.normal(size=2)}, n=n)
            for name, n in (("A", 30), ("B", 100), ("C", 7))
        ]
        by_id = {update.client_id: update for update in updates}
        for result in enumerate_combinations(updates, scratch_model, test_set):
            wanted = fedavg([by_id[member] for member in result.members])
            assert result.weights.keys() == wanted.keys()
            for key, value in result.weights.items():
                assert value.tobytes() == wanted[key].tobytes(), (result.label, key)

    def test_model_unchanged_by_evaluation(self, scratch_model, test_set):
        before = scratch_model.get_weights()
        enumerate_combinations([upd("A", good_weights())], scratch_model, test_set)
        after = scratch_model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestBestCombination:
    def test_picks_best(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        best = best_combination(updates, scratch_model, test_set)
        assert best.members == ("A",)

    def test_tie_break_deterministic_without_rng(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", good_weights())]
        best = best_combination(updates, scratch_model, test_set)
        # A, B, and A,B all tie at 100%; lexicographically-first wins.
        assert best.members == ("A",)

    def test_tie_break_random_with_rng(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", good_weights())]
        seen = set()
        for seed in range(10):
            best = best_combination(updates, scratch_model, test_set, rng=np.random.default_rng(seed))
            seen.add(best.members)
        assert len(seen) > 1  # the paper's random tie-break is exercised


class TestPickBest:
    """The shared tie-break used by best_combination, the decentralized
    orchestrator, and the scoring engine: its RNG consumption is the
    contract that keeps all three streams aligned."""

    @staticmethod
    def results(*accuracies):
        return [
            CombinationResult(members=(chr(ord("A") + i),), accuracy=acc, weights={})
            for i, acc in enumerate(accuracies)
        ]

    def test_no_draw_without_tie(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        chosen = pick_best(self.results(0.9, 0.8, 0.7), rng)
        assert chosen.members == ("A",)
        assert rng.bit_generator.state == before  # untouched

    def test_no_draw_without_rng(self):
        chosen = pick_best(self.results(0.9, 0.9, 0.7))
        assert chosen.members == ("A",)  # lexicographically-first winner

    def test_exactly_one_draw_per_tie(self):
        rng = np.random.default_rng(5)
        shadow = np.random.default_rng(5)
        results = self.results(0.9, 0.9, 0.9, 0.2)
        chosen = pick_best(results, rng)
        expected = results[int(shadow.integers(0, 3))]  # one draw over the 3 ties
        assert chosen is expected
        assert rng.bit_generator.state == shadow.bit_generator.state

    def test_best_combination_consumes_identically(self, scratch_model, test_set):
        """best_combination's draws are exactly pick_best's draws."""
        updates = [upd("A", good_weights()), upd("B", good_weights())]
        results = enumerate_combinations(updates, scratch_model, test_set)
        for seed in range(5):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            via_function = best_combination(updates, scratch_model, test_set, rng=rng_a)
            via_helper = pick_best(results, rng_b)
            assert via_function.members == via_helper.members
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestThresholdFilter:
    def test_drops_below_threshold(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        kept = threshold_filter(updates, scratch_model, test_set, threshold=0.5)
        assert [u.client_id for u in kept] == ["A"]

    def test_always_keep_self(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        kept = threshold_filter(updates, scratch_model, test_set, threshold=0.5, always_keep="B")
        assert {u.client_id for u in kept} == {"A", "B"}

    def test_nothing_passes_raises(self, scratch_model, test_set):
        updates = [upd("B", bad_weights())]
        with pytest.raises(SelectionError):
            threshold_filter(updates, scratch_model, test_set, threshold=0.99)


class TestGreedy:
    def test_greedy_finds_good_model(self, scratch_model, test_set):
        updates = [upd("A", bad_weights()), upd("B", good_weights()), upd("C", bad_weights())]
        result = greedy_combination(updates, scratch_model, test_set)
        assert "B" in result.members
        assert result.accuracy > 0.9

    def test_greedy_stops_when_no_improvement(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", bad_weights())]
        result = greedy_combination(updates, scratch_model, test_set)
        assert result.members == ("A",)  # adding B would only hurt

    def test_seed_client_respected(self, scratch_model, test_set):
        updates = [upd("A", bad_weights()), upd("B", good_weights())]
        result = greedy_combination(updates, scratch_model, test_set, seed_client="A")
        assert result.members[0] == "A"

    def test_unknown_seed_rejected(self, scratch_model, test_set):
        with pytest.raises(SelectionError):
            greedy_combination([upd("A", good_weights())], scratch_model, test_set, seed_client="Z")

    def test_empty_rejected(self, scratch_model, test_set):
        with pytest.raises(SelectionError):
            greedy_combination([], scratch_model, test_set)

    def test_result_is_the_fedavg_of_its_members(self, scratch_model, test_set):
        # A and C each lean to one class; only their average is unbiased.
        lean = {"A": np.array([0.5, -0.5]), "C": np.array([-0.5, 0.5])}
        updates = [
            upd("A", {**good_weights(), "head/b": lean["A"]}),
            upd("B", bad_weights(), n=10),
            upd("C", {**good_weights(), "head/b": lean["C"]}),
        ]
        by_id = {update.client_id: update for update in updates}
        result = greedy_combination(updates, scratch_model, test_set)
        assert len(result.members) == 2
        wanted = fedavg([by_id[member] for member in result.members])
        for key, value in result.weights.items():
            assert value.tobytes() == wanted[key].tobytes(), key

    def test_greedy_matches_exhaustive_on_small_case(self, scratch_model, test_set):
        updates = [upd("A", good_weights()), upd("B", bad_weights()), upd("C", good_weights())]
        greedy = greedy_combination(updates, scratch_model, test_set)
        exhaustive = best_combination(updates, scratch_model, test_set)
        assert greedy.accuracy == pytest.approx(exhaustive.accuracy, abs=0.02)
