"""Property-based serial-equivalence suite for the scoring engine.

The determinism contract of :mod:`repro.fl.scoring`: for random cohorts
(3-12 updates, random tie clusters via shared weights, heterogeneous
sample counts), exhaustive and greedy searches through the engine return
*identical* results to the seed implementations in
:mod:`repro.fl.selection` — same members, same accuracies, byte-identical
chosen weights — and consume tie-break RNG draws identically (pinned by
comparing generator states after the search).  ``warm=1`` repeats each
search on the cache the first one filled — every request a hit, nothing
evaluated — and must change nothing.

Hypothesis is derandomized so tier-1 is reproducible; the strategies
deliberately overweight exact ties (cluster members share weight bytes),
the regime where a wrong enumeration order or extra RNG draw shows up.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import Dataset
from repro.fl.aggregation import ModelUpdate
from repro.fl.scoring import CombinationEngine
from repro.fl.selection import (
    best_combination,
    enumerate_combinations,
    greedy_combination,
    threshold_filter,
)
from repro.nn.layers import Dense
from repro.nn.model import Sequential

#: Exhaustive comparisons cap the cohort here (2^n subsets); greedy runs
#: the full 3-12 range the engine is specified for.
EXHAUSTIVE_LIMIT = 6


def build_scratch():
    return Sequential([Dense(3, name="head")]).build(np.random.default_rng(0), (3,))


def build_test_set(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    return Dataset(x, y)


@st.composite
def cohorts(draw, max_size: int = 12):
    """A random cohort with tie clusters.

    Draws ``n`` clients and assigns each to one of ``k <= n`` weight
    clusters; cluster members share byte-identical weights, so subsets
    across clusters frequently tie in accuracy — exercising the
    tie-break path and the content-addressed cache at once.
    """
    n = draw(st.integers(min_value=3, max_value=max_size))
    k = draw(st.integers(min_value=1, max_value=n))
    assignment = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)]
    weights_seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(weights_seed)
    cluster_weights = [
        {
            "head/W": rng.normal(0.0, 1.0, size=(3, 3)),
            "head/b": rng.normal(0.0, 0.5, size=(3,)),
        }
        for _ in range(k)
    ]
    num_samples = [draw(st.integers(min_value=1, max_value=500)) for _ in range(n)]
    updates = [
        ModelUpdate(
            client_id=f"C{index:02d}",
            # Same cluster => same bytes (copied: mutation isolation).
            weights={key: value.copy() for key, value in cluster_weights[assignment[index]].items()},
            num_samples=num_samples[index],
        )
        for index in range(n)
    ]
    test_seed = draw(st.integers(min_value=0, max_value=2**16))
    return updates, test_seed


def assert_same_combination(reference, candidate) -> None:
    assert reference.members == candidate.members
    assert reference.accuracy == candidate.accuracy
    assert set(reference.weights) == set(candidate.weights)
    for key in reference.weights:
        np.testing.assert_array_equal(reference.weights[key], candidate.weights[key])


@pytest.mark.parametrize("warm", [0, 1])
class TestExhaustiveEquivalence:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=cohorts(max_size=EXHAUSTIVE_LIMIT), rng_seed=st.integers(0, 2**16))
    def test_enumerate_and_best(self, warm, data, rng_seed):
        updates, test_seed = data
        model = build_scratch()
        test_set = build_test_set(test_seed)
        engine = CombinationEngine(model, test_set)
        if warm:
            engine.enumerate(updates)

        reference = enumerate_combinations(updates, model, test_set)
        scored = engine.enumerate(updates)
        assert [(r.members, r.accuracy) for r in reference] == [
            (s.members, s.accuracy) for s in scored
        ]

        rng_ref = np.random.default_rng(rng_seed)
        rng_eng = np.random.default_rng(rng_seed)
        best_ref = best_combination(updates, model, test_set, rng=rng_ref)
        best_eng = engine.best(updates, rng=rng_eng)
        assert_same_combination(best_ref, best_eng)
        # Identical RNG consumption: one draw per multi-way tie, none
        # otherwise — the generators must land in the same state.
        assert rng_ref.bit_generator.state == rng_eng.bit_generator.state

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=cohorts(max_size=EXHAUSTIVE_LIMIT), threshold=st.floats(0.0, 1.0))
    def test_threshold_filter(self, warm, data, threshold):
        updates, test_seed = data
        model = build_scratch()
        test_set = build_test_set(test_seed)
        engine = CombinationEngine(model, test_set)
        if warm:
            engine.enumerate(updates, max_size=1)
        try:
            reference = threshold_filter(updates, model, test_set, threshold)
        except Exception as error:
            with pytest.raises(type(error)):
                engine.threshold_filter(updates, threshold)
            return
        kept = engine.threshold_filter(updates, threshold)
        assert [u.client_id for u in reference] == [u.client_id for u in kept]


@pytest.mark.parametrize("warm", [0, 1])
class TestGreedyEquivalence:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=cohorts(max_size=12))
    def test_greedy(self, warm, data):
        updates, test_seed = data
        model = build_scratch()
        test_set = build_test_set(test_seed)
        engine = CombinationEngine(model, test_set)
        if warm:
            engine.greedy(updates)
        reference = greedy_combination(updates, model, test_set)
        candidate = engine.greedy(updates)
        assert_same_combination(reference, candidate)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=cohorts(max_size=8), seed_index=st.integers(0, 7))
    def test_greedy_with_seed_client(self, warm, data, seed_index):
        updates, test_seed = data
        model = build_scratch()
        test_set = build_test_set(test_seed)
        seed_client = updates[seed_index % len(updates)].client_id
        engine = CombinationEngine(model, test_set)
        if warm:
            engine.greedy(updates, seed_client=seed_client)
        reference = greedy_combination(updates, model, test_set, seed_client=seed_client)
        candidate = engine.greedy(updates, seed_client=seed_client)
        assert_same_combination(reference, candidate)


class TestModelStateInvariance:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=cohorts(max_size=EXHAUSTIVE_LIMIT))
    def test_search_leaves_model_untouched(self, data):
        updates, test_seed = data
        model = build_scratch()
        before = model.get_weights()
        engine = CombinationEngine(model, build_test_set(test_seed))
        engine.enumerate(updates)
        engine.greedy(updates)
        after = model.get_weights()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
