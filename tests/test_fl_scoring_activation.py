"""Scoring after the split: rows of pre-activations, a guard, an exact kernel.

``repro.fl.scoring`` averages what the first ``Dense`` *produces* instead
of what it *holds* (module docstring, "Incremental aggregation"), accepts
an argmax count only where the guard says the reassociation cannot reach
it, and re-scores everything else in weight space.  These tests hold the
three searches to the serial reference (:mod:`repro.fl.selection`) on
both registered architectures — a tail after the split, nothing after it —
check that an engine refuses a model it cannot split, force the guard on
every candidate, walk the test-set sizes around ``batch_size``, and measure
the deviation the guard is sized against on the driver-outcome specs.
"""

import gc
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_core_decentralized import OUTCOME_CASES, make_driver
from test_fl_scoring import depth_first, key_of

from repro.data.dataset import Dataset
from repro.errors import ConfigError
from repro.fl import scoring
from repro.fl.aggregation import ModelUpdate
from repro.fl.evaluation import evaluate_weights
from repro.fl.scoring import (
    GUARD,
    CombinationEngine,
    FirstLayerMemo,
    _install_fedavg,
    _decided,
    _PackedSums,
    _split,
)
from repro.fl.selection import enumerate_combinations, greedy_combination, threshold_filter
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.model import Sequential
from repro.nn.models import build_efficientnet_b0_sim, build_simple_nn
from repro.nn.serialize import weights_fingerprint
from repro.scenarios import get_scenario, run_scenario

INPUT_DIM = 48


def simple_nn():
    return build_simple_nn(np.random.default_rng(1), input_dim=INPUT_DIM)


def efficientnet():
    rng = np.random.default_rng(2)
    backbone = (rng.normal(size=(INPUT_DIM, 6)) / 7.0, rng.normal(size=(12, 6)))
    return build_efficientnet_b0_sim(rng, input_dim=INPUT_DIM, backbone=backbone)


#: builder, layers the activation pass stands in for, test samples
ARCHITECTURES = {
    "simple_nn": (simple_nn, 1, 30),
    "efficientnet_b0_sim": (efficientnet, 2, 30),  # backbone + head: nothing after the split
}


def private_test_set(model, samples, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples,) + model.input_shape)
    return Dataset(x, rng.integers(0, 10, size=samples))


def perturbed_updates(model, count, seed=5, spread=0.3):
    """Distinct models around ``model``'s own, distinct sample counts."""
    rng = np.random.default_rng(seed)
    base = model.get_weights()
    return [
        ModelUpdate(
            chr(ord("A") + index),
            {key: value + rng.normal(0.0, spread, value.shape) for key, value in base.items()},
            num_samples=20 + 7 * index,
        )
        for index in range(count)
    ]


def weight_space(subset):
    """The candidate the exact kernel scores: the rows' own left-to-right
    sum, in weight space; a single member is its own weights."""
    if len(subset) == 1:
        return subset[0].weights
    total = sum(update.num_samples for update in subset)
    candidate = {}
    for name in subset[0].weights:
        sums = subset[0].weights[name] * subset[0].num_samples
        for update in subset[1:]:
            sums += update.weights[name] * update.num_samples
        candidate[name] = sums / total
    return candidate


def table(scored):
    return [(result.members, result.accuracy) for result in scored]


@pytest.mark.parametrize("name", ARCHITECTURES)
class TestAgainstSerial:
    def build(self, name, count=4):
        builder, split, samples = ARCHITECTURES[name]
        model = builder()
        assert _split(model) == split
        seen = []
        engine = CombinationEngine(model, private_test_set(model, samples), instrument=seen.append)
        return model, engine, perturbed_updates(model, count), seen

    def test_enumerate(self, name):
        model, engine, updates, seen = self.build(name)
        reference = enumerate_combinations(updates, model, engine.test_set)
        assert table(engine.enumerate(list(reversed(updates)))) == table(reference)
        assert seen == [key_of(engine, subset) for subset in depth_first(updates)]
        assert engine.cache.stats == {"hits": 0, "misses": 15}
        assert table(engine.enumerate(updates)) == table(reference)
        assert engine.cache.stats == {"hits": 15, "misses": 15} and len(seen) == 15
        assert engine._rows is None

    @pytest.mark.parametrize("seed_client", [None, "C"])
    def test_greedy(self, name, seed_client):
        model, engine, updates, seen = self.build(name, count=5)
        reference = greedy_combination(updates, model, engine.test_set, seed_client=seed_client)
        result = engine.greedy(updates, seed_client=seed_client)
        assert (result.members, result.accuracy) == (reference.members, reference.accuracy)
        for key, value in reference.weights.items():
            assert np.array_equal(result.weights[key], value)
        by_id = {update.client_id: update for update in updates}
        chosen = [by_id[member] for member in result.members]
        # Solos in id order (one, when seeded), then every step's candidates
        # in id order after the members chosen so far.
        expected = [engine.solo_key(u) for u in (chosen[:1] if seed_client else updates)]
        for step in range(1, len(chosen) + 1):
            rest = [u for u in updates if u.client_id not in result.members[:step]]
            expected += [key_of(engine, (*chosen[:step], candidate)) for candidate in rest]
        assert seen == expected
        assert engine.cache.stats["misses"] == len(expected)

    def test_threshold_filter(self, name):
        model, engine, updates, seen = self.build(name)
        solos = [evaluate_weights(model, u.weights, engine.test_set) for u in updates]
        threshold = sorted(solos)[1]
        reference = threshold_filter(updates, model, engine.test_set, threshold, always_keep="D")
        kept = engine.threshold_filter(updates, threshold, always_keep="D")
        assert [u.client_id for u in kept] == [u.client_id for u in reference]
        assert seen == [engine.solo_key(u) for u in updates[:3]]
        engine.enumerate(updates)  # the gate's solo scores serve the search
        assert engine.cache.stats == {"hits": 3, "misses": 15}


class Scale(Layer):
    """A one-parameter layer that is not a ``Dense``: ``y = x * s``."""

    def build(self, rng, input_shape):
        self.params = {"s": np.ones(input_shape)}
        self.zero_grads()
        self.built = True
        return input_shape

    def forward(self, x, training=True):
        return x * self.params["s"]


class TestSplit:
    def test_an_engine_refuses_a_model_it_cannot_split(self):
        """FedAvg commutes with a leading ``Dense`` only; any other first
        layer with parameters has no split to score from."""
        model = Sequential([ReLU(), Scale(), Dense(10, name="head")])
        model.build(np.random.default_rng(0), (INPUT_DIM,))
        with pytest.raises(ConfigError, match="Dense"):
            CombinationEngine(model, private_test_set(model, 6))


class TestGuard:
    """Candidates the guard cannot vouch for are re-scored in weight space."""

    def exact_table(self, model, test_set, updates):
        return {
            tuple(u.client_id for u in subset): evaluate_weights(
                model, weight_space(subset), test_set
            )
            for subset in depth_first(updates)
        }

    def test_zero_head_rechecks_every_candidate(self):
        model = simple_nn()
        updates = perturbed_updates(model, 4)
        for update in updates:
            update.weights["head/W"][:] = 0.0
            update.weights["head/b"][:] = 0.0
        engine = CombinationEngine(model, private_test_set(model, 30))
        scored = {result.members: result.accuracy for result in engine.enumerate(updates)}
        assert engine.rechecked == engine.cache.stats["misses"] == 15
        assert scored == self.exact_table(model, engine.test_set, updates)
        assert table(engine.enumerate(updates)) == table(
            enumerate_combinations(updates, model, engine.test_set)
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_and_inf_fail_the_guard(self):
        model = simple_nn()
        updates = perturbed_updates(model, 4)
        updates[0].weights["head/b"][0] = np.nan
        updates[0].weights["head/b"][1] = np.inf
        updates[0].weights["hidden1/W"][3, 2] = -np.inf
        engine = CombinationEngine(model, private_test_set(model, 30))
        scored = {result.members: result.accuracy for result in engine.enumerate(updates)}
        assert engine.rechecked >= 8  # every subset that holds the poisoned update
        assert scored == self.exact_table(model, engine.test_set, updates)
        engine = CombinationEngine(model, engine.test_set)
        engine.greedy(updates, seed_client="A")  # every candidate holds it
        assert engine.rechecked == engine.cache.stats["misses"] - 1  # the seed is a raw dict

    @staticmethod
    def partition_oracle(logits):
        """The guard as first written: top two by ``np.partition``."""
        if logits.shape[2] < 2:
            return np.ones(len(logits), dtype=bool)
        top = np.partition(logits, -2, axis=2)
        with np.errstate(invalid="ignore", over="ignore"):
            gap = top[:, :, -1] - top[:, :, -2]
            reach = GUARD * np.abs(logits).max(axis=(1, 2))
            return (gap > reach[:, None]).all(axis=1)

    #: Values that make ties, near-guard gaps, signed zeros and non-finite
    #: logits likely, beside arbitrary floats.
    EDGES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1.0 + 1e-6,
             1.0 + 2e-6, 1.0 - 1e-6, 5e-324, 1e308, -1e308]

    @settings(max_examples=300, deadline=None)
    @given(
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=st.tuples(*[st.integers(1, 6)] * 3),
        data=st.data(),
    )
    def test_decided_matches_the_partition_oracle(self, dtype, shape, data):
        elements = st.one_of(st.sampled_from(self.EDGES), st.floats())
        size = int(np.prod(shape))
        values = data.draw(st.lists(elements, min_size=size, max_size=size))
        with np.errstate(over="ignore"):  # 1e308 is inf in float32
            logits = np.array(values).astype(dtype).reshape(shape)
        before = logits.tobytes()
        expected = self.partition_oracle(logits)
        np.testing.assert_array_equal(_decided(logits), expected)
        assert logits.tobytes() == before

    def test_decided_on_the_named_edges(self):
        cases = {
            "clear winner": ([[3.0, 1.0, 0.0]], True),
            "exact tie for the top": ([[3.0, 3.0, 0.0]], False),
            "all zeros": ([[0.0, -0.0, 0.0]], False),
            "inside the guard": ([[1.0 + 1e-7, 1.0, 0.0]], False),
            "outside the guard": ([[1.0 + 1e-5, 1.0, 0.0]], True),
            "nan elsewhere": ([[3.0, 1.0, 0.0], [np.nan, 1.0, 0.0]], False),
            "inf top": ([[np.inf, 1.0, 0.0]], False),
            "-inf runner-up": ([[3.0, -np.inf, 0.0]], False),
            "two inf and a finite": ([[np.inf, np.inf, 5.0]], False),
        }
        for name, (rows, verdict) in cases.items():
            logits = np.array([rows])
            assert self.partition_oracle(logits)[0] == verdict, name
            assert _decided(logits)[0] == verdict, name

    def test_the_clean_case_rechecks_nothing(self):
        model = simple_nn()
        engine = CombinationEngine(model, private_test_set(model, 30))
        engine.enumerate(perturbed_updates(model, 4))
        assert engine.rechecked == 0

    def test_the_clean_case_allocates_no_recheck_stack(self, monkeypatch):
        """The exact kernel's room is made on first need: searches whose row
        sums the guard vouches for never allocate one."""
        built = []
        candidate_stack = Sequential.candidate_stack

        def counting(model, width):
            built.append(width)
            return candidate_stack(model, width)

        monkeypatch.setattr(Sequential, "candidate_stack", counting)
        model = simple_nn()
        updates = perturbed_updates(model, 4)
        engine = CombinationEngine(model, private_test_set(model, 30))
        engine.enumerate(updates)
        engine.greedy(updates)
        assert engine.rechecked == 0 and engine.cache.stats["misses"] > 0
        assert built == []

    def test_a_recheck_stack_goes_when_its_search_returns(self, monkeypatch):
        """Every candidate is rechecked, so every batch allocates the exact
        kernel's stack; with the cyclic collector off, each one is freed by
        the time its search returns."""
        built = []
        candidate_stack = Sequential.candidate_stack

        def recording(model, width):
            stack = candidate_stack(model, width)
            built.extend(
                weakref.ref(room if room.base is None else room.base) for room in stack.values()
            )
            return stack

        monkeypatch.setattr(Sequential, "candidate_stack", recording)
        model = simple_nn()
        updates = perturbed_updates(model, 4)
        for update in updates:
            update.weights["head/W"][:] = 0.0
            update.weights["head/b"][:] = 0.0
        engine = CombinationEngine(model, private_test_set(model, 30))
        gc.disable()
        try:
            engine.enumerate(updates)
            engine.greedy(updates)
            alive = [ref for ref in built if ref() is not None]
        finally:
            gc.enable()
        assert built and engine.rechecked == engine.cache.stats["misses"]
        assert alive == []


class TestSizes:
    """The activation pass and the scoring after it walk the test set in
    ``batch_size`` chunks, like the exact kernel: no third path above it."""

    BATCH = 4

    @pytest.mark.parametrize("samples", [0, 1, BATCH, BATCH + 1])
    @pytest.mark.parametrize("name", ["simple_nn", "efficientnet_b0_sim"])
    def test_around_batch_size(self, name, samples):
        model = ARCHITECTURES[name][0]()
        test_set = private_test_set(model, samples)
        updates = perturbed_updates(model, 4)
        engine = CombinationEngine(model, test_set, batch_size=self.BATCH)
        reference = enumerate_combinations(updates, model, test_set)
        assert table(engine.enumerate(updates)) == table(reference)
        greedy = engine.greedy(updates)
        serial = greedy_combination(updates, model, test_set)
        assert (greedy.members, greedy.accuracy) == (serial.members, serial.accuracy)
        assert engine.rechecked == 0


class TestFirstLayerStack:
    """A shard's viewers share one first-layer stack through the shard's
    :class:`FirstLayerMemo`: built once when their views agree, rebuilt when
    they do not, dropped at the next round and with the run."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Per stack built, not served from a memo's entry: the memo and
        the updates the stack covers."""
        built = []
        stack = FirstLayerMemo.stack

        def counting(memo, missing, *rest):
            entry = memo._entry
            result = stack(memo, missing, *rest)
            if memo._entry is not entry:
                built.append((memo, [update for _key, update in missing]))
            return result

        monkeypatch.setattr(FirstLayerMemo, "stack", counting)
        return built

    def test_a_wait_for_all_round_builds_it_once(self, builds):
        driver = make_driver(rounds=1, peers=("A", "B", "C", "D"))
        driver.run()
        views = {peer_id: driver.peers[peer_id].visible_submissions(1) for peer_id in driver.peers}
        assert all(len(view) == 4 for view in views.values())
        assert [(memo, len(updates)) for memo, updates in builds] == [(driver.shard.first_layer, 4)]
        assert all(engine.first_layer is builds[0][0] for engine in driver.shard.engines.values())

    def test_views_that_differ_by_one_update_rebuild_it(self, builds):
        model = simple_nn()
        updates = perturbed_updates(model, 5)
        memo = FirstLayerMemo()
        for view in (updates[:4], updates[:3] + updates[4:]):
            test_set = private_test_set(model, 30, seed=len(builds))
            engine = CombinationEngine(model, test_set, first_layer=memo)
            reference = enumerate_combinations(view, model, test_set)
            assert table(engine.enumerate(view)) == table(reference)
            assert engine.rechecked == 0
        assert [[u.client_id for u in built] for _memo, built in builds] == [
            list("ABCD"),
            list("ABCE"),
        ]

    def test_a_memo_serves_one_view_until_cleared(self, builds):
        """The same row keys get the same stack back; ``clear`` frees it."""
        model = simple_nn()
        updates = perturbed_updates(model, 3)
        missing = [((weights_fingerprint(u.weights), u.num_samples), u) for u in updates]
        dense = model.layers[0]
        head = [f"{dense.name}/{name}" for name in dense.params]
        memo = FirstLayerMemo()
        first = memo.stack(missing, head, np.float64)
        assert memo.stack(list(missing), head, np.float64) is first
        assert len(builds) == 1
        for name, part in zip(head, first):
            assert part.flags.c_contiguous
            np.testing.assert_array_equal(part, np.concatenate([u.weights[name] for u in updates], -1))
        refs = [weakref.ref(part) for part in first]
        del first, part
        memo.clear()
        assert all(ref() is None for ref in refs)

    def test_shards_never_share_it_and_a_new_round_drops_it(self, builds):
        """Two runs of one spec: the same views, one stack per shard."""
        drivers = [make_driver(rounds=1) for _ in range(2)]
        for driver in drivers:
            driver.run()
        memos = [driver.shard.first_layer for driver in drivers]
        assert [memo for memo, _updates in builds] == memos and memos[0] is not memos[1]
        stacks = [memo._entry[1] for memo in memos]
        assert all(a is not b for a, b in zip(*stacks))
        assert all(np.array_equal(a, b) for a, b in zip(*stacks))
        drivers[0].shard._begin_round(2)
        assert memos[0]._entry is None and memos[1]._entry is not None

    def test_nothing_outlives_the_run(self, monkeypatch):
        """After a run returns, the scorer's module holds no array and the
        run's first-layer stacks are garbage."""
        built = []
        stack = FirstLayerMemo.stack

        def recording(memo, *args):
            result = stack(memo, *args)
            built.extend(weakref.ref(part) for part in result)
            return result

        monkeypatch.setattr(FirstLayerMemo, "stack", recording)
        (spec,) = get_scenario("cohort/25").build(seed=1, quick=True)
        run_scenario(spec)
        gc.collect()
        assert arrays_in(vars(scoring)) == []
        assert built and all(ref() is None for ref in built)


def arrays_in(value, seen=None):
    """Every ndarray reachable from ``value`` through containers and the
    classes :mod:`repro.fl.scoring` defines."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = list(value)
    elif isinstance(value, type) and value.__module__ == scoring.__name__:
        items = list(vars(value).values())
    else:
        return []
    return [array for item in items for array in arrays_in(item, seen)]


def deviation(engine, updates):
    """Largest ``|row-space logit - weight-space logit|`` over the largest
    ``|weight-space logit|``, over every subset of ``updates``."""
    fingerprints = [weights_fingerprint(update.weights) for update in updates]
    workspace = engine.model.candidate_stack(1)
    worst = 0.0
    engine._rows = {}
    try:
        packed = _PackedSums(engine, updates, fingerprints, 1)
        for size in range(1, len(updates) + 1):
            for subset in combinations(range(len(updates)), size):
                sums = packed.scaled[subset[0]].copy()
                for index in subset[1:]:
                    sums += packed.scaled[index]
                members = [updates[index] for index in subset]
                packed.divide_into(sums, sum(u.num_samples for u in members), 0)
                fast = engine.model.predict_stacked(
                    packed.inputs[:1], packed.stack, 1, start=engine.split
                )
                _install_fedavg(workspace, members, 0)
                exact = engine.model.predict_stacked(engine.test_set.x, workspace, 1)
                worst = max(worst, np.abs(fast - exact).max() / np.abs(exact).max())
    finally:
        engine._rows = None
    return worst


@pytest.mark.parametrize("case", OUTCOME_CASES)
def test_deviation_is_a_thousand_times_under_the_guard(case):
    """What GUARD is sized against, measured where the digests are pinned:
    every viewer x every subset of a round's updates of each outcome spec."""
    driver = make_driver(**OUTCOME_CASES[case])
    driver.run()
    records = {peer_id: driver.peers[peer_id].visible_submissions(1) for peer_id in driver.peers}
    worst = max(
        deviation(engine, driver.shard.view(1, peer_id, records[peer_id]))
        for peer_id, engine in driver.shard.engines.items()
    )
    assert worst * 1e3 < GUARD
