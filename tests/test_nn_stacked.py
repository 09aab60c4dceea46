"""Property suite for the stacked inference pass.

``Sequential.predict_stacked`` / ``evaluate_stacked`` score several
candidate weight sets against one input in a single sweep.  The contract
pinned here is *bitwise*: candidate ``c``'s logits are ``np.array_equal``
to ``Sequential.predict`` with candidate ``c`` installed, and its accuracy
equals ``evaluate_accuracy`` — for random ``Dense`` / ``ReLU`` stacks over
flat input and the paper's two model shapes; for every candidate count up
to the engine's batch width; for test sets shorter and longer than
``batch_size``.

Whether one wide GEMM reproduces the per-candidate products depends on
the BLAS, the operand shapes and the thread count, which is why CI runs
this file twice (``OPENBLAS_NUM_THREADS=1`` and the default).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, ShapeError
from repro.fl.scoring import BATCH_WIDTH
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.models import build_efficientnet_b0_sim, build_simple_nn


def random_candidates(model, count, rng):
    return [
        {key: rng.normal(size=value.shape) for key, value in model.parameters().items()}
        for _ in range(count)
    ]


def stack_of(model, candidates, width=BATCH_WIDTH):
    stack = model.candidate_stack(width)
    for slot, candidate in enumerate(candidates):
        for key, value in candidate.items():
            stack[key][slot] = value
    return stack


def assert_stacked_equals_installed(model, x, y, count, batch_size, seed=0):
    """The whole contract for one model, input and candidate count."""
    rng = np.random.default_rng(seed)
    candidates = random_candidates(model, count, rng)
    stack = stack_of(model, candidates)
    own = model.get_weights()
    # The first pass over a new shape settles whether the wide GEMM may be
    # used for it; the second is the pass every later call takes.
    first = model.predict_stacked(x, stack, count)
    logits = model.predict_stacked(x, stack, count)
    assert np.array_equal(first, logits)
    accuracies = model.evaluate_stacked(x, y, stack, count, batch_size=batch_size)
    for key, value in model.parameters().items():  # never written
        assert np.array_equal(value, own[key])
    assert len(logits) == len(accuracies) == count
    for slot, candidate in enumerate(candidates):
        model.set_weights(candidate)
        assert np.array_equal(logits[slot], model.predict(x))
        assert accuracies[slot] == model.evaluate_accuracy(x, y, batch_size=batch_size)


counts = st.integers(min_value=1, max_value=BATCH_WIDTH)


@st.composite
def dense_stacks(draw):
    """A random MLP: optional leading ReLU, 1-3 Dense layers, ReLUs."""
    fan_in = draw(st.integers(min_value=1, max_value=12))
    layers = [ReLU()] if draw(st.booleans()) else []
    depth = draw(st.integers(min_value=1, max_value=3))
    for index in range(depth):
        layers.append(Dense(draw(st.integers(min_value=1, max_value=9)), name=f"d{index}"))
        if index < depth - 1 and draw(st.booleans()):
            layers.append(ReLU())
    model = Sequential(layers).build(np.random.default_rng(0), (fan_in,))
    return model, fan_in


class TestStackedEqualsInstalled:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        built=dense_stacks(),
        rows=st.integers(min_value=1, max_value=48),
        count=counts,
        batch_size=st.integers(min_value=1, max_value=64),
        seed=st.integers(0, 2**16),
    )
    def test_random_dense_stacks(self, built, rows, count, batch_size, seed):
        model, fan_in = built
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, fan_in))
        y = rng.integers(0, model.output_shape[0], size=rows)
        assert_stacked_equals_installed(model, x, y, count, batch_size, seed)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        rows=st.sampled_from([1, 3, 16, 37, 150, 200]),
        count=counts,
        batch_size=st.sampled_from([64, 512]),
    )
    def test_simple_nn_shape(self, rows, count, batch_size):
        rng = np.random.default_rng(rows)
        model = build_simple_nn(rng)
        x = rng.normal(size=(rows, 3072))
        y = rng.integers(0, 10, size=rows)
        assert_stacked_equals_installed(model, x, y, count, batch_size)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        rows=st.sampled_from([1, 5, 40, 150]),
        count=counts,
        batch_size=st.sampled_from([32, 512]),
    )
    def test_efficientnet_b0_sim_shape(self, rows, count, batch_size):
        """The trunk has no parameters, so it runs once on the input all
        candidates share and only the head runs per candidate."""
        rng = np.random.default_rng(rows)
        backbone = (rng.normal(size=(96, 8)), rng.normal(size=(24, 8)))
        model = build_efficientnet_b0_sim(rng, input_dim=96, backbone=backbone)
        x = rng.normal(size=(rows, 96))
        y = rng.integers(0, 10, size=rows)
        assert_stacked_equals_installed(model, x, y, count, batch_size)

    def test_parameterless_model_broadcasts(self):
        model = Sequential([ReLU()]).build(np.random.default_rng(0), (4,))
        x = np.arange(-4.0, 4.0).reshape(2, 4)
        out = model.predict_stacked(x, model.candidate_stack(3), 3)
        assert out.shape == (3, 2, 4)
        assert all(np.array_equal(out[slot], model.predict(x)) for slot in range(3))


class TestStackedValidation:
    def test_wrong_input_width_is_a_shape_error(self):
        model = Sequential([Dense(2, name="head")]).build(np.random.default_rng(0), (2,))
        with pytest.raises(ShapeError):
            model.predict_stacked(np.zeros((4, 7)), model.candidate_stack(2), 2)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_evaluate_accuracy_rejects_batch_size_below_one(self, batch_size):
        """A negative batch size used to return 0.0; zero raised a bare
        ValueError from ``range``."""
        model = Sequential([Dense(2, name="head")]).build(np.random.default_rng(0), (2,))
        x, y = np.zeros((4, 2)), np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigError):
            model.evaluate_accuracy(x, y, batch_size=batch_size)
        with pytest.raises(ConfigError):
            model.evaluate_stacked(x, y, model.candidate_stack(1), 1, batch_size=batch_size)

    def test_empty_test_set_scores_zero(self):
        model = Sequential([Dense(2, name="head")]).build(np.random.default_rng(0), (2,))
        x, y = np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
        assert model.evaluate_stacked(x, y, model.candidate_stack(2), 2) == [0.0, 0.0]
        assert model.evaluate_accuracy(x, y) == 0.0
