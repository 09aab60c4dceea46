"""Tests for FedAvg."""

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.fl.aggregation import ModelUpdate, fedavg


def update(client_id, value, n=100, shape=(2, 2)):
    return ModelUpdate(
        client_id=client_id,
        weights={"w": np.full(shape, float(value)), "b": np.full((2,), float(value))},
        num_samples=n,
    )


class TestModelUpdate:
    def test_valid(self):
        assert update("A", 1.0).client_id == "A"

    def test_zero_samples_rejected(self):
        with pytest.raises(AggregationError):
            update("A", 1.0, n=0)

    def test_empty_weights_rejected(self):
        with pytest.raises(AggregationError):
            ModelUpdate(client_id="A", weights={}, num_samples=10)


class TestFedAvg:
    def test_equal_weights_plain_mean(self):
        result = fedavg([update("A", 1.0), update("B", 3.0)])
        np.testing.assert_allclose(result["w"], 2.0)
        np.testing.assert_allclose(result["b"], 2.0)

    def test_sample_count_weighting(self):
        result = fedavg([update("A", 0.0, n=300), update("B", 4.0, n=100)])
        np.testing.assert_allclose(result["w"], 1.0)  # (300*0 + 100*4) / 400

    def test_single_update_identity(self):
        single = update("A", 7.0)
        result = fedavg([single])
        np.testing.assert_allclose(result["w"], single.weights["w"])

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            fedavg([])

    def test_mismatched_keys_rejected(self):
        a = update("A", 1.0)
        b = ModelUpdate(client_id="B", weights={"other": np.ones(2)}, num_samples=10)
        with pytest.raises(AggregationError):
            fedavg([a, b])

    def test_mismatched_shapes_rejected(self):
        a = update("A", 1.0)
        b = update("B", 1.0, shape=(3, 3))
        with pytest.raises(AggregationError):
            fedavg([a, b])

    def test_result_independent_of_inputs(self):
        a, b = update("A", 1.0), update("B", 3.0)
        result = fedavg([a, b])
        result["w"][...] = 999.0
        np.testing.assert_allclose(a.weights["w"], 1.0)

    def test_preserves_key_set(self):
        result = fedavg([update("A", 1.0), update("B", 2.0)])
        assert set(result) == {"w", "b"}


class TestUniformAverage:
    def test_matches_fedavg_for_equal_counts(self):
        updates = [update("A", 1.0), update("B", 5.0)]
        mean = np.mean([u.weights["w"] for u in updates], axis=0)
        np.testing.assert_allclose(fedavg(updates)["w"], mean)


class TestRobustAggregators:
    def test_fedavg_corrupted_by_outlier(self):
        updates = [update("A", 1.0), update("B", 1.0), update("C", 1000.0)]
        assert fedavg(updates)["w"][0, 0] > 100  # vulnerable baseline
