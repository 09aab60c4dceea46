"""Tests for neural-network layers (shapes, semantics, freezing)."""

import numpy as np
import pytest

from repro.data.synthetic import FLAT_DIM, IMAGE_SHAPE
from repro.errors import NotBuiltError, ShapeError
from repro.nn.initializers import he_init, zeros_init
from repro.nn.layers import Dense, PretrainedRBFBackbone, ReLU


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestInitializers:
    @pytest.mark.parametrize("fan_in", [1, 20, FLAT_DIM])
    def test_he_std_follows_fan_in(self, fan_in):
        weights = he_init(np.random.default_rng(fan_in), (200, 100), fan_in=fan_in)
        assert weights.dtype == np.float64 and weights.shape == (200, 100)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.03)
        assert abs(weights.mean()) < 0.05 * np.sqrt(2.0 / fan_in)

    def test_he_needs_fan_in(self):
        """No fan-in is guessed from the shape: the caller states it."""
        with pytest.raises(TypeError, match="fan_in"):
            he_init(np.random.default_rng(0), (4, 3))

    def test_he_zero_fan_in_draws_like_one(self):
        zero = he_init(np.random.default_rng(3), (5, 2), fan_in=0)
        one = he_init(np.random.default_rng(3), (5, 2), fan_in=1)
        np.testing.assert_array_equal(zero, one)

    def test_he_is_a_function_of_the_generator(self):
        a = he_init(np.random.default_rng(9), (6, 4), fan_in=6)
        b = he_init(np.random.default_rng(9), (6, 4), fan_in=6)
        np.testing.assert_array_equal(a, b)

    def test_zeros(self):
        bias = zeros_init((7,))
        assert bias.dtype == np.float64 and bias.shape == (7,)
        assert not bias.any()


class TestDense:
    def test_build_draws_he_weights_and_zero_bias(self):
        layer = Dense(50)
        layer.build(np.random.default_rng(4), (FLAT_DIM,))
        expected = he_init(np.random.default_rng(4), (FLAT_DIM, 50), fan_in=FLAT_DIM)
        np.testing.assert_array_equal(layer.params["W"], expected)
        np.testing.assert_array_equal(layer.params["b"], np.zeros(50))

    def test_build_rejects_image_shaped_input(self, rng):
        """Samples are flat vectors: an (H, W, C) input shape is an error."""
        with pytest.raises(ShapeError, match="flat input"):
            Dense(4).build(rng, IMAGE_SHAPE)

    def test_forward_rejects_image_shaped_batch(self, rng):
        layer = Dense(4)
        layer.build(rng, (FLAT_DIM,))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, *IMAGE_SHAPE)))

    def test_output_shape(self, rng):
        layer = Dense(8)
        assert layer.build(rng, (5,)) == (8,)
        out = layer.forward(rng.normal(size=(3, 5)))
        assert out.shape == (3, 8)

    def test_linear_relation(self, rng):
        layer = Dense(2)
        layer.build(rng, (3,))
        layer.params["W"][...] = np.eye(3, 2)
        layer.params["b"][...] = np.array([1.0, 2.0])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[2.0, 4.0]])

    def test_wrong_input_dim_raises(self, rng):
        layer = Dense(4)
        layer.build(rng, (5,))
        with pytest.raises(ShapeError):
            layer.forward(rng.normal(size=(2, 7)))

    def test_use_before_build_raises(self, rng):
        with pytest.raises(NotBuiltError):
            Dense(4).forward(rng.normal(size=(2, 5)))

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(4)
        layer.build(rng, (5,))
        with pytest.raises(NotBuiltError):
            layer.backward(rng.normal(size=(2, 4)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_per_candidate_stacked_forward_is_matmul_plus_bias(self, rng, dtype):
        """Each candidate's own input (``shared=False``): byte-equal to
        ``np.matmul(x, W) + b`` and a fresh array."""
        layer = Dense(6)
        layer.build(rng, (5,))
        x = rng.normal(size=(3, 7, 5)).astype(dtype)
        params = {
            "W": rng.normal(size=(3, 5, 6)).astype(dtype),
            "b": rng.normal(size=(3, 6)).astype(dtype),
        }
        params["b"][0, 0] = -0.0
        out = layer.forward_stacked(x, params, 3, shared=False)
        expected = np.matmul(x, params["W"]) + params["b"][:, None, :]
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(out, array) for array in (x, *params.values()))

    def test_parameter_count(self, rng):
        layer = Dense(8)
        layer.build(rng, (5,))
        assert layer.parameter_count() == 5 * 8 + 8

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            Dense(0)


class TestReLU:
    def test_clips_negatives(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    SPECIAL = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_is_byte_equal_to_the_masked_select(self, dtype):
        """NaN and -0.0 both come out as +0.0, subnormals pass or clip like
        any other value, and the dtype is kept.  Each special value also goes
        alone (a SIMD kernel's scalar tail may order ``fmax``'s zeros
        differently from its vector body)."""
        info = np.finfo(dtype)
        special = self.SPECIAL + [
            info.smallest_subnormal, -info.smallest_subnormal, info.tiny, -info.tiny
        ]
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((3, 50, 20)).astype(dtype)
        noise[:, ::7, ::3] = -0.0
        for x in [np.array(special, dtype=dtype), noise] + [
            np.array([value], dtype=dtype) for value in special
        ]:
            out = ReLU().forward(x, training=False)
            expected = np.where(x > 0, x, 0.0)
            assert out.dtype == expected.dtype == x.dtype
            assert out.tobytes() == expected.tobytes()

    def test_forward_leaves_its_input_alone(self):
        x = np.array(self.SPECIAL)
        before = x.tobytes()
        out = ReLU().forward(x)
        assert not np.shares_memory(out, x)
        assert x.tobytes() == before

    def test_training_mask_is_the_positive_entries(self):
        layer = ReLU()
        x = np.array([self.SPECIAL])
        layer.forward(x, training=True)
        grad = layer.backward(np.full_like(x, 3.0))
        np.testing.assert_array_equal(grad, np.where(x > 0, 3.0, 0.0))

    def test_inference_keeps_the_last_training_mask(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        layer.forward(np.array([[2.0, -1.0]]), training=False)
        np.testing.assert_array_equal(layer.backward(np.ones((1, 2))), [[0.0, 1.0]])


class TestPretrainedRBFBackbone:
    def _backbone(self, rng, latent=4, anchors_n=6, flat=20, sigma=0.6):
        projection = rng.normal(size=(flat, latent))
        anchors = rng.normal(size=(anchors_n, latent))
        layer = PretrainedRBFBackbone(projection, anchors, sigma=sigma)
        layer.build(rng, (flat,))
        return layer

    def test_output_is_distribution(self, rng):
        layer = self._backbone(rng)
        out = layer.forward(rng.normal(size=(5, 20)))
        assert out.shape == (5, 6)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5))
        assert (out >= 0).all()

    def test_nearest_anchor_dominates(self, rng):
        projection = np.eye(3)  # identity: input IS the latent
        anchors = np.array([[10.0, 0, 0], [0, 10.0, 0]])
        layer = PretrainedRBFBackbone(projection, anchors, sigma=1.0)
        layer.build(rng, (3,))
        out = layer.forward(np.array([[9.5, 0.0, 0.0]]))
        assert out[0, 0] > out[0, 1]

    def test_frozen(self, rng):
        layer = self._backbone(rng)
        assert layer.params == {}
        grad = layer.backward(np.ones((2, 6)))
        assert np.allclose(grad, 0.0)

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            PretrainedRBFBackbone(rng.normal(size=(20, 4)), rng.normal(size=(6, 5)), sigma=1.0)

    def test_build_rejects_image_shaped_input(self, rng):
        layer = PretrainedRBFBackbone(rng.normal(size=(FLAT_DIM, 4)), rng.normal(size=(6, 4)), sigma=1.0)
        with pytest.raises(ShapeError, match="flat input"):
            layer.build(rng, IMAGE_SHAPE)

    def test_bad_sigma(self, rng):
        with pytest.raises(ValueError):
            PretrainedRBFBackbone(rng.normal(size=(20, 4)), rng.normal(size=(6, 4)), sigma=0.0)

    def test_reports_frozen_parameter_count(self, rng):
        layer = self._backbone(rng)
        assert layer.parameter_count() == 20 * 4 + 6 * 4
