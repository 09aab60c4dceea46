"""Tests for the paper's two evaluation models and the metrics module."""

import numpy as np
import pytest

from repro.data.synthetic import FLAT_DIM, NUM_CLASSES, SyntheticImageDataset, SyntheticSpec
from repro.errors import ConfigError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import (
    MODEL_BUILDERS,
    build_efficientnet_b0_sim,
    build_model,
    build_simple_nn,
)
from repro.nn.optimizers import SGD


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSimpleNN:
    def test_parameter_count_matches_paper(self, rng):
        """The paper reports 'only 62K parameters'; ours is 62,214."""
        model = build_simple_nn(rng)
        assert model.parameter_count() == 62_214

    def test_output_shape(self, rng):
        model = build_simple_nn(rng)
        out = model.predict(rng.normal(size=(4, 3072)))
        assert out.shape == (4, 10)

    def test_fully_trainable(self, rng):
        model = build_simple_nn(rng)
        assert model.parameter_count(trainable_only=True) == model.parameter_count()

    def test_init_seeded(self):
        a = build_simple_nn(np.random.default_rng(1)).get_weights()
        b = build_simple_nn(np.random.default_rng(1)).get_weights()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


class TestEfficientNetB0Sim:
    def test_domain_backbone(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        backbone = factory.pretrained_backbone()
        model = build_efficientnet_b0_sim(rng, backbone=backbone)
        out = model.predict(rng.normal(size=(2, 3072)))
        assert out.shape == (2, 10)

    def test_only_head_trains(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        model = build_efficientnet_b0_sim(rng, backbone=factory.pretrained_backbone())
        assert set(model.parameters()) == {"head/W", "head/b"}

    def test_backbone_shared_across_peers(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        backbone = factory.pretrained_backbone()
        a = build_efficientnet_b0_sim(np.random.default_rng(1), backbone=backbone)
        b = build_efficientnet_b0_sim(np.random.default_rng(2), backbone=backbone)
        x = np.random.default_rng(3).normal(size=(4, 3072))
        feats_a = a.layers[0].forward(x)
        feats_b = b.layers[0].forward(x)
        np.testing.assert_array_equal(feats_a, feats_b)

    def test_domain_backbone_beats_generic_quickly(self, rng):
        """The domain-pretrained trunk is what gives the paper's fast start."""
        from repro.data.dataset import Dataset
        from repro.fl.trainer import LocalTrainer, TrainConfig

        spec = SyntheticSpec()
        factory = SyntheticImageDataset(spec)
        train = factory.sample(800, np.random.default_rng(1))
        test = factory.sample(300, np.random.default_rng(2))
        del Dataset

        domain = build_efficientnet_b0_sim(
            np.random.default_rng(42), backbone=factory.pretrained_backbone(mismatch=0.0)
        )
        trainer = LocalTrainer(TrainConfig(epochs=5, batch_size=32, learning_rate=0.5), rng=np.random.default_rng(3))
        trainer.train(domain, train)
        assert domain.evaluate_accuracy(test.x, test.y) > 0.6


class TestTrainsExactlyWhatHasParameters:
    """A layer trains if and only if it holds parameters."""

    @pytest.mark.parametrize("kind", sorted(MODEL_BUILDERS))
    def test_one_step_moves_every_parameter_and_nothing_else(self, kind, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        batch = factory.sample(16, np.random.default_rng(1))
        kwargs = {"backbone": factory.pretrained_backbone()} if kind == "efficientnet_b0_sim" else {}
        model = build_model(kind, rng, **kwargs)
        trunk = model.layers[0]
        frozen = (trunk.projection.tobytes(), trunk.anchors.tobytes()) if kwargs else None
        before = model.get_weights()

        model.train_step(batch.x, batch.y, CrossEntropyLoss(), SGD(0.1))

        after = model.parameters()
        assert after.keys() == before.keys()
        for key, value in after.items():
            assert not np.array_equal(value, before[key]), key
        if kwargs:
            assert set(model.get_weights()) == {"head/W", "head/b"}
            assert (trunk.projection.tobytes(), trunk.anchors.tobytes()) == frozen
            untrained = build_model(kind, np.random.default_rng(2), **kwargs).layers[0]
            assert trunk.frozen_token() == untrained.frozen_token()


class TestFlatInput:
    """Both registered models read the generator's flat vectors."""

    @pytest.mark.parametrize("kind", sorted(MODEL_BUILDERS))
    def test_built_for_flat_samples(self, kind, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        kwargs = {"backbone": factory.pretrained_backbone()} if kind == "efficientnet_b0_sim" else {}
        model = build_model(kind, rng, **kwargs)
        assert model.input_shape == (FLAT_DIM,)
        batch = factory.sample(5, np.random.default_rng(1))
        out = model.predict(batch.x)
        assert out.shape == (5, NUM_CLASSES)
        assert np.isfinite(out).all()


class TestRegistry:
    def test_build_model_by_name(self, rng):
        assert build_model("simple_nn", rng).name == "simple_nn"

    def test_unknown_kind(self, rng):
        with pytest.raises(ConfigError):
            build_model("resnet152", rng)

