"""Tests for the dataset container, batching, synthetic generator, transforms."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, batch_indices
from repro.data.synthetic import (
    CIFAR10_LABELS,
    SyntheticImageDataset,
    SyntheticSpec,
    client_class_probs,
)
from repro.data.transforms import (
    augment_batch,
    normalize,
    per_dataset_stats,
    random_crop_shift,
    random_flip,
)
from repro.errors import DataError, ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def dataset(rng):
    return Dataset(rng.normal(size=(50, 8)), rng.integers(0, 5, size=50))


class TestDataset:
    def test_length(self, dataset):
        assert len(dataset) == 50

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ShapeError):
            Dataset(rng.normal(size=(5, 2)), rng.integers(0, 2, size=4))

    def test_2d_labels_rejected(self, rng):
        with pytest.raises(ShapeError):
            Dataset(rng.normal(size=(5, 2)), rng.integers(0, 2, size=(5, 1)))

    @pytest.mark.parametrize(
        "labels", [np.array([0, 1, -1]), np.array([0.0, 1.0, 2.0]), np.array([True, False, True])]
    )
    def test_labels_must_be_non_negative_integers(self, labels):
        """A label indexes a one-hot row: -1 would train toward the last class."""
        with pytest.raises(DataError, match="labels must be"):
            Dataset(np.zeros((3, 2)), labels)

    def test_subset_copies(self, dataset):
        sub = dataset.subset(np.array([0, 1, 2]))
        sub.x[...] = 0.0
        assert not np.allclose(dataset.x[:3], 0.0)

    def test_flattened(self, rng):
        images = Dataset(rng.normal(size=(4, 2, 2, 3)), rng.integers(0, 2, size=4))
        flat = images.flattened()
        assert flat.x.shape == (4, 12)

    def test_class_counts(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 2, 2]))
        np.testing.assert_array_equal(ds.class_counts(3), [2, 0, 2])

    def test_take(self, dataset):
        assert len(dataset.take(10)) == 10
        with pytest.raises(DataError):
            dataset.take(1000)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_take_negative_rejected(self, n):
        """``x[:-2]`` is every row but two: a negative count is no count."""
        ds = Dataset(np.zeros((5, 1)), np.zeros(5, dtype=int))
        with pytest.raises(DataError, match=str(n)):
            ds.take(n)
        assert len(ds.take(0)) == 0


class TestBatchIterator:
    def test_covers_everything(self, dataset):
        batches = list(batch_indices(len(dataset), 16))
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(len(dataset)))

    def test_shuffle_changes_order(self, dataset, rng):
        plain = next(batch_indices(len(dataset), 50))
        shuffled = next(batch_indices(len(dataset), 50, rng=rng))
        assert not np.array_equal(plain, shuffled)

    def test_batches_are_the_index_batches_of_one_shuffle(self, dataset):
        used = np.random.default_rng(4)
        batches = list(batch_indices(len(dataset), 16, rng=used))
        expected = np.arange(len(dataset))
        rng = np.random.default_rng(4)
        rng.shuffle(expected)
        np.testing.assert_array_equal(np.concatenate(batches), expected)
        assert used.bit_generator.state == rng.bit_generator.state  # one draw per epoch
        assert [len(batch) for batch in batches] == [16, 16, 16, 2]

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(DataError):
            list(batch_indices(len(dataset), 0))


class TestSyntheticSpec:
    def test_flat_dim(self):
        assert SyntheticSpec().flat_dim == 3072

    def test_invalid_hard_classes(self):
        with pytest.raises(DataError):
            SyntheticSpec(hard_classes=11)

    def test_invalid_label_noise(self):
        with pytest.raises(DataError):
            SyntheticSpec(label_noise=1.0)

    def test_invalid_modes(self):
        with pytest.raises(DataError):
            SyntheticSpec(modes_per_class=0)

    @pytest.mark.parametrize(
        "field",
        [
            {"noise_std": -0.1},
            {"latent_jitter": -1e-3},
            {"brightness_std": -0.05},
            {"latent_dim": 0},
            {"num_classes": 0},
            {"image_shape": (0, 32, 3)},
            {"image_shape": (32, 32, 0)},
        ],
        ids=lambda field: ",".join(f"{k}={v}" for k, v in field.items()),
    )
    def test_values_sample_cannot_honour_are_rejected_at_construction(self, field):
        with pytest.raises(DataError):
            SyntheticSpec(**field)

    def test_zero_noise_is_allowed(self):
        spec = SyntheticSpec(noise_std=0.0, latent_jitter=0.0, brightness_std=0.0)
        ds = SyntheticImageDataset(spec).sample(3, np.random.default_rng(0))
        assert ds.x.shape == (3, spec.flat_dim)

    def test_labels_available(self):
        assert len(CIFAR10_LABELS) == 10


class TestSyntheticGeneration:
    def test_shapes_flat(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        ds = factory.sample(20, rng)
        assert ds.x.shape == (20, 3072)
        assert ds.y.shape == (20,)

    @pytest.mark.parametrize("flat", [True, False])
    def test_samples_are_float64(self, rng, flat):
        ds = SyntheticImageDataset(SyntheticSpec()).sample(4, rng, flat=flat)
        assert ds.x.dtype == np.float64

    def test_shapes_image(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        ds = factory.sample(8, rng, flat=False)
        assert ds.x.shape == (8, 32, 32, 3)

    def test_labels_in_range(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        ds = factory.sample(200, rng)
        assert ds.y.min() >= 0 and ds.y.max() < 10

    def test_seed_reproducible(self):
        spec = SyntheticSpec(seed=5)
        a = SyntheticImageDataset(spec).sample(10, np.random.default_rng(1))
        b = SyntheticImageDataset(spec).sample(10, np.random.default_rng(1))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_spec_seed_different_task(self, rng):
        a = SyntheticImageDataset(SyntheticSpec(seed=1)).mode_of(0, 0)
        b = SyntheticImageDataset(SyntheticSpec(seed=2)).mode_of(0, 0)
        assert not np.allclose(a, b)

    def test_invalid_n(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        with pytest.raises(DataError):
            factory.sample(0, rng)

    def test_mode_of_bounds(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        with pytest.raises(DataError):
            factory.mode_of(10, 0)
        with pytest.raises(DataError):
            factory.mode_of(0, 99)

    def test_label_noise_flips_some(self):
        clean_spec = SyntheticSpec(label_noise=0.0, seed=3)
        noisy_spec = SyntheticSpec(label_noise=0.5, seed=3)
        clean = SyntheticImageDataset(clean_spec).sample(500, np.random.default_rng(1))
        noisy = SyntheticImageDataset(noisy_spec).sample(500, np.random.default_rng(1))
        assert (clean.y != noisy.y).mean() > 0.2

    def test_hard_classes_antipodal(self):
        factory = SyntheticImageDataset(SyntheticSpec(hard_classes=2))
        np.testing.assert_allclose(factory.mode_of(0, 0), -factory.mode_of(0, 1))

    def test_class_probs_skew(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec(label_noise=0.0))
        probs = np.zeros(10)
        probs[3] = 1.0
        ds = factory.sample(50, rng, class_probs=probs)
        assert (ds.y == 3).all()

    def test_class_probs_validation(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        with pytest.raises(DataError):
            factory.sample(5, rng, class_probs=np.ones(10))  # not normalized
        with pytest.raises(DataError):
            factory.sample(5, rng, class_probs=np.ones(5) / 5)  # wrong shape

    def test_pretrained_backbone_shapes(self):
        spec = SyntheticSpec()
        projection, anchors = SyntheticImageDataset(spec).pretrained_backbone()
        assert projection.shape == (3072, spec.latent_dim)
        assert anchors.shape == (spec.num_classes * spec.modes_per_class, spec.latent_dim)

    def test_backbone_mismatch_deterministic(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        p1, _ = factory.pretrained_backbone(mismatch=0.1)
        p2, _ = factory.pretrained_backbone(mismatch=0.1)
        np.testing.assert_array_equal(p1, p2)

    def test_backbone_mismatch_changes_projection(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        clean, _ = factory.pretrained_backbone(mismatch=0.0)
        noisy, _ = factory.pretrained_backbone(mismatch=0.1)
        assert not np.allclose(clean, noisy)


class TestClientClassProbs:
    def test_uniform_when_zero_skew(self):
        probs = client_class_probs(0, 3, skew=0.0)
        np.testing.assert_allclose(probs, 0.1)

    def test_favoured_classes_heavier(self):
        probs = client_class_probs(0, 3, skew=1.0)
        assert probs[0] == pytest.approx(2 * probs[1])
        assert probs.sum() == pytest.approx(1.0)

    def test_clients_favour_disjoint_classes(self):
        p0 = client_class_probs(0, 3, skew=1.0)
        p1 = client_class_probs(1, 3, skew=1.0)
        assert p0.argmax() != p1.argmax()

    def test_validation(self):
        with pytest.raises(DataError):
            client_class_probs(3, 3)
        with pytest.raises(DataError):
            client_class_probs(0, 3, skew=-1.0)

    @pytest.mark.parametrize("skew", [float("nan"), float("inf")])
    def test_non_finite_skew_rejected(self, skew):
        """``skew < 0`` lets NaN and +inf through to a NaN probability vector."""
        with pytest.raises(DataError, match="finite"):
            client_class_probs(0, 3, skew=skew)


class TestTransforms:
    def test_normalize(self):
        x = np.array([2.0, 4.0])
        np.testing.assert_allclose(normalize(x, mean=3.0, std=1.0), [-1.0, 1.0])

    def test_normalize_zero_std_safe(self):
        assert np.isfinite(normalize(np.ones(3), std=0.0)).all()

    def test_per_dataset_stats_images(self, rng):
        x = rng.normal(2.0, 3.0, size=(50, 4, 4, 3))
        mean, std = per_dataset_stats(x)
        assert mean.shape == (3,)
        np.testing.assert_allclose(mean, 2.0, atol=0.5)
        np.testing.assert_allclose(std, 3.0, atol=0.5)

    def test_flip_preserves_shape(self, rng):
        x = rng.normal(size=(10, 8, 8, 3))
        assert random_flip(x, rng).shape == x.shape

    def test_flip_p1_mirrors(self, rng):
        x = rng.normal(size=(2, 4, 4, 1))
        flipped = random_flip(x, rng, p=1.0)
        np.testing.assert_array_equal(flipped, x[:, :, ::-1, :])

    def test_flip_p0_identity(self, rng):
        x = rng.normal(size=(2, 4, 4, 1))
        np.testing.assert_array_equal(random_flip(x, rng, p=0.0), x)

    def test_shift_preserves_shape(self, rng):
        x = rng.normal(size=(5, 8, 8, 3))
        assert random_crop_shift(x, rng).shape == x.shape

    def test_zero_shift_identity(self, rng):
        x = rng.normal(size=(3, 4, 4, 2))
        np.testing.assert_array_equal(random_crop_shift(x, rng, max_shift=0), x)

    def test_augment_batch(self, rng):
        x = rng.normal(size=(6, 8, 8, 3))
        assert augment_batch(x, rng).shape == x.shape

    def test_non_nhwc_rejected(self, rng):
        with pytest.raises(ShapeError):
            random_flip(rng.normal(size=(4, 8)), rng)
