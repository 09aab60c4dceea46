"""Tests for the dataset container, batching and the synthetic generator."""

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.dataset import FEATURE_CHUNK, Dataset, batch_indices
from repro.data.synthetic import (
    CIFAR10_LABELS,
    FLAT_DIM,
    LATENT_DIM,
    MODES_PER_CLASS,
    NUM_CLASSES,
    SyntheticImageDataset,
    SyntheticSpec,
    client_class_probs,
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

    @pytest.mark.parametrize(
        "rows", [1, FEATURE_CHUNK - 1, FEATURE_CHUNK, FEATURE_CHUNK + 1, 2 * FEATURE_CHUNK + 3]
    )
    def test_features_cover_every_row_in_bounded_chunks(self, rows):
        x = np.arange(rows * 3, dtype=np.float64).reshape(rows, 3)
        dataset = Dataset(x, np.zeros(rows, dtype=np.int64))
        chunks = []

        def extract(block):
            chunks.append(len(block))
            return block.sum(axis=1, keepdims=True)

        features = dataset.features("sum", extract)
        np.testing.assert_array_equal(features, x.sum(axis=1, keepdims=True))
        assert sum(chunks) == rows
        assert len(chunks) == -(-rows // FEATURE_CHUNK)
        assert all(size <= FEATURE_CHUNK for size in chunks)

    def test_features_are_extracted_once_per_token(self, dataset):
        calls = []

        def extract(block):
            calls.append(len(block))
            return block * 2.0

        first = dataset.features("double", extract)
        assert dataset.features("double", extract) is first
        assert (dataset.feature_misses, dataset.feature_hits) == (1, 1)
        other = dataset.features("other", extract)
        assert other is not first and dataset.feature_misses == 2
        assert calls == [len(dataset), len(dataset)]

    def test_features_are_read_only(self, dataset):
        features = dataset.features("copy", lambda block: block.copy())
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 1.0


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

    def test_negative_batch_size_rejected(self):
        with pytest.raises(DataError, match="batch_size"):
            list(batch_indices(10, -4))

    @pytest.mark.parametrize(
        "size,batch_size", [(1, 1), (5, 1), (5, 5), (5, 7), (17, 4), (64, 16)]
    )
    def test_batches_partition_the_epoch(self, size, batch_size):
        batches = list(batch_indices(size, batch_size, rng=np.random.default_rng(size)))
        assert [len(batch) for batch in batches[:-1]] == [batch_size] * (len(batches) - 1)
        assert 1 <= len(batches[-1]) <= batch_size
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(size))

    def test_empty_epoch_yields_no_batch(self):
        assert list(batch_indices(0, 8)) == []


class TestSyntheticSpec:
    def test_flat_dim(self):
        assert FLAT_DIM == 3072

    def test_invalid_label_noise(self):
        with pytest.raises(DataError):
            SyntheticSpec(label_noise=1.0)

    def test_invalid_modes(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        assert factory.mode_of(NUM_CLASSES - 1, MODES_PER_CLASS - 1).shape == (LATENT_DIM,)
        with pytest.raises(DataError, match="mode_id"):
            factory.mode_of(0, MODES_PER_CLASS)

    @pytest.mark.parametrize(
        "field",
        [{"noise_std": -0.1}],
        ids=lambda field: ",".join(f"{k}={v}" for k, v in field.items()),
    )
    def test_values_sample_cannot_honour_are_rejected_at_construction(self, field):
        with pytest.raises(DataError):
            SyntheticSpec(**field)

    @pytest.mark.parametrize("name", ["noise_std", "label_noise"])
    def test_non_finite_values_rejected(self, name):
        """``x < 0`` and ``0 <= x < 1`` range checks let NaN through."""
        with pytest.raises(DataError, match="finite"):
            SyntheticSpec(**{name: float("nan")})

    def test_negative_label_noise_rejected(self):
        with pytest.raises(DataError, match="label_noise"):
            SyntheticSpec(label_noise=-0.1)

    def test_zero_noise_is_allowed(self, monkeypatch):
        monkeypatch.setattr(synthetic, "LATENT_JITTER", 0.0)
        monkeypatch.setattr(synthetic, "BRIGHTNESS_STD", 0.0)
        ds = SyntheticImageDataset(SyntheticSpec(noise_std=0.0)).sample(3, np.random.default_rng(0))
        assert ds.x.shape == (3, FLAT_DIM)

    def test_labels_available(self):
        assert len(CIFAR10_LABELS) == 10


class TestSyntheticGeneration:
    def test_shapes_flat(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        ds = factory.sample(20, rng)
        assert ds.x.shape == (20, 3072)
        assert ds.y.shape == (20,)

    def test_samples_are_float64(self, rng):
        ds = SyntheticImageDataset(SyntheticSpec()).sample(4, rng)
        assert ds.x.dtype == np.float64

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("n", [1, 33])
    def test_rows_are_flat_float64_vectors(self, n, skewed):
        """Every sample is one C-contiguous :data:`FLAT_DIM`-vector, what
        both registered models read; labels are one int64 per row."""
        probs = np.linspace(1.0, 2.0, NUM_CLASSES) if skewed else None
        ds = SyntheticImageDataset(SyntheticSpec()).sample(
            n, np.random.default_rng(n),
            class_probs=None if probs is None else probs / probs.sum(),
        )
        assert ds.x.shape == (n, FLAT_DIM) and ds.x.dtype == np.float64
        assert ds.x.flags.c_contiguous
        assert ds.y.shape == (n,) and ds.y.dtype == np.int64

    def test_noiseless_sample_is_a_rendered_prototype(self, monkeypatch):
        """With every noise source off a row is exactly one (class, mode)
        prototype pushed through the renderer, and its label is that class."""
        monkeypatch.setattr(synthetic, "LATENT_JITTER", 0.0)
        monkeypatch.setattr(synthetic, "BRIGHTNESS_STD", 0.0)
        factory = SyntheticImageDataset(SyntheticSpec(noise_std=0.0, label_noise=0.0))
        ds = factory.sample(12, np.random.default_rng(5))
        for row, label in zip(ds.x, ds.y):
            rendered = [
                factory.mode_of(label, mode) @ factory.renderer * np.sqrt(FLAT_DIM)
                for mode in range(MODES_PER_CLASS)
            ]
            assert any(np.allclose(row, image) for image in rendered)

    def test_brightness_offsets_a_whole_row(self, monkeypatch):
        """With only the brightness draw on, each row is a rendered
        prototype plus one offset shared by all its pixels."""
        monkeypatch.setattr(synthetic, "LATENT_JITTER", 0.0)
        factory = SyntheticImageDataset(SyntheticSpec(noise_std=0.0, label_noise=0.0))
        ds = factory.sample(12, np.random.default_rng(5))
        offsets = []
        for row, label in zip(ds.x, ds.y):
            residuals = [
                row - factory.mode_of(label, mode) @ factory.renderer * np.sqrt(FLAT_DIM)
                for mode in range(MODES_PER_CLASS)
            ]
            residual = min(residuals, key=lambda r: np.ptp(r))
            np.testing.assert_allclose(residual, residual[0], atol=1e-9)
            offsets.append(residual[0])
        assert all(offset != 0.0 for offset in offsets)

    def test_latent_jitter_stays_in_the_renderer_span(self, monkeypatch):
        """With only the latent jitter on, a row leaves its prototype's
        image but not the renderer's row space."""
        monkeypatch.setattr(synthetic, "BRIGHTNESS_STD", 0.0)
        factory = SyntheticImageDataset(SyntheticSpec(noise_std=0.0, label_noise=0.0))
        ds = factory.sample(6, np.random.default_rng(6))
        latents, *_ = np.linalg.lstsq(factory.renderer.T * np.sqrt(FLAT_DIM), ds.x.T, rcond=None)
        np.testing.assert_allclose(latents.T @ factory.renderer * np.sqrt(FLAT_DIM), ds.x, atol=1e-8)
        for latent, label in zip(latents.T, ds.y):
            gaps = [np.linalg.norm(latent - factory.mode_of(label, m)) for m in range(MODES_PER_CLASS)]
            assert 0.0 < min(gaps) < 1.0

    def test_renderer_rows_are_unit_vectors(self):
        renderer = SyntheticImageDataset(SyntheticSpec()).renderer
        assert renderer.shape == (LATENT_DIM, FLAT_DIM)
        np.testing.assert_allclose(np.linalg.norm(renderer, axis=1), 1.0)

    def test_prototypes_are_unit_vectors(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        norms = [
            np.linalg.norm(factory.mode_of(class_id, mode_id))
            for class_id in range(NUM_CLASSES)
            for mode_id in range(MODES_PER_CLASS)
        ]
        np.testing.assert_allclose(norms, 1.0)

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

    def test_class_probs_skew(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec(label_noise=0.0))
        probs = np.zeros(10)
        probs[3] = 1.0
        ds = factory.sample(50, rng, class_probs=probs)
        assert (ds.y == 3).all()

    @pytest.mark.parametrize(
        "probs",
        [
            np.ones(NUM_CLASSES),
            np.r_[-0.1, 1.1, np.zeros(NUM_CLASSES - 2)],
            np.ones(5) / 5,
            np.ones((1, NUM_CLASSES)) / NUM_CLASSES,
        ],
        ids=["unnormalized", "negative_entry", "too_few_classes", "two_dimensional"],
    )
    def test_class_probs_rejected(self, rng, probs):
        factory = SyntheticImageDataset(SyntheticSpec())
        with pytest.raises(DataError, match="class_probs"):
            factory.sample(5, rng, class_probs=probs)

    @pytest.mark.parametrize(
        "class_id,mode_id",
        [(-1, 0), (NUM_CLASSES, 0), (0, -1), (0, MODES_PER_CLASS)],
    )
    def test_mode_of_out_of_range(self, class_id, mode_id):
        factory = SyntheticImageDataset(SyntheticSpec())
        with pytest.raises(DataError, match="out of range"):
            factory.mode_of(class_id, mode_id)

    def test_class_probs_validation(self, rng):
        factory = SyntheticImageDataset(SyntheticSpec())
        with pytest.raises(DataError):
            factory.sample(5, rng, class_probs=np.ones(10))  # not normalized
        with pytest.raises(DataError):
            factory.sample(5, rng, class_probs=np.ones(5) / 5)  # wrong shape

    def test_pretrained_backbone_shapes(self):
        spec = SyntheticSpec()
        projection, anchors = SyntheticImageDataset(spec).pretrained_backbone()
        assert projection.shape == (3072, LATENT_DIM)
        assert anchors.shape == (NUM_CLASSES * MODES_PER_CLASS, LATENT_DIM)

    def test_backbone_anchors_are_the_mode_prototypes(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        _, anchors = factory.pretrained_backbone()
        expected = [
            factory.mode_of(class_id, mode_id)
            for class_id in range(NUM_CLASSES)
            for mode_id in range(MODES_PER_CLASS)
        ]
        np.testing.assert_array_equal(anchors, expected)

    def test_matched_backbone_inverts_the_renderer(self):
        factory = SyntheticImageDataset(SyntheticSpec())
        projection, _ = factory.pretrained_backbone(mismatch=0.0)
        np.testing.assert_array_equal(projection, factory.renderer.T / np.sqrt(FLAT_DIM))

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
