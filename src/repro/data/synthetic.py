"""Synthetic CIFAR-10-like dataset generator.

No network access means no real CIFAR-10, so we synthesize a 10-class image
dataset preserving what the paper's experiments actually measure — the
*relative* behaviour of aggregation policies across two model complexities.
The construction:

* Each of the :data:`NUM_CLASSES` classes owns :data:`MODES_PER_CLASS`
  latent prototypes, independent random unit directions in
  :data:`LATENT_DIM` dimensions — a class is a small mixture of "poses",
  not one template.
* A sample is its latent prototype (plus latent jitter) pushed through a
  fixed random "renderer" into :data:`FLAT_DIM` pixels, plus heavy Gaussian
  pixel noise — the reason a 62k-parameter pixel-space model climbs slowly
  across rounds and saturates near 0.6 (CIFAR-10's pose/colour variation
  plays that role for the paper's SimpleNN) while a denoising pretrained
  backbone does not.
* ``label_noise`` flips a fraction of labels uniformly, bounding reachable
  test accuracy the way CIFAR-10's irreducible error bounds the paper's
  ~86% EfficientNet plateau.

The factory also exposes :meth:`SyntheticImageDataset.pretrained_backbone`:
the (projection, anchors) pair a "pretrained on this visual domain" network
would have learned, consumed by
:func:`repro.nn.models.build_efficientnet_b0_sim` as the frozen trunk —
the honest analog of downloading an EfficientNet-B0 checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import DataError, require_finite

#: CIFAR-10's image shape, where a sample's width comes from; samples are
#: never image-shaped here, only :data:`FLAT_DIM`-vectors.
IMAGE_SHAPE = (32, 32, 3)
#: Width of one sample, the input dimension of both registered models.
FLAT_DIM = math.prod(IMAGE_SHAPE)
NUM_CLASSES = 10
#: Latent prototypes ("poses") per class.
MODES_PER_CLASS = 2
#: Dimension of the latent space the renderer maps to pixels.
LATENT_DIM = 32
#: Std of the Gaussian jitter around a sample's latent prototype
#: (within-mode variation).
LATENT_JITTER = 0.12
#: Std of the per-sample brightness offset added to every pixel.
BRIGHTNESS_STD = 0.05

#: CIFAR-10 label names, kept for API familiarity.
CIFAR10_LABELS = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generation parameters for the synthetic dataset.

    Defaults are the calibrated values the paper scenarios run on (see
    ``repro.scenarios.registry.paper_spec``): they land a 3-client FedAvg of
    SimpleNN near the paper's 0.28->0.60 trajectory and the transfer-
    learning analog near 0.78->0.85.  The class count is
    :data:`NUM_CLASSES`, what both registered models output; the latent
    shape is :data:`MODES_PER_CLASS` x :data:`LATENT_DIM`, and every
    sample carries :data:`LATENT_JITTER` latent jitter and a
    :data:`BRIGHTNESS_STD` brightness offset.
    """

    noise_std: float = 2.5           # per-pixel Gaussian noise
    label_noise: float = 0.12
    seed: int = 1234

    def __post_init__(self) -> None:
        require_finite(self, DataError)
        if self.noise_std < 0:
            raise DataError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.label_noise < 1.0:
            raise DataError("label_noise must be in [0, 1)")


class SyntheticImageDataset:
    """Factory for seeded splits of the synthetic dataset.

    Class prototypes and the renderer derive *only* from ``spec.seed`` so
    every client in an experiment shares one underlying distribution (same
    task), while per-split sampling uses independent caller-provided RNGs.
    """

    def __init__(self, spec: SyntheticSpec) -> None:
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        # Renderer: latent -> pixels through fixed random unit rows.
        renderer = rng.normal(size=(LATENT_DIM, FLAT_DIM))
        self._renderer = renderer / np.linalg.norm(renderer, axis=1, keepdims=True)
        self._prototypes = self._build_prototypes(rng)

    def _build_prototypes(self, rng: np.random.Generator) -> np.ndarray:
        """(NUM_CLASSES, MODES_PER_CLASS, LATENT_DIM) independent random
        unit prototypes."""
        prototypes = np.zeros((NUM_CLASSES, MODES_PER_CLASS, LATENT_DIM))
        for class_id in range(NUM_CLASSES):
            for mode_id in range(MODES_PER_CLASS):
                vec = rng.normal(size=LATENT_DIM)
                prototypes[class_id, mode_id] = vec / np.linalg.norm(vec)
        return prototypes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def renderer(self) -> np.ndarray:
        """The fixed (LATENT_DIM, FLAT_DIM) rendering matrix."""
        return self._renderer

    def mode_of(self, class_id: int, mode_id: int) -> np.ndarray:
        """Latent prototype of one (class, mode) pair."""
        if not 0 <= class_id < NUM_CLASSES:
            raise DataError(f"class_id {class_id} out of range")
        if not 0 <= mode_id < MODES_PER_CLASS:
            raise DataError(f"mode_id {mode_id} out of range")
        return self._prototypes[class_id, mode_id].copy()

    def pretrained_backbone(self, mismatch: float = 0.075) -> tuple[np.ndarray, np.ndarray]:
        """What a domain-pretrained trunk knows: (projection, anchors).

        ``projection`` is the (FLAT_DIM, LATENT_DIM) map recovering latent
        codes from pixels (the renderer's transpose); ``anchors`` are the
        mode prototypes — the visual "concepts" a pretrained network
        clusters images around.  These feed the frozen RBF trunk of
        ``build_efficientnet_b0_sim``.

        ``mismatch`` perturbs the projection with a fixed random matrix
        (seeded from the dataset seed, so every peer gets the identical
        trunk): a pretrained checkpoint is trained on a *similar* domain,
        not this exact one.  The calibrated default keeps the head in the
        variance-limited regime where aggregating more peers helps — the
        behaviour the paper reports for the complex model.
        """
        spec = self.spec
        projection = self._renderer.T / np.sqrt(FLAT_DIM)
        if mismatch > 0:
            mis_rng = np.random.default_rng(spec.seed + 777_000_001)
            perturbation = mis_rng.normal(size=projection.shape) / np.sqrt(FLAT_DIM)
            projection = projection + mismatch * perturbation
        anchors = self._prototypes.reshape(-1, LATENT_DIM).copy()
        return projection, anchors

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(
        self,
        n: int,
        rng: np.random.Generator,
        name: str = "synthetic",
        class_probs: np.ndarray | None = None,
    ) -> Dataset:
        """Draw ``n`` labelled samples: (n, :data:`FLAT_DIM`) float64
        vectors, what both registered models take.

        ``class_probs`` optionally skews the label distribution — the
        per-client heterogeneity knob (see :func:`client_class_probs`).
        """
        if n < 1:
            raise DataError(f"need n >= 1, got {n}")
        spec = self.spec
        if class_probs is not None:
            probs = np.asarray(class_probs, dtype=np.float64)
            if probs.shape != (NUM_CLASSES,):
                raise DataError(
                    f"class_probs must have shape ({NUM_CLASSES},), got {probs.shape}"
                )
            if not np.isclose(probs.sum(), 1.0) or (probs < 0).any():
                raise DataError("class_probs must be a probability vector")
            labels = rng.choice(NUM_CLASSES, size=n, p=probs)
        else:
            labels = rng.integers(0, NUM_CLASSES, size=n)
        modes = rng.integers(0, MODES_PER_CLASS, size=n)
        latents = self._prototypes[labels, modes]
        latents = latents + rng.normal(0.0, LATENT_JITTER, size=latents.shape)
        pixels = latents @ self._renderer * np.sqrt(FLAT_DIM)
        pixels += rng.normal(0.0, spec.noise_std, size=pixels.shape)
        pixels += rng.normal(0.0, BRIGHTNESS_STD, size=(n, 1))
        observed = labels.copy()
        if spec.label_noise > 0:
            flip = rng.random(n) < spec.label_noise
            observed[flip] = rng.integers(0, NUM_CLASSES, size=int(flip.sum()))
        return Dataset(pixels, observed.astype(np.int64), name)


def client_class_probs(client_index: int, num_clients: int, num_classes: int = NUM_CLASSES, skew: float = 1.0) -> np.ndarray:
    """Mild per-client label skew (the paper's natural data heterogeneity).

    Client ``i`` over-weights the classes congruent to ``i`` modulo
    ``num_clients`` by a factor of ``1 + skew``.  ``skew=0`` is IID; the
    calibrated experiments use ``skew=1`` (favoured classes twice as
    likely), enough that a solo-trained model measurably tilts toward its
    local prior while combinations rebalance.
    """
    if not 0 <= skew < math.inf:  # NaN fails too
        raise DataError(f"skew must be non-negative and finite, got {skew}")
    if not 0 <= client_index < num_clients:
        raise DataError(f"client_index {client_index} out of range for {num_clients} clients")
    weights = np.ones(num_classes, dtype=np.float64)
    favoured = np.arange(num_classes) % num_clients == client_index
    weights[favoured] += skew
    return weights / weights.sum()

