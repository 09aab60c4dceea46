"""Synthetic CIFAR-10-like dataset generator.

No network access means no real CIFAR-10, so we synthesize a 10-class image
dataset preserving what the paper's experiments actually measure — the
*relative* behaviour of aggregation policies across two model complexities.
The construction:

* Each class owns ``modes_per_class`` latent prototypes.  A configurable
  fraction of classes are **hard**: their prototypes come in antipodal
  pairs (``+v``, ``-v``), so no linear function of the pixels separates the
  class — a from-scratch network must *learn* sign-invariant features,
  which is what makes the SimpleNN climb slowly across rounds (CIFAR-10's
  pose/colour variation plays the same role for the paper's SimpleNN).
* A sample is its latent prototype (plus latent jitter) pushed through a
  fixed random "renderer" into 32x32x3 pixel space, plus heavy Gaussian
  pixel noise — the reason a 62k-parameter pixel-space model saturates near
  0.6 while a denoising pretrained backbone does not.
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

IMAGE_SHAPE = (32, 32, 3)
NUM_CLASSES = 10

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
    learning analog near 0.78->0.85.
    """

    num_classes: int = NUM_CLASSES
    modes_per_class: int = 2
    hard_classes: int = 0            # classes with antipodal (non-linear) modes
    latent_dim: int = 32
    noise_std: float = 2.5           # per-pixel Gaussian noise
    latent_jitter: float = 0.12      # within-mode latent variation
    brightness_std: float = 0.05
    label_noise: float = 0.12
    image_shape: tuple[int, int, int] = IMAGE_SHAPE
    seed: int = 1234

    def __post_init__(self) -> None:
        require_finite(self, DataError)
        if self.num_classes < 1:
            raise DataError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.latent_dim < 1:
            raise DataError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if len(self.image_shape) != 3 or min(self.image_shape) < 1:
            raise DataError(
                f"image_shape must be three sizes >= 1, got {self.image_shape}"
            )
        for name in ("noise_std", "latent_jitter", "brightness_std"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.hard_classes <= self.num_classes:
            raise DataError(
                f"hard_classes {self.hard_classes} out of range for {self.num_classes} classes"
            )
        if self.modes_per_class < 1:
            raise DataError("modes_per_class must be >= 1")
        if not 0.0 <= self.label_noise < 1.0:
            raise DataError("label_noise must be in [0, 1)")

    @property
    def flat_dim(self) -> int:
        """Flattened image dimension."""
        h, w, c = self.image_shape
        return h * w * c


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
        renderer = rng.normal(size=(spec.latent_dim, spec.flat_dim))
        self._renderer = renderer / np.linalg.norm(renderer, axis=1, keepdims=True)
        self._prototypes = self._build_prototypes(rng)

    def _build_prototypes(self, rng: np.random.Generator) -> np.ndarray:
        """(num_classes, modes_per_class, latent_dim) unit prototypes.

        Hard classes alternate ``+v, -v, +v2, -v2, ...`` so the class mean
        is (near) zero in pixel space; easy classes use independent random
        directions.
        """
        spec = self.spec
        prototypes = np.zeros((spec.num_classes, spec.modes_per_class, spec.latent_dim))
        for class_id in range(spec.num_classes):
            if class_id < spec.hard_classes:
                base = None
                for mode_id in range(spec.modes_per_class):
                    if mode_id % 2 == 0:
                        base = rng.normal(size=spec.latent_dim)
                        base /= np.linalg.norm(base)
                        prototypes[class_id, mode_id] = base
                    else:
                        prototypes[class_id, mode_id] = -base
            else:
                for mode_id in range(spec.modes_per_class):
                    vec = rng.normal(size=spec.latent_dim)
                    prototypes[class_id, mode_id] = vec / np.linalg.norm(vec)
        return prototypes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def renderer(self) -> np.ndarray:
        """The fixed (latent_dim, flat_dim) rendering matrix."""
        return self._renderer

    def mode_of(self, class_id: int, mode_id: int) -> np.ndarray:
        """Latent prototype of one (class, mode) pair."""
        spec = self.spec
        if not 0 <= class_id < spec.num_classes:
            raise DataError(f"class_id {class_id} out of range")
        if not 0 <= mode_id < spec.modes_per_class:
            raise DataError(f"mode_id {mode_id} out of range")
        return self._prototypes[class_id, mode_id].copy()

    def pretrained_backbone(self, mismatch: float = 0.075) -> tuple[np.ndarray, np.ndarray]:
        """What a domain-pretrained trunk knows: (projection, anchors).

        ``projection`` is the (flat_dim, latent_dim) map recovering latent
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
        projection = self._renderer.T / np.sqrt(spec.flat_dim)
        if mismatch > 0:
            mis_rng = np.random.default_rng(spec.seed + 777_000_001)
            perturbation = mis_rng.normal(size=projection.shape) / np.sqrt(spec.flat_dim)
            projection = projection + mismatch * perturbation
        anchors = self._prototypes.reshape(-1, spec.latent_dim).copy()
        return projection, anchors

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(
        self,
        n: int,
        rng: np.random.Generator,
        flat: bool = True,
        name: str = "synthetic",
        class_probs: np.ndarray | None = None,
    ) -> Dataset:
        """Draw ``n`` labelled samples.

        ``flat=True`` returns (n, 3072) vectors for the MLP models;
        ``flat=False`` returns (n, 32, 32, 3) images for the CNN.
        ``class_probs`` optionally skews the label distribution — the
        per-client heterogeneity knob (see :func:`client_class_probs`).
        """
        if n < 1:
            raise DataError(f"need n >= 1, got {n}")
        spec = self.spec
        if class_probs is not None:
            probs = np.asarray(class_probs, dtype=np.float64)
            if probs.shape != (spec.num_classes,):
                raise DataError(
                    f"class_probs must have shape ({spec.num_classes},), got {probs.shape}"
                )
            if not np.isclose(probs.sum(), 1.0) or (probs < 0).any():
                raise DataError("class_probs must be a probability vector")
            labels = rng.choice(spec.num_classes, size=n, p=probs)
        else:
            labels = rng.integers(0, spec.num_classes, size=n)
        modes = rng.integers(0, spec.modes_per_class, size=n)
        latents = self._prototypes[labels, modes]
        latents = latents + rng.normal(0.0, spec.latent_jitter, size=latents.shape)
        pixels = latents @ self._renderer * np.sqrt(spec.flat_dim)
        pixels += rng.normal(0.0, spec.noise_std, size=pixels.shape)
        if spec.brightness_std > 0:
            pixels += rng.normal(0.0, spec.brightness_std, size=(n, 1))
        observed = labels.copy()
        if spec.label_noise > 0:
            flip = rng.random(n) < spec.label_noise
            observed[flip] = rng.integers(0, spec.num_classes, size=int(flip.sum()))
        x = pixels  # float64 by construction
        if not flat:
            x = x.reshape((n, *spec.image_shape))
        return Dataset(x, observed.astype(np.int64), name)


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

