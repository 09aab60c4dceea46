"""The paper's two evaluation models.

* **SimpleNN** — the paper's hand-built network ("constructed from scratch
  with only 62K parameters").  Ours is a two-hidden-layer MLP over the
  flattened 32x32x3 image, sized to land near 62k parameters, trained from
  scratch.  Its signature dynamic: starts near chance and climbs slowly
  (paper: 0.14 -> 0.58 over ten rounds).

* **EfficientNetB0Sim** — the paper fine-tunes EfficientNet-B0 (5.3M
  params) by "modifying its final layer" (transfer learning).  Our analog
  keeps the same *structure*: a frozen domain-pretrained trunk shared by
  every peer (:class:`~repro.nn.layers.PretrainedRBFBackbone`, which holds
  no parameters) and a trainable linear head, the only layer with
  parameters.  Signature dynamic: starts high (paper: ~0.78 round 1) and
  plateaus (~0.85), and aggregation combinations matter more than for
  SimpleNN.

A CNN variant (``build_simple_cnn``) is provided for completeness and used
by unit tests; the experiment harness defaults to the MLP models for CPU
speed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    PretrainedRBFBackbone,
    ReLU,
)
from repro.nn.model import Sequential

#: Input shape of the (synthetic) CIFAR-10-like images.
IMAGE_SHAPE = (32, 32, 3)
NUM_CLASSES = 10

#: Flattened input dimension for MLP-style models.
FLAT_DIM = int(np.prod(IMAGE_SHAPE))


def build_simple_nn(rng: np.random.Generator, input_dim: int = FLAT_DIM, num_classes: int = NUM_CLASSES) -> Sequential:
    """The paper's ~62k-parameter SimpleNN, trained from scratch.

    Architecture: 3072 -> 20 -> 24 -> 10 MLP with ReLU, which gives
    3072*20 + 20 + 20*24 + 24 + 24*10 + 10 = 62,214 parameters — matching
    the paper's "only 62K parameters".
    """
    model = Sequential(
        [
            Dense(20, name="hidden1"),
            ReLU(),
            Dense(24, name="hidden2"),
            ReLU(),
            Dense(num_classes, name="head"),
        ],
        name="simple_nn",
    )
    return model.build(rng, (input_dim,))


def build_efficientnet_b0_sim(
    rng: np.random.Generator,
    backbone: tuple[np.ndarray, np.ndarray],
    input_dim: int = FLAT_DIM,
    num_classes: int = NUM_CLASSES,
    sigma: float = 0.6,
) -> Sequential:
    """Transfer-learning analog of EfficientNet-B0.

    A frozen backbone (identical across peers, like a shared pretrained
    checkpoint) feeds a trainable linear head — the exact "modify its final
    layer" recipe of the paper at CPU scale.

    ``backbone`` is the (projection, anchors) pair from
    :meth:`repro.data.synthetic.SyntheticImageDataset.pretrained_backbone`
    — a trunk pretrained on the experiment's visual domain, which is what
    gives the paper's round-1 ~0.78 accuracy.  The trunk holds no
    parameters, so the head's ``W`` and ``b`` are all that trains and all
    that FedAvg ships.
    """
    projection, anchors = backbone
    model = Sequential(
        [
            PretrainedRBFBackbone(projection, anchors, sigma=sigma, name="backbone"),
            Dense(num_classes, name="head"),
        ],
        name="efficientnet_b0_sim",
    )
    return model.build(rng, (input_dim,))


def build_simple_cnn(rng: np.random.Generator, num_classes: int = NUM_CLASSES) -> Sequential:
    """A small convolutional classifier over (32, 32, 3) images.

    Not used in the headline tables (too slow for the full sweep on CPU)
    but exercises Conv2D/MaxPool2D end to end in tests and examples.
    """
    model = Sequential(
        [
            Conv2D(8, kernel_size=3, padding="same", name="conv1"),
            ReLU(),
            MaxPool2D(2),
            Conv2D(16, kernel_size=3, padding="same", name="conv2"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(32, name="fc"),
            ReLU(),
            Dropout(0.25, rng=rng),
            Dense(num_classes, name="head"),
        ],
        name="simple_cnn",
    )
    return model.build(rng, IMAGE_SHAPE)


#: Registry used by experiment configs.
MODEL_BUILDERS = {
    "simple_nn": build_simple_nn,
    "efficientnet_b0_sim": build_efficientnet_b0_sim,
}


def build_model(kind: str, rng: np.random.Generator, **kwargs) -> Sequential:
    """Build a registered model by name (``simple_nn`` / ``efficientnet_b0_sim``)."""
    try:
        builder = MODEL_BUILDERS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown model kind {kind!r}; choose from {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(rng, **kwargs)

