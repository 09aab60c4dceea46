"""The paper's two evaluation models.

* **SimpleNN** — the paper's hand-built network ("constructed from scratch
  with only 62K parameters").  Ours is a two-hidden-layer MLP over the
  flat 3072-vector sample (a 32x32x3 image's worth of pixels), sized to
  land near 62k parameters, trained from scratch.  Its signature dynamic:
  starts near chance and climbs slowly (paper: 0.14 -> 0.58 over ten
  rounds).

* **EfficientNetB0Sim** — the paper fine-tunes EfficientNet-B0 (5.3M
  params) by "modifying its final layer" (transfer learning).  Our analog
  keeps the same *structure*: a frozen domain-pretrained trunk shared by
  every peer (:class:`~repro.nn.layers.PretrainedRBFBackbone`, which holds
  no parameters) and a trainable linear head, the only layer with
  parameters.  Signature dynamic: starts high (paper: ~0.78 round 1) and
  plateaus (~0.85), and aggregation combinations matter more than for
  SimpleNN.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import FLAT_DIM, NUM_CLASSES
from repro.errors import ConfigError
from repro.nn.layers import Dense, PretrainedRBFBackbone, ReLU
from repro.nn.model import Sequential


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
    sigma: float = 0.55,
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
    that FedAvg ships.  ``sigma``, the trunk's RBF width, defaults to the
    calibrated value every scenario runs with.
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

