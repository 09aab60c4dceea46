"""From-scratch numpy deep-learning substrate (the PyTorch stand-in).

Provides the pieces FedAvg-style federated learning needs:

* layers with explicit forward/backward (:mod:`repro.nn.layers`) — the
  conv/pooling hot paths are vectorized (stride-tricks im2col, a col2im
  scatter whose formulation was chosen by measurement, tie-normalized
  pooling backward),
* the one loss (:mod:`repro.nn.losses`) and the one optimizer, plain
  :class:`~repro.nn.optimizers.SGD`,
* a :class:`~repro.nn.model.Sequential` container with named parameters,
* weight (de)serialization for on-chain commitment
  (:mod:`repro.nn.serialize`), centred on the cached
  :class:`~repro.nn.serialize.WeightArchive` whose single encoding serves
  payload, commitment hash, and size on the commitment pipeline,
* the two evaluation models of the paper (:mod:`repro.nn.models`):
  ``SimpleNN`` (~62k params, trained from scratch) and
  ``EfficientNetB0Sim`` (a frozen domain-pretrained trunk + a trainable
  head); a layer trains exactly when it has parameters.
"""

from repro.nn.initializers import he_init, zeros_init
from repro.nn.layers import (
    Layer,
    Dense,
    ReLU,
    Dropout,
    Flatten,
    Conv2D,
    MaxPool2D,
    PretrainedRBFBackbone,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optimizers import SGD
from repro.nn.model import Sequential
from repro.nn.serialize import (
    SERIALIZATION_STATS,
    WeightArchive,
    as_archive,
    weights_to_bytes,
    weights_from_bytes,
    weights_hash,
    weights_size_bytes,
)
from repro.nn.models import build_simple_nn, build_efficientnet_b0_sim, build_model

__all__ = [
    "he_init",
    "zeros_init",
    "Layer",
    "Dense",
    "ReLU",
    "Dropout",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "PretrainedRBFBackbone",
    "CrossEntropyLoss",
    "SGD",
    "Sequential",
    "SERIALIZATION_STATS",
    "WeightArchive",
    "as_archive",
    "weights_to_bytes",
    "weights_from_bytes",
    "weights_hash",
    "weights_size_bytes",
    "build_simple_nn",
    "build_efficientnet_b0_sim",
    "build_model",
]
