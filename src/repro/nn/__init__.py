"""From-scratch numpy deep-learning substrate (the PyTorch stand-in).

Provides the pieces FedAvg-style federated learning needs:

* layers with explicit forward/backward over flat ``(batch, features)``
  input (:mod:`repro.nn.layers`),
* the one loss, softmax cross entropy (:mod:`repro.nn.losses`),
* a :class:`~repro.nn.model.Sequential` container with named parameters,
  whose :meth:`~repro.nn.model.Sequential.train_step` is one plain
  stochastic-gradient-descent step,
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
    PretrainedRBFBackbone,
)
from repro.nn.losses import cross_entropy, cross_entropy_grad
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
    "PretrainedRBFBackbone",
    "cross_entropy",
    "cross_entropy_grad",
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
