"""Sequential model container with flat named parameters.

The container exposes parameters as a flat ``{"layer/param": array}`` dict —
the currency of federated aggregation: FedAvg averages these dicts, the
serializer turns them into bytes for on-chain commitment, and
``set_weights`` installs an aggregated dict back into the network.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ConfigError, NotBuiltError, ShapeError
from repro.nn.layers import Layer
from repro.nn.losses import cross_entropy_grad

#: (prefix token, dataset shape, dtype, rows) -> did that many gathered
#: feature rows equal the prefix run on the same rows of samples, bit for
#: bit (see :meth:`FrozenInputs.rows`).
_FEATURE_ROWS_EXACT: dict[tuple, bool] = {}


class Sequential:
    """A linear stack of layers."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        self.layers = list(layers)
        self.name = name
        self.built = False
        self.input_shape: Optional[tuple[int, ...]] = None
        self.output_shape: Optional[tuple[int, ...]] = None
        # Guarantee unique layer names so parameter keys never collide: each
        # layer takes the first of name, name_2, name_3, ... not yet taken.
        taken: set[str] = set()
        for layer in self.layers:
            name, count = layer.name, 1
            while name in taken:
                count += 1
                name = f"{layer.name}_{count}"
            layer.name = name
            taken.add(name)

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> "Sequential":
        """Initialize every layer for ``input_shape`` (sans batch)."""
        shape = tuple(input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(rng, shape)
        self.output_shape = shape
        self.built = True
        return self

    def _require_built(self) -> None:
        if not self.built:
            raise NotBuiltError(f"model {self.name!r} used before build()")

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = True, start: int = 0) -> np.ndarray:
        """Run the stack from layer ``start`` on, ``x`` being its input."""
        self._require_built()
        for layer in self.layers[start:]:
            x = layer.forward(x, training=training)
        return x

    def predict(self, x: np.ndarray, start: int = 0) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False, start=start)

    def backward(self, grad: np.ndarray, lowest: Optional[int] = None) -> Optional[np.ndarray]:
        """Backpropagate from the output gradient; returns input gradient.

        ``lowest`` — :meth:`lowest_trainable` — stops the pass where
        training stops: the layers below it are not visited and that layer
        is not asked for an input gradient, so nothing is returned.
        """
        self._require_built()
        for index in range(len(self.layers) - 1, (lowest or 0) - 1, -1):
            layer = self.layers[index]
            grad = layer.backward(grad) if index != lowest else layer.backward(grad, input_grad=False)
        return grad

    def zero_grads(self) -> None:
        """Reset every layer's gradients."""
        for layer in self.layers:
            layer.zero_grads()

    def release_scratch(self) -> None:
        """Drop every layer's training scratch
        (:meth:`~repro.nn.layers.Layer.release_scratch`)."""
        for layer in self.layers:
            layer.release_scratch()

    def lowest_trainable(self) -> int:
        """Index of the first layer with parameters — a layer trains exactly
        when it has some — or ``len(layers)`` when none does: nothing below
        it needs a gradient."""
        for index, layer in enumerate(self.layers):
            if layer.params:
                return index
        return len(self.layers)

    def frozen_depth(self) -> int:
        """How many leading layers form the frozen prefix: without
        parameters (so nothing trains or FedAvg installs there) and each
        vouching for its content with a
        :meth:`~repro.nn.layers.Layer.frozen_token`.  What they make of a
        sample never changes, so :meth:`inputs` computes it once."""
        depth = 0
        for layer in self.layers:
            if layer.params or layer.frozen_token() is None:
                break
            depth += 1
        return depth

    def inputs(self, dataset: Dataset) -> "FrozenInputs":
        """``dataset`` as the layers past the frozen prefix see it."""
        self._require_built()
        return FrozenInputs(self.layers[: self.frozen_depth()], dataset)

    # ------------------------------------------------------------------
    # Parameter access (FedAvg currency)
    # ------------------------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Live references to every parameter, keyed ``layer/param``."""
        params: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for key, value in layer.params.items():
                params[f"{layer.name}/{key}"] = value
        return params

    def gradients(self) -> dict[str, np.ndarray]:
        """Live references to every gradient, keyed like :meth:`parameters`."""
        grads: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for key, value in layer.grads.items():
                grads[f"{layer.name}/{key}"] = value
        return grads

    def get_weights(self) -> dict[str, np.ndarray]:
        """Deep copy of all parameters (safe to ship to other peers)."""
        return {key: value.copy() for key, value in self.parameters().items()}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Install a weight dict produced by :meth:`get_weights` / FedAvg."""
        self._require_built()
        params = self.parameters()
        if set(weights) != set(params):
            missing = set(params) - set(weights)
            extra = set(weights) - set(params)
            raise ShapeError(f"weight keys mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
        for key, value in weights.items():
            if params[key].shape != value.shape:
                raise ShapeError(f"{key}: shape {value.shape} != expected {params[key].shape}")
            params[key][...] = value

    def parameter_count(self, trainable_only: bool = False) -> int:
        """Total scalar parameters, a frozen trunk's included; with
        ``trainable_only`` just those in :meth:`parameters`."""
        if trainable_only:
            return sum(int(value.size) for value in self.parameters().values())
        return sum(layer.parameter_count() for layer in self.layers)

    # ------------------------------------------------------------------
    # Training convenience
    # ------------------------------------------------------------------

    def train_step(
        self, x: np.ndarray, y: np.ndarray, learning_rate: float, start: int = 0
    ) -> None:
        """One gradient-descent step on the batch's cross entropy, in place:
        each parameter less ``learning_rate`` times its gradient.

        ``x`` is the input of layer ``start`` (:meth:`FrozenInputs.rows`).
        Every layer's ``grads`` are this step's when it returns.
        """
        if not 0 < learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {learning_rate}")
        lowest = self.lowest_trainable()
        if start > lowest:
            raise ConfigError(f"layer {lowest} trains but the batch enters at layer {start}")
        logits = self.forward(x, training=True, start=start)
        self.backward(cross_entropy_grad(logits, y), lowest=lowest)
        grads = self.gradients()
        for key, value in self.parameters().items():
            value -= learning_rate * grads[key]

    def evaluate_accuracy(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 512, start: int = 0
    ) -> float:
        """Classification accuracy over a dataset, batched for memory;
        ``x`` holds the inputs of layer ``start`` (:meth:`FrozenInputs.chunked`)."""
        _check_batch_size(batch_size)
        correct = 0
        for begin in range(0, len(x), batch_size):
            logits = self.predict(x[begin : begin + batch_size], start=start)
            correct += int((logits.argmax(axis=1) == y[begin : begin + batch_size]).sum())
        return correct / len(x) if len(x) else 0.0

    # ------------------------------------------------------------------
    # Stacked inference: several candidate weight sets, one sweep
    # ------------------------------------------------------------------

    def candidate_stack(self, width: int) -> dict[str, np.ndarray]:
        """Uninitialised room for ``width`` candidate weight sets.

        Keyed like :meth:`parameters`, each entry ``(width, *shape)``:
        write candidate ``c``'s value of a parameter to ``stack[key][c]``.
        """
        self._require_built()
        stack: dict[str, np.ndarray] = {}
        shared = True
        for layer in self.layers:
            for name, room in layer.allocate_stack(width, shared).items():
                stack[f"{layer.name}/{name}"] = room
            shared = shared and not layer.params
        return stack

    def predict_stacked(
        self,
        x: np.ndarray,
        stack: dict[str, np.ndarray],
        count: int,
        start: int = 0,
    ) -> np.ndarray:
        """Inference outputs ``(count, batch, ...)`` of the first ``count``
        candidates in ``stack``; candidate ``c``'s slice equals
        :meth:`predict` with ``{key: stack[key][c]}`` installed, bit for
        bit.  The model's own parameters are neither read nor written.

        Layers ahead of the first one with parameters (the frozen backbone)
        run once, on the input all candidates share; that layer and every
        one after it run :meth:`~repro.nn.layers.Layer.forward_stacked`,
        which only ``Dense`` and ``ReLU`` implement.

        Only ``layers[start:]`` run, and ``stack`` needs only their
        parameters.  ``x`` is the input of layer ``start``: the one
        ``(batch, ...)`` all candidates share while no layer below
        ``start`` has parameters (``start=0``, or the frozen prefix's
        features), else each candidate's own as ``x[c]``,
        ``(count, batch, ...)``.
        """
        self._require_built()
        shared = not any(layer.params for layer in self.layers[:start])
        for layer in self.layers[start:]:
            if shared and not layer.params:
                x = layer.forward(x, training=False)
                continue
            params = {name: stack[f"{layer.name}/{name}"][:count] for name in layer.params}
            x = layer.forward_stacked(x, params, count, shared)
            shared = False
        return np.broadcast_to(x, (count,) + x.shape) if shared else x

    def evaluate_stacked(
        self,
        x: np.ndarray,
        y: np.ndarray,
        stack: dict[str, np.ndarray],
        count: int,
        batch_size: int = 512,
        start: int = 0,
    ) -> list[float]:
        """:meth:`evaluate_accuracy` of each of ``stack``'s first ``count``
        candidates, in order, without installing any of them."""
        _check_batch_size(batch_size)
        correct = np.zeros(count, dtype=np.int64)
        for begin in range(0, len(x), batch_size):
            logits = self.predict_stacked(x[begin : begin + batch_size], stack, count, start=start)
            correct += (logits.argmax(axis=2) == y[begin : begin + batch_size]).sum(axis=1)
        return [int(hits) / len(x) if len(x) else 0.0 for hits in correct]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(layer.name for layer in self.layers)
        return f"Sequential(name={self.name!r}, layers=[{inner}])"


class FrozenInputs:
    """One dataset as the layers past a model's frozen prefix see it.

    The prefix (:meth:`Sequential.frozen_depth`) turns a sample into the
    same features every step of every round, so they are computed once per
    dataset and prefix content (:meth:`repro.data.dataset.Dataset.features`)
    and a consumer gathers feature rows and enters the model at
    :attr:`depth` instead of pushing samples through the prefix again.

    A BLAS sums a dot product in an order it picks from the operand shapes,
    so a few samples through the prefix need not reproduce, to the
    last bit, the same rows of the whole-set pass (OpenBLAS/Haswell: they do
    from 11 rows up, not below).  The order depends on shapes and thread
    count, never on values: the first selection of each row count is
    computed both ways and the verdict kept for the process — like
    ``Dense.forward_stacked``'s — and a count that fails is served samples.
    """

    def __init__(self, prefix: Sequence[Layer], dataset: Dataset) -> None:
        self.samples = dataset.x
        self.depth = len(prefix)
        self._prefix = prefix
        self.features: Optional[np.ndarray] = None
        if prefix:
            token = "/".join(layer.frozen_token() for layer in prefix)
            self.features = dataset.features(token, self._extract)
            self._shape = (token, dataset.x.shape, dataset.x.dtype.str)

    def _extract(self, x: np.ndarray) -> np.ndarray:
        for layer in self._prefix:
            x = layer.forward(x, training=False)
        return x

    def rows(self, selection) -> tuple[np.ndarray, int]:
        """``(x, start)``: the selected samples as the input of layer
        ``start`` — features when they are the prefix's output on those
        samples bit for bit, else the samples themselves and 0."""
        if self.features is None:
            return self.samples[selection], 0
        rows = self.features[selection]
        shape = self._shape + (len(rows),)
        exact = _FEATURE_ROWS_EXACT.get(shape)
        if exact is None:
            exact = np.array_equal(self._extract(self.samples[selection]), rows)
            _FEATURE_ROWS_EXACT[shape] = exact
        return (rows, self.depth) if exact else (self.samples[selection], 0)

    def chunked(self, batch_size: int) -> tuple[np.ndarray, int]:
        """``(x, start)`` for a consumer that slices the whole set into
        consecutive ``batch_size``-row chunks: features when every chunk's
        row count passes :meth:`rows`."""
        _check_batch_size(batch_size)
        if self.features is None:
            return self.samples, 0
        begins = range(0, len(self.samples), batch_size)
        for begin in {begins[0], begins[-1]} if begins else ():
            if not self.rows(slice(begin, begin + batch_size))[1]:
                return self.samples, 0
        return self.features, self.depth


def _check_batch_size(batch_size: int) -> None:
    """A batch size below one would score nothing (or make ``range`` raise)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
