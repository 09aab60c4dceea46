"""Sequential model container with flat named parameters.

The container exposes parameters as a flat ``{"layer/param": array}`` dict —
the currency of federated aggregation: FedAvg averages these dicts, the
serializer turns them into bytes for on-chain commitment, and
``set_weights`` installs an aggregated dict back into the network.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError, NotBuiltError, ShapeError
from repro.nn.layers import Layer
from repro.nn.losses import CrossEntropyLoss


class Sequential:
    """A linear stack of layers."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        self.layers = list(layers)
        self.name = name
        self.built = False
        self.input_shape: Optional[tuple[int, ...]] = None
        self.output_shape: Optional[tuple[int, ...]] = None
        # Guarantee unique layer names so parameter keys never collide.
        seen: dict[str, int] = {}
        for layer in self.layers:
            count = seen.get(layer.name, 0)
            seen[layer.name] = count + 1
            if count:
                layer.name = f"{layer.name}_{count + 1}"

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

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Run the full stack."""
        self._require_built()
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate from the output gradient; returns input gradient."""
        self._require_built()
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self) -> None:
        """Reset every layer's accumulated gradients."""
        for layer in self.layers:
            layer.zero_grads()

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

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        """Parameters of trainable layers only (excludes frozen backbone)."""
        params: dict[str, np.ndarray] = {}
        for layer in self.layers:
            if layer.trainable:
                for key, value in layer.params.items():
                    params[f"{layer.name}/{key}"] = value
        return params

    def trainable_gradients(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`trainable_parameters`."""
        grads: dict[str, np.ndarray] = {}
        for layer in self.layers:
            if layer.trainable:
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
        """Total scalar parameters (optionally trainable only)."""
        layers = [l for l in self.layers if l.trainable] if trainable_only else self.layers
        return sum(layer.parameter_count() for layer in layers)

    # ------------------------------------------------------------------
    # Training convenience
    # ------------------------------------------------------------------

    def train_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss_fn: CrossEntropyLoss,
        optimizer,
    ) -> float:
        """One forward/backward/update step; returns the batch loss."""
        self.zero_grads()
        logits = self.forward(x, training=True)
        loss, grad = loss_fn.loss_and_grad(logits, y)
        self.backward(grad)
        optimizer.step(self.trainable_parameters(), self.trainable_gradients())
        return loss

    def evaluate_accuracy(self, x: np.ndarray, y: np.ndarray, batch_size: int = 512) -> float:
        """Classification accuracy over a dataset, batched for memory."""
        _check_batch_size(batch_size)
        correct = 0
        for start in range(0, len(x), batch_size):
            logits = self.predict(x[start : start + batch_size])
            correct += int((logits.argmax(axis=1) == y[start : start + batch_size]).sum())
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
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Inference outputs ``(count, batch, ...)`` of the first ``count``
        candidates in ``stack``; candidate ``c``'s slice equals
        :meth:`predict` with ``{key: stack[key][c]}`` installed, bit for
        bit.  The model's own parameters are neither read nor written.

        Layers ahead of the first one with parameters (flatten, a frozen
        parameterless backbone) run once, on the input all candidates share.

        Only ``layers[start:stop]`` run, and ``stack`` needs only their
        parameters: a pass with ``start > 0`` takes each candidate's own
        input to layer ``start`` as ``x[c]``, ``(count, batch, ...)`` —
        what a pass with ``stop=start`` returns.
        """
        self._require_built()
        shared = start == 0
        for layer in self.layers[start:stop]:
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
    ) -> list[float]:
        """:meth:`evaluate_accuracy` of each of ``stack``'s first ``count``
        candidates, in order, without installing any of them."""
        _check_batch_size(batch_size)
        correct = np.zeros(count, dtype=np.int64)
        for start in range(0, len(x), batch_size):
            logits = self.predict_stacked(x[start : start + batch_size], stack, count)
            correct += (logits.argmax(axis=2) == y[start : start + batch_size]).sum(axis=1)
        return [int(hits) / len(x) if len(x) else 0.0 for hits in correct]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(layer.name for layer in self.layers)
        return f"Sequential(name={self.name!r}, layers=[{inner}])"


def _check_batch_size(batch_size: int) -> None:
    """A batch size below one would score nothing (or make ``range`` raise)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
