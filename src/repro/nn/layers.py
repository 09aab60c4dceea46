"""Neural-network layers with explicit forward/backward passes.

Each layer owns named parameters (``params``) and, while it trains,
matching gradients (``grads``).  ``forward`` caches what ``backward``
needs; ``backward`` receives dL/d(output), writes the parameter gradients
of that one pass into ``grads`` and returns dL/d(input).  A layer trains
exactly when it has parameters: the frozen backbone holds its weights
outside ``params``, so FedAvg never ships them and a training step never
moves them.

``forward_stacked`` is the inference pass for several candidate parameter
sets at once (:meth:`repro.nn.model.Sequential.predict_stacked`): candidate
``c``'s output is bit-for-bit what ``forward(..., training=False)`` returns
with candidate ``c``'s parameters installed.  :class:`Dense` and
:class:`ReLU` implement it — the layers a scored model runs per candidate.

Every layer reads flat ``(batch, features)`` input: the program's samples
are :data:`~repro.data.synthetic.FLAT_DIM`-vectors from synthesis to
scoring.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import NotBuiltError, ShapeError
from repro.nn.initializers import he_init, zeros_init


class Layer:
    """Base layer: parameter bookkeeping plus the forward/backward contract.

    Training scratch — ``grads`` and what a training ``forward`` caches for
    ``backward`` (a batch input, a mask) — exists only from a
    layer's first training step until :meth:`release_scratch`, which
    :meth:`repro.fl.trainer.LocalTrainer.train` calls when it returns: a
    built layer that has not trained holds none.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__.lower()
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Create parameters for ``input_shape`` (sans batch); return output shape."""
        self.built = True
        return input_shape

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute outputs; cache for backward when ``training``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Set ``grads`` to this pass's parameter gradients; return input grad.

        A layer with parameters also takes ``input_grad=False`` — nothing
        below it trains (:meth:`repro.nn.model.Sequential.backward`) — and
        then returns None once ``grads`` is written.
        """
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Reset the gradients to zero."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def release_scratch(self) -> None:
        """Drop the training scratch: the gradients and, in subclasses, what
        ``forward`` cached for ``backward``; ``backward`` then needs a new
        training ``forward`` first."""
        self.grads = {}

    def frozen_token(self) -> Optional[str]:
        """Content hash of all that a frozen, parameterless layer's output
        depends on besides its input, or None when the layer vouches for
        nothing — its outputs are then never cached (see
        :meth:`repro.nn.model.Sequential.inputs`)."""
        return None

    def parameter_count(self) -> int:
        """Total number of scalar parameters in this layer."""
        return sum(int(value.size) for value in self.params.values())

    def _require_built(self) -> None:
        if not self.built:
            raise NotBuiltError(f"layer {self.name!r} used before build()")

    def allocate_stack(self, width: int, shared: bool) -> dict[str, np.ndarray]:
        """Uninitialised room for ``width`` candidates' parameters.

        ``{name: (width, *shape)}`` per parameter.  ``shared`` tells the
        layer it will be fed the input all candidates share (see
        :meth:`forward_stacked`); a layer may then pick another memory
        layout behind the same logical shape.
        """
        return {
            name: np.empty((width,) + value.shape, dtype=value.dtype)
            for name, value in self.params.items()
        }

    def forward_stacked(
        self, x: np.ndarray, params: dict[str, np.ndarray], count: int, shared: bool
    ) -> np.ndarray:
        """Inference outputs ``(count, batch, ...)`` of ``count`` candidates.

        ``params[name][c]`` is candidate ``c``'s value of
        ``self.params[name]``.  ``x`` is one ``(batch, ...)`` input common
        to all candidates when ``shared``, per-candidate
        ``(count, batch, ...)`` inputs otherwise.
        """
        raise NotImplementedError


#: (rows, fan_in, units, count, dtype) -> did one stacked GEMM reproduce the
#: per-candidate products bit for bit (see :meth:`Dense.forward_stacked`).
_STACKED_GEMM_EXACT: dict[tuple, bool] = {}


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, units: int, name: str = "") -> None:
        super().__init__(name or f"dense_{units}")
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = units
        self._cache_x: Optional[np.ndarray] = None

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ShapeError(f"Dense expects flat input, got shape {input_shape}")
        fan_in = input_shape[0]
        self.params = {
            "W": he_init(rng, (fan_in, self.units), fan_in=fan_in),
            "b": zeros_init((self.units,)),
        }
        self.built = True
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._require_built()
        if x.ndim != 2 or x.shape[1] != self.params["W"].shape[0]:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.params['W'].shape[0]}), got {x.shape}"
            )
        if training:
            self._cache_x = x
        return x @ self.params["W"] + self.params["b"]

    def allocate_stack(self, width: int, shared: bool) -> dict[str, np.ndarray]:
        stack = super().allocate_stack(width, shared)
        if shared:
            # Each candidate's ``W.T`` is a block of rows of one contiguous
            # (width * units, fan_in) matrix — what forward_stacked's single
            # GEMM multiplies by — behind the usual (width, fan_in, units).
            fan_in, units = self.params["W"].shape
            rows = np.empty((width, units, fan_in), dtype=self.params["W"].dtype)
            stack["W"] = rows.transpose(0, 2, 1)
        return stack

    def forward_stacked(
        self, x: np.ndarray, params: dict[str, np.ndarray], count: int, shared: bool
    ) -> np.ndarray:
        self._require_built()
        weights, bias = params["W"], params["b"]
        fan_in, units = weights.shape[1:]
        if x.ndim != (2 if shared else 3) or x.shape[-1] != fan_in:
            raise ShapeError(f"{self.name}: expected (batch, {fan_in}), got {x.shape}")
        if not shared:
            # One GEMM per candidate, as in forward(), and one array.
            out = np.matmul(x, weights)
            out += bias[:, None, :]
            return out
        # All candidates in one GEMM: the shared input is read once and the
        # product is count * units columns wide instead of a skinny `units`
        # (about twice the rate at 150 x 3072 x 20).  A BLAS picks its
        # micro-kernels — and with them the order a dot product is summed
        # in — from the operand shapes, so the wide product matches the
        # per-candidate ones bit for bit on some shapes and misses by an ulp
        # on others (OpenBLAS/Haswell: equal at 150 rows, not at 37 rows
        # with 3 candidates, nor below ~16 rows).  The order depends on
        # shapes, strides and thread count, never on values: the first call
        # with a shape computes both and keeps the verdict for the process.
        rows = len(x)
        out = np.empty((count, rows, units), dtype=np.result_type(x, weights))
        shape = (rows, fan_in, units, count, x.dtype.str)
        exact = None  # None: this shape has not been compared yet
        if not x.flags.c_contiguous or x.dtype != weights.dtype:
            exact = False
        elif shape in _STACKED_GEMM_EXACT:
            exact = _STACKED_GEMM_EXACT[shape]
        if exact is not False:
            # A view when `weights` came from allocate_stack.
            stacked = weights.transpose(0, 2, 1).reshape(count * units, fan_in)
            wide = (x @ stacked.T).reshape(rows, count, units).transpose(1, 0, 2)
        if exact:
            np.copyto(out, wide)
        else:
            for index in range(count):
                np.matmul(x, np.ascontiguousarray(weights[index]), out=out[index])
            if exact is None and wide.any():  # all zeros would agree in any order
                _STACKED_GEMM_EXACT[shape] = np.array_equal(wide, out)
        return out + bias[:, None, :]

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        self._require_built()
        if self._cache_x is None:
            raise NotBuiltError(f"{self.name}: backward before forward")
        self.grads["W"] = self._cache_x.T @ grad_out
        self.grads["b"] = grad_out.sum(axis=0)
        if not input_grad:
            return None
        return grad_out @ self.params["W"].T

    def release_scratch(self) -> None:
        super().release_scratch()
        self._cache_x = None


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._mask: Optional[np.ndarray] = None
        self.built = True

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._mask = x > 0
        # Byte for byte ``np.where(x > 0, x, 0.0)`` at a fraction of its
        # cost: fmax sends NaN to 0.0, and adding +0.0 turns -0.0 into +0.0.
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def forward_stacked(self, x, params, count, shared):
        return self.forward(x, training=False)  # element-wise

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise NotBuiltError(f"{self.name}: backward before forward")
        return grad_out * self._mask

    def release_scratch(self) -> None:
        super().release_scratch()
        self._mask = None


class PretrainedRBFBackbone(Layer):
    """Frozen domain-pretrained trunk: project to latent space, then RBF units.

    Stands in for EfficientNet-B0's pretrained convolutional trunk.  A real
    pretrained network maps images into a semantic feature space where
    samples cluster around visual concepts; this layer does the same with
    explicit machinery: a fixed linear ``projection`` (flat pixels ->
    latent code, denoising by construction) followed by Gaussian RBF units
    centred on fixed ``anchors`` (the concept prototypes).

    Features are *normalized* RBF responses (a softmax over anchor
    distances), which keeps them informative even when the projection is
    imperfect — and the projection IS imperfect by design: the backbone
    carries a calibrated mismatch (pretrained on a *similar* domain, the
    way ImageNet is similar to but not identical to CIFAR-10), which is
    what keeps the classifier head in the variance-limited regime where
    aggregating more peers' models measurably helps (the paper's
    "aggregating the entire set of models in complex models yields
    superior results").

    The (projection, anchors) pair comes from
    :meth:`repro.data.synthetic.SyntheticImageDataset.pretrained_backbone`
    — every peer shares the identical frozen trunk, exactly like every peer
    downloading the same EfficientNet checkpoint.  Only layers *after* this
    one train (the paper: "we employ transfer learning by modifying its
    final layer").
    """

    def __init__(self, projection: np.ndarray, anchors: np.ndarray, sigma: float, name: str = "") -> None:
        super().__init__(name or "pretrained_backbone")
        if projection.ndim != 2 or anchors.ndim != 2:
            raise ShapeError("projection and anchors must be 2-D")
        if projection.shape[1] != anchors.shape[1]:
            raise ShapeError(
                f"latent dim mismatch: projection {projection.shape} vs anchors {anchors.shape}"
            )
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.projection = projection.astype(np.float64)
        self.anchors = anchors.astype(np.float64)
        self.sigma = float(sigma)
        self._token: Optional[str] = None

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1 or input_shape[0] != self.projection.shape[0]:
            raise ShapeError(
                f"backbone expects flat input of dim {self.projection.shape[0]}, got {input_shape}"
            )
        # Frozen weights are fixed at construction and are not ``params``.
        self.built = True
        return (self.anchors.shape[0],)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._require_built()
        z = x @ self.projection  # (batch, latent)
        d2 = ((z[:, None, :] - self.anchors[None, :, :]) ** 2).sum(axis=2)
        # Normalized responses: shift by the row minimum (numerical safety,
        # and scale-robustness against uniform distance inflation) then
        # softmax so the features sum to one per sample.
        d2 = d2 - d2.min(axis=1, keepdims=True)
        responses = np.exp(-d2 / (2.0 * self.sigma**2))
        return responses / responses.sum(axis=1, keepdims=True)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # Frozen trunk: gradients stop here (nothing upstream trains).
        return np.zeros((grad_out.shape[0], self.projection.shape[0]), dtype=grad_out.dtype)

    def frozen_token(self) -> str:
        # The trunk is fixed at construction, so one hash serves its life.
        if self._token is None:
            digest = hashlib.sha256(f"{type(self).__name__}/{self.sigma!r}".encode("ascii"))
            for array in (self.projection, self.anchors):
                digest.update(str(array.shape).encode("ascii"))
                digest.update(np.ascontiguousarray(array).data)
            self._token = digest.hexdigest()
        return self._token

    def parameter_count(self) -> int:
        """Report the frozen trunk size (like EfficientNet's 5.3M backbone)."""
        return int(self.projection.size + self.anchors.size)
