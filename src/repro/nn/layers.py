"""Neural-network layers with explicit forward/backward passes.

Each layer owns named parameters (``params``) and matching gradients
(``grads``).  ``forward`` caches what ``backward`` needs; ``backward``
receives dL/d(output), writes the parameter gradients of that one pass
into ``grads`` and returns dL/d(input).  A layer trains exactly when it
has parameters: the frozen backbone holds its weights outside ``params``,
so FedAvg never ships them and the optimizer never steps them.

``forward_stacked`` is the inference pass for several candidate parameter
sets at once (:meth:`repro.nn.model.Sequential.predict_stacked`): candidate
``c``'s output is bit-for-bit what ``forward(..., training=False)`` returns
with candidate ``c``'s parameters installed.  The base class loops over the
candidates; :class:`Dense` and the element-wise layers do better.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import NotBuiltError, ShapeError
from repro.nn.initializers import he_init, zeros_init


class Layer:
    """Base layer: parameter bookkeeping plus the forward/backward contract."""

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
        ``(count, batch, ...)`` inputs otherwise.  This fallback runs
        ``forward`` once per candidate with the candidate's arrays bound
        in place of the layer's own, which are never written.
        """
        own = self.params
        try:
            outputs = []
            for index in range(count):
                self.params = {name: stack[index] for name, stack in params.items()}
                outputs.append(self.forward(x if shared else x[index], training=False))
        finally:
            self.params = own
        return np.stack(outputs)


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
        self.zero_grads()
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


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None, name: str = "") -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None
        self.built = True

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def forward_stacked(self, x, params, count, shared):
        return x  # identity at inference

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._input_shape: Optional[tuple[int, ...]] = None

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        self.built = True
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def forward_stacked(self, x, params, count, shared):
        return x.reshape(count, x.shape[1], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise NotBuiltError(f"{self.name}: backward before forward")
        return grad_out.reshape(self._input_shape)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Rearrange (N, H, W, C) into (N, OH, OW, kh*kw*C) patches."""
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    strides = x.strides
    shape = (n, oh, ow, kh, kw, c)
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=shape,
        strides=(strides[0], strides[1] * stride, strides[2] * stride, strides[1], strides[2], strides[3]),
        writeable=False,
    )
    return view.reshape(n, oh, ow, kh * kw * c), oh, ow


def _col2im(dcols: np.ndarray, xp_shape: tuple[int, ...], k: int, stride: int) -> np.ndarray:
    """Scatter (N, OH, OW, k, k, C) patch gradients back onto the input grid.

    Non-overlapping windows (``stride == k``, the patch-embedding case) are
    a pure transpose/reshape assignment — no unfold at all.  Overlapping
    windows need summation into shared cells, done as a bounded ``k*k``
    unfold of full-array strided adds.  Loop-free alternatives were
    measured and rejected: a dilated full-correlation matmul and an
    einsum over a sliding-window view are both 2-10x slower here because
    they materialize the k^2-times-larger column tensor, while this
    unfold is at most 25 fully vectorized adds.
    """
    n, oh, ow = dcols.shape[:3]
    dxp = np.zeros(xp_shape, dtype=dcols.dtype)
    if stride == k and oh * k <= xp_shape[1] and ow * k <= xp_shape[2]:
        target = dxp[:, : oh * k, : ow * k, :].reshape(n, oh, k, ow, k, xp_shape[3])
        target[...] = dcols.transpose(0, 1, 3, 2, 4, 5)
        return dxp
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += dcols[:, :, :, i, j, :]
    return dxp


class Conv2D(Layer):
    """2D convolution over NHWC input with 'valid' or 'same' padding."""

    def __init__(self, filters: int, kernel_size: int = 3, stride: int = 1, padding: str = "same", name: str = "") -> None:
        super().__init__(name or f"conv_{filters}")
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._cache: Optional[tuple] = None
        self._pad: tuple[int, int] = (0, 0)

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (H, W, C) input, got {input_shape}")
        h, w, c = input_shape
        k = self.kernel_size
        fan_in = k * k * c
        self.params = {
            "W": he_init(rng, (k, k, c, self.filters), fan_in=fan_in),
            "b": zeros_init((self.filters,)),
        }
        self.zero_grads()
        if self.padding == "same":
            total = max(k - self.stride, 0) if h % self.stride == 0 else max(k - h % self.stride, 0)
            self._pad = (total // 2, total - total // 2)
            oh = int(np.ceil(h / self.stride))
            ow = int(np.ceil(w / self.stride))
        else:
            self._pad = (0, 0)
            oh = (h - k) // self.stride + 1
            ow = (w - k) // self.stride + 1
        self.built = True
        return (oh, ow, self.filters)

    def _padded(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self._pad
        if lo == 0 and hi == 0:
            return x
        return np.pad(x, ((0, 0), (lo, hi), (lo, hi), (0, 0)))

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._require_built()
        k = self.kernel_size
        xp = self._padded(x)
        cols, oh, ow = _im2col(xp, k, k, self.stride)
        w_mat = self.params["W"].reshape(-1, self.filters)
        out = cols @ w_mat + self.params["b"]
        if training:
            self._cache = (x.shape, xp.shape, cols)
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        self._require_built()
        if self._cache is None:
            raise NotBuiltError(f"{self.name}: backward before forward")
        x_shape, xp_shape, cols = self._cache
        n, oh, ow, _ = grad_out.shape
        k = self.kernel_size
        s = self.stride
        c = xp_shape[3]

        grad_flat = grad_out.reshape(-1, self.filters)
        self.grads["W"] = (cols.reshape(-1, cols.shape[-1]).T @ grad_flat).reshape(self.params["W"].shape)
        self.grads["b"] = grad_flat.sum(axis=0)
        if not input_grad:
            return None  # col2im, the expensive half, scatters only dL/dx

        w_mat = self.params["W"].reshape(-1, self.filters)
        dcols = (grad_flat @ w_mat.T).reshape(n, oh, ow, k, k, c)
        dxp = _col2im(dcols, xp_shape, k, s)
        lo, hi = self._pad
        if lo or hi:
            dxp = dxp[:, lo : dxp.shape[1] - hi, lo : dxp.shape[2] - hi, :]
        return dxp.reshape(x_shape)


class MaxPool2D(Layer):
    """Max pooling over NHWC input with non-overlapping windows.

    Forward is a reshape + axis max (no copies beyond the output).
    Backward broadcasts each output gradient across its window's maxima
    mask, *split equally among ties*: the previous formulation handed
    every tied maximum the full gradient, inflating it by the tie count
    (common after ReLU zeros).  Equal split is the symmetric subgradient
    and costs one small reduction.  An argmax/index-scatter variant was
    measured 2-3x slower than this mask formulation.
    """

    def __init__(self, pool_size: int = 2, name: str = "") -> None:
        super().__init__(name)
        self.pool_size = pool_size
        self._cache: Optional[tuple] = None

    def build(self, rng: np.random.Generator, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        p = self.pool_size
        if h % p or w % p:
            raise ShapeError(f"MaxPool2D: input {input_shape} not divisible by pool {p}")
        self.built = True
        return (h // p, w // p, c)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, h, w, c = x.shape
        p = self.pool_size
        windows = x.reshape(n, h // p, p, w // p, p, c)
        out = windows.max(axis=(2, 4))
        if training:
            # Cache the window view (no copy) and the maxima; the mask is
            # built on demand in backward, keeping forward allocation-free.
            self._cache = (x.shape, windows, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise NotBuiltError(f"{self.name}: backward before forward")
        x_shape, windows, out = self._cache
        mask = windows == out[:, :, None, :, None, :]
        ties = mask.sum(axis=(2, 4))
        scaled = (grad_out / ties)[:, :, None, :, None, :]
        return (scaled * mask).reshape(x_shape)


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

    def __init__(self, projection: np.ndarray, anchors: np.ndarray, sigma: float = 0.6, name: str = "") -> None:
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
