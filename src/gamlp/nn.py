"""Minimal dense NN kernels with explicit forward/backward passes.

Every kernel computes in the dtype of its inputs and parameters: the
model trains in float32 on stacks read from a cache, and in float64 on
stacks propagated in memory. Gradient checks run in float64, so that
central finite differences can verify every backward pass to tight
tolerances. There is deliberately no autodiff: each layer exposes a
hand-derived backward, and the model code wires them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .config import ACTIVATION_KINDS


class NonFiniteError(FloatingPointError):
    """NaN or Inf detected at a layer boundary."""


@dataclass
class ParamTensor:
    """A trainable value with its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        assert self.grad.shape == self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _check_finite(x: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values in {where}")
    return x


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b with the bias broadcast over rows."""
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch in linear: {x.shape} @ {w.shape} + {b.shape}")
    return _check_finite(x @ w + b, "linear output")


def linear_backward(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    """Gradients (d_x, d_w, d_b) for the linear map above."""
    return d_out @ w.T, x.T @ d_out, d_out.sum(axis=0)


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity with its derivative.

    Leaky ReLU multiplies by a factor k (1 where x >= 0, the slope
    elsewhere) built without a per-element branch, which a random-signed
    input would mispredict. For 0 <= slope <= 1 it equals
    ``np.where(x >= 0, x, slope * x)`` bit for bit, -0.0, infinities and
    NaN included, in float32 and float64.
    """

    kind: str = "leaky_relu"
    slope: float = 0.2  # leaky_relu only

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"leaky_slope must lie in [0, 1], got {self.slope}")

    def _leaky_times(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """v times the leaky factor of x, in v's dtype."""
        # in x's memory order: the attention scores are column-major, and
        # softmax_rows reduces their short rows fast only in that order
        k = np.greater_equal(x, 0.0, out=np.empty_like(x, dtype=v.dtype))
        np.maximum(k, self.slope, out=k)
        k *= v
        return k

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "leaky_relu":
            # not max(x, slope * x): at slope 0 that turns +inf into 0 * inf = NaN
            return self._leaky_times(x, x)
        return expit(x)

    def backward(self, d_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        """d_out times the derivative evaluated at the forward input x."""
        if self.kind == "relu":
            return d_out * (x > 0.0)
        if self.kind == "leaky_relu":
            return self._leaky_times(x, d_out)
        s = expit(x)
        return d_out * s * (1.0 - s)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with the max-shift for stability."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(d_out: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Backward through a row-wise softmax given its output probabilities."""
    dot = (d_out * probs).sum(axis=1, keepdims=True)
    return probs * (d_out - dot)


def cross_entropy(logits: np.ndarray, onehot: np.ndarray, mask: np.ndarray):
    """Mean negative log-likelihood over the masked rows.

    Returns (loss, gradient); the gradient is (softmax - onehot) / |mask|
    on masked rows and zero elsewhere.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("cross_entropy needs a nonempty mask")
    z = logits[mask]
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    loss = -(onehot[mask] * log_probs).sum() / mask.size
    grad = np.zeros_like(logits)
    grad[mask] = (np.exp(log_probs) - onehot[mask]) / mask.size
    return float(loss), grad


def _dropout_scale(rate: float, dtype) -> np.generic:
    """1 / (1 - rate), with both operands rounded to ``dtype`` before dividing."""
    dtype = np.dtype(dtype)
    return dtype.type(1.0) / dtype.type(1.0 - rate)


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator | None,
            training: bool):
    """Inverted dropout. Returns (output, mask); mask is None when inactive.

    The mask is the bool array ``rng.random(x.shape, dtype=x.dtype) < 1 - rate``;
    the kept elements are scaled by 1 / (1 - rate), and the output keeps
    x's dtype.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    draw = rng.random(x.shape, dtype=x.dtype)
    mask = draw < 1.0 - rate
    out = np.multiply(x, mask, out=draw)  # the draw's buffer becomes the output
    out *= _dropout_scale(rate, out.dtype)
    return out, mask


def dropout_backward(d: np.ndarray, mask: np.ndarray | None, rate: float) -> np.ndarray:
    """Gradient through :func:`dropout` given the mask it returned."""
    if mask is None:
        return d
    out = np.multiply(d, mask)
    out *= _dropout_scale(rate, out.dtype)
    return out


class Adam:
    """Bias-corrected Adam with optional L2 weight decay folded into grads."""

    def __init__(self, params: list[ParamTensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Sgd:
    """Plain gradient descent, kept for optimizer-parity experiments."""

    def __init__(self, params: list[ParamTensor], lr: float = 0.001,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0

    def step(self) -> None:
        self.t += 1
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            p.value -= self.lr * g


class Linear:
    """Linear layer owning its weight/bias parameters."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, name: str):
        self.w = ParamTensor(f"{name}.w", glorot_uniform(rng, in_dim, out_dim))
        self.b = ParamTensor(f"{name}.b", np.zeros(out_dim))
        self._x = None

    @property
    def params(self) -> list[ParamTensor]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return linear_forward(x, self.w.value, self.b.value)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        d_x, d_w, d_b = linear_backward(self._x, self.w.value, d_out)
        self.w.grad += d_w
        self.b.grad += d_b
        return d_x


class Mlp:
    """Stack of linear layers with activation + dropout between them.

    ``depth`` = 1 is a single linear map (no nonlinearity), matching the
    linear-model baselines.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int,
                 out_dim: int, depth: int, activation: Activation,
                 dropout_rate: float = 0.0, name: str = "mlp"):
        if depth < 1:
            raise ValueError("mlp depth must be >= 1")
        dims = [in_dim] + [hidden] * (depth - 1) + [out_dim]
        self.layers = [Linear(rng, dims[i], dims[i + 1], f"{name}.{i}")
                       for i in range(depth)]
        self.activation = activation
        self.dropout_rate = dropout_rate
        self._cache = None

    @property
    def params(self) -> list[ParamTensor]:
        return [p for layer in self.layers for p in layer.params]

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        cache = []
        h = x
        for i, layer in enumerate(self.layers):
            h = layer.forward(h)
            if i < len(self.layers) - 1:
                pre = h
                h = self.activation.forward(pre)
                h, mask = dropout(h, self.dropout_rate, rng, training)
                cache.append((pre, mask))
        self._cache = cache
        return h

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        d_h = d_out
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                pre, mask = self._cache[i]
                d_h = dropout_backward(d_h, mask, self.dropout_rate)
                d_h = self.activation.backward(d_h, pre)
            d_h = self.layers[i].backward(d_h)
        return d_h

