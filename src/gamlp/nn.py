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

from .config import ACTIVATION_KINDS

LEAKY_SLOPE = 0.2  # leaky_relu's factor below 0; Activation's factor form needs [0, 1]
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and epsilon


class NonFiniteError(FloatingPointError):
    """NaN or Inf detected at a layer boundary; ``row`` is the first row of the
    layer output that holds one, which every row-wise forward maps to a node."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


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
    if not np.all(np.isfinite(x)):  # the row is looked for only on failure
        raise NonFiniteError(f"non-finite values in {where}",
                             int(np.argmin(np.isfinite(x).all(axis=1))))
    return x


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b with the bias broadcast over rows, added in place."""
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch in linear: {x.shape} @ {w.shape} + {b.shape}")
    out = x @ w
    out += b
    return _check_finite(out, "linear output")


def linear_backward(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    """Gradients (d_x, d_w, d_b) for the linear map above."""
    return d_out @ w.T, x.T @ d_out, d_out.sum(axis=0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, as exp(-|x|) / (1 + exp(-|x|)) below 0.

    exp only sees arguments <= 0, so nothing overflows and no warning is
    raised: ±0 gives 0.5, +inf 1, -inf 0 and NaN NaN. Far below 0 it gives
    exp(x), where ``1 / (1 + exp(-x))`` would round to 0.
    """
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity with its derivative.

    Backward reads only the state that :meth:`state` keeps of a forward:
    the bool ``x >= 0`` for leaky ReLU and ``x > 0`` for ReLU, and the
    output itself for the sigmoid. So a training forward through either
    ReLU keeps one byte per element, not a float.

    Leaky ReLU multiplies by a factor k (1 where x >= 0, LEAKY_SLOPE
    elsewhere) built without a per-element branch, which a random-signed
    input would mispredict. It equals
    ``np.where(x >= 0, x, LEAKY_SLOPE * x)`` bit for bit, -0.0, infinities
    and NaN included, in float32 and float64; its backward equals
    ``np.where(x >= 0, d, LEAKY_SLOPE * d)`` the same way.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    @staticmethod
    def _leaky_times(k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """v times the leaky factor of the 0/1 array k (1 where x >= 0),
        computed in k, which must have v's dtype."""
        np.maximum(k, LEAKY_SLOPE, out=k)
        k *= v
        return k

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "leaky_relu":
            # in x's memory order: the attention scores are column-major, and
            # softmax_rows reduces their short rows fast only in that order
            return self._leaky_times(np.greater_equal(x, 0.0, out=np.empty_like(x)), x)
        return sigmoid(x)

    def state(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """What :meth:`backward` reads of the forward from ``x`` to ``y``."""
        if self.kind == "relu":
            return np.greater(x, 0.0)
        if self.kind == "leaky_relu":
            return np.greater_equal(x, 0.0)
        return y

    def backward(self, d_out: np.ndarray, state: np.ndarray) -> np.ndarray:
        """d_out times the derivative, from the :meth:`state` of the forward."""
        if self.kind == "relu":
            return d_out * state
        if self.kind == "leaky_relu":
            return self._leaky_times(state.astype(d_out.dtype), d_out)
        return d_out * state * (1.0 - state)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with the max-shift for stability."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(d_out: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Backward through a row-wise softmax given its output probabilities."""
    dot = (d_out * probs).sum(axis=1, keepdims=True)
    return probs * (d_out - dot)


def cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Mean negative log-likelihood over the rows.

    Returns (loss, gradient); the gradient is (softmax - onehot) / rows.
    Raises ValueError for zero rows.
    """
    rows = len(logits)
    if rows == 0:
        raise ValueError("cross_entropy needs at least one row")
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    loss = -(onehot * log_probs).sum() / rows
    grad = (np.exp(log_probs) - onehot) / rows
    return float(loss), grad


def _dropout_scale(rate: float, dtype) -> np.generic:
    """1 / (1 - rate), with both operands rounded to ``dtype`` before dividing."""
    dtype = np.dtype(dtype)
    return dtype.type(1.0) / dtype.type(1.0 - rate)


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator | None,
            training: bool):
    """Inverted dropout. Returns (output, mask); mask is None when inactive.

    The bool mask keeps each element with probability 1 - rate, drawn from
    ``rng``'s PCG64 generator in one of two forms:

    * At rate 0.5 an element takes one bit: the call reads ceil(n / 64) raw
      64-bit words (``random_raw``) and keeps an element where its bit is
      set, low bits first and word after word. This leaves the generator's
      buffered half-word of float32 draws alone, and the mask does not
      depend on x's dtype.
    * At any other rate the mask is ``rng.random(x.shape, dtype=x.dtype) <
      1 - rate``.

    The kept elements are scaled by 1 / (1 - rate), and the output keeps x's
    dtype. Raises ValueError for a generator other than PCG64, whose raw
    words have other widths, and TypeError for input other than float32 or
    float64.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ValueError("dropout draws its mask from PCG64 words, "
                         f"not from {type(bitgen).__name__}")
    if x.dtype not in (np.float32, np.float64):
        raise TypeError(f"dropout takes float32 or float64 input, got {x.dtype}")
    if rate == 0.5:
        words = bitgen.random_raw(-(-x.size // 64)).astype("<u8", copy=False)
        mask = np.unpackbits(words.view(np.uint8), count=x.size,
                             bitorder="little").view(np.bool_).reshape(x.shape)
    else:
        mask = rng.random(x.shape, dtype=x.dtype) < 1.0 - rate
    out = np.multiply(x, mask)
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

    def __init__(self, params: list[ParamTensor], lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
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
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Linear:
    """Linear layer owning its weight/bias parameters; only a training
    forward keeps its input, and backward releases it."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int, name: str):
        self.w = ParamTensor(f"{name}.w", glorot_uniform(rng, in_dim, out_dim))
        self.b = ParamTensor(f"{name}.b", np.zeros(out_dim))
        self._x = None

    @property
    def params(self) -> list[ParamTensor]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._x = x if training else None
        return linear_forward(x, self.w.value, self.b.value)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        x, self._x = self._x, None
        d_x, d_w, d_b = linear_backward(x, self.w.value, d_out)
        self.w.grad += d_w
        self.b.grad += d_b
        return d_x


class Mlp:
    """Stack of linear layers with activation + dropout between them.

    ``depth`` = 1 is a single linear map (no nonlinearity), matching the
    linear-model baselines. Only a training forward keeps what backward
    needs, in the MLP and in its layers: per hidden layer, the activation's
    :meth:`~Activation.state` (a bool array for the ReLUs) and the dropout
    mask. Backward releases each part once it has read it; a second
    backward needs a new training forward.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int,
                 out_dim: int, depth: int, activation: Activation,
                 dropout_rate: float, name: str):
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

    def forward(self, x: np.ndarray, training: bool,
                rng: np.random.Generator | None) -> np.ndarray:
        cache = []
        h = x
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, training)
            if i < len(self.layers) - 1:
                pre, h = h, self.activation.forward(h)
                state = self.activation.state(pre, h) if training else None
                del pre  # backward reads the state, not the float input
                h, mask = dropout(h, self.dropout_rate, rng, training)
                cache.append((state, mask))
        self._cache = cache if training else None
        return h

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        d_h = d_out
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                state, mask = cache.pop()  # cache[i]
                d_h = dropout_backward(d_h, mask, self.dropout_rate)
                d_h = self.activation.backward(d_h, state)
            d_h = self.layers[i].backward(d_h)
        return d_h

