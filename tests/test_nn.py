import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gamlp import nn
from gamlp.config import TrainConfig
from gamlp.model import load_checkpoint, restore_params, save_checkpoint
from gamlp.nn import (Activation, Adam, Linear, Mlp, NonFiniteError, ParamTensor,
                      cross_entropy, dropout, dropout_backward, glorot_uniform,
                      linear_backward, linear_forward, softmax_backward, softmax_rows)
from gamlp.propagation import Stack

from conftest import grad_check


def test_linear_identity():
    out = linear_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_linear_zero_input_gives_bias():
    b = np.array([3.0, -1.0])
    out = linear_forward(np.zeros((4, 3)), np.ones((3, 2)), b)
    assert np.array_equal(out, np.tile(b, (4, 1)))


def test_linear_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = b[j]
            for k in range(4):
                acc += x[i, k] * w[k, j]
            want[i, j] = acc
    assert np.allclose(linear_forward(x, w, b), want, atol=1e-12)


def test_linear_shape_and_finite_guards():
    with pytest.raises(ValueError):
        linear_forward(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))
    with pytest.raises(NonFiniteError):
        linear_forward(np.array([[np.inf]]), np.ones((1, 1)), np.zeros(1))


def test_activation_values():
    leaky = Activation("leaky_relu")
    assert leaky.forward(np.array([-1.0]))[0] == pytest.approx(-0.2)
    assert leaky.forward(np.array([2.0]))[0] == pytest.approx(2.0)
    assert Activation("sigmoid").forward(np.array([0.0]))[0] == pytest.approx(0.5)
    assert Activation("relu").forward(np.array([-3.0, 3.0])).tolist() == [0.0, 3.0]
    with pytest.raises(ValueError):
        Activation("tanh")


@pytest.mark.parametrize("kind,slope", [("leaky_relu", 0.2), ("relu", 0.0), ("sigmoid", 0.0)])
def test_activation_backward_matches_central_differences(monkeypatch, kind, slope):
    monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)  # relu and sigmoid ignore it
    act = Activation(kind)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(40) + 0.05  # keep away from the relu kink
    g = rng.standard_normal(40)
    analytic = act.backward(g, act.state(x, act.forward(x)))
    h = 1e-5
    numeric = g * (act.forward(x + h) - act.forward(x - h)) / (2 * h)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    assert err.max() <= 1e-6


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_leaky_relu_equals_the_where_form_bit_for_bit(monkeypatch, dtype, slope):
    # LEAKY_SLOPE is 0.2; the factor form holds for any slope in [0, 1]
    monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)
    rng = np.random.default_rng(8)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45]
    x = np.concatenate([special, rng.standard_normal(200)]).astype(dtype)
    d = np.concatenate([special[::-1], rng.standard_normal(200)]).astype(dtype)
    act = Activation("leaky_relu")
    with np.errstate(invalid="ignore"):
        want_f = np.where(x >= 0.0, x, slope * x)
        want_b = np.where(x >= 0.0, d, slope * d)
        got_f = act.forward(x)
        got_b = act.backward(d, act.state(x, got_f))
    assert got_f.dtype == got_b.dtype == dtype
    assert np.array_equal(_bits(got_f), _bits(want_f))
    assert np.array_equal(_bits(got_b), _bits(want_b))


def test_leaky_relu_keeps_the_memory_order_of_its_input():
    x = np.asfortranarray(np.random.default_rng(9).standard_normal((50, 6)))
    act = Activation("leaky_relu")
    assert act.forward(x).flags.f_contiguous
    assert act.backward(np.ones_like(x), act.state(x, act.forward(x))).flags.f_contiguous


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_expit_without_warnings(dtype):
    from scipy.special import expit

    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4, info.smallest_subnormal,
                        -info.smallest_subnormal, info.tiny / 4, -info.tiny / 4], dtype=dtype)
    x = np.concatenate([special, np.linspace(-800, 800, 160001, dtype=dtype),
                        np.linspace(-40, 40, 160001, dtype=dtype)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, invalid or underflow warning
        got = nn.sigmoid(x)
    want = expit(x)
    assert got.dtype == dtype
    assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and np.isnan(got[4])
    assert np.array_equal(got[5:7], [1.0, 0.0])
    assert np.all(got[7:] >= 0.0) and np.all(got[7:] <= 1.0)
    # expit calls the C library's exp and numpy its own vectorised one; each
    # result can be 2 ulp off the correctly rounded sigmoid, on either side
    # (at float32 x = -16.717 the sigmoid is 2 ulp above and expit 2 below)
    normal = np.minimum(got, want) >= info.tiny  # positive, so the bits order them
    ulps = _bits(got[normal]).astype(np.int64) - _bits(want[normal]).astype(np.int64)
    assert np.abs(ulps).max() <= 4
    # below tiny (x far below 0), expit's 1 / (1 + exp(-x)) rounds to 0 once
    # exp(-x) overflows; the sigmoid gives exp(x), which it equals there
    low = ~normal & ~np.isnan(x)
    assert np.all(np.abs(got[low] - want[low]) <= info.tiny)
    assert np.array_equal(got[low], np.exp(x[low]))


@pytest.mark.parametrize("kind, state_dtype", [("leaky_relu", np.bool_), ("relu", np.bool_),
                                               ("sigmoid", np.float32)])
def test_mlp_training_cache_keeps_the_activation_state(kind, state_dtype):
    # per hidden layer: what the activation's backward reads, and the dropout
    # mask; a float pre-activation only where the derivative needs a float
    mlp = Mlp(np.random.default_rng(3), 5, 7, 3, depth=3, activation=Activation(kind),
              dropout_rate=0.5, name="mlp")
    for p in mlp.params:
        p.value = p.value.astype(np.float32)
    x = np.random.default_rng(4).standard_normal((9, 5)).astype(np.float32)
    mlp.forward(x, True, np.random.default_rng(5))
    assert len(mlp._cache) == 2
    for state, mask in mlp._cache:
        assert state.dtype == state_dtype and state.shape == (9, 7)
        assert mask.dtype == np.bool_
    mlp.forward(x, False, None)
    assert mlp._cache is None


def _float_pre_reference(mlp: Mlp, x: np.ndarray, d_out: np.ndarray, rng):
    """Output, input gradient and parameter gradients of ``mlp``, from a forward
    that keeps each float pre-activation and a backward that reads it."""
    inputs, pres, masks = [], [], []
    h = x
    for i, layer in enumerate(mlp.layers):
        inputs.append(h)
        h = h @ layer.w.value + layer.b.value
        if i < len(mlp.layers) - 1:
            pres.append(h)
            h, mask = dropout(mlp.activation.forward(h), mlp.dropout_rate, rng, True)
            masks.append(mask)
    out, grads, d = h, [], d_out
    for i in range(len(mlp.layers) - 1, -1, -1):
        if i < len(mlp.layers) - 1:
            d, pre = dropout_backward(d, masks[i], mlp.dropout_rate), pres[i]
            if mlp.activation.kind == "relu":
                d = d * (pre > 0.0)
            elif mlp.activation.kind == "leaky_relu":
                d = np.where(pre >= 0.0, d, nn.LEAKY_SLOPE * d)
            else:
                s = nn.sigmoid(pre)
                d = d * s * (1.0 - s)
        w = mlp.layers[i].w.value
        grads = [inputs[i].T @ d, d.sum(axis=0)] + grads
        d = d @ w.T
    return out, d, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["leaky_relu", "relu", "sigmoid"])
def test_mlp_gradients_equal_the_float_pre_activation_reference(kind, dtype):
    mlp = Mlp(np.random.default_rng(6), 5, 7, 3, depth=3, activation=Activation(kind),
              dropout_rate=0.3, name="mlp")
    for p in mlp.params:
        p.value = p.value.astype(dtype)
        p.grad = np.zeros_like(p.value)
    x = np.random.default_rng(7).standard_normal((40, 5)).astype(dtype)
    x[:4] = 0.0  # the biases start at 0, so these rows sit on the kink at 0
    d_out = np.random.default_rng(8).standard_normal((40, 3)).astype(dtype)
    want_out, want_dx, want_grads = _float_pre_reference(mlp, x, d_out,
                                                         np.random.default_rng(9))
    got_out = mlp.forward(x, True, np.random.default_rng(9))
    got_dx = mlp.backward(d_out)
    for got, want in zip([got_out, got_dx] + [p.grad for p in mlp.params],
                         [want_out, want_dx] + want_grads):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(_bits(got), _bits(want))


def test_softmax_uniform_and_analytic():
    assert np.allclose(softmax_rows(np.zeros((3, 4))), 0.25)
    row = softmax_rows(np.array([[0.0, np.log(2.0)]]))
    assert np.allclose(row, [[1 / 3, 2 / 3]], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((5, 6))
    assert np.allclose(softmax_rows(s), softmax_rows(s + 1000.0), atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    p = softmax_rows(rng.standard_normal((50, 7)) * 10)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert p.min() >= 0


def test_softmax_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((3, 5))
    g = rng.standard_normal((3, 5))
    analytic = softmax_backward(g, softmax_rows(s))
    h = 1e-6
    numeric = np.zeros_like(s)
    for i in range(3):
        for j in range(5):
            up, down = s.copy(), s.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric[i, j] = ((softmax_rows(up) * g).sum() - (softmax_rows(down) * g).sum()) / (2 * h)
    assert np.abs(analytic - numeric).max() <= 1e-6


def test_cross_entropy_analytic():
    # ln(1 + e^-1), frozen from the closed form
    logits = np.array([[1.0, 0.0]])
    onehot = np.array([[1.0, 0.0]])
    loss, grad = cross_entropy(logits, onehot)
    assert loss == pytest.approx(0.31326168751822286, abs=1e-12)
    assert grad.shape == logits.shape


def test_cross_entropy_saturated():
    loss, _ = cross_entropy(np.array([[1000.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert loss <= 1e-6


def test_cross_entropy_averages_over_its_rows():
    logits = np.array([[1.0, 0.0], [5.0, -5.0]])
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, grad = cross_entropy(logits, onehot)
    rows = [cross_entropy(logits[i:i + 1], onehot[i:i + 1]) for i in range(2)]
    assert loss == pytest.approx((rows[0][0] + rows[1][0]) / 2, abs=1e-12)
    assert np.allclose(grad, np.concatenate([g for _, g in rows]) / 2, atol=1e-15)
    with pytest.raises(ValueError, match="^cross_entropy needs at least one row$"):
        cross_entropy(logits[:0], onehot[:0])


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 3))
    onehot = np.eye(3)[rng.integers(0, 3, size=4)]
    _, grad = cross_entropy(logits, onehot)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric = (cross_entropy(up, onehot)[0]
                       - cross_entropy(down, onehot)[0]) / (2 * h)
            assert abs(grad[i, j] - numeric) <= 1e-6


def test_dropout_identity_cases():
    x = np.ones((5, 5))
    rng = np.random.default_rng(6)
    out, mask = dropout(x, 0.0, rng, training=True)
    assert mask is None and out is x
    out, mask = dropout(x, 0.9, rng, training=False)
    assert mask is None and out is x
    with pytest.raises(ValueError):
        dropout(x, 1.0, rng, training=True)


def test_dropout_preserves_mean():
    rng = np.random.default_rng(7)
    x = np.ones(10 ** 6)
    out, _ = dropout(x.reshape(1000, 1000), 0.5, rng, training=True)
    assert abs(out.mean() - 1.0) < 0.01


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.5, 0.25, 0.1])
def test_dropout_keep_rate_and_mean(dtype, rate):
    x = np.ones((1000, 1000), dtype=dtype)
    out, mask = dropout(x, rate, np.random.default_rng(7), training=True)
    assert mask.dtype == np.bool_ and out.dtype == dtype
    assert np.array_equal(out == 0, ~mask)
    assert abs(mask.mean() - (1 - rate)) < 2e-3
    assert abs(out.mean() - 1.0) < 4e-3
    # the kept entries carry exactly 1 / the kept fraction, divided in x's dtype
    assert set(np.unique(out).tolist()) == {0.0, float(dtype(1) / dtype(1 - rate))}


def _bit_mask_by_hand(twin: np.random.Generator, n: int):
    """The keep mask of rate 0.5, read bit by bit from the twin's raw words:
    element i keeps where bit i of the words, read low bits first, is set."""
    words = [int(w) for w in twin.bit_generator.random_raw(math.ceil(n / 64))]
    return np.array([words[i // 64] >> (i % 64) & 1 for i in range(n)], dtype=np.bool_)


def test_dropout_equals_the_float_mask_form_bit_for_bit():
    # reference: x times the float mask (draw < keep) / keep, in x's dtype, drawn
    # by a twin generator; dropout must leave its generator in the twin's state.
    # Rate 0.5 takes its mask from one bit per element, by hand here, so the
    # float draws around it must read the words after that draw's.
    data = np.random.default_rng(5)
    special = [-0.0, np.inf, -np.inf, np.nan]
    entries = {"fresh": lambda g: None,  # the last two leave a half-word buffered
               "float32 draw": lambda g: g.random(1, dtype=np.float32),
               "permutation": lambda g: g.permutation(6)}
    # 1e-9 and 1e-17 round keep to 1 in float32 and in float64; 1 - 1e-9 keeps
    # only a draw of 0
    rates = (0.5, 0.1, 0.3, 0.25, 0.75, 1e-9, 1e-17, 1 - 1e-9)
    for dtype in (np.float32, np.float64):
        for size in (0, 1, 2, 7, 401, 404):
            x = np.concatenate([special, data.standard_normal(400)])[:size].astype(dtype)
            d = data.standard_normal(size).astype(dtype)
            for entry, prepare in entries.items():
                rng, twin = np.random.default_rng(0), np.random.default_rng(0)
                prepare(rng)
                prepare(twin)
                assert rng.bit_generator.state["has_uint32"] == (entry != "fresh")
                for rate in rates:
                    with np.errstate(invalid="ignore"):
                        out, mask = dropout(x, rate, rng, training=True)
                        if rate == 0.5:
                            keep = _bit_mask_by_hand(twin, size)
                        else:
                            keep = twin.random(x.shape, dtype=dtype) < 1.0 - rate
                        ref_mask = keep.astype(dtype) / (1.0 - rate)
                        assert np.array_equal(_bits(out), _bits(x * ref_mask))
                    assert np.array_equal(_bits(dropout_backward(d, mask, rate)),
                                          _bits(d * ref_mask))
                    assert rng.bit_generator.state == twin.bit_generator.state, \
                        (np.dtype(dtype).name, size, entry, rate)


def test_dropout_takes_one_bit_per_element_at_rate_half():
    rate = 0.5
    data = np.random.default_rng(6)
    for dtype in (np.float32, np.float64):
        for size in (0, 1, 7, 63, 64, 65, 401):
            x = data.standard_normal(size).astype(dtype)
            for buffered in (False, True):
                rng, twin = np.random.default_rng(1), np.random.default_rng(1)
                if buffered:  # a float32 draw leaves a half-word buffered
                    rng.random(1, dtype=np.float32)
                    twin.random(1, dtype=np.float32)
                held = rng.bit_generator.state
                assert held["has_uint32"] == buffered
                out, mask = dropout(x, rate, rng, training=True)
                keep = _bit_mask_by_hand(twin, size)
                assert np.array_equal(mask, keep), (np.dtype(dtype).name, size, buffered)
                scale = dtype(1) / dtype(1 - rate)
                assert out.dtype == dtype
                assert np.array_equal(_bits(out), _bits(x * keep.astype(dtype) * scale))
                after = rng.bit_generator.state
                assert after == twin.bit_generator.state
                # the buffered half-word is left as it was
                assert (after["has_uint32"], after["uinteger"]) == \
                    (held["has_uint32"], held["uinteger"])


# only rate 0.5 reads bits; every other rate draws rng.random in x's dtype
@pytest.mark.parametrize("rate", [0.5])
def test_dropout_masks_at_a_dyadic_rate_do_not_depend_on_the_dtype(rate):
    x = np.random.default_rng(2).standard_normal((3, 50, 7))
    masks = []
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(4)
        masks.append([dropout(x.astype(dtype), rate, rng, training=True)[1]
                      for _ in range(3)])
    for got, want in zip(*masks):
        assert np.array_equal(got, want)


def test_dropout_refuses_a_generator_other_than_pcg64():
    # MT19937's raw words hold 32 bits: read as PCG64 words, their zero high
    # halves would always be kept; the refusal comes first at every rate
    rng = np.random.Generator(np.random.MT19937(0))
    for rate in (0.5, 0.3):
        with pytest.raises(ValueError, match="^dropout draws its mask from PCG64 words, "
                                             "not from MT19937$"):
            dropout(np.ones(8, dtype=np.float32), rate, rng, training=True)
    assert dropout(np.ones(8), 0.5, rng, training=False)[1] is None


@pytest.mark.parametrize("dtype", [np.float16, np.int32])
@pytest.mark.parametrize("rate", [0.5, 0.3])
def test_dropout_refuses_input_other_than_float32_or_float64(rate, dtype):
    # the bit draw at rate 0.5 would take any dtype: the check stands before it
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match="^dropout takes float32 or float64 input"):
        dropout(np.ones(8, dtype=dtype), rate, rng, training=True)
    assert rng.bit_generator.state == state


def test_dropout_backward_zeroes_exactly_the_dropped_entries():
    rng = np.random.default_rng(4)
    x, d = rng.standard_normal((2, 50, 9))
    for rate in (0.5, 0.3):
        _, mask = dropout(x, rate, rng, training=True)
        assert np.array_equal(dropout_backward(d, mask, rate) == 0, ~mask)
    assert dropout_backward(d, None, 0.5) is d


def test_adam_zero_gradient_is_noop():
    p = ParamTensor("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_magnitude_is_lr():
    p = ParamTensor("p", np.array([0.0]))
    p.grad[:] = 3.7
    Adam([p], lr=0.01, weight_decay=0.0).step()
    assert abs(p.value[0]) == pytest.approx(0.01, rel=1e-6)
    assert p.value[0] < 0


def test_adam_matches_scalar_recurrence_oracle():
    lr, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(8)
    grads = rng.standard_normal(10)
    # independent scalar recurrence
    theta, m, v = 0.3, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    p = ParamTensor("p", np.array([0.3]))
    opt = Adam([p], lr=lr, weight_decay=0.0)
    for g in grads:
        p.grad[:] = g
        opt.step()
    assert abs(p.value[0] - theta) <= 1e-12


def test_adam_leaves_gradients_untouched():
    p = ParamTensor("p", np.array([1.0]))
    p.grad[:] = 2.0
    Adam([p], lr=0.001, weight_decay=0.0).step()
    assert p.grad[0] == 2.0


def _linear_ce_setup(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    onehot = np.eye(3)[rng.integers(0, 3, size=6)]
    layer = Linear(rng, 4, 3, "l")

    def loss_fn():
        return cross_entropy(layer.forward(x, False), onehot)[0]

    loss, d = cross_entropy(layer.forward(x, training=True), onehot)
    for p in layer.params:
        p.zero_grad()
    layer.backward(d)
    return loss_fn, layer.params


def test_grad_check_linear_ce():
    loss_fn, params = _linear_ce_setup()
    assert grad_check(loss_fn, params, h=1e-5) <= 1e-6


def test_grad_check_detects_corrupted_backward():
    loss_fn, params = _linear_ce_setup(seed=1)
    params[0].grad *= -1.0  # simulated sign-flip bug
    assert grad_check(loss_fn, params, h=1e-5) > 0.1


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    mlp = Mlp(rng, 5, 8, 3, depth=3, activation=Activation("sigmoid"), dropout_rate=0.0,
              name="mlp")
    x = rng.standard_normal((7, 5))
    onehot = np.eye(3)[rng.integers(0, 3, size=7)]

    def loss_fn():
        return cross_entropy(mlp.forward(x, False, None), onehot)[0]

    _, d = cross_entropy(mlp.forward(x, training=True, rng=None), onehot)
    for p in mlp.params:
        p.zero_grad()
    mlp.backward(d)
    assert grad_check(loss_fn, mlp.params, h=1e-5) <= 1e-6


def test_mlp_depth_one_is_linear():
    rng = np.random.default_rng(10)
    mlp = Mlp(rng, 4, 99, 2, depth=1, activation=Activation("relu"), dropout_rate=0.0,
              name="mlp")
    x = rng.standard_normal((3, 4))
    want = x @ mlp.layers[0].w.value + mlp.layers[0].b.value
    assert np.allclose(mlp.forward(x, False, None), want)
    with pytest.raises(ValueError):
        Mlp(rng, 4, 8, 2, depth=0, activation=Activation("relu"), dropout_rate=0.0,
            name="mlp")


def test_glorot_bounds():
    vals = glorot_uniform(np.random.default_rng(11), 30, 50)
    limit = np.sqrt(6.0 / 80.0)
    assert vals.shape == (30, 50)
    assert vals.min() >= -limit and vals.max() <= limit


def _save(path, params):
    """Checkpoint bare parameters as if they were a model without labels."""
    model = SimpleNamespace(params=params, config=TrainConfig(use_labels=False))
    stack = Stack(mats=np.zeros((1, 1, 1)), fingerprint=b"\1" * 32)
    save_checkpoint(path, model, stack, None)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    params = [ParamTensor("a.w", rng.standard_normal((3, 2))),
              ParamTensor("a.b", rng.standard_normal(2)),
              ParamTensor("s", rng.standard_normal(5))]
    path = tmp_path / "model.gmck"
    _save(path, params)
    _, arrays = load_checkpoint(path)
    for p in params:
        assert np.array_equal(arrays[f"param/{p.name}"], p.value)
    assert set(arrays) == {"param/a.w", "param/a.b", "param/s", "fingerprint/features"}
    fresh = [ParamTensor(p.name, np.zeros_like(p.value)) for p in params]
    restore_params(fresh, arrays)
    for p, q in zip(params, fresh):
        assert np.array_equal(p.value, q.value)


def test_checkpoint_without_optimizer(tmp_path):
    # checkpoints keep no optimizer state: fit restores the best epoch's
    # parameters, which the last epoch's moments would not match
    params = [ParamTensor("w", np.ones((2, 2)))]
    path = tmp_path / "p.gmck"
    _save(path, params)
    _, arrays = load_checkpoint(path)
    assert not any(name.startswith("adam/") for name in arrays)
    assert np.array_equal(arrays["param/w"], np.ones((2, 2)))


def test_checkpoint_bad_magic(tmp_path):
    from gamlp.model import CheckpointFormatError
    path = tmp_path / "junk"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_linear_backward_shapes():
    rng = np.random.default_rng(13)
    x, w = rng.standard_normal((5, 3)), rng.standard_normal((3, 2))
    d_out = rng.standard_normal((5, 2))
    d_x, d_w, d_b = linear_backward(x, w, d_out)
    assert d_x.shape == x.shape and d_w.shape == w.shape and d_b.shape == (2,)
