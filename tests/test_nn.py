from types import SimpleNamespace

import numpy as np
import pytest

from gamlp.config import TrainConfig
from gamlp.model import load_checkpoint, restore_params, save_checkpoint
from gamlp.nn import (Activation, Adam, Linear, Mlp, NonFiniteError, ParamTensor,
                      Sgd, cross_entropy, dropout, dropout_backward, glorot_uniform,
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
    leaky = Activation("leaky_relu", 0.2)
    assert leaky.forward(np.array([-1.0]))[0] == pytest.approx(-0.2)
    assert leaky.forward(np.array([2.0]))[0] == pytest.approx(2.0)
    assert Activation("sigmoid").forward(np.array([0.0]))[0] == pytest.approx(0.5)
    assert Activation("relu").forward(np.array([-3.0, 3.0])).tolist() == [0.0, 3.0]
    with pytest.raises(ValueError):
        Activation("tanh")


@pytest.mark.parametrize("kind,slope", [("leaky_relu", 0.2), ("relu", 0.0), ("sigmoid", 0.0)])
def test_activation_backward_matches_central_differences(kind, slope):
    act = Activation(kind, slope)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(40) + 0.05  # keep away from the relu kink
    g = rng.standard_normal(40)
    analytic = act.backward(g, x)
    h = 1e-5
    numeric = g * (act.forward(x + h) - act.forward(x - h)) / (2 * h)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    assert err.max() <= 1e-6


@pytest.mark.parametrize("slope", [-0.2, 1.01, float("nan")])
def test_activation_refuses_a_slope_outside_0_1(slope):
    with pytest.raises(ValueError, match=r"^leaky_slope must lie in \[0, 1\], got"):
        Activation("leaky_relu", slope)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
def test_leaky_relu_equals_the_where_form_bit_for_bit(dtype, slope):
    rng = np.random.default_rng(8)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45]
    x = np.concatenate([special, rng.standard_normal(200)]).astype(dtype)
    d = np.concatenate([special[::-1], rng.standard_normal(200)]).astype(dtype)
    act = Activation("leaky_relu", slope)
    with np.errstate(invalid="ignore"):
        want_f = np.where(x >= 0.0, x, slope * x)
        want_b = np.where(x >= 0.0, d, slope * d)
        got_f, got_b = act.forward(x), act.backward(d, x)
    assert got_f.dtype == got_b.dtype == dtype
    assert np.array_equal(_bits(got_f), _bits(want_f))
    assert np.array_equal(_bits(got_b), _bits(want_b))


def test_leaky_relu_keeps_the_memory_order_of_its_input():
    x = np.asfortranarray(np.random.default_rng(9).standard_normal((50, 6)))
    act = Activation("leaky_relu", 0.2)
    assert act.forward(x).flags.f_contiguous
    assert act.backward(np.ones_like(x), x).flags.f_contiguous


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
    loss, grad = cross_entropy(logits, onehot, np.array([0]))
    assert loss == pytest.approx(0.31326168751822286, abs=1e-12)
    assert grad.shape == logits.shape


def test_cross_entropy_saturated():
    loss, _ = cross_entropy(np.array([[1000.0, 0.0]]), np.array([[1.0, 0.0]]),
                            np.array([0]))
    assert loss <= 1e-6


def test_cross_entropy_masks_rows():
    logits = np.array([[1.0, 0.0], [5.0, -5.0]])
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, grad = cross_entropy(logits, onehot, np.array([0]))
    assert not grad[1].any()
    with pytest.raises(ValueError):
        cross_entropy(logits, onehot, np.array([], dtype=int))


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 3))
    onehot = np.eye(3)[rng.integers(0, 3, size=4)]
    mask = np.array([0, 2, 3])
    _, grad = cross_entropy(logits, onehot, mask)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric = (cross_entropy(up, onehot, mask)[0]
                       - cross_entropy(down, onehot, mask)[0]) / (2 * h)
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
@pytest.mark.parametrize("rate", [0.5, 0.1])
def test_dropout_keep_rate_and_mean(dtype, rate):
    x = np.ones((1000, 1000), dtype=dtype)
    out, mask = dropout(x, rate, np.random.default_rng(7), training=True)
    assert mask.dtype == np.bool_ and out.dtype == dtype
    assert np.array_equal(out == 0, ~mask)
    assert abs(mask.mean() - (1 - rate)) < 2e-3
    assert abs(out.mean() - 1.0) < 4e-3
    # the kept entries carry exactly 1 / the kept fraction, divided in x's dtype
    assert set(np.unique(out).tolist()) == {0.0, float(dtype(1) / dtype(1 - rate))}


def test_dropout_equals_the_float_mask_form_bit_for_bit():
    # reference: x times the float mask (draw < keep) / keep, in x's dtype
    rng = np.random.default_rng(5)
    special = [-0.0, np.inf, -np.inf, np.nan]
    for dtype in (np.float32, np.float64):
        x = np.concatenate([special, rng.standard_normal(400)]).astype(dtype)
        d = rng.standard_normal(x.size).astype(dtype)
        for rate in (0.5, 0.1, 0.3):
            state = rng.bit_generator.state
            with np.errstate(invalid="ignore"):
                out, mask = dropout(x, rate, rng, training=True)
                rng.bit_generator.state = state
                ref_mask = ((rng.random(x.shape, dtype=dtype) < 1.0 - rate).astype(dtype)
                            / (1.0 - rate))
                assert np.array_equal(_bits(out), _bits(x * ref_mask))
            assert np.array_equal(_bits(dropout_backward(d, mask, rate)), _bits(d * ref_mask))


def test_dropout_backward_zeroes_exactly_the_dropped_entries():
    rng = np.random.default_rng(4)
    x, d = rng.standard_normal((2, 50, 9))
    for rate in (0.5, 0.3):
        _, mask = dropout(x, rate, rng, training=True)
        assert np.array_equal(dropout_backward(d, mask, rate) == 0, ~mask)
    assert dropout_backward(d, None, 0.5) is d


def test_adam_zero_gradient_is_noop():
    p = ParamTensor("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_magnitude_is_lr():
    p = ParamTensor("p", np.array([0.0]))
    p.grad[:] = 3.7
    Adam([p], lr=0.01).step()
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
    opt = Adam([p], lr=lr)
    for g in grads:
        p.grad[:] = g
        opt.step()
    assert abs(p.value[0] - theta) <= 1e-12


def test_adam_leaves_gradients_untouched():
    p = ParamTensor("p", np.array([1.0]))
    p.grad[:] = 2.0
    Adam([p]).step()
    assert p.grad[0] == 2.0


def test_sgd_step():
    p = ParamTensor("p", np.array([1.0]))
    p.grad[:] = 2.0
    Sgd([p], lr=0.1).step()
    assert p.value[0] == pytest.approx(0.8)


def _linear_ce_setup(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    onehot = np.eye(3)[rng.integers(0, 3, size=6)]
    layer = Linear(rng, 4, 3, "l")
    mask = np.arange(6)

    def loss_fn():
        return cross_entropy(layer.forward(x), onehot, mask)[0]

    loss, d = cross_entropy(layer.forward(x), onehot, mask)
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
    mlp = Mlp(rng, 5, 8, 3, depth=3, activation=Activation("sigmoid"))
    x = rng.standard_normal((7, 5))
    onehot = np.eye(3)[rng.integers(0, 3, size=7)]
    mask = np.arange(7)

    def loss_fn():
        return cross_entropy(mlp.forward(x), onehot, mask)[0]

    _, d = cross_entropy(mlp.forward(x), onehot, mask)
    for p in mlp.params:
        p.zero_grad()
    mlp.backward(d)
    assert grad_check(loss_fn, mlp.params, h=1e-5) <= 1e-6


def test_mlp_depth_one_is_linear():
    rng = np.random.default_rng(10)
    mlp = Mlp(rng, 4, 99, 2, depth=1, activation=Activation("relu"))
    x = rng.standard_normal((3, 4))
    want = x @ mlp.layers[0].w.value + mlp.layers[0].b.value
    assert np.allclose(mlp.forward(x), want)
    with pytest.raises(ValueError):
        Mlp(rng, 4, 8, 2, depth=0, activation=Activation("relu"))


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
