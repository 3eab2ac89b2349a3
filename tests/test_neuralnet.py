import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirouter.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    DenseLayer,
    adam_step,
    backward,
    forward,
    init_adam,
    init_dense,
    load_checkpoint,
    save_checkpoint,
)
from equirouter.rng import make_rng

from conftest import grad_check


# ---------------------------------------------------------------------------
# forward


def test_forward_identity():
    layer = DenseLayer(weight=np.eye(3), bias=np.zeros(3))
    x = np.array([[1.0, -2.0, 3.0]])
    assert np.array_equal(forward(layer, x), x)


def test_forward_relu():
    layer = DenseLayer(weight=np.eye(2), bias=np.zeros(2), activation="relu")
    assert np.array_equal(forward(layer, np.array([[-1.0, 2.0]])), [[0.0, 2.0]])


def test_forward_hand_product():
    layer = DenseLayer(weight=np.array([[1.0, 1.0]]), bias=np.array([1.0]))
    out = forward(layer, np.array([[2.0, 3.0]]))
    assert out.shape == (1, 1) and out[0, 0] == pytest.approx(6.0)


def test_forward_shape_mismatch():
    layer = DenseLayer(weight=np.eye(3), bias=np.zeros(3))
    with pytest.raises(ValueError):
        forward(layer, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_grad_out():
    rng = make_rng(0, 1)
    layer = init_dense(rng, 4, 3, "relu")
    x = rng.standard_normal((5, 4))
    gx, gw, gb = backward(layer, x, np.zeros((5, 3)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_backward_scalar_product_rule():
    layer = DenseLayer(weight=np.array([[2.0]]), bias=np.array([0.0]))
    x = np.array([[3.0]])
    _, gw, _ = backward(layer, x, np.array([[5.0]]))
    assert gw[0, 0] == pytest.approx(15.0)  # grad_w = grad_out * x


def test_relu_backward_from_recorded_output_is_exact():
    rng = make_rng(4, 1)
    layer = init_dense(rng, 4, 6, "relu")
    layer.weight[:2] = 0.0
    layer.bias[:3] = [0.0, -0.0, 0.5]  # exact zero pre-activations in columns 0-1
    x = rng.standard_normal((8, 4))
    x[0], x[1, :2], x[2, 2:] = 0.0, -0.0, -0.0
    grad_out = rng.standard_normal((8, 6))
    # reference: the mask from a recomputed pre-activation
    z = x @ layer.weight.T + layer.bias
    masked = grad_out * (z > 0.0)
    expected = (masked @ layer.weight, masked.T @ x, masked.sum(axis=0))
    recorded = backward(layer, x, grad_out, forward(layer, x))
    assert all(np.array_equal(g, e) for g, e in zip(recorded, expected))
    no_input = backward(layer, x, grad_out, forward(layer, x), input_grad=False)
    assert no_input[0] is None
    assert np.array_equal(no_input[1], expected[1]) and np.array_equal(no_input[2], expected[2])


def _fd_layer_grads(layer, x, grad_out, h=1e-5):
    def loss(w, b):
        probe = DenseLayer(weight=w, bias=b, activation=layer.activation)
        return float(np.sum(forward(probe, x) * grad_out))

    gw = np.zeros_like(layer.weight)
    for i in np.ndindex(*layer.weight.shape):
        wp, wm = layer.weight.copy(), layer.weight.copy()
        wp[i] += h
        wm[i] -= h
        gw[i] = (loss(wp, layer.bias) - loss(wm, layer.bias)) / (2 * h)
    gb = np.zeros_like(layer.bias)
    for i in range(layer.bias.size):
        bp, bm = layer.bias.copy(), layer.bias.copy()
        bp[i] += h
        bm[i] -= h
        gb[i] = (loss(layer.weight, bp) - loss(layer.weight, bm)) / (2 * h)
    return gw, gb


def test_backward_matches_finite_differences():
    rng = make_rng(2, 1)
    layer = init_dense(rng, 4, 3, "relu")
    x = rng.standard_normal((5, 4))
    grad_out = rng.standard_normal((5, 3))
    _, gw, gb = backward(layer, x, grad_out)
    fw, fb = _fd_layer_grads(layer, x, grad_out)
    assert np.max(np.abs(gw - fw) / np.maximum(np.abs(fw), 1e-6)) < 1e-4
    assert np.max(np.abs(gb - fb) / np.maximum(np.abs(fb), 1e-6)) < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    n_in=st.integers(1, 6),
    n_out=st.integers(1, 6),
    batch=st.integers(1, 4),
    act=st.sampled_from(["identity", "relu"]),
    seed=st.integers(0, 1000),
)
def test_backward_matches_fd_any_shape(n_in, n_out, batch, act, seed):
    rng = make_rng(seed, 3)
    layer = init_dense(rng, n_in, n_out, act)
    layer.bias = rng.standard_normal(n_out)  # move relu kinks off zero inputs
    x = rng.standard_normal((batch, n_in))
    grad_out = rng.standard_normal((batch, n_out))
    _, gw, gb = backward(layer, x, grad_out)
    fw, fb = _fd_layer_grads(layer, x, grad_out)
    assert np.max(np.abs(gw - fw) / np.maximum(np.abs(fw), 1e-4)) < 1e-3
    assert np.max(np.abs(gb - fb) / np.maximum(np.abs(fb), 1e-4)) < 1e-3


# ---------------------------------------------------------------------------
# Adam


def reference_adam_step(state, params, grads):
    """Adam as a per-array update, the form it took before it updated one
    flat vector: the reference spec of `adam_step`. `state` is
    [step, m list, v list, learning rate, weight decay]."""
    state[0] += 1
    t, m, v, lr, wd = state
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
        v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m[i] / (1.0 - ADAM_BETA1**t)
        v_hat = v[i] / (1.0 - ADAM_BETA2**t)
        new = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        if wd:
            new = new - lr * wd * p
        out.append(new)
    return out


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.5])
def test_adam_step_is_bytewise_the_per_array_update(weight_decay):
    rng = make_rng(7, 3)
    shapes = [(5, 3), (5,), (1, 5), (1,), (4, 4, 2)]
    params = [rng.standard_normal(shape) for shape in shapes]
    ref_state = [0, [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes], 3e-3,
                 weight_decay]
    theta = np.concatenate([v.ravel() for v in params])
    state = init_adam(theta.size, learning_rate=3e-3, weight_decay=weight_decay)
    for _ in range(10):
        grads = [rng.standard_normal(shape) for shape in shapes]
        before = theta.tobytes()
        new = adam_step(state, theta, np.concatenate([g.ravel() for g in grads]))
        assert theta.tobytes() == before  # a new vector; the old one is kept
        theta = new
        params = reference_adam_step(ref_state, params, grads)
        assert theta.tobytes() == np.concatenate([v.ravel() for v in params]).tobytes()
    assert state.step == 10
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_state[1]]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_state[2]]).tobytes()


def test_adam_zero_grads_is_identity():
    theta = np.array([1.0, -2.0, 3.0])
    state = init_adam(theta.size, learning_rate=0.1, weight_decay=0.0)
    out = adam_step(state, theta, np.zeros(3))
    assert np.array_equal(out, theta) and out is not theta


def test_adam_first_step_magnitude():
    state = init_adam(1, learning_rate=1e-3)
    out = adam_step(state, np.array([1.0]), np.array([1.0]))
    assert out[0] == pytest.approx(1.0 - 1e-3, abs=1e-8)


def test_adam_decay_only():
    state = init_adam(1, learning_rate=0.01, weight_decay=0.5)
    out = adam_step(state, np.array([2.0]), np.array([0.0]))
    assert out[0] == pytest.approx(2.0 - 0.01 * 0.5 * 2.0)


def test_adam_deterministic():
    def run():
        theta = make_rng(4, 2).standard_normal(6)
        state = init_adam(theta.size, learning_rate=0.01)
        for _ in range(10):
            theta = adam_step(state, theta, theta * 0.3)
        return theta

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    state = init_adam(2)
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(state, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="optimizer state"):
        adam_step(state, np.zeros(3), np.zeros(3))
    assert state.step == 0


# ---------------------------------------------------------------------------
# gradient checker


def test_grad_check_quadratic_exact():
    def fn(params):
        (theta,) = params
        return 0.5 * float(np.sum(theta**2)), [theta]

    rng = make_rng(5, 1)
    report = grad_check(fn, [rng.standard_normal(8)], h=1e-5)
    assert report.max_rel_error < 1e-8


def test_grad_check_detects_wrong_gradient():
    def fn(params):
        (theta,) = params
        return 0.5 * float(np.sum(theta**2)), [2.0 * theta]  # wrong by 2x

    report = grad_check(fn, [np.ones(3)], h=1e-5)
    assert not report.passed


def test_grad_check_rejects_zero_step():
    with pytest.raises(ValueError):
        grad_check(lambda p: (0.0, p), [np.ones(2)], h=0.0)


def test_grad_check_rejects_nonfinite_loss():
    with pytest.raises(ValueError, match="finite"):
        grad_check(lambda p: (float("nan"), p), [np.ones(2)])


def test_grad_check_coordinate_sampling():
    def fn(params):
        (theta,) = params
        return 0.5 * float(np.sum(theta**2)), [theta]

    report = grad_check(fn, [np.ones(100)], max_coords=10, seed=1)
    assert report.n_coords == 10


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = make_rng(6, 1)
    params = [rng.standard_normal((3, 4)), rng.standard_normal(5) * 1e-17]
    header = {"router_type": "test", "seed": 7, "lr": 1e-3}
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, header, params)
    header_, loaded_params = load_checkpoint(path)
    assert header_["router_type"] == "test" and header_["seed"] == 7
    for a, b in zip(params, loaded_params):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)
