"""Network math: forward/backward against closed forms and finite differences."""

import json

import numpy as np
import pytest

from conftest import rel_err
from sentarl.errors import ModelFormatError, NonFiniteGradientError
from sentarl.nn import (ACTIVATIONS, Gradients, Mlp, RmspropState, apply_update,
                        backward, deserialize, fd_gradients, forward, load_model,
                        log_softmax, save_model, serialize, softmax, softmax_sample)


def linear_net(weight_rows, bias, activation="tanh"):
    w = np.asarray(weight_rows, dtype=float)
    b = np.asarray(bias, dtype=float)
    return Mlp((w.shape[0], w.shape[1]), [w], [b], activation)


def max_rel_err(analytic: Gradients, numeric: Gradients) -> float:
    worst = 0.0
    for a_arrs, n_arrs in ((analytic.weights, numeric.weights),
                           (analytic.biases, numeric.biases)):
        for a, n in zip(a_arrs, n_arrs):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_create_shapes_and_init():
    rng = np.random.default_rng(0)
    net = Mlp.create([4, 8, 3], rng)
    assert net.layer_sizes == (4, 8, 3)
    assert net.input_size == 4 and net.output_size == 3
    for w, (n_in, n_out) in zip(net.weights, [(4, 8), (8, 3)]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        assert w.shape == (n_in, n_out)
        assert np.all(np.abs(w) <= limit)
    for b in net.biases:
        assert np.all(b == 0.0)
    # same seed, same parameters
    again = Mlp.create([4, 8, 3], np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))


def test_create_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Mlp.create([4], rng)
    with pytest.raises(ValueError):
        Mlp.create([4, 0, 2], rng)
    with pytest.raises(ValueError):
        Mlp.create([4, 3], rng, activation="sigmoid")
    with pytest.raises(ValueError, match="non-finite"):
        linear_net([[np.nan]], [0.0])


def test_forward_linear_closed_form():
    net = linear_net([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0.5, -0.5])
    x = np.array([1.0, 0.0, -1.0])
    out, cache = forward(net, x)
    assert out.tolist() == [1.0 - 5.0 + 0.5, 2.0 - 6.0 - 0.5]
    assert cache.layer_sizes == (3, 2)


def test_forward_zero_weights_gives_bias():
    net = Mlp((3, 2), [np.zeros((3, 2))], [np.array([0.7, -0.2])])
    out, _ = forward(net, np.array([9.0, -4.0, 2.0]))
    assert out.tolist() == [0.7, -0.2]


def test_forward_hidden_layer_closed_form():
    # 1-1-1 tanh net with unit weights: out = tanh(x)
    net = Mlp((1, 1, 1), [np.ones((1, 1)), np.ones((1, 1))],
              [np.zeros(1), np.zeros(1)])
    out, _ = forward(net, np.array([0.3]))
    assert out[0] == pytest.approx(np.tanh(0.3), rel=1e-15)


def test_forward_input_validation():
    net = linear_net([[1.0], [1.0]], [0.0])
    with pytest.raises(ValueError, match="shape"):
        forward(net, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        forward(net, np.array([np.inf, 0.0]))


def test_backward_linear_is_outer_product():
    net = linear_net([[0.2, -0.1], [0.4, 0.3]], [0.0, 0.0])
    x = np.array([2.0, -3.0])
    v = np.array([1.0, -2.0])
    _, cache = forward(net, x)
    grads = backward(net, cache, v)
    assert np.array_equal(grads.weights[0], np.outer(x, v))
    assert np.array_equal(grads.biases[0], v)


def test_backward_zero_output_grad():
    net = Mlp.create([3, 5, 2], np.random.default_rng(1))
    _, cache = forward(net, np.array([0.1, -0.2, 0.3]))
    grads = backward(net, cache, np.zeros(2))
    assert grads.global_norm() == 0.0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    for activation in ACTIVATIONS:
        for sizes in ((2, 3), (3, 4, 2), (4, 6, 5, 3)):
            for _ in range(5):
                net = Mlp.create(sizes, rng, activation=activation)
                x = rng.normal(size=sizes[0])
                loss_weights = rng.normal(size=sizes[-1])
                out, cache = forward(net, x)
                analytic = backward(net, cache, loss_weights)
                numeric = fd_gradients(net, x, loss_weights)
                assert max_rel_err(analytic, numeric) < 1e-6


def test_batched_forward_backward_match_rows():
    # an (n, d) batch gives each row's output and the sum of per-row gradients
    rng = np.random.default_rng(21)
    for activation in ACTIVATIONS:
        for sizes in ((3, 2), (5, 4, 3), (46, 64, 64, 3), (46, 64, 64, 1)):
            net = Mlp.create(sizes, rng, activation=activation)
            x = rng.normal(size=(7, sizes[0]))
            output_grad = rng.normal(size=(7, sizes[-1]))
            out, cache = forward(net, x)
            assert out.shape == (7, sizes[-1])
            batched = backward(net, cache, output_grad)
            summed = Gradients.zeros_like(net)
            for i in range(len(x)):
                row_out, row_cache = forward(net, x[i])
                assert rel_err([out[i]], [row_out]) <= 1e-12
                summed.add_(backward(net, row_cache, output_grad[i]))
            assert rel_err(batched.weights, summed.weights) <= 1e-12
            assert rel_err(batched.biases, summed.biases) <= 1e-12


def test_batched_shape_validation():
    net = Mlp.create([3, 4, 2], np.random.default_rng(6))
    with pytest.raises(ValueError, match="shape"):
        forward(net, np.zeros((5, 4)))
    with pytest.raises(ValueError, match="shape"):
        forward(net, np.zeros((2, 5, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        forward(net, np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]]))
    _, cache = forward(net, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="output_grad"):
        backward(net, cache, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="output_grad"):
        backward(net, cache, np.zeros(2))


def test_softmax_rows():
    logits = np.array([[0.0, 1.0, 2.0], [5.0, -3.0, 0.5]])
    probs = softmax(logits)
    logp = log_softmax(logits)
    for i in range(len(logits)):
        assert rel_err([probs[i]], [softmax(logits[i])]) <= 1e-15
        assert rel_err([logp[i]], [log_softmax(logits[i])]) <= 1e-15
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_backward_rejects_foreign_cache():
    net_a = Mlp.create([3, 4, 2], np.random.default_rng(3))
    net_b = Mlp.create([3, 5, 2], np.random.default_rng(3))
    _, cache = forward(net_a, np.zeros(3))
    with pytest.raises(ValueError, match="cache"):
        backward(net_b, cache, np.zeros(2))
    with pytest.raises(ValueError, match="output_grad"):
        backward(net_a, cache, np.zeros(3))


def test_gradients_arithmetic():
    net = Mlp.create([2, 3], np.random.default_rng(4))
    grads = Gradients.zeros_like(net)
    assert grads.global_norm() == 0.0
    grads.weights[0][0, 0] = 3.0
    grads.biases[0][1] = 4.0
    assert grads.global_norm() == pytest.approx(5.0)
    grads.scale_(2.0)
    assert grads.global_norm() == pytest.approx(10.0)
    other = Gradients.zeros_like(net)
    other.add_(grads, scale=-0.5)
    assert other.weights[0][0, 0] == -3.0


def test_softmax_uniform_and_shift_invariance():
    probs = softmax(np.zeros(3))
    assert probs.tolist() == [1 / 3, 1 / 3, 1 / 3]
    logits = np.array([0.3, -1.2, 2.0])
    shifted = softmax(logits + 100.0)
    assert np.allclose(softmax(logits), shifted, rtol=0, atol=1e-12)
    assert float(np.sum(shifted)) == pytest.approx(1.0, abs=1e-12)


def test_softmax_sharp_and_nonfinite():
    probs = softmax(np.array([10.0, 0.0, 0.0]))
    assert probs[0] > 0.99
    with pytest.raises(ValueError, match="non-finite"):
        softmax(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        log_softmax(np.array([np.inf, 0.0]))


def test_log_softmax_consistent():
    logits = np.array([1.0, -0.5, 0.25])
    assert np.allclose(np.exp(log_softmax(logits)), softmax(logits), atol=1e-12)


def test_softmax_sample_statistics():
    logits = np.log(np.array([0.2, 0.5, 0.3]))
    rng = np.random.default_rng(7)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        index, logp, probs = softmax_sample(logits, rng)
        counts[index] += 1
        assert logp == pytest.approx(float(np.log(probs[index])), abs=1e-9)
    for k, p in enumerate([0.2, 0.5, 0.3]):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[k] - n * p) <= 3 * sigma


def test_softmax_sample_seeded_repeatable():
    logits = np.array([0.1, 0.2, 0.3])
    a = [softmax_sample(logits, np.random.default_rng(11))[0] for _ in range(20)]
    b = [softmax_sample(logits, np.random.default_rng(11))[0] for _ in range(20)]
    assert a == b


def test_apply_update_ascent_step():
    net = linear_net([[2.0]], [1.0])
    grads = Gradients([np.array([[3.0]])], [np.array([-1.0])])
    norm = apply_update(net, grads, lr=0.1)
    assert net.weights[0][0, 0] == pytest.approx(2.0 + 0.1 * 3.0)
    assert net.biases[0][0] == pytest.approx(1.0 - 0.1 * 1.0)
    assert norm == pytest.approx(np.sqrt(10.0))


def test_apply_update_zero_gradient_fixed_point():
    net = Mlp.create([3, 4, 2], np.random.default_rng(5))
    before = net.copy()
    apply_update(net, Gradients.zeros_like(net), lr=0.5)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, before.weights))


def test_apply_update_clips_global_norm():
    net = linear_net([[0.0]], [0.0])
    grads = Gradients([np.array([[6.0]])], [np.array([8.0])])  # norm 10
    norm = apply_update(net, grads, lr=1.0, clip_norm=1.0)
    assert norm == pytest.approx(10.0)  # reported norm is pre-clip
    step = np.hypot(net.weights[0][0, 0], net.biases[0][0])
    assert step == pytest.approx(1.0, rel=1e-12)


def test_apply_update_rejects_nonfinite():
    net = linear_net([[1.0]], [0.0])
    grads = Gradients([np.array([[np.nan]])], [np.array([0.0])])
    with pytest.raises(NonFiniteGradientError):
        apply_update(net, grads, lr=0.1)
    assert net.weights[0][0, 0] == 1.0  # untouched
    with pytest.raises(ValueError, match="lr"):
        apply_update(net, Gradients.zeros_like(net), lr=0.0)


def test_rmsprop_first_step():
    net = linear_net([[0.0]], [0.0])
    state = RmspropState.create(net, decay=0.99, eps=1e-8)
    grads = Gradients([np.array([[3.0]])], [np.array([0.0])])
    apply_update(net, grads, lr=0.1, optimizer_state=state)
    # sq = 0.01 * 9, step = lr * g / (sqrt(sq) + eps)
    expected = 0.1 * 3.0 / (np.sqrt(0.09) + 1e-8)
    assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        RmspropState.create(net, decay=1.0)


def test_serialize_round_trip_bit_exact():
    net = Mlp.create([4, 6, 3], np.random.default_rng(6), activation="relu")
    clone = deserialize(serialize(net))
    assert clone.layer_sizes == net.layer_sizes
    assert clone.activation == "relu"
    assert all(np.array_equal(a, b) for a, b in zip(clone.weights, net.weights))
    assert all(np.array_equal(a, b) for a, b in zip(clone.biases, net.biases))
    x = np.random.default_rng(7).normal(size=4)
    assert np.array_equal(forward(net, x)[0], forward(clone, x)[0])


def test_save_load_model(tmp_path):
    net = Mlp.create([3, 5, 2], np.random.default_rng(8))
    path = tmp_path / "model.json"
    save_model(net, path)
    clone = load_model(path)
    assert all(np.array_equal(a, b) for a, b in zip(clone.weights, net.weights))
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path / "absent.json")


def test_deserialize_rejects_truncated():
    data = serialize(Mlp.create([3, 2], np.random.default_rng(9)))
    with pytest.raises(ModelFormatError, match="truncated or malformed"):
        deserialize(data[: len(data) // 2])


def test_deserialize_rejects_bad_version_and_missing_keys():
    net = Mlp.create([3, 2], np.random.default_rng(10))
    payload = json.loads(serialize(net))
    stale = dict(payload, format_version=99)
    with pytest.raises(ModelFormatError, match="format_version"):
        deserialize(json.dumps(stale).encode())
    for key in ("layer_sizes", "activation", "weights", "biases"):
        broken = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(ModelFormatError, match=key):
            deserialize(json.dumps(broken).encode())
    with pytest.raises(ModelFormatError):
        deserialize(b"[1, 2, 3]")


def test_deserialize_rejects_shape_mismatch():
    net = Mlp.create([3, 2], np.random.default_rng(12))
    payload = json.loads(serialize(net))
    payload["layer_sizes"] = [4, 2]
    with pytest.raises(ModelFormatError, match="invalid model parameters"):
        deserialize(json.dumps(payload).encode())


def test_no_hidden_layer_net():
    net = Mlp.create([3, 2], np.random.default_rng(13))
    x = np.array([0.5, -1.0, 2.0])
    out, cache = forward(net, x)
    assert np.allclose(out, x @ net.weights[0] + net.biases[0], atol=1e-15)
    grads = backward(net, cache, np.array([1.0, 0.0]))
    numeric = fd_gradients(net, x, np.array([1.0, 0.0]))
    assert max_rel_err(grads, numeric) < 1e-6
