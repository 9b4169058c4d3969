"""Network forward/backward tests against loop-form and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    cached_backward,
    finite_difference_check,
    forward,
    forward_batch,
    loop_forward,
    sample_components,
)

from fvmnet.errors import DomainError
from fvmnet.network import (
    CASES,
    Network,
    NetworkSpec,
    backward_batch,
    init_network,
    layer_buffers,
    mse_loss,
    param_count,
    predict,
)

# Frozen trainable counts for the benchmark ladder.
EXPECTED_COUNTS = {
    "a": 2049,
    "b": 6209,
    "c": 10369,
    "d": 14529,
    "e": 10369,
    "f": 37121,
    "g": 139777,
    "h": 4609,
}


# Small networks and batches for the bit-equality properties: both
# activations, no hidden layer, two outputs, one-row batches, tiny and
# saturating input scales.
SMALL_NETS = dict(
    n_inputs=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 9), max_size=3).map(tuple),
    n_outputs=st.integers(1, 2),
    activation=st.sampled_from(["relu", "sigmoid"]),
    rows=st.integers(1, 20),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
)


def test_param_counts_for_all_cases():
    for case, expected in EXPECTED_COUNTS.items():
        spec = CASES[case]
        assert param_count(spec) == expected, case
        net = init_network(spec, seed=0)
        assert sum(a.size for a in net.weights + net.biases) == expected, case


def test_param_count_single_linear_layer():
    assert param_count(NetworkSpec(30, (), 1)) == 31
    assert param_count(NetworkSpec(4, (3,), 2)) == 4 * 3 + 3 + 3 * 2 + 2


def test_spec_validation():
    with pytest.raises(DomainError):
        NetworkSpec(0, (4,))
    with pytest.raises(DomainError):
        NetworkSpec(4, (0,))
    with pytest.raises(DomainError):
        NetworkSpec(4, (4,), activation="tanh")
    for bad in (("4", (4,)), (4, (4.0,)), (4, ("4",))):
        with pytest.raises(DomainError, match="integers"):
            NetworkSpec(*bad)


def test_init_bounds_seeding_and_zero_biases():
    spec = CASES["c"]
    net = init_network(spec, seed=11)
    again = init_network(spec, seed=11)
    other = init_network(spec, seed=12)
    for l, (fan_in, _) in enumerate(spec.layer_sizes()):
        bound = np.sqrt(6.0 / fan_in)
        assert float(np.abs(net.weights[l]).max()) <= bound
        assert np.array_equal(net.weights[l], again.weights[l])
        assert not np.array_equal(net.weights[l], other.weights[l])
        assert np.all(net.biases[l] == 0.0)
    # Logistic variant uses the two-sided fan bound.
    sig = init_network(CASES["e"], seed=3)
    fi, fo = CASES["e"].layer_sizes()[0]
    assert float(np.abs(sig.weights[0]).max()) <= np.sqrt(6.0 / (fi + fo))


def test_forward_matches_loop_oracle_across_cases():
    rng = np.random.default_rng(42)
    for case, spec in CASES.items():
        net = init_network(spec, seed=100 + ord(case))
        x = rng.standard_normal(spec.n_inputs)
        assert forward(net, x) == pytest.approx(loop_forward(net, x), rel=1e-12), case


def test_forward_batch_shapes_and_scalar_agreement():
    net = init_network(CASES["b"], seed=5)
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((9, 30))
    out, (pre, post) = forward_batch(net, xs)
    assert out.shape == (9, 1)
    assert len(pre) == 3 and len(post) == 4
    batch = predict(net, xs)
    for row in range(9):
        # Batched and single-row matmuls may round differently in the last bits.
        assert batch[row] == pytest.approx(forward(net, xs[row]), rel=1e-12)
    for fn in (forward_batch, predict):
        with pytest.raises(DomainError, match=r"must be \(n, 30\), got \(4, 31\)"):
            fn(net, rng.standard_normal((4, 31)))
        with pytest.raises(DomainError, match=r"must be \(n, 30\), got \(30,\)"):
            fn(net, rng.standard_normal(30))


@settings(max_examples=80, deadline=None)
@given(**SMALL_NETS)
@example(n_inputs=3, hidden=(), n_outputs=1, activation="relu", rows=1, scale=1.0,
         seed=0)
@example(n_inputs=3, hidden=(), n_outputs=2, activation="relu", rows=4, scale=1.0,
         seed=1)
def test_predict_is_bit_equal_to_forward_batch(
    n_inputs, hidden, n_outputs, activation, rows, scale, seed
):
    spec = NetworkSpec(n_inputs, hidden, n_outputs, activation)
    rng = np.random.default_rng(seed)
    net = init_network(spec, seed=seed)
    for b in net.biases:
        b[:] = rng.standard_normal(b.shape)
    x = scale * rng.standard_normal((rows, n_inputs))
    out, _ = forward_batch(net, x)
    expected = out[:, 0] if n_outputs == 1 else out
    assert np.array_equal(predict(net, x), expected)
    # Shared buffers holding another batch's values must not leak into the result.
    buffers = layer_buffers(spec, rows)
    predict(net, scale * rng.standard_normal((rows, n_inputs)), buffers)
    assert np.array_equal(predict(net, x, buffers), expected)


@pytest.mark.parametrize("case", ["c", "e"])
def test_predict_is_bit_equal_to_forward_batch_on_band_sized_batches(case):
    net = init_network(CASES[case], seed=3)
    rng = np.random.default_rng(4)
    for b in net.biases:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    for rows in (1, 1536):
        x = 2.0 * rng.standard_normal((rows, 30))
        assert np.array_equal(predict(net, x), forward_batch(net, x)[0][:, 0])


@settings(max_examples=80, deadline=None)
@given(**SMALL_NETS)
@example(n_inputs=3, hidden=(), n_outputs=1, activation="relu", rows=1, scale=1.0,
         seed=0)
@example(n_inputs=3, hidden=(), n_outputs=2, activation="sigmoid", rows=4, scale=1.0,
         seed=1)
@example(n_inputs=2, hidden=(5, 3), n_outputs=2, activation="sigmoid", rows=1,
         scale=50.0, seed=2)
def test_backward_batch_is_bit_equal_to_cached_backward(
    n_inputs, hidden, n_outputs, activation, rows, scale, seed
):
    spec = NetworkSpec(n_inputs, hidden, n_outputs, activation)
    rng = np.random.default_rng(seed)
    net = init_network(spec, seed=seed)
    for b in net.biases:
        b[:] = rng.standard_normal(b.shape)
    x = scale * rng.standard_normal((rows, n_inputs))
    y = rng.standard_normal((rows, n_outputs))
    expected = cached_backward(net, x, y)

    def assert_bit_equal(result):
        loss, gw, gb = result
        assert loss == expected[0]
        for got, want in zip(gw + gb, expected[1] + expected[2]):
            assert np.array_equal(got, want)

    assert_bit_equal(backward_batch(net, x, y))
    # Buffers and gradient arrays holding another batch's values must not
    # leak into the result, and the gradients land in the given arrays.
    buffers = layer_buffers(spec, rows)
    grads = [np.empty_like(p) for p in net.weights + net.biases]
    other = scale * rng.standard_normal((rows, n_inputs))
    backward_batch(net, other, rng.standard_normal((rows, n_outputs)), buffers, grads)
    result = backward_batch(net, x, y, buffers, grads)
    assert_bit_equal(result)
    assert all(got is given for got, given in zip(result[1] + result[2], grads))


def test_mse_matches_longhand():
    pred = np.array([1.0, 2.0, 4.0])
    target = np.array([1.5, 2.0, 3.0])
    longhand = ((1.0 - 1.5) ** 2 + 0.0 + 1.0) / 3.0
    assert mse_loss(pred, target) == pytest.approx(longhand, rel=1e-15)
    with pytest.raises(DomainError):
        mse_loss(pred, target[:2])


def test_single_linear_neuron_gradient_closed_form():
    # J = (W x + b - y)^2  =>  dJ/dW_i = 2 (W x + b - y) x_i, dJ/db likewise.
    spec = NetworkSpec(3, (), 1)
    net = init_network(spec, seed=1)
    x = np.array([0.5, -1.0, 2.0])
    y = 0.7
    pred = float(x @ net.weights[0][:, 0] + net.biases[0][0])
    loss, gw, gb = backward_batch(net, x[None, :], np.array([y]))
    assert loss == pytest.approx((pred - y) ** 2, rel=1e-14)
    np.testing.assert_allclose(gw[0][:, 0], 2.0 * (pred - y) * x, rtol=1e-14)
    assert gb[0][0] == pytest.approx(2.0 * (pred - y), rel=1e-14)


def test_backprop_matches_finite_differences_each_case():
    rng = np.random.default_rng(77)
    for case, spec in CASES.items():
        net = init_network(spec, seed=200 + ord(case))
        x = rng.standard_normal(spec.n_inputs)
        y = float(forward(net, x)) + 0.8  # keep the output gradient O(1)
        comps = sample_components(net, rng, 16)
        worst = finite_difference_check(net, x, y, comps)
        assert worst < 1e-5, f"case {case}: worst mismatch {worst:.3e}"


def test_rectifier_kink_uses_zero_subgradient():
    spec = NetworkSpec(2, (3,), 1)
    net = init_network(spec, seed=0)
    net.weights[0][:] = 0.0  # every hidden pre-activation is exactly 0
    x = np.array([1.0, -2.0])
    _, gw, gb = backward_batch(net, x[None, :], np.array([1.0]))
    assert np.all(gw[0] == 0.0)
    assert np.all(gb[0] == 0.0)
    # The output layer still learns its bias.
    assert gb[1][0] != 0.0


def test_sigmoid_is_stable_at_extreme_preactivations():
    spec = NetworkSpec(1, (2,), 1, activation="sigmoid")
    net = init_network(spec, seed=2)
    net.weights[0][:] = np.array([[800.0, -800.0]])
    with np.errstate(over="raise"):
        out, (pre, post) = forward_batch(net, np.array([[1.0]]))
    hidden = post[1][0]
    assert hidden[0] == pytest.approx(1.0)
    assert hidden[1] == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(out).all()


def test_batch_gradient_is_mean_of_sample_gradients():
    net = init_network(CASES["a"], seed=9)
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((4, 30))
    ys = rng.standard_normal(4)
    _, gw_batch, _ = backward_batch(net, xs, ys)
    per_sample = []
    for k in range(4):
        _, gw, _ = backward_batch(net, xs[k : k + 1], ys[k : k + 1])
        per_sample.append(gw[0])
    np.testing.assert_allclose(gw_batch[0], np.mean(per_sample, axis=0), rtol=1e-12)
