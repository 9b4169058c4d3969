"""Training-loop tests: convergence, early stopping, determinism, optimizers."""

import itertools

import numpy as np
import pytest

from oracles import ListAdam, ListSgd

from fvmnet.config import load_config
from fvmnet.errors import DomainError, TrainingDivergedError
from fvmnet.network import NetworkSpec, backward_batch, init_network, mse_loss, predict
from fvmnet.training import (
    TrainConfig,
    _Adam,
    _Sgd,
    config_digest,
    derived_seed,
    train,
)


def linear_problem(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 0.5
    return x[: n // 2], y[: n // 2], x[n // 2 :], y[n // 2 :]


def test_linear_net_recovers_exact_linear_map_with_adam():
    tx, ty, vx, vy = linear_problem()
    net = init_network(NetworkSpec(2, (), 1), seed=1)
    cfg = TrainConfig(learning_rate=0.05, max_epochs=400, patience=400)
    net, report = train(net, tx, ty, vx, vy, cfg, 3)
    assert report.best_val_loss < 1e-8
    np.testing.assert_allclose(net.weights[0][:, 0], [3.0, -2.0], atol=1e-3)
    assert net.biases[0][0] == pytest.approx(0.5, abs=1e-3)


def test_sgd_also_converges_on_the_linear_problem():
    tx, ty, vx, vy = linear_problem(seed=4)
    net = init_network(NetworkSpec(2, (), 1), seed=2)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.05, max_epochs=300, patience=300)
    net, report = train(net, tx, ty, vx, vy, cfg, 5)
    assert report.best_val_loss < 1e-6


def test_single_sgd_step_decreases_single_sample_loss():
    # Line-search property: for small alpha, one step along -grad helps.
    rng = np.random.default_rng(8)
    net = init_network(NetworkSpec(5, (8,), 1), seed=8)
    x = rng.standard_normal((1, 5))
    y = np.array([2.5])
    before, gw, gb = backward_batch(net, x, y)
    alpha = 1e-6
    for w, g in zip(net.weights, gw):
        w -= alpha * g
    for b, g in zip(net.biases, gb):
        b -= alpha * g
    after = mse_loss(predict(net, x), y)
    assert after < before


def test_adam_with_zero_betas_matches_sgd_step_direction():
    rng = np.random.default_rng(11)
    spec = NetworkSpec(4, (6,), 1)
    start = init_network(spec, seed=11)
    x = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)

    sgd_net = start.copy()
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e-3, max_epochs=1,
                      patience=1, batch_size=8)
    train(sgd_net, x, y, x, y, cfg, 0)

    adam_net = start.copy()
    cfg = TrainConfig(optimizer="adam", learning_rate=1e-3, beta1=0.0, beta2=0.0,
                      eps=1e-300, max_epochs=1, patience=1, batch_size=8)
    train(adam_net, x, y, x, y, cfg, 0)

    for w0, ws, wa in zip(start.weights, sgd_net.weights, adam_net.weights):
        ds = ws - w0
        da = wa - w0
        moved = np.abs(ds) > 1e-12
        assert np.all(np.sign(ds[moved]) == np.sign(da[moved]))


def test_early_stopping_restores_best_epoch_parameters():
    # Validation targets disagree with training targets, so validation loss
    # eventually worsens while training keeps improving.
    rng = np.random.default_rng(21)
    tx = rng.standard_normal((64, 3))
    ty = tx @ np.array([1.0, -1.0, 0.5])
    vx = rng.standard_normal((32, 3))
    vy = vx @ np.array([1.0, -1.0, 0.5]) + 0.8 * rng.standard_normal(32)
    net = init_network(NetworkSpec(3, (16, 16), 1), seed=6)
    cfg = TrainConfig(learning_rate=0.01, max_epochs=2000, patience=25)
    net, report = train(net, tx, ty, vx, vy, cfg, 7)

    assert report.epochs_run < 2000, "patience never triggered"
    assert report.best_epoch == int(np.argmin(report.val_losses))
    assert report.best_val_loss == min(report.val_losses)
    # Returned parameters really are the best-epoch ones.
    assert mse_loss(predict(net, vx), vy) == pytest.approx(report.best_val_loss, rel=1e-12)
    assert (report.epochs_run - 1) - report.best_epoch >= 25


def test_training_is_bit_deterministic_for_fixed_seed():
    tx, ty, vx, vy = linear_problem(seed=9)
    runs = []
    for _ in range(2):
        net = init_network(NetworkSpec(2, (8,), 1), seed=13)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=40, patience=40)
        net, report = train(net, tx, ty, vx, vy, cfg, 14)
        runs.append(report)
    assert runs[0].train_losses == runs[1].train_losses
    assert runs[0].val_losses == runs[1].val_losses
    assert runs[0].param_snapshot_id == runs[1].param_snapshot_id


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_raises_with_epoch():
    tx, ty, vx, vy = linear_problem(seed=15)
    net = init_network(NetworkSpec(2, (8,), 1), seed=16)
    cfg = TrainConfig(optimizer="sgd", learning_rate=1e12, max_epochs=50, patience=50)
    with pytest.raises(TrainingDivergedError) as err:
        train(net, tx, ty, vx, vy, cfg, 17)
    assert err.value.epoch >= 0


def test_config_validation_and_digest():
    with pytest.raises(DomainError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(beta1=1.0)
    for bad in (float("inf"), float("nan"), -1e-8):
        with pytest.raises(DomainError, match="min_delta"):
            TrainConfig(min_delta=bad)
    with pytest.raises(DomainError, match="min_delta"):
        load_config(None, ["train.min_delta=inf"])
    assert config_digest(TrainConfig()) == config_digest(TrainConfig())
    # The digest reads hyperparameters; the training seed is no part of the config.
    assert config_digest(TrainConfig()) != config_digest(TrainConfig(max_epochs=1))
    assert config_digest(TrainConfig()) != config_digest(TrainConfig(learning_rate=0.002))
    with pytest.raises(TypeError):
        TrainConfig(seed=1)


def test_derived_seed_is_stable_and_distinguishes_roles():
    assert derived_seed(7, "T") == derived_seed(7, "T")
    assert derived_seed(7, "T") != derived_seed(7, "X_fuel")
    assert derived_seed(7, "T") != derived_seed(8, "T")
    assert 0 <= derived_seed(123, "net", 4) < 2**63


def test_empty_sets_rejected():
    net = init_network(NetworkSpec(2, (), 1), seed=0)
    with pytest.raises(DomainError):
        train(net, np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.zeros(1),
              TrainConfig(), 0)


@pytest.mark.parametrize(
    "make_flat, make_list",
    [
        (lambda size: _Adam(1e-3, 0.9, 0.999, 1e-8, size),
         lambda shapes: ListAdam(1e-3, 0.9, 0.999, 1e-8, shapes)),
        (lambda size: _Adam(0.05, 0.5, 0.9, 1e-3, size),
         lambda shapes: ListAdam(0.05, 0.5, 0.9, 1e-3, shapes)),
        (lambda size: _Sgd(0.01, size), lambda shapes: ListSgd(0.01)),
    ],
    ids=["adam-default", "adam-other", "sgd"],
)
def test_flat_optimizers_match_list_oracles_bit_for_bit(make_flat, make_list):
    rng = np.random.default_rng(31)
    shapes = [(5, 7), (7, 3), (3, 1), (7,), (3,), (1,)]
    arrays = [rng.standard_normal(s) for s in shapes]
    flat = np.concatenate([a.ravel() for a in arrays])
    flat_opt, list_opt = make_flat(flat.size), make_list(shapes)
    for k in range(200):
        grad = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-6, 3)
        grad[rng.random(flat.size) < 0.2] = 0.0  # exact zeros, incl. all-zero rows
        if k % 50 == 7:
            grad[:] = 0.0
        pieces, lo = [], 0
        for a in arrays:
            pieces.append(grad[lo : lo + a.size].reshape(a.shape))
            lo += a.size
        flat_opt.update(flat, grad)
        list_opt.update(arrays, pieces)
        expected = np.concatenate([a.ravel() for a in arrays])
        assert flat.tobytes() == expected.tobytes(), f"step {k}"


def test_trained_network_arrays_own_their_memory():
    tx, ty, vx, vy = linear_problem(seed=19)
    net = init_network(NetworkSpec(2, (8, 4), 1), seed=20)
    net, _ = train(net, tx, ty, vx, vy, TrainConfig(max_epochs=3), 21)
    arrays = net.weights + net.biases
    assert len(arrays) == 6
    for a in arrays:
        assert a.base is None and a.flags.c_contiguous
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    # Warm-starting from the result leaves the trained arrays untouched.
    before = [a.copy() for a in arrays]
    warm = net.copy()
    train(warm, tx, ty, vx, vy, TrainConfig(max_epochs=2), 22)
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)
