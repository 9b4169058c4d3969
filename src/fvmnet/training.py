"""Mini-batch training with momentum-free or adaptive-moment updates.

Each epoch reshuffles the training rows with a seeded generator, walks them
in batches (final short batch included), and then scores the validation rows.
Early stopping watches validation MSE with a minimum-improvement threshold and
a patience window; the returned network carries the parameters of the best
validation epoch, not the last one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import DomainError, TrainingDivergedError
from .network import Network, backward_batch, layer_buffers, mse_loss, predict

OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    max_epochs: int = 2000
    patience: int = 50
    min_delta: float = 1e-8

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise DomainError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise DomainError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise DomainError(f"eps must be finite and > 0, got {self.eps}")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise DomainError("max_epochs must be >= 1")
        if self.patience < 1:
            raise DomainError("patience must be >= 1")
        if not (math.isfinite(self.min_delta) and self.min_delta >= 0.0):
            raise DomainError(f"min_delta must be finite and >= 0, got {self.min_delta}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise DomainError("betas must lie in [0, 1)")


@dataclass
class TrainReport:
    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    param_snapshot_id: str = ""

    @property
    def epochs_run(self) -> int:
        return len(self.val_losses)


class _Sgd:
    """Plain gradient steps on one flat parameter vector, in place."""

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.step = np.empty(size)

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        np.multiply(self.lr, grads, out=self.step)
        params -= self.step


class _Adam:
    """Adaptive moments with bias correction on one flat parameter vector.

    Updates run in place through preallocated buffers, in the per-element
    operation order of the textbook form, so results match it bit for bit.
    """

    def __init__(self, lr: float, beta1: float, beta2: float, eps: float, size: int):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.num = np.empty(size)
        self.den = np.empty(size)
        self.t = 0

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        m, v, num, den = self.m, self.v, self.num, self.den
        # m = b1 * m + (1 - b1) * g
        m *= self.b1
        np.multiply(1.0 - self.b1, grads, out=num)
        m += num
        # v = b2 * v + (1 - b2) * (g * g)
        v *= self.b2
        np.multiply(grads, grads, out=num)
        num *= 1.0 - self.b2
        v += num
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=num)
        num *= self.lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        params -= num


def _views(flat: np.ndarray, shapes: List[tuple]) -> List[np.ndarray]:
    """Consecutive views of `flat`, one per shape."""
    views, lo = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[lo : lo + size].reshape(shape))
        lo += size
    return views


def _snapshot_id(net: Network) -> str:
    h = hashlib.sha256()
    for w, b in zip(net.weights, net.biases):
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()[:12]


def train(
    net: Network,
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    val_inputs: np.ndarray,
    val_targets: np.ndarray,
    config: TrainConfig,
    seed: int,
) -> Tuple[Network, TrainReport]:
    """Fit `net` in place on the given rows; returns (best network, report).

    The input network provides the starting parameters, so passing a freshly
    initialized network trains from scratch and passing a previously trained
    one warm-starts. Optimizer moments always start at zero for the call;
    `seed` drives the per-epoch shuffles.
    """
    x = np.asarray(train_inputs, dtype=np.float64)
    y = np.asarray(train_targets, dtype=np.float64).reshape(-1)
    vx = np.asarray(val_inputs, dtype=np.float64)
    vy = np.asarray(val_targets, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0] or vx.shape[0] != vy.shape[0]:
        raise DomainError("inputs and targets must pair up row for row")
    if x.shape[0] == 0 or vx.shape[0] == 0:
        raise DomainError("training and validation sets must be non-empty")

    # For the call, the parameters live in one flat vector that the optimizer
    # updates in place; the network's arrays are views into it. Backprop
    # writes each batch's gradients into views of a second flat vector.
    arrays = net.weights + net.biases
    shapes = [p.shape for p in arrays]
    n_layers = len(net.weights)
    flat = np.concatenate([p.ravel() for p in arrays])
    views = _views(flat, shapes)
    net.weights, net.biases = views[:n_layers], views[n_layers:]
    grad = np.empty_like(flat)
    grad_views = _views(grad, shapes)
    best = flat.copy()
    n = x.shape[0]
    # Forward buffers for the full batch and for the short last batch, if any.
    batch_sizes = {min(config.batch_size, n), n % config.batch_size} - {0}
    batch_buffers = {rows: layer_buffers(net.spec, rows) for rows in batch_sizes}
    val_buffers = layer_buffers(net.spec, vx.shape[0])
    if config.optimizer == "adam":
        opt = _Adam(config.learning_rate, config.beta1, config.beta2, config.eps,
                    flat.size)
    else:
        opt = _Sgd(config.learning_rate, flat.size)

    rng = np.random.default_rng(seed)
    report = TrainReport()
    stall = 0

    for epoch in range(config.max_epochs):
        perm = rng.permutation(n)
        seen = 0
        loss_sum = 0.0
        for lo in range(0, n, config.batch_size):
            rows = perm[lo : lo + config.batch_size]
            loss, _, _ = backward_batch(
                net, x[rows], y[rows], batch_buffers[rows.size], grad_views
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}", epoch=epoch
                )
            opt.update(flat, grad)
            loss_sum += loss * rows.size
            seen += rows.size
        report.train_losses.append(loss_sum / seen)

        val_loss = mse_loss(predict(net, vx, val_buffers), vy)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"validation loss became non-finite at epoch {epoch}", epoch=epoch
            )
        report.val_losses.append(val_loss)

        if val_loss < report.best_val_loss - config.min_delta:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best[...] = flat
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    # The first finite validation loss always beats +inf - min_delta, so
    # `best` holds a validated epoch. Each returned array owns its memory.
    best_arrays = [view.copy() for view in _views(best, shapes)]
    net.weights, net.biases = best_arrays[:n_layers], best_arrays[n_layers:]
    report.param_snapshot_id = _snapshot_id(net)
    return net, report


def derived_seed(base: int, *parts) -> int:
    """Stable per-role seed: hash the base seed with string/int parts."""
    h = hashlib.sha256(repr((int(base), tuple(str(p) for p in parts))).encode())
    return int.from_bytes(h.digest()[:8], "big") % (2**63)


def config_digest(config: TrainConfig) -> str:
    """Short stable digest of the hyperparameters, for saved bundles."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:12]
