"""Dense feedforward regressors built directly on numpy.

A network is a list of (weights, bias) layers: hidden layers share one
nonlinearity (rectifier or logistic), the output layer is linear, and all
arithmetic is 64-bit. Forward passes run as matrix products over sample
batches; gradients come from the chain rule applied layer by layer, with the
rectifier taking subgradient 0 at the kink.

`predict` is the one forward pass: it keeps no per-layer caches and writes
each layer in place into (rows, width) buffers (`layer_buffers`). A caller
running several networks of one spec over many rows can allocate one
block-sized set, share it, and run the rows block by block; a shorter block
writes into the leading rows of the same buffers. Backprop runs `predict`
and walks back over its buffers, which hold the post-activations, writing
each gradient into caller-given arrays (in training, views of the
optimizer's flat gradient vector).

The named size cases a-h are the ladder that `ablate --cases` trains:
widths from one 64-wide layer up to three 256-wide layers, plus a logistic
variant and a tapered variant, all with 30 inputs and one output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError

ACTIVATIONS = ("relu", "sigmoid")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer sizing and nonlinearity; hidden may be empty (a linear map)."""

    n_inputs: int
    hidden: Tuple[int, ...]
    n_outputs: int = 1
    activation: str = "relu"

    def __post_init__(self):
        try:
            for name in ("n_inputs", "n_outputs"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            hidden = tuple(operator.index(h) for h in self.hidden)
            object.__setattr__(self, "hidden", hidden)
        except TypeError:
            raise DomainError(
                f"spec sizes must be integers, got {self.n_inputs!r}, "
                f"{self.hidden!r}, {self.n_outputs!r}"
            ) from None
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise DomainError("spec needs n_inputs >= 1 and n_outputs >= 1")
        if any(h < 1 for h in self.hidden):
            raise DomainError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    def layer_sizes(self) -> List[Tuple[int, int]]:
        widths = (self.n_inputs, *self.hidden, self.n_outputs)
        return list(zip(widths[:-1], widths[1:]))


def param_count(spec: NetworkSpec) -> int:
    """Total trainables: fan_in * fan_out + fan_out per layer."""
    return sum(fi * fo + fo for fi, fo in spec.layer_sizes())


# Benchmark ladder: 30 stencil inputs -> 1 output throughout.
CASES = {
    "a": NetworkSpec(30, (64,)),
    "b": NetworkSpec(30, (64, 64)),
    "c": NetworkSpec(30, (64, 64, 64)),
    "d": NetworkSpec(30, (64, 64, 64, 64)),
    "e": NetworkSpec(30, (64, 64, 64), activation="sigmoid"),
    "f": NetworkSpec(30, (128, 128, 128)),
    "g": NetworkSpec(30, (256, 256, 256)),
    "h": NetworkSpec(30, (64, 32, 16)),
}


@dataclass
class Network:
    """Parameter container; weights[l] has shape (fan_in, fan_out)."""

    spec: NetworkSpec
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def copy(self) -> "Network":
        return Network(
            spec=self.spec,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Seeded uniform init: rectifier layers use bound sqrt(6 / fan_in),
    logistic layers sqrt(6 / (fan_in + fan_out)); biases start at zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_sizes():
        if spec.activation == "relu":
            bound = np.sqrt(6.0 / fan_in)
        else:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(spec=spec, weights=weights, biases=biases)


def _activate(z: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    """Hidden nonlinearity of z written into out, which may be z itself."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    # Numerically stable logistic for both signs.
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activation_gradient(a: np.ndarray, kind: str) -> np.ndarray:
    """d activation / d pre-activation, from the activation `a` alone."""
    if kind == "relu":
        return a > 0.0  # as z > 0, NaN included; 0 at the kink; multiplies as 0/1
    return a * (1.0 - a)


def _input_batch(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.n_inputs:
        raise DomainError(
            f"input batch must be (n, {net.spec.n_inputs}), got {x.shape}"
        )
    return x


def layer_buffers(spec: NetworkSpec, rows: int) -> List[np.ndarray]:
    """One uninitialized (rows, fan_out) array per layer, for `predict`."""
    return [np.empty((rows, fan_out)) for _, fan_out in spec.layer_sizes()]


def predict(
    net: Network, x: np.ndarray, buffers: Optional[List[np.ndarray]] = None
) -> np.ndarray:
    """Batch outputs without caches, shape (n,) for single-output nets.

    Layer l is written into buffers[l] (from `layer_buffers(net.spec, n)`,
    allocated here when not given), so the result is a view of the last
    buffer and stays valid only until the buffers are reused.
    """
    x = _input_batch(net, x)
    if buffers is None:
        buffers = layer_buffers(net.spec, x.shape[0])
    a = x
    last = len(net.weights) - 1
    for l, (w, b, z) in enumerate(zip(net.weights, net.biases, buffers)):
        np.matmul(a, w, out=z)
        z += b
        a = z if l == last else _activate(z, net.spec.activation, z)
    return a[:, 0] if net.spec.n_outputs == 1 else a


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over a batch."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if predictions.shape != targets.shape:
        raise DomainError(
            f"prediction/target shapes differ: {predictions.shape} vs {targets.shape}"
        )
    diff = predictions - targets
    return float(np.mean(diff * diff))


def backward_batch(net: Network, x: np.ndarray, y: np.ndarray,
                   buffers: Optional[List[np.ndarray]] = None,
                   grads: Optional[List[np.ndarray]] = None):
    """(loss, weight grads, bias grads) for batch MSE.

    The forward pass is `predict` into `buffers`; d loss / d output =
    2 (pred - target) / n, then the chain rule walks the layers in reverse
    over those buffers. The gradients are written into `grads`, arrays shaped
    like `net.weights + net.biases`; either list is allocated when not given.
    """
    x = _input_batch(net, x)
    if buffers is None:
        buffers = layer_buffers(net.spec, x.shape[0])
    if grads is None:
        grads = [np.empty_like(p) for p in net.weights + net.biases]
    predict(net, x, buffers)
    out = buffers[-1]
    diff = out - np.asarray(y, dtype=np.float64).reshape(out.shape)
    loss = float(np.mean(diff * diff))

    n_layers = len(net.weights)
    grad_w, grad_b = grads[:n_layers], grads[n_layers:]
    delta = 2.0 * diff / diff.size  # d loss / d z on the linear output layer
    for l in range(n_layers - 1, -1, -1):
        a = x if l == 0 else buffers[l - 1]  # input to layer l
        np.matmul(a.T, delta, out=grad_w[l])
        np.sum(delta, axis=0, out=grad_b[l])
        if l > 0:
            delta = delta @ net.weights[l].T
            delta *= _activation_gradient(a, net.spec.activation)
    return loss, grad_w, grad_b
