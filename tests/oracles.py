"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes quantities in a deliberately different form from
the package implementation: per-neuron Python loops instead of matrix
products, a per-cell, per-face loop instead of the solver's whole-array flux
kernel, central finite differences instead of the chain rule, per-cell
stencil reads instead of whole-band slices, a full solver step instead
of trained networks, and per-array optimizer updates instead of one flat
in-place update. `forward` is the exception: the single-sample scalar entry
to the package's `predict` that the loop and finite-difference oracles are
compared against. `forward_batch` and `cached_backward` are the cached
references: a forward pass that keeps every pre- and post-activation array
in fresh allocations, and backprop over those caches with the rectifier mask
taken from the pre-activations, against which `predict` and
`backward_batch` are pinned bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from fvmnet.dataset import TIER_WIDTH, CellLayout, DomainPartition
from fvmnet.errors import DomainError
from fvmnet.network import Network, _activate, _input_batch, backward_batch, predict
from fvmnet.solver import (
    IDX,
    IFUEL,
    IOX,
    IPROD,
    IT,
    IVR,
    IVX,
    N_VARS,
    TRANSPORTED,
    GridSpec,
    PhysicalParams,
    Snapshot,
    check_consecutive,
    reaction_rate,
    step,
)


def volume_weighted_total(state: Snapshot, grid: GridSpec, name: str) -> float:
    """Sum of volume * value for one variable (2*pi dropped as everywhere)."""
    if state.shape != (grid.m, grid.n):
        raise DomainError(f"snapshot shape {state.shape} does not match grid {grid.m}x{grid.n}")
    vol = grid.cell_volumes()
    return float(np.sum(state.var(name) * vol[None, :]))


def loop_advance_slab(values, out, grid: GridSpec, params: PhysicalParams, i_lo: int, i_hi: int):
    """Per-cell reference for the solver's flux kernel: flux-update transported
    scalars on columns [i_lo, i_hi) into out, one cell and one face at a time.

    The solver's whole-array step must match it bit for bit, slab by slab.

    out must start as a copy of values; velocity planes and untouched columns
    pass through. Every read is from time-t values.
    """
    m, n = grid.m, grid.n
    dx, dr, dt = grid.dx, grid.dr, grid.dt
    inflow = params.axial_bc == "inflow_outflow"
    wall_t = params.wall_temperature

    vx = values[IVX]
    vr = values[IVR]
    # Face-normal velocities by arithmetic average of the adjacent centers.
    vx_e = np.empty((m, n))
    vx_e[: m - 1] = 0.5 * (vx[: m - 1] + vx[1:])
    vx_e[m - 1] = vx[m - 1]  # zero-gradient ghost
    vr_n = np.zeros((m, n))
    vr_n[:, : n - 1] = 0.5 * (vr[:, : n - 1] + vr[:, 1:])

    r_c = grid.radial_centers()
    area_e = r_c * dr                       # axial faces (east and west alike)
    area_n = np.arange(1, n + 1) * dr * dx  # outer radial face of ring j
    area_s = np.arange(0, n) * dr * dx      # inner radial face; zero on the axis
    vol = r_c * dr * dx

    for name in TRANSPORTED:
        k = IDX[name]
        phi = values[k]
        new = out[k]
        dcoef = float(params.diffusivity[name])
        dirichlet_wall = name == "T" and wall_t is not None
        for i in range(i_lo, i_hi):
            if inflow and i == 0:
                continue  # inlet column held at its current values
            last = i == m - 1
            for j in range(n):
                c = phi[i, j]
                # East face, positive flux leaves the cell in +x.
                if last:
                    fe = vx_e[i, j] * c * area_e[j] if inflow else 0.0
                else:
                    v = vx_e[i, j]
                    up = c if v >= 0.0 else phi[i + 1, j]
                    fe = (v * up - dcoef * (phi[i + 1, j] - c) / dx) * area_e[j]
                # West face.
                if i == 0:
                    fw = 0.0  # closed end (inflow mode never updates i=0)
                else:
                    v = vx_e[i - 1, j]
                    up = phi[i - 1, j] if v >= 0.0 else c
                    fw = (v * up - dcoef * (c - phi[i - 1, j]) / dx) * area_e[j]
                # Outer radial face.
                if j == n - 1:
                    if dirichlet_wall:
                        # Half-cell ghost holds the wall face at wall_t.
                        fn = -dcoef * (wall_t - c) / (0.5 * dr) * area_n[j]
                    else:
                        fn = 0.0  # impermeable adiabatic wall
                else:
                    v = vr_n[i, j]
                    up = c if v >= 0.0 else phi[i, j + 1]
                    fn = (v * up - dcoef * (phi[i, j + 1] - c) / dr) * area_n[j]
                # Inner radial face; the axis face has zero area.
                if j == 0:
                    fs = 0.0
                else:
                    v = vr_n[i, j - 1]
                    up = phi[i, j - 1] if v >= 0.0 else c
                    fs = (v * up - dcoef * (c - phi[i, j - 1]) / dr) * area_s[j]
                new[i, j] = c - dt * (fe - fw + fn - fs) / vol[j]

    # Single-step Arrhenius source from time-t values, applied to every
    # flux-updated column (the held inlet column gets none).
    lo = i_lo
    if inflow and lo == 0:
        lo = 1
    if lo < i_hi and params.arrhenius_a > 0.0:
        sl = slice(lo, i_hi)
        rate = reaction_rate(values[IT][sl], values[IFUEL][sl], values[IOX][sl], params)
        drate = dt * rate
        out[IT][sl] += params.heat_release * drate
        out[IFUEL][sl] -= drate
        out[IOX][sl] -= drate
        out[IPROD][sl] += drate


def flame_cells(partition: DomainPartition, n: int) -> np.ndarray:
    """(count, 2) array of sampled cells, i-major then j, matching matrix rows."""
    lo, hi = partition.flame
    ii, jj = np.meshgrid(np.arange(lo, hi), np.arange(n), indexing="ij")
    return np.stack([ii.ravel(), jj.ravel()], axis=1)


def tier_input(
    snapshot: Snapshot,
    i: int,
    j: int,
    partition: DomainPartition,
    wall_values=None,
) -> np.ndarray:
    """Stencil vector for one cell: per variable [center, i-1, i+1, j-1, j+1].

    The cell must lie in the middle band, so both axial neighbors exist (the
    band edges legally read into the solver-owned strips). On the axis the
    j-1 slot repeats the center; at the wall the j+1 slot repeats the center,
    or takes the per-variable wall value when `wall_values` are given.
    """
    wv = CellLayout(wall_values=wall_values).wall_values
    m, n = snapshot.shape
    if partition.m != m:
        raise DomainError(f"partition built for m={partition.m}, snapshot has m={m}")
    lo, hi = partition.flame
    if not lo <= i < hi:
        raise DomainError(f"cell ({i}, {j}) outside the sampled band {partition.flame}")
    if not 0 <= j < n:
        raise DomainError(f"radial index {j} outside [0, {n})")

    vals = snapshot.values
    out = np.empty(TIER_WIDTH)
    for k in range(N_VARS):
        c = vals[k, i, j]
        jm1 = c if j == 0 else vals[k, i, j - 1]
        if j == n - 1:
            jp1 = c if wv is None else wv[k]
        else:
            jp1 = vals[k, i, j + 1]
        out[5 * k : 5 * k + 5] = (c, vals[k, i - 1, j], vals[k, i + 1, j], jm1, jp1)
    return out


def center_input(snapshot: Snapshot, i: int, j: int, partition: DomainPartition) -> np.ndarray:
    """Cell-center values only, in variable order."""
    lo, hi = partition.flame
    if not lo <= i < hi:
        raise DomainError(f"cell ({i}, {j}) outside the sampled band {partition.flame}")
    return snapshot.values[:, i, j].copy()


def derivative_target(
    snap_t: Snapshot,
    snap_next: Snapshot,
    i: int,
    j: int,
    variable: str,
    dt: float,
) -> float:
    """Forward-difference rate (x_next - x) / dt for one cell and variable."""
    check_consecutive(snap_t, snap_next, dt)
    if variable not in IDX:
        raise DomainError(f"unknown variable {variable!r}")
    k = IDX[variable]
    return float((snap_next.values[k, i, j] - snap_t.values[k, i, j]) / dt)


@dataclass
class DerivativeOracle:
    """Bundle stand-in returning the exact solver derivative of every
    transported scalar per flame cell.

    Closes the loop: feeding these outputs through predict_step must
    reproduce the reference solver on the middle band.
    """

    layout: CellLayout = CellLayout()

    def cell_outputs(
        self,
        state: Snapshot,
        partition: DomainPartition,
        grid: GridSpec,
        params: PhysicalParams,
    ) -> np.ndarray:
        advanced = step(state, grid, params)
        lo, hi = partition.flame
        rows = [IDX[v] for v in TRANSPORTED]
        band = (advanced.values[rows, lo:hi, :] - state.values[rows, lo:hi, :]) / grid.dt
        return np.ascontiguousarray(band.transpose(1, 2, 0).reshape(-1, len(TRANSPORTED)))


def forward(net: Network, x) -> float:
    """Single-sample scalar output of a single-output network, through `predict`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError(f"forward takes one sample vector, got shape {x.shape}")
    if net.spec.n_outputs != 1:
        raise DomainError("scalar forward needs a single-output network")
    return float(predict(net, x[None, :])[0])


def forward_batch(net: Network, x: np.ndarray):
    """(outputs, caches): outputs is (n, n_outputs); caches hold every layer's
    pre-activation and activation, each in its own array."""
    x = _input_batch(net, x)
    a = x
    pre, post = [], [x]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w
        z += b
        a = z if l == last else _activate(z, net.spec.activation, np.empty_like(z))
        pre.append(z)
        post.append(a)
    return a, (pre, post)


def cached_backward(net: Network, x: np.ndarray, y: np.ndarray):
    """(loss, weight grads, bias grads) for batch MSE over `forward_batch` caches.

    The rectifier mask is read from the pre-activations (z > 0), the logistic
    derivative from the activations; every gradient is a fresh array.
    """
    y = np.asarray(y, dtype=np.float64)
    out, (pre, post) = forward_batch(net, x)
    n = out.shape[0]
    diff = out - y.reshape(n, net.spec.n_outputs)
    loss = float(np.mean(diff * diff))

    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    delta = 2.0 * diff / diff.size
    for l in range(len(net.weights) - 1, -1, -1):
        grad_w[l] = post[l].T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l].T
            if net.spec.activation == "relu":
                delta *= pre[l - 1] > 0.0
            else:
                delta *= post[l] * (1.0 - post[l])
    return loss, grad_w, grad_b


def loop_forward(net: Network, x) -> float:
    """Per-neuron, per-weight scalar evaluation of a single-output network."""
    a = [float(v) for v in x]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = []
        for o in range(w.shape[1]):
            s = float(b[o])
            for i in range(w.shape[0]):
                s += a[i] * float(w[i, o])
            z.append(s)
        if l == last:
            a = z
        elif net.spec.activation == "relu":
            a = [v if v > 0.0 else 0.0 for v in z]
        else:
            a = [1.0 / (1.0 + math.exp(-v)) if v >= 0 else
                 math.exp(v) / (1.0 + math.exp(v)) for v in z]
    return a[0]


def sample_components(net: Network, rng, count):
    """Random (layer, which, flat_index) parameter coordinates, all layers hit."""
    coords = []
    for l in range(len(net.weights)):
        coords.append((l, "w", int(rng.integers(net.weights[l].size))))
        coords.append((l, "b", int(rng.integers(net.biases[l].size))))
    while len(coords) < count:
        l = int(rng.integers(len(net.weights)))
        which = "w" if rng.random() < 0.8 else "b"
        arr = net.weights[l] if which == "w" else net.biases[l]
        coords.append((l, which, int(rng.integers(arr.size))))
    return coords[:count]


def finite_difference_check(net: Network, x, y, components, h=1e-6):
    """Max mismatch between backprop and central differences on one sample.

    Returns the worst value of |fd - bp| / max(|fd|, |bp|, 1e-3); the floor
    makes the comparison absolute (at ~1e-8) for components whose gradient
    sits below the finite-difference noise floor.
    """
    x = np.asarray(x, dtype=np.float64)
    _, gw, gb = backward_batch(net, x[None, :], np.array([y]))
    worst = 0.0
    for layer, which, flat in components:
        arr = net.weights[layer] if which == "w" else net.biases[layer]
        bp = (gw if which == "w" else gb)[layer].ravel()[flat]
        original = arr.ravel()[flat]
        arr.ravel()[flat] = original + h
        up = (forward(net, x) - y) ** 2
        arr.ravel()[flat] = original - h
        dn = (forward(net, x) - y) ** 2
        arr.ravel()[flat] = original
        fd = (up - dn) / (2.0 * h)
        err = abs(fd - bp) / max(abs(fd), abs(bp), 1e-3)
        worst = max(worst, err)
    return worst


class ListSgd:
    """Per-array gradient step, one fresh temporary per array."""

    def __init__(self, lr: float):
        self.lr = lr

    def update(self, params, grads) -> None:
        for p, g in zip(params, grads):
            p -= self.lr * g


class ListAdam:
    """Textbook Adam over a list of arrays, each expression freshly evaluated."""

    def __init__(self, lr: float, beta1: float, beta2: float, eps: float, shapes):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def update(self, params, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for k, (p, g) in enumerate(zip(params, grads)):
            self.m[k] = self.b1 * self.m[k] + (1.0 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1.0 - self.b2) * (g * g)
            p -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)
