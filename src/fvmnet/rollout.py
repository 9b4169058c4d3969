"""Surrogate training and rollout: recipe, stepping, error metrics, residuals.

A SurrogateRecipe names how a bundle is trained (network spec, training
settings, the `CellLayout` of tier or center inputs, derivative or absolute
targets and wall handling, and the split fraction) and checks that the spec
fits the layout's width; `train_bundle` turns a snapshot window and a recipe
into a SurrogateBundle, which carries the same layout into its saved file.
The bundle advances the middle band of the domain one Euler step at a time
while the reference solver keeps advancing the inlet and outlet strips; the
layout turns the transported networks' rows into the band's scalars, the
prescribed velocities pass through as in a solver step, and the band then
ends the step in the solver's own `finish_columns`, like the strips.
`evaluate` scores one of three modes against a stored series: teacher-forced
single-step, autoregressive multi-step, and a frozen constant-gradient
baseline. The caller names the series, the training window and the horizon;
`evaluate` takes the truth, the start state, the baseline's gradient and
the residual denominator from the series itself, and runs one step-and-score
loop for every mode. `band_errors` scores a state against truth for every
variable, here and in the MACnet audit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dataset import (
    CellLayout,
    DomainPartition,
    Standardizer,
    build_datasets,
    fit_standardizer,
    target_scale,
)
from .errors import BlowupError, ConfigurationError, DomainError
from .network import Network, NetworkSpec, init_network, layer_buffers, predict
from .solver import (
    IDX,
    SCALAR_ROWS,
    TRANSPORTED,
    VARIABLES,
    GridSpec,
    PhysicalParams,
    Snapshot,
    continuity_residual,
    finish_columns,
    step_columns,
)
from .training import TrainConfig, TrainReport, derived_seed, train

MODES = ("multi", "single", "constant-gradient")

# Flame cells whose |truth| falls below this fraction of the variable's
# largest |truth| report absolute error and stay out of the max statistic;
# species and velocities pass through zero where a ratio means nothing.
DENOM_FLOOR_SCALE = 1e-6

# Band rows per network pass in `cell_outputs`: 8 band columns x 24 rings on
# the desk grid. One 64-wide layer buffer of a block is 96 KiB, small enough to
# be served from reused heap memory rather than fresh pages on every step.
BLOCK_ROWS = 192


def _check_state(state: Snapshot, grid: GridSpec, partition: DomainPartition) -> None:
    if state.shape != (grid.m, grid.n):
        raise DomainError(
            f"state shape {state.shape} does not match grid ({grid.m}, {grid.n})"
        )
    if partition.m != grid.m:
        raise DomainError(
            f"partition built for m={partition.m}, grid has m={grid.m}"
        )


@dataclass
class SurrogateBundle:
    """One trained network per variable plus the scaling that wraps them.

    The TRANSPORTED networks read one standardized input row per band cell,
    built by the cell layout they were trained on, and each output is un-scaled
    by that variable's target statistics. The v_x and v_r networks are saved, never run.
    """

    networks: Dict[str, Network]
    standardizer: Standardizer
    target_scales: Dict[str, Tuple[float, float]]
    layout: CellLayout = CellLayout()

    def __post_init__(self):
        missing = [v for v in VARIABLES if v not in self.networks]
        if missing:
            raise DomainError(f"bundle is missing networks for {missing}")
        missing = [v for v in VARIABLES if v not in self.target_scales]
        if missing:
            raise DomainError(f"bundle is missing target scales for {missing}")
        width = self.layout.width
        if self.standardizer.width != width:
            raise DomainError(
                f"{self.layout.input_mode!r} inputs have width {width}, "
                f"standardizer has width {self.standardizer.width}"
            )
        for v in VARIABLES:
            spec = self.networks[v].spec
            if spec.n_inputs != width or spec.n_outputs != 1:
                raise DomainError(
                    f"network for {v!r} maps {spec.n_inputs}->{spec.n_outputs}, "
                    f"bundle needs {width}->1"
                )
            if self.target_scales[v][1] <= 0.0:
                raise DomainError(f"target scale std for {v!r} must be positive")

    def cell_outputs(
        self,
        state: Snapshot,
        partition: DomainPartition,
        grid: GridSpec,
        params: PhysicalParams,
    ) -> np.ndarray:
        """(band cells, len(TRANSPORTED)) physical-unit outputs in TRANSPORTED order, rows i-major.

        The band's standardized rows are walked in blocks of BLOCK_ROWS, each
        block through every transported network. Networks of one spec share one
        block-sized set of layer buffers, and a short last block uses their
        leading rows. Each output row depends on its input row alone, so the
        result is bit for bit that of one whole-band pass. That holds because
        every block starts at a multiple of BLOCK_ROWS, which keeps each row's
        place in the BLAS kernels' row groups, and runs at least two rows:
        numpy computes a one-row product as a vector product, whose sums can
        round differently, so a lone last row joins the block before it.
        """
        z = self.standardizer.apply(self.layout.inputs(state, partition))
        rows = z.shape[0]
        out = np.empty((rows, len(TRANSPORTED)), dtype=np.float64)
        buffers = {}
        runs = []
        for k, v in enumerate(TRANSPORTED):
            net = self.networks[v]
            if net.spec not in buffers:
                buffers[net.spec] = layer_buffers(net.spec, min(rows, BLOCK_ROWS + 1))
            runs.append((k, net, buffers[net.spec], *self.target_scales[v]))
        starts = range(0, max(rows - 1, 1), BLOCK_ROWS)
        for start, stop in zip(starts, [*starts[1:], rows]):
            block = z[start:stop]
            for k, net, layers, mean, std in runs:
                y = predict(net, block, [b[: stop - start] for b in layers])
                out[start:stop, k] = y * std + mean
        return out


def timed_predict_step(
    bundle,
    state: Snapshot,
    partition: DomainPartition,
    grid: GridSpec,
    params: PhysicalParams,
) -> Tuple[Snapshot, float, float]:
    """predict_step plus (ml_ms, cfd_ms) wall-clock split of the work."""
    _check_state(state, grid, partition)
    lo, hi = partition.flame

    t0 = time.perf_counter()
    outputs = bundle.cell_outputs(state, partition, grid, params)
    band = bundle.layout.next_band(state, outputs, partition, grid.dt)
    ml_ms = (time.perf_counter() - t0) * 1e3

    t1 = time.perf_counter()
    advanced = step_columns(state, grid, params, [partition.inlet, partition.outlet])
    cfd_ms = (time.perf_counter() - t1) * 1e3

    values = advanced.values  # band velocities: the input's, as step_columns copied them
    values[SCALAR_ROWS, lo:hi, :] = band
    finish_columns(values, grid, [partition.flame], advanced.time, "surrogate step")
    return Snapshot(values, advanced.time), ml_ms, cfd_ms


def predict_step(
    bundle,
    state: Snapshot,
    partition: DomainPartition,
    grid: GridSpec,
    params: PhysicalParams,
) -> Snapshot:
    """One hybrid step: networks advance the middle band, solver the strips.

    Only the transported networks run; the band velocities pass through, as in
    a solver step. Strip fluxes that touch the band read its time-t values, as a
    whole-grid solver step would. The band's species are clamped into [0, 1]
    and its values checked finite, with T > 0, the way a solver band is.
    """
    advanced, _, _ = timed_predict_step(bundle, state, partition, grid, params)
    return advanced


def relative_error(
    pred: Snapshot,
    truth: Snapshot,
    variable: str,
    partition: DomainPartition,
) -> Tuple[float, float]:
    """(max, mean) relative error over the middle band.

    Cells with |truth| below 1e-6 of the variable's band maximum contribute
    absolute error to the mean and are excluded from the max.
    """
    if pred.shape != truth.shape:
        raise DomainError(f"shape mismatch {pred.shape} vs {truth.shape}")
    lo, hi = partition.flame
    p = pred.var(variable)[lo:hi, :]
    t = truth.var(variable)[lo:hi, :]
    diff = np.abs(p - t)
    scale = float(np.abs(t).max())
    if scale == 0.0:
        return 0.0, float(diff.mean())
    ok = np.abs(t) >= DENOM_FLOOR_SCALE * scale
    err = np.where(ok, diff / np.where(ok, np.abs(t), 1.0), diff)
    max_err = float(err[ok].max()) if ok.any() else 0.0
    return max_err, float(err.mean())


def scaled_residual(
    state: Snapshot,
    prev: Snapshot,
    grid: GridSpec,
    params: PhysicalParams,
    denominator: float,
) -> float:
    """Continuity residual of the pair, scaled by the training-window value."""
    if not denominator > 0.0:
        raise ConfigurationError(
            f"residual denominator must be positive, got {denominator}"
        )
    return continuity_residual(state, prev, grid, params) / denominator


def residual_denominator(
    window: Sequence[Snapshot], grid: GridSpec, params: PhysicalParams
) -> float:
    """Unscaled continuity residual of the window's final consecutive pair."""
    if len(window) < 2:
        raise DomainError("residual denominator needs at least two snapshots")
    return continuity_residual(window[-1], window[-2], grid, params)


@dataclass(frozen=True)
class StepRecord:
    """Per-step evaluation row: errors by variable, residual, wall clock."""

    step: int
    max_errors: Mapping[str, float]
    mean_errors: Mapping[str, float]
    scaled_residual: float
    ml_ms: float
    cfd_ms: float


@dataclass
class RolloutReport:
    """One evaluation mode's full per-step record.

    states[k - 1] is the predicted snapshot after step k, kept for the
    per-cell error dumps; the report files carry only the step records.
    """

    mode: str
    steps: List[StepRecord] = field(default_factory=list)
    states: List[Snapshot] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        for k, rec in enumerate(self.steps, start=1):
            if rec.step != k:
                raise DomainError(f"step records must be contiguous from 1, got {rec.step} at position {k}")
            for v in VARIABLES:
                if rec.max_errors[v] < 0.0 or rec.mean_errors[v] < 0.0:
                    raise DomainError(f"negative error recorded for {v!r} at step {k}")

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def max_series(self, variable: str) -> List[float]:
        return [rec.max_errors[variable] for rec in self.steps]

    def residual_series(self) -> List[float]:
        return [rec.scaled_residual for rec in self.steps]

    def final_max(self, variable: str) -> float:
        if not self.steps:
            raise DomainError("report has no steps")
        return self.steps[-1].max_errors[variable]


def band_errors(
    pred: Snapshot, truth: Snapshot, partition: DomainPartition
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(max_errors, mean_errors) by variable: `relative_error` of every variable."""
    maxes, means = {}, {}
    for v in VARIABLES:
        maxes[v], means[v] = relative_error(pred, truth, v, partition)
    return maxes, means


def evaluate(
    mode: str,
    bundle,
    series: Sequence[Snapshot],
    window: int,
    horizon: int,
    partition: DomainPartition,
    grid: GridSpec,
    params: PhysicalParams,
) -> RolloutReport:
    """Score one mode over the `horizon` steps after a `window`-step training window.

    The truth is series[window : window + horizon + 1], and every mode starts
    from truth[0]. Step k starts from truth[k - 1] in single mode and from the
    mode's previous state otherwise; its scaled residual pairs the new state
    with that start, over the residual of the window's final pair. The
    constant-gradient baseline does not run `bundle`: it applies that pair's
    frozen gradient to the band's scalars, k steps on from truth[0]. Its
    velocities and strips hold their initial values; error statistics read
    only the band, so the strips serve the residual diagnostic alone.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    if window < 1 or horizon < 1:
        raise DomainError(f"window and horizon must be >= 1, got {window} and {horizon}")
    if len(series) < window + horizon + 1:
        raise DomainError(
            f"series has {len(series)} snapshots, window {window} and "
            f"horizon {horizon} need {window + horizon + 1}"
        )
    # Also checks that series[window - 1] and series[window] are one dt apart.
    denominator = residual_denominator(series[: window + 1], grid, params)
    truth = series[window : window + horizon + 1]
    initial = truth[0]
    _check_state(initial, grid, partition)
    lo, hi = partition.flame
    band = (SCALAR_ROWS, slice(lo, hi), slice(None))
    gradient = (initial.values[band] - series[window - 1].values[band]) / grid.dt

    records, states = [], []
    state = initial
    for k in range(1, horizon + 1):
        start = truth[k - 1] if mode == "single" else state
        if mode == "constant-gradient":
            t0 = time.perf_counter()
            values = initial.values.copy()
            values[band] += (k * grid.dt) * gradient
            ml_ms, cfd_ms = (time.perf_counter() - t0) * 1e3, 0.0
            state = Snapshot(values, initial.time + k * grid.dt)
        else:
            try:
                state, ml_ms, cfd_ms = timed_predict_step(bundle, start, partition, grid, params)
            except BlowupError as err:
                raise BlowupError(
                    f"{mode}-step rollout failed at step {k}: {err}",
                    variable=err.variable,
                    cell=err.cell,
                ) from err
        maxes, means = band_errors(state, truth[k], partition)
        res = scaled_residual(state, start, grid, params, denominator)
        records.append(StepRecord(k, maxes, means, res, ml_ms, cfd_ms))
        states.append(state)
    return RolloutReport(mode=mode, steps=records, states=states)


def growth_fit_rss(errors: Sequence[float]) -> Tuple[float, float]:
    """(linear RSS, quadratic RSS) of equal-parameter fits to an error curve.

    Both models spend two parameters: err = a + b*k versus err = c + d*k**2,
    k counting steps from 1. Lower RSS wins with no penalty needed.
    """
    y = np.asarray(errors, dtype=np.float64)
    if y.ndim != 1 or y.size < 3:
        raise DomainError(f"need at least 3 error values, got shape {y.shape}")
    k = np.arange(1, y.size + 1, dtype=np.float64)
    ones = np.ones_like(k)
    rss = []
    for design in (np.stack([ones, k], axis=1), np.stack([ones, k**2], axis=1)):
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rss.append(float(((design @ coef - y) ** 2).sum()))
    return rss[0], rss[1]


@dataclass(frozen=True)
class SurrogateRecipe:
    """Everything `train_bundle` needs besides the data and the seed.

    The network spec and training settings, the cell layout (what a sample
    row holds and what it targets), and the train fraction of the shuffled
    rows. The spec must map the layout's width to one output.
    """

    spec: NetworkSpec
    train: TrainConfig
    layout: CellLayout = CellLayout()
    split_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise DomainError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )
        width = self.layout.width
        if self.spec.n_inputs != width or self.spec.n_outputs != 1:
            raise DomainError(
                f"{self.layout.input_mode!r} inputs need a {width}->1 network, "
                f"spec maps {self.spec.n_inputs}->{self.spec.n_outputs}"
            )


def train_bundle(
    series: Sequence[Snapshot],
    grid: GridSpec,
    partition: DomainPartition,
    recipe: SurrogateRecipe,
    seed: int = 0,
    warm_from: Optional[SurrogateBundle] = None,
) -> Tuple[SurrogateBundle, Dict[str, TrainReport]]:
    """Build datasets from a snapshot window and train all six networks.

    `seed` drives the train/validation split and each network's
    initialization and shuffles, each through its own `derived_seed`. The
    input standardizer is fitted on the shared training rows; each variable
    gets its own target scale. With `warm_from`, training continues from that
    bundle's parameters instead of a fresh initialization; the standardizer
    and target scales are refitted on the new window either way.
    """
    if warm_from is not None:
        for v in VARIABLES:
            if warm_from.networks[v].spec != recipe.spec:
                raise DomainError(
                    f"warm start requires matching specs; network for {v!r} differs"
                )
        if warm_from.layout != recipe.layout:
            raise DomainError("warm start requires a matching cell layout")

    data = build_datasets(
        series,
        grid,
        partition,
        recipe.layout,
        recipe.split_fraction,
        derived_seed(seed, "split"),
    )
    standardizer = fit_standardizer(data.train_inputs)
    z_train = standardizer.apply(data.train_inputs)
    z_val = standardizer.apply(data.val_inputs)

    networks: Dict[str, Network] = {}
    reports: Dict[str, TrainReport] = {}
    scales: Dict[str, Tuple[float, float]] = {}
    for v in VARIABLES:
        train_targets = data.train_targets[:, IDX[v]]
        val_targets = data.val_targets[:, IDX[v]]
        mean, std = target_scale(train_targets)
        if warm_from is not None:
            net = warm_from.networks[v].copy()
        else:
            net = init_network(recipe.spec, derived_seed(seed, "init", v))
        net, report = train(
            net,
            z_train,
            (train_targets - mean) / std,
            z_val,
            (val_targets - mean) / std,
            recipe.train,
            derived_seed(seed, "train", v),
        )
        networks[v] = net
        reports[v] = report
        scales[v] = (mean, std)

    bundle = SurrogateBundle(
        networks=networks,
        standardizer=standardizer,
        target_scales=scales,
        layout=recipe.layout,
    )
    return bundle, reports
