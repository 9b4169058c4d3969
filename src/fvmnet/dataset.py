"""Per-cell training data extracted from snapshot series.

Each sample pairs a stencil of local values at time t with a scalar target for
one designated variable. One `CellLayout` fixes what a sample holds, which is
the choice the paper's FVMN makes and its ablation variants undo: inputs are
a five-point tier per variable (center, axial neighbors, radial neighbors) or
the bare cell-center values, and targets are the forward-difference time
derivative (x_next - x) / dt or the raw next-step value. The layout is built
once from the `dataset` config leaves, checked once on construction, carried
whole by the recipe and the trained bundle, and written once into the saved
bundle. It maps in both directions: snapshots to input rows and targets for
training, and transported-network rows back to the next band for a hybrid step.

Samples are harvested only from the middle band of the channel; the inlet and
outlet strips stay on the solver's books, which also guarantees every sampled
cell has both axial neighbors. Missing radial neighbors are patched by rule:
the axis mirror uses the center value, and the wall repeats the center
(zero-gradient reading) unless the layout holds fixed per-variable wall values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .solver import N_VARS, SCALAR_ROWS, TRANSPORTED, GridSpec, Snapshot, check_consecutive

INPUT_MODES = ("tier", "center")
OUTPUT_MODES = ("derivative", "absolute")

# Stencil slots per variable, in feature order.
TIER_SLOTS = ("center", "i-1", "i+1", "j-1", "j+1")
TIER_WIDTH = len(TIER_SLOTS) * N_VARS  # 30


@dataclass(frozen=True)
class DomainPartition:
    """Axial split into inlet strip, sampled middle band, outlet strip.

    Strips are m_star columns wide on each end; the middle band is
    [m_star, m - m_star).
    """

    m: int
    m_star: int

    def __post_init__(self):
        if self.m_star < 1:
            raise DomainError(f"m_star must be >= 1, got {self.m_star}")
        if self.m - 2 * self.m_star < 1:
            raise DomainError(
                f"partition leaves no middle band: m={self.m}, m_star={self.m_star}"
            )

    @property
    def inlet(self) -> Tuple[int, int]:
        return (0, self.m_star)

    @property
    def flame(self) -> Tuple[int, int]:
        return (self.m_star, self.m - self.m_star)

    @property
    def outlet(self) -> Tuple[int, int]:
        return (self.m - self.m_star, self.m)


def tier_matrix(
    snapshot: Snapshot, partition: DomainPartition, wall_values=None
) -> np.ndarray:
    """Tier inputs for every middle-band cell, rows i-major then j.

    The radial wall neighbor repeats the center, or takes `wall_values` (one
    per variable) when given.
    """
    m, n = snapshot.shape
    if partition.m != m:
        raise DomainError(f"partition built for m={partition.m}, snapshot has m={m}")
    lo, hi = partition.flame
    vals = snapshot.values

    slab = vals[:, lo:hi, :]
    im1 = vals[:, lo - 1 : hi - 1, :]
    ip1 = vals[:, lo + 1 : hi + 1, :]
    jm1 = np.empty_like(slab)
    jm1[:, :, 1:] = slab[:, :, :-1]
    jm1[:, :, 0] = slab[:, :, 0]
    jp1 = np.empty_like(slab)
    jp1[:, :, :-1] = slab[:, :, 1:]
    if wall_values is None:
        jp1[:, :, -1] = slab[:, :, -1]
    else:
        jp1[:, :, -1] = np.asarray(wall_values, dtype=np.float64)[:, None]

    # (vars, slots, band, n) -> (band, n, vars, slots) -> rows of width 5*vars
    stack = np.stack([slab, im1, ip1, jm1, jp1], axis=1)
    return np.ascontiguousarray(
        stack.transpose(2, 3, 0, 1).reshape((hi - lo) * n, TIER_WIDTH)
    )


def center_matrix(snapshot: Snapshot, partition: DomainPartition) -> np.ndarray:
    """Center-only inputs for every middle-band cell."""
    m, n = snapshot.shape
    if partition.m != m:
        raise DomainError(f"partition built for m={partition.m}, snapshot has m={m}")
    lo, hi = partition.flame
    slab = snapshot.values[:, lo:hi, :]
    return np.ascontiguousarray(slab.transpose(1, 2, 0).reshape((hi - lo) * n, N_VARS))


@dataclass(frozen=True)
class CellLayout:
    """What one sample row holds and what its target is: the FVMN choice.

    `input_mode` "tier" reads the five-point stencil of every variable,
    "center" the bare cell values. `output_mode` "derivative" targets
    (x_next - x) / dt, "absolute" the next-step value. The tier's radial wall
    neighbor repeats the center when `wall_values` is None, and otherwise
    takes `wall_values`, one per variable, kept as a tuple of floats.
    """

    input_mode: str = "tier"
    output_mode: str = "derivative"
    wall_values: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.input_mode not in INPUT_MODES:
            raise DomainError(f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}")
        if self.output_mode not in OUTPUT_MODES:
            raise DomainError(f"output_mode must be one of {OUTPUT_MODES}, got {self.output_mode!r}")
        if self.wall_values is None:
            return
        values = tuple(float(w) for w in self.wall_values)
        if len(values) != N_VARS:
            raise DomainError(f"wall_values must hold {N_VARS} numbers, got {len(values)}")
        object.__setattr__(self, "wall_values", values)

    @property
    def width(self) -> int:
        """Features per sample row: the full tier or the bare center values."""
        return TIER_WIDTH if self.input_mode == "tier" else N_VARS

    def inputs(self, snapshot: Snapshot, partition: DomainPartition) -> np.ndarray:
        """(cells, width) input rows for every middle-band cell, i-major then j."""
        if self.input_mode == "center":
            return center_matrix(snapshot, partition)
        return tier_matrix(snapshot, partition, self.wall_values)

    def targets(
        self,
        snap_t: Snapshot,
        snap_next: Snapshot,
        partition: DomainPartition,
        dt: float,
    ) -> np.ndarray:
        """(cells, vars) targets for one consecutive pair, rows as in `inputs`."""
        check_consecutive(snap_t, snap_next, dt)
        lo, hi = partition.flame
        block = snap_next.values[:, lo:hi, :]
        if self.output_mode == "derivative":
            block = (block - snap_t.values[:, lo:hi, :]) / dt
        return np.ascontiguousarray(block.transpose(1, 2, 0).reshape(-1, N_VARS))

    def next_band(
        self, state: Snapshot, rows: np.ndarray, partition: DomainPartition, dt: float
    ) -> np.ndarray:
        """(len(TRANSPORTED), band, n) next scalar planes from rows of their `targets` columns."""
        lo, hi = partition.flame
        band = rows.reshape(hi - lo, state.shape[1], len(TRANSPORTED)).transpose(2, 0, 1)
        if self.output_mode == "derivative":
            band = state.values[SCALAR_ROWS, lo:hi, :] + dt * band
        return band


# ----- standardization -----


STD_FLOOR_SCALE = 1e-12


def _floored_std(std: np.ndarray, mean: np.ndarray) -> np.ndarray:
    floor = STD_FLOOR_SCALE * np.maximum(1.0, np.abs(mean))
    return np.maximum(std, floor)


@dataclass
class Standardizer:
    """Per-feature affine map to zero mean, unit spread.

    Stds carry a floor of 1e-12 * max(1, |mean|) so constant features map to
    finite values.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DomainError("standardizer mean/std must be matching 1-D arrays")
        if np.any(self.std <= 0.0):
            raise DomainError("standardizer stds must be positive")

    @property
    def width(self) -> int:
        return self.mean.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.width:
            raise DomainError(f"standardizer width {self.width}, input width {x.shape[-1]}")
        return (x - self.mean) / self.std


def fit_standardizer(inputs: np.ndarray) -> Standardizer:
    """Population statistics of the given rows (training rows only, by contract)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise DomainError(f"need a non-empty 2-D sample matrix, got shape {inputs.shape}")
    mean = inputs.mean(axis=0)
    std = _floored_std(inputs.std(axis=0), mean)
    return Standardizer(mean=mean, std=std)


def target_scale(targets: np.ndarray) -> Tuple[float, float]:
    """Scalar (mean, floored std) for standardizing one regression target."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if targets.size == 0:
        raise DomainError("cannot compute a target scale from zero samples")
    tm = float(targets.mean())
    ts = float(_floored_std(np.array([targets.std()]), np.array([tm]))[0])
    return tm, ts


# ----- dataset assembly -----


@dataclass
class DatasetSplit:
    """Shuffled train/validation rows: each row's inputs and its six targets.

    Target column `IDX[v]` belongs to variable `v`.
    """

    train_inputs: np.ndarray
    train_targets: np.ndarray
    val_inputs: np.ndarray
    val_targets: np.ndarray


def _harvest(
    series: Sequence[Snapshot],
    grid: GridSpec,
    partition: DomainPartition,
    layout: CellLayout,
):
    if len(series) < 2:
        raise DomainError(f"dataset window needs >= 2 snapshots, got {len(series)}")
    inputs, targets = [], []
    for snap_t, snap_next in zip(series[:-1], series[1:]):
        inputs.append(layout.inputs(snap_t, partition))
        targets.append(layout.targets(snap_t, snap_next, partition, grid.dt))
    return np.concatenate(inputs, axis=0), np.concatenate(targets, axis=0)


def build_datasets(
    series: Sequence[Snapshot],
    grid: GridSpec,
    partition: DomainPartition,
    layout: CellLayout = CellLayout(),
    split_fraction: float = 0.8,
    seed: int = 0,
) -> DatasetSplit:
    """One shuffled split of the window's samples, with a target column per variable.

    Every consecutive pair in the window yields one sample per middle-band
    cell. All variables share the input rows and their shuffled order, so
    one input standardizer fitted on the train rows serves them all.
    """
    if not 0.0 < split_fraction < 1.0:
        raise DomainError(f"split_fraction must be in (0, 1), got {split_fraction}")

    inputs, targets = _harvest(series, grid, partition, layout)
    total = inputs.shape[0]
    perm = np.random.default_rng(seed).permutation(total)
    n_train = int(round(split_fraction * total))
    if n_train == 0 or n_train == total:
        raise DomainError(
            f"split {split_fraction} leaves an empty side for {total} samples"
        )
    tr, va = perm[:n_train], perm[n_train:]
    return DatasetSplit(
        train_inputs=inputs[tr],
        train_targets=targets[tr],
        val_inputs=inputs[va],
        val_targets=targets[va],
    )
