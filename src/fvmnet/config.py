"""Experiment configuration: one schema table, file loading, strict validation.

One JSON document with fixed sections drives every command. `_SCHEMA`
declares each leaf once: its desk-scale default (`DEFAULTS` is derived from
the table, so a missing file resolves to the reference experiment), the
caster that checks its JSON type under its dotted path (refusing NaN), and
whether it may be null. Each range and choice is checked once, by the object
the leaf builds, in that object's words (`input_mode must be one of ...`);
only the leaves that build no object (`generate.*`, `dataset.train_window`,
`rollout.horizon`) and the non-empty `network.hidden` are range-checked here.
A config file and each dotted `a.b=value` override write leaves through one
setter, so unknown sections or keys are rejected by name the same way, and a
non-nullable field set to null is reported as missing. A file's
`physical.diffusivity` replaces the whole mapping; an override of
`physical.diffusivity.T` edits one entry. The `dataset` leaves other than
`train_window` and `split_fraction` make one `CellLayout`, the
tier-input/derivative-output choice that the recipe, the trained bundle and
its saved file then carry whole; a null `wall_values` repeats the center at
the wall. The `network` leaves `hidden` and `activation` are the
`NetworkSpec`'s own, its input width taken from the layout. The layout, split
fraction, network and training settings make one `SurrogateRecipe`, which the
train, ablate and macnet commands share; the run seed stays outside it.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .dataset import CellLayout, DomainPartition
from .errors import ArtifactIOError, ConfigurationError
from .macnet import MacnetConfig
from .network import NetworkSpec
from .rollout import SurrogateRecipe
from .solver import IDX, N_VARS, GridSpec, PhysicalParams, Snapshot
from .training import TrainConfig

# ----- leaf casters; each names the dotted path it rejects -----


def _as_int(path: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"config field {path} must be an integer, got {v!r}")
    return v


def _as_float(path: str, v) -> float:
    """`v` as a float. NaN is refused: it would pass every range check."""
    number = math.nan
    if isinstance(v, (int, float, str)) and not isinstance(v, bool):
        try:
            number = float(v)
        except ValueError:
            pass
    if math.isnan(number):
        raise ConfigurationError(f"config field {path} must be a number, got {v!r}")
    return number


def _as_str(path: str, v) -> str:
    if not isinstance(v, str):
        raise ConfigurationError(f"config field {path} must be a string, got {v!r}")
    return v


def _int_at_least(low: int):
    def cast(path: str, v) -> int:
        v = _as_int(path, v)
        if v < low:
            raise ConfigurationError(f"{path} must be at least {low}, got {v}")
        return v

    return cast


def _as_diffusivity(path: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigurationError(f"config field {path} must map variables to numbers")
    return {k: _as_float(f"{path}.{k}", val) for k, val in v.items()}


def _list_of(item, what: str, min_len: int = 0):
    def cast(path: str, v) -> tuple:
        if not isinstance(v, list) or len(v) < min_len:
            raise ConfigurationError(f"config field {path} must be a {what}")
        return tuple(item(f"{path}[{k}]", x) for k, x in enumerate(v))

    return cast


# Every config leaf, declared once: (default, caster, nullable). A null value
# for a non-nullable leaf is "missing". Each section's resolved leaves are the
# keyword arguments of the object it builds.
_SCHEMA = {
    "grid": {
        "m": (96, _as_int, False),
        "n": (24, _as_int, False),
        "dx": (0.001, _as_float, False),
        "dr": (0.001, _as_float, False),
        "dt": (0.001, _as_float, False),
    },
    "physical": {
        "diffusivity": (
            {"T": 5e-5, "X_fuel": 2e-5, "X_prod": 2e-5, "X_ox": 2e-5},
            _as_diffusivity,
            False,
        ),
        "arrhenius_a": (10000.0, _as_float, False),
        "arrhenius_b": (0.0, _as_float, False),
        "activation_energy": (49884.0, _as_float, False),
        "gas_constant": (8.314, _as_float, False),
        "heat_release": (30000.0, _as_float, False),
        "reference_pressure": (101325.0, _as_float, False),
        "molar_mass": (0.0289, _as_float, False),
        "wall_temperature": (300.0, _as_float, True),
        "axial_bc": ("inflow_outflow", _as_str, False),
    },
    "partition": {"m_star": (16, _as_int, False)},
    "initial": {
        "temperature": (300.0, _as_float, False),
        "blob_peak": (1200.0, _as_float, False),
        "blob_center_x": (0.25, _as_float, False),
        "blob_center_r": (0.0, _as_float, False),
        "blob_sigma_x": (0.08, _as_float, False),
        "blob_sigma_r": (0.25, _as_float, False),
        "fuel": (0.08, _as_float, False),
        "oxidizer": (0.2, _as_float, False),
        "product": (0.0, _as_float, False),
        "vx_max": (0.25, _as_float, False),
        "vr_max": (0.02, _as_float, False),
    },
    "generate": {
        "burn_in": (14, _int_at_least(0), False),
        "horizon": (40, _int_at_least(1), False),
    },
    "dataset": {
        "train_window": (1, _int_at_least(1), False),
        "input_mode": ("tier", _as_str, False),
        "output_mode": ("derivative", _as_str, False),
        "split_fraction": (0.8, _as_float, False),
        "wall_values": (None, _list_of(_as_float, "list of numbers"), True),
    },
    "network": {
        "hidden": ([64, 64, 64], _list_of(_as_int, "non-empty list of widths", 1), False),
        "activation": ("relu", _as_str, False),
    },
    "train": {
        "learning_rate": (0.001, _as_float, False),
        "batch_size": (128, _as_int, False),
        "max_epochs": (300, _as_int, False),
        "patience": (50, _as_int, False),
        "min_delta": (1e-8, _as_float, False),
    },
    "rollout": {"horizon": (10, _int_at_least(1), False)},
    "macnet": {
        "cfd_window": (2, _as_int, False),
        "tolerance": (5.0, _as_float, False),
        "max_ml_steps": (10, _as_int, False),
        "horizon": (40, _as_int, False),
        "retrain": ("warm-start", _as_str, False),
    },
}
_TOP_SCALARS = {"seed": (0, _as_int, False), "out": ("runs/desk", _as_str, False)}

DEFAULTS = {
    **{
        section: {key: default for key, (default, _, _) in leaves.items()}
        for section, leaves in _SCHEMA.items()
    },
    **{name: default for name, (default, _, _) in _TOP_SCALARS.items()},
}


def default_tree() -> dict:
    return copy.deepcopy(DEFAULTS)


def _assign(tree: dict, parts: List[str], value) -> None:
    """Set the leaf at dotted `parts` in `tree`, rejecting unknown names.

    A path past a leaf edits one entry of it (`physical.diffusivity.T`).
    """
    section = parts[0]
    if section in _TOP_SCALARS:
        if len(parts) != 1:
            raise ConfigurationError(f"config field {section} has no sub-keys")
        tree[section] = value
        return
    if section not in _SCHEMA:
        raise ConfigurationError(f"unknown config section {section!r}")
    if len(parts) < 2 or parts[1] not in _SCHEMA[section]:
        raise ConfigurationError(f"unknown config key {'.'.join(parts[:2])}")
    node = tree[section]
    for part in parts[1:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def merge_tree(base: dict, user: dict) -> dict:
    """Overlay a user document on the defaults, one leaf at a time."""
    out = copy.deepcopy(base)
    for section, value in user.items():
        if section not in _SCHEMA:
            _assign(out, [section], value)
            continue
        if not isinstance(value, dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
        for key, leaf in value.items():
            _assign(out, [section, key], leaf)
    return out


def apply_override(tree: dict, assignment: str) -> None:
    """Apply one `path.to.key=value` override in place; values parse as JSON
    first and fall back to bare strings."""
    if "=" not in assignment:
        raise ConfigurationError(
            f"override {assignment!r} must look like section.key=value"
        )
    path, raw = assignment.split("=", 1)
    parts = path.strip().split(".")
    if not all(parts):
        raise ConfigurationError(f"override {assignment!r} has an empty path segment")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _assign(tree, parts, value)


def _cast(path: str, value, caster, nullable: bool):
    if value is None:
        if nullable:
            return None
        raise ConfigurationError(f"config field {path} is missing a value")
    return caster(path, value)


@dataclass(frozen=True)
class InitialCondition:
    """Premixed-charge initial state: parabolic axial flow, a weak radial
    profile vanishing at axis and wall, and a Gaussian hot spot in a uniform
    fuel/oxidizer mixture. Blob position and widths are domain fractions."""

    temperature: float
    blob_peak: float
    blob_center_x: float
    blob_center_r: float
    blob_sigma_x: float
    blob_sigma_r: float
    fuel: float
    oxidizer: float
    product: float
    vx_max: float
    vr_max: float

    def __post_init__(self):
        if not 0.0 < self.temperature <= self.blob_peak:
            raise ConfigurationError(
                "initial.temperature must be positive and at most initial.blob_peak"
            )
        if self.blob_sigma_x <= 0.0 or self.blob_sigma_r <= 0.0:
            raise ConfigurationError("initial blob widths must be positive")
        for name in ("fuel", "oxidizer", "product"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:
                raise ConfigurationError(f"initial.{name} must lie in [0, 1]")

    def build(self, grid: GridSpec) -> Snapshot:
        length, radius = grid.m * grid.dx, grid.n * grid.dr
        x = ((np.arange(grid.m) + 0.5) * grid.dx)[:, None]
        r = ((np.arange(grid.n) + 0.5) * grid.dr)[None, :]
        values = np.zeros((N_VARS, grid.m, grid.n), dtype=np.float64)
        values[IDX["v_x"]] = self.vx_max * (1.0 - (r / radius) ** 2)
        values[IDX["v_r"]] = 4.0 * self.vr_max * (r / radius) * (1.0 - r / radius)
        bump = np.exp(
            -((x - self.blob_center_x * length) ** 2)
            / (2.0 * (self.blob_sigma_x * length) ** 2)
            - ((r - self.blob_center_r * radius) ** 2)
            / (2.0 * (self.blob_sigma_r * radius) ** 2)
        )
        values[IDX["T"]] = self.temperature + (self.blob_peak - self.temperature) * bump
        values[IDX["X_fuel"]] = self.fuel
        values[IDX["X_prod"]] = self.product
        values[IDX["X_ox"]] = self.oxidizer
        return Snapshot(values, 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; `tree` is the effective document."""

    grid: GridSpec
    params: PhysicalParams
    partition: DomainPartition
    initial: InitialCondition
    burn_in: int
    generate_horizon: int
    train_window: int
    recipe: SurrogateRecipe
    rollout_horizon: int
    macnet: MacnetConfig
    seed: int
    out: str
    tree: dict = field(repr=False)

    def initial_snapshot(self) -> Snapshot:
        return self.initial.build(self.grid)


def resolve_config(tree: dict) -> ExperimentConfig:
    """Validate a merged tree and construct every referenced object."""
    leaves = {}
    for section, schema in _SCHEMA.items():
        node = tree.get(section)
        if not isinstance(node, dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
        leaves[section] = {}
        for key, (default, caster, nullable) in schema.items():
            value = node[key] if key in node else copy.deepcopy(default)
            value = _cast(f"{section}.{key}", value, caster, nullable)
            leaves[section][key] = value
            # Canonicalize so the echoed document holds resolved values
            # (e.g. the string "inf" becomes the float it parsed to).
            node[key] = list(value) if isinstance(value, tuple) else value
    for name, (default, caster, nullable) in _TOP_SCALARS.items():
        value = tree[name] if name in tree else copy.deepcopy(default)
        tree[name] = _cast(name, value, caster, nullable)

    grid = GridSpec(**leaves["grid"])
    dataset = leaves["dataset"]
    train_window = dataset.pop("train_window")
    split_fraction = dataset.pop("split_fraction")
    layout = CellLayout(**dataset)
    recipe = SurrogateRecipe(
        spec=NetworkSpec(layout.width, **leaves["network"]),
        train=TrainConfig(**leaves["train"]),
        layout=layout,
        split_fraction=split_fraction,
    )
    return ExperimentConfig(
        grid=grid,
        params=PhysicalParams(**leaves["physical"]),
        partition=DomainPartition(m=grid.m, **leaves["partition"]),
        initial=InitialCondition(**leaves["initial"]),
        burn_in=leaves["generate"]["burn_in"],
        generate_horizon=leaves["generate"]["horizon"],
        train_window=train_window,
        recipe=recipe,
        rollout_horizon=leaves["rollout"]["horizon"],
        macnet=MacnetConfig(**leaves["macnet"], recipe=recipe),
        seed=tree["seed"],
        out=tree["out"],
        tree=tree,
    )


def load_config(
    path: Optional[str] = None, overrides: Optional[List[str]] = None
) -> ExperimentConfig:
    """Defaults, then the file at `path` (if given), then dotted overrides."""
    tree = default_tree()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ArtifactIOError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"config file {path} is not valid JSON: {err}")
        if not isinstance(user, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
        tree = merge_tree(tree, user)
    for assignment in overrides or []:
        apply_override(tree, assignment)
    return resolve_config(tree)
