"""Experiment configuration: one schema table, file loading, strict validation.

One JSON document with fixed sections drives every command. `_SCHEMA`
declares each leaf once: its desk-scale default (`DEFAULTS` is derived from
the table, so a missing file resolves to the reference experiment), the
caster that type- and range-checks it under its dotted path, and whether it
may be null. Unknown sections or keys are rejected by name, a non-nullable
field set to null is reported as missing, and dotted `a.b=value` overrides
edit the tree before validation, so a bad flag fails the same way a bad file
does. Each section's resolved leaves are the keyword arguments of the object
it builds. The `dataset` leaves other than `train_window` and
`split_fraction` make one `CellLayout`, the tier-input/derivative-output
choice that the recipe, the trained bundle and its saved file then carry
whole; the layout, split fraction, network and training settings make one
`SurrogateRecipe`, which the train, ablate and macnet commands share.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .dataset import INPUT_MODES, OUTPUT_MODES, WALL_POLICIES, CellLayout, DomainPartition
from .errors import ArtifactIOError, ConfigurationError
from .macnet import RETRAIN_POLICIES, MacnetConfig
from .network import CASES, NetworkSpec
from .rollout import SurrogateRecipe
from .solver import IDX, N_VARS, VARIABLES, GridSpec, PhysicalParams, Snapshot
from .training import OPTIMIZERS, TrainConfig

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


def _one_of(choices: Tuple[str, ...]):
    def cast(path: str, v) -> str:
        v = _as_str(path, v)
        if v not in choices:
            raise ConfigurationError(f"{path} must be one of {choices}, got {v!r}")
        return v

    return cast


def _as_fraction(path: str, v) -> float:
    v = _as_float(path, v)
    if not 0.0 < v < 1.0:
        raise ConfigurationError(f"{path} must lie strictly in (0, 1), got {v}")
    return v


def _as_diffusivity(path: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigurationError(f"config field {path} must map variables to numbers")
    known = set(VARIABLES) - {"v_x", "v_r"}
    for key in v:
        if key not in known:
            raise ConfigurationError(
                f"config field {path} names unknown variable {key!r}"
            )
    return {k: _as_float(f"{path}.{k}", val) for k, val in v.items()}


def _as_wall_values(path: str, v) -> Tuple[float, ...]:
    if not isinstance(v, list) or len(v) != N_VARS:
        raise ConfigurationError(
            f"config field {path} must be a list of {N_VARS} numbers"
        )
    return tuple(_as_float(f"{path}[{k}]", x) for k, x in enumerate(v))


def _as_custom_network(path: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigurationError(f"config field {path} must be an object")
    allowed = {"hidden", "activation"}
    for key in v:
        if key not in allowed:
            raise ConfigurationError(f"unknown config key {path}.{key}")
    hidden = v.get("hidden")
    if not isinstance(hidden, list) or not hidden or not all(
        isinstance(h, int) and not isinstance(h, bool) and h > 0 for h in hidden
    ):
        raise ConfigurationError(
            f"config field {path}.hidden must be a non-empty list of positive integers"
        )
    activation = v.get("activation", "relu")
    return {"hidden": hidden, "activation": _as_str(f"{path}.activation", activation)}


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
        "input_mode": ("tier", _one_of(INPUT_MODES), False),
        "output_mode": ("derivative", _one_of(OUTPUT_MODES), False),
        "split_fraction": (0.8, _as_fraction, False),
        "wall_policy": ("zero_neumann", _one_of(WALL_POLICIES), False),
        "wall_values": (None, _as_wall_values, True),
    },
    "network": {
        "case": ("c", _one_of(tuple(sorted(CASES))), True),
        "custom": (None, _as_custom_network, True),
    },
    "train": {
        "learning_rate": (0.001, _as_float, False),
        "optimizer": ("adam", _one_of(OPTIMIZERS), False),
        "beta1": (0.9, _as_float, False),
        "beta2": (0.999, _as_float, False),
        "eps": (1e-8, _as_float, False),
        "batch_size": (128, _int_at_least(1), False),
        "max_epochs": (300, _int_at_least(1), False),
        "patience": (50, _int_at_least(1), False),
        "min_delta": (1e-8, _as_float, False),
    },
    "rollout": {"horizon": (10, _int_at_least(1), False)},
    "macnet": {
        "cfd_window": (2, _int_at_least(1), False),
        "tolerance": (5.0, _as_float, False),
        "max_ml_steps": (10, _int_at_least(1), False),
        "horizon": (40, _as_int, False),
        "retrain": ("warm-start", _one_of(RETRAIN_POLICIES), False),
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


def merge_tree(base: dict, user: dict) -> dict:
    """Overlay a user document on the defaults, rejecting unknown names."""
    out = copy.deepcopy(base)
    for section, value in user.items():
        if section in _TOP_SCALARS:
            out[section] = value
            continue
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section {section!r}")
        if not isinstance(value, dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
        for key, leaf in value.items():
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            out[section][key] = leaf
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
    if parts[0] in _TOP_SCALARS:
        if len(parts) != 1:
            raise ConfigurationError(f"config field {parts[0]} has no sub-keys")
        tree[parts[0]] = value
        return
    if parts[0] not in _SCHEMA:
        raise ConfigurationError(f"unknown config section {parts[0]!r}")
    if len(parts) < 2 or parts[1] not in _SCHEMA[parts[0]]:
        raise ConfigurationError(f"unknown config key {'.'.join(parts[:2])}")
    node = tree[parts[0]]
    for part in parts[1:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _cast(path: str, value, caster, nullable: bool):
    if value is None:
        if nullable:
            return None
        raise ConfigurationError(f"config field {path} is missing a value")
    return caster(path, value)


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


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


def _resolve_spec(network: dict, width: int) -> NetworkSpec:
    case, custom = network["case"], network["custom"]
    if (case is None) == (custom is None):
        raise ConfigurationError(
            "network needs exactly one of network.case or network.custom"
        )
    if case is not None:
        base = CASES[case]
        return NetworkSpec(width, base.hidden, 1, base.activation)
    return NetworkSpec(width, tuple(custom["hidden"]), 1, custom["activation"])


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
            node[key] = _jsonable(value)
    for name, (default, caster, nullable) in _TOP_SCALARS.items():
        value = tree[name] if name in tree else copy.deepcopy(default)
        tree[name] = _cast(name, value, caster, nullable)

    grid = GridSpec(**leaves["grid"])
    dataset = leaves["dataset"]
    train_window = dataset.pop("train_window")
    split_fraction = dataset.pop("split_fraction")
    layout = CellLayout(**dataset)
    recipe = SurrogateRecipe(
        spec=_resolve_spec(leaves["network"], layout.width),
        train=TrainConfig(**leaves["train"], seed=tree["seed"]),
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
