"""Session-wide desk fixtures.

The acceptance checks all run on the default configuration ("desk" scale).
Generating the series and training the reference bundle are the expensive
parts, so both are computed once per session and shared.
"""

import pytest

from fvmnet.config import default_tree, resolve_config
from fvmnet.rollout import MODES, evaluate, train_bundle
from fvmnet.solver import simulate, step


@pytest.fixture(scope="session")
def desk_cfg():
    return resolve_config(default_tree())


@pytest.fixture(scope="session")
def desk_series(desk_cfg):
    cfg = desk_cfg
    state = cfg.initial_snapshot()
    for _ in range(cfg.burn_in):
        state = step(state, cfg.grid, cfg.params)
    return simulate(state, cfg.grid, cfg.params, cfg.generate_horizon)


@pytest.fixture(scope="session")
def desk_bundle(desk_cfg, desk_series):
    cfg = desk_cfg
    window = desk_series[: cfg.train_window + 1]
    return train_bundle(window, cfg.grid, cfg.partition, cfg.recipe, seed=cfg.seed)


@pytest.fixture(scope="session")
def desk_rollouts(desk_cfg, desk_series, desk_bundle):
    """Reports for all three modes over the default test horizon."""
    cfg = desk_cfg
    bundle, _ = desk_bundle
    return {
        mode: evaluate(
            mode, bundle, desk_series, cfg.train_window, cfg.rollout_horizon,
            cfg.partition, cfg.grid, cfg.params,
        )
        for mode in MODES
    }
