"""Session-wide desk fixtures.

The acceptance checks all run on the default configuration ("desk" scale).
Generating the series and training the reference bundle are the expensive
parts, so both are computed once per session and shared.
"""

import pytest

from fvmnet.config import default_tree, resolve_config
from fvmnet.rollout import (
    constant_gradient,
    multi_step,
    residual_denominator,
    single_step,
    train_bundle,
    window_gradient,
)
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
    w = cfg.train_window
    h = cfg.rollout_horizon
    truth = desk_series[w : w + h + 1]
    denom = residual_denominator(desk_series[: w + 1], cfg.grid, cfg.params)
    args = (cfg.partition, cfg.grid, cfg.params, denom)
    gradient = window_gradient(desk_series[w - 1], desk_series[w], cfg.grid)
    return {
        "multi": multi_step(bundle, truth[0], h, truth, *args),
        "single": single_step(bundle, truth, *args),
        "constant-gradient": constant_gradient(truth[0], gradient, h, truth, *args),
    }
