"""End-to-end acceptance checks, one test per advertised guarantee.

Everything runs on the default ("desk") configuration so a plain
`pytest tests/test_acceptance.py -v` prints one pass/fail line per check:

  01  network parameter counts for the eight sweep cases, exact
  02  backprop against central finite differences, 1e-5 relative
  03  closed-box transport conserves every scalar to 1e-10 over 100 steps
  04  input/output ablation ordering on one-step temperature error
  05  rollout error shapes: single < multi, multi quadratic, baseline worst
  06  exact-derivative surrogate keeps 10-step rollout error below 1e-8
  07  scaled residual: 1 on its defining pair, 0 on a quiet pair, rising
  08  hybrid alternation trace validity plus tolerance extremes
  09  the whole-array solver step outruns the hybrid band step (ratio logged)
  10  generate+train+rollout rerun is byte-identical
"""

import os
import shutil
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    DerivativeOracle,
    finite_difference_check,
    forward,
    sample_components,
    volume_weighted_total,
)

from fvmnet.cli import main
from fvmnet.macnet import hybrid_error_audit, retrain_seed, run, validate_trace
from fvmnet.network import CASES, init_network, param_count
from fvmnet.rollout import (
    growth_fit_rss,
    multi_step,
    predict_step,
    relative_error,
    residual_denominator,
    scaled_residual,
    train_bundle,
)
from fvmnet.solver import (
    IDX,
    N_VARS,
    PhysicalParams,
    Snapshot,
    simulate,
    step,
)

EXPECTED_PARAM_COUNTS = {
    "a": 2049,
    "b": 6209,
    "c": 10369,
    "d": 14529,
    "e": 10369,
    "f": 37121,
    "g": 139777,
    "h": 4609,
}


def test_01_parameter_counts_exact():
    assert set(CASES) == set(EXPECTED_PARAM_COUNTS)
    for label, spec in CASES.items():
        assert spec.n_inputs == 30 and spec.n_outputs == 1
        assert param_count(spec) == EXPECTED_PARAM_COUNTS[label], f"case {label}"


def test_02_backprop_matches_central_differences():
    rng = np.random.default_rng(2024)
    pairs = 0
    worst = 0.0
    for spec in CASES.values():
        for _ in range(13):
            net = init_network(spec, seed=int(rng.integers(2**31)))
            x = rng.standard_normal(spec.n_inputs)
            y = float(forward(net, x)) + 0.8  # keep the output gradient O(1)
            components = sample_components(net, rng, 12)
            worst = max(worst, finite_difference_check(net, x, y, components))
            pairs += 1
    assert pairs >= 100
    assert worst < 1e-5, f"worst gradient mismatch {worst:.3e}"


def test_03_closed_box_transport_conserves_scalars(desk_cfg):
    grid = desk_cfg.grid
    params = PhysicalParams(
        diffusivity=dict(desk_cfg.params.diffusivity),
        arrhenius_a=0.0,
        heat_release=0.0,
        wall_temperature=None,
        axial_bc="closed",
    )
    state = desk_cfg.initial_snapshot()
    values = state.values.copy()
    rng = np.random.default_rng(7)
    for name in ("X_fuel", "X_prod", "X_ox"):
        values[IDX[name]] = 0.05 + 0.2 * rng.random((grid.m, grid.n))
    # A gentle compressive axial field; the default throughflow would pile
    # species onto the sealed outlet until the [0, 1] clamp bleeds mass.
    values[IDX["v_x"]] = 0.1 * np.sin(np.linspace(0.0, 3.0, grid.m))[:, None]
    state = Snapshot(values, 0.0)

    scalars = ("T", "X_fuel", "X_prod", "X_ox")
    before = {v: volume_weighted_total(state, grid, v) for v in scalars}
    final = simulate(state, grid, params, steps=100)[-1]
    for name in ("X_fuel", "X_prod", "X_ox"):
        band = final.var(name)
        assert 0.0 < band.min() and band.max() < 1.0  # clamp never engaged
    for name in scalars:
        after = volume_weighted_total(final, grid, name)
        drift = abs(after - before[name]) / abs(before[name])
        assert drift < 1e-10, f"{name} total drifted {drift:.3e}"


def test_04_ablation_ordering(desk_cfg, desk_series, desk_bundle):
    cfg = desk_cfg
    w = cfg.train_window

    def one_step_error(bundle):
        pred = predict_step(bundle, desk_series[w], cfg.partition, cfg.grid, cfg.params)
        worst, _ = relative_error(pred, desk_series[w + 1], "T", cfg.partition)
        return worst

    def variant_error(input_mode, output_mode):
        layout = replace(cfg.recipe.layout, input_mode=input_mode, output_mode=output_mode)
        spec = replace(cfg.recipe.spec, n_inputs=layout.width)
        recipe = replace(cfg.recipe, spec=spec, layout=layout)
        bundle, _ = train_bundle(
            desk_series[: w + 1], cfg.grid, cfg.partition, recipe, seed=cfg.seed
        )
        return one_step_error(bundle)

    fvmn = one_step_error(desk_bundle[0])  # tier + derivative, trained once per session
    tier_only = variant_error("tier", "absolute")
    derivative_only = variant_error("center", "derivative")
    general = variant_error("center", "absolute")

    print(
        f"one-step max T error: fvmn {fvmn:.3e}, tier-only {tier_only:.3e}, "
        f"derivative-only {derivative_only:.3e}, general {general:.3e}"
    )
    assert 0.0 < fvmn < tier_only < general
    assert fvmn < derivative_only <= tier_only
    assert fvmn < 0.2 * general


def test_05_rollout_error_shapes(desk_rollouts):
    multi = desk_rollouts["multi"].max_series("T")
    single = desk_rollouts["single"].max_series("T")
    constant = desk_rollouts["constant-gradient"].max_series("T")

    assert single[-1] < multi[-1]

    linear_rss, quadratic_rss = growth_fit_rss(multi)
    print(f"multi-step growth fit: linear rss {linear_rss:.3e}, quadratic rss {quadratic_rss:.3e}")
    assert quadratic_rss < linear_rss

    assert constant[-1] >= multi[-1]


def test_06_exact_derivative_oracle_closes_the_loop(desk_cfg, desk_series):
    cfg = desk_cfg
    w = cfg.train_window
    horizon = 10
    truth = desk_series[w : w + horizon + 1]
    denominator = residual_denominator(desk_series[: w + 1], cfg.grid, cfg.params)
    report = multi_step(
        DerivativeOracle(), truth[0], horizon, truth, cfg.partition, cfg.grid, cfg.params, denominator
    )
    worst = max(max(rec.max_errors.values()) for rec in report.steps)
    assert worst < 1e-8, f"oracle rollout drifted to {worst:.3e}"


def test_07_scaled_residual_behavior(desk_cfg, desk_series, desk_rollouts):
    cfg = desk_cfg
    window = desk_series[: cfg.train_window + 1]
    denominator = residual_denominator(window, cfg.grid, cfg.params)

    assert scaled_residual(window[-1], window[-2], cfg.grid, cfg.params, denominator) == 1.0

    quiet = np.zeros((N_VARS, cfg.grid.m, cfg.grid.n))
    quiet[IDX["T"]] = 300.0
    pair = Snapshot(quiet, 0.0), Snapshot(quiet.copy(), cfg.grid.dt)
    assert scaled_residual(pair[1], pair[0], cfg.grid, cfg.params, denominator) == 0.0

    residuals = desk_rollouts["multi"].residual_series()
    assert residuals[-1] >= residuals[0]


def test_08_hybrid_trace_validity_and_tolerance_extremes(desk_cfg, desk_series):
    cfg = desk_cfg
    start = desk_series[0]

    series, trace = run(start, cfg.macnet, cfg.grid, cfg.params, cfg.partition, seed=cfg.seed)
    validate_trace(trace)
    assert trace.phases[-1].end == cfg.macnet.horizon
    assert trace.ml_fraction() > 0.0
    assert len(series) == cfg.macnet.horizon + 1

    # Gate never trips: after the first window the run must replay a plain
    # autoregressive rollout of the same trained surrogates, bit for bit.
    inf_cfg = replace(cfg.macnet, tolerance=float("inf"))
    inf_series, inf_trace = run(start, inf_cfg, cfg.grid, cfg.params, cfg.partition, seed=cfg.seed)
    validate_trace(inf_trace)
    truth = simulate(start, cfg.grid, cfg.params, inf_cfg.horizon)
    w = inf_cfg.cfd_window
    bundle, _ = train_bundle(
        truth[: w + 1],
        cfg.grid,
        cfg.partition,
        inf_cfg.recipe,
        seed=retrain_seed(cfg.seed, 0),
    )
    denominator = residual_denominator(truth[: w + 1], cfg.grid, cfg.params)
    plain = multi_step(
        bundle, truth[w], inf_cfg.max_ml_steps, truth[w:], cfg.partition, cfg.grid, cfg.params, denominator
    )
    audit = hybrid_error_audit(inf_series, inf_trace, truth, cfg.partition)
    for offset, rec in enumerate(plain.steps):
        row = audit[w + offset]
        assert row.mode == "ML"
        assert row.max_errors == rec.max_errors
        assert row.mean_errors == rec.mean_errors
    first_ml = inf_trace.phases[1]
    assert list(first_ml.residuals) == [rec.scaled_residual for rec in plain.steps]

    # Gate always trips: every surrogate candidate is discarded, so the run
    # degenerates to pure solver stepping.
    tiny_cfg = replace(cfg.macnet, tolerance=1e-12)
    tiny_series, tiny_trace = run(start, tiny_cfg, cfg.grid, cfg.params, cfg.partition, seed=cfg.seed)
    validate_trace(tiny_trace)
    assert tiny_trace.ml_fraction() == 0.0
    assert len(tiny_trace.fallbacks) > 0
    for ours, ref in zip(tiny_series, truth):
        assert np.array_equal(ours.values, ref.values)


def test_09_solver_step_beats_hybrid_step(desk_cfg, desk_series, desk_bundle):
    """The paper's speedup comes from replacing an expensive CFD solver. Against
    the whole-array kernel the hybrid step, four 64-wide networks over the band
    plus the strips, is the slower one, so a slow kernel coming back shows here.
    A cheaper surrogate step would have to restate this check.
    """
    cfg = desk_cfg
    bundle, _ = desk_bundle
    state = desk_series[cfg.train_window]
    repeats = 25

    predict_step(bundle, state, cfg.partition, cfg.grid, cfg.params)  # warm up
    step(state, cfg.grid, cfg.params)

    t0 = time.perf_counter()
    for _ in range(repeats):
        predict_step(bundle, state, cfg.partition, cfg.grid, cfg.params)
    hybrid_mean = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for _ in range(repeats):
        step(state, cfg.grid, cfg.params)
    solver_mean = (time.perf_counter() - t0) / repeats

    print(
        f"mean step wall time: hybrid {hybrid_mean * 1e3:.2f} ms, "
        f"solver {solver_mean * 1e3:.2f} ms, hybrid/solver {hybrid_mean / solver_mean:.2f}x"
    )
    assert solver_mean < hybrid_mean


def test_10_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"

    def pipeline():
        for command in ("generate", "train", "rollout", "report"):
            assert main([command, "--out", str(out)]) == 0
        files = {}
        for root, _, names in os.walk(out):
            for name in names:
                if name.startswith("timing_"):
                    continue  # wall-clock sidecars, nondeterministic by nature
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
        return files

    first = pipeline()
    shutil.rmtree(out)
    second = pipeline()
    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    assert differing == [], f"artifacts changed across reruns: {differing}"
