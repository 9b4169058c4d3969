"""Rollout tests: hybrid stepping, error metrics, residual scaling, baselines."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import DerivativeOracle

import fvmnet.rollout
from fvmnet.dataset import TIER_WIDTH, CellLayout, DomainPartition, Standardizer, fit_standardizer
from fvmnet.errors import (
    BlowupError,
    ConfigurationError,
    DomainError,
    NumericalError,
    StabilityError,
)
from fvmnet.network import CASES, NetworkSpec, init_network, predict
from fvmnet.rollout import (
    BLOCK_ROWS,
    MODES,
    RolloutReport,
    StepRecord,
    SurrogateBundle,
    SurrogateRecipe,
    evaluate,
    growth_fit_rss,
    predict_step,
    relative_error,
    residual_denominator,
    scaled_residual,
    train_bundle,
)
from fvmnet.solver import (
    IDX,
    TRANSPORTED,
    VARIABLES,
    GridSpec,
    PhysicalParams,
    Snapshot,
    simulate,
    step,
    step_columns,
)
from fvmnet.training import TrainConfig

GRID = GridSpec(m=16, n=4, dx=0.01, dr=0.01, dt=0.002)
PART = DomainPartition(m=16, m_star=4)
PARAMS = PhysicalParams(
    diffusivity={"T": 1e-4, "X_fuel": 5e-5, "X_prod": 5e-5, "X_ox": 5e-5}
)
# Column of each transported variable in `cell_outputs` rows.
COL = {v: k for k, v in enumerate(TRANSPORTED)}


def blob_state(grid=GRID, vx=0.4):
    """Advecting hot blob with fuel; enough structure to move every step."""
    vals = np.zeros((6, grid.m, grid.n))
    i = np.arange(grid.m)[:, None]
    j = np.arange(grid.n)[None, :]
    vals[IDX["v_x"]] = vx
    vals[IDX["T"]] = 300.0 + 500.0 * np.exp(-((i - 7.0) ** 2) / 6.0 - (j**2) / 4.0)
    vals[IDX["X_fuel"]] = 0.05
    vals[IDX["X_ox"]] = 0.2
    return Snapshot(vals, 0.0)


def zero_bundle():
    width = TIER_WIDTH
    spec = NetworkSpec(width, (4,), 1)
    nets = {}
    for v in VARIABLES:
        net = init_network(spec, seed=0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        nets[v] = net
    return SurrogateBundle(
        networks=nets,
        standardizer=Standardizer(mean=np.zeros(width), std=np.ones(width)),
        target_scales={v: (0.0, 1.0) for v in VARIABLES},
    )


def denom_for(truth):
    return residual_denominator(truth[:2], GRID, PARAMS)


# ----- predict_step -----


def test_zero_bundle_leaves_flame_region_unchanged():
    state = blob_state()
    out = predict_step(zero_bundle(), state, PART, GRID, PARAMS)
    lo, hi = PART.flame
    assert np.array_equal(out.values[:, lo:hi, :], state.values[:, lo:hi, :])
    assert out.time == state.time + GRID.dt


def test_strips_follow_the_solver_exactly():
    state = blob_state()
    out = predict_step(zero_bundle(), state, PART, GRID, PARAMS)
    strips = step_columns(state, GRID, PARAMS, [PART.inlet, PART.outlet])
    for lo, hi in (PART.inlet, PART.outlet):
        assert np.array_equal(out.values[:, lo:hi, :], strips.values[:, lo:hi, :])


def test_oracle_bundle_reproduces_solver_step_on_flame_region():
    state = blob_state()
    pred = predict_step(DerivativeOracle(), state, PART, GRID, PARAMS)
    truth = step(state, GRID, PARAMS)
    lo, hi = PART.flame
    np.testing.assert_allclose(
        pred.values[:, lo:hi, :], truth.values[:, lo:hi, :], rtol=0, atol=1e-9
    )
    # Strip columns take the identical solver path, so they match bit for bit.
    assert np.array_equal(pred.values[:, :lo, :], truth.values[:, :lo, :])
    assert np.array_equal(pred.values[:, hi:, :], truth.values[:, hi:, :])


def test_velocities_pass_through_a_zero_bundle_step():
    state = blob_state()
    out = predict_step(zero_bundle(), state, PART, GRID, PARAMS)
    assert np.array_equal(out.var("v_x"), state.var("v_x"))
    assert np.array_equal(out.var("v_r"), state.var("v_r"))


class NanBundle:
    """A bundle stand-in whose T output is NaN at band row 5."""

    layout = CellLayout()

    def cell_outputs(self, state, partition, grid, params):
        lo, hi = partition.flame
        out = np.zeros(((hi - lo) * grid.n, len(TRANSPORTED)))
        out[5, COL["T"]] = np.nan
        return out


# Row 5 of the i-major band is cell (m_star + 5 // n, 5 % n).
NAN_CELL = (4 + 5 // GRID.n, 5 % GRID.n)


def test_nonfinite_network_output_names_cell_and_variable():
    with pytest.raises(BlowupError) as err:
        predict_step(NanBundle(), blob_state(), PART, GRID, PARAMS)
    assert err.value.variable == "T"
    assert err.value.cell == NAN_CELL


class FixedBundle:
    """A bundle stand-in that returns the same (band cells, len(TRANSPORTED))
    outputs every call."""

    layout = CellLayout()

    def __init__(self, outputs):
        self.outputs = outputs

    def cell_outputs(self, state, partition, grid, params):
        return self.outputs.copy()


BAND_ROWS = (PART.flame[1] - PART.flame[0]) * GRID.n


def planes(count, low, high):
    return arrays(np.float64, (count, GRID.m, GRID.n), elements=st.floats(low, high))


@settings(max_examples=60, deadline=None)
@given(
    velocities=planes(2, -2.5, 2.5),  # advective CFL at most 0.5
    temperature=planes(1, 1.0, 1e6),
    species=planes(3, 0.0, 1.0),
    outputs=arrays(
        np.float64, (BAND_ROWS, len(TRANSPORTED)), elements=st.floats(-1e6, 1e6)
    ),
)
def test_hybrid_step_keeps_the_solver_state_invariants(
    velocities, temperature, species, outputs
):
    state = Snapshot(np.concatenate([velocities, temperature, species]), 0.0)
    bundle = FixedBundle(outputs)
    lo, hi = PART.flame
    band = bundle.layout.next_band(state, outputs, PART, GRID.dt)
    try:
        strips = step_columns(state, GRID, PARAMS, [PART.inlet, PART.outlet])
    except BlowupError as solver_err:
        # The strips are stepped first, so their refusal is the hybrid step's.
        with pytest.raises(BlowupError) as err:
            predict_step(bundle, state, PART, GRID, PARAMS)
        assert (err.value.variable, err.value.cell) == (solver_err.variable, solver_err.cell)
        return
    if (band[COL["T"]] <= 0.0).any():
        with pytest.raises(BlowupError, match="non-positive T .* after surrogate step") as err:
            predict_step(bundle, state, PART, GRID, PARAMS)
        i, j = err.value.cell
        assert err.value.variable == "T" and band[COL["T"]][i - lo, j] <= 0.0
        return
    out = predict_step(bundle, state, PART, GRID, PARAMS)
    assert out.var("T")[lo:hi, :].min() > 0.0
    band_species = out.values[IDX["X_fuel"] :, lo:hi, :]
    assert band_species.min() >= 0.0 and band_species.max() <= 1.0
    for a, b in (PART.inlet, PART.outlet):
        assert np.array_equal(out.values[:, a:b, :], strips.values[:, a:b, :])
    assert np.array_equal(out.var("T")[lo:hi, :], band[COL["T"]])
    # The prescribed velocities pass through bit for bit, as in a solver step.
    for v in ("v_x", "v_r"):
        assert out.var(v)[lo:hi, :].tobytes() == state.var(v)[lo:hi, :].tobytes()


def test_infinite_band_species_is_refused_not_clipped():
    outputs = np.zeros((BAND_ROWS, len(TRANSPORTED)))
    outputs[5, COL["X_fuel"]] = np.inf
    with pytest.raises(BlowupError, match="after surrogate step") as err:
        predict_step(FixedBundle(outputs), blob_state(), PART, GRID, PARAMS)
    assert err.value.variable == "X_fuel"
    assert err.value.cell == NAN_CELL


def test_cell_outputs_share_no_stale_values_between_calls():
    # Five networks share one spec; of the four that run, three share one
    # buffer set and X_prod has its own.
    rng = np.random.default_rng(5)
    nets = {}
    for k, v in enumerate(VARIABLES):
        hidden = (5, 3) if v == "X_prod" else (8, 8)
        net = init_network(NetworkSpec(TIER_WIDTH, hidden, 1), seed=k)
        for b in net.biases:
            b[:] = rng.standard_normal(b.shape)
        nets[v] = net
    bundle = SurrogateBundle(
        networks=nets,
        standardizer=Standardizer(
            mean=rng.standard_normal(TIER_WIDTH), std=1.0 + rng.random(TIER_WIDTH)
        ),
        target_scales={v: (float(k), 0.5 + k) for k, v in enumerate(VARIABLES)},
    )
    states = [blob_state(), step(blob_state(vx=0.7), GRID, PARAMS)]

    def fresh(state):
        z = bundle.standardizer.apply(CellLayout().inputs(state, PART))
        out = np.empty((z.shape[0], len(TRANSPORTED)))
        for v in TRANSPORTED:
            mean, std = bundle.target_scales[v]
            out[:, COL[v]] = predict(nets[v], z) * std + mean
        return out

    expected = [fresh(s) for s in states]
    assert not np.array_equal(expected[0], expected[1])
    for k in (0, 1, 1, 0, 1):
        got = bundle.cell_outputs(states[k], PART, GRID, PARAMS)
        assert got.tobytes() == expected[k].tobytes()


def test_velocity_networks_never_run_in_a_hybrid_step(monkeypatch):
    state = blob_state()
    bundle = SurrogateBundle(
        networks={
            v: init_network(NetworkSpec(TIER_WIDTH, (8,), 1), seed=k)
            for k, v in enumerate(VARIABLES)
        },
        standardizer=fit_standardizer(CellLayout().inputs(state, PART)),
        target_scales={v: (0.0, 1e-3) for v in VARIABLES},
    )
    plain = predict_step(bundle, state, PART, GRID, PARAMS)
    kicked = {v: net.copy() for v, net in bundle.networks.items()}
    for v in ("v_x", "v_r"):
        kicked[v].biases[-1][:] = 1e6
    calls = []
    real_predict = fvmnet.rollout.predict

    def recording_predict(net, x, *rest):
        calls.append((net, x.shape[0]))
        return real_predict(net, x, *rest)

    monkeypatch.setattr(fvmnet.rollout, "predict", recording_predict)
    out = predict_step(replace(bundle, networks=kicked), state, PART, GRID, PARAMS)
    assert out.values.tobytes() == plain.values.tobytes() and out.time == plain.time
    transported = {id(kicked[v]): v for v in TRANSPORTED}
    assert all(id(net) in transported for net, _ in calls)
    lo, hi = PART.flame
    for v in TRANSPORTED:
        rows = sum(n for net, n in calls if net is kicked[v])
        assert rows == (hi - lo) * GRID.n, v


@pytest.mark.parametrize("input_mode", ["tier", "center"])
@pytest.mark.parametrize("case", ["c", "e"])
@pytest.mark.parametrize(
    "rows",
    [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5, 1536],
)
def test_blocked_cell_outputs_match_the_whole_band_bit_for_bit(rows, case, input_mode):
    # Reference: one predict over all band rows per network. X_prod has its
    # own spec, so two buffer sets are walked block by block.
    rng = np.random.default_rng(rows)
    layout = CellLayout(input_mode=input_mode)
    shared = CASES[case]
    nets = {}
    for k, v in enumerate(VARIABLES):
        hidden = (5, 3) if v == "X_prod" else shared.hidden
        net = init_network(NetworkSpec(layout.width, hidden, 1, shared.activation), seed=k)
        for b in net.biases:
            b[:] = rng.standard_normal(b.shape)
        nets[v] = net
    bundle = SurrogateBundle(
        networks=nets,
        standardizer=Standardizer(
            mean=rng.standard_normal(layout.width), std=1.0 + rng.random(layout.width)
        ),
        target_scales={v: (float(k), 0.5 + k) for k, v in enumerate(VARIABLES)},
        layout=layout,
    )
    n = 24 if rows % 24 == 0 else 1
    part = DomainPartition(m=rows // n + 2, m_star=1)
    states = [Snapshot(rng.random((len(VARIABLES), part.m, n)), 0.0) for _ in range(2)]

    def whole_band(state):
        z = bundle.standardizer.apply(layout.inputs(state, part))
        assert z.shape[0] == rows
        out = np.empty((rows, len(TRANSPORTED)))
        for v in TRANSPORTED:
            mean, std = bundle.target_scales[v]
            out[:, COL[v]] = predict(nets[v], z) * std + mean
        return out

    expected = [whole_band(s) for s in states]
    # Two calls in a row on different states, so a short last block cannot
    # pass for right by reading rows the full block before it left behind.
    # cell_outputs reads only the state and the partition; n = 1 fits no GridSpec.
    for k in (0, 1, 0):
        got = bundle.cell_outputs(states[k], part, GRID, PARAMS)
        assert got.tobytes() == expected[k].tobytes()


def test_predict_step_rejects_mismatched_shapes():
    small = GridSpec(m=12, n=4, dx=0.01, dr=0.01, dt=0.002)
    with pytest.raises(DomainError):
        predict_step(zero_bundle(), blob_state(), PART, small, PARAMS)
    with pytest.raises(DomainError):
        predict_step(zero_bundle(), blob_state(), DomainPartition(m=12, m_star=3), GRID, PARAMS)


# ----- error metric -----


def brute_force_relative_error(pred, truth, variable, partition):
    lo, hi = partition.flame
    p = pred.var(variable)[lo:hi, :]
    t = truth.var(variable)[lo:hi, :]
    scale = max(abs(v) for v in t.ravel())
    ratios, all_errs = [], []
    for pv, tv in zip(p.ravel(), t.ravel()):
        d = abs(pv - tv)
        if scale > 0.0 and abs(tv) >= 1e-6 * scale:
            ratios.append(d / abs(tv))
            all_errs.append(d / abs(tv))
        else:
            all_errs.append(d)
    mx = max(ratios) if ratios else 0.0
    return mx, sum(all_errs) / len(all_errs)


def test_relative_error_zero_for_identical_snapshots():
    state = blob_state()
    assert relative_error(state, state, "T", PART) == (0.0, 0.0)


def test_relative_error_single_perturbed_cell():
    truth = blob_state()
    truth.values[IDX["T"]][:] = 300.0
    pred = truth.copy()
    pred.values[IDX["T"]][6, 2] = 303.0
    mx, mean = relative_error(pred, truth, "T", PART)
    assert mx == 0.01
    assert mean == pytest.approx(0.01 / ((PART.m - 2 * PART.m_star) * GRID.n), rel=1e-12)


def test_relative_error_matches_brute_force_loop():
    rng = np.random.default_rng(3)
    truth = blob_state()
    pred = truth.copy()
    pred.values += 0.01 * rng.standard_normal(pred.values.shape)
    for v in VARIABLES:
        got = relative_error(pred, truth, v, PART)
        want = brute_force_relative_error(pred, truth, v, PART)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)


def test_relative_error_floor_excludes_near_zero_denominators():
    truth = blob_state()
    truth.values[IDX["X_prod"]][:] = 1.0
    truth.values[IDX["X_prod"]][6, 2] = 1e-12  # far below 1e-6 * max
    pred = truth.copy()
    pred.values[IDX["X_prod"]][6, 2] += 0.5
    pred.values[IDX["X_prod"]][7, 1] = 1.02
    mx, mean = relative_error(pred, truth, "X_prod", PART)
    assert mx == pytest.approx(0.02, rel=1e-12), "tiny-truth cell leaked into max"
    cells = (PART.m - 2 * PART.m_star) * GRID.n
    assert mean == pytest.approx((0.5 + 0.02) / cells, rel=1e-9)


def test_relative_error_all_zero_truth_falls_back_to_absolute():
    truth = blob_state()
    truth.values[IDX["X_prod"]][:] = 0.0
    pred = truth.copy()
    pred.values[IDX["X_prod"]][:] = 0.25
    mx, mean = relative_error(pred, truth, "X_prod", PART)
    assert mx == 0.0
    assert mean == 0.25


# ----- scaled residual -----


def test_scaled_residual_is_one_on_the_defining_pair():
    truth = simulate(blob_state(), GRID, PARAMS, 2)
    denom = residual_denominator(truth, GRID, PARAMS)
    assert denom > 0.0
    assert scaled_residual(truth[2], truth[1], GRID, PARAMS, denom) == 1.0


def test_scaled_residual_zero_for_isothermal_still_pair():
    vals = np.zeros((6, GRID.m, GRID.n))
    vals[IDX["T"]] = 300.0
    a = Snapshot(vals, 0.0)
    b = Snapshot(vals.copy(), GRID.dt)
    assert scaled_residual(b, a, GRID, PARAMS, 1.0) == 0.0


def test_scaled_residual_rejects_bad_denominator():
    truth = simulate(blob_state(), GRID, PARAMS, 1)
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            scaled_residual(truth[1], truth[0], GRID, PARAMS, bad)
    with pytest.raises(DomainError):
        residual_denominator(truth[:1], GRID, PARAMS)


# ----- evaluation modes -----


def test_oracle_multi_step_error_stays_tiny_for_full_horizon():
    series = simulate(blob_state(), GRID, PARAMS, 11)
    report = evaluate("multi", DerivativeOracle(), series, 1, 10, PART, GRID, PARAMS)
    assert len(report.steps) == 10
    for v in VARIABLES:
        assert max(report.max_series(v)) < 1e-8


def test_oracle_single_step_errors_are_tiny():
    series = simulate(blob_state(), GRID, PARAMS, 5)
    report = evaluate("single", DerivativeOracle(), series, 1, 4, PART, GRID, PARAMS)
    assert len(report.steps) == 4
    for v in VARIABLES:
        assert max(report.max_series(v)) < 1e-9


def test_multi_and_single_agree_at_step_one():
    series = simulate(blob_state(), GRID, PARAMS, 4)
    bundle = zero_bundle()
    multi = evaluate("multi", bundle, series, 1, 3, PART, GRID, PARAMS)
    single = evaluate("single", bundle, series, 1, 3, PART, GRID, PARAMS)
    assert multi.steps[0].max_errors == single.steps[0].max_errors
    assert multi.steps[0].mean_errors == single.steps[0].mean_errors
    assert multi.steps[0].scaled_residual == single.steps[0].scaled_residual


def test_every_step_residual_pairs_the_new_state_with_its_start():
    series = simulate(blob_state(), GRID, PARAMS, 5)
    truth = series[1:]
    bundle = zero_bundle()
    denom = denom_for(series)
    reports = [evaluate(mode, bundle, series, 1, 4, PART, GRID, PARAMS) for mode in MODES]
    for report in reports:
        for k in range(2, 5):
            state, previous = report.states[k - 1], report.states[k - 2]
            start, other = (
                (truth[k - 1], previous) if report.mode == "single"
                else (previous, truth[k - 1])
            )
            residual = report.steps[k - 1].scaled_residual
            assert residual == scaled_residual(state, start, GRID, PARAMS, denom)
            # The other pairing gives another value, so the check above can fail.
            assert residual != scaled_residual(state, other, GRID, PARAMS, denom)


@pytest.mark.parametrize("mode", ["multi", "single"])
def test_rollout_blowup_names_mode_step_variable_and_cell(mode):
    series = simulate(blob_state(), GRID, PARAMS, 3)
    with pytest.raises(BlowupError) as err:
        evaluate(mode, NanBundle(), series, 1, 2, PART, GRID, PARAMS)
    assert str(err.value).startswith(f"{mode}-step rollout failed at step 1: non-finite T")
    assert err.value.variable == "T"
    assert err.value.cell == NAN_CELL


def test_multi_step_keeps_its_velocities_so_only_a_stored_state_breaks_the_cfl_limit():
    series = simulate(blob_state(), GRID, PARAMS, 3)
    start = series[1]
    outputs = np.full((BAND_ROWS, len(TRANSPORTED)), 1.0)  # every scalar moves
    report = evaluate("multi", FixedBundle(outputs), series, 1, 2, PART, GRID, PARAMS)
    for state in report.states:
        for v in ("v_x", "v_r"):
            assert state.var(v).tobytes() == start.var(v).tobytes()
        assert not np.array_equal(state.var("T"), start.var("T"))
    # The CFL limit reads only velocities, so a state past it was stored that way.
    fast = blob_state(vx=3.0)
    series = [Snapshot(fast.values, k * GRID.dt) for k in range(3)]
    with pytest.raises(StabilityError):
        evaluate("multi", zero_bundle(), series, 1, 1, PART, GRID, PARAMS)


class ColdBandBundle:
    """A bundle stand-in whose T derivative takes 10^4 K off band row 5 per step."""

    layout = CellLayout()

    def cell_outputs(self, state, partition, grid, params):
        out = np.zeros((BAND_ROWS, len(TRANSPORTED)))
        out[5, COL["T"]] = -1e4 / grid.dt
        return out


def test_multi_step_below_zero_temperature_is_a_numerical_failure():
    series = simulate(blob_state(), GRID, PARAMS, 3)
    with pytest.raises(NumericalError) as err:
        evaluate("multi", ColdBandBundle(), series, 1, 2, PART, GRID, PARAMS)
    assert not isinstance(err.value, ConfigurationError)
    assert str(err.value).startswith("multi-step rollout failed at step 1: non-positive T")
    assert err.value.variable == "T"
    assert err.value.cell == NAN_CELL


def test_reports_keep_the_predicted_states():
    series = simulate(blob_state(), GRID, PARAMS, 4)
    truth = series[1:]
    bundle = zero_bundle()
    multi, single, const = (
        evaluate(mode, bundle, series, 1, 3, PART, GRID, PARAMS)
        for mode in MODES
    )
    gradient = (series[1].values - series[0].values) / GRID.dt
    lo, hi = PART.flame
    state = truth[0]
    for k in range(1, 4):
        state = predict_step(bundle, state, PART, GRID, PARAMS)
        assert np.array_equal(multi.states[k - 1].values, state.values)
        assert multi.states[k - 1].time == state.time
        teacher = predict_step(bundle, truth[k - 1], PART, GRID, PARAMS)
        assert np.array_equal(single.states[k - 1].values, teacher.values)
        frozen = const.states[k - 1].values
        assert np.array_equal(
            frozen[:, lo:hi, :],
            truth[0].values[:, lo:hi, :] + (k * GRID.dt) * gradient[:, lo:hi, :],
        )
    for report in (multi, single, const):
        assert len(report.states) == len(report.steps)


def test_constant_gradient_is_exact_on_linearly_evolving_truth():
    # A dyadic dt, values and gradient keep every sum exact, so the gradient
    # read off the window pair is the generating one to the bit.
    grid = replace(GRID, dt=2.0**-9)
    base = np.round(blob_state().values * 1024.0) / 1024.0
    gradient = np.random.default_rng(5).integers(-8, 9, size=base.shape).astype(float)
    rows = [IDX[v] for v in TRANSPORTED]
    velocities = [IDX["v_x"], IDX["v_r"]]
    series = []
    for k in range(7):
        values = base.copy()
        values[rows] += (k * grid.dt) * gradient[rows]
        if k == 0:  # the window pair moves the velocities too; the baseline never applies that
            values[velocities] -= grid.dt * gradient[velocities]
        series.append(Snapshot(values, k * grid.dt))
    report = evaluate("constant-gradient", None, series, 1, 5, PART, grid, PARAMS)
    assert len(report.steps) == 5
    for rec in report.steps:
        for v in VARIABLES:
            assert rec.max_errors[v] == 0.0
            assert rec.mean_errors[v] == 0.0


def _retimed(series, index, time):
    return [*series[:index], Snapshot(series[index].values, time), *series[index + 1 :]]


# Each case turns the valid call's (mode, window 2, horizon 2, 5-snapshot series)
# into inputs that `evaluate` must refuse, and names the refusal.
BAD_INPUTS = {
    "unknown-mode": (lambda m, s: (f"{m}-step", 2, 2, s), "mode must be one of"),
    "window-0": (lambda m, s: (m, 0, 2, s), "window and horizon must be >= 1"),
    "horizon-0": (lambda m, s: (m, 2, 0, s), "window and horizon must be >= 1"),
    "short-series": (lambda m, s: (m, 2, 3, s), "series has 5 snapshots, window 2 and horizon 3 need 6"),
    "window-pair-gap": (lambda m, s: (m, 2, 2, _retimed(s, 1, 99.0)), "not one step apart"),
    "window-pair-nan-time": (lambda m, s: (m, 2, 2, _retimed(s, 1, np.nan)), "not one step apart"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("mode", MODES)
def test_evaluate_validates_mode_window_horizon_and_series(mode, case):
    series = simulate(blob_state(), GRID, PARAMS, 4)
    evaluate(mode, zero_bundle(), series, 2, 2, PART, GRID, PARAMS)  # the valid call runs
    alter, match = BAD_INPUTS[case]
    mode, window, horizon, series = alter(mode, series)
    with pytest.raises(DomainError, match=match):
        evaluate(mode, zero_bundle(), series, window, horizon, PART, GRID, PARAMS)


# ----- growth-shape fits -----


def test_growth_fit_prefers_the_generating_model():
    k = np.arange(1, 11, dtype=float)
    lin_rss, quad_rss = growth_fit_rss(3.0 + 2.0 * k)
    assert lin_rss < 1e-18
    assert quad_rss > lin_rss
    lin_rss, quad_rss = growth_fit_rss(1.0 + 0.5 * k**2)
    assert quad_rss < 1e-18
    assert lin_rss > quad_rss
    with pytest.raises(DomainError):
        growth_fit_rss([1.0, 2.0])


# ----- report container -----


def _record(step_no, value=0.1):
    errs = {v: value for v in VARIABLES}
    return StepRecord(step_no, errs, errs, 0.5, 1.0, 1.0)


def test_report_validates_mode_steps_and_signs():
    report = RolloutReport(mode="multi", steps=[_record(1), _record(2)])
    assert len(report.steps) == 2
    assert report.max_series("T") == [0.1, 0.1]
    assert report.final_max("T") == 0.1
    with pytest.raises(DomainError):
        RolloutReport(mode="teacher", steps=[])
    with pytest.raises(DomainError):
        RolloutReport(mode="multi", steps=[_record(2)])
    with pytest.raises(DomainError):
        RolloutReport(mode="multi", steps=[_record(1, value=-0.1)])


# ----- bundle construction and training -----


def test_bundle_validation_catches_mismatches():
    bundle = zero_bundle()
    with pytest.raises(DomainError):
        SurrogateBundle(
            networks={v: bundle.networks[v] for v in VARIABLES[:-1]},
            standardizer=bundle.standardizer,
            target_scales=bundle.target_scales,
        )
    with pytest.raises(DomainError):
        SurrogateBundle(
            networks=bundle.networks,
            standardizer=Standardizer(mean=np.zeros(6), std=np.ones(6)),
            target_scales=bundle.target_scales,
        )
    with pytest.raises(DomainError):
        SurrogateBundle(
            networks=bundle.networks,
            standardizer=bundle.standardizer,
            target_scales={v: (0.0, 0.0) for v in VARIABLES},
        )
    # The transported networks suffice, but every network held is checked.
    four = SurrogateBundle(
        networks={v: bundle.networks[v] for v in TRANSPORTED},
        standardizer=bundle.standardizer,
        target_scales={v: bundle.target_scales[v] for v in TRANSPORTED},
    )
    state = blob_state()
    assert np.array_equal(
        predict_step(four, state, PART, GRID, PARAMS).values,
        predict_step(bundle, state, PART, GRID, PARAMS).values,
    )
    with pytest.raises(DomainError, match="network for 'v_x' maps"):
        SurrogateBundle(
            networks={**bundle.networks, "v_x": init_network(NetworkSpec(6, (4,), 1), seed=0)},
            standardizer=bundle.standardizer,
            target_scales=bundle.target_scales,
        )
    with pytest.raises(DomainError, match=r"missing target scales for \['v_r'\]"):
        SurrogateBundle(
            networks=bundle.networks,
            standardizer=bundle.standardizer,
            target_scales={v: bundle.target_scales[v] for v in VARIABLES if v != "v_r"},
        )
    # The layout sets the width the standardizer and networks must have.
    with pytest.raises(DomainError, match="'center' inputs have width 6"):
        SurrogateBundle(
            networks=bundle.networks,
            standardizer=bundle.standardizer,
            target_scales=bundle.target_scales,
            layout=CellLayout(input_mode="center"),
        )


SMALL_SPEC = NetworkSpec(TIER_WIDTH, (8,), 1)
SMALL_CONFIG = TrainConfig(max_epochs=12, patience=12, batch_size=32)
SMALL_RECIPE = SurrogateRecipe(SMALL_SPEC, SMALL_CONFIG)


def test_train_bundle_is_seed_deterministic():
    truth = simulate(blob_state(), GRID, PARAMS, 3)
    ids = []
    for _ in range(2):
        bundle, reports = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=11)
        assert sorted(reports) == sorted(bundle.networks) == sorted(TRANSPORTED)
        ids.append({v: reports[v].param_snapshot_id for v in TRANSPORTED})
    assert ids[0] == ids[1]
    other, _ = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=12)
    bundle, _ = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=11)
    assert any(
        not np.array_equal(bundle.networks[v].weights[0], other.networks[v].weights[0])
        for v in TRANSPORTED
    )


def test_train_bundle_trains_the_same_networks_alone_or_with_the_velocities():
    # Each network draws its own seeds, so the velocity networks trained beside
    # the transported ones change nothing about them.
    truth = simulate(blob_state(), GRID, PARAMS, 3)
    four, four_reports = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=4)
    six, six_reports = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=4, variables=VARIABLES)
    assert sorted(six.networks) == sorted(six_reports) == sorted(VARIABLES)
    assert np.array_equal(four.standardizer.mean, six.standardizer.mean)
    assert np.array_equal(four.standardizer.std, six.standardizer.std)
    for v in TRANSPORTED:
        assert four.target_scales[v] == six.target_scales[v]
        assert four_reports[v] == six_reports[v]
        for a, b in zip(four.networks[v].weights + four.networks[v].biases,
                        six.networks[v].weights + six.networks[v].biases):
            assert np.array_equal(a, b)
    state = truth[1]
    assert np.array_equal(
        predict_step(four, state, PART, GRID, PARAMS).values,
        predict_step(six, state, PART, GRID, PARAMS).values,
    )


def test_train_bundle_warm_start_and_spec_checks():
    truth = simulate(blob_state(), GRID, PARAMS, 3)
    bundle, _ = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=1)
    warmed, reports = train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=2, warm_from=bundle)
    assert sorted(reports) == sorted(TRANSPORTED)
    assert all(reports[v].epochs_run >= 1 for v in TRANSPORTED)
    out = predict_step(warmed, truth[0], PART, GRID, PARAMS)
    assert np.isfinite(out.values).all()

    # A four-network bundle cannot warm-start the velocity networks.
    with pytest.raises(DomainError, match=r"missing networks for \['v_x', 'v_r'\]"):
        train_bundle(truth, GRID, PART, SMALL_RECIPE, seed=2, warm_from=bundle,
                     variables=VARIABLES)
    narrow = replace(SMALL_RECIPE, spec=NetworkSpec(TIER_WIDTH, (4,), 1))
    with pytest.raises(DomainError, match="matching specs"):
        train_bundle(truth, GRID, PART, narrow, seed=2, warm_from=bundle)
    walls = CellLayout(wall_values=(0.0,) * 6)
    for layout in (CellLayout(output_mode="absolute"), walls):
        with pytest.raises(DomainError, match="matching cell layout"):
            train_bundle(
                truth, GRID, PART, replace(SMALL_RECIPE, layout=layout), seed=2,
                warm_from=bundle,
            )

    # The recipe rejects a spec that does not fit its layout before any training.
    with pytest.raises(DomainError, match="6->1"):
        SurrogateRecipe(
            NetworkSpec(TIER_WIDTH, (8,), 1), SMALL_CONFIG, CellLayout(input_mode="center")
        )
    with pytest.raises(DomainError, match="30->1"):
        SurrogateRecipe(NetworkSpec(6, (8,), 1), SMALL_CONFIG)
    with pytest.raises(DomainError, match="30->1"):
        SurrogateRecipe(NetworkSpec(TIER_WIDTH, (8,), 2), SMALL_CONFIG)
    for fraction in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError, match="split_fraction"):
            SurrogateRecipe(SMALL_SPEC, SMALL_CONFIG, split_fraction=fraction)
    walled = SurrogateRecipe(SMALL_SPEC, SMALL_CONFIG, walls)
    assert replace(walled, split_fraction=0.5).layout == walls


def test_trained_bundle_beats_zero_bundle_on_one_step():
    # Even a briefly trained surrogate should track the solver better than
    # predicting "nothing changes".
    truth = simulate(blob_state(), GRID, PARAMS, 6)
    config = TrainConfig(max_epochs=200, patience=200, batch_size=32)
    bundle, _ = train_bundle(truth[:5], GRID, PART, SurrogateRecipe(SMALL_SPEC, config), seed=3)
    trained = evaluate("single", bundle, truth, 4, 1, PART, GRID, PARAMS)
    frozen = evaluate("single", zero_bundle(), truth, 4, 1, PART, GRID, PARAMS)
    assert trained.final_max("T") < frozen.final_max("T")
