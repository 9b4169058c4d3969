"""Dataset extraction tests: stencil layout, targets, standardizer, splits."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from oracles import center_input, derivative_target, flame_cells, tier_input

from fvmnet.cli import VARIANTS
from fvmnet.dataset import (
    TIER_WIDTH,
    CellLayout,
    DomainPartition,
    Standardizer,
    build_datasets,
    center_matrix,
    fit_standardizer,
    tier_matrix,
)
from fvmnet.errors import DomainError
from fvmnet.solver import IDX, N_VARS, TRANSPORTED, VARIABLES, GridSpec, Snapshot


def coded_snapshot(m, n, time=0.0, scale=1.0):
    # values[k, i, j] = scale * (1000 k + 10 i + j): every entry names its origin.
    k = np.arange(N_VARS)[:, None, None]
    i = np.arange(m)[None, :, None]
    j = np.arange(n)[None, None, :]
    return Snapshot(scale * (1000.0 * k + 10.0 * i + j), time)


def random_snapshot(rng, m, n, time=0.0):
    return Snapshot(rng.standard_normal((N_VARS, m, n)), time)


# ----- partition -----


def test_partition_bounds_and_validation():
    p = DomainPartition(m=96, m_star=16)
    assert p.inlet == (0, 16) and p.flame == (16, 80) and p.outlet == (80, 96)
    with pytest.raises(DomainError):
        DomainPartition(m=10, m_star=5)  # no middle band left
    with pytest.raises(DomainError):
        DomainPartition(m=10, m_star=0)


# ----- cell layout -----


def test_cell_layout_validation():
    with pytest.raises(DomainError, match="input_mode"):
        CellLayout(input_mode="stencil")
    with pytest.raises(DomainError, match="output_mode"):
        CellLayout(output_mode="next")
    with pytest.raises(DomainError, match="6 numbers, got 7"):
        CellLayout(wall_values=[0.0] * 7)
    with pytest.raises(DomainError, match="6 numbers, got 5"):
        CellLayout(wall_values=[0.0] * 5)
    walled = CellLayout(wall_values=np.arange(6))
    assert walled.wall_values == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert all(type(w) is float for w in walled.wall_values)
    assert walled == CellLayout(wall_values=[0, 1, 2, 3, 4, 5])
    # No wall values: the wall repeats the center.
    assert CellLayout().wall_values is None
    assert walled != CellLayout()
    assert CellLayout().width == TIER_WIDTH
    assert CellLayout(input_mode="center").width == N_VARS


# ----- tier stencil -----


def test_tier_input_layout_interior_cell():
    snap = coded_snapshot(8, 5)
    part = DomainPartition(m=8, m_star=2)
    vec = tier_input(snap, 4, 2, part)
    assert vec.shape == (TIER_WIDTH,)
    for k in range(N_VARS):
        base = 1000.0 * k + 40.0 + 2.0
        np.testing.assert_array_equal(
            vec[5 * k : 5 * k + 5],
            [base, base - 10.0, base + 10.0, base - 1.0, base + 1.0],
        )


def test_tier_axis_rule_repeats_center():
    snap = coded_snapshot(8, 5)
    part = DomainPartition(m=8, m_star=2)
    vec = tier_input(snap, 3, 0, part)
    for k in range(N_VARS):
        center, jm1 = vec[5 * k], vec[5 * k + 3]
        assert jm1 == center


def test_tier_wall_rules():
    snap = coded_snapshot(8, 5)
    part = DomainPartition(m=8, m_star=2)
    # Zero-gradient reading repeats the center in the j+1 slot.
    vec = tier_input(snap, 3, 4, part)
    for k in range(N_VARS):
        assert vec[5 * k + 4] == vec[5 * k]
    # Given wall values substitute the per-variable wall vector instead:
    # temperature gets the wall temperature, everything else zero.
    wall = np.zeros(N_VARS)
    wall[IDX["T"]] = 300.0
    vec = tier_input(snap, 3, 4, part, wall_values=wall)
    kt = IDX["T"]
    center = snap.values[kt, 3, 4]
    np.testing.assert_array_equal(
        vec[5 * kt : 5 * kt + 5],
        [center, center - 10.0, center + 10.0, center - 1.0, 300.0],
    )
    for k in range(N_VARS):
        if k != kt:
            assert vec[5 * k + 4] == 0.0


def test_tier_band_edges_read_into_strips():
    snap = coded_snapshot(8, 5)
    part = DomainPartition(m=8, m_star=2)
    vec = tier_input(snap, 2, 1, part)  # first band column
    assert vec[1] == snap.values[0, 1, 1]  # i-1 lives in the inlet strip
    vec = tier_input(snap, 5, 1, part)  # last band column
    assert vec[2] == snap.values[0, 6, 1]  # i+1 lives in the outlet strip


def test_tier_rejects_cells_outside_band_and_bad_args():
    snap = coded_snapshot(8, 5)
    part = DomainPartition(m=8, m_star=2)
    with pytest.raises(DomainError):
        tier_input(snap, 1, 2, part)
    with pytest.raises(DomainError):
        tier_input(snap, 6, 2, part)
    with pytest.raises(DomainError):
        tier_input(snap, 3, 5, part)
    with pytest.raises(DomainError):
        tier_input(snap, 3, 2, part, wall_values=[0.0] * 5)  # one value short
    with pytest.raises(DomainError):
        tier_input(snap, 3, 2, DomainPartition(m=9, m_star=2))


def variant_layouts(input_mode, wall):
    """Layouts of every ablation variant reading `input_mode`, without and with wall values."""
    for name, (inputs, outputs) in VARIANTS.items():
        if inputs != input_mode:
            continue
        for values in (None, wall):
            yield name, CellLayout(inputs, outputs, values)


def test_tier_matrix_agrees_with_scalar_extraction():
    rng = np.random.default_rng(21)
    snap = random_snapshot(rng, 12, 6)
    part = DomainPartition(m=12, m_star=3)
    wall = rng.standard_normal(N_VARS)
    cells = flame_cells(part, 6)
    names = set()
    for name, layout in variant_layouts("tier", wall):
        names.add(name)
        mat = layout.inputs(snap, part)
        assert mat.shape == (cells.shape[0], TIER_WIDTH) == (cells.shape[0], layout.width)
        assert mat.tobytes() == tier_matrix(snap, part, layout.wall_values).tobytes()
        for row in range(0, cells.shape[0], 7):
            i, j = cells[row]
            np.testing.assert_array_equal(
                mat[row],
                tier_input(snap, int(i), int(j), part, layout.wall_values),
            )
    assert names == {"fvmn", "tier-only"}


def test_center_matrix_agrees_with_scalar_extraction():
    rng = np.random.default_rng(22)
    snap = random_snapshot(rng, 10, 4)
    part = DomainPartition(m=10, m_star=2)
    cells = flame_cells(part, 4)
    names = set()
    for name, layout in variant_layouts("center", rng.standard_normal(N_VARS)):
        names.add(name)
        mat = layout.inputs(snap, part)
        assert mat.shape == (cells.shape[0], N_VARS) == (cells.shape[0], layout.width)
        assert mat.tobytes() == center_matrix(snap, part).tobytes()
        for row in (0, 5, 11, cells.shape[0] - 1):
            i, j = cells[row]
            np.testing.assert_array_equal(mat[row], center_input(snap, int(i), int(j), part))
    assert names == {"derivative-only", "general"}


# ----- targets -----


def test_derivative_target_frozen_example():
    vals = np.zeros((N_VARS, 6, 3))
    a = Snapshot(vals.copy(), 0.0)
    b = Snapshot(vals.copy(), 0.1)
    a.values[IDX["T"], 3, 1] = 5.0
    b.values[IDX["T"], 3, 1] = 5.3
    got = derivative_target(a, b, 3, 1, "T", dt=0.1)
    assert got == pytest.approx(3.0, rel=1e-12)


def test_derivative_then_euler_advance_recovers_next_value():
    rng = np.random.default_rng(4)
    a = random_snapshot(rng, 9, 4, time=2.0)
    b = random_snapshot(rng, 9, 4, time=2.0 + 5e-4)
    dt = 5e-4
    for variable in ("T", "X_fuel", "v_r"):
        z = derivative_target(a, b, 4, 2, variable, dt)
        advanced = a.values[IDX[variable], 4, 2] + dt * z
        assert advanced == pytest.approx(b.values[IDX[variable], 4, 2], rel=1e-12)


def test_target_pair_consistency_checks():
    a = Snapshot(np.zeros((N_VARS, 6, 3)), 0.0)
    b = Snapshot(np.zeros((N_VARS, 6, 3)), 0.002)
    with pytest.raises(DomainError):
        derivative_target(a, b, 3, 1, "T", dt=0.001)  # gap is 2 dt
    c = Snapshot(np.zeros((N_VARS, 7, 3)), 0.001)
    with pytest.raises(DomainError):
        derivative_target(a, c, 3, 1, "T", dt=0.001)  # shapes differ
    with pytest.raises(DomainError):
        derivative_target(a, b, 3, 1, "enthalpy", dt=0.002)


def test_target_matrix_modes():
    rng = np.random.default_rng(8)
    a = random_snapshot(rng, 10, 4, time=0.0)
    b = random_snapshot(rng, 10, 4, time=0.001)
    part = DomainPartition(m=10, m_star=2)
    deriv = CellLayout(output_mode="derivative").targets(a, b, part, 0.001)
    absol = CellLayout(output_mode="absolute").targets(a, b, part, 0.001)
    cells = flame_cells(part, 4)
    row = 9
    i, j = (int(c) for c in cells[row])
    assert deriv[row, IDX["T"]] == pytest.approx(
        (b.values[IDX["T"], i, j] - a.values[IDX["T"], i, j]) / 0.001, rel=1e-12
    )
    assert absol[row, IDX["X_ox"]] == b.values[IDX["X_ox"], i, j]
    # Targets come from consecutive pairs only.
    with pytest.raises(DomainError, match="gap 0.001, dt 0.002"):
        CellLayout().targets(a, b, part, 0.002)


@pytest.mark.parametrize("input_mode", ["tier", "center"])
@pytest.mark.parametrize("output_mode", ["absolute", "derivative"])
def test_next_band_inverts_targets(input_mode, output_mode):
    rng = np.random.default_rng(9)
    dt = 0.001
    # Values in [1, 2] keep the derivative round trip's relative error near eps.
    a = Snapshot(rng.uniform(1.0, 2.0, (N_VARS, 11, 3)), 0.0)
    b = Snapshot(rng.uniform(1.0, 2.0, (N_VARS, 11, 3)), dt)
    part = DomainPartition(m=11, m_star=3)
    layout = CellLayout(input_mode=input_mode, output_mode=output_mode)
    rows = [IDX[v] for v in TRANSPORTED]
    band = layout.next_band(a, layout.targets(a, b, part, dt)[:, rows], part, dt)
    expected = b.values[rows, 3:8, :]
    assert band.shape == expected.shape
    if output_mode == "absolute":
        assert np.array_equal(band, expected)
    else:
        np.testing.assert_allclose(band, expected, rtol=1e-12, atol=0.0)


# ----- standardizer -----


def test_fit_matches_longhand_population_statistics():
    rows = np.array([[1.0, 10.0], [2.0, 10.0], [4.0, 10.0], [5.0, 10.0]])
    s = fit_standardizer(rows)
    mu0 = (1 + 2 + 4 + 5) / 4.0
    var0 = sum((x - mu0) ** 2 for x in (1, 2, 4, 5)) / 4.0
    assert s.mean[0] == pytest.approx(mu0, rel=1e-15)
    assert s.std[0] == pytest.approx(math.sqrt(var0), rel=1e-15)
    # Constant feature gets the floor, scaled by its mean magnitude.
    assert s.mean[1] == 10.0
    assert s.std[1] == 1e-12 * 10.0


def test_apply_invert_round_trip_including_constant_features():
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((50, 7)) * np.array([1, 10, 100, 1e-6, 1, 1, 1])
    rows[:, 5] = 3.25  # constant
    rows[:, 6] = 0.0  # constant at zero
    s = fit_standardizer(rows)
    back = s.apply(rows) * s.std + s.mean
    np.testing.assert_allclose(back, rows, rtol=1e-12, atol=1e-12)
    z = s.apply(rows)
    np.testing.assert_allclose(z[:, :5].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z[:, :5].std(axis=0), 1.0, rtol=1e-12)


def test_standardizer_width_and_serialization():
    s = fit_standardizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(DomainError):
        s.apply(np.zeros((4, 3)))
    clone = Standardizer(**asdict(s))
    np.testing.assert_array_equal(clone.mean, s.mean)
    np.testing.assert_array_equal(clone.std, s.std)


# ----- dataset assembly -----


def series_fixture(pairs=1, m=12, n=5, dt=0.001, seed=30):
    rng = np.random.default_rng(seed)
    return [random_snapshot(rng, m, n, time=k * dt) for k in range(pairs + 1)], GridSpec(
        m=m, n=n, dx=0.01, dr=0.01, dt=dt
    )


def test_sample_count_matches_band_times_pairs():
    series, grid = series_fixture(pairs=3, m=12, n=5)
    part = DomainPartition(m=12, m_star=3)
    ds = build_datasets(series, grid, part, seed=1)
    n_total = ds.train_inputs.shape[0] + ds.val_inputs.shape[0]
    assert n_total == 3 * (part.m - 2 * part.m_star) * 5


def test_desk_scale_sample_count():
    series, grid = series_fixture(pairs=1, m=96, n=24)
    part = DomainPartition(m=96, m_star=16)
    ds = build_datasets(series, grid, part, seed=1)
    assert ds.train_inputs.shape[0] + ds.val_inputs.shape[0] == 1536
    assert ds.train_inputs.shape == (round(0.8 * 1536), 30)
    assert ds.val_inputs.shape[0] == 1536 - round(0.8 * 1536)


def test_split_preserves_the_sample_multiset():
    series, grid = series_fixture(pairs=2, m=10, n=4)
    part = DomainPartition(m=10, m_star=2)
    ds = build_datasets(series, grid, part, seed=7)
    joined = np.concatenate(
        [
            np.column_stack([ds.train_inputs, ds.train_targets]),
            np.column_stack([ds.val_inputs, ds.val_targets]),
        ]
    )
    layout = CellLayout()
    raw_inputs = np.concatenate([layout.inputs(s, part) for s in series[:-1]], axis=0)
    raw_targets = np.concatenate(
        [layout.targets(a, b, part, grid.dt) for a, b in zip(series[:-1], series[1:])]
    )
    raw = np.column_stack([raw_inputs, raw_targets])
    key = lambda m: m[np.lexsort(m.T[::-1])]
    np.testing.assert_array_equal(key(joined), key(raw))


def test_split_is_seed_deterministic_and_seed_sensitive():
    series, grid = series_fixture(pairs=1, m=12, n=5)
    part = DomainPartition(m=12, m_star=3)
    a = build_datasets(series, grid, part, seed=3)
    b = build_datasets(series, grid, part, seed=3)
    c = build_datasets(series, grid, part, seed=4)
    np.testing.assert_array_equal(a.train_inputs, b.train_inputs)
    np.testing.assert_array_equal(a.train_targets, b.train_targets)
    assert not np.array_equal(a.train_inputs, c.train_inputs)


def test_variables_share_inputs_and_shuffle():
    series, grid = series_fixture(pairs=1, m=12, n=5)
    part = DomainPartition(m=12, m_star=3)
    ds = build_datasets(series, grid, part, seed=5)
    # One row of inputs per sample, with one target column per variable.
    assert ds.train_targets.shape == (ds.train_inputs.shape[0], N_VARS)
    assert ds.val_targets.shape == (ds.val_inputs.shape[0], N_VARS)
    assert not np.array_equal(ds.train_targets[:, IDX["T"]], ds.train_targets[:, IDX["X_ox"]])


def test_center_mode_and_absolute_mode():
    series, grid = series_fixture(pairs=1, m=12, n=5)
    part = DomainPartition(m=12, m_star=3)
    ds = build_datasets(series, grid, part, CellLayout("center", "absolute"), seed=2)
    assert ds.train_inputs.shape[1] == N_VARS
    # Absolute targets are next-step values; all train targets must appear in
    # the next snapshot's temperature plane.
    assert set(np.round(ds.train_targets[:, IDX["T"]], 12)).issubset(
        set(np.round(series[1].values[IDX["T"]].ravel(), 12))
    )


def test_dataset_input_validation():
    series, grid = series_fixture(pairs=1, m=12, n=5)
    part = DomainPartition(m=12, m_star=3)
    with pytest.raises(DomainError, match=">= 2 snapshots"):
        build_datasets(series[:1], grid, part)
    with pytest.raises(DomainError, match="split_fraction"):
        build_datasets(series, grid, part, split_fraction=1.0)
    with pytest.raises(DomainError, match="empty side"):
        build_datasets(series, grid, part, split_fraction=1e-4)
    with pytest.raises(DomainError, match="not one step apart"):
        build_datasets(series, replace(grid, dt=2 * grid.dt), part)
