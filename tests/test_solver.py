"""Reference-solver tests against independently coded oracles.

The oracles below are written in different algebraic forms than the solver's
flux kernel (donor-cell differences, mirror-ghost second differences, explicit
radius-weighted radial stencil, brute-force residual loops) so agreement is a
real cross-check, not a reimplementation echo.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_advance_slab, volume_weighted_total

from fvmnet.config import default_tree, resolve_config
from fvmnet.errors import BlowupError, DomainError, StabilityError
from fvmnet.solver import (
    CFL_LIMIT,
    DIFFUSION_LIMIT,
    IDX,
    TRANSPORTED,
    VARIABLES,
    GridSpec,
    PhysicalParams,
    Snapshot,
    continuity_residual,
    face_fluxes,
    finish_columns,
    ideal_gas_density,
    reaction_rate,
    simulate,
    step,
    step_columns,
)

D0 = {"T": 0.0, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0}


def make_snapshot(m, n, vx=0.0, vr=0.0, temperature=300.0, fuel=0.0, prod=0.0, ox=0.0):
    vals = np.zeros((6, m, n))
    vals[IDX["v_x"]] = vx
    vals[IDX["v_r"]] = vr
    vals[IDX["T"]] = temperature
    vals[IDX["X_fuel"]] = fuel
    vals[IDX["X_prod"]] = prod
    vals[IDX["X_ox"]] = ox
    return Snapshot(vals, 0.0)


# ----- independent 1D oracles -----


def donor_cell_advect(phi, courant):
    """Classic donor-cell update for constant positive velocity, held inlet."""
    out = phi.copy()
    for i in range(1, phi.size):
        out[i] = phi[i] - courant * (phi[i] - phi[i - 1])
    return out


def mirror_ghost_diffuse(phi, alpha):
    """Explicit 1D heat update with zero-flux (mirror ghost) ends."""
    padded = np.concatenate([[phi[0]], phi, [phi[-1]]])
    return phi + alpha * (padded[2:] - 2.0 * phi + padded[:-2])


def radial_diffuse(phi, d, dr, dt):
    """Axisymmetric radial diffusion, radius-weighted face form, sealed ends."""
    n = phi.size
    out = phi.copy()
    for j in range(n):
        r_c = (j + 0.5) * dr
        r_out = (j + 1) * dr
        r_in = j * dr
        f_out = r_out * (phi[j + 1] - phi[j]) / dr if j < n - 1 else 0.0
        f_in = r_in * (phi[j] - phi[j - 1]) / dr if j > 0 else 0.0
        out[j] = phi[j] + dt * d * (f_out - f_in) / (r_c * dr)
    return out


def test_pure_advection_matches_donor_cell_oracle():
    # Step profile advected axially; radially uniform so the 2D update is 1D.
    grid = GridSpec(m=24, n=3, dx=0.01, dr=0.01, dt=0.004)
    params = PhysicalParams(diffusivity=D0)
    profile = np.where(np.arange(24) < 8, 2.0, 0.5)
    snap = make_snapshot(24, 3, vx=1.0, temperature=0.0)
    snap.values[IDX["T"]] = profile[:, None]

    expected = donor_cell_advect(profile, courant=1.0 * 0.004 / 0.01)
    after = step(snap, grid, params)
    got = after.var("T")
    for j in range(3):
        np.testing.assert_allclose(got[:, j], expected, rtol=1e-12, atol=0.0)
    assert after.time == pytest.approx(0.004)


def test_axial_diffusion_matches_mirror_ghost_oracle():
    # Zero velocity, closed box: flux form must agree with the second
    # difference form to rounding.
    grid = GridSpec(m=30, n=3, dx=0.02, dr=0.02, dt=0.3)
    d = 1.5e-4
    params = PhysicalParams(
        diffusivity={"T": d, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0},
        axial_bc="closed",
    )
    rng = np.random.default_rng(7)
    profile = 300.0 + 40.0 * rng.random(30)
    snap = make_snapshot(30, 3)
    snap.values[IDX["T"]] = profile[:, None]

    expected = mirror_ghost_diffuse(profile, alpha=d * 0.3 / 0.02**2)
    got = step(snap, grid, params).var("T")
    for j in range(3):
        np.testing.assert_allclose(got[:, j], expected, rtol=1e-12)


def test_radial_diffusion_matches_radius_weighted_oracle():
    # Axially uniform column; only the axisymmetric radial stencil acts.
    grid = GridSpec(m=3, n=16, dx=0.01, dr=0.005, dt=0.02)
    d = 2.0e-4
    params = PhysicalParams(
        diffusivity={"T": d, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0},
        axial_bc="closed",
    )
    rng = np.random.default_rng(11)
    profile = 350.0 + 25.0 * rng.random(16)
    snap = make_snapshot(3, 16)
    snap.values[IDX["T"]] = profile[None, :]

    expected = radial_diffuse(profile, d, dr=0.005, dt=0.02)
    got = step(snap, grid, params).var("T")
    for i in range(3):
        np.testing.assert_allclose(got[i, :], expected, rtol=1e-12)


def test_upwind_direction_follows_face_velocity_sign():
    # Negative velocity must pull values from the right neighbor.
    grid = GridSpec(m=12, n=2, dx=0.01, dr=0.01, dt=0.004)
    params = PhysicalParams(diffusivity=D0, axial_bc="closed")
    profile = np.linspace(1.0, 2.0, 12)
    snap = make_snapshot(12, 2, vx=-1.0)
    snap.values[IDX["T"]] = profile[:, None]

    got = step(snap, grid, params).var("T")[:, 0]
    c = 1.0 * 0.004 / 0.01
    # Interior donor cell against the wind: phi_i + c (phi_{i+1} - phi_i).
    expected_interior = profile[1:-1] + c * (profile[2:] - profile[1:-1])
    np.testing.assert_allclose(got[1:-1], expected_interior, rtol=1e-12)


# ----- conservation -----


def closed_box_params(d=5e-5):
    return PhysicalParams(
        diffusivity={"T": d, "X_fuel": d / 2, "X_prod": d / 2, "X_ox": d / 2},
        axial_bc="closed",
        wall_temperature=None,
    )


def test_single_step_diffusion_conserves_total():
    grid = GridSpec(m=20, n=10, dx=0.001, dr=0.001, dt=0.001)
    params = closed_box_params()
    rng = np.random.default_rng(3)
    snap = make_snapshot(20, 10, temperature=0.0)
    snap.values[IDX["T"]] = 300.0 + 50.0 * rng.random((20, 10))
    snap.values[IDX["X_fuel"]] = 0.3 * rng.random((20, 10))

    before_t = volume_weighted_total(snap, grid, "T")
    before_f = volume_weighted_total(snap, grid, "X_fuel")
    after = step(snap, grid, params)
    assert volume_weighted_total(after, grid, "T") == pytest.approx(before_t, rel=1e-12)
    assert volume_weighted_total(after, grid, "X_fuel") == pytest.approx(before_f, rel=1e-12)


def test_hundred_step_diffusion_conservation():
    grid = GridSpec(m=24, n=12, dx=0.001, dr=0.001, dt=0.001)
    params = closed_box_params(d=4e-5)
    rng = np.random.default_rng(5)
    snap = make_snapshot(24, 12, temperature=0.0)
    snap.values[IDX["T"]] = 300.0 + 80.0 * rng.random((24, 12))
    snap.values[IDX["X_ox"]] = 0.1 + 0.05 * rng.random((24, 12))

    totals0 = {v: volume_weighted_total(snap, grid, v) for v in ("T", "X_ox")}
    final = simulate(snap, grid, params, steps=100)[-1]
    for name, t0 in totals0.items():
        drift = abs(volume_weighted_total(final, grid, name) - t0) / abs(t0)
        assert drift < 1e-10


def test_advective_fluxes_telescope_exactly():
    # A compressive axial field moves scalar around a closed box; until the
    # species clamp engages, the flux form must conserve to rounding.
    grid = GridSpec(m=24, n=12, dx=0.001, dr=0.001, dt=0.001)
    params = closed_box_params(d=4e-5)
    rng = np.random.default_rng(5)
    snap = make_snapshot(24, 12, temperature=0.0)
    snap.values[IDX["v_x"]] = 0.2 * np.sin(np.linspace(0, 3, 24))[:, None]
    snap.values[IDX["T"]] = 300.0 + 80.0 * rng.random((24, 12))
    snap.values[IDX["X_ox"]] = 0.1 + 0.05 * rng.random((24, 12))

    totals0 = {v: volume_weighted_total(snap, grid, v) for v in ("T", "X_ox")}
    final = simulate(snap, grid, params, steps=40)[-1]
    assert float(final.var("X_ox").max()) < 1.0  # clamp never engaged
    for name, t0 in totals0.items():
        drift = abs(volume_weighted_total(final, grid, name) - t0) / abs(t0)
        assert drift < 1e-12


# ----- reaction source -----


ARR = dict(arrhenius_a=6000.0, arrhenius_b=0.0, activation_energy=49884.0, gas_constant=8.314)


def test_reaction_rate_formula_and_edge_cases():
    params = PhysicalParams(diffusivity=D0, **ARR)
    t, f, o = 900.0, 0.08, 0.2
    expected = 6000.0 * math.exp(-49884.0 / (8.314 * 900.0)) * f * o
    assert reaction_rate(t, f, o, params) == pytest.approx(expected, rel=1e-15)
    assert reaction_rate(t, 0.0, o, params) == 0.0
    assert reaction_rate(t, f, 0.0, params) == 0.0
    # Rate grows steeply with temperature.
    assert reaction_rate(1200.0, f, o, params) > 50.0 * reaction_rate(600.0, f, o, params)


def test_step_applies_source_with_unit_stoichiometry():
    grid = GridSpec(m=4, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0, heat_release=9000.0, axial_bc="closed", **ARR)
    snap = make_snapshot(4, 3, temperature=1000.0, fuel=0.05, ox=0.2, prod=0.01)

    rate = float(reaction_rate(1000.0, 0.05, 0.2, params))
    after = step(snap, grid, params)
    dt = 0.001
    assert after.var("X_fuel")[2, 1] == pytest.approx(0.05 - dt * rate, rel=1e-14)
    assert after.var("X_ox")[2, 1] == pytest.approx(0.2 - dt * rate, rel=1e-14)
    assert after.var("X_prod")[2, 1] == pytest.approx(0.01 + dt * rate, rel=1e-14)
    assert after.var("T")[2, 1] == pytest.approx(1000.0 + 9000.0 * dt * rate, rel=1e-14)


def test_source_uses_time_t_values_not_partial_updates():
    # Jacobi update: rate must come from the pre-step state even when the
    # step also changes T and the species.
    grid = GridSpec(m=4, n=3, dx=0.01, dr=0.01, dt=0.002)
    params = PhysicalParams(diffusivity=D0, heat_release=5000.0, axial_bc="closed", **ARR)
    snap = make_snapshot(4, 3, temperature=1100.0, fuel=0.06, ox=0.15)
    rate0 = float(reaction_rate(1100.0, 0.06, 0.15, params))
    after = step(snap, grid, params)
    # Uniform fields, closed box: transport is a no-op, only the source acts.
    np.testing.assert_allclose(after.var("X_fuel"), 0.06 - 0.002 * rate0, rtol=1e-14)


def test_overconsuming_reaction_is_clamped_to_zero():
    grid = GridSpec(m=4, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(
        diffusivity=D0,
        arrhenius_a=1e9,
        arrhenius_b=0.0,
        activation_energy=0.0,
        heat_release=0.0,
        axial_bc="closed",
    )
    snap = make_snapshot(4, 3, temperature=400.0, fuel=1e-4, ox=0.5)
    after = step(snap, grid, params)
    assert float(after.var("X_fuel").min()) == 0.0
    assert float(after.var("X_ox").min()) >= 0.0


# ----- boundary behavior -----


def test_inlet_column_is_held_and_outlet_follows_zero_gradient():
    grid = GridSpec(m=16, n=3, dx=0.01, dr=0.01, dt=0.004)
    params = PhysicalParams(diffusivity=D0)
    profile = np.linspace(2.0, 1.0, 16)
    snap = make_snapshot(16, 3, vx=1.0)
    snap.values[IDX["T"]] = profile[:, None]

    after = step(snap, grid, params)
    np.testing.assert_array_equal(after.var("T")[0], snap.var("T")[0])
    # Outlet cell: outgoing donor-cell flux only, ghost equals the cell.
    c = 0.004 * 1.0 / 0.01
    assert after.var("T")[15, 0] == pytest.approx(
        profile[15] - c * (profile[15] - profile[14]), rel=1e-12
    )


def test_wall_dirichlet_cools_only_the_outer_ring():
    grid = GridSpec(m=4, n=6, dx=0.01, dr=0.01, dt=0.05)
    d = 2e-4
    params = PhysicalParams(
        diffusivity={"T": d, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0},
        wall_temperature=300.0,
        axial_bc="closed",
    )
    snap = make_snapshot(4, 6, temperature=400.0)
    after = step(snap, grid, params)
    t = after.var("T")
    # Uniform interior: only the wall ring feels the colder wall face.
    np.testing.assert_allclose(t[:, :-1], 400.0, rtol=0, atol=1e-12)
    assert np.all(t[:, -1] < 400.0)
    # Hand value: dT = -dt * D * (Tc - Twall) / (0.5 dr) * A_n / V.
    r_out = 6 * 0.01
    r_c = 5.5 * 0.01
    expected = 400.0 - 0.05 * d * (400.0 - 300.0) / (0.005) * r_out / (r_c * 0.01)
    assert t[1, -1] == pytest.approx(expected, rel=1e-12)


def test_wall_at_wall_temperature_is_inert():
    grid = GridSpec(m=4, n=6, dx=0.01, dr=0.01, dt=0.05)
    params = PhysicalParams(
        diffusivity={"T": 2e-4, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0},
        wall_temperature=400.0,
        axial_bc="closed",
    )
    snap = make_snapshot(4, 6, temperature=400.0)
    after = step(snap, grid, params)
    np.testing.assert_allclose(after.var("T"), 400.0, rtol=0, atol=1e-12)


def test_velocity_planes_pass_through_bit_exact():
    grid = GridSpec(m=10, n=4, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    rng = np.random.default_rng(2)
    snap = make_snapshot(10, 4, temperature=300.0)
    snap.values[IDX["v_x"]] = rng.random((10, 4))
    snap.values[IDX["v_r"]] = 0.1 * rng.random((10, 4))
    after = step(snap, grid, params)
    assert np.array_equal(after.var("v_x"), snap.var("v_x"))
    assert np.array_equal(after.var("v_r"), snap.var("v_r"))


# ----- restricted column stepping -----


def test_step_columns_matches_full_step_on_those_columns():
    grid = GridSpec(m=32, n=8, dx=0.001, dr=0.001, dt=0.001)
    params = PhysicalParams(
        diffusivity={"T": 5e-5, "X_fuel": 2e-5, "X_prod": 2e-5, "X_ox": 2e-5},
        wall_temperature=310.0,
        heat_release=4000.0,
        **ARR,
    )
    rng = np.random.default_rng(9)
    snap = make_snapshot(32, 8)
    snap.values[IDX["v_x"]] = 0.3 * (1.0 - (np.arange(8) / 8.0) ** 2)[None, :]
    snap.values[IDX["v_r"]] = 0.02 * rng.random((32, 8))
    snap.values[IDX["T"]] = 300.0 + 700.0 * rng.random((32, 8))
    snap.values[IDX["X_fuel"]] = 0.1 * rng.random((32, 8))
    snap.values[IDX["X_ox"]] = 0.2 * rng.random((32, 8))

    full = step(snap, grid, params)
    slabs = [(0, 6), (26, 32)]
    part = step_columns(snap, grid, params, slabs)
    for lo, hi in slabs:
        assert np.array_equal(part.values[:, lo:hi, :], full.values[:, lo:hi, :])
    # Untouched columns pass through.
    assert np.array_equal(part.values[:, 6:26, :], snap.values[:, 6:26, :])
    assert part.time == full.time


def test_step_columns_rejects_bad_slabs():
    grid = GridSpec(m=8, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    snap = make_snapshot(8, 3)
    with pytest.raises(DomainError):
        step_columns(snap, grid, params, [(4, 2)])
    with pytest.raises(DomainError):
        step_columns(snap, grid, params, [(0, 9)])


# ----- the whole-array kernel against the per-cell loop -----


DESK = resolve_config(default_tree())


def oracle_step_columns(state, grid, params, columns):
    """The per-cell loop, slab by slab, then the same step contract."""
    out = state.values.copy()
    for lo, hi in columns:
        loop_advance_slab(state.values, out, grid, params, lo, hi)
    finish_columns(out, grid, columns, state.time + grid.dt)
    return out


def outcome(advance):
    """The new values, or the refusal's variable, cell and message."""
    try:
        return advance()
    except BlowupError as err:
        return (err.variable, err.cell, str(err))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    axial_bc=st.sampled_from(["inflow_outflow", "closed"]),
    wall_temperature=st.sampled_from([300.0, None]),
    reacting=st.booleans(),
    cfl=st.floats(0.0, CFL_LIMIT),
    dnum=st.floats(0.0, DIFFUSION_LIMIT),
)
def test_whole_array_kernel_matches_the_cell_loop_bit_for_bit(
    seed, axial_bc, wall_temperature, reacting, cfl, dnum
):
    grid, part = DESK.grid, DESK.partition
    m, n = grid.m, grid.n
    d_max = dnum / (grid.dt * (1.0 / grid.dx**2 + 1.0 / grid.dr**2))
    rng = np.random.default_rng(seed)
    params = replace(
        DESK.params,
        diffusivity={name: d_max * rng.random() for name in TRANSPORTED},
        axial_bc=axial_bc,
        wall_temperature=wall_temperature,
        arrhenius_a=DESK.params.arrhenius_a if reacting else 0.0,
    )
    vals = np.empty((len(VARIABLES), m, n))
    # Mixed-sign velocities, each component inside the advective CFL limit.
    vals[IDX["v_x"]] = cfl * grid.dx / grid.dt * rng.uniform(-1.0, 1.0, (m, n))
    vals[IDX["v_r"]] = cfl * grid.dr / grid.dt * rng.uniform(-1.0, 1.0, (m, n))
    vals[IDX["T"]] = rng.uniform(300.0, 2500.0, (m, n))
    vals[IDX["X_fuel"] :] = rng.uniform(0.0, 0.3, (3, m, n))
    state = Snapshot(vals, 0.0)

    slab_sets = [
        [(0, 1)],
        [(m - 1, m)],
        [part.inlet, part.outlet],
        [(2, 40), (30, 70), (69, m)],  # overlapping slabs
        [(0, m)],
    ]
    for columns in slab_sets:
        got = outcome(lambda: step_columns(state, grid, params, columns).values)
        want = outcome(lambda: oracle_step_columns(state, grid, params, columns))
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got == want
        else:
            assert np.array_equal(got, want)

    # The axis face and a closed inlet face are the zeros the one-cell shifts
    # bring in; the ring-0 and column-0 updates above pin them to the loop's
    # explicit zero fluxes. The returned end and wall faces are checked here.
    east, north = face_fluxes(vals, grid, params)
    if axial_bc == "closed":
        assert not np.any(east[:, m - 1])  # sealed outlet end
    wall = north[:, :, n - 1]
    assert not np.any(wall[1:])  # no species crosses the wall
    if wall_temperature is None:
        assert not np.any(wall)  # adiabatic wall


# ----- guards -----


def test_cfl_violation_raises_with_numbers():
    grid = GridSpec(m=8, n=3, dx=0.01, dr=0.01, dt=0.01)
    params = PhysicalParams(diffusivity=D0)
    snap = make_snapshot(8, 3, vx=1.0)  # CFL = 1.0
    with pytest.raises(StabilityError) as err:
        step(snap, grid, params)
    assert err.value.cfl == pytest.approx(1.0)
    assert "0.5" in str(err.value)


def test_diffusion_number_violation_raises():
    grid = GridSpec(m=8, n=3, dx=0.001, dr=0.001, dt=0.001)
    params = PhysicalParams(
        diffusivity={"T": 2e-4, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0}
    )
    snap = make_snapshot(8, 3)
    with pytest.raises(StabilityError) as err:
        step(snap, grid, params)
    assert err.value.diffusion_number == pytest.approx(2e-4 * 0.001 * 2e6)
    assert "0.25" in str(err.value)


def test_non_finite_result_names_first_bad_cell():
    grid = GridSpec(m=8, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(
        diffusivity={"T": 1e-5, "X_fuel": 0.0, "X_prod": 0.0, "X_ox": 0.0},
        axial_bc="closed",
    )
    snap = make_snapshot(8, 3, temperature=300.0)
    snap.values[IDX["T"]][4, 1] = np.nan
    with pytest.raises(BlowupError) as err:
        step(snap, grid, params)
    assert err.value.variable == "T"
    assert err.value.cell[0] in (3, 4, 5)  # diffusion spreads the NaN to neighbors


def test_shape_mismatch_rejected():
    grid = GridSpec(m=8, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    snap = make_snapshot(9, 3)
    with pytest.raises(DomainError):
        step(snap, grid, params)


def test_grid_and_param_validation():
    with pytest.raises(DomainError):
        GridSpec(m=2, n=3, dx=0.01, dr=0.01, dt=0.001)
    with pytest.raises(DomainError):
        GridSpec(m=8, n=3, dx=-0.01, dr=0.01, dt=0.001)
    for m in ("96", 96.0):
        with pytest.raises(DomainError, match="integer"):
            GridSpec(m=m, n=3, dx=0.01, dr=0.01, dt=0.001)
    assert type(GridSpec(m=np.int64(8), n=3, dx=0.01, dr=0.01, dt=0.001).m) is int
    with pytest.raises(DomainError):
        PhysicalParams(diffusivity={"T": 1e-5})  # missing species entries
    with pytest.raises(DomainError):
        PhysicalParams(diffusivity=D0, axial_bc="periodic")


def test_step_is_deterministic():
    grid = GridSpec(m=16, n=5, dx=0.001, dr=0.001, dt=0.001)
    params = PhysicalParams(
        diffusivity={"T": 5e-5, "X_fuel": 2e-5, "X_prod": 2e-5, "X_ox": 2e-5},
        heat_release=3000.0,
        **ARR,
    )
    rng = np.random.default_rng(1)
    snap = make_snapshot(16, 5, vx=0.2)
    snap.values[IDX["T"]] = 300.0 + 500.0 * rng.random((16, 5))
    snap.values[IDX["X_fuel"]] = 0.05
    snap.values[IDX["X_ox"]] = 0.2
    a = step(snap, grid, params)
    b = step(snap, grid, params)
    assert np.array_equal(a.values, b.values) and a.time == b.time


# ----- continuity residual -----


def brute_force_residual(current, previous, grid, params):
    """Loop re-derivation of the mass-balance defect, one cell at a time."""
    rho_t = ideal_gas_density(current.var("T"), params)
    rho_p = ideal_gas_density(previous.var("T"), params)
    vx = current.var("v_x")
    vr = current.var("v_r")
    total = 0.0
    for i in range(grid.m):
        for j in range(grid.n):
            def axial(ii):
                return rho_t[ii, j], vx[ii, j]

            def radial(jj):
                return rho_t[i, jj], vr[i, jj]

            if i < grid.m - 1:
                fe = 0.5 * (rho_t[i, j] + rho_t[i + 1, j]) * 0.5 * (vx[i, j] + vx[i + 1, j])
            else:
                fe = rho_t[i, j] * vx[i, j]
            if i > 0:
                fw = 0.5 * (rho_t[i - 1, j] + rho_t[i, j]) * 0.5 * (vx[i - 1, j] + vx[i, j])
            else:
                fw = rho_t[i, j] * vx[i, j]
            if j < grid.n - 1:
                fn = 0.5 * (rho_t[i, j] + rho_t[i, j + 1]) * 0.5 * (vr[i, j] + vr[i, j + 1])
            else:
                fn = rho_t[i, j] * vr[i, j]
            if j > 0:
                fs = 0.5 * (rho_t[i, j - 1] + rho_t[i, j]) * 0.5 * (vr[i, j - 1] + vr[i, j])
            else:
                fs = rho_t[i, j] * vr[i, j]
            r_c = (j + 0.5) * grid.dr
            term = (
                (rho_t[i, j] - rho_p[i, j]) / grid.dt
                + (fe - fw) / grid.dx
                + (fn - fs) / grid.dr
                + rho_t[i, j] * vr[i, j] / r_c
            )
            total += abs(term)
    return total


def test_residual_zero_for_uniform_steady_axial_flow():
    grid = GridSpec(m=6, n=4, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    prev = make_snapshot(6, 4, vx=0.3, temperature=500.0)
    cur = make_snapshot(6, 4, vx=0.3, temperature=500.0)
    cur.time = 0.001
    assert continuity_residual(cur, prev, grid, params) == 0.0


def test_residual_single_heated_cell_matches_hand_value():
    grid = GridSpec(m=3, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    prev = make_snapshot(3, 3, temperature=300.0)
    cur = make_snapshot(3, 3, temperature=300.0)
    cur.time = 0.001
    cur.values[IDX["T"]][1, 1] = 320.0

    p, w, r = params.reference_pressure, params.molar_mass, params.gas_constant
    expected = abs(p * w / r * (1.0 / 320.0 - 1.0 / 300.0)) / 0.001
    assert continuity_residual(cur, prev, grid, params) == pytest.approx(expected, rel=1e-13)


def test_residual_matches_brute_force_on_random_fields():
    grid = GridSpec(m=9, n=7, dx=0.002, dr=0.003, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    rng = np.random.default_rng(17)
    prev = make_snapshot(9, 7)
    cur = make_snapshot(9, 7)
    for snap in (prev, cur):
        snap.values[IDX["T"]] = 300.0 + 900.0 * rng.random((9, 7))
        snap.values[IDX["v_x"]] = 0.5 * rng.standard_normal((9, 7))
        snap.values[IDX["v_r"]] = 0.2 * rng.standard_normal((9, 7))
    cur.time = 0.001

    got = continuity_residual(cur, prev, grid, params)
    want = brute_force_residual(cur, prev, grid, params)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


def test_residual_rejects_non_consecutive_pair():
    grid = GridSpec(m=4, n=3, dx=0.01, dr=0.01, dt=0.001)
    params = PhysicalParams(diffusivity=D0)
    prev = make_snapshot(4, 3)
    cur = make_snapshot(4, 3)
    cur.time = 0.005
    with pytest.raises(DomainError):
        continuity_residual(cur, prev, grid, params)
    cur.time = float("nan")
    with pytest.raises(DomainError, match="not one step apart"):
        continuity_residual(cur, prev, grid, params)


def test_density_is_inverse_in_temperature():
    params = PhysicalParams(diffusivity=D0)
    rho300 = float(ideal_gas_density(300.0, params))
    rho600 = float(ideal_gas_density(600.0, params))
    assert rho300 == pytest.approx(2.0 * rho600, rel=1e-14)
    assert rho300 == pytest.approx(101325.0 * 0.0289 / (8.314 * 300.0), rel=1e-15)
