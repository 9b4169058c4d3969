"""Reference finite-volume solver for a 2D axisymmetric reacting channel.

State is a snapshot of six cell-centered variables on an (axial x radial)
grid: two prescribed steady velocity components, temperature, and three
species mass fractions coupled through a single-step Arrhenius reaction.
Transport is first-order upwind convection plus second-order central
diffusion, advanced with explicit Euler. The axis sits on the inner face of
the first radial cell ring, so that face has zero area and the symmetry
condition costs nothing.

One step contract holds for every new state, from the solver or from the
surrogate's flame band: it leaves `finish_columns`, which refuses any
non-finite value and any T <= 0 (the ideal-gas density needs T > 0) and clips
species into [0, 1].

The flux kernel is whole-array numpy. `face_fluxes` is its one flux
evaluation per step; each column slab differences those face fluxes, and
every update reads only time-t values (Jacobi update, no in-step sweeping).
The per-cell loop in `tests/oracles.py` is the reference it matches bit for
bit.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BlowupError, DomainError, StabilityError

log = logging.getLogger(__name__)

# Variable order is fixed everywhere: snapshots, tier vectors, saved bundles.
VARIABLES: Tuple[str, ...] = ("v_x", "v_r", "T", "X_fuel", "X_prod", "X_ox")
IDX = {name: k for k, name in enumerate(VARIABLES)}
N_VARS = len(VARIABLES)

IVX, IVR, IT, IFUEL, IPROD, IOX = (IDX[v] for v in VARIABLES)
TRANSPORTED: Tuple[str, ...] = ("T", "X_fuel", "X_prod", "X_ox")
SPECIES: Tuple[str, ...] = ("X_fuel", "X_prod", "X_ox")

SCALAR_ROWS = [IDX[name] for name in TRANSPORTED]

CFL_LIMIT = 0.5
DIFFUSION_LIMIT = 0.25

AXIAL_BC_MODES = ("inflow_outflow", "closed")


@dataclass(frozen=True)
class GridSpec:
    """Uniform axisymmetric grid: m axial cells, n radial rings.

    Cell (i, j) is centered at x = (i + 0.5) dx, r = (j + 0.5) dr. The
    symmetry axis coincides with the inner face of ring j=0.
    """

    m: int
    n: int
    dx: float
    dr: float
    dt: float

    def __post_init__(self):
        for name in ("m", "n"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise DomainError(
                    f"grid size {name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        if self.m < 3 or self.n < 2:
            raise DomainError(f"grid needs m >= 3 and n >= 2, got {self.m}x{self.n}")
        for name in ("dx", "dr", "dt"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"grid spacing {name} must be positive")

    def radial_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dr

    def cell_volumes(self) -> np.ndarray:
        # Volume per ring (factor 2*pi dropped consistently package-wide).
        return self.radial_centers() * self.dr * self.dx


@dataclass
class PhysicalParams:
    """Physical constants and boundary configuration for the channel.

    diffusivity maps each transported scalar name to D; velocities are not
    diffused. wall_temperature None makes the outer wall adiabatic; a float
    holds the wall face at that temperature through a half-cell ghost.
    axial_bc "inflow_outflow" pins the inlet column to its current values and
    applies a zero-gradient outlet; "closed" seals both axial ends (the
    configuration used for conservation checks).
    """

    diffusivity: Mapping[str, float]
    arrhenius_a: float = 0.0
    arrhenius_b: float = 0.0
    activation_energy: float = 0.0
    gas_constant: float = 8.314
    heat_release: float = 0.0
    reference_pressure: float = 101325.0
    molar_mass: float = 0.0289
    wall_temperature: Optional[float] = None
    axial_bc: str = "inflow_outflow"

    def __post_init__(self):
        for name in self.diffusivity:
            if name not in TRANSPORTED:
                raise DomainError(f"diffusivity given for non-transported variable {name!r}")
        missing = [v for v in TRANSPORTED if v not in self.diffusivity]
        if missing:
            raise DomainError(f"diffusivity missing entries for {missing}")
        for name, value in self.diffusivity.items():
            if value < 0.0:
                raise DomainError(f"diffusivity for {name} must be >= 0, got {value}")
        if self.axial_bc not in AXIAL_BC_MODES:
            raise DomainError(f"axial_bc must be one of {AXIAL_BC_MODES}, got {self.axial_bc!r}")
        for name in ("gas_constant", "reference_pressure", "molar_mass"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        if self.arrhenius_a < 0.0:
            raise DomainError("arrhenius_a must be >= 0")


@dataclass
class Snapshot:
    """Full solver state at one instant: values[k] is the plane of VARIABLES[k]."""

    values: np.ndarray
    time: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[0] != N_VARS:
            raise DomainError(
                f"snapshot values must have shape ({N_VARS}, m, n), got {self.values.shape}"
            )
        self.time = float(self.time)

    def var(self, name: str) -> np.ndarray:
        if name not in IDX:
            raise DomainError(f"unknown variable {name!r}")
        return self.values[IDX[name]]

    def copy(self) -> "Snapshot":
        return Snapshot(self.values.copy(), self.time)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]


def reaction_rate(temperature, fuel, oxidizer, params: PhysicalParams):
    """Single-step Arrhenius consumption rate k(T) * X_fuel * X_ox.

    k(T) = A * T^b * exp(-Ea / (Rgas T)). Works elementwise on arrays or
    plain floats; callers supply nonnegative mass fractions.
    """
    t = np.asarray(temperature, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = params.arrhenius_a * t**params.arrhenius_b * np.exp(
            -params.activation_energy / (params.gas_constant * t)
        )
        rate = k * np.asarray(fuel, dtype=np.float64) * np.asarray(oxidizer, dtype=np.float64)
    return rate


def ideal_gas_density(temperature, params: PhysicalParams):
    """rho = P W / (Rgas T) at the reference pressure, elementwise."""
    t = np.asarray(temperature, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return params.reference_pressure * params.molar_mass / (params.gas_constant * t)


def stability_numbers(state: Snapshot, grid: GridSpec, params: PhysicalParams):
    """(advective CFL, diffusion number) for this state and timestep."""
    vx = state.values[IVX]
    vr = state.values[IVR]
    cfl = max(
        float(np.max(np.abs(vx))) * grid.dt / grid.dx,
        float(np.max(np.abs(vr))) * grid.dt / grid.dr,
    )
    dmax = max(float(d) for d in params.diffusivity.values())
    dnum = dmax * grid.dt * (1.0 / grid.dx**2 + 1.0 / grid.dr**2)
    return cfl, dnum


def _require_stable(state: Snapshot, grid: GridSpec, params: PhysicalParams) -> None:
    cfl, dnum = stability_numbers(state, grid, params)
    if cfl > CFL_LIMIT or dnum > DIFFUSION_LIMIT:
        raise StabilityError(
            f"explicit step unstable: advective CFL {cfl:.6g} (limit {CFL_LIMIT}), "
            f"diffusion number {dnum:.6g} (limit {DIFFUSION_LIMIT})",
            cfl=cfl,
            diffusion_number=dnum,
        )


def _check_shape(state: Snapshot, grid: GridSpec) -> None:
    if state.shape != (grid.m, grid.n):
        raise DomainError(
            f"snapshot shape {state.shape} does not match grid {grid.m}x{grid.n}"
        )


def face_fluxes(values, grid: GridSpec, params: PhysicalParams):
    """East and north face fluxes of every transported scalar, from time-t values.

    Returns (east, north), each (len(TRANSPORTED), m, n) in TRANSPORTED order:
    east[k, i, j] leaves cell (i, j) through its +x face and north[k, i, j]
    through its outer radial face. West and south fluxes are these shifted by
    one cell; the axis face has zero area and a closed inlet face carries none.
    Interior faces upwind on the averaged face velocity and add central
    diffusion; the outlet is a zero-gradient ghost (closed: no flux), the wall
    adiabatic or, for T, held at wall_temperature through a half-cell ghost.
    """
    m, n = grid.m, grid.n
    dx, dr = grid.dx, grid.dr
    phi = values[SCALAR_ROWS]
    dcoef = np.array([float(params.diffusivity[name]) for name in TRANSPORTED])[:, None, None]
    vx = values[IVX]
    vr = values[IVR]
    r_c = grid.radial_centers()
    area_e = r_c * dr                       # axial faces (east and west alike)
    area_n = np.arange(1, n + 1) * dr * dx  # outer radial face of ring j

    # Face-normal velocities by arithmetic average of the adjacent centers.
    east = np.empty_like(phi)
    v = 0.5 * (vx[: m - 1] + vx[1:])
    lo, hi = phi[:, : m - 1], phi[:, 1:]
    up = np.where(v >= 0.0, lo, hi)
    east[:, : m - 1] = (v * up - dcoef * (hi - lo) / dx) * area_e
    if params.axial_bc == "inflow_outflow":
        east[:, m - 1] = vx[m - 1] * phi[:, m - 1] * area_e  # zero-gradient ghost
    else:
        east[:, m - 1] = 0.0

    north = np.empty_like(phi)
    v = 0.5 * (vr[:, : n - 1] + vr[:, 1:])
    lo, hi = phi[:, :, : n - 1], phi[:, :, 1:]
    up = np.where(v >= 0.0, lo, hi)
    north[:, :, : n - 1] = (v * up - dcoef * (hi - lo) / dr) * area_n[: n - 1]
    north[:, :, n - 1] = 0.0  # impermeable adiabatic wall
    wall_t = params.wall_temperature
    if wall_t is not None:
        k = TRANSPORTED.index("T")
        d = float(params.diffusivity["T"])
        north[k, :, n - 1] = -d * (wall_t - phi[k, :, n - 1]) / (0.5 * dr) * area_n[n - 1]
    return east, north


def _advance_slab(values, out, net, grid: GridSpec, params: PhysicalParams, i_lo: int, i_hi: int):
    """Difference the net face outflow into out on columns [i_lo, i_hi), then add the source.

    out must start as a copy of values; velocity planes and untouched columns
    pass through. Every read is from time-t values, so overlapping slabs agree.
    """
    if params.axial_bc == "inflow_outflow":
        i_lo = max(i_lo, 1)  # inlet column held at its current values
    if i_lo >= i_hi:
        return
    sl = slice(i_lo, i_hi)
    out[SCALAR_ROWS, sl] = values[SCALAR_ROWS, sl] - grid.dt * net[:, sl] / grid.cell_volumes()

    # Single-step Arrhenius source from time-t values, applied to every
    # flux-updated column (the held inlet column gets none).
    if params.arrhenius_a > 0.0:
        rate = reaction_rate(values[IT][sl], values[IFUEL][sl], values[IOX][sl], params)
        drate = grid.dt * rate
        out[IT][sl] += params.heat_release * drate
        out[IFUEL][sl] -= drate
        out[IOX][sl] -= drate
        out[IPROD][sl] += drate


def finish_columns(
    values, grid: GridSpec, columns: Sequence[Tuple[int, int]], time: float, what="step"
) -> None:
    """Refuse non-finite values and T <= 0 on the slabs, then clip species into [0, 1], in place.

    Checking first stops the clip hiding an infinite species; clamped mass is debug-logged.
    """
    vol = grid.cell_volumes()
    rows = [IDX[name] for name in SPECIES]
    clamped = 0.0
    for lo, hi in columns:
        finite = np.isfinite(values[:, lo:hi])
        if not finite.all():
            bad = np.argwhere(~finite)[0]
            k, i, j = int(bad[0]), int(bad[1]) + lo, int(bad[2])
            raise BlowupError(
                f"non-finite {VARIABLES[k]} at cell ({i}, {j}) after {what} to t={time:.6g}",
                variable=VARIABLES[k],
                cell=(i, j),
            )
        cold = values[IT, lo:hi] <= 0.0
        if cold.any():
            i, j = (int(c) for c in np.argwhere(cold)[0])
            i += lo
            raise BlowupError(
                f"non-positive T {values[IT, i, j]:.6g} at cell ({i}, {j}) after {what} "
                f"to t={time:.6g}",
                variable="T",
                cell=(i, j),
            )
        species = values[rows, lo:hi]
        clipped = np.clip(species, 0.0, 1.0)
        clamped += float(np.sum(np.abs(species - clipped) * vol))
        values[rows, lo:hi] = clipped
    if clamped > 0.0:
        log.debug("clamped species mass %.3e at t=%.6g", clamped, time)


def step_columns(
    state: Snapshot,
    grid: GridSpec,
    params: PhysicalParams,
    columns: Sequence[Tuple[int, int]],
) -> Snapshot:
    """One explicit step applied only to the given [lo, hi) column slabs.

    Columns outside the slabs are copied through unchanged; fluxes at slab
    edges still read the neighboring time-t values, so a slab update agrees
    bit-for-bit with the same columns of a whole-grid step.
    """
    _check_shape(state, grid)
    for lo, hi in columns:
        if not (0 <= lo < hi <= grid.m):
            raise DomainError(f"column slab ({lo}, {hi}) outside grid of {grid.m} columns")
    _require_stable(state, grid, params)

    values = state.values
    out = values.copy()
    east, north = face_fluxes(values, grid, params)
    net = east.copy()
    net[:, 1:] -= east[:, :-1]         # west face
    net += north
    net[:, :, 1:] -= north[:, :, :-1]  # inner radial face; zero on the axis
    for lo, hi in columns:
        _advance_slab(values, out, net, grid, params, lo, hi)
    new_time = state.time + grid.dt
    finish_columns(out, grid, columns, new_time)
    return Snapshot(out, new_time)


def step(state: Snapshot, grid: GridSpec, params: PhysicalParams) -> Snapshot:
    """Advance the whole grid by one explicit Euler step."""
    return step_columns(state, grid, params, [(0, grid.m)])


def simulate(
    initial: Snapshot, grid: GridSpec, params: PhysicalParams, steps: int
) -> list:
    """Run `steps` explicit steps; returns the series [initial, s1, ..., s_steps]."""
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    series = [initial.copy()]
    current = series[0]
    for _ in range(steps):
        current = step(current, grid, params)
        series.append(current)
    return series


def time_tolerance(dt: float) -> float:
    """How far two snapshot times may differ and still count as the same time."""
    return 1e-9 * max(1.0, abs(dt))


def check_consecutive(earlier: Snapshot, later: Snapshot, dt: float) -> None:
    """Raise DomainError unless `later` is one `dt` step after `earlier`, same shape."""
    if earlier.shape != later.shape:
        raise DomainError(
            f"snapshot pair shapes differ: {earlier.shape} vs {later.shape}"
        )
    gap = later.time - earlier.time
    if not abs(gap - dt) <= time_tolerance(dt):  # a NaN time fails too
        raise DomainError(
            f"snapshot pair is not one step apart: gap {gap:.12g}, dt {dt:.12g}"
        )


def continuity_residual(
    current: Snapshot, previous: Snapshot, grid: GridSpec, params: PhysicalParams
) -> float:
    """L1 mass-balance defect of a consecutive snapshot pair.

    Per cell: (rho_t - rho_{t-1})/dt + d(rho v_x)/dx + d(rho v_r)/dr
    + rho v_r / r, with ideal-gas density from temperature, face products
    from arithmetic averages of the adjacent centers, and domain-edge faces
    replicating the boundary cell. The absolute values are summed over the
    grid. Velocities prescribed steady do not satisfy this balance exactly,
    so the result is a diagnostic defect scale, not a conservation proof.
    """
    _check_shape(current, grid)
    check_consecutive(previous, current, grid.dt)

    rho_t = ideal_gas_density(current.values[IT], params)
    rho_p = ideal_gas_density(previous.values[IT], params)
    vx = current.values[IVX]
    vr = current.values[IVR]

    def face_products(rho, vel, axis):
        # Averaged rho and vel on the high-side face along `axis`, edge
        # faces replicate the boundary cell.
        hi = np.empty_like(rho)
        if axis == 0:
            hi[:-1] = 0.5 * (rho[:-1] + rho[1:]) * 0.5 * (vel[:-1] + vel[1:])
            hi[-1] = rho[-1] * vel[-1]
            lo = np.empty_like(rho)
            lo[1:] = hi[:-1]
            lo[0] = rho[0] * vel[0]
        else:
            hi[:, :-1] = 0.5 * (rho[:, :-1] + rho[:, 1:]) * 0.5 * (vel[:, :-1] + vel[:, 1:])
            hi[:, -1] = rho[:, -1] * vel[:, -1]
            lo = np.empty_like(rho)
            lo[:, 1:] = hi[:, :-1]
            lo[:, 0] = rho[:, 0] * vel[:, 0]
        return hi, lo

    fe, fw = face_products(rho_t, vx, axis=0)
    fn, fs = face_products(rho_t, vr, axis=1)
    r_c = grid.radial_centers()

    term = (
        (rho_t - rho_p) / grid.dt
        + (fe - fw) / grid.dx
        + (fn - fs) / grid.dr
        + rho_t * vr / r_c[None, :]
    )
    return float(np.sum(np.abs(term)))

