"""Alternation-loop tests: trace invariants, degenerate limits, audits."""

import numpy as np
import pytest

from fvmnet.dataset import CellLayout, DomainPartition
from fvmnet.errors import DomainError, MacnetAbortError
from fvmnet.macnet import (
    FallbackEvent,
    MacnetConfig,
    MacnetTrace,
    Phase,
    RetrainEvent,
    hybrid_error_audit,
    retrain_seed,
    run,
    step_costs,
    validate_trace,
)
from fvmnet.network import NetworkSpec
from fvmnet.rollout import SurrogateRecipe, evaluate, train_bundle
from fvmnet.solver import (
    IDX,
    TRANSPORTED,
    VARIABLES,
    GridSpec,
    PhysicalParams,
    Snapshot,
    simulate,
)
from fvmnet.training import TrainConfig

GRID = GridSpec(m=16, n=4, dx=0.01, dr=0.01, dt=0.002)
PART = DomainPartition(m=16, m_star=4)
PARAMS = PhysicalParams(
    diffusivity={"T": 1e-4, "X_fuel": 5e-5, "X_prod": 5e-5, "X_ox": 5e-5}
)
SPEC = NetworkSpec(30, (8,), 1)
TRAIN = TrainConfig(max_epochs=15, patience=15, batch_size=32)
RECIPE = SurrogateRecipe(SPEC, TRAIN)


def blob_state():
    vals = np.zeros((6, GRID.m, GRID.n))
    i = np.arange(GRID.m)[:, None]
    j = np.arange(GRID.n)[None, :]
    vals[IDX["v_x"]] = 0.4
    vals[IDX["T"]] = 300.0 + 500.0 * np.exp(-((i - 7.0) ** 2) / 6.0 - (j**2) / 4.0)
    vals[IDX["X_fuel"]] = 0.05
    vals[IDX["X_ox"]] = 0.2
    return Snapshot(vals, 0.0)


def small_config(**overrides):
    base = dict(
        cfd_window=2,
        tolerance=float("inf"),
        max_ml_steps=6,
        horizon=8,
        recipe=RECIPE,
    )
    base.update(overrides)
    return MacnetConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(cfd_window=0)
    with pytest.raises(DomainError):
        small_config(tolerance=0.0)
    with pytest.raises(DomainError):
        small_config(max_ml_steps=0)
    with pytest.raises(DomainError):
        small_config(horizon=1)
    with pytest.raises(DomainError):
        small_config(retrain="replay")


def test_infinite_tolerance_gives_one_window_then_ml_to_horizon():
    series, trace = run(blob_state(), small_config(), GRID, PARAMS, PART, seed=5)
    validate_trace(trace)
    assert [(p.mode, p.start, p.end) for p in trace.phases] == [
        ("CFD", 0, 2),
        ("ML", 2, 8),
    ]
    assert trace.phases[1].ended_by == "horizon"
    assert trace.fallbacks == []
    assert len(trace.retrains) == 1
    # The retrain trains only the networks a hybrid step runs.
    [event] = trace.retrains
    assert sorted(event.epochs) == sorted(event.val_losses) == sorted(TRANSPORTED)
    assert all(1 <= n <= TRAIN.max_epochs for n in event.epochs.values())
    assert len(series) == 9
    assert trace.ml_fraction() == 6 / 8
    times = [s.time for s in series]
    assert times == pytest.approx([k * GRID.dt for k in range(9)])


def test_infinite_tolerance_matches_plain_multi_step_bit_exactly():
    seed = 5
    config = small_config()
    series, trace = run(blob_state(), config, GRID, PARAMS, PART, seed=seed)
    truth = simulate(blob_state(), GRID, PARAMS, config.horizon)

    # The CFD window retraces the pure solver bit for bit.
    for k in range(config.cfd_window + 1):
        assert np.array_equal(series[k].values, truth[k].values)

    window = truth[: config.cfd_window + 1]
    bundle, _ = train_bundle(window, GRID, PART, RECIPE, seed=retrain_seed(seed, 0))
    plain = evaluate(
        "multi",
        bundle,
        truth,
        config.cfd_window,
        config.horizon - config.cfd_window,
        PART,
        GRID,
        PARAMS,
    )
    audit = hybrid_error_audit(series, trace, truth, PART)
    for offset, rec in enumerate(plain.steps):
        row = audit[config.cfd_window + offset]
        assert row.mode == "ML"
        assert row.max_errors == rec.max_errors
        assert row.mean_errors == rec.mean_errors
    ml_phase = trace.phases[1]
    assert list(ml_phase.residuals) == [rec.scaled_residual for rec in plain.steps]


def test_tiny_tolerance_reduces_to_pure_cfd():
    config = small_config(tolerance=1e-9)
    series, trace = run(blob_state(), config, GRID, PARAMS, PART, seed=5)
    validate_trace(trace)
    assert trace.ml_fraction() == 0.0
    assert all(p.mode == "CFD" for p in trace.phases)
    assert len(trace.phases) == 4
    assert len(trace.fallbacks) == 3
    assert all(event.residual > config.tolerance for event in trace.fallbacks)
    assert trace.candidates() == 3 and trace.ml_seconds > 0.0
    # Discard semantics: rejected candidates never touch the trajectory.
    truth = simulate(blob_state(), GRID, PARAMS, config.horizon)
    for ours, ref in zip(series, truth):
        assert np.array_equal(ours.values, ref.values)
    audit = hybrid_error_audit(series, trace, truth, PART)
    assert all(row.mode == "CFD" for row in audit)
    assert all(
        row.max_errors[v] == 0.0 and row.mean_errors[v] == 0.0
        for row in audit
        for v in VARIABLES
    )


class KickBundle:
    """Stand-in surrogate whose temperature kicks grow every call, so the
    continuity residual of its trajectory rises step by step."""

    layout = CellLayout()

    def __init__(self):
        self.calls = 0

    def cell_outputs(self, state, partition, grid, params):
        self.calls += 1
        lo, hi = partition.flame
        rows = (hi - lo) * grid.n
        sign = np.where((np.arange(rows) // grid.n) % 2 == 0, 1.0, -1.0)
        out = np.zeros((rows, len(TRANSPORTED)))
        # Derivative-mode output: each accepted step shifts T by
        # dt * 1e4 * calls = 20 K * calls, an ever-larger axial sawtooth whose
        # sign flips every call, so T drifts by at most 10 K * (calls + 1).
        out[:, TRANSPORTED.index("T")] = 1e4 * self.calls * sign * (-1.0) ** self.calls
        return out


class FakeReport:
    best_val_loss = 0.0
    param_snapshot_id = "fake"
    epochs_run = 1


def patch_training(monkeypatch):
    import fvmnet.macnet as macnet_mod

    monkeypatch.setattr(
        macnet_mod,
        "train_bundle",
        lambda *a, **k: (KickBundle(), {v: FakeReport() for v in TRANSPORTED}),
    )


def test_intermediate_tolerance_breaches_mid_phase(monkeypatch):
    patch_training(monkeypatch)
    probe = run(blob_state(), small_config(horizon=12), GRID, PARAMS, PART, seed=5)[1]
    residuals = probe.phases[1].residuals
    assert residuals[-1] > residuals[0], "kick bundle must drive the residual up"
    tol = (residuals[0] + residuals[-1]) / 2.0

    import fvmnet.macnet as macnet_mod

    calls = []
    real_step = macnet_mod.predict_step
    monkeypatch.setattr(
        macnet_mod, "predict_step", lambda *a: calls.append(1) or real_step(*a)
    )
    config = small_config(tolerance=tol, horizon=12, max_ml_steps=6)
    series, trace = run(blob_state(), config, GRID, PARAMS, PART, seed=5)
    validate_trace(trace)
    assert trace.candidates() == len(calls)
    breached = [p for p in trace.phases if p.mode == "ML" and p.ended_by == "breach"]
    assert breached, "expected at least one gated reversion"
    first = breached[0]
    assert first.breach_residual > tol
    assert all(r <= tol for r in first.residuals)
    assert len(first.residuals) == first.end - first.start
    # The phase that follows a breach is a CFD window.
    idx = trace.phases.index(first)
    assert trace.phases[idx + 1].mode == "CFD"
    assert len(series) == config.horizon + 1


def test_warm_and_scratch_policies_diverge_after_first_retrain():
    config = small_config(tolerance=1e-9)
    warm_trace = run(blob_state(), config, GRID, PARAMS, PART, seed=5)[1]
    scratch_trace = run(
        blob_state(),
        small_config(tolerance=1e-9, retrain="from-scratch"),
        GRID,
        PARAMS,
        PART,
        seed=5,
    )[1]
    assert warm_trace.retrains[0].param_ids == scratch_trace.retrains[0].param_ids
    assert warm_trace.retrains[1].param_ids != scratch_trace.retrains[1].param_ids


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_aborts_with_partial_trace():
    config = small_config(
        recipe=SurrogateRecipe(
            SPEC,
            TrainConfig(learning_rate=1e100, max_epochs=20, patience=20),
        )
    )
    with pytest.raises(MacnetAbortError) as err:
        run(blob_state(), config, GRID, PARAMS, PART, seed=5)
    assert len(err.value.series) == config.cfd_window + 1
    assert [p.mode for p in err.value.trace.phases] == ["CFD"]


def test_step_costs_divide_by_candidates_and_horizon():
    trace = MacnetTrace(horizon=10, cfd_window=2, tolerance=1.0, max_ml_steps=4)
    trace.phases = [
        Phase("CFD", 0, 2),
        Phase("ML", 2, 4, residuals=(0.1, 0.2), ended_by="breach", breach_residual=2.0),
        Phase("CFD", 4, 6),
        Phase("CFD", 6, 8),
        Phase("ML", 8, 10, residuals=(0.1, 0.2), ended_by="horizon"),
    ]
    trace.fallbacks = [FallbackEvent(at_step=6, residual=3.0)]
    validate_trace(trace)
    trace.ml_seconds = 0.012
    assert trace.candidates() == 6  # 4 accepted, 1 breach, 1 fallback
    steps = [0.005] * trace.horizon
    hybrid, solver, ratio = step_costs(trace, steps)
    assert hybrid == pytest.approx(2.0) and solver == pytest.approx(5.0)
    assert ratio == pytest.approx(0.4)
    trace.phases = [Phase("CFD", 0, 10, ended_by="horizon")]
    trace.fallbacks = []
    hybrid, solver, ratio = step_costs(trace, steps)
    assert np.isnan(hybrid) and np.isnan(ratio) and solver == pytest.approx(5.0)
    # One time per step of the horizon, each positive.
    for bad in ([0.005] * 9, [0.005] * 9 + [0.0]):
        with pytest.raises(DomainError):
            step_costs(trace, bad)


def test_step_costs_take_the_median_solver_step_so_an_outlier_does_not_move_it():
    trace = MacnetTrace(horizon=5, cfd_window=2, tolerance=1.0, max_ml_steps=4)
    trace.phases = [
        Phase("CFD", 0, 2),
        Phase("ML", 2, 5, residuals=(0.1, 0.2, 0.3), ended_by="horizon"),
    ]
    validate_trace(trace)
    trace.ml_seconds = 0.006
    steady = [0.0011, 0.0009, 0.001, 0.0012, 0.0008]
    outlier = [0.0011, 0.0009, 0.001, 0.05, 0.0008]  # one step stalled 50 ms
    hybrid, solver, ratio = step_costs(trace, steady)
    assert (hybrid, solver, ratio) == pytest.approx((2.0, 1.0, 2.0))
    assert step_costs(trace, outlier) == pytest.approx((2.0, 1.0, 2.0))
    # The mean step over the horizon would read 10.76 ms.
    assert 1e3 * sum(outlier) / trace.horizon == pytest.approx(10.76)


# ----- independent validator on synthetic traces -----


def make_trace(phases, fallbacks=(), horizon=8, window=2, tol=5.0, max_ml=4):
    trace = MacnetTrace(
        horizon=horizon, cfd_window=window, tolerance=tol, max_ml_steps=max_ml
    )
    trace.phases = list(phases)
    trace.fallbacks = list(fallbacks)
    return trace


def test_validator_accepts_a_correct_trace():
    validate_trace(
        make_trace(
            [
                Phase("CFD", 0, 2),
                Phase("ML", 2, 5, residuals=(0.5, 1.0, 2.0), ended_by="breach",
                      breach_residual=7.0),
                Phase("CFD", 5, 7),
                Phase("ML", 7, 8, residuals=(0.4,), ended_by="horizon"),
            ]
        )
    )


def test_validator_rejects_tiling_gaps_and_bad_openings():
    with pytest.raises(DomainError):
        validate_trace(make_trace([]))
    with pytest.raises(DomainError):
        validate_trace(make_trace([Phase("ML", 0, 8, residuals=tuple([0.1] * 8))]))
    with pytest.raises(DomainError):
        validate_trace(
            make_trace([Phase("CFD", 0, 2), Phase("ML", 3, 8, residuals=(0.1,) * 5)])
        )
    with pytest.raises(DomainError):
        validate_trace(make_trace([Phase("CFD", 0, 2)]))  # stops before horizon


def test_validator_rejects_gate_violations():
    # Accepted residual above tolerance.
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(
                [
                    Phase("CFD", 0, 2),
                    Phase("ML", 2, 8, residuals=(0.1, 9.0, 0.1, 0.1, 0.1, 0.1),
                          ended_by="horizon"),
                ]
            )
        )
    # Breach claimed without a breaching residual.
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(
                [
                    Phase("CFD", 0, 2),
                    Phase("ML", 2, 6, residuals=(0.1,) * 4, ended_by="breach",
                          breach_residual=1.0),
                    Phase("CFD", 6, 8),
                ]
            )
        )
    # Phase longer than the step limit.
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(
                [
                    Phase("CFD", 0, 2),
                    Phase("ML", 2, 8, residuals=(0.1,) * 6, ended_by="horizon"),
                ],
                max_ml=4,
            )
        )
    # Step limit claimed at the wrong length.
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(
                [
                    Phase("CFD", 0, 2),
                    Phase("ML", 2, 5, residuals=(0.1,) * 3, ended_by="max_ml_steps"),
                    Phase("CFD", 5, 7),
                    Phase("ML", 7, 8, residuals=(0.1,), ended_by="horizon"),
                ],
                max_ml=4,
            )
        )


def test_validator_ties_fallbacks_to_cfd_cfd_boundaries():
    phases = [
        Phase("CFD", 0, 2),
        Phase("CFD", 2, 4),
        Phase("ML", 4, 8, residuals=(0.1,) * 4, ended_by="horizon"),
    ]
    validate_trace(
        make_trace(phases, fallbacks=[FallbackEvent(at_step=2, residual=9.0)])
    )
    with pytest.raises(DomainError):
        validate_trace(make_trace(phases))  # boundary without an event
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(phases, fallbacks=[FallbackEvent(at_step=4, residual=9.0)])
        )
    with pytest.raises(DomainError):  # event residual within tolerance
        validate_trace(
            make_trace(phases, fallbacks=[FallbackEvent(at_step=2, residual=1.0)])
        )


def test_validator_rejects_malformed_cfd_phases():
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(
                [
                    Phase("CFD", 0, 3),  # wrong window length
                    Phase("ML", 3, 8, residuals=(0.1,) * 5, ended_by="horizon"),
                ]
            )
        )
    with pytest.raises(DomainError):
        validate_trace(
            make_trace(
                [
                    Phase("CFD", 0, 2, residuals=(0.1,)),
                    Phase("ML", 2, 8, residuals=(0.1,) * 6, ended_by="horizon"),
                ]
            )
        )


def test_validator_checks_each_retrain():
    def retrain(**overrides):
        fields = dict(
            at_step=2, policy="warm-start",
            val_losses={v: 0.5 for v in TRANSPORTED},
            param_ids={v: "ab" * 6 for v in TRANSPORTED},
            epochs={v: 4 for v in TRANSPORTED},
            denominator=1.0,
        )
        fields.update(overrides)
        trace = make_trace(
            [Phase("CFD", 0, 2), Phase("ML", 2, 6, residuals=(0.1,) * 4, ended_by="max_ml_steps"),
             Phase("CFD", 6, 8, ended_by="window")]
        )
        trace.retrains = [RetrainEvent(**fields)]
        return trace

    validate_trace(retrain())
    six = {v: 0.5 for v in VARIABLES}
    for bad in (
        dict(val_losses=six),
        dict(param_ids={v: "ab" * 6 for v in VARIABLES}),
        dict(epochs={v: 4 for v in TRANSPORTED[:-1]}),
        dict(val_losses={**six, "T": float("nan")}),
        dict(val_losses={v: float("inf") for v in TRANSPORTED}),
        dict(epochs={**{v: 4 for v in TRANSPORTED}, "X_ox": 0}),
    ):
        with pytest.raises(DomainError, match="retrain at step 2"):
            validate_trace(retrain(**bad))


def test_audit_rejects_horizon_mismatches():
    config = small_config()
    series, trace = run(blob_state(), config, GRID, PARAMS, PART, seed=5)
    truth = simulate(blob_state(), GRID, PARAMS, config.horizon)
    with pytest.raises(DomainError):
        hybrid_error_audit(series[:-1], trace, truth, PART)
    with pytest.raises(DomainError):
        hybrid_error_audit(series, trace, truth[:-1], PART)
