"""Residual-gated alternation between solver windows and surrogate rollout.

The run loop advances a CFD window, trains or updates the four transported
surrogates (the ones a hybrid step runs) on exactly that window, then lets
the surrogates step the middle band while the scaled continuity residual
stays under tolerance. A breaching candidate step is discarded, so the
trajectory never contains a step that failed the gate; the loop then returns
to CFD and retrains. An independent validator replays the recorded trace
against the documented invariants.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dataset import DomainPartition
from .errors import DomainError, MacnetAbortError, TrainingDivergedError
from .rollout import (
    SurrogateRecipe,
    band_errors,
    predict_step,
    residual_denominator,
    scaled_residual,
    train_bundle,
)
from .solver import TRANSPORTED, GridSpec, PhysicalParams, Snapshot, step
from .training import derived_seed

logger = logging.getLogger(__name__)

RETRAIN_POLICIES = ("warm-start", "from-scratch")
PHASE_MODES = ("CFD", "ML")
CFD_END_REASONS = ("window", "horizon")


@dataclass(frozen=True)
class MacnetConfig:
    """Gating and retraining knobs for the alternation loop, plus the recipe
    every (re)training follows."""

    recipe: SurrogateRecipe
    cfd_window: int = 2
    tolerance: float = 5.0
    max_ml_steps: int = 10
    horizon: int = 40
    retrain: str = "warm-start"

    def __post_init__(self):
        if self.cfd_window < 1:
            raise DomainError(f"cfd_window must be >= 1, got {self.cfd_window}")
        if not self.tolerance > 0.0:
            raise DomainError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_ml_steps < 1:
            raise DomainError(f"max_ml_steps must be >= 1, got {self.max_ml_steps}")
        if self.horizon < self.cfd_window:
            raise DomainError(
                f"horizon {self.horizon} is shorter than one CFD window "
                f"of {self.cfd_window}"
            )
        if self.retrain not in RETRAIN_POLICIES:
            raise DomainError(f"retrain must be one of {RETRAIN_POLICIES}")


@dataclass(frozen=True)
class Phase:
    """One contiguous stretch of steps advanced by a single engine.

    start/end are global step counts: the phase advanced the trajectory from
    state index start to state index end. ML phases record the scaled
    residual of every accepted step; a phase that ended on the gate also
    records the discarded candidate's residual.
    """

    mode: str
    start: int
    end: int
    residuals: Tuple[float, ...] = ()
    ended_by: str = "window"
    breach_residual: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "residuals", tuple(self.residuals))


@dataclass(frozen=True)
class RetrainEvent:
    """One (re)training of the surrogate bundle on the latest CFD window.

    Each mapping is keyed by the trained variables, TRANSPORTED; `epochs`
    holds each network's epochs run.
    """

    at_step: int
    policy: str
    val_losses: Mapping[str, float]
    param_ids: Mapping[str, str]
    epochs: Mapping[str, int]
    denominator: float


@dataclass(frozen=True)
class FallbackEvent:
    """A fresh bundle's very first candidate step breached the gate."""

    at_step: int
    residual: float


@dataclass
class MacnetTrace:
    """Complete record of one alternation run, sufficient for replay checks."""

    horizon: int
    cfd_window: int
    tolerance: float
    max_ml_steps: int
    phases: List[Phase] = field(default_factory=list)
    retrains: List[RetrainEvent] = field(default_factory=list)
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    wall_seconds: float = 0.0
    train_seconds: float = 0.0
    ml_seconds: float = 0.0  # wall clock inside candidate predict_step calls

    def ml_steps(self) -> int:
        return sum(p.end - p.start for p in self.phases if p.mode == "ML")

    def candidates(self) -> int:
        """Surrogate steps attempted: the accepted ones plus each discarded breach."""
        breaches = sum(p.ended_by == "breach" for p in self.phases if p.mode == "ML")
        return self.ml_steps() + breaches + len(self.fallbacks)

    def cfd_steps(self) -> int:
        return sum(p.end - p.start for p in self.phases if p.mode == "CFD")

    def ml_fraction(self) -> float:
        return self.ml_steps() / self.horizon


def retrain_seed(base: int, index: int) -> int:
    """Seed used for the index-th retraining of a run seeded with base."""
    return derived_seed(base, "retrain", index)


def run(
    initial: Snapshot,
    config: MacnetConfig,
    grid: GridSpec,
    params: PhysicalParams,
    partition: DomainPartition,
    seed: int = 0,
) -> Tuple[List[Snapshot], MacnetTrace]:
    """Alternate CFD windows and gated surrogate phases to the horizon.

    Returns the full state trajectory (horizon + 1 snapshots) and the trace.
    Training divergence aborts with the partial series and trace attached;
    solver and surrogate numerical errors propagate unchanged.
    """
    trace = MacnetTrace(
        horizon=config.horizon,
        cfd_window=config.cfd_window,
        tolerance=config.tolerance,
        max_ml_steps=config.max_ml_steps,
    )
    series = [initial.copy()]
    state = series[0]
    bundle = None
    denominator = None
    steps_done = 0
    run_start = time.perf_counter()

    while steps_done < config.horizon:
        # (1) CFD window, truncated at the horizon.
        start = steps_done
        count = min(config.cfd_window, config.horizon - steps_done)
        window = [state]
        for _ in range(count):
            state = step(state, grid, params)
            series.append(state)
            window.append(state)
        steps_done += count
        trace.phases.append(
            Phase(
                mode="CFD",
                start=start,
                end=steps_done,
                ended_by="window" if count == config.cfd_window else "horizon",
            )
        )
        if steps_done >= config.horizon:
            break

        # (2) Train or update the bundle on exactly this window.
        warm = bundle if config.retrain == "warm-start" else None
        train_start = time.perf_counter()
        try:
            bundle, reports = train_bundle(
                window,
                grid,
                partition,
                config.recipe,
                seed=retrain_seed(seed, len(trace.retrains)),
                warm_from=warm,
            )
        except TrainingDivergedError as err:
            raise MacnetAbortError(
                f"training diverged at step {steps_done}: {err}",
                series=series,
                trace=trace,
            ) from err
        trace.train_seconds += time.perf_counter() - train_start
        denominator = residual_denominator(window, grid, params)
        trace.retrains.append(
            RetrainEvent(
                at_step=steps_done,
                policy=config.retrain,
                val_losses={v: rep.best_val_loss for v, rep in reports.items()},
                param_ids={v: rep.param_snapshot_id for v, rep in reports.items()},
                epochs={v: rep.epochs_run for v, rep in reports.items()},
                denominator=denominator,
            )
        )

        # (3) Gated surrogate phase; a breaching candidate is discarded.
        start = steps_done
        residuals: List[float] = []
        breach = None
        while len(residuals) < config.max_ml_steps and steps_done < config.horizon:
            ml_start = time.perf_counter()
            candidate = predict_step(bundle, state, partition, grid, params)
            trace.ml_seconds += time.perf_counter() - ml_start
            res = scaled_residual(candidate, state, grid, params, denominator)
            if res > config.tolerance:
                breach = res
                break
            state = candidate
            series.append(state)
            residuals.append(res)
            steps_done += 1

        if not residuals:
            # Gate fired before a single step landed: no ML phase this round.
            trace.fallbacks.append(FallbackEvent(at_step=steps_done, residual=breach))
            logger.info(
                "fallback at step %d: first candidate residual %.3g > %.3g",
                steps_done, breach, config.tolerance,
            )
            continue
        if breach is not None:
            ended_by = "breach"
        elif steps_done >= config.horizon:
            ended_by = "horizon"
        else:
            ended_by = "max_ml_steps"
        trace.phases.append(
            Phase(
                mode="ML",
                start=start,
                end=steps_done,
                residuals=tuple(residuals),
                ended_by=ended_by,
                breach_residual=breach,
            )
        )

    trace.wall_seconds = time.perf_counter() - run_start
    logger.info(
        "run complete: %d/%d steps by ML (%.0f%%), %.2fs total, %.2fs training",
        trace.ml_steps(), config.horizon, 100.0 * trace.ml_fraction(),
        trace.wall_seconds, trace.train_seconds,
    )
    return series, trace


def step_costs(
    trace: MacnetTrace, solver_step_seconds: Sequence[float]
) -> Tuple[float, float, float]:
    """(hybrid_step_ms, solver_step_ms, step_cost_ratio), training excluded.

    The hybrid step is the mean candidate predict_step. The solver step is the
    median of the per-step times of the pure-solver run over the same horizon,
    so one slow step does not move it. The ratio is hybrid over solver, nan
    when the run attempted no surrogate step.
    """
    if len(solver_step_seconds) != trace.horizon or not all(
        t > 0.0 for t in solver_step_seconds
    ):
        raise DomainError(
            f"step costs need {trace.horizon} positive pure-solver step times"
        )
    solver_ms = 1e3 * float(np.median(solver_step_seconds))
    candidates = trace.candidates()
    hybrid_ms = 1e3 * trace.ml_seconds / candidates if candidates else float("nan")
    ratio = hybrid_ms / solver_ms
    logger.info(
        "per step: hybrid %.2f ms, solver %.2f ms, cost ratio %.3f",
        hybrid_ms, solver_ms, ratio,
    )
    return hybrid_ms, solver_ms, ratio


def validate_trace(trace: MacnetTrace) -> None:
    """Replay the documented invariants against a recorded trace.

    Checks only the recorded fields, independently of the run loop: phases
    tile [0, horizon]; every ML phase directly follows a CFD phase; each ML
    phase ends for a recorded, consistent reason with all accepted residuals
    under the gate; consecutive CFD phases pair up with fallback events;
    each retrain records a finite loss and at least one epoch for exactly the
    TRANSPORTED networks.
    """
    if not trace.phases:
        raise DomainError("trace has no phases")
    if trace.phases[0].mode != "CFD" or trace.phases[0].start != 0:
        raise DomainError("trace must open with a CFD phase at step 0")
    if trace.phases[-1].end != trace.horizon:
        raise DomainError(
            f"phases end at {trace.phases[-1].end}, horizon is {trace.horizon}"
        )

    expected_start = 0
    for idx, phase in enumerate(trace.phases):
        if phase.mode not in PHASE_MODES:
            raise DomainError(f"phase {idx} has unknown mode {phase.mode!r}")
        if phase.start != expected_start:
            raise DomainError(
                f"phase {idx} starts at {phase.start}, expected {expected_start}"
            )
        if phase.end <= phase.start:
            raise DomainError(f"phase {idx} is empty or reversed")
        expected_start = phase.end
        length = phase.end - phase.start

        if phase.mode == "CFD":
            if phase.residuals or phase.breach_residual is not None:
                raise DomainError(f"CFD phase {idx} carries ML-only fields")
            if phase.ended_by not in CFD_END_REASONS:
                raise DomainError(
                    f"CFD phase {idx} ended by {phase.ended_by!r}"
                )
            if phase.ended_by == "window" and length != trace.cfd_window:
                raise DomainError(
                    f"CFD phase {idx} ran {length} steps, window is {trace.cfd_window}"
                )
            if phase.ended_by == "horizon" and phase.end != trace.horizon:
                raise DomainError(f"CFD phase {idx} claims horizon but ends early")
            continue

        if idx == 0 or trace.phases[idx - 1].mode != "CFD":
            raise DomainError(f"ML phase {idx} does not follow a CFD phase")
        if length > trace.max_ml_steps:
            raise DomainError(
                f"ML phase {idx} ran {length} steps, limit is {trace.max_ml_steps}"
            )
        if len(phase.residuals) != length:
            raise DomainError(
                f"ML phase {idx} records {len(phase.residuals)} residuals "
                f"for {length} steps"
            )
        if any(r > trace.tolerance for r in phase.residuals):
            raise DomainError(f"ML phase {idx} accepted a residual over tolerance")
        if phase.ended_by == "breach":
            if phase.breach_residual is None or phase.breach_residual <= trace.tolerance:
                raise DomainError(
                    f"ML phase {idx} claims a breach without a breaching residual"
                )
        elif phase.ended_by == "max_ml_steps":
            if length != trace.max_ml_steps:
                raise DomainError(
                    f"ML phase {idx} claims the step limit at length {length}"
                )
        elif phase.ended_by == "horizon":
            if phase.end != trace.horizon:
                raise DomainError(f"ML phase {idx} claims horizon but ends early")
        else:
            raise DomainError(f"ML phase {idx} ended by {phase.ended_by!r}")

    boundaries = {
        trace.phases[idx].end
        for idx in range(len(trace.phases) - 1)
        if trace.phases[idx].mode == "CFD" and trace.phases[idx + 1].mode == "CFD"
    }
    fallback_steps = [event.at_step for event in trace.fallbacks]
    if sorted(boundaries) != sorted(fallback_steps):
        raise DomainError(
            f"CFD-to-CFD boundaries {sorted(boundaries)} do not match "
            f"fallback events {sorted(fallback_steps)}"
        )
    for event in trace.fallbacks:
        if not event.residual > trace.tolerance:
            raise DomainError(
                f"fallback at step {event.at_step} has residual "
                f"{event.residual} within tolerance"
            )
    for event in trace.retrains:
        for name in ("val_losses", "param_ids", "epochs"):
            if sorted(getattr(event, name)) != sorted(TRANSPORTED):
                raise DomainError(
                    f"retrain at step {event.at_step} records {name} for "
                    f"{sorted(getattr(event, name))}, expected {sorted(TRANSPORTED)}"
                )
        if not all(math.isfinite(loss) for loss in event.val_losses.values()):
            raise DomainError(f"retrain at step {event.at_step} has a non-finite loss")
        if not all(epochs >= 1 for epochs in event.epochs.values()):
            raise DomainError(f"retrain at step {event.at_step} ran no epochs")


@dataclass(frozen=True)
class AuditRow:
    """Per-step comparison of the hybrid trajectory against pure solver truth."""

    step: int
    mode: str
    max_errors: Mapping[str, float]
    mean_errors: Mapping[str, float]


def hybrid_error_audit(
    series: Sequence[Snapshot],
    trace: MacnetTrace,
    truth: Sequence[Snapshot],
    partition: DomainPartition,
) -> List[AuditRow]:
    """Error table of the hybrid run vs a pure-solver run of the same horizon."""
    if len(series) != trace.horizon + 1:
        raise DomainError(
            f"series has {len(series)} snapshots, trace horizon {trace.horizon} "
            f"needs {trace.horizon + 1}"
        )
    if len(truth) < len(series):
        raise DomainError(
            f"truth series has {len(truth)} snapshots, need {len(series)}"
        )
    mode_at = {}
    for phase in trace.phases:
        for k in range(phase.start + 1, phase.end + 1):
            mode_at[k] = phase.mode
    return [
        AuditRow(k, mode_at[k], *band_errors(series[k], truth[k], partition))
        for k in range(1, len(series))
    ]
