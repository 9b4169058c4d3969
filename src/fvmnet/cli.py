"""Command line driver: generate, train, ablate, rollout, macnet, report.

`main` parses argv before anything loads numpy, applies `--threads` to the
thread variables, and only then runs the command, which imports the array
stack itself; `--dump-defaults` prints the default config. Every command
echoes its fully resolved configuration into the output directory; rerunning
any command from that echo reproduces the same artifacts byte for byte
(wall-clock measurements live in separate timing sidecars).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from .errors import ArtifactIOError, ConfigurationError, NumericalError

log = logging.getLogger("fvmnet.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

VARIANTS = {
    "fvmn": ("tier", "derivative"),
    "tier-only": ("tier", "absolute"),
    "derivative-only": ("center", "derivative"),
    "general": ("center", "absolute"),
}


THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_cap(cap: int) -> None:
    """Cap the numerical thread pools; only takes effect before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    if "numpy" in sys.modules:
        # BLAS reads these variables once, when numpy loads.
        log.warning(
            "--threads %s has no effect: numpy was loaded before the cap was set",
            cap,
        )


def _thread_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, metavar="N", help="override the run seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    common.add_argument(
        "--threads", type=_thread_count, metavar="N", help="cap numerical worker threads"
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field, e.g. --set macnet.tolerance=2.5",
    )

    parser = argparse.ArgumentParser(
        prog="fvmnet",
        description="Finite-volume surrogate workbench: generate solver data, "
        "train tier/derivative networks, evaluate rollouts, and run the "
        "residual-gated ML/CFD alternation.",
    )
    parser.add_argument(
        "--dump-defaults",
        action="store_true",
        help="print the default configuration as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser(
        "generate", parents=[common], help="simulate and store the snapshot series"
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "train", parents=[common], help="train the six networks on the stored series"
    )
    p.add_argument("--manifest", metavar="PATH", help="series manifest to train on")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "ablate",
        parents=[common],
        help="sweep network cases and input/output variants",
    )
    p.add_argument(
        "--cases",
        default="all",
        metavar="LIST",
        help="comma-separated case letters, 'all', or 'none'",
    )
    p.add_argument(
        "--variants",
        default="all",
        metavar="LIST",
        help="comma-separated variant names, 'all', or 'none'",
    )
    p.add_argument("--manifest", metavar="PATH", help="series manifest to train on")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "rollout", parents=[common], help="evaluate trained networks over the horizon"
    )
    p.add_argument(
        "--mode",
        default="all",
        # rollout.MODES plus "all", spelled out: building the parser loads no numpy.
        choices=["multi", "single", "constant-gradient", "all"],
        help="evaluation mode (default all)",
    )
    p.add_argument("--manifest", metavar="PATH", help="series manifest to test on")
    p.add_argument("--model", metavar="DIR", help="model directory holding bundle.npz")
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser(
        "macnet", parents=[common], help="run the gated ML/CFD alternation loop"
    )
    p.set_defaults(func=cmd_macnet)

    p = sub.add_parser(
        "report", parents=[common], help="summarize every artifact in the run directory"
    )
    p.set_defaults(func=cmd_report)

    return parser


def _load_cfg(args):
    from .config import load_config

    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"out={args.out}")
    return load_config(args.config, overrides)


def _echo_config(cfg) -> str:
    from .io import dump_json

    os.makedirs(cfg.out, exist_ok=True)
    return dump_json(os.path.join(cfg.out, "effective_config.json"), cfg.tree)


def _load_series_checked(cfg, args, count, leaves):
    """The first `count` snapshots at --manifest (default: the run's own).

    The series must have been generated with the configured grid, physical
    parameters, initial condition and burn-in, so the config describes it,
    and hold at least `count` snapshots; `leaves` names the config leaves
    that set `count`. Only the snapshots returned are read.
    """
    from dataclasses import asdict

    from .io import load_series, load_series_origin

    manifest = args.manifest or os.path.join(cfg.out, "series", "manifest.json")
    series, grid, params = load_series(manifest, count)
    initial, burn_in = load_series_origin(manifest)
    for section, stored, configured in (
        ("grid", asdict(grid), asdict(cfg.grid)),
        ("physical", asdict(params), asdict(cfg.params)),
        ("initial", asdict(initial), asdict(cfg.initial)),
        ("generate", {"burn_in": burn_in}, {"burn_in": cfg.burn_in}),
    ):
        for name, value in stored.items():
            if value != configured[name]:
                raise ConfigurationError(
                    f"manifest {section}.{name} is {value!r}, configured {configured[name]!r}"
                )
    if len(series) < count:
        raise ConfigurationError(
            f"series holds {len(series)} snapshots, {leaves} needs {count}"
        )
    return series


def _burned_in_state(cfg):
    """The configured initial snapshot advanced `cfg.burn_in` solver steps."""
    from .solver import step

    state = cfg.initial_snapshot()
    for _ in range(cfg.burn_in):
        state = step(state, cfg.grid, cfg.params)
    return state


# ----- commands -----


def cmd_generate(args) -> int:
    from .io import save_series
    from .solver import simulate

    cfg = _load_cfg(args)
    _echo_config(cfg)
    series = simulate(_burned_in_state(cfg), cfg.grid, cfg.params, cfg.generate_horizon)
    manifest = save_series(
        os.path.join(cfg.out, "series"),
        series,
        cfg.grid,
        cfg.params,
        cfg.initial,
        cfg.burn_in,
        extra={"seed": cfg.seed},
    )
    log.info(
        "generate: %d burn-in steps, %d stored snapshots", cfg.burn_in, len(series)
    )
    print(manifest)
    return EXIT_OK


def cmd_train(args) -> int:
    from .io import save_bundle, save_train_reports
    from .network import param_count
    from .rollout import train_bundle
    from .solver import VARIABLES

    cfg = _load_cfg(args)
    series = _load_series_checked(
        cfg, args, cfg.train_window + 1, f"dataset.train_window={cfg.train_window}"
    )
    # The saved fvmnet-bundle-4 format and the benchmark's train check both
    # expect all six networks, velocities included, though a hybrid step runs
    # only the transported four; dropping v_x and v_r here waits for a
    # revision of both.
    bundle, reports = train_bundle(
        series, cfg.grid, cfg.partition, cfg.recipe, seed=cfg.seed, variables=VARIABLES
    )
    model_dir = os.path.join(cfg.out, "model")
    bundle_file = save_bundle(model_dir, bundle, cfg.seed, cfg.recipe.train)
    save_train_reports(model_dir, reports)
    _echo_config(cfg)
    log.info("train: %d parameters per network", param_count(cfg.recipe.spec))
    for v, rep in reports.items():
        log.info(
            "train %-7s best val %.3e at epoch %d (%d run)",
            v,
            rep.best_val_loss,
            rep.best_epoch,
            rep.epochs_run,
        )
    print(bundle_file)
    return EXIT_OK


def _parse_names(text: str, choices, what: str) -> List[str]:
    """The comma-separated names in `text`; 'all' is every choice, 'none' none."""
    if text == "all":
        return list(choices)
    if text == "none":
        return []
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in choices:
            raise ConfigurationError(
                f"unknown {what} {name!r}; choose from {sorted(choices)}"
            )
    return names


def cmd_ablate(args) -> int:
    from dataclasses import replace
    from functools import cache

    from .io import ABLATION_HEADER, ABLATION_TIMING_HEADER, write_csv
    from .network import CASES, param_count
    from .rollout import evaluate, train_bundle

    cfg = _load_cfg(args)
    w = cfg.train_window
    series = _load_series_checked(
        cfg, args, w + 2, f"dataset.train_window={w} plus the scored step"
    )
    cases = _parse_names(args.cases, sorted(CASES), "network case")
    variants = _parse_names(args.variants, VARIANTS, "variant")
    if not cases and not variants:
        raise ConfigurationError("nothing to ablate: both case and variant lists empty")

    # A recipe trained twice at one seed repeats its run bit for bit (the fvmn
    # variant at a swept case's spec, say), so each distinct recipe runs once.
    @cache
    def run_one(recipe):
        """(param_count, epochs, max T error, mean T error), the scored step's ml_ms."""
        bundle, reports = train_bundle(
            series[: w + 1], cfg.grid, cfg.partition, recipe, seed=cfg.seed
        )
        [rec] = evaluate("single", bundle, series, w, 1, cfg.partition, cfg.grid, cfg.params).steps
        epochs = sum(rep.epochs_run for rep in reports.values())
        scores = (param_count(recipe.spec), epochs, rec.max_errors["T"], rec.mean_errors["T"])
        return scores, rec.ml_ms

    rows, timing_rows = [], []

    def record(kind, name, input_mode, output_mode, result):
        scores, ml_ms = result
        rows.append((kind, name, input_mode, output_mode, *scores))
        timing_rows.append((kind, name, scores[0], ml_ms))
        log.info("ablate %s %s: max T error %.3e", kind, name, scores[2])

    fvmn = replace(cfg.recipe.layout, input_mode="tier", output_mode="derivative")
    for label in cases:
        result = run_one(replace(cfg.recipe, spec=CASES[label], layout=fvmn))
        record("case", label, "tier", "derivative", result)
    for name in variants:
        input_mode, output_mode = VARIANTS[name]
        layout = replace(cfg.recipe.layout, input_mode=input_mode, output_mode=output_mode)
        recipe = replace(
            cfg.recipe,
            spec=replace(cfg.recipe.spec, n_inputs=layout.width),
            layout=layout,
        )
        record("variant", name, input_mode, output_mode, run_one(recipe))
    os.makedirs(cfg.out, exist_ok=True)
    # Wall-clock figures go to their own sidecar so ablation.csv stays deterministic.
    paths = [
        write_csv(os.path.join(cfg.out, "ablation.csv"), ABLATION_HEADER, rows),
        write_csv(
            os.path.join(cfg.out, "timing_ablation.csv"), ABLATION_TIMING_HEADER, timing_rows
        ),
    ]
    _echo_config(cfg)
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_rollout(args) -> int:
    from .io import (
        dump_json,
        load_bundle,
        write_error_field,
        write_rollout_report,
    )
    from .rollout import MODES, evaluate, growth_fit_rss

    cfg = _load_cfg(args)
    w, horizon = cfg.train_window, cfg.rollout_horizon
    bundle = load_bundle(args.model or os.path.join(cfg.out, "model"))
    series = _load_series_checked(
        cfg, args, w + horizon + 1,
        f"dataset.train_window={w} and rollout.horizon={horizon}",
    )
    modes = MODES if args.mode == "all" else (args.mode,)

    os.makedirs(cfg.out, exist_ok=True)
    fits = {}
    for mode in modes:
        report = evaluate(mode, bundle, series, w, horizon, cfg.partition, cfg.grid, cfg.params)
        report_file, timing_file = write_rollout_report(cfg.out, report)
        errors_t = report.max_series("T")
        if len(errors_t) >= 3:
            linear, quadratic = growth_fit_rss(errors_t)
            fits[report.mode] = {
                "linear_rss": linear,
                "quadratic_rss": quadratic,
                "better": "quadratic" if quadratic < linear else "linear",
            }
        for k in sorted({1, horizon}):
            write_error_field(
                os.path.join(cfg.out, f"errors_{report.mode}_step_{k:04d}.csv"),
                report.states[k - 1],
                series[w + k],
            )
        log.info(
            "rollout %s: final max T error %.4e, final residual %.4f",
            report.mode,
            report.final_max("T"),
            report.residual_series()[-1],
        )
        print(report_file)
        print(timing_file)
    if fits:
        dump_json(os.path.join(cfg.out, "growth_fit.json"), fits)
    _echo_config(cfg)
    return EXIT_OK


def cmd_macnet(args) -> int:
    import time

    from .io import MACNET_TIMING_HEADER, write_audit, write_csv, write_trace
    from .macnet import hybrid_error_audit, run, step_costs, validate_trace
    from .solver import step

    cfg = _load_cfg(args)
    _echo_config(cfg)
    state = _burned_in_state(cfg)

    # The pure-solver reference run, each step timed for the solver step cost.
    truth, solver_seconds = [state.copy()], []
    for _ in range(cfg.macnet.horizon):
        t0 = time.perf_counter()
        truth.append(step(truth[-1], cfg.grid, cfg.params))
        solver_seconds.append(time.perf_counter() - t0)

    series, trace = run(
        state, cfg.macnet, cfg.grid, cfg.params, cfg.partition, seed=cfg.seed
    )
    validate_trace(trace)
    audit = hybrid_error_audit(series, trace, truth, cfg.partition)

    out_dir = os.path.join(cfg.out, "macnet")
    paths = [
        write_trace(out_dir, trace),
        write_audit(out_dir, audit),
        write_csv(
            os.path.join(out_dir, "macnet_timing.csv"),
            MACNET_TIMING_HEADER,
            [
                (trace.wall_seconds, trace.train_seconds, sum(solver_seconds),
                 *step_costs(trace, solver_seconds))
            ],
        ),
    ]
    log.info(
        "macnet: %d ML / %d CFD steps (%.0f%% ML), %d retrains, %d fallbacks",
        trace.ml_steps(),
        trace.cfd_steps(),
        100.0 * trace.ml_fraction(),
        len(trace.retrains),
        len(trace.fallbacks),
    )
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_report(args) -> int:
    from .config import load_config
    from .report import write_report

    run_dir = args.out
    if run_dir is None:
        run_dir = load_config(args.config, list(args.overrides)).out
    for path in write_report(run_dir):
        print(path)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)-7s %(name)s: %(message)s"
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.dump_defaults:
            from .config import DEFAULTS

            print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
            return EXIT_OK
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    if args.threads is not None:
        _apply_thread_cap(args.threads)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ArtifactIOError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
