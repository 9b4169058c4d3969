"""Command line driver: generate, train, ablate, rollout, macnet, report.

Heavy modules load inside the command functions so that `--threads` can cap
the numerical thread pools before the first array import. Every command
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


def _apply_thread_cap(argv: List[str]) -> None:
    """Honor --threads before anything imports the array stack."""
    cap = None
    for k, token in enumerate(argv):
        if token == "--threads" and k + 1 < len(argv):
            cap = argv[k + 1]
        elif token.startswith("--threads="):
            cap = token.split("=", 1)[1]
    if cap is not None and cap.isdigit() and int(cap) > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = cap
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
    from .config import DEFAULTS

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
        epilog="defaults (override via --config/--set):\n"
        + json.dumps(DEFAULTS, indent=2, sort_keys=True),
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
        choices=["multi", "single", "constant", "all"],
        help="evaluation mode (default all)",
    )
    p.add_argument("--manifest", metavar="PATH", help="series manifest to test on")
    p.add_argument("--model", metavar="DIR", help="model directory holding bundle.npz")
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser(
        "macnet", parents=[common], help="run the gated ML/CFD alternation loop"
    )
    p.add_argument(
        "--tolerance",
        type=float,
        metavar="X",
        help="shorthand for --set macnet.tolerance=X (inf allowed)",
    )
    p.add_argument(
        "--emit-residuals",
        action="store_true",
        help="also write the per-ML-step residual series",
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


def _load_series_checked(cfg, args, count):
    """The series at --manifest (default: the run's own), on the configured grid.

    Only its first `count` snapshots are read and returned.
    """
    from .io import load_series

    manifest = args.manifest or os.path.join(cfg.out, "series", "manifest.json")
    series, grid, params = load_series(manifest, count)
    if grid != cfg.grid:
        raise ConfigurationError(
            f"manifest grid {grid} does not match configured grid {cfg.grid}"
        )
    return series, grid, params


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
        extra={"burn_in": cfg.burn_in, "seed": cfg.seed},
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

    cfg = _load_cfg(args)
    need = cfg.train_window + 1
    series, grid, _ = _load_series_checked(cfg, args, need)
    if len(series) < need:
        raise ConfigurationError(
            f"series holds {len(series)} snapshots, "
            f"dataset.train_window={cfg.train_window} needs {need}"
        )
    bundle, reports = train_bundle(
        series[:need], grid, cfg.partition, cfg.recipe, seed=cfg.seed
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

    from .io import ABLATION_HEADER, write_csv
    from .network import CASES, param_count
    from .rollout import residual_denominator, single_step, train_bundle

    cfg = _load_cfg(args)
    w = cfg.train_window
    series, grid, params = _load_series_checked(cfg, args, w + 2)
    if len(series) < w + 2:
        raise ConfigurationError(
            f"ablation scores the step after the training window; "
            f"series holds {len(series)} snapshots, needs {w + 2}"
        )
    cases = _parse_names(args.cases, sorted(CASES), "network case")
    variants = _parse_names(args.variants, VARIANTS, "variant")
    if not cases and not variants:
        raise ConfigurationError("nothing to ablate: both case and variant lists empty")

    denominator = residual_denominator(series[: w + 1], grid, params)

    def run_one(recipe):
        bundle, reports = train_bundle(
            series[: w + 1], grid, cfg.partition, recipe, seed=cfg.seed
        )
        rec = single_step(
            bundle, series[w : w + 2], cfg.partition, grid, params, denominator
        ).steps[0]
        epochs = sum(rep.epochs_run for rep in reports.values())
        return param_count(recipe.spec), epochs, rec.max_errors["T"], rec.mean_errors["T"]

    rows = []
    case_cache = {}
    fvmn = replace(cfg.recipe.layout, input_mode="tier", output_mode="derivative")
    for label in cases:
        recipe = replace(cfg.recipe, spec=CASES[label], layout=fvmn)
        scores = run_one(recipe)
        case_cache[(recipe.spec, fvmn)] = scores
        rows.append(("case", label, "tier", "derivative", *scores))
        log.info("ablate case %s: max T error %.3e", label, scores[2])
    for name in variants:
        input_mode, output_mode = VARIANTS[name]
        layout = replace(cfg.recipe.layout, input_mode=input_mode, output_mode=output_mode)
        recipe = replace(
            cfg.recipe,
            spec=replace(cfg.recipe.spec, n_inputs=layout.width),
            layout=layout,
        )
        # The fvmn variant at a swept case's spec repeats that case's run
        # bit for bit (same seed), so reuse its scores when available.
        key = (recipe.spec, layout)
        scores = case_cache[key] if key in case_cache else run_one(recipe)
        rows.append(("variant", name, input_mode, output_mode, *scores))
        log.info("ablate variant %s: max T error %.3e", name, scores[2])
    os.makedirs(cfg.out, exist_ok=True)
    path = write_csv(os.path.join(cfg.out, "ablation.csv"), ABLATION_HEADER, rows)
    _echo_config(cfg)
    print(path)
    return EXIT_OK


def cmd_rollout(args) -> int:
    from .io import (
        dump_json,
        load_bundle,
        write_error_field,
        write_rollout_report,
    )
    from .rollout import (
        constant_gradient,
        growth_fit_rss,
        multi_step,
        residual_denominator,
        single_step,
        window_gradient,
    )

    cfg = _load_cfg(args)
    w, horizon = cfg.train_window, cfg.rollout_horizon
    need = w + horizon + 1
    series, grid, params = _load_series_checked(cfg, args, need)
    model_dir = args.model or os.path.join(cfg.out, "model")
    bundle = load_bundle(model_dir)
    if len(series) < need:
        raise ConfigurationError(
            f"rollout.horizon={horizon} after a {w}-step training window needs "
            f"{need} snapshots, series holds {len(series)}"
        )
    truth = series[w : need]
    denominator = residual_denominator(series[: w + 1], grid, params)
    modes = ["multi", "single", "constant"] if args.mode == "all" else [args.mode]

    os.makedirs(cfg.out, exist_ok=True)
    fits = {}
    for mode in modes:
        if mode == "multi":
            report = multi_step(
                bundle, truth[0], horizon, truth, cfg.partition, grid, params,
                denominator,
            )
        elif mode == "single":
            report = single_step(
                bundle, truth, cfg.partition, grid, params, denominator,
                horizon=horizon,
            )
        else:
            gradient = window_gradient(series[w - 1], series[w], grid)
            report = constant_gradient(
                truth[0], gradient, horizon, truth, cfg.partition, grid, params,
                denominator,
            )
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
                truth[k],
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
    from .solver import simulate

    if args.tolerance is not None:
        args.overrides = list(args.overrides) + [f"macnet.tolerance={args.tolerance}"]
    cfg = _load_cfg(args)
    _echo_config(cfg)
    state = _burned_in_state(cfg)

    t0 = time.perf_counter()
    truth = simulate(state, cfg.grid, cfg.params, cfg.macnet.horizon)
    pure_seconds = time.perf_counter() - t0

    series, trace = run(
        state, cfg.macnet, cfg.grid, cfg.params, cfg.partition, seed=cfg.seed
    )
    validate_trace(trace)
    audit = hybrid_error_audit(series, trace, truth, cfg.partition)

    out_dir = os.path.join(cfg.out, "macnet")
    paths = write_trace(out_dir, trace, emit_residuals=args.emit_residuals)
    paths.append(write_audit(out_dir, audit))
    paths.append(
        write_csv(
            os.path.join(out_dir, "macnet_timing.csv"),
            MACNET_TIMING_HEADER,
            [
                (trace.wall_seconds, trace.train_seconds, pure_seconds,
                 *step_costs(trace, pure_seconds))
            ],
        )
    )
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
    argv = list(sys.argv[1:] if argv is None else argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)-7s %(name)s: %(message)s"
        )
    _apply_thread_cap(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.dump_defaults:
            from .config import DEFAULTS

            print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
            return EXIT_OK
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
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
