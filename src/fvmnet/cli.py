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
from contextlib import contextmanager
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
ABLATION_HEADER = (
    "kind,name,input_mode,output_mode,param_count,epochs,max_rel_err_T,mean_rel_err_T"
)
MACNET_TIMING_HEADER = (
    "wall_seconds,train_seconds,pure_cfd_seconds,"
    "hybrid_step_ms,solver_step_ms,step_cost_ratio"
)

# Every artifact `report` reads, by name, relative to the run directory.
REPORT_INPUTS = {
    "effective_config.json": "effective_config.json",
    "series": "series/manifest.json",
    "train_reports": "model/train_reports.json",
    "ablation": "ablation.csv",
    "report_multi": "report_multi.csv",
    "report_single": "report_single.csv",
    "report_constant-gradient": "report_constant-gradient.csv",
    "growth_fit": "growth_fit.json",
    "trace": "macnet/trace.json",
    "audit": "macnet/audit.csv",
    "macnet_timing": "macnet/macnet_timing.csv",
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

    from .io import write_csv
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
    ranked = sorted(rows, key=lambda row: row[6])
    for row in ranked:
        log.info(
            "ablation rank: %-8s %-15s max %.4e mean %.4e", row[0], row[1], row[6], row[7]
        )
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

    from .io import write_audit, write_csv, write_trace
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


@contextmanager
def _reading(path: str):
    """Turn an error raised while interpreting `path` into an ArtifactIOError naming it."""
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as err:
        raise ArtifactIOError(f"{path} is malformed: {type(err).__name__}: {err}") from None


def _read_rows(path: str, header: str) -> List[List[str]]:
    """The rows of a CSV that `report` reads; each such file holds at least one."""
    from .io import read_csv

    rows = read_csv(path, header)
    if not rows:
        raise ArtifactIOError(f"{path} has a header but no rows")
    return rows


def _write_lines(path: str, lines: List[str]) -> str:
    from .io import atomic_writer

    with atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_report(args) -> int:
    import numpy as np

    from .config import load_config
    from .io import REPORT_HEADER, load_series, read_json, write_csv
    from .solver import IDX

    run_dir = args.out
    if run_dir is None:
        cfg_probe = load_config(args.config, list(args.overrides))
        run_dir = cfg_probe.out
    if not os.path.isdir(run_dir):
        raise ArtifactIOError(f"run directory not found: {run_dir}")

    found = {}
    for name, rel in REPORT_INPUTS.items():
        path = os.path.join(run_dir, rel)
        if os.path.exists(path):
            found[name] = path
    if not found:
        raise ArtifactIOError(f"no artifacts found in {run_dir}")

    report_dir = os.path.join(run_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    lines = ["# Run summary", "", "## Artifacts", ""]
    for name in sorted(found):
        lines.append(f"- {name}: `{found[name]}`")
    written = []

    for mode in ("multi", "single", "constant-gradient"):
        key = f"report_{mode}"
        if key not in found:
            continue
        rows = _read_rows(found[key], REPORT_HEADER)
        with _reading(found[key]):
            by_step = {}
            for row in rows:
                rec = by_step.setdefault(int(row[0]), {"residual": float(row[5])})
                rec[row[2]] = (float(row[3]), float(row[4]))
            out_rows = []
            for k in sorted(by_step):
                rec = by_step[k]
                all_max = max(v[0] for key2, v in rec.items() if key2 != "residual")
                out_rows.append(
                    (k, rec["T"][0], rec["T"][1], all_max, rec["residual"])
                )
        written.append(
            write_csv(
                os.path.join(report_dir, f"error_vs_step_{mode}.csv"),
                "step,max_rel_err_T,mean_rel_err_T,max_rel_err_all,scaled_residual",
                out_rows,
            )
        )
        final = out_rows[-1]
        lines.append("")
        lines.append(
            f"## Rollout {mode}: final-step max T error {final[1]:.4e}, "
            f"final residual {final[4]:.4f}"
        )

    if "growth_fit" in found:
        fits = read_json(found["growth_fit"])
        lines.append("")
        lines.append("## Error growth fits")
        lines.append("")
        with _reading(found["growth_fit"]):
            for mode in sorted(fits):
                fit = fits[mode]
                lines.append(
                    f"- {mode}: linear RSS {fit['linear_rss']:.4e}, quadratic RSS "
                    f"{fit['quadratic_rss']:.4e} -> {fit['better']}"
                )

    if "ablation" in found:
        rows = _read_rows(found["ablation"], ABLATION_HEADER)
        with _reading(found["ablation"]):
            case_rows = [row for row in rows if row[0] == "case"]
            if case_rows:
                written.append(
                    write_csv(
                        os.path.join(report_dir, "case_bars.csv"),
                        "name,param_count,epochs,max_rel_err_T,mean_rel_err_T",
                        [
                            (r[1], int(r[4]), int(r[5]), float(r[6]), float(r[7]))
                            for r in case_rows
                        ],
                    )
                )
            ranked = sorted(rows, key=lambda r: float(r[6]))
            lines.append("")
            lines.append("## Ablation ranking (max T error, best first)")
            lines.append("")
            for r in ranked:
                lines.append(
                    f"- {r[0]} {r[1]} ({r[2]}/{r[3]}, {r[4]} params): "
                    f"max {float(r[6]):.4e}, mean {float(r[7]):.4e}"
                )

    if "series" in found and "effective_config.json" in found:
        try:
            cfg = load_config(found["effective_config.json"])
        except ConfigurationError as err:
            # The run's own config is an artifact here, not user input.
            raise ArtifactIOError(
                f"{found['effective_config.json']} is malformed: {err}"
            ) from None
        window, grid, _ = load_series(found["series"], cfg.train_window + 1)
        layout = cfg.recipe.layout
        targets = np.concatenate(
            [
                layout.targets(a, b, cfg.partition, grid.dt)[:, IDX["T"]]
                for a, b in zip(window[:-1], window[1:])
            ]
        )
        if layout.output_mode == "derivative":
            targets = targets * grid.dt
        counts, edges = np.histogram(targets, bins=41)
        written.append(
            write_csv(
                os.path.join(report_dir, "target_hist.csv"),
                "bin_left,bin_right,count",
                [
                    (float(edges[k]), float(edges[k + 1]), int(counts[k]))
                    for k in range(len(counts))
                ],
            )
        )
        lines.append("")
        lines.append(
            f"## Temperature target distribution: {targets.size} samples, "
            f"peak bin {int(counts.max())} at "
            f"[{edges[int(counts.argmax())]:.4g}, {edges[int(counts.argmax()) + 1]:.4g}]"
        )

    if "train_reports" in found:
        payload = read_json(found["train_reports"])
        lines.append("")
        lines.append("## Training")
        lines.append("")
        with _reading(found["train_reports"]):
            for v in sorted(payload):
                rep = payload[v]
                lines.append(
                    f"- {v}: best val loss {rep['best_val_loss']:.4e} at epoch "
                    f"{rep['best_epoch']} ({rep['epochs_run']} run)"
                )

    if "trace" in found:
        from .io import load_trace

        loaded = load_trace(found["trace"])
        lines.append("")
        lines.append(
            f"## MACnet: {loaded.ml_steps()} ML / {loaded.cfd_steps()} CFD steps "
            f"({100.0 * loaded.ml_fraction():.0f}% ML), "
            f"{len(loaded.retrains)} retrains, {len(loaded.fallbacks)} fallbacks"
        )
        if "macnet_timing" in found:
            row = _read_rows(found["macnet_timing"], MACNET_TIMING_HEADER)[0]
            with _reading(found["macnet_timing"]):
                timing_lines = [
                    "# MACnet timing",
                    "",
                    f"- wall {float(row[0]):.2f}s (training {float(row[1]):.2f}s), "
                    f"pure solver {float(row[2]):.2f}s",
                    f"- per step: hybrid {float(row[3]):.2f} ms, solver "
                    f"{float(row[4]):.2f} ms, cost ratio {float(row[5]):.3f} "
                    f"(training {float(row[1]):.2f}s)",
                ]
            written.append(
                _write_lines(os.path.join(report_dir, "timing_summary.md"), timing_lines)
            )

    # Wall-clock figures stay in timing_summary.md, so reruns rewrite this byte for byte.
    summary = _write_lines(os.path.join(report_dir, "summary.md"), lines)
    print(summary)
    for path in written:
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
