"""`fvmnet report`: the run summary `report/`, built from other commands' artifacts.

Each CSV is read by column name, against the header `io` writes it with, so a
column added to one of those formats shifts nothing here.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

from .config import load_config
from .errors import ArtifactIOError, ConfigurationError
from .io import ABLATION_HEADER, MACNET_TIMING_HEADER, REPORT_HEADER, atomic_writer
from .io import load_series, load_trace, read_csv, read_json, write_csv
from .solver import IDX

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


@contextmanager
def _reading(path: str):
    """Turn an error raised while interpreting `path` into an ArtifactIOError naming it."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as err:
        raise ArtifactIOError(f"{path} is malformed: {type(err).__name__}: {err}") from None


def _records(path: str, header: str) -> List[Dict[str, str]]:
    """The rows of the CSV at `path` keyed by column name; one or more, none ragged."""
    names = header.split(",")
    rows = read_csv(path, header)
    if not rows:
        raise ArtifactIOError(f"{path} has a header but no rows")
    for k, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise ArtifactIOError(f"{path} row {k} has {len(row)} fields, not {len(names)}")
    return [dict(zip(names, row)) for row in rows]


def _write_lines(path: str, lines: List[str]) -> str:
    with atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_report(run_dir: str) -> List[str]:
    """Write `run_dir/report/`; returns the paths written, summary.md first."""
    if not os.path.isdir(run_dir):
        raise ArtifactIOError(f"run directory not found: {run_dir}")

    paths = {name: os.path.join(run_dir, rel) for name, rel in REPORT_INPUTS.items()}
    found = {name: path for name, path in paths.items() if os.path.exists(path)}
    if not found:
        raise ArtifactIOError(f"no artifacts found in {run_dir}")

    report_dir = os.path.join(run_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    lines = ["# Run summary", "", "## Artifacts", ""]
    lines += [f"- {name}: `{REPORT_INPUTS[name]}`" for name in sorted(found)]
    written = []

    def write_table(name: str, header: str, rows) -> None:
        written.append(write_csv(os.path.join(report_dir, name), header, rows))

    for mode in ("multi", "single", "constant-gradient"):
        key = f"report_{mode}"
        if key not in found:
            continue
        rows = _records(found[key], REPORT_HEADER)
        with _reading(found[key]):
            steps = {}  # step -> (scaled residual, variable -> (max, mean) error)
            for row in rows:
                _, errors = steps.setdefault(
                    int(row["step"]), (float(row["scaled_residual"]), {})
                )
                errors[row["variable"]] = (
                    float(row["max_rel_err"]), float(row["mean_rel_err"])
                )
            out_rows = [
                (k, *errors["T"], max(e[0] for e in errors.values()), residual)
                for k, (residual, errors) in sorted(steps.items())
            ]
        write_table(
            f"error_vs_step_{mode}.csv",
            "step,max_rel_err_T,mean_rel_err_T,max_rel_err_all,scaled_residual",
            out_rows,
        )
        _, final_max_t, _, _, final_residual = out_rows[-1]
        lines += [
            "",
            f"## Rollout {mode}: final-step max T error {final_max_t:.4e}, "
            f"final residual {final_residual:.4f}",
        ]

    if "growth_fit" in found:
        fits = read_json(found["growth_fit"])
        lines += ["", "## Error growth fits", ""]
        with _reading(found["growth_fit"]):
            for mode in sorted(fits):
                fit = fits[mode]
                lines.append(
                    f"- {mode}: linear RSS {fit['linear_rss']:.4e}, quadratic RSS "
                    f"{fit['quadratic_rss']:.4e} -> {fit['better']}"
                )

    if "ablation" in found:
        rows = _records(found["ablation"], ABLATION_HEADER)
        with _reading(found["ablation"]):
            cases = [
                (row["name"], int(row["param_count"]), int(row["epochs"]),
                 float(row["max_rel_err_T"]), float(row["mean_rel_err_T"]))
                for row in rows if row["kind"] == "case"
            ]
            if cases:
                header = "name,param_count,epochs,max_rel_err_T,mean_rel_err_T"
                write_table("case_bars.csv", header, cases)
            lines += ["", "## Ablation ranking (max T error, best first)", ""]
            for row in sorted(rows, key=lambda row: float(row["max_rel_err_T"])):
                lines.append(
                    f"- {row['kind']} {row['name']} ({row['input_mode']}/"
                    f"{row['output_mode']}, {row['param_count']} params): "
                    f"max {float(row['max_rel_err_T']):.4e}, "
                    f"mean {float(row['mean_rel_err_T']):.4e}"
                )

    if "series" in found and "effective_config.json" in found:
        config_file = found["effective_config.json"]
        try:
            cfg = load_config(config_file)
        except ConfigurationError as err:
            # The run's own config is an artifact here, not user input.
            raise ArtifactIOError(f"{config_file} is malformed: {err}") from None
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
        write_table(
            "target_hist.csv",
            "bin_left,bin_right,count",
            list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())),
        )
        lines += [
            "",
            f"## Temperature target distribution: {targets.size} samples, "
            f"peak bin {int(counts.max())} at "
            f"[{edges[int(counts.argmax())]:.4g}, {edges[int(counts.argmax()) + 1]:.4g}]",
        ]

    if "train_reports" in found:
        payload = read_json(found["train_reports"])
        lines += ["", "## Training", ""]
        with _reading(found["train_reports"]):
            for v in sorted(payload):
                rep = payload[v]
                lines.append(
                    f"- {v}: best val loss {rep['best_val_loss']:.4e} at epoch "
                    f"{rep['best_epoch']} ({rep['epochs_run']} run)"
                )

    if "trace" in found:
        loaded = load_trace(found["trace"])
        lines += [
            "",
            f"## MACnet: {loaded.ml_steps()} ML / {loaded.cfd_steps()} CFD steps "
            f"({100.0 * loaded.ml_fraction():.0f}% ML), "
            f"{len(loaded.retrains)} retrains, {len(loaded.fallbacks)} fallbacks",
        ]
        if "macnet_timing" in found:
            row = _records(found["macnet_timing"], MACNET_TIMING_HEADER)[0]
            with _reading(found["macnet_timing"]):
                t = {name: float(value) for name, value in row.items()}
            timing_lines = [
                "# MACnet timing",
                "",
                f"- wall {t['wall_seconds']:.2f}s (training {t['train_seconds']:.2f}s), "
                f"pure solver {t['pure_cfd_seconds']:.2f}s",
                f"- per step: hybrid {t['hybrid_step_ms']:.2f} ms (mean candidate), solver "
                f"{t['solver_step_ms']:.2f} ms (median), cost ratio {t['step_cost_ratio']:.3f} "
                f"(training {t['train_seconds']:.2f}s)",
            ]
            written.append(
                _write_lines(os.path.join(report_dir, "timing_summary.md"), timing_lines)
            )

    # Wall-clock figures stay in timing_summary.md, so reruns rewrite this byte for byte.
    return [_write_lines(os.path.join(report_dir, "summary.md"), lines), *written]
