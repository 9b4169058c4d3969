"""End-to-end command tests at miniature scale, run in process."""

import argparse
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import fvmnet.io
import fvmnet.rollout
from fvmnet.cli import build_parser, main
from fvmnet.config import load_config
from fvmnet.io import (
    ABLATION_HEADER,
    ABLATION_TIMING_HEADER,
    MACNET_TIMING_HEADER,
    REPORT_HEADER,
    load_bundle,
    load_series,
    load_trace,
    read_csv,
    save_series,
    write_trace,
)
from fvmnet.macnet import MacnetTrace, Phase, validate_trace
from fvmnet.network import NetworkSpec, param_count
from fvmnet.rollout import MODES
from fvmnet.solver import VARIABLES, GridSpec, PhysicalParams, Snapshot

SMALL = {
    "grid": {"m": 24, "n": 8, "dx": 0.001, "dr": 0.001, "dt": 0.001},
    "partition": {"m_star": 5},
    "generate": {"burn_in": 10, "horizon": 14},
    "train": {"max_epochs": 25, "patience": 25, "batch_size": 64},
    "rollout": {"horizon": 6},
    "macnet": {"cfd_window": 2, "tolerance": 5.0, "max_ml_steps": 4, "horizon": 8},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture()
def generated(config_path, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("generate", "--config", config_path, "--out", out) == 0
    return config_path, out


@pytest.fixture()
def trained(generated):
    config_path, out = generated
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    return config_path, out


# ----- generate -----


def test_generate_writes_horizon_plus_one_snapshots(generated, capsys):
    _, out = generated
    files = sorted(os.listdir(os.path.join(out, "series")))
    snaps = [name for name in files if name.startswith("snap_")]
    assert len(snaps) == SMALL["generate"]["horizon"] + 1
    assert "manifest.json" in files
    assert os.path.exists(os.path.join(out, "effective_config.json"))


def test_generate_is_rerun_stable(generated):
    config_path, out = generated
    series_dir = os.path.join(out, "series")
    before = {
        name: read_bytes(os.path.join(series_dir, name))
        for name in os.listdir(series_dir)
    }
    assert run_cli("generate", "--config", config_path, "--out", out) == 0
    for name, blob in before.items():
        assert read_bytes(os.path.join(series_dir, name)) == blob, name


def test_generate_rejects_unstable_timestep(config_path, tmp_path, capsys):
    code = run_cli(
        "generate", "--config", config_path,
        "--out", str(tmp_path / "x"), "--set", "grid.dt=0.01",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "CFL" in err or "diffusion" in err


def test_generate_burn_in_advances_time(generated):
    _, out = generated
    series, grid, _ = load_series(os.path.join(out, "series", "manifest.json"))
    assert series[0].time == pytest.approx(SMALL["generate"]["burn_in"] * grid.dt)


# ----- train -----


def test_train_writes_checkpoints_and_reports(trained, capsys):
    _, out = trained
    model = os.path.join(out, "model")
    assert sorted(os.listdir(model)) == ["bundle.npz", "train_reports.json"]
    with np.load(os.path.join(model, "bundle.npz")) as archive:
        meta = json.loads(str(archive["meta"]))
    assert param_count(NetworkSpec(**meta["networks"]["T"]["spec"])) == 10369
    bundle = load_bundle(model)
    assert bundle.networks["T"].spec.hidden == (64, 64, 64)


def test_train_is_seed_deterministic(generated):
    config_path, out = generated
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    first = read_bytes(os.path.join(out, "model", "train_reports.json"))
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    assert read_bytes(os.path.join(out, "model", "train_reports.json")) == first


@pytest.mark.parametrize("command", ["train", "ablate", "rollout"])
def test_commands_refuse_a_series_generated_with_other_physics(trained, capsys, command):
    config_path, out = trained
    echo = read_bytes(os.path.join(out, "effective_config.json"))
    for overrides, message in (
        (
            ["physical.arrhenius_a=0", "physical.heat_release=1"],
            "manifest physical.arrhenius_a is 10000.0, configured 0.0",
        ),
        (["initial.fuel=0.1"], "manifest initial.fuel is 0.08, configured 0.1"),
        (["generate.burn_in=3"], "manifest generate.burn_in is 10, configured 3"),
    ):
        flags = [arg for leaf in overrides for arg in ("--set", leaf)]
        assert run_cli(command, "--config", config_path, "--out", out, *flags) == 2
        assert message in capsys.readouterr().err
        # Nothing ran, so the run's echo still states how its series was made.
        assert read_bytes(os.path.join(out, "effective_config.json")) == echo


def test_train_missing_manifest_exit_code(config_path, tmp_path, capsys):
    code = run_cli("train", "--config", config_path, "--out", str(tmp_path / "void"))
    assert code == 4
    assert "manifest not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, leaf",
    [
        (["train", "--set", "dataset.train_window=99"], "dataset.train_window=99"),
        (["ablate", "--set", "dataset.train_window=14"], "dataset.train_window=14"),
        (["rollout", "--set", "rollout.horizon=50"], "rollout.horizon=50"),
    ],
    ids=["train", "ablate", "rollout"],
)
def test_train_window_longer_than_series_is_reported(trained, capsys, argv, leaf):
    config_path, out = trained
    assert run_cli(*argv, "--config", config_path, "--out", out) == 2
    assert leaf in capsys.readouterr().err


# ----- ablate -----


def test_ablate_rows_and_fvmn_reuse(generated):
    config_path, out = generated
    assert (
        run_cli(
            "ablate", "--config", config_path, "--out", out,
            "--cases", "a,c", "--variants", "all",
        )
        == 0
    )
    rows = read_csv(
        os.path.join(out, "ablation.csv"),
        "kind,name,input_mode,output_mode,param_count,epochs,"
        "max_rel_err_T,mean_rel_err_T",
    )
    assert [(r[0], r[1]) for r in rows] == [
        ("case", "a"), ("case", "c"),
        ("variant", "fvmn"), ("variant", "tier-only"),
        ("variant", "derivative-only"), ("variant", "general"),
    ]
    by_name = {r[1]: r for r in rows}
    assert by_name["fvmn"][6] == by_name["c"][6]
    assert by_name["fvmn"][4] == by_name["c"][4] == "10369"
    assert by_name["general"][2:4] == ["center", "absolute"]
    assert by_name["tier-only"][2:4] == ["tier", "absolute"]
    assert by_name["derivative-only"][2:4] == ["center", "derivative"]


def test_ablate_writes_one_timing_row_per_ablation_row(generated):
    config_path, out = generated
    assert (
        run_cli(
            "ablate", "--config", config_path, "--out", out,
            "--cases", "a", "--variants", "fvmn,general",
        )
        == 0
    )
    ablation = read_csv(os.path.join(out, "ablation.csv"), ABLATION_HEADER)
    with open(os.path.join(out, "timing_ablation.csv")) as fh:
        assert fh.readline().strip() == "kind,name,param_count,ml_ms"
    timing = read_csv(os.path.join(out, "timing_ablation.csv"), ABLATION_TIMING_HEADER)
    assert len(timing) == len(ablation) == 3
    assert [r[:3] for r in timing] == [[r[0], r[1], r[4]] for r in ablation]
    assert all(float(r[3]) > 0.0 for r in timing)


def test_ablate_rejects_unknown_case(generated, capsys):
    config_path, out = generated
    assert (
        run_cli("ablate", "--config", config_path, "--out", out, "--cases", "z") == 2
    )
    assert "unknown network case" in capsys.readouterr().err
    assert (
        run_cli("ablate", "--config", config_path, "--out", out, "--variants", "a,bogus")
        == 2
    )
    assert "unknown variant 'a'" in capsys.readouterr().err


def test_ablate_rejects_empty_selection(generated, capsys):
    config_path, out = generated
    code = run_cli(
        "ablate", "--config", config_path, "--out", out,
        "--cases", "none", "--variants", "none",
    )
    assert code == 2


# ----- rollout -----


def test_rollout_all_modes(trained):
    config_path, out = trained
    assert run_cli("rollout", "--config", config_path, "--out", out) == 0
    reports = {}
    for mode in MODES:
        rows = read_csv(os.path.join(out, f"report_{mode}.csv"), REPORT_HEADER)
        assert len(rows) == SMALL["rollout"]["horizon"] * len(VARIABLES)
        assert os.path.exists(os.path.join(out, f"timing_{mode}.csv"))
        reports[mode] = rows
    step1 = lambda rows: [r[2:] for r in rows if r[0] == "1"]
    assert step1(reports["multi"]) == step1(reports["single"])
    fits = json.loads(read_bytes(os.path.join(out, "growth_fit.json")))
    assert set(fits) == set(MODES)
    for mode in MODES:
        for k in (1, SMALL["rollout"]["horizon"]):
            assert os.path.exists(
                os.path.join(out, f"errors_{mode}_step_{k:04d}.csv")
            )


@pytest.mark.parametrize("mode", MODES)
def test_rollout_single_mode_writes_one_report(trained, tmp_path, mode):
    config_path, out = trained
    alone = str(tmp_path / "alone")
    assert (
        run_cli(
            "rollout", "--config", config_path, "--out", alone, "--mode", mode,
            "--model", os.path.join(out, "model"),
            "--manifest", os.path.join(out, "series", "manifest.json"),
        )
        == 0
    )
    reports = [name for name in os.listdir(alone) if name.startswith("report_")]
    assert reports == [f"report_{mode}.csv"]
    assert run_cli("rollout", "--config", config_path, "--out", out, "--mode", "all") == 0
    assert read_bytes(os.path.join(alone, reports[0])) == read_bytes(
        os.path.join(out, reports[0])
    )


def test_rollout_mode_choices_are_the_evaluation_modes(tmp_path):
    [rollout] = [
        action.choices["rollout"] for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    [mode] = [action for action in rollout._actions if action.dest == "mode"]
    assert mode.choices == [*MODES, "all"]
    # The mode's one name is constant-gradient.
    with pytest.raises(SystemExit) as exit_:
        run_cli("rollout", "--out", str(tmp_path), "--mode", "constant")
    assert exit_.value.code == 2


def test_rollout_runs_each_hybrid_step_once(trained, monkeypatch):
    config_path, out = trained
    original = fvmnet.rollout.timed_predict_step
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].time)
        return original(*args, **kwargs)

    monkeypatch.setattr(fvmnet.rollout, "timed_predict_step", counted)
    assert run_cli("rollout", "--config", config_path, "--out", out) == 0
    # multi and single step the networks; the constant-gradient baseline does not.
    assert len(calls) == 2 * SMALL["rollout"]["horizon"]


def test_rollout_refuses_a_nonfinite_snapshot(trained, capsys):
    config_path, out = trained
    snap = os.path.join(out, "series", "snap_000005.npy")
    values = np.load(snap)
    values[VARIABLES.index("T"), 10, 3] = np.nan
    np.save(snap, values)
    for mode in ("multi", "single"):
        code = run_cli("rollout", "--config", config_path, "--out", out, "--mode", mode)
        assert code == 4
        assert f"{snap} holds a non-finite T at cell (10, 3)" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, f"report_{mode}.csv"))


def test_rollout_without_model_exit_code(generated, capsys):
    config_path, out = generated
    assert run_cli("rollout", "--config", config_path, "--out", out) == 4
    assert "not found" in capsys.readouterr().err


# ----- macnet -----


def test_macnet_writes_valid_trace_and_audit(config_path, tmp_path):
    out = str(tmp_path / "mac")
    assert (
        run_cli("macnet", "--config", config_path, "--out", out)
        == 0
    )
    trace = load_trace(os.path.join(out, "macnet", "trace.json"))
    validate_trace(trace)
    assert trace.horizon == SMALL["macnet"]["horizon"]
    audit = read_csv(
        os.path.join(out, "macnet", "audit.csv"),
        "step,mode,variable,max_rel_err,mean_rel_err",
    )
    assert len(audit) == trace.horizon * len(VARIABLES)
    timing = read_csv(
        os.path.join(out, "macnet", "macnet_timing.csv"),
        "wall_seconds,train_seconds,pure_cfd_seconds,"
        "hybrid_step_ms,solver_step_ms,step_cost_ratio",
    )
    assert float(timing[0][0]) > 0.0
    assert trace.candidates() > 0
    hybrid_ms, solver_ms, ratio = (float(v) for v in timing[0][3:])
    assert hybrid_ms > 0.0 and solver_ms > 0.0
    assert ratio == pytest.approx(hybrid_ms / solver_ms)
    # solver_ms is the median pure-solver step: at least half the steps take
    # that long or longer, and they all fit in the pure-solver total.
    assert solver_ms * (trace.horizon // 2) <= 1e3 * float(timing[0][2])
    assert run_cli("report", "--out", out) == 0
    timing_summary = open(os.path.join(out, "report", "timing_summary.md")).read()
    assert f"cost ratio {ratio:.3f}" in timing_summary
    assert "speedup" not in timing_summary
    # --set macnet.tolerance=X is the one way to set the tolerance.
    with pytest.raises(SystemExit) as exit_:
        run_cli("macnet", "--config", config_path, "--out", out, "--tolerance", "5")
    assert exit_.value.code == 2


def test_macnet_infinite_tolerance_retrains_once(config_path, tmp_path):
    out = str(tmp_path / "macinf")
    assert (
        run_cli(
            "macnet", "--config", config_path, "--out", out,
            "--set", "macnet.tolerance=inf",
        )
        == 0
    )
    trace = load_trace(os.path.join(out, "macnet", "trace.json"))
    assert len(trace.retrains) == 1
    assert len(trace.fallbacks) == 0
    echo = json.loads(read_bytes(os.path.join(out, "effective_config.json")))
    assert echo["macnet"]["tolerance"] == float("inf")


def test_macnet_tiny_tolerance_never_accepts_ml(config_path, tmp_path):
    out = str(tmp_path / "maczero")
    assert (
        run_cli(
            "macnet", "--config", config_path, "--out", out,
            "--set", "macnet.tolerance=1e-12",
        )
        == 0
    )
    trace = load_trace(os.path.join(out, "macnet", "trace.json"))
    assert trace.ml_fraction() == 0.0
    assert len(trace.fallbacks) > 0


def test_macnet_missing_field_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"macnet": {"tolerance": None}}))
    assert run_cli("macnet", "--config", str(bad), "--out", str(tmp_path / "x")) == 2
    assert "macnet.tolerance" in capsys.readouterr().err


# Every range and choice the config casters leave to the object a leaf builds:
# (override, the leaf name the object's message gives).
OBJECT_CHECKED_LEAVES = [
    ("dataset.input_mode=everything", "input_mode"),
    ("dataset.output_mode=rate", "output_mode"),
    ("dataset.split_fraction=1.0", "split_fraction"),
    ("dataset.wall_values=[0,0,300,0,0]", "wall_values"),
    ("network.hidden=[16,0]", "hidden"),
    ("network.activation=tanh", "activation"),
    ("physical.axial_bc=periodic", "axial_bc"),
    ("train.batch_size=0", "batch_size"),
    ("train.max_epochs=0", "max_epochs"),
    ("train.patience=0", "patience"),
    ("macnet.cfd_window=0", "cfd_window"),
    ("macnet.max_ml_steps=0", "max_ml_steps"),
    ("macnet.retrain=sometimes", "retrain"),
    ("physical.diffusivity.v_x=1e-5", "diffusivity"),
]


@pytest.mark.parametrize(
    "override, leaf", OBJECT_CHECKED_LEAVES, ids=[o.split("=")[0] for o, _ in OBJECT_CHECKED_LEAVES]
)
def test_object_checked_leaves_exit_2_naming_the_leaf(tmp_path, capsys, override, leaf):
    out = tmp_path / "run"
    assert run_cli("train", "--out", str(out), "--set", override) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and leaf in err, err
    assert not (out / "effective_config.json").exists()


# ----- report -----


def test_report_aggregates_everything(trained, capsys):
    config_path, out = trained
    assert run_cli("rollout", "--config", config_path, "--out", out) == 0
    assert (
        run_cli(
            "ablate", "--config", config_path, "--out", out,
            "--cases", "a", "--variants", "none",
        )
        == 0
    )
    assert run_cli("report", "--config", config_path, "--out", out) == 0
    capsys.readouterr()
    summary = open(os.path.join(out, "report", "summary.md")).read()
    for artifact in ("series", "train_reports", "ablation", "report_multi"):
        assert artifact in summary
    for mode in MODES:
        rows = read_csv(
            os.path.join(out, "report", f"error_vs_step_{mode}.csv"),
            "step,max_rel_err_T,mean_rel_err_T,max_rel_err_all,scaled_residual",
        )
        assert len(rows) == SMALL["rollout"]["horizon"]
    bars = read_csv(
        os.path.join(out, "report", "case_bars.csv"),
        "name,param_count,epochs,max_rel_err_T,mean_rel_err_T",
    )
    assert bars[0][0] == "a"


def test_report_histogram_bins_sum_to_sample_count(trained):
    config_path, out = trained
    assert run_cli("report", "--config", config_path, "--out", out) == 0
    rows = read_csv(
        os.path.join(out, "report", "target_hist.csv"), "bin_left,bin_right,count"
    )
    total = sum(int(r[2]) for r in rows)
    m, n = SMALL["grid"]["m"], SMALL["grid"]["n"]
    flame_cols = m - 2 * SMALL["partition"]["m_star"]
    assert total == flame_cols * n


def test_each_command_parses_only_the_snapshots_it_uses(trained, monkeypatch):
    config_path, out = trained
    parsed = []
    original = fvmnet.io._load_snapshot

    def counted(path, *args):
        parsed.append(os.path.basename(path))
        return original(path, *args)

    monkeypatch.setattr(fvmnet.io, "_load_snapshot", counted)
    w, horizon = 2, SMALL["rollout"]["horizon"]
    uses = [
        ("train", [], w + 1),
        ("rollout", [], w + horizon + 1),
        ("ablate", ["--cases", "a", "--variants", "none"], w + 2),
        ("report", [], w + 1),  # the training window's target histogram
    ]
    for command, flags, count in uses:
        parsed.clear()
        argv = [command, "--config", config_path, "--out", out, *flags]
        assert run_cli(*argv, "--set", f"dataset.train_window={w}") == 0
        assert parsed == [f"snap_{k:06d}.npy" for k in range(count)], command


def test_report_empty_directory_exit_code(tmp_path, capsys):
    empty = tmp_path / "void"
    empty.mkdir()
    assert run_cli("report", "--out", str(empty)) == 4
    assert "no artifacts" in capsys.readouterr().err


# A well-formed copy of each small artifact `report` reads, by path in the run.
REPORT_INPUTS = {
    "report_multi.csv": REPORT_HEADER + "\n1,multi,T,0.5,0.25,1.5\n",
    "ablation.csv": ABLATION_HEADER + "\ncase,a,tier,derivative,31,4,0.5,0.25\n",
    "growth_fit.json": json.dumps(
        {"multi": {"linear_rss": 1.0, "quadratic_rss": 0.5, "better": "quadratic"}}
    ),
    "model/train_reports.json": json.dumps(
        {"T": {"best_val_loss": 0.5, "best_epoch": 3, "epochs_run": 4}}
    ),
    "macnet/macnet_timing.csv": MACNET_TIMING_HEADER + "\n9.5,3.25,2.0,1.5,2.5,0.6\n",
    "effective_config.json": json.dumps({"grid": SMALL["grid"], "partition": SMALL["partition"]}),
}
# (artifact, malformed text)
MALFORMED_REPORT_INPUTS = {
    "report-header-only": ("report_multi.csv", REPORT_HEADER + "\n"),
    "report-non-numeric": ("report_multi.csv", REPORT_HEADER + "\n1,multi,T,abc,0.25,1.5\n"),
    "report-extra-field": ("report_multi.csv", REPORT_HEADER + "\n1,multi,T,0.5,0.25,1.5,9\n"),
    "ablation-header-only": ("ablation.csv", ABLATION_HEADER + "\n"),
    "ablation-non-numeric": (
        "ablation.csv", ABLATION_HEADER + "\ncase,a,tier,derivative,31,4,abc,0.25\n"
    ),
    "ablation-extra-field": (
        "ablation.csv", ABLATION_HEADER + "\ncase,a,tier,derivative,31,4,0.5,0.25,9\n"
    ),
    "growth-fit-missing-key": (
        "growth_fit.json", json.dumps({"multi": {"linear_rss": 1.0, "better": "linear"}})
    ),
    "train-reports-missing-key": (
        "model/train_reports.json", json.dumps({"T": {"best_val_loss": 0.5, "epochs_run": 4}})
    ),
    "macnet-timing-header-only": ("macnet/macnet_timing.csv", MACNET_TIMING_HEADER + "\n"),
    "macnet-timing-non-numeric": (
        "macnet/macnet_timing.csv", MACNET_TIMING_HEADER + "\n9.5,3.25,2.0,abc,2.5,0.6\n"
    ),
    "macnet-timing-extra-field": (
        "macnet/macnet_timing.csv", MACNET_TIMING_HEADER + "\n9.5,3.25,2.0,1.5,2.5,0.6,9\n"
    ),
    "config-truncated": ("effective_config.json", '{"grid": '),
    "config-string-grid-size": ("effective_config.json", json.dumps({"grid": {"m": "96"}})),
    "config-partition-off-grid": (
        "effective_config.json", json.dumps({"grid": SMALL["grid"], "partition": {"m_star": 12}})
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORT_INPUTS))
def test_report_malformed_input_exits_4_naming_the_file(tmp_path, capsys, case):
    rel, text = MALFORMED_REPORT_INPUTS[case]
    run = tmp_path / "run"
    (run / "model").mkdir(parents=True)
    # report reads macnet_timing.csv only beside a trace, and
    # effective_config.json only beside a series.
    trace = MacnetTrace(horizon=2, cfd_window=2, tolerance=5.0, max_ml_steps=1)
    trace.phases.append(Phase("CFD", 0, 2, ended_by="horizon"))
    write_trace(str(run / "macnet"), trace)
    grid = GridSpec(**SMALL["grid"])
    series = [Snapshot(np.zeros((len(VARIABLES), grid.m, grid.n)), k * grid.dt) for k in range(2)]
    params = PhysicalParams(diffusivity={v: 1e-4 for v in VARIABLES[2:]})
    save_series(str(run / "series"), series, grid, params, load_config().initial, 0)
    path = run / rel
    path.write_text(REPORT_INPUTS[rel])
    assert run_cli("report", "--out", str(run)) == 0
    path.write_text(text)
    capsys.readouterr()
    assert run_cli("report", "--out", str(run)) == 4
    assert f"{path} " in capsys.readouterr().err


def fake_report_run(run):
    """A run directory holding a one-phase trace and every REPORT_INPUTS file."""
    (run / "model").mkdir(parents=True)
    trace = MacnetTrace(horizon=2, cfd_window=2, tolerance=5.0, max_ml_steps=1)
    trace.phases.append(Phase("CFD", 0, 2, ended_by="horizon"))
    write_trace(str(run / "macnet"), trace)
    for rel, text in REPORT_INPUTS.items():
        (run / rel).write_text(text)


def test_report_summary_is_byte_stable_when_only_timings_change(tmp_path):
    run = tmp_path / "run"
    fake_report_run(run)
    summaries = []
    for row in ("9.5,3.25,2.0,1.5,2.5,0.6", "19.25,12.5,4.0,3.5,1.5,2.333"):
        (run / "macnet" / "macnet_timing.csv").write_text(MACNET_TIMING_HEADER + f"\n{row}\n")
        assert run_cli("report", "--out", str(run)) == 0
        summaries.append(read_bytes(run / "report" / "summary.md"))
        timing_summary = (run / "report" / "timing_summary.md").read_text()
        assert f"cost ratio {float(row.split(',')[-1]):.3f}" in timing_summary
    assert b"MACnet: 0 ML / 2 CFD steps" in summaries[0]
    assert summaries[0] == summaries[1]


def test_report_summary_is_the_same_through_a_relative_and_an_absolute_out(
    tmp_path, monkeypatch
):
    run = tmp_path / "run"
    fake_report_run(run)
    assert run_cli("report", "--out", str(run)) == 0
    absolute = read_bytes(run / "report" / "summary.md")
    monkeypatch.chdir(tmp_path)
    assert run_cli("report", "--out", "run") == 0
    assert read_bytes(run / "report" / "summary.md") == absolute
    # Artifacts are listed by their path inside the run directory.
    assert b"- trace: `macnet/trace.json`" in absolute
    assert str(tmp_path).encode() not in absolute


# ----- global flags -----


def test_dump_defaults_round_trips(capsys):
    assert run_cli("--dump-defaults") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grid"]["m"] == 96
    assert payload["macnet"]["tolerance"] == 5.0


def test_no_command_is_a_usage_error(capsys):
    assert run_cli() == 2


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads=-3"]])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "refused"
    with pytest.raises(SystemExit) as exit_:
        run_cli("generate", "--out", str(out), *flag)
    assert exit_.value.code == 2
    assert "--threads: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def test_threads_cap_warns_when_numpy_is_already_loaded(
    config_path, tmp_path, caplog, monkeypatch
):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    out = str(tmp_path / "capped")
    with caplog.at_level(logging.WARNING, logger="fvmnet.cli"):
        code = run_cli(
            "generate", "--config", config_path, "--out", out, "--threads", "1"
        )
    assert code == 0
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1
    assert "--threads 1" in warned[0]


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # --threads only takes effect if nothing loads numpy before main() parses
    # argv and sets the cap.
    probe = """
import os, sys
from fvmnet import cli
assert "numpy" not in sys.modules, "import"
args = cli.build_parser().parse_args(["generate", "--threads", "2"])
assert args.threads == 2 and "numpy" not in sys.modules, "parse"
argv = ["generate", "--threads", "2", "--set", "generate.horizon=2", "--out", sys.argv[1]]
assert cli.main(argv) == 0
print(",".join(os.environ.get(var, "-") for var in sys.argv[2:]))
"""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "run"), *THREAD_VARS],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == ",".join(["2"] * len(THREAD_VARS))
    assert "has no effect" not in done.stderr


def test_seed_flag_overrides_config(generated):
    config_path, out = generated
    assert run_cli("generate", "--config", config_path, "--out", out, "--seed", "7") == 0
    echo = json.loads(read_bytes(os.path.join(out, "effective_config.json")))
    assert echo["seed"] == 7


def test_set_override_reaches_echo(config_path, tmp_path):
    out = str(tmp_path / "echo")
    assert (
        run_cli(
            "generate", "--config", config_path, "--out", out,
            "--set", "macnet.tolerance=2.5",
        )
        == 0
    )
    echo = json.loads(read_bytes(os.path.join(out, "effective_config.json")))
    assert echo["macnet"]["tolerance"] == 2.5
    assert echo["out"] == out


def test_rerun_from_echo_reproduces_run(generated, tmp_path):
    config_path, out = generated
    echo = os.path.join(out, "effective_config.json")
    twin = str(tmp_path / "twin")
    assert run_cli("generate", "--config", echo, "--out", twin) == 0
    for name in sorted(os.listdir(os.path.join(out, "series"))):
        if name == "manifest.json":
            continue
        assert read_bytes(os.path.join(out, "series", name)) == read_bytes(
            os.path.join(twin, "series", name)
        ), name
