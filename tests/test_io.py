"""Round-trip and determinism checks for the on-disk artifact formats."""

import json
import os
import pickle
from dataclasses import replace
from io import BytesIO

import numpy as np
import pytest
from oracles import forward

from fvmnet.cli import main
from fvmnet.config import DEFAULTS, InitialCondition
from fvmnet.dataset import TIER_WIDTH, CellLayout, Standardizer, fit_standardizer
import fvmnet.io
from fvmnet.errors import ArtifactIOError, DomainError
from fvmnet.io import (
    dump_json,
    load_bundle,
    load_series,
    load_trace,
    read_csv,
    read_json,
    save_bundle,
    save_series,
    save_train_reports,
    write_audit,
    write_csv,
    write_error_field,
    write_rollout_report,
    write_trace,
)
from fvmnet.macnet import (
    AuditRow,
    FallbackEvent,
    MacnetTrace,
    Phase,
    RetrainEvent,
    validate_trace,
)
from fvmnet.network import Network, NetworkSpec, init_network, param_count
from fvmnet.rollout import RolloutReport, StepRecord, SurrogateBundle
from fvmnet.solver import TRANSPORTED, VARIABLES, GridSpec, PhysicalParams, Snapshot, simulate
from fvmnet.training import TrainConfig, TrainReport, config_digest

GRID = GridSpec(m=12, n=4, dx=0.01, dr=0.01, dt=0.002)
PARAMS = PhysicalParams(
    diffusivity={"T": 1e-4, "X_fuel": 5e-5, "X_prod": 5e-5, "X_ox": 5e-5},
    wall_temperature=310.0,
)
INITIAL = InitialCondition(**DEFAULTS["initial"])


def small_series(steps=3):
    values = np.zeros((len(VARIABLES), GRID.m, GRID.n))
    values[0] = 0.3
    ii = np.arange(GRID.m)[:, None]
    jj = np.arange(GRID.n)[None, :]
    values[2] = 300.0 + 400.0 * np.exp(-((ii - 5.0) ** 2) / 5.0 - jj**2 / 3.0)
    values[3] = 0.05
    values[5] = 0.2
    return simulate(Snapshot(values, 0.0), GRID, PARAMS, steps)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ----- series -----


def test_series_round_trip_is_bit_exact(tmp_path):
    series = small_series()
    # A Fortran-ordered array is still stored in the C order the loader expects.
    series[1] = Snapshot(np.asfortranarray(series[1].values), series[1].time)
    manifest = save_series(str(tmp_path), series, GRID, PARAMS, INITIAL, 0, extra={"note": "x"})
    loaded, grid, params = load_series(manifest)
    assert grid == GRID
    assert params.wall_temperature == 310.0
    assert params.diffusivity == PARAMS.diffusivity
    assert len(loaded) == len(series)
    for orig, back in zip(series, loaded):
        assert back.time == orig.time
        assert np.array_equal(back.values, orig.values)
    assert read_json(manifest)["extra"] == {"note": "x"}


def test_series_rewrite_is_byte_identical(tmp_path):
    series = small_series()
    a, b = tmp_path / "a", tmp_path / "b"
    save_series(str(a), series, GRID, PARAMS, INITIAL, 0)
    save_series(str(b), series, GRID, PARAMS, INITIAL, 0)
    for name in sorted(os.listdir(a)):
        assert read_bytes(a / name) == read_bytes(b / name), name


def test_interrupted_series_write_leaves_no_partial_file_and_no_manifest(
    tmp_path, monkeypatch
):
    series = small_series()
    save_series(str(tmp_path), series, GRID, PARAMS, INITIAL, 0)  # an earlier, complete save
    earlier = read_bytes(tmp_path / "snap_000001.npy")
    later = [Snapshot(snap.values + 1.0, snap.time) for snap in series]
    real_save, calls = np.save, []

    def failing_save(fh, values, **kwargs):
        calls.append(values)
        if len(calls) == 2:  # midway through snapshot 1
            buf = BytesIO()
            real_save(buf, values, **kwargs)
            fh.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise OSError("disk full")
        real_save(fh, values, **kwargs)

    monkeypatch.setattr(fvmnet.io.np, "save", failing_save)
    with pytest.raises(OSError, match="disk full"):
        save_series(str(tmp_path), later, GRID, PARAMS, INITIAL, 0)
    # Snapshot 0 was rewritten whole, snapshot 1 still holds the earlier save,
    # no temporary file is left, and no manifest vouches for the mix.
    assert sorted(os.listdir(tmp_path)) == [
        f"snap_{k:06d}.npy" for k in range(len(series))
    ]
    assert read_bytes(tmp_path / "snap_000001.npy") == earlier
    assert np.array_equal(np.load(tmp_path / "snap_000000.npy"), later[0].values)


def test_interrupted_json_write_leaves_no_file(tmp_path):
    path = str(tmp_path / "out.json")
    with pytest.raises(TypeError):
        dump_json(path, {"a": [1.0] * 1000, "b": object()})
    assert os.listdir(tmp_path) == []


def test_missing_manifest_is_reported(tmp_path):
    with pytest.raises(ArtifactIOError, match="manifest not found"):
        load_series(str(tmp_path / "manifest.json"))


def test_wrong_format_tag_is_rejected(tmp_path):
    series = small_series(1)
    manifest = save_series(str(tmp_path), series, GRID, PARAMS, INITIAL, 0)
    payload = json.loads(open(manifest).read())
    payload["format"] = "something-else"
    with open(manifest, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ArtifactIOError, match="format"):
        load_series(manifest)


@pytest.mark.parametrize(
    "index,time_",
    [
        (2, GRID.dt),  # repeats the previous time
        (2, 0.5 * GRID.dt),  # goes backwards
        (3, 4 * GRID.dt),  # skips a step
        (1, GRID.dt * (1 + 1e-6)),  # off by more than the tolerance
        (2, float("nan")),  # not a time at all
    ],
)
def test_snapshot_times_off_the_dt_grid_are_rejected(tmp_path, index, time_):
    manifest = save_series(str(tmp_path), small_series(), GRID, PARAMS, INITIAL, 0)
    payload = read_json(manifest)
    payload["snapshots"][index]["time"] = time_
    with open(manifest, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ArtifactIOError, match=f"snapshot {index}"):
        load_series(manifest)


def test_series_prefix_load_is_bit_equal_to_the_full_load(tmp_path):
    manifest = save_series(str(tmp_path), small_series(), GRID, PARAMS, INITIAL, 0)
    full, grid, params = load_series(manifest)
    for count in range(len(full) + 2):  # past the end returns the whole series
        part, part_grid, part_params = load_series(manifest, count)
        assert (part_grid, part_params) == (grid, params)
        assert len(part) == min(count, len(full))
        for a, b in zip(part, full):
            assert a.time == b.time
            assert a.values.tobytes() == b.values.tobytes()
            assert a.values.flags.c_contiguous


def test_manifest_is_checked_beyond_the_parsed_prefix(tmp_path):
    manifest = save_series(str(tmp_path), small_series(), GRID, PARAMS, INITIAL, 0)
    payload = read_json(manifest)
    payload["snapshots"][3]["time"] = 5 * GRID.dt
    with open(manifest, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ArtifactIOError, match="snapshot 3"):
        load_series(manifest, 1)
    save_series(str(tmp_path), small_series(), GRID, PARAMS, INITIAL, 0)
    os.remove(tmp_path / "snap_000003.npy")
    with pytest.raises(ArtifactIOError, match="snap_000003.npy"):
        load_series(manifest, 1)


def npy_bytes(values, **kwargs):
    buf = BytesIO()
    np.save(buf, values, **kwargs)
    return buf.getvalue()


def npz_bytes(values):
    buf = BytesIO()
    np.savez(buf, values=values)
    return buf.getvalue()


def npy_with(values, variable, value):
    """.npy bytes of `values` with cell (3, 1) of `variable` set to `value`."""
    values = values.copy()
    values[VARIABLES.index(variable), 3, 1] = value
    return npy_bytes(values)


# (file bytes made from the valid file's bytes and values, expected message)
# for snapshot 0 of the 12 x 4 grid: each is a file that `np.save` of a
# C-order float64 (6, 12, 4) array would not write.
UNREADABLE = "is not a readable .npy array"
CORRUPT_SNAPSHOTS = {
    "empty": (lambda good, v: b"", UNREADABLE),
    "truncated-header": (lambda good, v: good[:40], UNREADABLE),
    "truncated-data": (lambda good, v: good[:-8], UNREADABLE),
    "unclosed-header": (lambda good, v: good.replace(b"}", b" ", 1), UNREADABLE),
    "csv-text": (lambda good, v: b"i,j,v_x\n0,0,0.3\n", UNREADABLE),
    "pickle": (lambda good, v: pickle.dumps(v), UNREADABLE),
    "object-array": (lambda good, v: npy_bytes(v.astype(object), allow_pickle=True), UNREADABLE),
    "huge-header-shape": (  # same header length: the padding gives way
        lambda good, v: good.replace(b"(6, 12, 4), }" + b" " * 14, b"(6, 12000000, 400000000), }"),
        UNREADABLE + ": Unable to allocate",
    ),
    "npz-archive": (lambda good, v: npz_bytes(v), "is an .npz archive"),
    "float32": (lambda good, v: npy_bytes(v.astype(np.float32)), "C-order <f4 array"),
    "big-endian": (lambda good, v: npy_bytes(v.astype(">f8")), "C-order >f8 array"),
    "wrong-shape": (
        lambda good, v: npy_bytes(v.reshape(6, 4, 12)), r"array of shape \(6, 4, 12\)"
    ),
    "fortran-order": (lambda good, v: npy_bytes(np.asfortranarray(v)), "Fortran-order <f8"),
    "trailing-bytes": (lambda good, v: good + b"\0", "has bytes after its array"),
    "nan-value": (
        lambda good, v: npy_with(v, "T", np.nan), r"holds a non-finite T at cell \(3, 1\)"
    ),
    "inf-value": (
        lambda good, v: npy_with(v, "X_prod", -np.inf),
        r"holds a non-finite X_prod at cell \(3, 1\)",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_SNAPSHOTS))
def test_corrupt_snapshot_exits_4_naming_the_file(tmp_path, capsys, case):
    corrupt, message = CORRUPT_SNAPSHOTS[case]
    series = small_series(1)
    manifest = save_series(str(tmp_path / "series"), series, GRID, PARAMS, INITIAL, 0)
    snap = tmp_path / "series" / "snap_000000.npy"
    snap.write_bytes(corrupt(snap.read_bytes(), series[0].values))
    with pytest.raises(ArtifactIOError, match=message) as err:
        load_series(manifest)
    assert str(snap) in str(err.value)
    assert main(["train", "--manifest", manifest, "--out", str(tmp_path / "run")]) == 4
    assert f"{snap} " in capsys.readouterr().err


# ----- standardizer and bundle checkpoints -----


def make_bundle(seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(40, TIER_WIDTH))
    standardizer = fit_standardizer(inputs)
    networks = {
        v: init_network(NetworkSpec(TIER_WIDTH, (5,), 1), seed=seed + k)
        for k, v in enumerate(VARIABLES)
    }
    scales = {v: (0.1 * k, 1.0 + 0.2 * k) for k, v in enumerate(VARIABLES)}
    return SurrogateBundle(
        networks=networks, standardizer=standardizer, target_scales=scales
    )


def test_standardizer_round_trip(tmp_path):
    bundle = make_bundle()
    bundle.standardizer = Standardizer(
        mean=np.arange(float(TIER_WIDTH)), std=np.linspace(0.5, 3.0, TIER_WIDTH)
    )
    save_bundle(str(tmp_path), bundle, seed=0, train_config=TrainConfig())
    back = load_bundle(str(tmp_path)).standardizer
    assert np.array_equal(back.mean, bundle.standardizer.mean)
    assert np.array_equal(back.std, bundle.standardizer.std)


def test_bundle_round_trip_preserves_weights_and_predictions(tmp_path):
    walls = CellLayout(output_mode="absolute", wall_values=range(6))
    bundle = replace(make_bundle(), layout=walls)
    save_bundle(str(tmp_path), bundle, seed=7, train_config=TrainConfig())
    back = load_bundle(str(tmp_path))
    x = np.random.default_rng(3).normal(size=TIER_WIDTH)
    for v in VARIABLES:
        orig, load = bundle.networks[v], back.networks[v]
        assert load.spec == orig.spec
        for wo, wl in zip(orig.weights, load.weights):
            assert np.array_equal(wo, wl)
        for bo, bl in zip(orig.biases, load.biases):
            assert np.array_equal(bo, bl)
        assert forward(load, x) == forward(orig, x)
        assert back.target_scales[v] == bundle.target_scales[v]
    assert np.array_equal(back.standardizer.mean, bundle.standardizer.mean)
    assert back.layout == walls


def test_bundle_rewrite_is_byte_identical(tmp_path):
    bundle = make_bundle()
    a, b = tmp_path / "a", tmp_path / "b"
    save_bundle(str(a), bundle, seed=7, train_config=TrainConfig())
    save_bundle(str(b), bundle, seed=7, train_config=TrainConfig())
    for name in sorted(os.listdir(a)):
        assert read_bytes(a / name) == read_bytes(b / name), name


def archive_members(path):
    """Every member of the .npz archive at `path`, by name."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def test_checkpoint_records_config_digest_and_count(tmp_path):
    bundle = make_bundle()
    save_bundle(str(tmp_path), bundle, seed=7, train_config=TrainConfig())
    assert sorted(os.listdir(tmp_path)) == ["bundle.npz"]
    meta = json.loads(str(archive_members(tmp_path / "bundle.npz")["meta"]))
    # The spec alone determines the parameter count, so the meta does not repeat it.
    assert "param_count" not in meta["networks"]["T"]
    spec = NetworkSpec(**meta["networks"]["T"]["spec"])
    assert param_count(spec) == TIER_WIDTH * 5 + 5 + 5 + 1
    assert len(meta["train_config_digest"]) == 12
    assert meta["seed"] == 7


def test_bundle_without_every_network_is_not_saved(tmp_path):
    bundle = make_bundle()
    four = replace(bundle, networks={v: bundle.networks[v] for v in TRANSPORTED})
    with pytest.raises(DomainError, match=r"without networks for \['v_x', 'v_r'\]"):
        save_bundle(str(tmp_path), four, seed=0, train_config=TrainConfig())
    assert os.listdir(tmp_path) == []


def test_missing_checkpoint_is_reported(tmp_path):
    bundle = make_bundle()
    save_bundle(str(tmp_path), bundle, seed=0, train_config=TrainConfig())
    os.remove(tmp_path / "bundle.npz")
    with pytest.raises(ArtifactIOError, match="file not found: .*bundle.npz"):
        load_bundle(str(tmp_path))


def test_interrupted_bundle_save_leaves_the_earlier_bundle(tmp_path, monkeypatch):
    save_bundle(str(tmp_path), make_bundle(), seed=1, train_config=TrainConfig())
    earlier = read_bytes(tmp_path / "bundle.npz")
    real_savez = np.savez

    def failing_savez(fh, **members):  # writes half the archive, then fails
        buf = BytesIO()
        real_savez(buf, **members)
        fh.write(buf.getvalue()[: len(buf.getvalue()) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(fvmnet.io.np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_bundle(str(tmp_path), make_bundle(1), seed=0, train_config=TrainConfig())
    monkeypatch.undo()
    # No temporary file is left, and the earlier save still loads whole.
    assert sorted(os.listdir(tmp_path)) == ["bundle.npz"]
    assert read_bytes(tmp_path / "bundle.npz") == earlier
    assert json.loads(str(archive_members(tmp_path / "bundle.npz")["meta"]))["seed"] == 1
    back = load_bundle(str(tmp_path))
    assert np.array_equal(back.networks["T"].weights[0], make_bundle().networks["T"].weights[0])


def edited(edit):
    """A corruption that rewrites the archive after `edit` changes its members
    in place; `edit` sees the `meta` member as the JSON object it holds."""

    def corrupt(good):
        with np.load(BytesIO(good)) as archive:
            members = {name: archive[name] for name in archive.files}
        members["meta"] = json.loads(str(members["meta"]))
        edit(members)
        if isinstance(members.get("meta"), dict):
            members["meta"] = json.dumps(members["meta"], sort_keys=True)
        buf = BytesIO()
        np.savez(buf, **members)
        return buf.getvalue()

    return corrupt


def with_entry(name, index, value):
    """An edit setting entry `index` of member `name` to `value`."""

    def edit(members):
        members[name] = members[name].copy()
        members[name][index] = value

    return edit


def flip_middle_byte(good):
    mid = len(good) // 2
    return good[:mid] + bytes([good[mid] ^ 0xFF]) + good[mid + 1 :]


def unknown_compression(good):
    """The first central-directory entry's compression method set to 99."""
    at = good.index(b"PK\x01\x02") + 10
    return good[:at] + (99).to_bytes(2, "little") + good[at + 2 :]


def rollout_argv(tmp_path, manifest, model):
    """A rollout of `model` on the small series at `manifest`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": vars(GRID), "partition": {"m_star": 3}}))
    return ["rollout", "--config", str(config), "--manifest", manifest,
            "--model", model, "--out", str(tmp_path / "run")]


# (file bytes made from the valid archive's bytes, expected message) for the
# bundle of `make_bundle`: each is a file that `save_bundle` would not write.
UNREADABLE_NPZ = "is not a readable .npz archive"
CORRUPT_BUNDLES = {
    "empty": (lambda good: b"", UNREADABLE_NPZ),
    "truncated": (lambda good: good[: len(good) // 2], UNREADABLE_NPZ + ": File is not a zip"),
    "flipped-byte": (flip_middle_byte, UNREADABLE_NPZ + ": Bad CRC-32"),
    "unknown-compression": (unknown_compression, UNREADABLE_NPZ + ": .*compression method"),
    "plain-npy": (lambda good: npy_bytes(np.zeros(3)), "is an .npy array, not an .npz archive"),
    "old-json-text": (lambda good: b'{"format": "fvmnet-bundle-2"}\n', UNREADABLE_NPZ),
    "meta-missing": (edited(lambda m: m.pop("meta")), "has no readable 'meta' JSON text"),
    "meta-not-json": (
        edited(lambda m: m.update(meta="{format")), "has no readable 'meta' JSON text"
    ),
    "missing-member": (edited(lambda m: m.pop("T.b1")), "has no 'T.b1' array member"),
    "extra-member": (
        edited(lambda m: m.update({"T.w2": np.zeros((1, 1))})),
        r"has unexpected members \['T.w2'\]",
    ),
    "float32-member": (
        edited(lambda m: m.update({"std": m["std"].astype(np.float32)})),
        "member 'std' holds a C-order <f4 array",
    ),
    "fortran-order-member": (
        edited(lambda m: m.update({"T.w0": np.asfortranarray(m["T.w0"])})),
        "member 'T.w0' holds a Fortran-order <f8 array",
    ),
    "wrong-shape-member": (
        edited(lambda m: m.update({"X_ox.w0": m["X_ox.w0"].reshape(5, TIER_WIDTH)})),
        r"member 'X_ox.w0' holds a C-order <f8 array of shape \(5, 30\), expected .* \(30, 5\)",
    ),
    "nan-weight": (
        edited(with_entry("T.w0", (2, 4), np.nan)),
        r"member 'T.w0' holds a non-finite value at \(2, 4\)",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_BUNDLES))
def test_corrupt_bundle_exits_4_naming_the_file(tmp_path, capsys, case):
    corrupt, message = CORRUPT_BUNDLES[case]
    model = str(tmp_path / "model")
    path = save_bundle(model, make_bundle(), seed=0, train_config=TrainConfig())
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, "wb") as fh:
        fh.write(corrupt(good))
    with pytest.raises(ArtifactIOError, match=message) as err:
        load_bundle(model)
    assert str(err.value).startswith(f"{path} ")
    manifest = save_series(str(tmp_path / "series"), small_series(1), GRID, PARAMS, INITIAL, 0)
    assert main(rollout_argv(tmp_path, manifest, model)) == 4
    assert f"{path} " in capsys.readouterr().err


def test_train_reports_file_lists_losses(tmp_path):
    reports = {
        v: TrainReport(
            train_losses=[1.0, 0.5], val_losses=[1.1, 0.6],
            best_epoch=1, best_val_loss=0.6,
            param_snapshot_id="ab" * 6,
        )
        for v in VARIABLES
    }
    path = save_train_reports(str(tmp_path), reports)
    payload = json.loads(open(path).read())
    assert payload["T"]["val_losses"] == [1.1, 0.6]
    assert payload["X_ox"]["best_epoch"] == 1


# ----- rollout reports -----


def make_report(mode="multi", steps=3):
    records = []
    for k in range(1, steps + 1):
        records.append(
            StepRecord(
                step=k,
                max_errors={v: 0.01 * k * (i + 1) for i, v in enumerate(VARIABLES)},
                mean_errors={v: 0.001 * k * (i + 1) for i, v in enumerate(VARIABLES)},
                scaled_residual=0.5 * k,
                ml_ms=1.25,
                cfd_ms=4.5,
            )
        )
    return RolloutReport(mode=mode, steps=records)


def test_report_csv_is_deterministic_and_timing_separate(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    report_a, timing_a = write_rollout_report(str(a), make_report())
    report_b, _ = write_rollout_report(str(b), make_report())
    assert read_bytes(report_a) == read_bytes(report_b)
    rows = read_csv(report_a, "step,mode,variable,max_rel_err,mean_rel_err,scaled_residual")
    assert len(rows) == 3 * len(VARIABLES)
    assert [r[2] for r in rows[: len(VARIABLES)]] == list(VARIABLES)
    assert "ml_ms" not in read_bytes(report_a).decode()
    timing_rows = read_csv(timing_a, "step,ml_ms,cfd_ms")
    assert [r[0] for r in timing_rows] == ["1", "2", "3"]


def test_error_field_dump(tmp_path):
    # Distinct errors per (variable, i, j) on a non-square grid, so a
    # swapped axis or a transposed field shows.
    m, n = 3, 2
    rng = np.random.default_rng(8)
    pred = Snapshot(rng.standard_normal((len(VARIABLES), m, n)), 0.0)
    truth = Snapshot(rng.standard_normal((len(VARIABLES), m, n)), 0.0)
    diff = np.abs(pred.values - truth.values)
    assert np.unique(diff).size == diff.size
    path = write_error_field(str(tmp_path / "err.csv"), pred, truth)
    rows = read_csv(path, "i,j," + ",".join(f"{v}_abs_err" for v in VARIABLES))
    assert [(int(r[0]), int(r[1])) for r in rows] == [(i, j) for i in range(m) for j in range(n)]
    for row in rows:
        i, j = int(row[0]), int(row[1])
        assert [float(cell) for cell in row[2:]] == [diff[k, i, j] for k in range(len(VARIABLES))]


# ----- traces and audits -----


def make_trace():
    trace = MacnetTrace(horizon=8, cfd_window=2, tolerance=5.0, max_ml_steps=6)
    trace.phases.append(Phase("CFD", 0, 2, ended_by="window"))
    trace.phases.append(
        Phase("ML", 2, 5, residuals=(0.5, 1.0, 1.5), ended_by="breach",
              breach_residual=6.25)
    )
    trace.phases.append(Phase("CFD", 5, 7, ended_by="window"))
    trace.phases.append(Phase("ML", 7, 8, residuals=(0.25,), ended_by="horizon"))
    trace.retrains.append(
        RetrainEvent(
            at_step=2, policy="warm-start",
            val_losses={v: 0.01 for v in TRANSPORTED},
            param_ids={v: "ab" * 6 for v in TRANSPORTED},
            epochs={v: 3 for v in TRANSPORTED},
            denominator=3.5,
        )
    )
    trace.retrains.append(
        RetrainEvent(
            at_step=7, policy="warm-start",
            val_losses={v: 0.02 for v in TRANSPORTED},
            param_ids={v: "cd" * 6 for v in TRANSPORTED},
            epochs={v: 3 for v in TRANSPORTED},
            denominator=2.75,
        )
    )
    return trace


def test_trace_round_trip_and_validation(tmp_path):
    trace = make_trace()
    trace.wall_seconds = 1.25
    back = load_trace(write_trace(str(tmp_path), trace))
    validate_trace(back)
    assert back.horizon == 8 and back.cfd_window == 2
    assert back.tolerance == 5.0 and back.max_ml_steps == 6
    assert back.phases == trace.phases
    assert back.retrains == trace.retrains
    assert back.fallbacks == trace.fallbacks
    assert back.wall_seconds == 0.0


def test_trace_json_omits_wall_clock(tmp_path):
    trace = make_trace()
    trace.wall_seconds = 9.9
    trace.train_seconds = 3.3
    trace.ml_seconds = 1.1
    write_trace(str(tmp_path), trace)
    text = open(tmp_path / "trace.json").read()
    assert "wall_seconds" not in text
    assert "train_seconds" not in text
    assert "ml_seconds" not in text


def test_trace_with_infinite_tolerance_round_trips(tmp_path):
    trace = MacnetTrace(horizon=4, cfd_window=2, tolerance=float("inf"), max_ml_steps=4)
    trace.phases.append(Phase("CFD", 0, 2, ended_by="window"))
    trace.phases.append(Phase("ML", 2, 4, residuals=(0.1, 0.2), ended_by="horizon"))
    trace.retrains.append(
        RetrainEvent(
            at_step=2, policy="warm-start",
            val_losses={v: 0.0 for v in TRANSPORTED},
            param_ids={v: "00" * 6 for v in TRANSPORTED},
            epochs={v: 3 for v in TRANSPORTED},
            denominator=1.0,
        )
    )
    back = load_trace(write_trace(str(tmp_path), trace))
    assert back.tolerance == float("inf")
    validate_trace(back)


def test_trace_with_fallback_round_trips(tmp_path):
    trace = MacnetTrace(horizon=4, cfd_window=2, tolerance=0.5, max_ml_steps=4)
    trace.phases.append(Phase("CFD", 0, 2, ended_by="window"))
    trace.phases.append(Phase("CFD", 2, 4, ended_by="horizon"))
    trace.fallbacks.append(FallbackEvent(at_step=2, residual=0.75))
    for at in (2,):
        trace.retrains.append(
            RetrainEvent(
                at_step=at, policy="warm-start",
                val_losses={v: 0.0 for v in TRANSPORTED},
                param_ids={v: "00" * 6 for v in TRANSPORTED},
                epochs={v: 3 for v in TRANSPORTED},
                denominator=1.0,
            )
        )
    back = load_trace(write_trace(str(tmp_path), trace))
    assert back.fallbacks == trace.fallbacks
    validate_trace(back)


def test_audit_csv(tmp_path):
    rows = [
        AuditRow(
            step=k,
            mode="CFD" if k < 2 else "ML",
            max_errors={v: 0.1 * k for v in VARIABLES},
            mean_errors={v: 0.01 * k for v in VARIABLES},
        )
        for k in range(4)
    ]
    path = write_audit(str(tmp_path), rows)
    flat = read_csv(path, "step,mode,variable,max_rel_err,mean_rel_err")
    assert len(flat) == 4 * len(VARIABLES)
    assert flat[0][:3] == ["0", "CFD", "v_x"]
    assert flat[-1][:2] == ["3", "ML"]


def test_write_csv_floats_round_trip(tmp_path):
    path = str(tmp_path / "x.csv")
    tricky = [1.0 / 3.0, 0.1, 1e-300, 123456789.123456789]
    write_csv(path, "a,b,c,d", [tuple(tricky)])
    row = read_csv(path, "a,b,c,d")[0]
    assert [float(cell) for cell in row] == tricky


# ----- record formats and malformed records -----


def json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_record_formats_are_pinned(tmp_path):
    """The exact text of the dataclass-backed records: a field added to one of
    these dataclasses shows up here (and needs a format-tag bump)."""
    snapshot = Snapshot(np.zeros((len(VARIABLES), GRID.m, GRID.n)), 0.0)
    manifest = save_series(str(tmp_path / "series"), [snapshot], GRID, PARAMS, INITIAL, 0)
    assert open(manifest).read() == json_text(
        {
            "format": "fvmnet-series-3",
            "grid": {"dr": 0.01, "dt": 0.002, "dx": 0.01, "m": 12, "n": 4},
            "initial": {
                "blob_center_r": 0.0,
                "blob_center_x": 0.25,
                "blob_peak": 1200.0,
                "blob_sigma_r": 0.25,
                "blob_sigma_x": 0.08,
                "fuel": 0.08,
                "oxidizer": 0.2,
                "product": 0.0,
                "temperature": 300.0,
                "vr_max": 0.02,
                "vx_max": 0.25,
            },
            "burn_in": 0,
            "params": {
                "activation_energy": 0.0,
                "arrhenius_a": 0.0,
                "arrhenius_b": 0.0,
                "axial_bc": "inflow_outflow",
                "diffusivity": {
                    "T": 0.0001, "X_fuel": 5e-05, "X_ox": 5e-05, "X_prod": 5e-05,
                },
                "gas_constant": 8.314,
                "heat_release": 0.0,
                "molar_mass": 0.0289,
                "reference_pressure": 101325.0,
                "wall_temperature": 310.0,
            },
            "snapshots": [{"file": "snap_000000.npy", "time": 0.0}],
            "variables": ["v_x", "v_r", "T", "X_fuel", "X_prod", "X_ox"],
        }
    )

    trace = MacnetTrace(horizon=4, cfd_window=2, tolerance=5.0, max_ml_steps=2)
    trace.phases += [
        Phase("CFD", 0, 2),
        Phase("ML", 2, 3, residuals=(0.5,), ended_by="breach", breach_residual=6.25),
        Phase("CFD", 3, 4, ended_by="horizon"),
    ]
    trace.retrains.append(
        RetrainEvent(
            at_step=2, policy="warm-start",
            val_losses={v: 0.25 for v in TRANSPORTED},
            param_ids={v: "ab" * 6 for v in TRANSPORTED},
            epochs={v: 3 for v in TRANSPORTED},
            denominator=3.5,
        )
    )
    trace.fallbacks.append(FallbackEvent(at_step=2, residual=7.5))
    trace.wall_seconds, trace.train_seconds, trace.ml_seconds = 9.5, 3.25, 1.125
    path = write_trace(str(tmp_path / "macnet"), trace)
    assert open(path).read() == json_text(
        {
            "cfd_window": 2,
            "fallbacks": [{"at_step": 2, "residual": 7.5}],
            "format": "fvmnet-trace-2",
            "horizon": 4,
            "max_ml_steps": 2,
            "phases": [
                {"breach_residual": None, "end": 2, "ended_by": "window",
                 "mode": "CFD", "residuals": [], "start": 0},
                {"breach_residual": 6.25, "end": 3, "ended_by": "breach",
                 "mode": "ML", "residuals": [0.5], "start": 2},
                {"breach_residual": None, "end": 4, "ended_by": "horizon",
                 "mode": "CFD", "residuals": [], "start": 3},
            ],
            "retrains": [
                {
                    "at_step": 2,
                    "denominator": 3.5,
                    "epochs": {v: 3 for v in TRANSPORTED},
                    "param_ids": {v: "abababababab" for v in TRANSPORTED},
                    "policy": "warm-start",
                    "val_losses": {v: 0.25 for v in TRANSPORTED},
                }
            ],
            "tolerance": 5.0,
        }
    )

    layout = CellLayout("center", "absolute", range(6))
    spec = NetworkSpec(len(VARIABLES), (), 1)  # a linear map: 6 weights, 1 bias
    assert param_count(spec) == 7
    bundle = SurrogateBundle(
        networks={
            v: Network(spec, [np.full((6, 1), 0.5 * k)], [np.array([k + 0.25])])
            for k, v in enumerate(VARIABLES)
        },
        standardizer=Standardizer(mean=np.arange(6.0), std=np.full(6, 2.0)),
        target_scales={v: (0.125 * k, 1.5) for k, v in enumerate(VARIABLES)},
        layout=layout,
    )
    path = save_bundle(str(tmp_path / "model"), bundle, seed=3, train_config=TrainConfig())
    # The archive bytes are numpy's zip writer's to choose; its members are pinned.
    members = archive_members(path)
    meta = members.pop("meta")
    assert (meta.dtype.kind, meta.shape) == ("U", ())
    assert str(meta) == json.dumps(
        {
            "format": "fvmnet-bundle-4",
            "layout": {
                "input_mode": "center",
                "output_mode": "absolute",
                "wall_values": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            },
            "networks": {
                v: {
                    "spec": {"activation": "relu", "hidden": [], "n_inputs": 6, "n_outputs": 1},
                    "target_scale": [0.125 * k, 1.5],
                }
                for k, v in enumerate(VARIABLES)
            },
            "seed": 3,
            "train_config_digest": config_digest(TrainConfig()),
        },
        sort_keys=True,
    )
    arrays = {"mean": np.arange(6.0), "std": np.full(6, 2.0)}
    for k, v in enumerate(VARIABLES):
        arrays[f"{v}.w0"], arrays[f"{v}.b0"] = np.full((6, 1), 0.5 * k), np.array([k + 0.25])
    assert list(members) == list(arrays)  # archive order: mean, std, then layer by layer
    for name, values in arrays.items():
        assert (members[name].dtype.str, members[name].shape) == ("<f8", values.shape), name
        assert np.array_equal(members[name], values), name

    report = TrainReport(
        train_losses=[1.0, 0.5], val_losses=[1.25, 0.75], best_epoch=1,
        best_val_loss=0.75, param_snapshot_id="ab" * 6,
    )
    path = save_train_reports(str(tmp_path), {"T": report})
    assert open(path).read() == json_text(
        {
            "T": {
                "best_epoch": 1,
                "best_val_loss": 0.75,
                "epochs_run": 2,
                "param_snapshot_id": "abababababab",
                "train_losses": [1.0, 0.5],
                "val_losses": [1.25, 0.75],
            }
        }
    )


# (artifact, breakage): each edits one parsed file in place. A checkpoint
# breakage edits the bundle archive's members, its `meta` parsed (see `edited`).
MALFORMED = {
    "series-missing-key": ("series", lambda p: p["params"].pop("molar_mass")),
    "series-unknown-key": ("series", lambda p: p["grid"].update(spacing=0.01)),
    "series-string-grid-size": ("series", lambda p: p["grid"].update(m="96")),
    "series-snapshot-without-file": ("series", lambda p: p["snapshots"][0].pop("file")),
    "series-format-2": ("series", lambda p: p.update(format="fvmnet-series-2")),
    "series-initial-unknown-key": ("series", lambda p: p["initial"].update(pressure=1.0)),
    "series-initial-out-of-range": ("series", lambda p: p["initial"].update(fuel=1.5)),
    "series-without-burn-in": ("series", lambda p: p.pop("burn_in")),
    "series-string-burn-in": ("series", lambda p: p.update(burn_in="14")),
    "trace-missing-key": ("trace", lambda p: p.pop("horizon")),
    "trace-unknown-key": ("trace", lambda p: p["phases"][1].update(bogus=1)),
    "trace-missing-event-key": ("trace", lambda p: p["retrains"][0].pop("denominator")),
    "trace-event-without-epochs": ("trace", lambda p: p["retrains"][1].pop("epochs")),
    "trace-format-1": ("trace", lambda p: p.update(format="fvmnet-trace-1")),
    "checkpoint-missing-key": (
        "checkpoint", lambda m: m["meta"]["networks"]["T"]["spec"].pop("activation")
    ),
    "checkpoint-unknown-key": (
        "checkpoint", lambda m: m["meta"]["networks"]["T"]["spec"].update(dropout=0.5)
    ),
    "checkpoint-missing-scale": (
        "checkpoint", lambda m: m["meta"]["networks"]["T"].pop("target_scale")
    ),
    "checkpoint-string-width": (
        "checkpoint", lambda m: m["meta"]["networks"]["T"]["spec"].update(n_inputs="30")
    ),
    "checkpoint-weights-off-spec": (  # the stored (30, 5) and (5, 1) layers fit (6,)
        "checkpoint", lambda m: m["meta"]["networks"]["T"]["spec"].update(hidden=[6])
    ),
    "checkpoint-string-weight": (
        "checkpoint", lambda m: m.update({"T.w1": m["T.w1"].astype(str)})
    ),
    "checkpoint-missing-network": (
        "checkpoint", lambda m: m["meta"]["networks"].pop("X_ox")
    ),
    "checkpoint-extra-network": (
        "checkpoint",
        lambda m: m["meta"]["networks"].update(rho=m["meta"]["networks"]["T"]),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_exits_4_naming_the_file(tmp_path, capsys, case):
    artifact, breakage = MALFORMED[case]
    manifest = save_series(str(tmp_path / "series"), small_series(1), GRID, PARAMS, INITIAL, 0)
    if artifact == "series":
        target = manifest
        argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "run")]
    elif artifact == "trace":
        target = write_trace(str(tmp_path / "macnet"), make_trace())
        argv = ["report", "--out", str(tmp_path)]
    else:
        model = str(tmp_path / "model")
        target = save_bundle(model, make_bundle(), seed=0, train_config=TrainConfig())
        argv = rollout_argv(tmp_path, manifest, model)
    if artifact == "checkpoint":
        with open(target, "rb") as fh:
            broken = edited(breakage)(fh.read())
        with open(target, "wb") as fh:
            fh.write(broken)
    else:
        payload = read_json(target)
        breakage(payload)
        with open(target, "w") as fh:
            fh.write(json_text(payload))
    assert main(argv) == 4
    assert target in capsys.readouterr().err
