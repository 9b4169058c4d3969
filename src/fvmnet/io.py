"""On-disk artifact formats: series, trained bundles, reports, traces.

Every format round-trips bit-exactly: arrays are stored as raw float64,
and elsewhere floats are written with repr (the shortest decimal string
that parses back to the same double) inside JSON or CSV, keys are sorted,
and newlines are pinned to "\n", so rerunning a seeded experiment
reproduces each file byte for byte. Wall-clock measurements go to
separate timing sidecars to keep the main artifacts deterministic.

Every file is written through `atomic_writer`: the data goes to a temporary
file beside the target, which replaces the target only once complete, so an
interrupted write never leaves a partial file under the final name. A
trained bundle is one such file, `bundle.npz`: its standardizer, cell
layout and six networks are replaced together or not at all. A series is
several files, so its save first removes the old manifest and writes the new
one last, listing the snapshots.

A series is one `.npy` file per snapshot (written by `np.save`, read back by
`np.load` with pickles refused) plus its manifest. It is read as much as its
reader uses: `load_series(manifest, count)` checks the whole manifest (every
record, time gap and listed file) but loads only the first `count`
snapshots, so each command reads just the snapshots it works on.

The grid and physical-parameter records of the series manifest, the bundle's
`layout` (its one `CellLayout`) and each network's `spec`, and the trace
header and its phase, retrain and fallback entries are their dataclass's
fields, written by `dataclasses.asdict` and read back by `_record`. Adding
or dropping a field of one of those dataclasses therefore changes the file
format and needs its format tag bumped. A `train_reports.json` entry adds
the derived `epochs_run` to a `TrainReport`'s fields, so it is read as raw
JSON, never through `_record`: `report` reads `best_val_loss`, `best_epoch`
and `epochs_run`, and `perfbench/workloads.py` reads `best_val_loss` and
`epochs_run`. A malformed file (a missing or unknown key, a value of the
wrong type, or one the record's own checks refuse; a bundle without exactly
one network per variable; a snapshot file or bundle member that is not a
finite C-order little-endian float64 array of the expected shape) raises
ArtifactIOError naming the file, which the CLI reports with exit code 4.
Each CSV header that one command writes and another reads is a `*_HEADER`
here.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, fields
from typing import IO, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
from typing import get_type_hints

import numpy as np

from .dataset import CellLayout, Standardizer
from .errors import ArtifactIOError, DomainError, FvmnetError
from .macnet import FallbackEvent, MacnetTrace, Phase, RetrainEvent
from .network import Network, NetworkSpec
from .rollout import RolloutReport, SurrogateBundle
from .solver import VARIABLES, GridSpec, PhysicalParams, Snapshot, time_tolerance
from .training import TrainConfig, TrainReport, config_digest

SERIES_FORMAT = "fvmnet-series-2"
# Every stored array is C-order with this dtype, whatever the host.
ARRAY_DTYPE = np.dtype("<f8")
BUNDLE_FORMAT = "fvmnet-bundle-4"
BUNDLE_FILE = "bundle.npz"
TRACE_FORMAT = "fvmnet-trace-2"
# What np.load raises on an empty, truncated, pickled or non-numpy file; a
# corrupt header can claim a huge array or fail to tokenize.
_UNREADABLE = (ValueError, EOFError, MemoryError, tokenize.TokenError)
# The MacnetTrace fields trace.json holds; the wall-clock ones stay out.
TRACE_FIELDS = (
    "horizon", "cfd_window", "tolerance", "max_ml_steps",
    "phases", "retrains", "fallbacks",
)


def _remove_if_present(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


@contextmanager
def atomic_writer(path: str, mode: str = "w") -> Iterator[IO]:
    """Handle on `<path>.tmp`, renamed onto `path` on success.

    `mode` is "w" for text (\\n newlines) or "wb" for bytes. On any exception
    the temporary file is removed and `path` is untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        _remove_if_present(tmp)
        raise


def dump_json(path: str, payload) -> str:
    """Write JSON deterministically: sorted keys, 2-space indent, one trailing \\n."""
    with atomic_writer(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ArtifactIOError(f"file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ArtifactIOError(f"corrupt JSON in {path}: {err}") from None


def _expect_format(payload, tag: str, path: str) -> None:
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != tag:
        raise ArtifactIOError(f"{path} has format {found!r}, expected {tag!r}")


def _get(data, key: str, path: str, kind=object):
    """data[key], or ArtifactIOError naming `path` if it is absent or not a `kind`."""
    if not isinstance(data, dict) or key not in data:
        raise ArtifactIOError(f"{path} has no {key!r} field")
    if not isinstance(data[key], kind):
        raise ArtifactIOError(f"{path} has a malformed {key!r} field: {data[key]!r}")
    return data[key]


# JSON types a record field of each scalar type accepts; container fields are
# left to the record's own __post_init__ checks.
_JSON_SCALARS = {
    int: int,
    float: (int, float),
    str: str,
    Optional[float]: (int, float, type(None)),
}


def _record(cls, data, path: str, names: Optional[Sequence[str]] = None):
    """`cls(**data)` for a record read from `path`, with errors naming the file.

    The record must hold exactly the fields `names` (default: every field of
    the dataclass `cls`). A missing or unknown key, a scalar of the wrong JSON
    type, or a value that `cls` itself refuses raises ArtifactIOError.
    """
    if names is None:
        names = [f.name for f in fields(cls)]
    what = f"{path}: {cls.__name__} record"
    if not isinstance(data, dict):
        raise ArtifactIOError(f"{what} is not a JSON object: {data!r}")
    missing = [k for k in names if k not in data]
    if missing:
        raise ArtifactIOError(f"{what} lacks {missing}")
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ArtifactIOError(f"{what} has unknown keys {unknown}")
    hints = get_type_hints(cls)
    for k in names:
        kinds, value = _JSON_SCALARS.get(hints[k]), data[k]
        if kinds is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ArtifactIOError(f"{what} field {k!r} has the wrong type: {value!r}")
    try:
        return cls(**data)
    except (FvmnetError, TypeError, ValueError) as err:
        raise ArtifactIOError(f"{what} is invalid: {err}") from None


def write_csv(path: str, header: str, rows: Sequence[Sequence]) -> str:
    """Write one CSV with repr-precision floats and \\n line endings."""
    with atomic_writer(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(float(v)) if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )
    return path


def read_csv(path: str, header: str) -> List[List[str]]:
    """The fields of each non-blank line after `header`."""
    try:
        fh = open(path)
    except FileNotFoundError:
        raise ArtifactIOError(f"file not found: {path}") from None
    with fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ArtifactIOError(f"{path} header is {first!r}, expected {header!r}")
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


# ----- snapshot series -----


def save_series(
    out_dir: str,
    series: Sequence[Snapshot],
    grid: GridSpec,
    params: PhysicalParams,
    extra: Optional[Mapping] = None,
) -> str:
    """Write one `.npy` file per snapshot, then manifest.json; returns the manifest path.

    Each `snap_<k>.npy` holds the snapshot's values as a C-order
    little-endian float64 (6, m, n) array; the manifest holds the times.
    """
    if not series:
        raise DomainError("cannot save an empty series")
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    # A manifest from an earlier save would name snapshots being overwritten.
    _remove_if_present(manifest_path)
    entries = []
    for idx, snap in enumerate(series):
        if snap.shape != (grid.m, grid.n):
            raise DomainError(
                f"snapshot {idx} has shape {snap.shape}, grid is ({grid.m}, {grid.n})"
            )
        name = f"snap_{idx:06d}.npy"
        with atomic_writer(os.path.join(out_dir, name), "wb") as fh:
            values = np.ascontiguousarray(snap.values, dtype=ARRAY_DTYPE)
            np.save(fh, values, allow_pickle=False)
        entries.append({"file": name, "time": snap.time})
    manifest = {
        "format": SERIES_FORMAT,
        "grid": asdict(grid),
        "variables": list(VARIABLES),
        "params": asdict(params),
        "snapshots": entries,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return dump_json(manifest_path, manifest)


def _check_array(values: np.ndarray, shape: Tuple[int, ...], where: str,
                 name=lambda index: f"value at {index}") -> np.ndarray:
    """`values` if a finite C-order <f8 array of `shape`, else ArtifactIOError at `where`."""
    if values.dtype != ARRAY_DTYPE or values.shape != shape or not values.flags.c_contiguous:
        order = "C" if values.flags.c_contiguous else "Fortran"
        raise ArtifactIOError(
            f"{where} holds a {order}-order {values.dtype.str} array of shape "
            f"{values.shape}, expected a C-order <f8 array of shape {shape}"
        )
    if not np.isfinite(values).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise ArtifactIOError(f"{where} holds a non-finite {name(index)}")
    return values


def _load_snapshot(path: str, m: int, n: int, time_: float) -> Snapshot:
    """Read one snapshot file, refusing all but a finite array as `save_series` writes it."""
    try:
        with open(path, "rb") as fh:
            values = np.load(fh, allow_pickle=False)
            trailing = fh.read(1)
    except _UNREADABLE as err:
        raise ArtifactIOError(f"{path} is not a readable .npy array: {err}") from None
    if not isinstance(values, np.ndarray):
        raise ArtifactIOError(f"{path} is an .npz archive, not an .npy array")
    if trailing:
        raise ArtifactIOError(f"{path} has bytes after its array")
    _check_array(values, (len(VARIABLES), m, n), path,
                 lambda index: f"{VARIABLES[index[0]]} at cell {index[1:]}")
    return Snapshot(values, time_)


def load_series(
    manifest_path: str, count: Optional[int] = None
) -> Tuple[List[Snapshot], GridSpec, PhysicalParams]:
    """The first `count` snapshots of a saved series (all by default), its grid and params.

    The manifest is checked whole, whatever `count`: its format, variables,
    grid and params records, every time gap, and that every listed snapshot
    file exists. Only the snapshots returned are read, so a series shorter
    than `count` comes back whole.
    """
    if not os.path.exists(manifest_path):
        raise ArtifactIOError(f"manifest not found: {manifest_path}")
    payload = read_json(manifest_path)
    _expect_format(payload, SERIES_FORMAT, manifest_path)
    variables = _get(payload, "variables", manifest_path)
    if variables != list(VARIABLES):
        raise ArtifactIOError(
            f"{manifest_path} stores variables {variables}, "
            f"this package uses {list(VARIABLES)}"
        )
    grid = _record(GridSpec, _get(payload, "grid", manifest_path), manifest_path)
    params = _record(
        PhysicalParams, _get(payload, "params", manifest_path), manifest_path
    )
    entries = _get(payload, "snapshots", manifest_path, list)
    times = [
        float(_get(entry, "time", manifest_path, (int, float))) for entry in entries
    ]
    for k in range(1, len(times)):
        gap = times[k] - times[k - 1]
        if not abs(gap - grid.dt) <= time_tolerance(grid.dt):  # a NaN time fails too
            raise ArtifactIOError(
                f"{manifest_path} snapshot {k} is {gap:.12g} after snapshot {k - 1}, "
                f"expected one step of dt={grid.dt:.12g}"
            )
    base = os.path.dirname(manifest_path)
    paths = [
        os.path.join(base, _get(entry, "file", manifest_path, str)) for entry in entries
    ]
    for path in paths:
        if not os.path.isfile(path):
            raise ArtifactIOError(f"file not found: {path}")
    series = [
        _load_snapshot(path, grid.m, grid.n, time_)
        for path, time_ in zip(paths[:count], times)
    ]
    return series, grid, params


# ----- trained surrogate bundle -----


def save_bundle(
    out_dir: str,
    bundle: SurrogateBundle,
    seed: int,
    train_config: TrainConfig,
) -> str:
    """Write the whole bundle as one bundle.npz archive; returns its path.

    The archive holds one `.npy` member per array: the standardizer's `mean`
    and `std`, and `<var>.w<l>` and `<var>.b<l>` for layer l of each network.
    Its `meta` member is the JSON text of the rest: the format tag, seed,
    training-config digest, cell layout, and each network's spec and target
    scale. The format holds all six networks, so a bundle missing any of
    them is refused.
    """
    nets = bundle.networks
    missing = [v for v in VARIABLES if v not in nets]
    if missing:
        raise DomainError(f"cannot save a bundle without networks for {missing}")
    os.makedirs(out_dir, exist_ok=True)
    meta = {
        "format": BUNDLE_FORMAT,
        "seed": int(seed),
        "train_config_digest": config_digest(train_config),
        "layout": asdict(bundle.layout),
        "networks": {
            v: {"spec": asdict(nets[v].spec), "target_scale": list(bundle.target_scales[v])}
            for v in VARIABLES
        },
    }
    arrays = {"mean": bundle.standardizer.mean, "std": bundle.standardizer.std}
    for v in VARIABLES:
        for k, (w, b) in enumerate(zip(nets[v].weights, nets[v].biases)):
            arrays[f"{v}.w{k}"], arrays[f"{v}.b{k}"] = w, b
    path = os.path.join(out_dir, BUNDLE_FILE)
    with atomic_writer(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta, sort_keys=True), **{
            name: np.ascontiguousarray(a, dtype=ARRAY_DTYPE) for name, a in arrays.items()
        })
    return path


def load_bundle(out_dir: str) -> SurrogateBundle:
    """The bundle `save_bundle` wrote to `out_dir`, with exactly one network per variable.

    Each array member must be a finite C-order <f8 array of the shape that
    `meta` implies, and the archive may hold no other member.
    """
    path = os.path.join(out_dir, BUNDLE_FILE)
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.ndarray):
                raise ArtifactIOError(f"{path} is an .npy array, not an .npz archive")
            members = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise ArtifactIOError(f"file not found: {path}") from None
    # A corrupt archive also fails in zipfile: bad CRCs, offsets or methods.
    except (*_UNREADABLE, zipfile.BadZipFile, NotImplementedError, OSError) as err:
        raise ArtifactIOError(f"{path} is not a readable .npz archive: {err}") from None

    def member(name: str, shape: Tuple[int, ...]) -> np.ndarray:
        values = members.pop(name, None)
        if not isinstance(values, np.ndarray):
            raise ArtifactIOError(f"{path} has no {name!r} array member")
        return _check_array(values, shape, f"{path} member {name!r}")

    try:  # a missing `meta` reads as empty text
        meta = json.loads(str(members.pop("meta", "")))
    except ValueError as err:
        raise ArtifactIOError(f"{path} has no readable 'meta' JSON text: {err}") from None
    _expect_format(meta, BUNDLE_FORMAT, path)
    layout = _record(CellLayout, _get(meta, "layout", path), path)
    width = (layout.width,)
    standardizer = _record(Standardizer, {k: member(k, width) for k in ("mean", "std")}, path)
    entries = _get(meta, "networks", path, dict)
    if sorted(entries) != sorted(VARIABLES):
        raise ArtifactIOError(
            f"{path} holds networks for {sorted(entries)}, expected {sorted(VARIABLES)}"
        )
    networks: Dict[str, Network] = {}
    scales: Dict[str, Tuple[float, float]] = {}
    for v in VARIABLES:
        entry, where = entries[v], f"{path} network {v!r}"
        spec = _record(NetworkSpec, _get(entry, "spec", where), where)
        sizes = list(enumerate(spec.layer_sizes()))
        weights = [member(f"{v}.w{k}", size) for k, size in sizes]
        biases = [member(f"{v}.b{k}", size[1:]) for k, size in sizes]
        networks[v] = Network(spec, weights, biases)
        scale = _get(entry, "target_scale", where, list)
        if len(scale) != 2 or not all(isinstance(s, (int, float)) for s in scale):
            raise ArtifactIOError(f"{where} target_scale is not two numbers: {scale!r}")
        scales[v] = (float(scale[0]), float(scale[1]))
    if members:
        raise ArtifactIOError(f"{path} has unexpected members {sorted(members)}")
    record = dict(networks=networks, standardizer=standardizer, target_scales=scales,
                  layout=layout)
    return _record(SurrogateBundle, record, path)


def save_train_reports(out_dir: str, reports: Mapping[str, TrainReport]) -> str:
    payload = {
        v: {**asdict(rep), "epochs_run": rep.epochs_run} for v, rep in reports.items()
    }
    return dump_json(os.path.join(out_dir, "train_reports.json"), payload)


# ----- rollout reports -----

REPORT_HEADER = "step,mode,variable,max_rel_err,mean_rel_err,scaled_residual"
TIMING_HEADER = "step,ml_ms,cfd_ms"
ABLATION_HEADER = (
    "kind,name,input_mode,output_mode,param_count,epochs,max_rel_err_T,mean_rel_err_T"
)
ABLATION_TIMING_HEADER = "kind,name,param_count,ml_ms"


def write_rollout_report(out_dir: str, report: RolloutReport) -> Tuple[str, str]:
    """Write the deterministic report CSV and its wall-clock sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    report_file = os.path.join(out_dir, f"report_{report.mode}.csv")
    timing_file = os.path.join(out_dir, f"timing_{report.mode}.csv")
    rows = []
    for rec in report.steps:
        for v in VARIABLES:
            rows.append(
                (
                    rec.step,
                    report.mode,
                    v,
                    float(rec.max_errors[v]),
                    float(rec.mean_errors[v]),
                    float(rec.scaled_residual),
                )
            )
    write_csv(report_file, REPORT_HEADER, rows)
    write_csv(
        timing_file,
        TIMING_HEADER,
        [(rec.step, float(rec.ml_ms), float(rec.cfd_ms)) for rec in report.steps],
    )
    return report_file, timing_file


ERROR_FIELD_HEADER = "i,j," + ",".join(f"{v}_abs_err" for v in VARIABLES)


def write_error_field(path: str, pred: Snapshot, truth: Snapshot) -> str:
    """Per-cell absolute error dump over the whole grid, for external plotting."""
    if pred.shape != truth.shape:
        raise DomainError(f"shape mismatch {pred.shape} vs {truth.shape}")
    m, n = pred.shape
    diff = np.abs(pred.values - truth.values)
    cells = diff.transpose(1, 2, 0).tolist()  # cells[i][j] lists the variables
    rows = [(i, j, *cells[i][j]) for i in range(m) for j in range(n)]
    return write_csv(path, ERROR_FIELD_HEADER, rows)


# ----- traces and audits -----


def write_trace(out_dir: str, trace: MacnetTrace) -> str:
    """Write trace.json (deterministic) and return its path.

    Every accepted residual is in `phases[].residuals`. Wall-clock fields
    stay out of trace.json; the caller owns timing sidecars.
    """
    os.makedirs(out_dir, exist_ok=True)
    record = asdict(trace)
    payload = {"format": TRACE_FORMAT, **{k: record[k] for k in TRACE_FIELDS}}
    return dump_json(os.path.join(out_dir, "trace.json"), payload)


def load_trace(path: str) -> MacnetTrace:
    payload = read_json(path)
    _expect_format(payload, TRACE_FORMAT, path)
    del payload["format"]
    events = (("phases", Phase), ("retrains", RetrainEvent), ("fallbacks", FallbackEvent))
    for key, cls in events:
        payload[key] = [_record(cls, item, path) for item in _get(payload, key, path, list)]
    return _record(MacnetTrace, payload, path, TRACE_FIELDS)


AUDIT_HEADER = "step,mode,variable,max_rel_err,mean_rel_err"
MACNET_TIMING_HEADER = (
    "wall_seconds,train_seconds,pure_cfd_seconds,"
    "hybrid_step_ms,solver_step_ms,step_cost_ratio"
)


def write_audit(out_dir: str, rows) -> str:
    """rows: AuditRow sequence from the hybrid error audit."""
    flat = []
    for row in rows:
        for v in VARIABLES:
            flat.append(
                (row.step, row.mode, v, float(row.max_errors[v]), float(row.mean_errors[v]))
            )
    return write_csv(os.path.join(out_dir, "audit.csv"), AUDIT_HEADER, flat)
