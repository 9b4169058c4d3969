"""fvmnet benchmark: time one workload and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. Each timed run starts `fvmnet <command>` in a
fresh single-threaded process (BLAS/OpenMP thread caps set to 1 in the
child's environment) and writes into a fresh output directory. Runs repeat
while another one fits in S seconds, judged by the longest so far; there is
always at least one.
Every run's outputs are checked, and its deterministic artifacts must be
byte-identical to the first run's; a run that exits non-zero or fails a
check counts as failed.

With --trace 0 the children carry only timers around solver.step,
rollout.timed_predict_step and rollout.train_bundle, and the result line
holds the end-to-end metrics. With --trace 1, untraced and traced children
alternate; the traced ones wrap every public function of each fvmnet module
and the result line holds the per-layer metrics, including the tracing
overhead (mean traced minus mean untraced wall time).

Human-readable tables go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import child
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0  # a whole invocation must end within 180 s


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def tail(values):
    """(percentile, value): highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Bench:
    def __init__(self, root: str, name: str, seed: int, seconds: int, work: str):
        self.root, self.name, self.seed, self.seconds = root, name, seed, seconds
        self.work = work
        self.prep = os.path.join(work, "prep")
        self.out = os.path.join(work, "out")
        self.started = time.monotonic()
        self.env = dict(os.environ)
        for var in child.THREAD_VARS:
            self.env[var] = "1"
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.first_payload = None
        self.prep_steps = []  # solver.step seconds timed while preparing inputs
        self.reference = None  # artifact digests of the first run
        self.attempted = self.failed = 0
        self.problems = []

    def spawn(self, argv, mode):
        """Run one fvmnet command in a child; returns (code, wall_s, payload)."""
        result = os.path.join(self.work, "child.json")
        log_path = os.path.join(self.work, "child.log")
        if os.path.exists(result):
            os.remove(result)
        budget = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(log_path, "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, result, repr(t0), mode, "--", *argv],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
            try:
                code = proc.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - t0
        payload = None
        if os.path.exists(result):
            with open(result) as fh:
                payload = json.load(fh)
        if code != 0:
            with open(log_path) as fh:
                detail = fh.read()[-2000:]
            self.problems.append(f"fvmnet {' '.join(argv[:1])} exited {code}:\n{detail}")
        if payload is not None and self.first_payload is None:
            self.first_payload = payload
        return code, wall, payload

    def prepare(self):
        for argv in workloads.prepare_commands(self.name, self.seed, self.prep):
            code, _, payload = self.spawn(argv, "timers")
            if code != 0 or payload is None:
                raise RuntimeError("preparing inputs failed:\n" + "\n".join(self.problems))
            self.prep_steps += payload["recorder"]["durations"].get("solver.step", [])

    def timed(self, mode):
        """One checked run of the workload command; returns a sample dict or None."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = workloads.command(self.name, self.seed, self.out, self.prep)
        self.attempted += 1
        code, wall, payload = self.spawn(argv, mode)
        problems = [] if code == 0 and payload else ["command failed"]
        facts = {}
        if not problems:
            problems, facts = workloads.check(self.name, self.out)
            digests = workloads.artifact_digests(self.out)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(
                    k for k in set(digests) | set(self.reference)
                    if digests.get(k) != self.reference.get(k)
                )
                problems.append(f"artifacts differ from the first run: {changed[:5]}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{mode} run: {p}" for p in problems)
            return None
        files, size = workloads.written(self.out)
        return {
            "wall_s": wall,
            "setup_s": payload["first_compute_t"] - payload["spawn_t"],
            "peak_rss_mb": payload["peak_rss_kb"] / 1024.0,
            "recorder": payload["recorder"],
            "facts": facts,
            "files": files,
            "bytes": size,
        }

    def loop(self, modes):
        """Repeat the modes in turn while another round fits in `seconds`; at least once.

        A round that would end past `seconds`, judged by the longest round so
        far, is not started, so a run's length stays near `seconds`.
        """
        samples = {mode: [] for mode in modes}
        t0, longest = time.monotonic(), 0.0
        while True:
            start = time.monotonic()
            for mode in modes:
                sample = self.timed(mode)
                if sample is not None:
                    samples[mode].append(sample)
            now = time.monotonic()
            longest = max(longest, now - start)
            if now - t0 + longest > self.seconds:
                return samples


# ----- end-to-end metrics -----

# The metrics every workload has, as BENCHMARK.json lists them, and how each
# is summarised over a run. The times are means: on a 2-vCPU Xeon VM whose
# speed switched between a fast and a slow state every few seconds (one
# solver.step took ~36 or ~52 ms), a run's median jumped between the two
# states while its mean followed the share of time spent in each. Over the
# same ten generate runs, IQR/median across runs was 0.07 for the mean of
# wall_s and 0.14 for its median; 0.06 and 0.17 for step_ms. setup_s stays a
# median of the run's set-ups.
E2E = {"wall_s": mean, "setup_s": median, "peak_rss_mb": median, "step_ms": mean}


def series(name, samples):
    """metric -> (unit, samples), the per-call step timers pooled over runs."""

    def durations(key):
        return [d * 1e3 for s in samples for d in s["recorder"]["durations"].get(key, [])]

    train_s = [sum(s["recorder"]["durations"].get("rollout.train_bundle", [])) for s in samples]
    epoch_ms = [
        1e3 * t / s["recorder"]["epochs"] for t, s in zip(train_s, samples) if s["recorder"]["epochs"]
    ]
    out = {
        "wall_s": ("s", [s["wall_s"] for s in samples]),
        "setup_s": ("s", [s["setup_s"] for s in samples]),
        "peak_rss_mb": ("MB", [s["peak_rss_mb"] for s in samples]),
        "solver_step_ms": ("ms", durations("solver.step")),
        "hybrid_step_ms": ("ms", durations("rollout.timed_predict_step")),
        "train_s": ("s", [t for t in train_s if t > 0.0]),
        "epoch_ms": ("ms", epoch_ms),
        "max_rel_err_T": ("ratio", [s["facts"]["max_rel_err_T"] for s in samples
                                    if "max_rel_err_T" in s["facts"]]),
        "ml_fraction": ("ratio", [s["facts"]["ml_fraction"] for s in samples
                                  if "ml_fraction" in s["facts"]]),
    }
    unit = workloads.STEP_UNIT[name]
    out["step_ms"] = ("ms", epoch_ms if unit == "epoch" else durations(unit))
    return out


def e2e_metrics(name, samples):
    table = series(name, samples)
    return {
        key: {"value": summary(table[key][1]), "unit": table[key][0]}
        for key, summary in E2E.items()
    }


# ----- per-layer metrics -----

# Unit by the last dotted part of the metric name; anything else is a count.
PER_LAYER_UNIT = {
    "ms": "ms", "strip_ms": "ms", "infer_ms": "ms", "val_ms": "ms", "step_overhead_ms": "ms",
    "self_s": "s", "s": "s", "overhead_s": "s", "bytes_written": "B",
    "useful_step_ratio": "ratio", "hybrid_to_solver_cost": "ratio", "accepted_ratio": "ratio",
    "train_share": "ratio", "ml_fraction": "ratio", "max_rel_err_T": "ratio",
}


def per_layer(name, traced, untraced, prep_steps):
    """Per-layer metrics from one traced run plus the untraced runs beside it."""
    rec = traced["recorder"]
    calls, total, self_t = rec["calls"], rec["total"], rec["self"]
    dur, pairs = rec["durations"], rec["pair_durations"]

    def layer_self(layer):
        return sum(v for k, v in self_t.items() if k.split(".", 1)[0] == layer)

    def ms(values):
        return 1e3 * median(values)

    def under(parent, span):
        return pairs.get(f"{parent}>{span}", [])

    strips = [
        d for key, ds in pairs.items()
        if key.endswith(">solver.step_columns") and not key.startswith("solver.step>")
        for d in ds
    ]
    facts = traced["facts"]
    hybrid = calls.get("rollout.timed_predict_step", 0)
    recorded = (
        len(under("rollout.multi_step", "rollout.timed_predict_step"))
        + len(under("rollout.single_step", "rollout.timed_predict_step"))
        + facts.get("ml_steps", 0)
    )
    candidates = len(under("macnet.run", "rollout.predict_step"))
    steps_under_train = len(under("training.train", "network.backward_batch"))

    # Cost ratio from the untraced timers: the hybrid step against a full
    # solver step, taken from the same runs or from the preparing generate.
    timer_runs = [s["recorder"]["durations"] for s in untraced]
    hyb = [d for r in timer_runs for d in r.get("rollout.timed_predict_step", [])]
    sol = [d for r in timer_runs for d in r.get("solver.step", [])]
    sol = sol or prep_steps
    cost = median(hyb) / median(sol) if hyb and sol else 0.0
    macnet_total = total.get("macnet.run", 0.0)

    return {
        "solver.step.calls": calls.get("solver.step", 0),
        "solver.step.ms": ms(dur.get("solver.step", [])),
        "solver.step_columns.strip_ms": ms(strips),
        "solver.reaction_rate.ms": ms(dur.get("solver.reaction_rate", [])),
        "solver.continuity_residual.ms": ms(dur.get("solver.continuity_residual", [])),
        "solver.continuity_residual.calls": calls.get("solver.continuity_residual", 0),
        "solver.self_s": layer_self("solver"),
        "dataset.tier_matrix.ms": ms(dur.get("dataset.tier_matrix", [])),
        "dataset.tier_matrix.calls": calls.get("dataset.tier_matrix", 0),
        "dataset.build_datasets.ms": ms(dur.get("dataset.build_datasets", [])),
        "dataset.standardize.ms": ms(dur.get("dataset.Standardizer.apply", [])),
        "dataset.self_s": layer_self("dataset"),
        "network.predict.infer_ms": ms(
            under("rollout.SurrogateBundle.cell_outputs", "network.predict")
        ),
        "network.predict.val_ms": ms(under("training.train", "network.predict")),
        "network.backward_batch.ms": ms(dur.get("network.backward_batch", [])),
        "network.backward_batch.calls": calls.get("network.backward_batch", 0),
        "network.self_s": layer_self("network"),
        "training.train.calls": calls.get("training.train", 0),
        "training.epochs": len(under("training.train", "network.mse_loss")),
        "training.step_overhead_ms": (
            1e3 * self_t.get("training.train", 0.0) / steps_under_train
            if steps_under_train else 0.0
        ),
        "training.self_s": layer_self("training"),
        "rollout.hybrid_steps": hybrid,
        "rollout.useful_step_ratio": recorded / hybrid if hybrid else 0.0,
        "rollout.cell_outputs.ms": ms(dur.get("rollout.SurrogateBundle.cell_outputs", [])),
        "rollout.relative_error.calls": calls.get("rollout.relative_error", 0),
        "rollout.self_s": layer_self("rollout"),
        "rollout.hybrid_to_solver_cost": cost,
        "rollout.max_rel_err_T": facts.get("max_rel_err_T", 0.0) if name == "rollout" else 0.0,
        "macnet.candidates": candidates,
        "macnet.accepted_ratio": facts.get("ml_steps", 0) / candidates if candidates else 0.0,
        "macnet.retrains": facts.get("retrains", 0),
        "macnet.fallbacks": facts.get("fallbacks", 0),
        "macnet.train_share": (
            sum(under("macnet.run", "rollout.train_bundle")) / macnet_total
            if macnet_total else 0.0
        ),
        "macnet.self_s": layer_self("macnet"),
        "macnet.ml_fraction": facts.get("ml_fraction", 0.0),
        "macnet.max_rel_err_T": (
            facts.get("max_rel_err_T", 0.0) if name == "macnet-gated" else 0.0
        ),
        "io.save_series.s": total.get("io.save_series", 0.0),
        "io.load_series.s": total.get("io.load_series", 0.0),
        "io.save_bundle.s": total.get("io.save_bundle", 0.0),
        "io.load_bundle.s": total.get("io.load_bundle", 0.0),
        "io.bytes_written": traced["bytes"],
        "io.files_written": traced["files"],
        "io.self_s": layer_self("io"),
        "config.load_config.ms": 1e3 * total.get("config.load_config", 0.0),
        "cli.self_s": layer_self("cli"),
    }


def span_count_problems(name, seed, traced):
    expected, seed_free = workloads.EXPECTED_SPANS[name]
    if seed != 0 and not seed_free:
        return []
    calls = traced["recorder"]["calls"]
    return [
        f"traced {span} ran {calls.get(span, 0)} times, expected {want} at seed 0"
        for span, want in expected.items()
        if calls.get(span, 0) != want
    ]


# ----- environment and reporting -----


def environment(root, bench):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None  # a plain source checkout; src_sha256 identifies the code
    if os.path.exists(os.path.join(root, ".git")):  # not a repository above root
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for fname in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    first = bench.first_payload or {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": first.get("thread_env"),
        "blas_threads_in_effect": first.get("blas_threads"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(name, seed, seconds, trace, env, samples, per_layer_metrics, overhead, bench):
    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    print(f"why: {workloads.WHY[name]}")
    print("env: " + json.dumps(env, sort_keys=True))
    timed = samples.get("timers", [])
    print(f"{'metric':<16} {'unit':<6} {'n':>5} {'mean':>12} {'median':>12}  tail")
    for key, (unit, values) in series(name, timed).items():
        if not values:
            continue
        hi = tail(values)
        hi_text = f"p{hi[0]:.0f}={fmt(hi[1])}" if hi else "-"
        print(f"{key:<16} {unit:<6} {len(values):>5} {fmt(mean(values)):>12} "
              f"{fmt(median(values)):>12}  {hi_text}")
    ratio = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"{'fail_ratio':<16} {'ratio':<6} {bench.attempted:>5} {fmt(ratio):>12} {'':>12}  "
          f"({bench.failed}/{bench.attempted})")
    print(f"step_ms times: {workloads.STEP_UNIT[name]}")
    if per_layer_metrics is not None:
        print(f"traced runs: {len(samples.get('trace', []))}, "
              f"tracing overhead {fmt(overhead)} s")
        sites = samples["trace"][0]["recorder"]["sites"]
        aliases = sorted(
            site for name_, bound in sites.items() for site in bound
            if site.split(".", 1)[0] not in ("__init__", name_.split(".", 1)[0])
        )
        print(f"spans: {len(sites)} functions, also wrapped where imported as: "
              + ", ".join(aliases))
        for key, value in per_layer_metrics.items():
            print(f"  {key:<34} {fmt(value)}")
    for problem in bench.problems:
        print("PROBLEM: " + problem)


def run_workload(root, name, seed, seconds, trace, work):
    bench = Bench(root, name, seed, seconds, work)
    bench.prepare()
    modes = ("timers", "trace") if trace else ("timers",)
    samples = bench.loop(modes)
    per_layer_metrics, overhead = None, None
    if trace:
        traced = samples["trace"]
        if traced:
            overhead = mean([s["wall_s"] for s in traced]) - mean(
                [s["wall_s"] for s in samples["timers"]]
            )
            layers = [per_layer(name, t, samples["timers"], bench.prep_steps) for t in traced]
            # median_low keeps each value one that a traced run measured.
            per_layer_metrics = {
                k: statistics.median_low([m[k] for m in layers]) for k in layers[0]
            }
            per_layer_metrics["trace.overhead_s"] = overhead
            for t in traced:
                problems = span_count_problems(name, seed, t)
                if problems:
                    bench.failed += 1
                    bench.problems.extend(problems)
    env = environment(root, bench)
    report(name, seed, seconds, trace, env, samples, per_layer_metrics, overhead, bench)
    if trace:
        metrics = {
            k: {"value": v, "unit": PER_LAYER_UNIT.get(k.rsplit(".", 1)[-1], "count")}
            for k, v in (per_layer_metrics or {}).items()
        }
    else:
        metrics = e2e_metrics(name, samples["timers"]) if samples["timers"] else {}
    return bench, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children get killed
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fvmnet", "cli.py")):
        print("perfbench: src/fvmnet not found; run from the repository root", file=sys.stderr)
        return 2
    for var in child.THREAD_VARS:  # the output checks import numpy here too
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for name in names:
        work = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
        try:
            bench, found = run_workload(root, name, args.seed, args.seconds, args.trace, work)
        except RuntimeError as err:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += bench.attempted
        failed += bench.failed
        if len(names) == 1:
            metrics = found
        else:
            metrics.update({f"{name}.{k}": v for k, v in found.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
