"""Timers and spans installed around fvmnet's public functions from outside.

Several fvmnet modules bind a function to a local name at import time
(`from .solver import step`), so replacing the attribute on the defining
module alone would miss those calls. `_patch` therefore swaps the function
object everywhere it is bound in the package: every module attribute that is
the original function object gets the wrapper.

Two recorders share that mechanism:

* `Timers` (untraced runs) wraps only the few calls the end-to-end metrics
  need, so its cost stays negligible.
* `Tracer` (traced runs) wraps every public function of every layer module,
  plus `Standardizer.apply` and `SurrogateBundle.cell_outputs`, and keeps
  a span stack so each span's self time excludes its child spans.

Both mark the first entry into a compute function; the child process uses
that instant as the end of set-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("solver", "dataset", "network", "training", "rollout", "macnet", "io", "config", "cli")

# The first call into any of these ends set-up: the command has finished
# importing, resolving its config and reading its inputs.
COMPUTE_ENTRIES = (
    "solver.step",
    "solver.step_columns",
    "solver.continuity_residual",
    "dataset.build_datasets",
    "rollout.timed_predict_step",
    "rollout.train_bundle",
)

# Methods traced on their classes: (module, class, method).
METHODS = (
    ("dataset", "Standardizer", "apply"),
    ("rollout", "SurrogateBundle", "cell_outputs"),
)


def _modules():
    mods = {name: importlib.import_module(f"fvmnet.{name}") for name in LAYERS}
    mods["__init__"] = importlib.import_module("fvmnet")
    return mods


def _patch(mods, original, wrapper) -> list:
    """Rebind `original` to `wrapper` in every module that holds it; returns the sites."""
    sites = []
    for modname, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                sites.append(f"{modname}.{attr}")
    return sites


class _FirstCompute:
    def __init__(self):
        self.at = None  # time.monotonic() of the first compute entry

    def mark(self):
        if self.at is None:
            self.at = time.monotonic()


class Timers:
    """Per-call durations of solver.step, timed_predict_step and train_bundle."""

    def __init__(self):
        self.first = _FirstCompute()
        self.durations = defaultdict(list)  # name -> seconds per call
        self.epochs = 0  # network-epochs run inside train_bundle

    def install(self) -> None:
        mods = _modules()
        timed = {"solver.step", "rollout.timed_predict_step", "rollout.train_bundle"}
        for name in sorted(set(COMPUTE_ENTRIES) | timed):
            modname, attr = name.split(".")
            original = getattr(mods[modname], attr)
            wrapper = self._timed(name, original) if name in timed else self._marker(original)
            _patch(mods, original, wrapper)
        # training.train as bound in rollout: count the epochs each call ran.
        original = mods["training"].train
        _patch(mods, original, self._epoch_counter(original))

    def _marker(self, fn):
        first = self.first

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first.mark()
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        first, out, clock = self.first, self.durations[name], time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first.mark()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                out.append(clock() - t0)

        return wrapper

    def _epoch_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            net, report = fn(*args, **kwargs)
            self.epochs += report.epochs_run
            return net, report

        return wrapper

    def result(self) -> dict:
        return {"durations": dict(self.durations), "epochs": self.epochs}


class Tracer:
    """Spans around every public function of the layer modules.

    For each span name it keeps the call count, total and self seconds, and
    per-call durations; `pair_durations` keeps per-call durations by
    (parent span, span), so a call can be attributed to its caller (e.g.
    predict under cell_outputs versus under training.train).
    """

    def __init__(self):
        self.first = _FirstCompute()
        self._stack = []  # [name, seconds covered by child spans]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.pair_durations = defaultdict(list)  # "parent>name" -> seconds per call
        self.sites = {}

    def install(self) -> None:
        mods = _modules()
        for modname in LAYERS:
            mod = mods[modname]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # re-exported from another layer; wrapped there
                name = f"{modname}.{attr}"
                self.sites[name] = _patch(mods, fn, self._span(name, fn))
        for modname, clsname, meth in METHODS:
            cls = getattr(mods[modname], clsname)
            name = f"{modname}.{clsname}.{meth}"
            setattr(cls, meth, self._span(name, getattr(cls, meth)))
            self.sites[name] = [f"{modname}.{clsname}"]

    def _span(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        first = self.first if name in COMPUTE_ENTRIES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if first is not None:
                first.mark()
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.durations[name].append(dt)
                self.pair_durations[f"{parent}>{name}"].append(dt)

        return wrapper

    def result(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "durations": dict(self.durations),
            "pair_durations": dict(self.pair_durations),
            "sites": self.sites,
        }
