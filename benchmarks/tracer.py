"""Span tracing of posturemap's public functions, installed from outside.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds it in every ``posturemap`` module that holds a
reference (``from .som import train`` makes ``experiment.train`` a second
binding of the same function).  Each call then records a span: name,
parent span, start, end, self time (duration minus the time its child
spans cover) and whether it raised.  Spans stay in memory; the caller
writes them out when the run ends.  ``uninstall`` restores the originals.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# The package's modules, one layer each.  ``svg`` and ``errors`` hold no
# traced public functions; time spent in them counts toward the caller.
LAYERS = (
    "babble", "kinematics", "codec", "dataset", "som",
    "decode", "metrics", "experiment", "plots", "cli",
)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_train(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    som, data = a["som"], np.asarray(a["data"])
    steps = a["cfg"].cycles * data.shape[0]
    counts["som.train_steps"] += steps
    # Per step: BMU matvec (2uw), convex update (3uw), squared norms (2uw).
    counts["som.train_flops"] += 7 * som.n_units * som.width * steps


def _count_manifold(counts, fn, args, kwargs, result):
    counts["som.manifold_units"] += _bound(fn, args, kwargs)["som"].n_units


def _count_babble(counts, fn, args, kwargs, result):
    counts["babble.samples"] += result.n_samples


def _count_ik(counts, fn, args, kwargs, result):
    counts["kinematics.ik_ok"] += bool(result[1])


def _count_encode_dataset(counts, fn, args, kwargs, result):
    counts["codec.encode_values"] += result.size


def _count_encode_sample(counts, fn, args, kwargs, result):
    counts["codec.encode_values"] += result.values.size


# Counters read from arguments or results at the layer boundary.
HOOKS = {
    "som.train": _count_train,
    "som.manifold_distance": _count_manifold,
    "babble.generate_babble": _count_babble,
    "kinematics.solve_arm_ik": _count_ik,
    "codec.encode_dataset": _count_encode_dataset,
    "codec.encode_sample": _count_encode_sample,
}


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        # One row per finished span: [id, parent, name, start, end, self_s, raised].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, sid, parent, name, t0, t1, raised) -> None:
        _, child_s = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append([sid, parent, name, t0, t1, dur - child_s, raised])

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own phases (layer ``bench``)."""
        sid, parent = self._enter()
        t0 = time.perf_counter()
        raised = True
        try:
            yield
            raised = False
        finally:
            self._exit(sid, parent, name, t0, time.perf_counter(), raised)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            t0 = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer._exit(sid, parent, name, t0, time.perf_counter(), raised)
            if hook is not None:
                hook(tracer.counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, callers=()) -> None:
        """Wrap the public functions; ``callers`` are further modules
        (outside the package) whose bindings of them are rebound too."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"posturemap.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        package = [
            mod for name, mod in list(sys.modules.items())
            if name == "posturemap" or name.startswith("posturemap.")
        ]
        for mod in package + list(callers):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per-function and per-layer totals of a span list.

    Per function: calls, busy seconds (sum of durations), raised count.
    Per layer: calls, busy seconds (spans whose parent lies in another
    layer, so nested calls within a layer are not counted twice) and self
    seconds (sum of the spans' self times).
    """
    layer_by_id = {s[0]: s[2].split(".", 1)[0] for s in spans}
    by_name: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    for sid, parent, name, t0, t1, self_s, raised in spans:
        f = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "raised": 0})
        f["calls"] += 1
        f["busy_s"] += t1 - t0
        f["raised"] += int(raised)
        layer = layer_by_id[sid]
        g = by_layer.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        g["calls"] += 1
        g["self_s"] += self_s
        if parent is None or layer_by_id.get(parent) != layer:
            g["busy_s"] += t1 - t0
    return by_name, by_layer
