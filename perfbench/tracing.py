"""Timing wrappers around calls into massbath's modules, for traced runs only.

`Tracer.install` replaces each hooked function with a wrapper in every
massbath module namespace that binds it (a function imported into another
module is looked up there, so it is wrapped there too), and each hooked method
on its class. While an op is open, every wrapped call records a span: metric
name, start, end, parent span and op id. Spans stay in memory (compact
arrays) until `summary` turns them into per-layer numbers and `save` writes
them out. A hook whose target no longer exists is counted in
`trace.hooks_missing` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np


def _size(value) -> float:
    return float(np.size(value))


# (metric, module, attribute, work count from (args, result) or None)
HOOKS = [
    ("cli.parse", "cli", "build_parser", None),
    ("cli.parse", "cli", "parse_initial", None),
    ("cli.format", "cli", "_write_map", None),
    ("cli.format", "cli", "cmd_evolve", None),
    ("cli.emit", "cli", "_emit", lambda a, r: len(a[0].encode())),
    ("cli.manifest", "cli", "_write_manifest", None),
    ("experiments.evolve_scan", "experiments", "evolve_scan", lambda a, r: r.concurrence.size),
    ("experiments.thermal_scan", "experiments", "thermal_scan", lambda a, r: r.concurrence.size),
    ("experiments.max_over_time", "experiments", "_max_over_time", None),
    ("experiments.golden_max", "experiments", "_golden_max", None),
    ("experiments.vacuum_max_over_time", "experiments", "_vacuum_max_over_time", None),
    ("experiments.generation_reach", "experiments", "generation_reach", None),
    ("experiments.threshold", "experiments", "thermal_generation_threshold", None),
    ("experiments.run_verification", "experiments", "run_verification", None),
    ("xstate.build_rate_matrix", "xstate", "build_rate_matrix", None),
    ("xstate.propagator_init", "xstate", "EigenPropagator.__init__", None),
    ("xstate.populations", "xstate", "EigenPropagator.populations", lambda a, r: _size(a[2])),
    ("xstate.state", "xstate", "EigenPropagator.state", None),
    ("xstate.closed_form_state", "xstate", "closed_form_state", None),
    ("xstate.trajectory", "xstate", "closed_form_trajectory", lambda a, r: len(r.taus)),
    ("xstate.trajectory", "xstate", "eigen_trajectory", lambda a, r: len(r.taus)),
    ("xstate.integrate_ode", "xstate", "integrate_ode", lambda a, r: len(r.taus) - 1),
    ("measures.scalar", "measures", "concurrence", None),
    ("measures.scalar", "measures", "negativity", None),
    ("measures.scalar", "measures", "entanglement", None),
    ("measures.arrays", "measures", "_measures_arrays", lambda a, r: _size(a[0])),
    ("measures.detect_events", "measures", "detect_events", None),
    ("field_bath.coefficients", "field_bath", "coefficients", None),
    ("field_bath.coefficients", "field_bath", "vacuum_coefficients", None),
    ("field_bath.coefficients", "field_bath", "thermal_coefficients", None),
]

# Counted, not timed: every XState construction runs __post_init__.
XSTATE_COUNTER = ("xstate", "XState.__post_init__")

OP = "op"

# Per-layer metrics: (metric, kind). Kinds: calls, s (self time), work (the
# hook's work count).
LAYER_METRICS = [
    ("cli.parse", "s"), ("cli.format", "s"), ("cli.emit", "s"), ("cli.emit", "bytes"),
    ("cli.manifest", "s"),
    ("experiments.evolve_scan", "s"), ("experiments.evolve_scan", "cells"),
    ("experiments.thermal_scan", "s"), ("experiments.thermal_scan", "cells"),
    ("experiments.max_over_time", "calls"), ("experiments.max_over_time", "s"),
    ("experiments.golden_max", "calls"), ("experiments.golden_max", "s"),
    ("experiments.vacuum_max_over_time", "calls"), ("experiments.vacuum_max_over_time", "s"),
    ("experiments.generation_reach", "calls"), ("experiments.generation_reach", "s"),
    ("experiments.threshold", "s"), ("experiments.run_verification", "s"),
    ("xstate.build_rate_matrix", "calls"), ("xstate.build_rate_matrix", "s"),
    ("xstate.propagator_init", "calls"), ("xstate.propagator_init", "s"),
    ("xstate.populations", "calls"), ("xstate.populations", "taus"), ("xstate.populations", "s"),
    ("xstate.state", "calls"), ("xstate.state", "s"),
    ("xstate.closed_form_state", "calls"), ("xstate.closed_form_state", "s"),
    ("xstate.trajectory", "calls"), ("xstate.trajectory", "samples"), ("xstate.trajectory", "s"),
    ("xstate.integrate_ode", "calls"), ("xstate.integrate_ode", "steps"),
    ("xstate.integrate_ode", "s"),
    ("measures.scalar", "calls"), ("measures.scalar", "s"),
    ("measures.arrays", "calls"), ("measures.arrays", "elements"), ("measures.arrays", "s"),
    ("measures.detect_events", "calls"), ("measures.detect_events", "s"),
    ("field_bath.coefficients", "calls"), ("field_bath.coefficients", "s"),
]

_KIND_UNITS = {"s": "s", "bytes": "bytes"}  # every other kind is a count

# Every per-layer metric of a traced run, with its unit.
PER_LAYER = {f"{metric}.{kind}": _KIND_UNITS.get(kind, "count") for metric, kind in LAYER_METRICS}
PER_LAYER.update({
    "experiments.max_over_time.passes": "count",
    "experiments.golden_max.evals": "count",
    "experiments.refine_evals_per_cell": "count",
    "xstate.xstate_objects": "count",
    "route.closed_form_frac": "fraction",
    "route.eigen_frac": "fraction",
    "route.frozen_frac": "fraction",
    "check.out_dev_max": "1",
    "check.csv_identical": "fraction",
    "check.failed_frac": "fraction",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.hooks_missing": "count",
})

# Spans that count as one refinement evaluation when their parent is
# _golden_max (the evaluated function is a closure, so its callee is timed).
_EVALS = ("xstate.state", "xstate.closed_form_state", "experiments.max_over_time")


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.xstates = 0
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- recording

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def _wrap(self, metric: str, fn, work):
        name_id = self._ids.setdefault(metric, len(self._ids))
        if name_id == len(self.names):
            self.names.append(metric)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if work is not None:
                tracer.work[index] = work(args, result)
            return result

        return wrapper

    # -- installing

    def install(self, package) -> None:
        modules = [m for name, m in _massbath_modules(package)]
        for metric, module_name, attr, work in HOOKS:
            self._hook(package, modules, module_name, attr,
                       lambda fn, metric=metric, work=work: self._wrap(metric, fn, work))
        self._hook(package, modules, *XSTATE_COUNTER, self._count_xstates)

    def _count_xstates(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op >= 0:
                tracer.xstates += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hook(self, package, modules, module_name, attr, make) -> None:
        try:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
        except ModuleNotFoundError:
            self.missing.append(f"{module_name}.{attr}")
            return
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            setattr(cls, method, make(original))
            self._restore.append((cls, method, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results

    def summary(self, batches: int) -> dict[str, float]:
        """Per-layer metrics, each a per-batch average over `batches`."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        work = np.array(self.work)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        outermost = parent_name != name
        ids = self._ids
        out: dict[str, float] = {}

        def mask(metric: str) -> np.ndarray:
            return name == ids.get(metric, -2)

        for metric, kind in LAYER_METRICS:
            m = mask(metric)
            if kind == "s":
                value = float(self_time[m].sum())
            elif kind == "calls":
                value = float(np.count_nonzero(m & outermost))
            else:
                value = float(work[m].sum())
            out[f"{metric}.{kind}"] = value / batches

        mot = mask("experiments.max_over_time")
        mot_calls = max(np.count_nonzero(mot), 1)
        under_mot = nested & (parent_name == ids.get("experiments.max_over_time", -2))
        passes = under_mot & mask("xstate.populations") & (work > 1)
        out["experiments.max_over_time.passes"] = np.count_nonzero(passes) / mot_calls
        eval_ids = [ids[n] for n in _EVALS if n in ids]
        evals = nested & (parent_name == ids.get("experiments.golden_max", -2)) & np.isin(name, eval_ids)
        out["experiments.golden_max.evals"] = np.count_nonzero(evals) / batches
        golden = np.flatnonzero(evals)
        grand = parent_name[parent[golden]]
        refine = np.count_nonzero(grand == ids.get("experiments.max_over_time", -2))
        out["experiments.refine_evals_per_cell"] = refine / mot_calls
        out["xstate.xstate_objects"] = self.xstates / batches
        out["trace.untraced_s"] = float(self_time[name == 0].sum()) / batches
        out["trace.hooks_missing"] = float(len(self.missing))
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            work=np.array(self.work),
        )


def _massbath_modules(package):
    import sys

    prefix = package.__name__
    for name, module in list(sys.modules.items()):
        if module is not None and (name == prefix or name.startswith(prefix + ".")):
            yield name, module
