"""Span recorder that wraps projdim's public functions from outside the package.

Every public function defined in a layer module is replaced by a wrapper
that records a span (wall time, self time, call count) and is bound again at
every projdim module that imported the name, so call sites such as
``pressure.log_ratio_batch`` or ``semigroup.mat_mul`` are seen as well as
the defining module's own.  Only public names are read or replaced; the
package's private caches are left alone.

Aggregates are kept in memory under three kinds of key:

* ``<layer>.<function>``: every call;
* ``<layer>.<function>@<label>``: for the functions in ``PER_SYSTEM``, calls
  whose first argument is a system (anything with a string ``label``), so
  the cost of each rauzy ladder system can be split out;
* ``pressure.partition_sum[build]`` / ``[warm]``: evaluations that did or
  did not build word levels (a ``log_ratio_batch`` span below them).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "semigroup", "pressure", "projective", "ergodic", "cover",
          "systems", "cli")


def _nonfinite(arrays) -> int:
    return int(sum(np.size(a) - np.count_nonzero(np.isfinite(a)) for a in arrays))


def _count_opnorm(result):
    return {"linalg.opnorm_batch.matrices": np.size(result),
            "linalg.nonfinite": _nonfinite([result])}


def _count_log_ratio(result):
    return {"linalg.log_ratio_batch.matrices": np.size(result[0]),
            "linalg.nonfinite": _nonfinite(result)}


# Work counts read from a function's result.
COUNTERS = {
    "linalg.opnorm_batch": _count_opnorm,
    "linalg.log_ratio_batch": _count_log_ratio,
    "semigroup.stopping_partition_psi":
        lambda r: {"semigroup.stopping_partition_psi.words": len(r)},
    "projective.xi_partition": lambda r: {"projective.xi_partition.words": len(r)},
    "cover.svd_cover_upper": lambda r: {"cover.svd_cover_upper.nodes": r.diagnostics["nodes"]},
    "projective.project_measure_samples":
        lambda r: {"projective.project_measure_samples.samples": len(r)},
    "ergodic.lyapunov_exponents": lambda r: {"ergodic.lyapunov_exponents.steps": r.steps},
}


# Spans also aggregated per system, under ``<name>@<label>``.
PER_SYSTEM = {"semigroup.require_positive_like", "pressure.partition_sum"}


class _Frame:
    __slots__ = ("name", "tag", "start", "child", "built")

    def __init__(self, name, tag=None):
        self.name = name
        self.tag = tag
        self.start = time.perf_counter()
        self.child = 0.0
        self.built = False  # a log_ratio_batch span ran below this one


class Tracer:
    """In-memory span aggregates: ``spans[key] = [calls, s, self_s]``."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack = [_Frame(None)]
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    @property
    def covered_s(self) -> float:
        """Wall time covered by outermost spans."""
        return self._stack[0].child

    def _add(self, key, inclusive, self_s):
        agg = self.spans.setdefault(key, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += inclusive
        agg[2] += self_s

    def _exit(self, frame, result):
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        self._active[frame.name] -= 1
        parent = self._stack[-1]
        parent.child += dur
        parent.built |= frame.built or frame.name == "linalg.log_ratio_batch"
        # inclusive time only at the outermost activation, so recursion is not double counted
        inclusive = dur if self._active[frame.name] == 0 else 0.0
        self_s = dur - frame.child
        names = [frame.name]
        if frame.name == "pressure.partition_sum":
            kind = "build" if frame.built else "warm"
            names.append(f"{frame.name}[{kind}]")
        for name in names:
            self._add(name, inclusive, self_s)
            if frame.tag is not None:
                self._add(f"{name}@{frame.tag}", inclusive, self_s)
        hook = COUNTERS.get(frame.name)
        if hook is not None and result is not None:
            self.counts.update(hook(result))

    def wrap(self, name, fn):
        tagged = name in PER_SYSTEM

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = getattr(args[0], "label", None) if tagged and args else None
            frame = _Frame(name, label if isinstance(label, str) else None)
            self._stack.append(frame)
            self._active[name] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(frame, result)

        return traced

    def install(self) -> "Tracer":
        """Wrap the layers' public functions at every projdim module binding them."""
        modules = [importlib.import_module(f"projdim.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "projdim" or modname.startswith("projdim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("_") and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Flat metric map: ``<key>.{calls,s,self_s}``, work counts and per-layer self time."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, (calls, incl, self_s) in self.spans.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = incl
            out[f"{key}.self_s"] = self_s
            if "@" not in key and "[" not in key:
                layer_self[key.split(".", 1)[0]] += self_s
        out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        out.update(self.counts)
        return out
