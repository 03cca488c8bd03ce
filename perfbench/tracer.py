"""Outside-in tracing of the ktangle layers for the benchmark's traced pass.

The program has no spans of its own, so the tracer wraps it from outside:

- every public function of each layer module, at every binding site (a
  module that did ``from .transpose import global_pt`` holds its own
  reference, and that name is rebound too);
- ``__post_init__`` and public methods of the layer modules' classes, so a
  ``DensityOperator`` construction (which validates by an eigensolve) is a
  span of its own;
- every public function of ``numpy.linalg``, as the pseudo-layer ``linalg``.

The wrappers are swapped in only while a traced command runs, so untraced
runs and the benchmark's own reference checks call the original functions.
Spans record (name, start, end, parent, command id) in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg

LAYERS = ("statefile", "core", "transpose", "negativity", "tangle", "canonical", "ghzw", "roof", "cli")
ALL_LAYERS = LAYERS + ("linalg",)
FACTORIZATIONS = frozenset(
    ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "pinv", "qr",
     "slogdet", "solve", "svd")
)


class Tracer:
    """Spans around the ktangle layers; ``active(True)`` swaps the wrappers in."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, command id]
        self.stack = []
        self.cmd = -1  # id of the running command
        self.counts = Counter()
        self.patches = []  # (owner, attribute, original, wrapper)

    def active(self, on: bool):
        for owner, attr, original, wrapper in self.patches:
            setattr(owner, attr, wrapper if on else original)

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, getattr(owner, attr), wrapper))

    def _wrap(self, name: str, fn, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.cmd]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _flop_est(self, args):
        # computed, not measured: m * n * min(m, n) per matrix, i.e. n^3 when square
        shape = numpy.shape(args[0]) if args else ()
        if len(shape) >= 2:
            m, n = shape[-2:]
            self.counts["flop_est"] += math.prod(shape[:-2]) * m * n * min(m, n)

    def _bytes_in(self, args):
        # state files are JSON written with ASCII escapes, so characters are bytes
        self.counts["bytes_in"] += len(args[0])

    def install(self):
        """Prepare the wrappers for the imported ktangle package; ``active`` applies them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ktangle.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    before = self._bytes_in if attr == "parse_state_file" else None
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj, before)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Rebind each copy of a wrapped function in every ktangle module.
        for name, mod in list(sys.modules.items()):
            if name == "ktangle" or name.startswith("ktangle."):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
        for attr in numpy.linalg.__all__:
            obj = getattr(numpy.linalg, attr)
            if callable(obj) and not inspect.isclass(obj):
                before = self._flop_est if attr in FACTORIZATIONS else None
                self._patch(numpy.linalg, attr, self._wrap(f"linalg.{attr}", obj, before))
        self._count_member_evals(sys.modules["ktangle.roof"])

    def _wrap_class(self, layer: str, cls):
        for attr, obj in vars(cls).items():
            if attr == "__post_init__":
                self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}", obj))
            elif not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", obj))
            elif attr == "total_dim" and isinstance(obj, property):

                def total_dim(inst, fget=obj.fget):
                    self.counts["layout_dim_calls"] += 1
                    return fget(inst)

                self._patch(cls, attr, property(total_dim))

    def _count_member_evals(self, roof):
        # The roof search evaluates its measure through the closure that
        # _member_value returns; count the calls of that closure.
        make = getattr(roof, "_member_value", None)
        if make is None:
            return

        def member_value(*args, **kwargs):
            val = make(*args, **kwargs)

            def counted(vec):
                self.counts["member_evals"] += 1
                return val(vec)

            return counted

        self._patch(roof, "_member_value", member_value)

    def dump(self, path: str):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _self_ns(spans) -> list:
    """Span duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child_ns)]


def layer_metrics(spans, counts, bytes_out: int, gap_max: float, overhead: float) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    n = len(spans)
    layer = [rec[0].split(".", 1)[0] for rec in spans]
    under_neg = [False] * n
    for i, rec in enumerate(spans):
        parent = rec[3]
        if parent >= 0:
            under_neg[i] = layer[parent] == "negativity" or under_neg[parent]
    calls = Counter(layer)
    self_ns = Counter()
    for name, ns in zip(layer, _self_ns(spans)):
        self_ns[name] += ns
    names = Counter(rec[0] for rec in spans)
    eigensolves = sum(
        1 for i, rec in enumerate(spans) if rec[0] == "core.hermitian_eigensystem" and under_neg[i]
    )
    results = sum(1 for i in range(n) if layer[i] == "negativity" and not under_neg[i])

    m = {}
    for name in ALL_LAYERS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    statefile_s = self_ns["statefile"] / 1e9
    m.update(
        {
            "core.density_validations": (names["core.DensityOperator"], "count"),
            "core.layout_dim_calls": (counts["layout_dim_calls"], "count"),
            "transpose.kway_calls": (names["transpose.kway_pt"], "count"),
            "negativity.eigensolves_per_result": (eigensolves / results if results else 0.0, "ratio"),
            "linalg.svd_calls": (names["linalg.svd"], "count"),
            "linalg.factorizations": (sum(names[f"linalg.{f}"] for f in FACTORIZATIONS), "count"),
            "linalg.flop_est": (counts["flop_est"], "flop"),
            "roof.member_evals": (counts["member_evals"], "count"),
            "roof.gap_max": (gap_max, "1"),
            "statefile.mb_per_s": (counts["bytes_in"] / 1e6 / statefile_s if statefile_s else 0.0, "MB/s"),
            "cli.bytes_out": (bytes_out, "B"),
            "trace.overhead": (overhead, "ratio"),
        }
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def self_share_by_class(spans, cmd_cls) -> dict:
    """Share of each layer in the self time of each command class."""
    per = defaultdict(Counter)
    for rec, ns in zip(spans, _self_ns(spans)):
        per[cmd_cls[rec[4]]][rec[0].split(".", 1)[0]] += ns
    out = {}
    for cls, ns in sorted(per.items()):
        total = sum(ns.values()) or 1
        out[cls] = {k: v / total for k, v in ns.most_common()}
    return out
