"""Spans around the public functions of each program module.

The tracer replaces every public function of `qmath`, `channels`,
`measures`, `dataset`, `svr` and `cli` with a wrapper that records a span
(name, start, end, parent) and, for a few functions, a work count taken from
the arguments or the result.  The modules call one another through module
attributes, so wrapping the attributes catches the calls between modules as
well as those from the benchmark.  Nothing under `src/` changes; `restore`
puts the original functions back.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("qmath", "channels", "measures", "dataset", "svr", "cli")


def _batch(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


# work counted per successful call: function -> ((counter, count(args, result)), ...)
COUNTERS = {
    "channels.ad_amplitude": (("samples", lambda a, r: np.size(a[0])),),
    "channels.pd_lambda": (("samples", lambda a, r: np.size(a[0])),),
    "measures.trace_distance_series": (("samples", lambda a, r: a[1].n_steps + 1),),
    "measures.entanglement_series": (("samples", lambda a, r: a[1].n_steps + 1),),
    "qmath.validate_density": (("states", lambda a, r: _batch(a[0])),),
    "qmath.concurrence": (("states", lambda a, r: _batch(a[0])),),
    "svr.rbf_gram": (("entries", lambda a, r: np.size(r)),),
    "svr.fit": (
        ("iterations", lambda a, r: r.n_iter),
        ("support_vectors", lambda a, r: len(r.dual_coefs)),
    ),
    "dataset.save_table": (("bytes", lambda a, r: os.path.getsize(a[1])),),
    "dataset.driven_bell_plus_retry": (("pairs", lambda a, r: 1),),
}

# metric group -> the wrapped functions it sums over
GROUPS = {
    "channels.closed_form": ("channels.ad_amplitude", "channels.pd_lambda"),
    "channels.kraus_apply": ("channels.ad_apply", "channels.pd_apply"),
    "channels.driven_bell_and_plus": ("channels.driven_bell_and_plus",),
    "measures.measure": ("measures.n_trace_distance", "measures.n_entanglement"),
    "measures.series": ("measures.trace_distance_series", "measures.entanglement_series"),
    "measures.accumulate": ("measures.accumulate",),
    "qmath.validate_density": ("qmath.validate_density",),
    "qmath.concurrence": ("qmath.concurrence",),
    "dataset.features_at": ("dataset.features_at",),
    "dataset.driven_bell_plus_retry": ("dataset.driven_bell_plus_retry",),
    "dataset.generate": (
        "dataset.generate_pure_ad",
        "dataset.generate_pure_pd",
        "dataset.generate_driven_ad",
    ),
    "dataset.save_table": ("dataset.save_table",),
    "dataset.load_table": ("dataset.load_table",),
    "svr.fit": ("svr.fit",),
    "svr.rbf_gram": ("svr.rbf_gram",),
    "svr.kkt_violations": ("svr.kkt_violations",),
    "svr.save_model": ("svr.save_model",),
    "svr.load_model": ("svr.load_model",),
    "svr.predict": ("svr.predict",),
    "cli.generate": ("cli.cmd_generate",),
    "cli.train": ("cli.cmd_train",),
    "cli.predict": ("cli.cmd_predict",),
}

# (metric, unit): every per-layer metric the traced run reports, per round
LAYER_METRICS = (
    ("channels.closed_form.samples", "count"),
    ("channels.closed_form.self_s", "s"),
    ("measures.measure.calls", "count"),
    ("measures.series.calls", "count"),
    ("measures.series.samples", "count"),
    ("measures.measure.self_s", "s"),
    ("measures.accumulate.self_s", "s"),
    ("channels.kraus_apply.calls", "count"),
    ("channels.kraus_apply.self_s", "s"),
    ("dataset.features_at.calls", "count"),
    ("dataset.features_at.self_s", "s"),
    ("qmath.validate_density.calls", "count"),
    ("qmath.validate_density.states", "count"),
    ("qmath.validate_density.self_s", "s"),
    ("channels.driven_bell_and_plus.calls", "count"),
    ("channels.driven_bell_and_plus.self_s", "s"),
    ("channels.driven_bell_and_plus.s_per_call", "s"),
    ("dataset.driven_bell_plus_retry.calls", "count"),
    ("dataset.driven_bell_plus_retry.useful_ratio", "ratio"),
    ("qmath.concurrence.states", "count"),
    ("qmath.concurrence.self_s", "s"),
    ("dataset.generate.self_s", "s"),
    ("dataset.save_table.s", "s"),
    ("dataset.save_table.bytes", "bytes"),
    ("cli.generate.self_s", "s"),
    ("svr.fit.s", "s"),
    ("svr.fit.iterations", "count"),
    ("svr.fit.iterations_per_s", "1/s"),
    ("svr.fit.support_vectors", "count"),
    ("svr.rbf_gram.entries", "count"),
    ("svr.rbf_gram.self_s", "s"),
    ("svr.kkt_violations.s", "s"),
    ("svr.save_model.s", "s"),
    ("cli.train.self_s", "s"),
    ("svr.predict.self_s", "s"),
    ("svr.load_model.s", "s"),
    ("dataset.load_table.s", "s"),
    ("cli.predict.self_s", "s"),
    ("trace.uncovered_share", "share"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(float)  # (function, counter) -> total
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, package) -> None:
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in vars(module).copy().items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = [name, start, clock(), parent]
            for counter, count in counters:
                counts[(name, counter)] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """function -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def covered_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self, rounds: int, timed_s: float, overhead_s: float) -> dict:
        """Every LAYER_METRICS value, per traced round."""
        totals = self.totals()

        def group(key: str, field: int) -> float:
            return sum(totals[f][field] for f in GROUPS[key] if f in totals)

        def count(key: str, counter: str) -> float:
            return sum(self.counts.get((f, counter), 0.0) for f in GROUPS[key])

        values = {}
        for metric, _ in LAYER_METRICS:
            key, field = metric.rsplit(".", 1)
            if key == "trace":
                continue
            if field == "calls":
                values[metric] = group(key, 0)
            elif field == "s":
                values[metric] = group(key, 1)
            elif field == "self_s":
                values[metric] = group(key, 2)
            elif field in ("samples", "states", "entries", "bytes", "iterations", "support_vectors"):
                values[metric] = count(key, field)
        calls = group("channels.driven_bell_and_plus", 0)
        values["channels.driven_bell_and_plus.s_per_call"] = (
            group("channels.driven_bell_and_plus", 1) / calls if calls else 0.0
        )
        pairs = count("dataset.driven_bell_plus_retry", "pairs")
        values["dataset.driven_bell_plus_retry.useful_ratio"] = pairs / calls if calls else 0.0
        fit_s = group("svr.fit", 1)
        values["svr.fit.iterations_per_s"] = count("svr.fit", "iterations") / fit_s if fit_s else 0.0
        for metric in values:
            if not metric.endswith(("s_per_call", "useful_ratio", "iterations_per_s")):
                values[metric] /= rounds
        values["trace.uncovered_share"] = (timed_s - self.covered_s()) / timed_s
        values["trace.overhead_s"] = overhead_s
        return {m: {"value": values[m], "unit": u} for m, u in LAYER_METRICS}

    def write(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, spans=self.spans), fh)
