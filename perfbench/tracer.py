"""In-memory span recorder for the traced benchmark run.

The recorder replaces public ensyth functions, in the module namespaces
their callers look them up in, with wrappers that record one span per
call: id, parent id, name, start and end.  Nothing inside the package is
changed on disk; ``Tracer.restore`` puts the original functions back.
Per-layer metrics are derived from the spans after the run (``layer_metrics``).

Parents come from a per-thread stack.  A span opened on a worker thread
with nothing open on that thread takes as parent the innermost span open
on the main thread, which is the call that handed the work out
(``generate_pool`` or ``vote_matrix`` with workers > 1).
"""

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []           # (id, parent id or None, name, start, end)
        self.notes = {}           # span id -> what the wrapper noted about the call
        self.missing = []         # namespace.attr names that could not be wrapped
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr, name, note=None):
        """Record a span named ``name`` around every call of ``module.attr``.

        ``note(args, kwargs)``, if given, is stored per span for the
        metrics that need the call's arguments (shapes, epsilon).
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self
        on_main = self._main

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else (
                None if threading.current_thread() is on_main else tracer._main_top)
            stack.append(sid)
            main = threading.current_thread() is on_main
            if main:
                tracer._main_top = sid
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if main:
                    tracer._main_top = stack[-1] if stack else None
                tracer.spans.append((sid, parent, name, t0, t1))
                if note is not None:
                    tracer.notes[sid] = note(args, kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _, _, t0, t1 in spans}


# --- the ensyth instrumentation ------------------------------------------------

def _matmul_shape(args, kwargs):
    a, b = args[:2]
    m, k = np.shape(a)
    return m, k, np.shape(b)[1]


def _prune_epsilon(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.epsilon_gain


# (module path, attribute, span name, note).  Each function is wrapped in the
# namespace its callers use, so the span sees every call of that layer.
WRAPS = (
    ("ensyth._kernels", "matmul", "kernels.matmul", _matmul_shape),
    ("ensyth._kernels", "relu", "kernels.relu", None),
    ("ensyth.ensemble", "prune_network", "pruner.prune_network", _prune_epsilon),
    ("ensyth.pruner", "collect_layer_data", "pruner.collect_layer_data", None),
    ("ensyth.pruner", "masked_train", "network.masked_train", None),
    ("ensyth.ensemble", "predict", "network.predict", None),
    ("ensyth.metrics", "predict", "network.predict", None),
    ("ensyth.pipeline", "predict", "network.predict", None),
    ("ensyth.ensemble", "vote_matrix", "ensemble.vote_matrix", None),
    ("ensyth.ensemble", "backward_eliminate", "ensemble.backward_eliminate", None),
    ("ensyth.ensemble", "predict_parallel", "ensemble.predict_parallel", None),
    ("ensyth.pool_store", "load_bundle", "pool_store.load_bundle", None),
    ("ensyth.pool_store", "bundle_bytes", "pool_store.bundle_bytes", None),
    ("ensyth.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("ensyth.pipeline", "build_dataset", "pipeline.build_dataset", None),
    ("ensyth.pipeline", "train", "network.train", None),
    ("ensyth.pipeline", "save_bundle", "pool_store.save_bundle", None),
    ("ensyth.pipeline", "generate_pool", "ensemble.generate_pool", None),
    ("ensyth.pipeline", "vote_matrix", "ensemble.vote_matrix", None),
    ("ensyth.pipeline", "backward_eliminate", "ensemble.backward_eliminate", None),
    ("ensyth.pipeline", "best_ensemble", "ensemble.best_ensemble", None),
    ("ensyth.pipeline", "bench_pool", "pipeline.bench_pool", None),
    ("ensyth.pipeline", "timed_inference", "metrics.timed_inference", None),
    ("ensyth.pipeline", "param_count", "metrics.param_count", None),
    ("ensyth.pipeline", "sparsity", "metrics.sparsity", None),
    ("ensyth.pipeline", "bundle_size", "metrics.bundle_size", None),
    ("ensyth.pipeline", "emit_report", "pipeline.emit_report", None),
)

# Which stage of run_pipeline a span directly under it belongs to.
STAGES = {
    "pipeline.build_dataset": "data",
    "network.train": "train",
    "ensemble.generate_pool": "pool",
    "pool_store.save_bundle": "save",
    "ensemble.vote_matrix": "eliminate",
    "ensemble.backward_eliminate": "eliminate",
    "ensemble.best_ensemble": "eliminate",
    "network.predict": "eliminate",
    "pipeline.bench_pool": "bench",
    "metrics.param_count": "report",
    "metrics.sparsity": "report",
    "metrics.bundle_size": "report",
    "pipeline.emit_report": "report",
}
STAGE_NAMES = ("data", "train", "pool", "save", "eliminate", "bench", "report")


def instrument(tracer, import_module):
    """Wrap every entry of WRAPS; ``import_module`` maps a module path to the module."""
    for path, attr, name, note in WRAPS:
        tracer.wrap(import_module(path), attr, name, note)


def layer_metrics(tracer):
    """Per-layer metric name -> value, from the recorded spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    longest = defaultdict(float)
    for sid, _, name, t0, t1 in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        longest[name] = max(longest[name], t1 - t0)

    flop = moved = 0
    for sid, _, name, _, _ in spans:
        if name == "kernels.matmul":
            m, k, n = tracer.notes[sid]
            flop += 2 * m * k * n
            moved += 8 * (m * k + k * n + m * n)

    epsilons = [tracer.notes[sid] for sid, _, name, _, _ in spans
                if name == "pruner.prune_network"]
    by_id = {s[0]: s for s in spans}
    wait = sum(t0 - by_id[parent][3] for _, parent, name, t0, _ in spans
               if name == "pruner.prune_network" and parent in by_id
               and by_id[parent][2] == "ensemble.generate_pool")

    pipelines = [s for s in spans if s[2] == "pipeline.run_pipeline"]
    pipeline_ids = {s[0] for s in pipelines}
    stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
    for _, parent, name, t0, t1 in spans:
        if parent in pipeline_ids and name in STAGES:
            stage_s[STAGES[name]] += t1 - t0
    unattributed = sum(
        (t1 - t0) - _covered([(a, b) for _, p, n, a, b in spans
                              if p == sid and n in STAGES], t0, t1)
        for sid, _, _, t0, t1 in pipelines)

    matmul_s = self_s["kernels.matmul"]
    out = {
        "kernels.matmul.calls": calls["kernels.matmul"],
        "kernels.matmul.gflop": flop / 1e9,
        "kernels.matmul.bytes": moved,
        "kernels.matmul_s": matmul_s,
        "kernels.matmul.gflops": flop / 1e9 / matmul_s if matmul_s else 0.0,
        "kernels.relu.calls": calls["kernels.relu"],
        "pruner.prune_network.calls": calls["pruner.prune_network"],
        "pruner.prune_network_s": self_s["pruner.prune_network"],
        "pruner.prune_network_s.max": longest["pruner.prune_network"],
        "pruner.collect_layer_data.calls": calls["pruner.collect_layer_data"],
        "pruner.collect_layer_data_s": self_s["pruner.collect_layer_data"],
        "pruner.distinct_solve_ratio": (len(set(epsilons)) / len(epsilons)
                                        if epsilons else 0.0),
        "network.train_s": self_s["network.train"] + self_s["network.masked_train"],
        "network.masked_train.calls": calls["network.masked_train"],
        "network.predict.calls": calls["network.predict"],
        "ensemble.generate_pool_s": self_s["ensemble.generate_pool"],
        "ensemble.generate_pool.wait_s": wait,
        "ensemble.vote_matrix_s": self_s["ensemble.vote_matrix"],
        "ensemble.backward_eliminate_s": self_s["ensemble.backward_eliminate"],
        "ensemble.predict_parallel.calls": calls["ensemble.predict_parallel"],
        "pool_store.save_bundle.calls": calls["pool_store.save_bundle"],
        "pool_store.save_bundle_s": self_s["pool_store.save_bundle"],
        "pool_store.serialize.calls": (calls["pool_store.save_bundle"]
                                       + calls["pool_store.bundle_bytes"]),
        "pool_store.load_bundle_s": self_s["pool_store.load_bundle"],
        "metrics.timed_inference_s": self_s["metrics.timed_inference"],
        "metrics.bundle_size.calls": calls["metrics.bundle_size"],
        "pipeline.unattributed_s": unattributed,
        "trace.spans": len(spans),
    }
    for stage in STAGE_NAMES:
        out[f"pipeline.stage.{stage}_s"] = stage_s[stage]
    return out
