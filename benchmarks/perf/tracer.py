"""Spans around the public functions of each milliflow layer, recorded from
outside the program.

`Tracer.install()` replaces each traced function or method at the name its
callers look up (for example `milliflow.pipeline.heatmap`, because `pipeline`
imports the name directly) with a wrapper that records a span: name, start,
end and the index of the enclosing span.  Spans stay in memory; `uninstall()`
puts the original objects back.  `self_times()` turns spans into self time,
a span's duration minus the duration of its direct children.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict

# (span name, module path, attribute path).  A function imported by name into
# another module is wrapped there too, because that is the name its caller
# resolves at run time.
TRACE_POINTS = (
    ("skeleton.generate_motion", "milliflow.pipeline", "generate_motion"),
    ("skeleton.observe_keypoints", "milliflow.pipeline", "observe_keypoints"),
    ("radar.place_reflectors", "milliflow.pipeline", "place_reflectors"),
    ("radar.synthesize_cube", "milliflow.pipeline", "synthesize_cube"),
    ("radar.clutter_removal", "milliflow.pipeline", "clutter_removal"),
    ("radar.heatmap", "milliflow.pipeline", "heatmap"),
    ("radar.cfar_detect", "milliflow.pipeline", "cfar_detect"),
    ("radar.cfar_mask", "milliflow.radar", "cfar_mask"),
    ("radar.to_point_cloud", "milliflow.pipeline", "to_point_cloud"),
    ("labeling.label_frame_pair", "milliflow.pipeline", "label_frame_pair"),
    ("labeling.ground_truth_flow", "milliflow.pipeline", "ground_truth_flow"),
    ("dataio.save", "milliflow.pipeline", "save_sequence"),
    ("dataio.save", "milliflow.pipeline", "save_labels"),
    ("dataio.load_sequence", "milliflow.pipeline", "load_sequence"),
    ("dataio.preprocess", "milliflow.dataio", "preprocess_indices"),
    ("dataio.preprocess", "milliflow.downstream", "preprocess_indices"),
    ("dataio.pair_samples", "milliflow.dataio", "pair_samples"),
    ("layers.ball_query", "milliflow.layers", "ball_query"),
    ("layers.knn_indices", "milliflow.layers", "knn_indices"),
    ("layers.set_abstraction", "milliflow.flownet", "set_abstraction"),
    ("layers.set_abstraction", "milliflow.downstream", "set_abstraction"),
    ("layers.cost_volume", "milliflow.layers", "CostVolume.__call__"),
    ("layers.mlp", "milliflow.layers", "MLP.__call__"),
    ("layers.global_pool", "milliflow.flownet", "global_pool"),
    ("layers.global_pool", "milliflow.downstream", "global_pool"),
    ("layers.gru", "milliflow.layers", "GRUCell.__call__"),
    ("layers.lstm", "milliflow.layers", "LSTMCell.__call__"),
    ("layers.adam_step", "milliflow.layers", "Adam.step"),
    ("layers.save_checkpoint", "milliflow.flownet", "save_checkpoint"),
    ("layers.farthest_point_sample", "milliflow.downstream", "farthest_point_sample"),
    ("flownet.forward", "milliflow.flownet", "FlowNet.forward"),
    ("flownet.evaluate_model", "milliflow.flownet", "evaluate_model"),
    ("autodiff.backward", "milliflow.autodiff", "Tensor.backward"),
    ("downstream.decorate_clip", "milliflow.downstream", "decorate_clip"),
    ("downstream.harnet_forward", "milliflow.downstream", "HarNet.forward"),
    ("downstream.track_step", "milliflow.downstream", "track_step"),
    ("metrics.flow_metrics", "milliflow.flownet", "flow_metrics"),
    ("metrics.flow_metrics", "milliflow.metrics", "flow_metrics"),
)


def _resolve(module_path: str, attr_path: str):
    """(owner object, attribute name) for a dotted attribute under a module."""
    import importlib

    owner = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span recorder for one process.  Create, `install()`, run the workload,
    `uninstall()`, then read `self_times()`, `calls_in_round()`, `counts`
    and the collector figures."""

    def __init__(self, observers=None):
        # observers[name](result, args) -> {count name: value}, for counts that
        # are measured where the work happens (hits of a mask, points made)
        self.observers = observers or {}
        self.spans = []  # (name, start, end, parent index, round)
        self.counts = defaultdict(lambda: defaultdict(float))  # round -> name -> count
        self.round = 0
        self.gc_pause = 0.0
        self.gc_full = defaultdict(int)  # round -> full collections
        self._stack = []
        self._saved = []
        self._gc_start = None

    # ------------------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)
            if observe is not None:
                counts = self.counts[self.round]
                for key, value in observe(result, args).items():
                    counts[key] += value
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.gc_full[self.round] += 1

    def install(self):
        for name, module_path, attr_path in TRACE_POINTS:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    def self_times(self) -> dict:
        """{name: self seconds} over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return dict(self_s)

    def calls_in_round(self, round_index: int) -> dict:
        calls = defaultdict(int)
        for name, _, _, _, r in self.spans:
            if r == round_index:
                calls[name] += 1
        return dict(calls)

    def covered_seconds(self) -> float:
        """Wall time inside at least one top-level span."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent index, round."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
