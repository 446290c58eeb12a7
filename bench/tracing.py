"""Spans and counters around larvaekit's public functions.

A span wraps one public function under the name ``<module>.<function>``
of the module that defines it, and the same wrapper replaces the
function in every ``larvaekit`` module that binds it, so a call through
``cli.evaluate_dataset`` and one through ``evaluation.evaluate_dataset``
land in one span. Spans live in memory as ``(name, start, end, parent)``
records and are aggregated into total time, self time (total minus the
time covered by child spans) and call counts.

``iou`` is deliberately not wrapped: it runs millions of times per
evaluation, so a wrapper would mostly measure itself.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions traced per layer; refdata and errors do no runtime work.
SPANS = (
    ("cli", "main"),
    ("annotations", "load_manifest"),
    ("annotations", "load_image_annotation"),
    ("annotations", "parse_label_file"),
    ("annotations", "serialize_label_file"),
    ("raster", "decode_raster"),
    ("raster", "encode_raster"),
    ("preprocessing", "center_crop"),
    ("preprocessing", "circular_mask"),
    ("preprocessing", "add_gaussian_noise"),
    ("preprocessing", "rotate90"),
    ("preprocessing", "enlarge_small_boxes"),
    ("preprocessing", "area_quantile"),
    ("evaluation", "evaluate_dataset"),
    ("evaluation", "match_detections"),
    ("evaluation", "pr_curve"),
    ("evaluation", "average_precision"),
    ("evaluation", "render_eval_csv"),
    ("evaluation", "render_pr_curve_csv"),
    ("counting", "count_image"),
    ("counting", "density_summary"),
    ("counting", "render_counts_csv"),
    ("counting", "render_density_csv"),
    ("growth", "load_observations_csv"),
    ("growth", "rank_models"),
    ("growth", "fit"),
    ("chart", "growth_chart_svg"),
)

SPAN_NAMES = tuple(f"{module}.{function}" for module, function in SPANS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _match_pairs(args, kwargs, result):
    ground_truth = _arg(args, kwargs, 0, "ground_truth")
    predictions = _arg(args, kwargs, 1, "predictions")
    config = _arg(args, kwargs, 2, "config")
    threshold = 0.4 if config is None else config.confidence_threshold
    kept = sum(1 for p in predictions if p.confidence >= threshold)
    return {"evaluation.iou_pairs": kept * len(ground_truth), "evaluation.match_calls": 1}


def _enlarged(args, kwargs, result):
    boxes = _arg(args, kwargs, 0, "boxes")
    return {"preprocessing.boxes_enlarged": sum(1 for a, b in zip(boxes, result) if a is not b)}


def _fitted(args, kwargs, result):
    return {
        "growth.iterations": result.iterations,
        "growth.fits": 1,
        "growth.converged": int(result.converged),
    }


# Counters read from a traced call's arguments and result, at the same
# boundary as the span.
COUNTERS = {
    "annotations.parse_label_file": lambda a, k, r: {
        "annotations.boxes_parsed": len(r),
        "annotations.label_bytes_read": len(_arg(a, k, 0, "text").encode()),
    },
    "raster.decode_raster": lambda a, k, r: {"raster.bytes_decoded": len(_arg(a, k, 0, "data"))},
    "raster.encode_raster": lambda a, k, r: {"raster.bytes_encoded": len(r)},
    "preprocessing.center_crop": lambda a, k, r: {
        "preprocessing.boxes_dropped": len(_arg(a, k, 1, "boxes")) - len(r[1]),
    },
    "preprocessing.enlarge_small_boxes": _enlarged,
    "evaluation.evaluate_dataset": lambda a, k, r: {
        "evaluation.images_evaluated": len(_arg(a, k, 0, "manifest")),
    },
    "evaluation.match_detections": _match_pairs,
    "growth.fit": _fitted,
}


class Tracer:
    """In-memory span records plus counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, function, counter=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.records)
            parent = self._stack[-1] if self._stack else -1
            self.records.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = self.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.records[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self, package="larvaekit", spans=SPANS, counters=COUNTERS):
        """Wrap each listed function wherever a loaded package module binds it.

        A function the package no longer defines is skipped and listed in
        ``missing``; its span then reports zero calls.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, function_name in spans:
            name = f"{module_name}.{function_name}"
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, counters.get(name))
            for module in modules:
                if getattr(module, function_name, None) is original:
                    setattr(module, function_name, wrapper)


def aggregate(records) -> dict[str, dict[str, float]]:
    """Total time, self time and calls per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced program runs on one
    thread.
    """
    child_time = [0.0] * len(records)
    for name, start, end, parent in records:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(records):
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[index]
    return out
