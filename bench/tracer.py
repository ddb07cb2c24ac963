"""In-memory span tracer for one eochain CLI operation.

The tracer wraps public functions of the eochain modules from the outside:
each wrapped function is replaced under every module-level name that holds
it, so a caller that looked the function up with ``from .orbit import
access_windows`` sees the wrapper as well as callers of ``orbit.access_windows``.
Spans are kept in memory and summarised when the operation ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _grid_len(horizon, step) -> int:
    """Length of the coarse sample grid a window search evaluates."""
    t0, t1 = horizon
    first = math.ceil(t0 / step) * step
    interior = max(0, math.ceil((t1 - first) / step))
    return interior + 2 - (first == t0)


def _orbit_hook(tracer, fn, args, kwargs, result, key):
    arguments = _bound(fn, args, kwargs)
    tracer.count[f"{key}.windows"] += len(result)
    tracer.count["orbit.samples_computed"] += _grid_len(arguments["horizon"], arguments["coarse_step"])
    inputs = (fn.__name__, repr(sorted(arguments.items())))
    tracer.count["orbit.repeat_calls"] += inputs in tracer.seen
    tracer.seen.add(inputs)


def _engine_run_hook(tracer, fn, args, kwargs, result, key):
    tracer.count["engine.timeline_entries"] += len(result.timeline)
    tracer.count["ground.deliveries"] += len(result.marketplace)


def _plan_hook(tracer, fn, args, kwargs, result, key):
    tracer.count["tasking.plan.requests"] += len(_bound(fn, args, kwargs)["requests"])
    tracer.count["tasking.plan.assigned"] += len(result.assignments)


def _products_hook(tracer, fn, args, kwargs, result, key):
    tracer.count["onboard.products"] += len(result)


def _transfers_hook(tracer, fn, args, kwargs, result, key):
    tracer.count["downlink.records"] += len(result.records)
    tracer.count["downlink.bits_moved"] += sum(r.bits_moved for r in result.records)
    tracer.count["downlink.products_moved"] += len({r.product_id for r in result.records})


def _events_hook(tracer, fn, args, kwargs, result, key):
    tracer.count["events.count"] += len(result)


def _report_bytes_hook(tracer, fn, args, kwargs, result, key):
    tracer.count[f"{key}.bytes"] += Path(result).stat().st_size


# (module, function, metric key, hook).  Spans sharing a metric key are
# summed; the layer is the key's first component.
SPEC = (
    ("orbit", "access_windows", "orbit.access_windows", _orbit_hook),
    ("orbit", "contact_windows", "orbit.contact_windows", _orbit_hook),
    ("engine", "run", "engine.run", _engine_run_hook),
    ("engine", "rng_stream", "engine.rng_stream", None),
    ("events", "generate_fire_events", "events.generate_fire_events", _events_hook),
    ("model", "validate_scenario", "model.validate_scenario", None),
    ("tasking", "build_requests", "tasking.build_requests", None),
    ("tasking", "plan", "tasking.plan", _plan_hook),
    ("tasking", "periodic_acquisitions", "tasking.periodic_acquisitions", None),
    ("onboard", "acquire_scene", "onboard.acquire_scene", None),
    ("onboard", "classify_scene", "onboard.classify_scene", None),
    ("onboard", "build_products", "onboard.build_products", _products_hook),
    ("downlink", "simulate_transfers", "downlink.simulate_transfers", _transfers_hook),
    ("ground", "pdgs_process", "ground.pdgs_process", None),
    ("metrics", "build_service_report", "metrics.build_service_report", None),
    ("metrics", "compare_architectures", "metrics.compare_architectures", None),
    ("metrics", "time_to_first_info", "metrics.time_to_first_info", None),
    ("metrics", "first_info_product", "metrics.first_info_product", None),
    ("metrics", "end_to_end_latency", "metrics.end_to_end_latency", None),
    ("metrics", "write_json_report", "metrics.write_reports", _report_bytes_hook),
    ("metrics", "write_csv_report", "metrics.write_reports", _report_bytes_hook),
    ("scenario_io", "load_scenario", "scenario_io", None),
    ("scenario_io", "scenario_from_dict", "scenario_io", None),
    ("scenario_io", "scenario_to_dict", "scenario_io", None),
    ("cli", "_emit", "cli.artifacts", None),
    ("cli", "_write_plan_dump", "cli.artifacts", None),
    ("cli", "_write_transfer_log", "cli.artifacts", None),
    ("ground", "write_marketplace_dump", "cli.artifacts", None),
    ("events", "write_event_trace", "cli.artifacts", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("orbit", "engine", "events", "model", "tasking", "onboard", "downlink",
          "ground", "metrics", "scenario_io", "cli")

# Work counts the hooks accumulate; every one is reported, zero if never hit.
COUNTS = ("orbit.access_windows.windows", "orbit.contact_windows.windows", "orbit.samples_computed",
          "orbit.repeat_calls", "engine.timeline_entries", "ground.deliveries", "tasking.plan.requests",
          "tasking.plan.assigned", "onboard.products", "downlink.records", "downlink.bits_moved",
          "downlink.products_moved", "events.count", "metrics.write_reports.bytes")

_HOOK = "trace.hook"


class Tracer:
    """Records nested spans of wrapped calls on a single thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [key, start, end, parent index]
        self.stack: list[int] = []
        self.count = dict.fromkeys(COUNTS, 0)
        self.seen: set = set()
        self.missing: list[str] = []

    def _open(self, key: str) -> int:
        index = len(self.spans)
        self.spans.append([key, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, key: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                # Hook work gets a span of its own, so it is charged to no layer.
                index = self._open(_HOOK)
                try:
                    hook(self, fn, args, kwargs, result, key)
                finally:
                    self._close(index)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every SPEC function under each eochain module name bound to it."""
        modules = [m for name, m in sys.modules.items() if name == "eochain" or name.startswith("eochain.")]
        for module_name, attr, key, hook in SPEC:
            original = getattr(sys.modules.get(f"eochain.{module_name}"), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(key, original, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def summary(self) -> dict:
        """Per-key calls and self time, per-layer self time, and work counts."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        out: defaultdict[str, float] = defaultdict(float)
        for _, _, key, _ in SPEC:
            out[f"{key}.calls"] = 0
            out[f"{key}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = 0.0
        engine_span_s = 0.0
        for i, (key, _, _, _) in enumerate(self.spans):
            if key == _HOOK:
                continue
            self_s = duration[i] - child[i]
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += self_s
            out[f"layer.{key.split('.')[0]}.self_s"] += self_s
            if key == "engine.run":
                engine_span_s += duration[i]
        out.update(self.count)
        c = self.count
        orbit_calls = out["orbit.access_windows.calls"] + out["orbit.contact_windows.calls"]
        out["orbit.repeat_ratio"] = c["orbit.repeat_calls"] / orbit_calls if orbit_calls else 0.0
        out["orbit.share_of_engine_run"] = out["layer.orbit.self_s"] / engine_span_s if engine_span_s else 0.0
        requests = c["tasking.plan.requests"]
        out["tasking.plan.assigned_ratio"] = c["tasking.plan.assigned"] / requests if requests else 0.0
        moved = c["downlink.products_moved"]
        out["downlink.fragments_per_product"] = c["downlink.records"] / moved if moved else 0.0
        return dict(out)
