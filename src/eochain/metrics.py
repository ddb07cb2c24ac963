"""Figures of merit computed from simulation traces, and report emission.

Two latency notions drive everything: time to first information (fire start
to the first delivered product containing the event) and end-to-end latency
(scene acquisition to product delivery).  Undelivered items are reported as
such, never imputed with horizon values.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .engine import SimulationTrace, run
from .events import is_detectable
from .model import FireEvent, ProductKind, ProcessingLocation, Scenario


# Report label of each processing location.
MODE_LABELS = {ProcessingLocation.GROUND: "RawOnly", ProcessingLocation.HYBRID: "Hybrid"}


class StreamIsolationError(RuntimeError):
    """Raised when an A/B comparison detects diverging common random numbers."""


def _round_sig(x: float, digits: int = 6) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolation percentile; None for empty input."""
    vs = sorted(values)
    if not vs:
        return None
    k = (len(vs) - 1) * q / 100.0
    f, c = math.floor(k), math.ceil(k)
    if f == c:
        return vs[f]
    return vs[f] + (vs[c] - vs[f]) * (k - f)


def time_to_first_info(trace: SimulationTrace, event_id: str) -> Optional[float]:
    """Fire start to first delivered product containing the event; None if never."""
    if event_id not in trace.events_by_id:
        raise KeyError(f"unknown event id: {event_id}")
    first = trace.first_delivery_by_event.get(event_id)
    return None if first is None else first[0] - trace.events_by_id[event_id].start


def first_info_product(trace: SimulationTrace, event_id: str) -> Optional[str]:
    """Id of the first delivered product containing the event, ties by id; None if never."""
    first = trace.first_delivery_by_event.get(event_id)
    return None if first is None else first[1]


def end_to_end_latency(trace: SimulationTrace, product_id: str) -> Optional[float]:
    """Scene acquisition to delivery; None for undelivered products."""
    delivered = trace.delivered_by_product.get(product_id)
    if delivered is None:
        return None
    scene = trace.scenes[trace.products[product_id].scene_id]
    return delivered - scene.acquired


@dataclass(frozen=True)
class ServiceReport:
    """Single-run figures of merit, ready for serialization."""

    scenario_name: str
    seed: int
    mode: str
    horizon_s: float
    per_event: tuple[dict, ...]
    per_product: tuple[dict, ...]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": {
                "name": self.scenario_name,
                "seed": self.seed,
                "mode": self.mode,
                "horizon_s": _round_sig(self.horizon_s),
            },
            "events": list(self.per_event),
            "products": list(self.per_product),
            "summary": self.summary,
        }


SERVICE_CSV_FIELDS = [
    "record_type", "id", "kind", "aoi_id", "scene_id", "satellite_id",
    "start_s", "area_ha", "detectable", "ttfi_s", "first_product_id",
    "volume_bits", "created_s", "downlinked_s", "delivered_s", "e2e_s",
    "event_count", "detectable_count", "completeness",
    "ttfi_p50_s", "ttfi_p90_s", "ttfi_never_count", "e2e_p50_s", "e2e_p90_s",
    "generated_bits_total", "transferred_bits_total", "delivered_bits_total",
]


def build_service_report(trace: SimulationTrace, mmu_ha: float) -> ServiceReport:
    per_event = []
    ttfi_values = []
    never = 0
    detectable_ids = {e.id for e in trace.fire_events if is_detectable(e.area_ha, mmu_ha)}
    detected_ids = set().union(*trace.detections.values())
    for e in trace.fire_events:
        ttfi = time_to_first_info(trace, e.id)
        if ttfi is None:
            never += 1
        else:
            ttfi_values.append(ttfi)
        per_event.append(
            {
                "id": e.id,
                "start_s": _round_sig(e.start),
                "area_ha": _round_sig(e.area_ha),
                "detectable": e.id in detectable_ids,
                "ttfi_s": None if ttfi is None else _round_sig(ttfi),
                "first_product_id": first_info_product(trace, e.id),
            }
        )

    per_product = []
    e2e_values = []
    transferred_by_kind = {k.value: 0 for k in ProductKind}
    delivered_by_kind = {k.value: 0 for k in ProductKind}
    for r in trace.transfer_records:
        transferred_by_kind[trace.products[r.product_id].kind.value] += r.bits_moved
    for pid in sorted(trace.products):
        p = trace.products[pid]
        downlinked = trace.downlink_completions.get(pid)
        delivered = trace.delivered_by_product.get(pid)
        e2e = end_to_end_latency(trace, pid)
        if e2e is not None:
            e2e_values.append(e2e)
        if downlinked is not None:
            delivered_by_kind[p.kind.value] += p.volume_bits
        per_product.append(
            {
                "id": pid,
                "kind": p.kind.value,
                "scene_id": p.scene_id,
                "satellite_id": trace.scenes[p.scene_id].satellite_id,
                "volume_bits": p.volume_bits,
                "created_s": _round_sig(p.created),
                "downlinked_s": None if downlinked is None else _round_sig(downlinked),
                "delivered_s": None if delivered is None else _round_sig(delivered),
                "e2e_s": None if e2e is None else _round_sig(e2e),
            }
        )

    detected_detectable = len(detected_ids & detectable_ids)
    completeness = (
        detected_detectable / len(detectable_ids) if detectable_ids else 1.0
    )
    summary = {
        "event_count": len(trace.fire_events),
        "dropped_event_count": len(trace.dropped_event_ids),
        "detectable_count": len(detectable_ids),
        "detected_detectable_count": detected_detectable,
        "completeness": _round_sig(completeness),
        "ttfi_p50_s": None if not ttfi_values else _round_sig(percentile(ttfi_values, 50)),
        "ttfi_p90_s": None if not ttfi_values else _round_sig(percentile(ttfi_values, 90)),
        "ttfi_never_count": never,
        "e2e_p50_s": None if not e2e_values else _round_sig(percentile(e2e_values, 50)),
        "e2e_p90_s": None if not e2e_values else _round_sig(percentile(e2e_values, 90)),
        "product_count": len(trace.products),
        "delivered_product_count": len(trace.marketplace),
        "undelivered_product_count": len(trace.products) - len(trace.downlink_completions),
        "unmet_request_count": len(trace.plan.unmet_request_ids),
        "acquisition_count": len(trace.acquisitions),
        "generated_bits_total": trace.generated_bits(),
        "transferred_bits_total": trace.transferred_bits(),
        "delivered_bits_total": trace.delivered_bits(),
        "residual_bits_total": sum(trace.residual_bits().values()),
        "transferred_bits_by_kind": transferred_by_kind,
        "delivered_bits_by_kind": delivered_by_kind,
    }
    return ServiceReport(
        scenario_name=trace.scenario_name,
        seed=trace.seed,
        mode=MODE_LABELS[trace.mode],
        horizon_s=trace.horizon_s,
        per_event=tuple(per_event),
        per_product=tuple(per_product),
        summary=summary,
    )


def service_report_csv_rows(report: ServiceReport) -> list[dict]:
    """One row per event, per product and for the summary; the CSV writer
    keeps the keys named in ``SERVICE_CSV_FIELDS``."""
    return [
        *({"record_type": "event", **e} for e in report.per_event),
        *({"record_type": "product", **p} for p in report.per_product),
        {"record_type": "summary", **report.summary},
    ]


@dataclass(frozen=True)
class ComparisonReport:
    """Paired hybrid vs remote-only comparison under common random numbers."""

    scenario_name: str
    seed: int
    per_event: tuple[dict, ...]
    summary: dict
    hybrid: ServiceReport
    raw_only: ServiceReport
    baseline: Optional[ServiceReport] = None

    def to_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "scenario": {"name": self.scenario_name, "seed": self.seed},
            "per_event": list(self.per_event),
            "summary": self.summary,
            "hybrid": self.hybrid.to_dict(),
            "raw_only": self.raw_only.to_dict(),
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline.to_dict()
        return out


COMPARISON_CSV_FIELDS = [
    "record_type", "id", "start_s", "area_ha",
    "ttfi_hybrid_s", "ttfi_raw_s", "delta_s", "hybrid_faster",
    "event_count", "hybrid_faster_count", "comparable_count", "hybrid_faster_fraction",
    "ttfi_median_hybrid_s", "ttfi_median_raw_s", "ttfi_median_baseline_s",
    "transferred_bits_hybrid", "transferred_bits_raw", "transfer_ratio",
]


def _with_processing(scenario: Scenario, location: ProcessingLocation) -> Scenario:
    archetype = replace(scenario.archetype, processing_location=location)
    return replace(scenario, archetype=archetype)


def _assert_common_randomness(a: SimulationTrace, b: SimulationTrace) -> None:
    if a.fire_events != b.fire_events:
        raise StreamIsolationError("fire event lists differ between architecture modes")
    keys_a = [(r.key, r.triggered) for r in a.acquisitions]
    keys_b = [(r.key, r.triggered) for r in b.acquisitions]
    if keys_a != keys_b:
        raise StreamIsolationError("acquisition lists differ between architecture modes")
    clouds_a = [a.scenes[s].cloud_fraction for s in sorted(a.scenes)]
    clouds_b = [b.scenes[s].cloud_fraction for s in sorted(b.scenes)]
    if clouds_a != clouds_b:
        raise StreamIsolationError("cloud draws differ between architecture modes")


def compare_architectures(
    scenario: Scenario,
    injected_events: Optional[Sequence[FireEvent]] = None,
    baseline_scenario: Optional[Scenario] = None,
) -> ComparisonReport:
    """Run hybrid and remote-only arms on identical streams and pair them.

    Optionally also runs a baseline scenario (e.g. a medium-resolution
    periodic service) on the same injected events for class-level context.
    """
    hybrid_trace = run(_with_processing(scenario, ProcessingLocation.HYBRID), injected_events)
    raw_trace = run(_with_processing(scenario, ProcessingLocation.GROUND), injected_events)
    _assert_common_randomness(hybrid_trace, raw_trace)

    mmu = scenario.archetype.mmu_ha
    hybrid_report = build_service_report(hybrid_trace, mmu)
    raw_report = build_service_report(raw_trace, mmu)

    baseline_report = None
    if baseline_scenario is not None:
        baseline_trace = run(baseline_scenario, injected_events)
        baseline_report = build_service_report(baseline_trace, baseline_scenario.archetype.mmu_ha)

    per_event = []
    hybrid_faster = 0
    comparable = 0
    for e in hybrid_trace.fire_events:
        th = time_to_first_info(hybrid_trace, e.id)
        tr = time_to_first_info(raw_trace, e.id)
        if th is None and tr is None:
            faster = None
        else:
            comparable += 1
            # A never-delivered arm counts as slower than any delivered time.
            faster = (th is not None) and (tr is None or th < tr)
            hybrid_faster += int(bool(faster))
        per_event.append(
            {
                "id": e.id,
                "start_s": _round_sig(e.start),
                "area_ha": _round_sig(e.area_ha),
                "ttfi_hybrid_s": None if th is None else _round_sig(th),
                "ttfi_raw_s": None if tr is None else _round_sig(tr),
                "delta_s": None if th is None or tr is None else _round_sig(th - tr),
                "hybrid_faster": faster,
            }
        )

    bits_h = hybrid_trace.transferred_bits()
    bits_r = raw_trace.transferred_bits()
    summary = {
        "event_count": len(hybrid_trace.fire_events),
        "comparable_count": comparable,
        "hybrid_faster_count": hybrid_faster,
        "hybrid_faster_fraction": _round_sig(hybrid_faster / comparable) if comparable else None,
        "ttfi_median_hybrid_s": hybrid_report.summary["ttfi_p50_s"],
        "ttfi_median_raw_s": raw_report.summary["ttfi_p50_s"],
        "ttfi_median_baseline_s": baseline_report.summary["ttfi_p50_s"] if baseline_report else None,
        "transferred_bits_hybrid": bits_h,
        "transferred_bits_raw": bits_r,
        "transfer_ratio": _round_sig(bits_h / bits_r) if bits_r else None,
        "acquisition_count": len(hybrid_trace.acquisitions),
    }
    return ComparisonReport(
        scenario_name=scenario.name,
        seed=scenario.seed,
        per_event=tuple(per_event),
        summary=summary,
        hybrid=hybrid_report,
        raw_only=raw_report,
        baseline=baseline_report,
    )


def comparison_report_csv_rows(report: ComparisonReport) -> list[dict]:
    """One row per event and one for the summary; the CSV writer keeps the
    keys named in ``COMPARISON_CSV_FIELDS``."""
    return [
        *({"record_type": "event", **e} for e in report.per_event),
        {"record_type": "summary", **report.summary},
    ]


@functools.cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """C encoder for a container at ``depth``: its item separator carries the indent."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


def _indented_json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for str keys, but each container of
    scalars is one call of the C encoder, which ``indent`` would bypass."""
    if not (value and isinstance(value, (dict, list, tuple))):
        return _json_encoder(depth).encode(value)
    is_dict = isinstance(value, dict)
    sep = ",\n" + "  " * (depth + 1)
    if not any(isinstance(v, (dict, list, tuple)) for v in (value.values() if is_dict else value)):
        body = _json_encoder(depth).encode(value)[1:-1]
    elif is_dict:
        key = _json_encoder(depth).encode
        body = sep.join(f"{key(k)}: {_indented_json(v, depth + 1)}" for k, v in value.items())
    else:
        body = sep.join(_indented_json(v, depth + 1) for v in value)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{sep[1:]}{body}\n{'  ' * depth}{closing}"


def write_json_report(report: ServiceReport | ComparisonReport, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_indented_json(report.to_dict()) + "\n")
    return path


def write_csv_report(report: ServiceReport | ComparisonReport, path: str | Path) -> Path:
    path = Path(path)
    if isinstance(report, ComparisonReport):
        fields, rows = COMPARISON_CSV_FIELDS, comparison_report_csv_rows(report)
    else:
        fields, rows = SERVICE_CSV_FIELDS, service_report_csv_rows(report)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(fields)
        column = {field: i for i, field in enumerate(fields)}
        for row in rows:
            cells = [""] * len(fields)  # _fmt(None), for the fields a row lacks
            for key, value in row.items():
                if key in column:
                    cells[column[key]] = _fmt(value)
            w.writerow(cells)
    return path

