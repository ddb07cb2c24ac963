"""Figures of merit computed from simulation traces, and report emission.

Two latency notions drive everything: time to first information (fire start
to the first delivered product containing the event) and end-to-end latency
(scene acquisition to product delivery).  Undelivered items are reported as
such, never imputed with horizon values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .engine import SimulationTrace, run
from .events import is_detectable
from .model import FireEvent, ProductKind, ProcessingLocation, Scenario


# Report label of each processing location.
MODE_LABELS = {ProcessingLocation.GROUND: "RawOnly", ProcessingLocation.HYBRID: "Hybrid"}


def _round_sig(x: float) -> float:
    return float("%.6g" % x) if x and math.isfinite(x) else x


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


class ServiceReport(NamedTuple):
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
    detectable_ids = {e.id for e in trace.fire_events if is_detectable(e.area_ha, mmu_ha)}
    detected_ids = set().union(*trace.detections.values())
    first_delivery = trace.first_delivery_by_event
    for e in trace.fire_events:
        first = first_delivery.get(e.id)
        ttfi = None if first is None else first[0] - e.start
        if ttfi is not None:
            ttfi_values.append(ttfi)
        per_event.append(
            {
                "id": e.id,
                "start_s": _round_sig(e.start),
                "area_ha": _round_sig(e.area_ha),
                "detectable": e.id in detectable_ids,
                "ttfi_s": None if ttfi is None else _round_sig(ttfi),
                "first_product_id": None if first is None else first[1],
            }
        )

    per_product = []
    e2e_values = []
    transferred_by_kind = {k.value: 0 for k in ProductKind}
    delivered_by_kind = {k.value: 0 for k in ProductKind}
    for r in trace.transfer_records:
        transferred_by_kind[trace.products[r.product_id].kind.value] += r.bits_moved
    delivered_by_product = trace.delivered_by_product
    for pid in sorted(trace.products):
        p = trace.products[pid]
        scene = trace.scenes[p.scene_id]
        downlinked = trace.downlink_completions.get(pid)
        delivered = delivered_by_product.get(pid)
        e2e = None if delivered is None else delivered - scene.acquired
        if e2e is not None:
            e2e_values.append(e2e)
        kind = p.kind.value
        if downlinked is not None:
            delivered_by_kind[kind] += p.volume_bits
        per_product.append(
            {
                "id": pid,
                "kind": kind,
                "scene_id": p.scene_id,
                "satellite_id": scene.satellite_id,
                "volume_bits": p.volume_bits,
                "created_s": _round_sig(p.created),
                "downlinked_s": None if downlinked is None else _round_sig(downlinked),
                "delivered_s": None if delivered is None else _round_sig(delivered),
                "e2e_s": None if e2e is None else _round_sig(e2e),
            }
        )

    detected_detectable = len(detected_ids & detectable_ids)
    completeness = detected_detectable / len(detectable_ids) if detectable_ids else 1.0
    summary = {
        "event_count": len(trace.fire_events),
        "dropped_event_count": len(trace.dropped_event_ids),
        "detectable_count": len(detectable_ids),
        "detected_detectable_count": detected_detectable,
        "completeness": _round_sig(completeness),
        "ttfi_p50_s": None if not ttfi_values else _round_sig(percentile(ttfi_values, 50)),
        "ttfi_p90_s": None if not ttfi_values else _round_sig(percentile(ttfi_values, 90)),
        "ttfi_never_count": len(trace.fire_events) - len(ttfi_values),
        "e2e_p50_s": None if not e2e_values else _round_sig(percentile(e2e_values, 50)),
        "e2e_p90_s": None if not e2e_values else _round_sig(percentile(e2e_values, 90)),
        "product_count": len(trace.products),
        "delivered_product_count": len(trace.marketplace),
        "undelivered_product_count": len(trace.products) - len(trace.downlink_completions),
        "unmet_request_count": len(trace.plan.unmet_request_ids),
        "acquisition_count": len(trace.scenes),
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


class ComparisonReport(NamedTuple):
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
        "acquisition_count": len(hybrid_trace.scenes),
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


@functools.cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """C encoder for a container at ``depth``: its item separator carries the indent."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


_SCALAR_TYPES = frozenset({type(None), bool, int, float, str})
# Rows of a table per call of the C JSON encoder, and per piece of CSV text.
_BLOCK_ROWS = 256


def _blocks(rows: Iterable) -> Iterator[list]:
    """``rows`` in consecutive lists of at most ``_BLOCK_ROWS``."""
    rows = iter(rows)
    return iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])


def _is_table(value) -> bool:
    """A list of non-empty dicts whose values are all scalars."""
    return isinstance(value, (list, tuple)) and all(
        type(row) is dict and row and _SCALAR_TYPES.issuperset(map(type, row.values())) for row in value
    )


def _json_pieces(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)`` for str keys, for a value
    ``depth`` containers deep, in pieces.  Each container of scalars, and each
    block of up to ``_BLOCK_ROWS`` rows of a table, is one piece and one call
    of the C encoder, which ``indent`` would bypass."""
    if not (value and isinstance(value, (dict, list, tuple))):
        yield _json_encoder(depth).encode(value)
        return
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    indent = "\n" + "  " * (depth + 1)
    if not any(isinstance(v, (dict, list, tuple)) for v in (value.values() if is_dict else value)):
        yield opening + indent + _json_encoder(depth).encode(value)[1:-1] + indent[:-2] + closing
        return
    sep = opening + indent
    if _is_table(value):
        # In a block, ``},`` and a newline mark a row boundary and nothing
        # else, since JSON escapes every newline inside a string.
        inner = indent + "  "
        boundary, row_sep = "}," + inner + "{", indent + "}," + indent + "{" + inner
        encode = _json_encoder(depth + 1).encode
        for block in _blocks(value):
            yield sep + "{" + inner + encode(block)[2:-2].replace(boundary, row_sep) + indent + "}"
            sep = "," + indent
    else:
        key = _json_encoder(depth).encode
        for k, v in value.items() if is_dict else enumerate(value):
            yield f"{sep}{key(k)}: " if is_dict else sep
            yield from _json_pieces(v, depth + 1)
            sep = "," + indent
    yield indent[:-2] + closing


def _indented_json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for str keys: the join of ``_json_pieces``."""
    return "".join(_json_pieces(value, depth))


def write_json_report(report: ServiceReport | ComparisonReport, path: str | Path) -> Path:
    """``_indented_json`` of the report's dict and a newline, written a piece
    at a time, so that at most one block of a table is encoded at once."""
    path = Path(path)
    with open(path, "w") as f:
        f.writelines(_json_pieces(report.to_dict()))
        f.write("\n")
    return path


# Text of a report value of each type in a CSV cell; None is an empty cell.
_CSV_FORMAT = {bool: ("false", "true").__getitem__, int: str, float: "%.6g".__mod__}
_FLOAT_OR_NONE = frozenset({float, type(None)})
# csv.writer quotes a cell holding one of these; ``in`` finds them faster than a regex.
_CSV_SPECIAL = ',"\r\n'


def _csv_text(columns: Sequence[Sequence[str]]) -> str:
    """CSV text of a block of at most ``_BLOCK_ROWS`` rows given as columns of cells, a CRLF after
    each row.  Text cells come from ``_csv_quoted``; cells needing no quotes may come joined by commas."""
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def _csv_quoted(cells: list[str]) -> list[str]:
    """Text cells as ``csv.writer`` writes them: quoted, with quotes doubled, if
    they hold a comma, a quote, a CR or a LF, which one search of their join
    rules out for most blocks.  (It also quotes a lone empty cell in a row.)"""
    joined = "".join(cells)
    if not any(c in joined for c in _CSV_SPECIAL):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in _CSV_SPECIAL) else c for c in cells]


def _csv_column(values: list) -> list[str]:
    """Cells of a column of report values; a column of floats and None, the
    most common, takes one format for all its cells."""
    types = set(map(type, values))
    if types <= _FLOAT_OR_NONE:
        return ["" if v is None else "%.6g" % v for v in values]
    cells = [v if type(v) is str else "" if v is None else _CSV_FORMAT[type(v)](v) for v in values]
    return _csv_quoted(cells) if str in types else cells


def _csv_blocks(record_type: str, rows: Sequence[dict], fields: list[str]) -> Iterator[str]:
    """CSV text of a table of dicts that share their keys, one block of at
    most ``_BLOCK_ROWS`` rows at a time: ``record_type``, then one column per
    further field, empty where the dicts lack it."""
    for block in _blocks(rows):
        yield _csv_text([_csv_quoted([record_type] * len(block))] + [
            _csv_column([row[k] for row in block]) if k in block[0] else [""] * len(block) for k in fields[1:]
        ])


def write_csv_report(report: ServiceReport | ComparisonReport, path: str | Path) -> Path:
    """One ``event`` row per event, one ``product`` row per product of a run
    report, one ``summary`` row; written one block of at most ``_BLOCK_ROWS``
    rows at a time, and only that block's cells are built."""
    path = Path(path)
    if isinstance(report, ComparisonReport):
        fields, tables = COMPARISON_CSV_FIELDS, [("event", report.per_event)]
    else:
        fields, tables = SERVICE_CSV_FIELDS, [("event", report.per_event), ("product", report.per_product)]
    with open(path, "w", newline="") as f:
        f.write(",".join(fields) + "\r\n")
        for record_type, rows in [*tables, ("summary", [report.summary])]:
            f.writelines(_csv_blocks(record_type, rows, fields))
    return path
