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
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .engine import SimulationTrace, run, with_processing
from .events import is_detectable
from .model import DataProduct, FireEvent, ProductKind, ProcessingLocation, Scenario


# Report label of each processing location.
MODE_LABELS = {ProcessingLocation.GROUND: "RawOnly", ProcessingLocation.HYBRID: "Hybrid"}


# A report's floats carry six significant digits: a table holds their text.
_sig_text = "%.6g".__mod__


def _round_sig(x: float) -> float:
    return float(_sig_text(x))


def _sig_column(values: Iterable[Optional[float]]) -> list[Optional[str]]:
    """Each float's text, None kept.  Only a subnormal's text (1e-318) reads as a float whose own
    text differs; a column with one holds for each value the text of the float its text reads as."""
    texts = [None if x is None else _sig_text(x) for x in values]
    return [None if t is None else _sig_text(float(t)) for t in texts] if "e-3" in "".join(filter(None, texts)) else texts


def _floats(texts: Iterable[Optional[str]]) -> list[Optional[float]]:
    return [None if t is None else float(t) for t in texts]


class Table(NamedTuple):
    """Rows of a report as one list of values per field, with no dict per row.
    A field in ``sig_fields`` holds each float as its ``_sig_text``, or None."""

    columns: dict[str, list]
    sig_fields: frozenset[str] = frozenset()

    def rows(self) -> tuple[dict, ...]:
        """One dict per row, each float read back from its text."""
        values = [_floats(c) if k in self.sig_fields else c for k, c in self.columns.items()]
        return tuple(dict(zip(self.columns, row)) for row in zip(*values))


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


def first_information(trace: SimulationTrace, events: Sequence[FireEvent]) -> tuple[list, list]:
    """Per event, its time to first information (fire start to the first delivered product containing
    it) and that product's id, ties by id: two lists, with None for an event never delivered."""
    first = list(map(trace.first_delivery_by_event.get, (e.id for e in events)))
    return ([None if f is None else f[0] - e.start for e, f in zip(events, first)],
            [None if f is None else f[1] for f in first])


def end_to_end_latencies(trace: SimulationTrace, products: Iterable[DataProduct]) -> list[Optional[float]]:
    """Per product, scene acquisition to delivery, with None for one never delivered."""
    delivered, scenes = trace.delivered_by_product, trace.scenes
    return [None if (d := delivered.get(p.id)) is None else d - scenes[p.scene_id].acquired for p in products]


def time_to_first_info(trace: SimulationTrace, event_id: str) -> Optional[float]:
    """An event's ``first_information`` time: None if never delivered, a KeyError naming an unknown id."""
    return first_information(trace, [trace.events_by_id[event_id]])[0][0]


def first_info_product(trace: SimulationTrace, event_id: str) -> Optional[str]:
    """An event's ``first_information`` product: None if never delivered, a KeyError naming an unknown id."""
    return first_information(trace, [trace.events_by_id[event_id]])[1][0]


def end_to_end_latency(trace: SimulationTrace, product_id: str) -> Optional[float]:
    """A product's ``end_to_end_latencies`` value: None if never delivered, a KeyError naming an unknown id."""
    return end_to_end_latencies(trace, [trace.products[product_id]])[0]


class ServiceReport(NamedTuple):
    """Single-run figures of merit, ready for serialization."""

    scenario_name: str
    seed: int
    mode: str
    horizon_s: float
    events: Table
    products: Table
    summary: dict

    per_event = property(lambda self: self.events.rows())
    per_product = property(lambda self: self.products.rows())

    def to_dict(self, *, tables: bool = False) -> dict:
        """The JSON document, each table a list of rows, or with ``tables`` the ``Table`` the writer renders."""
        return {
            "schema_version": 1,
            "scenario": {
                "name": self.scenario_name,
                "seed": self.seed,
                "mode": self.mode,
                "horizon_s": _round_sig(self.horizon_s),
            },
            "events": self.events if tables else list(self.per_event),
            "products": self.products if tables else list(self.per_product),
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


def build_service_report(trace: SimulationTrace) -> ServiceReport:
    """The run's figures of merit, an event detectable at the MMU its scenario detected with."""
    scenario, fire_events = trace.scenario, trace.fire_events
    event_ids = [e.id for e in fire_events]
    detectable_ids = {e.id for e in fire_events if is_detectable(e.area_ha, scenario.archetype.mmu_ha)}
    detected_ids = set().union(*trace.detections.values())
    ttfi, first_product_ids = first_information(trace, fire_events)
    ttfi_values = [t for t in ttfi if t is not None]
    events = Table({
        "id": event_ids,
        "start_s": _sig_column(e.start for e in fire_events),
        "area_ha": _sig_column(e.area_ha for e in fire_events),
        "detectable": [i in detectable_ids for i in event_ids],
        "ttfi_s": _sig_column(ttfi),
        "first_product_id": first_product_ids,
    }, frozenset({"start_s", "area_ha", "ttfi_s"}))

    product_ids = sorted(trace.products)
    products = list(map(trace.products.__getitem__, product_ids))
    scenes = [trace.scenes[p.scene_id] for p in products]
    kinds = [p.kind.value for p in products]
    downlinked = list(map(trace.downlink_completions.get, product_ids))
    delivered = list(map(trace.delivered_by_product.get, product_ids))
    e2e = end_to_end_latencies(trace, products)
    e2e_values = [t for t in e2e if t is not None]
    transferred_by_kind = {k.value: 0 for k in ProductKind}
    delivered_by_kind = {k.value: 0 for k in ProductKind}
    kind_of = dict(zip(product_ids, kinds))
    for r in trace.transfer_records:
        transferred_by_kind[kind_of[r.product_id]] += r.bits_moved
    for pid in trace.downlink_completions:
        delivered_by_kind[kind_of[pid]] += trace.products[pid].volume_bits
    product_table = Table({
        "id": product_ids,
        "kind": kinds,
        "scene_id": [p.scene_id for p in products],
        "satellite_id": [s.satellite_id for s in scenes],
        "volume_bits": [p.volume_bits for p in products],
        "created_s": _sig_column(p.created for p in products),
        "downlinked_s": _sig_column(downlinked),
        "delivered_s": _sig_column(delivered),
        "e2e_s": _sig_column(e2e),
    }, frozenset({"created_s", "downlinked_s", "delivered_s", "e2e_s"}))

    detected_detectable = len(detected_ids & detectable_ids)
    completeness = detected_detectable / len(detectable_ids) if detectable_ids else 1.0
    summary = {
        "event_count": len(fire_events),
        "dropped_event_count": len(trace.dropped_event_ids),
        "detectable_count": len(detectable_ids),
        "detected_detectable_count": detected_detectable,
        "completeness": _round_sig(completeness),
        "ttfi_p50_s": None if not ttfi_values else _round_sig(percentile(ttfi_values, 50)),
        "ttfi_p90_s": None if not ttfi_values else _round_sig(percentile(ttfi_values, 90)),
        "ttfi_never_count": len(fire_events) - len(ttfi_values),
        "e2e_p50_s": None if not e2e_values else _round_sig(percentile(e2e_values, 50)),
        "e2e_p90_s": None if not e2e_values else _round_sig(percentile(e2e_values, 90)),
        "product_count": len(trace.products),
        "delivered_product_count": len(trace.marketplace),
        "undelivered_product_count": len(trace.products) - len(trace.downlink_completions),
        "unmet_request_count": len(trace.plan.unmet_request_ids),
        "acquisition_count": len(trace.scenes),
        "generated_bits_total": trace.generated_bits(),
        "transferred_bits_total": sum(transferred_by_kind.values()),
        "delivered_bits_total": sum(delivered_by_kind.values()),
        "residual_bits_total": sum(trace.residual_bits().values()),
        "transferred_bits_by_kind": transferred_by_kind,
        "delivered_bits_by_kind": delivered_by_kind,
    }
    return ServiceReport(
        scenario_name=scenario.name,
        seed=scenario.seed,
        mode=MODE_LABELS[scenario.archetype.processing_location],
        horizon_s=scenario.horizon_s,
        events=events,
        products=product_table,
        summary=summary,
    )


class ComparisonReport(NamedTuple):
    """Paired hybrid vs remote-only comparison under common random numbers."""

    scenario_name: str
    seed: int
    events: Table
    summary: dict
    hybrid: ServiceReport
    raw_only: ServiceReport
    baseline: Optional[ServiceReport] = None

    per_event = property(lambda self: self.events.rows())

    def to_dict(self, *, tables: bool = False) -> dict:
        out = {
            "schema_version": 1,
            "scenario": {"name": self.scenario_name, "seed": self.seed},
            "per_event": self.events if tables else list(self.per_event),
            "summary": self.summary,
            "hybrid": self.hybrid.to_dict(tables=tables),
            "raw_only": self.raw_only.to_dict(tables=tables),
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline.to_dict(tables=tables)
        return out


COMPARISON_CSV_FIELDS = [
    "record_type", "id", "start_s", "area_ha",
    "ttfi_hybrid_s", "ttfi_raw_s", "delta_s", "hybrid_faster",
    "event_count", "hybrid_faster_count", "comparable_count", "hybrid_faster_fraction",
    "ttfi_median_hybrid_s", "ttfi_median_raw_s", "ttfi_median_baseline_s",
    "transferred_bits_hybrid", "transferred_bits_raw", "transfer_ratio",
]


def compare_architectures(scenario: Scenario, baseline_scenario: Optional[Scenario] = None) -> ComparisonReport:
    """Run hybrid and remote-only arms on identical streams and pair them.

    Optionally also runs a baseline scenario (e.g. a medium-resolution
    periodic service), as it is given, for class-level context: it sees the
    same events when it lists the same ``events``.
    """
    memo: dict = {}
    hybrid_trace = run(with_processing(scenario, ProcessingLocation.HYBRID), memo=memo)
    raw_trace = run(with_processing(scenario, ProcessingLocation.GROUND), memo=memo)

    hybrid_report = build_service_report(hybrid_trace)
    raw_report = build_service_report(raw_trace)
    baseline_report = (None if baseline_scenario is None
                       else build_service_report(run(baseline_scenario, memo=memo)))

    fire_events = hybrid_trace.fire_events
    ttfi_h = first_information(hybrid_trace, fire_events)[0]
    ttfi_r = first_information(raw_trace, fire_events)[0]
    # A never-delivered arm counts as slower than any delivered time.
    faster = [None if th is None and tr is None else th is not None and (tr is None or th < tr)
              for th, tr in zip(ttfi_h, ttfi_r)]
    comparable = len(faster) - faster.count(None)
    hybrid_faster = faster.count(True)
    events = Table({
        **{k: hybrid_report.events.columns[k] for k in ("id", "start_s", "area_ha")},
        "ttfi_hybrid_s": _sig_column(ttfi_h),
        "ttfi_raw_s": _sig_column(ttfi_r),
        "delta_s": _sig_column(None if th is None or tr is None else th - tr for th, tr in zip(ttfi_h, ttfi_r)),
        "hybrid_faster": faster,
    }, frozenset({"start_s", "area_ha", "ttfi_hybrid_s", "ttfi_raw_s", "delta_s"}))

    bits_h = hybrid_report.summary["transferred_bits_total"]
    bits_r = raw_report.summary["transferred_bits_total"]
    summary = {
        "event_count": len(fire_events),
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
        events=events,
        summary=summary,
        hybrid=hybrid_report,
        raw_only=raw_report,
        baseline=baseline_report,
    )


@functools.cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """C encoder for a container at ``depth``: its item separator carries the indent."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


# JSON texts of a list of scalars joined by NUL, which ``ensure_ascii`` escapes in strings.
_CELLS_ENCODER = json.JSONEncoder(separators=("\0", ": "))
# Rows of a table per piece of JSON or CSV text.
_BLOCK_ROWS = 256


def _blocks(rows: Iterable) -> Iterator[list]:
    """``rows`` in consecutive lists of at most ``_BLOCK_ROWS``."""
    rows = iter(rows)
    return iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])


def _sig_json(texts: Iterable[Optional[str]]) -> list[str]:
    """JSON text of each float held as its ``_sig_text``: fixed-notation text is the float's own
    shortest text, given ``.0`` if it has no ``.``; exponent and non-finite text go through the encoder."""
    return ["null" if t is None else _CELLS_ENCODER.encode(float(t)) if "e" in t or "n" in t
            else t if "." in t else t + ".0" for t in texts]


def _table_json(table: Table, depth: int) -> Iterator[str]:
    """``json.dumps(table.rows(), indent=2)`` ``depth`` containers deep, a piece per block: ``_sig_json``
    or one call of the C encoder per column gives its cells, and one ``%``-template holding the escaped
    keys each row."""
    n = len(next(iter(table.columns.values())))
    if not n:
        yield "[]"
        return
    indent = "\n" + "  " * (depth + 1)
    key = _json_encoder(depth).encode
    row = "{" + ",".join(f"{indent}  {key(k)}: ".replace("%", "%%") + "%s" for k in table.columns) + indent + "}"
    sep = "[" + indent
    for lo in range(0, n, _BLOCK_ROWS):
        cells = [_sig_json(c[lo:lo + _BLOCK_ROWS]) if k in table.sig_fields else
                 _CELLS_ENCODER.encode(c[lo:lo + _BLOCK_ROWS])[1:-1].split("\0")
                 for k, c in table.columns.items()]
        yield sep + ("," + indent).join(map(row.__mod__, zip(*cells)))
        sep = "," + indent
    yield indent[:-2] + "]"


def _json_pieces(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)`` for str keys, for a value ``depth`` containers deep,
    in pieces, a ``Table`` as its rows: each container of scalars, and each block of a table, is one."""
    if isinstance(value, Table):
        yield from _table_json(value, depth)
        return
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
    key = _json_encoder(depth).encode
    for k, v in value.items() if is_dict else enumerate(value):
        yield f"{sep}{key(k)}: " if is_dict else sep
        yield from _json_pieces(v, depth + 1)
        sep = "," + indent
    yield indent[:-2] + closing


def write_json_report(report: ServiceReport | ComparisonReport, path: str | Path) -> Path:
    """``json.dumps(report.to_dict(), indent=2)`` and a newline, written a piece
    at a time from the report's tables, so that at most one block is text at once."""
    path = Path(path)
    with open(path, "w") as f:
        f.writelines(_json_pieces(report.to_dict(tables=True)))
        f.write("\n")
    return path


# Text of a report value of each type in a CSV cell; None is an empty cell.
_CSV_FORMAT = {bool: ("false", "true").__getitem__, int: str, float: _sig_text}
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
    """Cells of a column of report values."""
    types = set(map(type, values))
    cells = [v if type(v) is str else "" if v is None else _CSV_FORMAT[type(v)](v) for v in values]
    return _csv_quoted(cells) if str in types else cells


def _csv_blocks(record_type: str, table: Table, fields: list[str]) -> Iterator[str]:
    """CSV text of a table, one block of at most ``_BLOCK_ROWS`` rows at a
    time: ``record_type``, then one column per further field, empty where the
    table lacks it.  A float held as text is written as that text."""
    columns = table.columns
    n = len(next(iter(columns.values())))
    for lo in range(0, n, _BLOCK_ROWS):
        m = min(n - lo, _BLOCK_ROWS)
        yield _csv_text([_csv_quoted([record_type] * m)] + [
            _csv_column(columns[k][lo:lo + m]) if k in columns else [""] * m for k in fields[1:]
        ])


def write_csv_report(report: ServiceReport | ComparisonReport, path: str | Path) -> Path:
    """One ``event`` row per event, one ``product`` row per product of a run
    report, one ``summary`` row; written one block of at most ``_BLOCK_ROWS``
    rows at a time."""
    path = Path(path)
    if isinstance(report, ComparisonReport):
        fields, tables = COMPARISON_CSV_FIELDS, [("event", report.events)]
    else:
        fields, tables = SERVICE_CSV_FIELDS, [("event", report.events), ("product", report.products)]
    summary = Table({k: [v] for k, v in report.summary.items()})
    with open(path, "w", newline="") as f:
        f.write(",".join(fields) + "\r\n")
        for record_type, table in [*tables, ("summary", summary)]:
            f.writelines(_csv_blocks(record_type, table, fields))
    return path
