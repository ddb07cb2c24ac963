import csv
import functools
import io
import json
import math
import struct
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eochain import events, metrics, tasking
from eochain.engine import _ground, run, with_processing
from eochain.metrics import (
    Table,
    _json_pieces,
    _sig_column,
    build_service_report,
    compare_architectures,
    end_to_end_latency,
    first_info_product,
    percentile,
    time_to_first_info,
    write_csv_report,
    write_json_report,
)
from eochain.model import (
    AcquisitionMode, DataProduct, DetectionSpec, FireEvent, GeoPoint, ProcessingLocation, ProductKind, Triggering,
)
from eochain.presets import get_preset
from eochain.scenario_io import load_scenario

from conftest import NO_SHRINK, make_aoi, make_archetype, make_scenario

EVENT = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)
STRESS = Path(__file__).resolve().parents[1] / "scenarios" / "iride_heo_stress.yaml"


@pytest.fixture(scope="module")
def trace():
    return run(make_scenario(seed=5), injected_events=[EVENT])


@pytest.fixture(scope="module")
def report(trace):
    return build_service_report(trace)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) is None

    def test_single_value(self):
        assert percentile([4.0], 50) == 4.0
        assert percentile([4.0], 90) == 4.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([0.0, 10.0, 20.0, 30.0, 40.0], 90) == pytest.approx(36.0)

    def test_monotone(self):
        values = [3.0, 1.0, 7.0, 2.0, 9.0, 4.0]
        assert percentile(values, 50) <= percentile(values, 90)


class TestLatencyMetrics:
    def test_unknown_event_rejected(self, trace):
        with pytest.raises(KeyError):
            time_to_first_info(trace, "no-such-event")

    def test_first_info_is_minimum_over_products(self, trace):
        ttfi = time_to_first_info(trace, "inj-1")
        assert ttfi is not None
        deliveries = [
            r.delivered - EVENT.start for r in trace.marketplace if "inj-1" in r.event_ids
        ]
        assert ttfi == min(deliveries)

    def test_never_delivered_is_none(self):
        lonely = FireEvent("lonely", GeoPoint(42.0, 13.0), 3600.0, 1.0)  # below MMU
        t = run(make_scenario(seed=5), injected_events=[lonely])
        assert time_to_first_info(t, "lonely") is None

    def test_end_to_end_latency_vs_scene(self, trace):
        for rec in trace.marketplace:
            e2e = end_to_end_latency(trace, rec.product_id)
            scene = trace.scenes[trace.products[rec.product_id].scene_id]
            assert e2e == pytest.approx(rec.delivered - scene.acquired)

    def test_undelivered_product_excluded(self, trace):
        for pid in trace.products:
            if pid not in trace.downlink_completions:
                assert end_to_end_latency(trace, pid) is None

    @pytest.mark.parametrize("lookup", [time_to_first_info, first_info_product, end_to_end_latency])
    def test_unknown_id_is_a_key_error_naming_it(self, trace, lookup):
        # None answers "never delivered"; an id the run never made is an error.
        with pytest.raises(KeyError, match="no-such-id"):
            lookup(trace, "no-such-id")

    def test_first_info_product_breaks_ties_by_product_id(self, trace):
        # Three products with the event, two delivered at one time, the later id listed first.
        products = {pid: DataProduct(pid, ProductKind.THEMATIC_MASK, "scn", frozenset({"inj-1"}), 100, 0.0)
                    for pid in ("p-c", "p-b", "p-a")}
        completions = {"p-c": 5000.0, "p-b": 4000.0, "p-a": 4000.0}
        marketplace, delivered, first = _ground(make_scenario(seed=5), products, completions)
        tied = trace._replace(marketplace=marketplace, delivered_by_product=delivered,
                              first_delivery_by_event=first)
        assert first_info_product(tied, "inj-1") == "p-a"
        assert time_to_first_info(tied, "inj-1") == delivered["p-a"] - EVENT.start

    def test_never_delivered_product_of_an_event_is_none(self):
        lonely = FireEvent("lonely", GeoPoint(42.0, 13.0), 3600.0, 1.0)  # below MMU
        t = run(make_scenario(seed=5), injected_events=[lonely])
        assert first_info_product(t, "lonely") is None


class TestLookupOracle:
    """The trace's delivery lookups, the report cells built from them and compare's paired
    TTFI cells, against brute force over the marketplace, on both arms of each drawn scenario."""

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(
        seed=st.integers(0, 2**64 - 1),
        hours=st.integers(6, 18),
        rate=st.floats(1.0, 12.0),
        acquisition=st.sampled_from(list(AcquisitionMode)),
        triggering=st.sampled_from(list(Triggering)),
    )
    def test_lookups_equal_brute_force_minimum(self, seed, hours, rate, acquisition, triggering):
        periodic = triggering is Triggering.PERIODIC
        arch = make_archetype(acquisition=acquisition, triggering=triggering, cycle=3 * 3600.0 if periodic else None)
        aois = (make_aoi("aoi-a", 42.0, 13.0, radius=300.0), make_aoi("aoi-b", 44.5, 9.0, radius=300.0))
        scenario = make_scenario(seed=seed, horizon=hours * 3600.0, aois=aois, archetype=arch, rate=rate)
        memo: dict = {}
        traces = {location: run(with_processing(scenario, location), memo=memo) for location in ProcessingLocation}
        for trace in traces.values():
            first, delivered = {}, {}
            for r in trace.marketplace:
                delivered[r.product_id] = min(delivered.get(r.product_id, math.inf), r.delivered)
                for event_id in r.event_ids:
                    first[event_id] = min(first.get(event_id, (math.inf, "")), (r.delivered, r.product_id))
            assert trace.first_delivery_by_event == first
            assert trace.delivered_by_product == delivered

            report = build_service_report(trace)
            event_ids, product_ids = report.events.columns["id"], report.products.columns["id"]
            ttfi = [first[i][0] - trace.events_by_id[i].start if i in first else None for i in event_ids]
            first_ids = [first[i][1] if i in first else None for i in event_ids]
            e2e = [delivered[i] - trace.scenes[trace.products[i].scene_id].acquired if i in delivered else None
                   for i in product_ids]
            assert [time_to_first_info(trace, i) for i in event_ids] == ttfi
            assert [first_info_product(trace, i) for i in event_ids] == first_ids
            assert [end_to_end_latency(trace, i) for i in product_ids] == e2e
            assert report.events.columns["ttfi_s"] == _sig_column(ttfi)
            assert report.events.columns["first_product_id"] == first_ids
            assert report.products.columns["delivered_s"] == _sig_column(map(delivered.get, product_ids))
            assert report.products.columns["e2e_s"] == _sig_column(e2e)
            s = report.summary
            assert s["transferred_bits_total"] == sum(r.bits_moved for r in trace.transfer_records)
            assert s["delivered_bits_total"] == sum(
                p.volume_bits for pid, p in trace.products.items() if pid in trace.downlink_completions)

        comparison = compare_architectures(scenario)
        event_ids = comparison.events.columns["id"]
        for field, location in (("ttfi_hybrid_s", ProcessingLocation.HYBRID), ("ttfi_raw_s", ProcessingLocation.GROUND)):
            assert comparison.events.columns[field] == _sig_column(
                time_to_first_info(traces[location], i) for i in event_ids)


class TestServiceReport:
    def test_summary_consistency(self, trace, report):
        s = report.summary
        assert s["event_count"] == len(trace.fire_events)
        assert s["product_count"] == len(trace.products)
        assert 0.0 <= s["completeness"] <= 1.0
        if s["ttfi_p50_s"] is not None and s["ttfi_p90_s"] is not None:
            assert s["ttfi_p50_s"] <= s["ttfi_p90_s"]

    def test_per_kind_bits_sum_to_totals(self, report):
        s = report.summary
        assert sum(s["transferred_bits_by_kind"].values()) == s["transferred_bits_total"]
        assert sum(s["delivered_bits_by_kind"].values()) == s["delivered_bits_total"]

    def test_json_round_trips(self, report, tmp_path):
        path = write_json_report(report, tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()
        assert loaded["schema_version"] == 1

    def test_emit_byte_identical(self, report, tmp_path):
        a = write_json_report(report, tmp_path / "a.json")
        b = write_json_report(report, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        c = write_csv_report(report, tmp_path / "a.csv")
        d = write_csv_report(report, tmp_path / "b.csv")
        assert c.read_bytes() == d.read_bytes()

    def test_csv_row_count(self, report, tmp_path):
        path = write_csv_report(report, tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        expected = len(report.per_event) + len(report.per_product) + 1  # + summary
        assert len(lines) == expected + 1  # + header


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2**70, -(2**70), "é\n\"\\\x00\u2028"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=20,
)


# Text that holds the pieces of a row boundary, so a writer that splits an
# encoded block of rows inside a string shows.
TABLE_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"},\n    {"', '}, {"', "\n", " ", "\\", "é€\u2028", "},\n", "x}, {", "},", "{", '"', "\x00", "\x1f",
     "%", "%s", "%%(x)s"]
)
# Floats at the edges of ``%.6g`` and of JSON: 1.000004e-318 reads back from
# its text "1e-318" as a float whose own text is "9.99999e-319".
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.000004e-318, 2.2250738585072014e-308, 1e308, -1e308,
               sys.float_info.max, math.nan, math.inf, -math.inf, 999999.5, 1e16]
TABLE_FLOATS = st.none() | st.floats() | st.sampled_from(EDGE_FLOATS)
TABLE_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | TABLE_TEXT
    | st.sampled_from([*EDGE_FLOATS, 2**70, -(2**70)])
)
FLAT_ROW = st.dictionaries(TABLE_TEXT, TABLE_SCALARS, min_size=1, max_size=5)
# Up to 600 rows, so tables cross one and two block boundaries of 256 rows.
TABLE_LENGTH = st.integers(0, 600) | st.sampled_from([1, 255, 256, 257, 511, 512, 513])


def placed(table, depth, in_dict):
    """``table`` nested ``depth`` lists deep, optionally as a member of a dict."""
    for _ in range(depth):
        table = [table, 1]
    return {"before": [], "rows": table, "after": 1.5} if in_dict else table


def indented_json(value) -> str:
    return "".join(_json_pieces(value))


def random_table(keys, cells, sig, n):
    """A table of ``n`` rows, column j cycling through ``cells[j]``, and the
    same rows as dicts, with today's rounding of each float of a ``sig`` column."""
    columns, values = {}, {}
    for key, column, rounded in zip(keys, cells, sig):
        values[key] = [column[i % len(column)] for i in range(n)]
        if rounded:
            columns[key] = metrics._sig_column(values[key])
            values[key] = [None if x is None else format_round_sig(x) for x in values[key]]
        else:
            columns[key] = values[key]
    rows = [{key: values[key][i] for key in keys} for i in range(n)]
    return Table(columns, frozenset(k for k, rounded in zip(keys, sig) if rounded)), rows


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES)
    def test_equals_json_dumps_with_indent(self, value):
        assert indented_json(value) == json.dumps(value, indent=2)

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(keys=st.lists(TABLE_TEXT, min_size=1, max_size=5, unique=True), data=st.data(), n=TABLE_LENGTH,
           depth=st.integers(0, 2), in_dict=st.booleans())
    def test_table_equals_json_dumps_with_indent(self, keys, data, n, depth, in_dict):
        sig = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)), label="sig")
        cells = [data.draw(st.lists(TABLE_FLOATS if rounded else TABLE_SCALARS, min_size=1, max_size=6))
                 for rounded in sig]
        table, rows = random_table(keys, cells, sig, n)
        expected = json.dumps(placed(rows, depth, in_dict), indent=2)
        actual = indented_json(placed(table, depth, in_dict))
        if actual != expected:
            pytest.fail(first_differing_line(actual, expected, "\n", "json.dumps"))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(FLAT_ROW, min_size=1, max_size=6), n=st.integers(1, 600),
           odd=st.sampled_from([{}, {"a": {"b": 1}}, {"a": {}}, {"a": []}, {"a": [1, "x"]}]),
           at=st.floats(0.0, 1.0), depth=st.integers(0, 2), in_dict=st.booleans())
    def test_list_with_one_nested_or_empty_dict_takes_general_path(self, rows, n, odd, at, depth, in_dict):
        table = [rows[i % len(rows)] for i in range(n)]
        table.insert(int(at * n), odd)
        value = placed(table, depth, in_dict)
        assert indented_json(value) == json.dumps(value, indent=2)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def reference_csv(report, path):
    """The CSV writer as it was, one row and one ``_fmt`` call per cell at a time."""
    if isinstance(report, metrics.ComparisonReport):
        fields = metrics.COMPARISON_CSV_FIELDS
        rows = [*({"record_type": "event", **e} for e in report.per_event),
                {"record_type": "summary", **report.summary}]
    else:
        fields = metrics.SERVICE_CSV_FIELDS
        rows = [*({"record_type": "event", **e} for e in report.per_event),
                *({"record_type": "product", **p} for p in report.per_product),
                {"record_type": "summary", **report.summary}]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(fields)
        column = {field: i for i, field in enumerate(fields)}
        for row in rows:
            cells = [""] * len(fields)
            for key, value in row.items():
                if key in column:
                    cells[column[key]] = _fmt(value)
            w.writerow(cells)


def _run_report(scenario):
    return build_service_report(run(scenario))


CSV_REPORTS = {
    "stress": lambda: _run_report(load_scenario(STRESS)),
    "iride-heo": lambda: _run_report(get_preset("iride-heo")),
    "effis-like": lambda: _run_report(get_preset("effis-like")),
    "compare": lambda: compare_architectures(get_preset("iride-heo"), baseline_scenario=get_preset("effis-like")),
}


@functools.cache
def built_report(name):
    """``CSV_REPORTS[name]``, built once for the tests that only read it."""
    return CSV_REPORTS[name]()


class TestJsonPieces:
    """Reports are written a piece at a time, and the pieces join to ``json.dumps``."""

    @pytest.mark.parametrize("name", ["stress", "compare"])
    def test_pieces_join_to_json_dumps_with_indent(self, name):
        report = built_report(name)
        assert indented_json(report.to_dict(tables=True)) == json.dumps(report.to_dict(), indent=2)

    def test_no_piece_is_longer_than_one_block_of_products(self):
        report = built_report("stress")
        products = report.to_dict()["products"]
        assert len(products) > 2 * metrics._BLOCK_ROWS
        # A block of rows as the report holds it: one level deep, under the top-level dict.
        block = max(
            len(textwrap.indent(json.dumps(products[i:i + metrics._BLOCK_ROWS], indent=2), "  "))
            for i in range(0, len(products), metrics._BLOCK_ROWS)
        )
        assert max(map(len, _json_pieces(report.to_dict(tables=True)))) <= block


def format_round_sig(x: float) -> float:
    """``_round_sig`` as it was, through a format spec."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


# Every double, from its bits, next to the cases at the edges of the formula.
ANY_DOUBLE = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
EDGE_DOUBLES = st.sampled_from([
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    sys.float_info.max, -sys.float_info.max, sys.float_info.min, 999999.5, 9999995.0, 1e16,
])


class TestRoundSig:
    @settings(max_examples=500, deadline=None)
    @given(x=st.floats() | ANY_DOUBLE | EDGE_DOUBLES)
    def test_equals_format_spec_formula(self, x):
        assert repr(metrics._round_sig(x)) == repr(format_round_sig(x))

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats() | ANY_DOUBLE | EDGE_DOUBLES)
    @example(x=1.000004e-318)  # its text "1e-318" reads as a float whose text is "9.99999e-319"
    @example(x=123456.0)  # fixed-notation text with no "."
    @example(x=999999.4)  # rounds to "999999", the widest fixed-notation text
    @example(x=1e-4)  # the smallest magnitude in fixed notation
    @example(x=9.99995e-05)  # exponent text ("9.99995e-05") just below the smallest fixed-notation magnitude
    @example(x=-1e-4)
    def test_table_cells_equal_format_of_rounded_value(self, x):
        # A table holds the text of x once; its CSV cell is "%.6g" of the rounded
        # value, and its JSON cell that value, as when each cell formatted it.
        table = Table({"x": metrics._sig_column([x])}, frozenset({"x"}))
        assert "".join(metrics._csv_blocks("r", table, ["record_type", "x"])) == "r,%s\r\n" % _fmt(format_round_sig(x))
        assert indented_json(table) == json.dumps([{"x": format_round_sig(x)}], indent=2)


class TestCsvWriter:
    @pytest.mark.parametrize("name", sorted(CSV_REPORTS))
    def test_equals_row_at_a_time_writer(self, name, tmp_path):
        report = CSV_REPORTS[name]()
        assert report.per_event
        reference_csv(report, tmp_path / "reference.csv")
        write_csv_report(report, tmp_path / "table.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# Text that the csv module quotes, and text it leaves alone.
CSV_TEXT = st.text(max_size=6) | st.sampled_from([",", '"', "\r", "\n", "é", "", 'a,"b"', "\r\n", " x "])
CSV_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | CSV_TEXT
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2**70, -(2**70), float(2**70)])
)


def first_differing_line(actual: str, expected: str, newline: str = "\r\n", oracle: str = "csv.writer") -> str:
    """The index of the first line at which two texts differ, and both lines."""
    a, e = actual.split(newline), expected.split(newline)
    i = next((i for i, (x, y) in enumerate(zip(a, e)) if x != y), min(len(a), len(e)))
    shown = [repr(lines[i]) if i < len(lines) else "<no line>" for lines in (a, e)]
    return f"line {i} differs: rendered {shown[0]}, {oracle} {shown[1]}"


class TestCsvRenderer:
    """Blocks of rows render as ``csv.writer`` writes the same cells a row at a time."""

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(record_type=CSV_TEXT, keys=st.lists(CSV_TEXT, min_size=1, max_size=5, unique=True),
           cells=st.lists(st.lists(CSV_SCALARS, min_size=5, max_size=5), min_size=1, max_size=8),
           n=st.sampled_from([0, 1, 255, 256, 257, 600]), missing=st.booleans(),
           sig=st.lists(st.booleans(), min_size=5, max_size=5), floats=st.lists(TABLE_FLOATS, min_size=1, max_size=8))
    # Every run renders a text cell holding each character that csv.writer quotes.
    @example(record_type="event", keys=["id", "n"], cells=[["a\rb", 1, 0, 0, 0]], n=1, missing=False,
             sig=[False] * 5, floats=[1.0])
    @example(record_type="event", keys=["id"], cells=[["a\nb", 0, 0, 0, 0]], n=1, missing=False,
             sig=[False] * 5, floats=[1.0])
    @example(record_type="event", keys=["id"], cells=[['a"b', 0, 0, 0, 0]], n=1, missing=False,
             sig=[False] * 5, floats=[1.0])
    @example(record_type="event", keys=["id", "t"], cells=[["a,b", 0, 0, 0, 0]], n=1, missing=False,
             sig=[False, True, False, False, False], floats=[1.5, None])
    def test_equals_csv_writer(self, record_type, keys, cells, n, missing, sig, floats):
        # Cells of row i come from ``cells[i % len(cells)]``, so columns mix types;
        # a ``sig`` column holds floats as a report does, as their ``%.6g`` text.
        columns = [floats if rounded else [row[j] for row in cells] for j, rounded in enumerate(sig[:len(keys)])]
        table, rows = random_table(keys, columns, sig, n)
        fields = ["record_type", *keys, *(["absent-field"] * missing)]
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        for row in rows:
            w.writerow([record_type, *(_fmt(row[k]) for k in keys), *([""] * missing)])
        actual = "".join(metrics._csv_blocks(record_type, table, fields))
        if actual != expected.getvalue():
            # pytest's diff of two texts this long takes seconds per failing example.
            pytest.fail(first_differing_line(actual, expected.getvalue()))


@pytest.fixture(scope="module")
def comparison():
    return compare_architectures(make_scenario(seed=9), injected_events=[EVENT])


class TestComparison:

    def test_per_event_pairing(self, comparison):
        assert len(comparison.per_event) == 1
        row = comparison.per_event[0]
        assert row["id"] == "inj-1"
        if row["ttfi_hybrid_s"] is not None and row["ttfi_raw_s"] is not None:
            assert row["delta_s"] == pytest.approx(
                row["ttfi_hybrid_s"] - row["ttfi_raw_s"], rel=1e-4
            )

    def test_acquisition_counts_match(self, comparison):
        assert (
            comparison.hybrid.summary["acquisition_count"]
            == comparison.raw_only.summary["acquisition_count"]
            == comparison.summary["acquisition_count"]
        )

    def test_baseline_included_when_given(self):
        rep = compare_architectures(
            make_scenario(seed=9),
            injected_events=[EVENT],
            baseline_scenario=make_scenario(seed=9),
        )
        assert rep.baseline is not None
        assert rep.summary["ttfi_median_baseline_s"] == rep.baseline.summary["ttfi_p50_s"]

    def test_deterministic(self):
        a = compare_architectures(make_scenario(seed=9), injected_events=[EVENT])
        b = compare_architectures(make_scenario(seed=9), injected_events=[EVENT])
        assert a.to_dict() == b.to_dict()

    def test_csv_and_json_emission(self, comparison, tmp_path):
        j = write_json_report(comparison, tmp_path / "c.json")
        c = write_csv_report(comparison, tmp_path / "c.csv")
        assert json.loads(j.read_text())["schema_version"] == 1
        lines = c.read_text().splitlines()
        assert len(lines) == len(comparison.per_event) + 1 + 1


class TestSharedObservation:
    """The arms of a compare share one observation, and sharing it changes no result."""

    @pytest.mark.parametrize("preset", ["iride-heo", "effis-like"])
    def test_arms_equal_cold_runs(self, monkeypatch, preset):
        arms = []

        def recording_run(scenario, injected_events=None, *, memo=None):
            arms.append((scenario, run(scenario, injected_events, memo=memo)))
            return arms[-1][1]

        monkeypatch.setattr(metrics, "run", recording_run)
        compare_architectures(get_preset(preset))
        (_, hybrid), (_, raw) = arms
        assert hybrid.scenes is raw.scenes
        assert hybrid.fire_events is raw.fire_events
        for scenario, trace in arms:
            assert run(scenario) == trace

    def test_shared_mappings_are_read_only(self, trace):
        for mapping in (trace.detection_times, trace.scenes, trace.detections):
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = mapping[key]

    def test_presets_compare_observes_each_scenario_once(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(tasking, "plan")
        counted(events, "generate_fire_events")
        scenario = get_preset("iride-heo")
        baseline = get_preset("effis-like", seed=scenario.seed, horizon_s=scenario.horizon_s)
        compare_architectures(scenario, baseline_scenario=baseline)
        assert calls == {"plan": 2, "generate_fire_events": 2}


class TestZeroEvents:
    def test_event_driven_arms_idle_while_periodic_service_accrues_raw_volume(self):
        import dataclasses
        from eochain.model import ProcessingLocation, Triggering
        from conftest import make_archetype

        comparison = compare_architectures(make_scenario(seed=3, rate=0.0))
        assert comparison.summary["event_count"] == 0
        assert comparison.summary["transferred_bits_hybrid"] == 0
        assert comparison.summary["transferred_bits_raw"] == 0

        periodic = run(
            make_scenario(
                seed=3,
                rate=0.0,
                archetype=make_archetype(
                    processing=ProcessingLocation.GROUND,
                    triggering=Triggering.PERIODIC,
                    cycle=86400.0,
                ),
            )
        )
        assert sum(r.bits_moved for r in periodic.transfer_records) > 0


class TestCompleteness:
    def test_perfect_chain_reaches_full_completeness(self):
        import dataclasses
        from eochain.model import DetectionSpec

        s = make_scenario(seed=3, cloud_mean=0.0,
                          detection=DetectionSpec(accuracy_p=1.0))
        ev = FireEvent("sure", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(s, injected_events=[ev])
        report = build_service_report(trace)
        assert trace.marketplace, "event must be acquired and delivered for this check"
        assert report.summary["completeness"] == 1.0

    @pytest.mark.parametrize("mmu", [1.0, 3.0, 10.0])
    def test_report_uses_the_mmu_its_run_detected_with(self, mmu):
        # Areas straddle each MMU.  Detection drops events below the run's MMU; a sure detector finds the rest.
        areas = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0]
        injected = [FireEvent(f"ev-{i}", GeoPoint(42.0, 13.0), 3600.0 + 600.0 * i, a) for i, a in enumerate(areas)]
        s = make_scenario(seed=3, archetype=make_archetype(mmu=mmu), detection=DetectionSpec(accuracy_p=1.0))
        trace = run(s, injected_events=injected)
        report = build_service_report(trace)
        mmu_ha = trace.scenario.archetype.mmu_ha
        assert report.events.columns["detectable"] == [e.area_ha >= mmu_ha for e in trace.fire_events]
        detected = set().union(*trace.detections.values())
        assert detected
        assert report.summary["detected_detectable_count"] == len(detected)
