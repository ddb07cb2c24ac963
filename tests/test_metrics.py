import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain.engine import run
from eochain.metrics import (
    _indented_json,
    build_service_report,
    compare_architectures,
    end_to_end_latency,
    percentile,
    time_to_first_info,
    write_csv_report,
    write_json_report,
)
from eochain.model import FireEvent, GeoPoint

from conftest import make_scenario

EVENT = FireEvent("inj-1", GeoPoint(42.0, 13.0), 3600.0, 50.0)


@pytest.fixture(scope="module")
def trace():
    return run(make_scenario(seed=5), injected_events=[EVENT])


@pytest.fixture(scope="module")
def report(trace):
    return build_service_report(trace, mmu_ha=3.0)


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


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES)
    def test_equals_json_dumps_with_indent(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2)


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
        assert periodic.transferred_bits() > 0


class TestCompleteness:
    def test_perfect_chain_reaches_full_completeness(self):
        import dataclasses
        from eochain.model import DetectionSpec

        s = make_scenario(seed=3, cloud_mean=0.0,
                          detection=DetectionSpec(accuracy_p=1.0))
        ev = FireEvent("sure", GeoPoint(42.0, 13.0), 3600.0, 50.0)
        trace = run(s, injected_events=[ev])
        report = build_service_report(trace, mmu_ha=3.0)
        assert trace.marketplace, "event must be acquired and delivered for this check"
        assert report.summary["completeness"] == 1.0
