import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eochain.engine import _ground
from eochain.ground import MarketplaceRecord, pdgs_process, write_marketplace_dump
from eochain.model import (
    DataProduct,
    GroundLatencySpec,
    ProductKind,
    Triggering,
)

from conftest import NO_SHRINK, make_archetype, make_scenario

LATENCIES = GroundLatencySpec(pdgs_raw_s=7200.0, pdgs_mask_s=600.0)
EVENT_DRIVEN = make_archetype(triggering=Triggering.EVENT_DRIVEN)
PERIODIC = make_archetype(triggering=Triggering.PERIODIC, cycle=86400.0)


def product(kind=ProductKind.THEMATIC_MASK, pid="p"):
    return DataProduct(
        id=pid, kind=kind, scene_id="scn", event_ids=frozenset({"ev"}),
        volume_bits=100, created=0.0,
    )


class TestPdgsProcess:
    def test_mask_latency_event_driven(self):
        t = pdgs_process(product(ProductKind.THEMATIC_MASK), 5000.0, LATENCIES, EVENT_DRIVEN)
        assert t == 5600.0

    def test_chip_uses_mask_latency(self):
        t = pdgs_process(product(ProductKind.ROI_CHIP), 5000.0, LATENCIES, EVENT_DRIVEN)
        assert t == 5600.0

    def test_raw_latency(self):
        t = pdgs_process(product(ProductKind.RAW_SCENE), 5000.0, LATENCIES, EVENT_DRIVEN)
        assert t == 12200.0

    def test_periodic_alignment_to_next_cycle(self):
        t = pdgs_process(product(ProductKind.RAW_SCENE), 5000.0, LATENCIES, PERIODIC)
        assert t == 86400.0

    def test_periodic_alignment_exact_boundary_stays(self):
        t = pdgs_process(product(ProductKind.RAW_SCENE), 86400.0 - 7200.0, LATENCIES, PERIODIC)
        assert t == 86400.0

    def test_periodic_never_decreases_delivery(self):
        for downlink in (0.0, 1000.0, 50000.0, 90000.0, 200000.0):
            for kind in ProductKind:
                aligned = pdgs_process(product(kind), downlink, LATENCIES, PERIODIC)
                free = pdgs_process(product(kind), downlink, LATENCIES, EVENT_DRIVEN)
                assert aligned >= free

    def test_mask_never_later_than_raw(self):
        for downlink in (0.0, 777.0, 123456.0):
            mask = pdgs_process(product(ProductKind.THEMATIC_MASK), downlink, LATENCIES, EVENT_DRIVEN)
            raw = pdgs_process(product(ProductKind.RAW_SCENE), downlink, LATENCIES, EVENT_DRIVEN)
            assert mask <= raw


class TestMarketplace:
    """The engine's ground stage: one delivery per downlinked product inside the horizon."""

    SCENARIO = make_scenario(horizon=10_000.0, pdgs_raw=7200.0, pdgs_mask=600.0)

    def deliveries(self, completions):
        products = {pid: product(pid=pid) for pid in completions}
        return _ground(self.SCENARIO, products, completions)[0]

    def test_one_record_per_product(self):
        (rec,) = self.deliveries({"p1": 1000.0})
        assert rec.product_id == "p1"
        assert rec.event_ids == frozenset({"ev"})
        assert rec.delivered == 1600.0

    def test_records_sorted_by_delivery_time(self):
        records = self.deliveries({"late": 2000.0, "early": 1000.0, "tie-b": 1500.0, "tie-a": 1500.0})
        assert [r.product_id for r in records] == ["early", "tie-a", "tie-b", "late"]

    def test_delivery_after_horizon_dropped(self):
        records = self.deliveries({"p1": 9000.0, "p2": 9400.0, "p3": 9401.0})
        assert [r.product_id for r in records] == ["p1", "p2"]

    def test_dump_is_stable(self, tmp_path):
        records = self.deliveries({"p1": 1234.5678, "p2": 999.0})
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_marketplace_dump(path_a, records)
        write_marketplace_dump(path_b, records)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert len(path_a.read_text().splitlines()) == 2

    # Ids holding the pieces of a record boundary, quotes and newlines.
    ODD = ['}, {"', "x}, {", '"', "\n", '}, {"delivered_s": ', "é"]

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
    def test_dump_equals_one_json_dumps_per_record(self, tmp_path, n):
        odd = self.ODD
        records = [
            MarketplaceRecord(f"p{i}{odd[i % len(odd)]}",
                              frozenset({"ev", f"e{i}{odd[(i + 1) % len(odd)]}"}), 1000.0 + i / 7)
            for i in range(n)
        ]
        path = tmp_path / "m.jsonl"
        write_marketplace_dump(path, records)
        expected = "".join(
            json.dumps({"product_id": r.product_id, "event_ids": sorted(r.event_ids),
                        "delivered_s": round(r.delivered, 3)}, sort_keys=True) + "\n"
            for r in records
        )
        assert path.read_bytes() == expected.encode()

    # Any finite time, times with digits past the third decimal, and ties of round().
    TIMES = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**12, 10**12).map(lambda n: n / 7)
             | st.sampled_from([0.0, -0.0, 0.0005, 0.0015, -0.0025, 1e16, 1e-5]))

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(ids=st.lists(st.text(max_size=6) | st.sampled_from(ODD), min_size=1, max_size=6),
           times=st.lists(TIMES, min_size=1, max_size=6),
           n=st.sampled_from([0, 1, 255, 256, 257, 600]))
    # Times at the bound of 2**43 s, past which a time's "%.3f" text may not be its shortest text.
    @example(ids=["p"], times=[2.0**43 - 0.0005], n=1)
    @example(ids=["p"], times=[2.0**43], n=1)
    @example(ids=["p"], times=[2.0**43 + 0.25], n=1)
    @example(ids=["p"], times=[-(2.0**43) + 0.0015], n=1)
    @example(ids=["p"], times=[2.0**43 + 15 * 2.0**-9], n=1)  # "%.3f" gives ...208.029, repr ...208.03
    def test_dump_equals_json_dumps_for_any_finite_time(self, tmp_path_factory, ids, times, n):
        records = [MarketplaceRecord(ids[i % len(ids)], frozenset(ids[: i % (len(ids) + 1)]), times[i % len(times)])
                   for i in range(n)]
        path = tmp_path_factory.mktemp("dump") / "m.jsonl"
        write_marketplace_dump(path, iter(records))
        expected = "".join(
            json.dumps({"product_id": r.product_id, "event_ids": sorted(r.event_ids),
                        "delivered_s": round(r.delivered, 3)}, sort_keys=True) + "\n"
            for r in records
        )
        assert path.read_bytes() == expected.encode()
