import math

import pytest

from eochain.ground import Marketplace, pdgs_process, write_marketplace_dump
from eochain.model import (
    DataProduct,
    GroundLatencySpec,
    ProductKind,
    Triggering,
    ValidationError,
)

from conftest import make_archetype

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

    def test_periodic_without_cycle_rejected(self):
        arch = make_archetype(triggering=Triggering.PERIODIC, cycle=None)
        with pytest.raises(ValidationError):
            pdgs_process(product(), 0.0, LATENCIES, arch)


class TestMarketplace:
    def test_one_record_per_product(self):
        m = Marketplace()
        rec = m.deliver(product(pid="p1"), 1000.0)
        assert rec.product_id == "p1"
        assert rec.event_ids == frozenset({"ev"})
        assert len(m) == 1

    def test_duplicate_delivery_rejected(self):
        m = Marketplace()
        m.deliver(product(pid="p1"), 1000.0)
        with pytest.raises(ValidationError):
            m.deliver(product(pid="p1"), 2000.0)

    def test_records_sorted_by_delivery_time(self):
        m = Marketplace()
        m.deliver(product(pid="late"), 2000.0)
        m.deliver(product(pid="early"), 1000.0)
        assert [r.product_id for r in m.records()] == ["early", "late"]

    def test_non_finite_delivery_rejected(self):
        m = Marketplace()
        with pytest.raises(ValidationError):
            m.deliver(product(pid="p"), math.inf)

    def test_dump_is_stable(self, tmp_path):
        m = Marketplace()
        m.deliver(product(pid="p1"), 1234.5678)
        m.deliver(product(pid="p2"), 999.0)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_marketplace_dump(path_a, m.records())
        write_marketplace_dump(path_b, m.records())
        assert path_a.read_bytes() == path_b.read_bytes()
        assert len(path_a.read_text().splitlines()) == 2
