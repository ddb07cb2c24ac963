import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eochain.downlink import (
    LinkInterval,
    exclusive_link_intervals,
    link_schedule,
    simulate_transfers,
)
from eochain.model import DataProduct, ProductKind, ValidationError
from eochain.orbit import Window

from conftest import RECORD_TYPES


MASK, CHIP, RAW = ProductKind.THEMATIC_MASK, ProductKind.ROI_CHIP, ProductKind.RAW_SCENE
# Product kinds in queue-priority order.
BY_PRIORITY = (MASK, CHIP, RAW)


def make_product(pid, volume, created=0.0, kind=RAW):
    return DataProduct(
        id=pid,
        kind=kind,
        scene_id="scn",
        event_ids=frozenset(),
        volume_bits=volume,
        created=created,
    )


def run(products, windows, rate=1.0, station="gs-a"):
    """One satellite, one station at `rate` Mbit/s."""
    return simulate_transfers(
        {"sat-a": list(products)},
        link_schedule({("sat-a", station): windows}),
        {station: rate},
    )


class TestExclusiveIntervals:
    def test_earliest_window_wins_until_it_ends(self):
        out = exclusive_link_intervals(
            {"gs-a": [Window(0.0, 100.0)], "gs-b": [Window(50.0, 150.0)]}
        )
        assert out == [LinkInterval(0.0, 100.0, "gs-a"), LinkInterval(100.0, 150.0, "gs-b")]

    def test_fully_shadowed_window_skipped(self):
        out = exclusive_link_intervals(
            {"gs-a": [Window(0.0, 100.0)], "gs-b": [Window(20.0, 80.0)]}
        )
        assert out == [LinkInterval(0.0, 100.0, "gs-a")]

    def test_equal_start_ties_by_station_id(self):
        out = exclusive_link_intervals(
            {"gs-b": [Window(0.0, 90.0)], "gs-a": [Window(0.0, 80.0)]}
        )
        assert out[0].station_id == "gs-a"
        assert out[1] == LinkInterval(80.0, 90.0, "gs-b")


class TestTransfers:
    def test_orders_by_priority_then_created_then_id(self):
        raw = make_product("raw", 100, created=0.0, kind=RAW)
        mask = make_product("mask", 10, created=5.0, kind=MASK)
        chip_b = make_product("chip-b", 10, created=5.0, kind=CHIP)
        chip_a = make_product("chip-a", 10, created=5.0, kind=CHIP)
        result = run([raw, mask, chip_b, chip_a], [Window(10.0, 100.0)])
        assert [r.product_id for r in result.records] == ["mask", "chip-a", "chip-b", "raw"]

    def test_fifo_among_equal_priority(self):
        early = make_product("late-name", 10, created=1.0, kind=RAW)
        late = make_product("early-name", 10, created=2.0, kind=RAW)
        result = run([late, early], [Window(10.0, 100.0)])
        assert [r.product_id for r in result.records] == ["late-name", "early-name"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError):
            run([make_product("p", 10), make_product("p", 20)], [Window(0.0, 10.0)])

    def test_exact_fit_completes_at_window_end(self):
        # 1e7 bits at 1 Mbit/s fills a 10 s window exactly.
        p = make_product("p", 10_000_000)
        result = run([p], [Window(100.0, 110.0)])
        assert result.completion_times["p"] == pytest.approx(110.0)
        assert sum(r.bits_moved for r in result.records) == p.volume_bits
        rec = result.records[0]
        assert rec.bits_moved == p.volume_bits
        assert rec.start == 100.0

    def test_resumable_across_windows(self):
        p = make_product("p", 10_000_000)
        result = run([p], [Window(0.0, 4.0), Window(50.0, 100.0)])
        assert sum(r.bits_moved for r in result.records) == p.volume_bits
        assert result.completion_times["p"] == pytest.approx(56.0)
        assert [r.bits_moved for r in result.records] == [4_000_000, 6_000_000]

    @pytest.mark.parametrize("end", [2.5000003, 0.7777777, 3.1415926])
    def test_partial_record_moves_the_whole_bits_of_its_interval(self, end):
        # The product outlasts its first link interval, whose rate x span is not a
        # whole number of bits: the partial record moves that number rounded down.
        p = make_product("p", 10_000_000)
        result = run([p], [Window(0.0, end), Window(50.0, 100.0)])
        partial = result.records[0]
        assert (partial.start, partial.end) == (0.0, end)
        assert (1e6 * end) % 1 > 0.01
        assert partial.bits_moved == math.floor(1e6 * (partial.end - partial.start) + 1e-9)
        assert sum(r.bits_moved for r in result.records) == p.volume_bits

    def test_no_windows_no_progress(self):
        p = make_product("p", 1000)
        result = run([p], [])
        assert result.completion_times == {}
        assert result.records == ()

    def test_product_not_yet_created_waits(self):
        p = make_product("p", 1_000_000, created=105.0)
        result = run([p], [Window(100.0, 120.0)])
        assert result.completion_times["p"] == pytest.approx(106.0)

    def test_priority_order_within_window(self):
        raw = make_product("raw", 2_000_000, created=0.0, kind=RAW)
        mask = make_product("mask", 1_000_000, created=1.0, kind=MASK)
        result = run([raw, mask], [Window(10.0, 100.0)])
        assert result.completion_times["mask"] < result.completion_times["raw"]

    def test_non_preemptive_within_window(self):
        # Raw starts at window open; the mask arriving mid-transfer waits for
        # the raw to finish even though it has higher priority.
        raw = make_product("raw", 5_000_000, created=0.0, kind=RAW)
        mask = make_product("mask", 1_000_000, created=12.0, kind=MASK)
        result = run([raw, mask], [Window(10.0, 100.0)])
        assert result.completion_times["raw"] == pytest.approx(15.0)
        assert result.completion_times["mask"] == pytest.approx(16.0)

    def test_priority_respected_at_window_boundary(self):
        # Raw pauses at the first window end; the queued mask goes first in
        # the next window.
        raw = make_product("raw", 50_000_000, created=0.0, kind=RAW)
        mask = make_product("mask", 1_000_000, created=12.0, kind=MASK)
        result = run([raw, mask], [Window(0.0, 10.0), Window(50.0, 200.0)])
        assert result.completion_times["mask"] == pytest.approx(51.0)
        assert result.completion_times["raw"] == pytest.approx(91.0)

    def test_conservation_random_cases(self):
        rng = random.Random(99)
        for _ in range(30):
            products = [
                make_product(
                    f"p{k}",
                    rng.randint(1, 30_000_000),
                    created=rng.uniform(0, 500.0),
                    kind=BY_PRIORITY[rng.randint(0, 2)],
                )
                for k in range(rng.randint(1, 8))
            ]
            t, windows = 0.0, []
            for _ in range(rng.randint(0, 6)):
                t += rng.uniform(1.0, 300.0)
                end = t + rng.uniform(1.0, 60.0)
                windows.append(Window(t, end))
                t = end
            result = run(products, windows, rate=rng.uniform(0.1, 5.0))
            moved = {p.id: 0 for p in products}
            for r in result.records:
                moved[r.product_id] += r.bits_moved
            for p in products:
                assert 0 <= moved[p.id] <= p.volume_bits
                assert (p.id in result.completion_times) == (moved[p.id] == p.volume_bits)

    def test_transfers_stay_inside_windows(self):
        rng = random.Random(101)
        windows = [Window(0.0, 30.0), Window(100.0, 160.0), Window(400.0, 410.0)]
        products = [
            make_product(f"p{k}", rng.randint(10, 80_000_000), created=rng.uniform(0, 200))
            for k in range(6)
        ]
        result = run(products, windows, rate=2.0)
        for r in result.records:
            assert any(w.start - 1e-9 <= r.start and r.end <= w.end + 1e-9 for w in windows)
        # Per satellite, transfer intervals never overlap.
        recs = sorted(result.records, key=lambda r: r.start)
        for a, b in zip(recs, recs[1:]):
            assert a.end <= b.start + 1e-9

    def test_rate_increase_never_delays_completion(self):
        # Products staged before the first window: fixed service order, so
        # a faster link is monotonically better.
        rng = random.Random(103)
        for _ in range(20):
            spec = [
                (f"p{k}", rng.randint(1, 20_000_000), rng.randint(0, 2))
                for k in range(rng.randint(1, 6))
            ]
            windows = []
            t = 10.0
            for _ in range(4):
                end = t + rng.uniform(5.0, 50.0)
                windows.append(Window(t, end))
                t = end + rng.uniform(5.0, 100.0)
            slow = run([make_product(p, v, 0.0, BY_PRIORITY[pr]) for p, v, pr in spec], windows, rate=1.0)
            fast = run([make_product(p, v, 0.0, BY_PRIORITY[pr]) for p, v, pr in spec], windows, rate=2.0)
            for pid, t_fast in fast.completion_times.items():
                if pid in slow.completion_times:
                    assert t_fast <= slow.completion_times[pid] + 1e-9

    def test_multi_satellite_independence(self):
        pa = make_product("pa", 1_000_000)
        pb = make_product("pb", 1_000_000)
        result = simulate_transfers(
            {"sat-a": [pa], "sat-b": [pb]},
            link_schedule({("sat-a", "gs-a"): [Window(0.0, 10.0)], ("sat-b", "gs-a"): [Window(0.0, 10.0)]}),
            {"gs-a": 1.0},
        )
        assert result.completion_times["pa"] == pytest.approx(1.0)
        assert result.completion_times["pb"] == pytest.approx(1.0)


# Two satellites' queues: products with few distinct ids, volumes and creation
# times, so ties in (kind priority, creation time) are common and broken by id.
QUEUES = st.fixed_dictionaries({
    sat: st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 40_000_000), st.integers(0, 8).map(lambda t: 25.0 * t),
                  st.sampled_from(BY_PRIORITY)),
        max_size=12, unique_by=lambda spec: spec[0],
    ).map(lambda specs, sat=sat: [make_product(f"{sat}-p{k}", v, created, kind) for k, v, created, kind in specs])
    for sat in ("sat-a", "sat-b")
})


class TestPurity:
    @settings(max_examples=80, deadline=None)
    @given(queues=QUEUES, data=st.data())
    def test_queue_order_does_not_matter(self, queues, data):
        contacts = link_schedule({
            ("sat-a", "gs-a"): [Window(10.0, 40.0), Window(100.0, 130.0), Window(300.0, 330.0)],
            ("sat-b", "gs-a"): [Window(50.0, 70.0), Window(150.0, 260.0)],
        })
        shuffled = {sat: data.draw(st.permutations(queue), label=sat) for sat, queue in queues.items()}
        first = simulate_transfers(queues, contacts, {"gs-a": 1.0})
        second = simulate_transfers(shuffled, contacts, {"gs-a": 1.0})
        assert second == first
        assert list(second.completion_times.items()) == list(first.completion_times.items())

    def test_repeated_call_gives_equal_result(self):
        rng = random.Random(107)
        queues = {
            sat: [
                make_product(f"{sat}-p{k}", rng.randint(1, 30_000_000),
                             created=rng.uniform(0, 200.0), kind=BY_PRIORITY[rng.randint(0, 2)])
                for k in range(6)
            ]
            for sat in ("sat-a", "sat-b")
        }
        contacts = link_schedule({
            ("sat-a", "gs-a"): [Window(10.0, 40.0), Window(300.0, 330.0)],
            ("sat-b", "gs-a"): [Window(50.0, 70.0)],
        })
        first = simulate_transfers(queues, contacts, {"gs-a": 1.0})
        second = simulate_transfers(queues, contacts, {"gs-a": 1.0})
        assert first.records  # the case moves bits, so a leaked state would show
        assert second == first

    @pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
    def test_products_are_frozen(self, record_type):
        values = tuple(range(len(record_type._fields)))
        record = record_type._make(values)
        for name in record_type._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == values
