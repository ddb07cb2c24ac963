"""Hybrid onboard processing vs remote-only downlink-first, back to back.

Both arms see the same fires, clouds and acquisition opportunities (common
random numbers), so every per-event latency delta is attributable to the
architecture alone.  A medium-resolution periodic baseline runs alongside
for class-level context.
"""

import dataclasses

from eochain.metrics import compare_architectures
from eochain.presets import effis_like, iride_heo

report = compare_architectures(dataclasses.replace(iride_heo(), seed=11),
                               baseline_scenario=dataclasses.replace(effis_like(), seed=11))

s = report.summary
print(f"Paired comparison on '{report.scenario_name}', seed {report.seed}, "
      f"{s['event_count']} events, {s['acquisition_count']} identical acquisitions\n")

print(f"{'event':>18} {'hybrid [h]':>11} {'remote-only [h]':>16} {'delta [h]':>10}")
for e in report.per_event:
    th = "-" if e["ttfi_hybrid_s"] is None else f"{e['ttfi_hybrid_s'] / 3600:.2f}"
    tr = "-" if e["ttfi_raw_s"] is None else f"{e['ttfi_raw_s'] / 3600:.2f}"
    d = "-" if e["delta_s"] is None else f"{e['delta_s'] / 3600:+.2f}"
    print(f"{e['id']:>18} {th:>11} {tr:>16} {d:>10}")

print(f"\nmedian time to first info:")
print(f"  hybrid onboard     {s['ttfi_median_hybrid_s']} s")
print(f"  remote-only        {s['ttfi_median_raw_s']} s")
print(f"  periodic baseline  {s['ttfi_median_baseline_s']} s")
print(f"\nhybrid faster for {s['hybrid_faster_count']}/{s['comparable_count']} events")
print(f"downlinked bits: hybrid {s['transferred_bits_hybrid']:,} "
      f"vs remote-only {s['transferred_bits_raw']:,} "
      f"(ratio {s['transfer_ratio']})")
