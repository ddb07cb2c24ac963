"""Command-line entry point: run, compare, sweep, validate, list presets.

All randomness flows from the scenario's seed (0 for a preset, never
wall-clock), which --seed overrides, so any invocation is reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import engine, events, metrics
from .ground import write_marketplace_dump
from .model import Scenario, ValidationError, validate_scenario
from .presets import BUILTIN_PRESETS, get_preset
from .scenario_io import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

MAX_SEED = 2**64 - 1


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eochain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", type=Path, help="scenario YAML file")
        p.add_argument("--preset", choices=sorted(BUILTIN_PRESETS), help="built-in scenario")
        p.add_argument("--seed", type=int, help="master seed (default: the scenario's own, 0 for a preset)")
        p.add_argument("--duration", type=float, help="override horizon, seconds")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
        p.add_argument("--events", type=Path,
                       help="fixed event trace (CSV): the run's whole ground truth, in place of the scenario's")

    p_run = sub.add_parser("run", help="run a single scenario")
    add_common(p_run)

    p_cmp = sub.add_parser("compare", help="A/B comparison of hybrid vs remote-only")
    add_common(p_cmp)
    p_cmp.add_argument("--baseline", choices=sorted(BUILTIN_PRESETS),
                       help="also run this preset over the scenario's horizon and seed, on the scenario's "
                            "fixed events if it lists any (from --events or its file); without them it sees "
                            "the same events only when the scenario shares the preset's AOIs and event model")

    p_sweep = sub.add_parser("sweep", help="run a range of seeds")
    add_common(p_sweep)
    p_sweep.add_argument("--runs", type=int, default=10, help="number of consecutive seeds")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_val = sub.add_parser("validate", help="check a scenario and exit")
    p_val.add_argument("--scenario", type=Path, help="scenario YAML file")
    p_val.add_argument("--preset", choices=sorted(BUILTIN_PRESETS))

    sub.add_parser("presets", help="list built-in presets")
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    if getattr(args, "scenario", None) and getattr(args, "preset", None):
        raise ValidationError("give either --scenario or --preset, not both")
    if getattr(args, "scenario", None):
        scenario = load_scenario(args.scenario)
    elif getattr(args, "preset", None):
        scenario = get_preset(args.preset)
    else:
        raise ValidationError("one of --scenario or --preset is required")
    seed = getattr(args, "seed", None)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    duration = getattr(args, "duration", None)
    if duration is not None:
        scenario = dataclasses.replace(scenario, horizon_s=float(duration))
    events_path = getattr(args, "events", None)
    if events_path:
        scenario = dataclasses.replace(scenario, events=tuple(events.read_event_trace(events_path)))
    return scenario


def _write_plan_dump(trace: engine.SimulationTrace, path: Path) -> None:
    doc = {
        "assignments": metrics.Table({
            "request_id": [a.request_id for a in trace.plan.assignments],
            "satellite_id": [a.satellite_id for a in trace.plan.assignments],
            "window_start_s": [round(a.window.start, 3) for a in trace.plan.assignments],
            "window_end_s": [round(a.window.end, 3) for a in trace.plan.assignments],
            "uplink_time_s": [round(a.uplink_time, 3) for a in trace.plan.assignments],
        }),
        "unmet_request_ids": list(trace.plan.unmet_request_ids),
    }
    with open(path, "w") as f:
        f.writelines(metrics._json_pieces(doc))
        f.write("\n")


def _write_transfer_log(trace: engine.SimulationTrace, path: Path) -> None:
    """One row per transfer record, written one block of records at a time;
    the numbers of a row need no quotes and are formatted as one piece."""
    with open(path, "w", newline="") as f:
        f.write("product_id,station_id,start_s,end_s,bits\r\n")
        for block in metrics._blocks(trace.transfer_records):
            f.write(metrics._csv_text([
                metrics._csv_quoted([r.product_id for r in block]),
                metrics._csv_quoted([r.station_id for r in block]),
                ["%.3f,%.3f,%s" % (r.start, r.end, r.bits_moved) for r in block],
            ]))


def _shown(value, unit: str = "") -> str:
    """A summary value as a printed line shows it: with its unit, or ``none`` if missing."""
    return "none" if value is None else f"{value}{unit}"


def _emit(report, out: Path, stem: str, fmt: str) -> list[Path]:
    written = []
    if fmt in ("json", "both"):
        written.append(metrics.write_json_report(report, out / f"{stem}.json"))
    if fmt in ("csv", "both"):
        written.append(metrics.write_csv_report(report, out / f"{stem}.csv"))
    return written


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args)
    trace = engine.run(scenario)
    report = metrics.build_service_report(trace)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    written = _emit(report, out, "run_report", args.format)
    events.write_event_trace(out / "events.csv", trace.fire_events)
    _write_plan_dump(trace, out / "plan.json")
    _write_transfer_log(trace, out / "transfers.csv")
    write_marketplace_dump(out / "marketplace.jsonl", trace.marketplace)
    for p in written:
        print(p)
    s = report.summary
    print(
        f"{scenario.name} seed={scenario.seed}: {s['event_count']} events, "
        f"{s['delivered_product_count']} deliveries, "
        f"ttfi p50={_shown(s['ttfi_p50_s'], 's')} never={s['ttfi_never_count']}"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load(args)
    baseline = (dataclasses.replace(get_preset(args.baseline), seed=scenario.seed, horizon_s=scenario.horizon_s,
                                    events=scenario.events)
                if args.baseline else None)
    report = metrics.compare_architectures(scenario, baseline)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    written = _emit(report, out, "compare_report", args.format)
    for p in written:
        print(p)
    s = report.summary
    print(
        f"{scenario.name} seed={scenario.seed}: hybrid p50={_shown(s['ttfi_median_hybrid_s'], 's')} "
        f"raw p50={_shown(s['ttfi_median_raw_s'], 's')} "
        f"volume ratio={_shown(s['transfer_ratio'])}"
    )
    return EXIT_OK


def _sweep_block(payload: tuple) -> list[str]:
    scenarios, out, fmt = payload
    memo: dict = {}
    lines = []
    for scenario in scenarios:
        trace = engine.run(scenario, memo=memo)
        report = metrics.build_service_report(trace)
        _emit(report, out, f"run_report_seed{scenario.seed}", fmt)
        lines.append(f"seed {scenario.seed}: ttfi p50={_shown(report.summary['ttfi_p50_s'])}")
    return lines


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args)
    engine.require_valid(scenario)
    if args.runs < 1:
        raise ValidationError("--runs must be at least 1")
    if args.jobs < 1:
        raise ValidationError("--jobs must be at least 1")
    if scenario.seed + args.runs - 1 > MAX_SEED:
        raise ValidationError("the last seed of the sweep must fit in an unsigned 64-bit integer")
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    scenarios = [dataclasses.replace(scenario, seed=scenario.seed + k) for k in range(args.runs)]
    # One contiguous block of seeds per worker, whose runs share one memo: each computes the geometry once.
    jobs = min(args.jobs, args.runs)
    payloads = [(scenarios[k * args.runs // jobs : (k + 1) * args.runs // jobs], out, args.format)
                for k in range(jobs)]
    if jobs > 1:
        # Imported here: the pool module costs every command over 10 ms of start-up.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for lines in pool.map(_sweep_block, payloads):
                print(*lines, sep="\n")
    else:
        print(*_sweep_block(payloads[0]), sep="\n")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    violations = validate_scenario(scenario)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{scenario.name}: valid")
    return EXIT_OK


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in sorted(BUILTIN_PRESETS):
        s = get_preset(name)
        arch = s.archetype
        print(
            f"{name}: {arch.processing_location.value} processing, "
            f"gsd {min(sat.gsd_m for sat in s.satellites):g} m, mmu {arch.mmu_ha:g} ha, "
            f"{arch.acquisition_mode.value}/{arch.triggering.value}, "
            f"{len(s.satellites)} satellite(s), {len(s.stations)} station(s)"
        )
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "presets": _cmd_presets,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
