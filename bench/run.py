"""eochain benchmark: time CLI operations, check their outputs, trace layers.

Usage, from the root of a checkout that holds ``src/eochain``:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --self-check

Each operation is one ``eochain`` CLI command run by ``bench/op.py`` in a
fresh interpreter, one at a time (a closed loop with one client).  A run
repeats whole cycles of its workload's operation, one per operation seed,
for at most about ``--seconds``, and at least twice.  Every operation's artifacts
are hashed and checked against invariants; a non-zero exit, an exception
or a failed check counts as a failed operation.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics of ``BENCHMARK.json``, each the mean over operation seeds of that
seed's median.  Every time in it is normalised to the host's speed: an
operation's seconds are scaled by ``reference.NOMINAL_S`` over the time the
fixed kernel of ``reference.py`` took in the same process around the
command, which cancels most of the drift of a shared host.  The detail line
gives the raw times.  With ``--trace 1`` operations alternate between
untraced and traced, and the last line reports the per-layer metrics of the
traced ones plus the tracing overhead.  The line before it is a JSON
detail record: digests, model outputs, sample counts and the full span
summary.

``--self-check`` runs every workload at a six-hour horizon, untraced and
traced, and checks that every metric named in ``BENCHMARK.json`` is
produced.  Set-up, work files and outputs stay under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from reference import NOMINAL_S

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 60
REDUCED_HORIZON_S = 21600
STRESS_SCENARIO = WORK / "stress.yaml"
# Each operation is one process and one thread; a fixed hash seed removes one
# source of run-to-run variance that is unrelated to the program's work.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
MODEL_NOTE = "no reference data exists: model outputs are unvalidated and no accuracy figure is given"


class CheckError(Exception):
    """An operation's artifacts violate an invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _check_bits(summary: dict, where: str) -> None:
    _require(
        summary["delivered_bits_total"] <= summary["generated_bits_total"],
        f"{where}: delivered bits exceed generated bits",
    )


def _check_run(out: Path, seed: int) -> dict:
    summary = json.loads((out / "run_report.json").read_text())["summary"]
    with open(out / "transfers.csv", newline="") as f:
        bits = sum(int(row["bits"]) for row in csv.DictReader(f))
    _require(summary["transferred_bits_total"] == bits, "transferred_bits_total differs from transfers.csv")
    _check_bits(summary, "run")
    return {"ttfi_p50_s": summary["ttfi_p50_s"]}


def _check_compare(out: Path, seed: int) -> dict:
    report = json.loads((out / "compare_report.json").read_text())
    counts = {report[arm]["summary"]["event_count"] for arm in ("hybrid", "raw_only")}
    _require(counts == {report["summary"]["event_count"]}, "compare arms report different event counts")
    for arm in ("hybrid", "raw_only", "baseline"):
        if report.get(arm) is not None:
            _check_bits(report[arm]["summary"], arm)
    s = report["summary"]
    return {
        "ttfi_p50_s": s["ttfi_median_hybrid_s"],
        "transfer_ratio": s["transfer_ratio"],
        "hybrid_faster_fraction": s["hybrid_faster_fraction"],
    }


SWEEP_RUNS = 20


def _check_sweep(out: Path, seed: int) -> dict:
    stems = [f"run_report_seed{seed + k}" for k in range(SWEEP_RUNS)]
    expected = {f"{stem}.{ext}" for stem in stems for ext in ("json", "csv")}
    _require({p.name for p in out.iterdir()} == expected, "sweep did not write one report pair per seed")
    ttfi = []
    for stem in stems:
        summary = json.loads((out / f"{stem}.json").read_text())["summary"]
        _check_bits(summary, stem)
        if summary["ttfi_p50_s"] is not None:
            ttfi.append(summary["ttfi_p50_s"])
    return {"ttfi_p50_s": statistics.median(ttfi) if ttfi else None}


@dataclasses.dataclass(frozen=True)
class Workload:
    argv: Callable[[int, Path], list[str]]
    check: Callable[[Path, int], dict]
    engine_runs: int  # engine.run calls per operation
    # Operation seeds per untraced run.  Only the stress run's work depends
    # materially on the seed (its event draws), so it averages over four.
    seeds_per_run: int = 1


WORKLOADS = {
    "presets-compare": Workload(
        lambda seed, out: ["compare", "--preset", "iride-heo", "--baseline", "effis-like",
                           "--seed", str(seed), "--out", str(out)],
        _check_compare,
        engine_runs=3,
    ),
    "stress-run": Workload(
        lambda seed, out: ["run", "--scenario", str(STRESS_SCENARIO.relative_to(ROOT)),
                           "--seed", str(seed), "--out", str(out)],
        _check_run,
        engine_runs=1,
        seeds_per_run=4,
    ),
    "sweep-seeds": Workload(
        lambda seed, out: ["sweep", "--preset", "effis-like", "--seed", str(seed),
                           "--runs", str(SWEEP_RUNS), "--jobs", "1", "--out", str(out)],
        _check_sweep,
        engine_runs=SWEEP_RUNS,
    ),
}


def write_stress_scenario() -> None:
    """The stress configuration: iride-heo at 50 events/AOI/day over two days."""
    sys.path.insert(0, str(SRC))
    from eochain.presets import get_preset
    from eochain.scenario_io import save_scenario

    base = get_preset("iride-heo")
    scenario = dataclasses.replace(
        base,
        horizon_s=2 * 86400.0,
        event_model=dataclasses.replace(base.event_model, rate_per_aoi_per_day=50.0),
    )
    save_scenario(scenario, STRESS_SCENARIO)


def _digest(out: Path) -> tuple[str, int]:
    """sha256 over every artifact's relative path and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest(), total


def run_op(workload: Workload, seed: int, traced: bool, reduced: bool) -> dict:
    """Run one operation in a child interpreter, then check its artifacts."""
    out = WORK / "out"
    result_path = WORK / "op_result.json"
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    argv = workload.argv(seed, out.relative_to(ROOT))
    if reduced:
        argv += ["--duration", str(REDUCED_HORIZON_S)]
    cmd = [sys.executable, str(BENCH / "op.py"), str(result_path), str(SRC), "1" if traced else "0", "--", *argv]
    op = {"seed": seed, "traced": traced, "ok": False}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        op["error"] = f"operation exceeded {OP_TIMEOUT_S} s"
        return op
    if proc.returncode != 0 or not result_path.exists():
        op["error"] = f"op.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return op
    result = json.loads(result_path.read_text())
    op.update(result)
    op["setup_s"] = result["imported_at"] - started
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        op["error"] = f"imported eochain from {result['module']}, not from {SRC}"
    elif result["code"] != 0:
        op["error"] = f"eochain exited {result['code']}: {result['error'] or proc.stderr.strip()[-2000:]}"
    else:
        try:
            op["model"] = workload.check(out, seed)
            op["digest"], op["bytes"] = _digest(out)
            op["ok"] = True
        except (CheckError, OSError, KeyError, ValueError) as exc:
            op["error"] = f"output check failed: {exc!r}"
    return op


def measure(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> tuple[list[dict], list[int]]:
    """Repeat the workload's operation for ``seconds``; return the operations."""
    workload = WORKLOADS[name]
    k = workload.seeds_per_run
    seeds = [seed * k] if trace else [seed * k + i for i in range(k)]
    WORK.mkdir(exist_ok=True)
    if name == "stress-run":
        write_stress_scenario()
    # Warm-up: compile bytecode and fill the file cache before timing.
    subprocess.run([sys.executable, str(BENCH / "op.py"), str(WORK / "warmup.json"), str(SRC), "0", "--", "presets"],
                   cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S, check=True)
    # Whole cycles only, so every operation seed weighs the same in a median.
    if trace:
        cycle, min_cycles = [(seeds[0], False), (seeds[0], True)], 1
    else:
        cycle, min_cycles = [(s, False) for s in seeds], 2
    # Stop before a further cycle of average length would overrun ``seconds``.
    ops: list[dict] = []
    started = time.monotonic()
    cycles = 0
    while cycles < min_cycles or (time.monotonic() - started) * (cycles + 1) / cycles <= seconds:
        ops += [run_op(workload, s, traced, reduced) for s, traced in cycle]
        cycles += 1
    reference: dict[int, str] = {}
    for op in ops:
        if op["ok"] and reference.setdefault(op["seed"], op["digest"]) != op["digest"]:
            op["ok"] = False
            op["error"] = f"digest {op['digest']} differs from {reference[op['seed']]} for seed {op['seed']}"
    return ops, seeds


def _distribution(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    out = {"n": len(values), "median": statistics.median(values), "max": max(values)}
    if len(values) >= 20:
        q = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def _normalised(op: dict, key: str) -> float:
    """An operation's time in seconds on the reference host at its typical speed."""
    return op[key] * NOMINAL_S / op["kernel_s"]


def _seed_mean(ops: list[dict], value: Callable[[dict], float]) -> float:
    """Mean over operation seeds of each seed's median value.

    Every seed weighs the same, so a run's figure does not depend on which
    seeds' operations happen to sit at the middle of a pooled median; with
    one operation seed it is the plain median.
    """
    by_seed: dict[int, list[float]] = {}
    for op in ops:
        by_seed.setdefault(op["seed"], []).append(value(op))
    return statistics.mean(statistics.median(v) for v in by_seed.values())


def report(name: str, seed: int, trace: bool, ops: list[dict], seeds: list[int], spec: dict) -> dict:
    """Build the detail record and the result object for a finished run."""
    workload = WORKLOADS[name]
    good = [op for op in ops if op["ok"]]
    untraced = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    detail = {
        "workload": name,
        "seed": seed,
        "operation_seeds": seeds,
        "trace": trace,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "error_rate": (len(ops) - len(good)) / len(ops),
        "errors": sorted({op["error"] for op in ops if not op["ok"]}),
        "digests": {str(op["seed"]): op["digest"] for op in good},
        "model_outputs": {str(op["seed"]): op["model"] for op in good},
        "model_note": MODEL_NOTE,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": good[0]["numpy"] if good else None,
            "clock": "host time only",
        },
    }
    if not untraced or (trace and not traced):
        return {"detail": detail}
    wall = [_normalised(op, "wall_s") for op in untraced]
    detail["wall_s"] = _distribution(wall)
    detail["raw"] = {
        "wall_s": _distribution([op["wall_s"] for op in untraced]),
        "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
        "setup_s": statistics.median(op["setup_s"] for op in untraced),
        "kernel_s": statistics.median(op["kernel_s"] for op in good),
    }
    if trace:
        layers = {key: statistics.median(op["trace"][key] for op in traced) for key in traced[0]["trace"]}
        layers["cli.artifacts.bytes"] = statistics.median(op["bytes"] for op in traced)
        layers["trace.overhead_s"] = (statistics.median(_normalised(op, "wall_s") for op in traced)
                                      - statistics.median(wall))
        detail["layers"] = layers
        detail["trace_missing"] = traced[0]["trace_missing"]
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": _seed_mean(untraced, lambda op: _normalised(op, "wall_s")),
            "cpu_s": _seed_mean(untraced, lambda op: _normalised(op, "cpu_s")),
            "setup_s": _seed_mean(untraced, lambda op: _normalised(op, "setup_s")),
            "sim_runs_per_s": _seed_mean(untraced, lambda op: workload.engine_runs / _normalised(op, "wall_s")),
            "peak_rss_mb": _seed_mean(untraced, lambda op: op["peak_rss_mb"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": detail["failed"] == 0, "attempted": len(ops), "failed": detail["failed"], "metrics": metrics}
    return {"detail": detail, "result": result}


def self_check(spec: dict) -> int:
    """Run every workload at a reduced horizon, untraced and traced, seed 0."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            ops, seeds = measure(name, 0, 0.0, trace, reduced=True)
            out = report(name, 0, trace, ops, seeds, spec)
            result = out.get("result")
            label = f"{name} trace={int(trace)}"
            if result is None or not result["correct"]:
                problems.append(f"{label}: {out['detail']['errors']}")
                continue
            for m in result["metrics"].values():
                if not math.isfinite(m["value"]):
                    problems.append(f"{label}: non-finite metric")
            if trace and out["detail"]["layers"]["engine.run.calls"] != WORKLOADS[name].engine_runs:
                problems.append(f"{label}: engine.run.calls differs from the workload's engine_runs")
            print(f"{label}: ok, {result['attempted']} operations, digests {sorted(set(out['detail']['digests'].values()))}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/run.py")
    shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (SRC / "eochain" / "cli.py").is_file():
        print(f"error: no eochain sources at {SRC}; run from the root of an eochain checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_check:
        return self_check(spec)
    if args.workload is None:
        parser.error("--workload is required")
    ops, seeds = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)
    out = report(args.workload, args.seed, bool(args.trace), ops, seeds, spec)
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    if "result" not in out:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
