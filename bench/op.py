"""Run one eochain CLI command in this fresh interpreter and record its cost.

Usage: python3 bench/op.py <result.json> <src dir> <trace 0|1> -- <eochain args...>

Writes a JSON object to <result.json>: the exit code, the monotonic time at
which ``eochain.cli`` finished importing (the caller subtracts its own start
time to get set-up time), wall and CPU seconds spent inside
``eochain.cli.main``, peak resident memory, the mean time of the
reference kernel run just before and just after the command (see
``reference.py``) and, when tracing, the span summary of ``tracer.Tracer``.
"""

import json
import resource
import sys
import time
import traceback


def main() -> None:
    result_path, src, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: op.py <result.json> <src dir> <trace 0|1> -- <eochain args...>")
    sys.path.insert(0, src)
    import eochain.cli

    imported_at = time.monotonic()
    from reference import kernel_s

    kernel_before_s = kernel_s()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    error = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        code = eochain.cli.main(argv)
    except SystemExit as exc:
        code, error = exc.code, traceback.format_exc()
    except Exception:
        code, error = -1, traceback.format_exc()
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    kernel_after_s = kernel_s()

    result = {
        "module": eochain.cli.__file__,
        "numpy": sys.modules["numpy"].__version__,
        "code": code,
        "error": error,
        "imported_at": imported_at,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "kernel_s": (kernel_before_s + kernel_after_s) / 2,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace_missing"] = tracer.missing
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
