"""One measured pass of a workload, in a fresh interpreter.

Reads a JSON spec on stdin, imports dleit from the checkout's ``src``,
warms up every layer the workload uses, runs the task list once, checks
every output, and prints one JSON line with the timings.  The setup mark
is a CLOCK_MONOTONIC reading, which the parent subtracts from its own
reading taken just before it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line.rsplit("/", 1)[-1]})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def import_dleit(root: Path):
    sys.path.insert(0, str(root / "src"))
    import dleit

    source = Path(dleit.__file__).resolve()
    if (root / "src").resolve() not in source.parents:
        raise ImportError(f"dleit was imported from {source}, not from the checkout")
    return dleit


def run_pass(spec: dict) -> dict:
    root = Path(spec["root"])
    import_dleit(root)
    import layers
    import tasks as oracle
    from spans import Tracer

    workload, task_list = spec["workload"], spec["tasks"]
    oracle.warm_up(workload)
    setup_mark = monotonic()

    import dleit.dynamics

    # Cache counts come from the propagator cache itself, when it exists.
    propagators = getattr(dleit.dynamics, "_propagators", None)
    counting = spec["trace"] and hasattr(propagators, "cache_info")
    cache_before = propagators.cache_info() if counting else None
    tracer = patcher = None
    if spec["trace"]:
        tracer = Tracer()
        patcher = layers.install(tracer)

    records = []
    outputs = {}
    origin = time.perf_counter()
    for index, task in enumerate(task_list):
        start = time.perf_counter()
        record = {"error": 0.0, "failure": None}
        try:
            if task["kind"] == "cli":
                outputs[index] = oracle.run_cli(task["argv"])
            elif task["kind"] == "cw":
                record["error"] = oracle.run_cw(task)
            else:
                record["error"] = oracle.run_pulse(task)
        except Exception as exc:
            record["failure"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        records.append(record)
    wall = time.perf_counter() - origin

    if patcher is not None:
        patcher.restore()
    # cli outputs are checked after the timed loop: the task is the call.
    output_bytes: dict[str, int] = {}
    for index, (code, text) in outputs.items():
        argv = task_list[index]["argv"]
        output_bytes[argv[0]] = output_bytes.get(argv[0], 0) + len(text.encode())
        try:
            records[index]["error"] = oracle.check_cli(argv, code, text)
        except Exception as exc:
            records[index]["failure"] = f"{type(exc).__name__}: {exc}"

    result = {
        "setup_mark": setup_mark,
        "wall_s": wall,
        "tasks": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        cache = None
        if counting:
            after = propagators.cache_info()
            cache = (after.hits - cache_before.hits, after.misses - cache_before.misses)
        result["layers"] = layers.compute(tracer, cache, output_bytes)
        result["absent"] = patcher.absent
        result["spans"] = len(tracer)
        tracer.write(spec["spans_path"], origin)
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    try:
        if spec["mode"] == "probe":
            import_dleit(Path(spec["root"]))
            result = {"env": environment()}
        else:
            result = run_pass(spec)
    except Exception:
        traceback.print_exc()
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
