"""dleit benchmark: one workload, one seed, end-to-end or traced metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 40 --trace 0

Each pass runs the workload's whole seeded task list in a fresh
interpreter (``perfbench/worker.py``), one process at a time, so nothing
cached in one pass helps the next.  Passes repeat until the next one would
end after ``--seconds``; at least three run (four when traced).  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported instead, with the tracing overhead.  Lines before it
are a readable report.  The full record (environment, every pass, every
task) goes to ``.perfbench_out/``, with the spans of every traced pass.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads
from worker import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Passes measured at the least, whatever --seconds says.
MIN_PASSES = 3
#: Budget of a whole run, kept under the three minutes a run may take.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("max_rel_err", "1"),
)
#: Tasks that must lie beyond the tail percentile.
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a task failure)."""


def git_sha(root: Path) -> str:
    """Commit of the checkout read from .git, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(spec: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker, feed it `spec`, wait for it; (start time, its result)."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchmarkError("time budget exhausted")
    start = monotonic()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        try:
            stdout, _ = child.communicate(json.dumps(spec).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from None
    if child.returncode != 0:
        raise BenchmarkError(f"worker exited with code {child.returncode}")
    return start, json.loads(stdout.decode().strip().splitlines()[-1])


def tail_rank(count: int) -> int | None:
    """Index (ascending) of the highest percentile with TAIL_BEYOND tasks beyond it."""
    index = count - 1 - TAIL_BEYOND
    return index if index >= count // 2 else None


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, plus report-only details.

    The tail percentile is fixed by the task count of MIN_PASSES passes and
    then read from the tasks of every pass, so it keeps at least
    TAIL_BEYOND tasks beyond it whatever the number of passes.
    """
    pooled = sorted(r["seconds"] for p in passes for r in p["tasks"])
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_ms": statistics.median(pooled) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "max_rel_err": max(r["error"] for p in passes for r in p["tasks"]),
    }
    base = MIN_PASSES * len(passes[0]["tasks"])
    rank = tail_rank(base)
    details = {"tasks_pooled": len(pooled), "passes": len(passes)}
    if rank is None:
        # Too few tasks for a tail: the median stands in for it.
        metrics["task_tail_ms"] = metrics["task_p50_ms"]
        details["tail_percentile"] = 50.0
    else:
        share = (rank + 1) / base
        metrics["task_tail_ms"] = pooled[max(0, math.ceil(share * len(pooled)) - 1)] * 1e3
        details["tail_percentile"] = 100.0 * share
    return metrics, details


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over the traced passes."""
    absent = sorted({name for p in traced for name in p["absent"]})
    metrics = {}
    for name, _, target in layers.metric_specs():
        if target and f"dleit.{target}" in absent:
            continue
        if name.startswith("trace."):
            continue
        metrics[name] = statistics.median(p["layers"][name] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics, absent


def observations(workload: str, task_list: list[dict], record: dict) -> list[str]:
    """The two observations the benchmark was asked to confirm or correct."""
    metrics, lines = record["per_layer"], []
    untraced = [p for p in record["passes"] if "layers" not in p]
    if workload == "pulse_propagation":
        step = metrics.get("dynamics.simulate.us_per_step.nz200")
        fields = metrics.get("dynamics.step_fields.us_per_call.nz200")
        steps = {k: task["t_final"] / task["dt"] for k, task in enumerate(task_list) if task["n_z"] == 200}
        plain = statistics.median(p["tasks"][k]["seconds"] / n for p in untraced for k, n in steps.items())
        if step and fields:
            lines.append(f"step_fields takes {fields:.1f} us of the {step:.1f} us simulate step "
                         f"at n_z=200 ({fields / step:.0%}, traced; the untraced step takes "
                         f"{plain * 1e6:.1f} us); expected ~60 of ~100 us")
    if workload == "design_sweep":
        half_pi = [k for k, task in enumerate(task_list) if "half_pi" in task["argv"]]
        share = statistics.median(sum(p["tasks"][k]["seconds"] for k in half_pi) / p["wall_s"]
                                  for p in untraced)
        lines.append(f"apm --target half_pi takes {share:.0%} of wall_s "
                     f"({record['end_to_end']['wall_s']:.3f} s, untraced); expected most of it")
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = monotonic()
    deadline = started + RUN_BUDGET_S
    task_list = workloads.generate(workload, seed)
    _, probe = run_child({"mode": "probe", "root": str(ROOT)}, deadline)
    run_dir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in run_dir.glob("*.spans.csv.gz"):
        stale.unlink()

    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    minimum = 4 if trace else MIN_PASSES
    while True:
        with_trace = trace and len(untraced) > len(traced)
        spec = {"mode": "pass", "root": str(ROOT), "workload": workload, "tasks": task_list,
                "trace": with_trace,
                "spans_path": str(run_dir / f"pass{len(untraced) + len(traced)}.spans.csv.gz")}
        begin, result = run_child(spec, deadline)
        result["setup_s"] = result.pop("setup_mark") - begin
        durations.append(monotonic() - begin)
        (traced if with_trace else untraced).append(result)
        count = len(untraced) + len(traced)
        elapsed = monotonic() - started
        if count >= minimum and count % (2 if trace else 1) == 0:
            upcoming = statistics.median(durations) * (2 if trace else 1)
            if elapsed + upcoming > seconds or elapsed + 2 * upcoming > RUN_BUDGET_S:
                break

    e2e, details = end_to_end(untraced)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"git_sha": git_sha(ROOT), "seed": seed, **probe["env"]},
        "end_to_end": e2e, "details": details,
        "passes": untraced + traced,
    }
    if trace:
        record["per_layer"], record["absent"] = per_layer(traced, untraced)
        record["observations"] = observations(workload, task_list, record)
    record["run_dir"] = str(run_dir.relative_to(ROOT))
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict, attempted: int, failed: int) -> tuple[list[str], dict]:
    """Readable lines, and the metrics of the final JSON line."""
    e2e, details = record["end_to_end"], record["details"]
    lines = [f"# env {json.dumps(record['env'], sort_keys=True)}",
             f"# {record['workload']} seed={record['seed']}: {details['passes']} untraced passes"]
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        note = ""
        if name == "task_tail_ms":
            note = f"  (p{details['tail_percentile']:.1f} of {details['tasks_pooled']} tasks)"
        if name == "task_p50_ms":
            note = f"  ({details['tasks_pooled']} tasks)"
        lines.append(f"{name:>14} = {e2e[name]:.6g} {unit}{note}")
    lines.append(f"{'failed_frac':>14} = {failed / attempted:.6g} 1  ({failed} of {attempted} tasks)")
    if not record["trace"]:
        return lines, {name: {"value": e2e[name], "unit": units[name]} for name, _ in END_TO_END}
    spec_units = {name: unit for name, unit, _ in layers.metric_specs()}
    metrics = {name: {"value": value, "unit": spec_units[name]}
               for name, value in record["per_layer"].items()}
    lines.append(f"# traced passes: {len(record['passes']) - details['passes']}; "
                 f"spans in {record['run_dir']}")
    lines += [f"{name} = {value:.6g} {spec_units[name]}" for name, value in record["per_layer"].items()]
    lines += [f"# absent (target attribute gone): {name}" for name in record["absent"]]
    lines += [f"# prediction: {layer} -> {moves}" for layer, moves in layers.PREDICTIONS]
    lines += [f"# observation: {line}" for line in record["observations"]]
    return lines, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dleit" / "__init__.py").is_file():
        print(f"error: no dleit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    all_tasks = [r for p in record["passes"] for r in p["tasks"]]
    failures = [r["failure"] for r in all_tasks if r["failure"] is not None]
    lines, metrics = report(record, len(all_tasks), len(failures))
    print("\n".join(lines))
    for failure in sorted(set(failures))[:10]:
        print(f"# failure: {failure}")
    print(json.dumps({"correct": not failures, "attempted": len(all_tasks),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
