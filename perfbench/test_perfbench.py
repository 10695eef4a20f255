"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Patcher, Tracer, traced  # noqa: E402


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7)
        assert first == workloads.generate(workload, 7)
        other = workloads.generate(workload, 8)
        assert other != first
        # The structure is fixed; only the parameters move with the seed.
        assert [t["kind"] for t in other] == [t["kind"] for t in first]


def test_generated_inputs_survive_json():
    for workload in workloads.WORKLOADS:
        tasks = workloads.generate(workload, workloads.HELD_OUT_SEED)
        assert json.loads(json.dumps(tasks)) == tasks


def _spans(tracer: Tracer, rows):
    """Append (name, parent, start, end) rows directly, bypassing the clock."""
    for name, parent, start, end in rows:
        tracer.name_id.append(tracer._intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.work.append(0.0)


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    _spans(tracer, [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 3.0),
        ("d", 1, 1.5, 2.5),   # grandchild: already inside b
        ("c", 0, 4.0, 8.0),
        ("e", -1, 20.0, 21.0),
    ])
    assert tracer.self_times() == [4.0, 1.0, 1.0, 4.0, 1.0]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0, "work": 0.0}


def test_self_time_of_recorded_calls():
    tracer = Tracer()
    outer = tracer.open("outer")
    for _ in range(3):
        tracer.close(tracer.open("inner"))
    tracer.close(outer)
    inner = sum(tracer.end[k] - tracer.start[k] for k in range(1, 4))
    assert tracer.self_times()[0] == (tracer.end[0] - tracer.start[0]) - inner
    assert list(tracer.parent) == [-1, 0, 0, 0]


def test_traced_wrapper_counts_exceptions_and_reraises():
    tracer = Tracer()

    def fails(x):
        raise KeyError(x)

    wrapped = traced(tracer, "layer.fn", label=lambda x: f"x{x}")(fails)
    try:
        wrapped(3)
    except KeyError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tracer.errors[("layer.fn.x3", "KeyError")] == 1
    assert tracer.name(0) == "layer.fn.x3" and tracer.end[0] >= tracer.start[0]


def test_wrappers_restore_original_attributes():
    import dleit
    import dleit.apm
    import dleit.cli
    import dleit.dynamics
    import dleit.phase_jump
    import dleit.steady_state

    modules = [dleit, dleit.cli, dleit.apm, dleit.dynamics, dleit.steady_state, dleit.phase_jump]
    before = [dict(vars(m)) for m in modules]
    patcher = layers.install(Tracer())
    assert dleit.simulate is not before[0]["simulate"]
    assert dleit.dynamics.simulate is dleit.simulate
    assert dleit.cli.optimize_detuning is dleit.apm.optimize_detuning
    assert patcher.absent == []
    patcher.restore()
    for module, saved in zip(modules, before):
        for key, value in saved.items():
            assert vars(module)[key] is value, f"{module.__name__}.{key} not restored"


def test_missing_target_is_reported_absent():
    module = types.ModuleType("fake")
    module.kept = lambda: 1
    patcher = Patcher([module])
    assert patcher.wrap(module, "gone", traced(Tracer(), "fake.gone")) is None
    assert patcher.absent == ["fake.gone"]
    original = module.kept
    patcher.wrap(module, "kept", traced(Tracer(), "fake.kept"))
    assert module.kept is not original and module.kept() == 1
    patcher.restore()
    assert module.kept is original


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.metric_specs()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_rank_leaves_ten_tasks_beyond():
    assert run.tail_rank(66) == 55
    assert run.tail_rank(20) is None
