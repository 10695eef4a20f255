"""Which dleit functions the traced run wraps, and the per-layer metrics.

Every per-layer metric names the wrapped attribute it is built on; when a
later version of dleit drops or renames that attribute, the metric is
reported as absent.  A layer that a workload never calls reads 0.
"""

from __future__ import annotations

from spans import Patcher, Tracer, traced
from workloads import PULSE_NZ

TARGETS = ("pi", "half_pi")
SUBCOMMANDS = ("steady", "phase-diagram", "jump", "apm", "amplify-sweep")


def _arg(args, kwargs, position: int, keyword: str, default=None):
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position] if len(args) > position else default


def install(tracer: Tracer) -> Patcher:
    """Wrap the public functions of every dleit layer; returns the patcher."""
    import dleit
    import dleit.apm as apm
    import dleit.cli as cli
    import dleit.dynamics as dynamics
    import dleit.phase_jump as phase_jump
    import dleit.steady_state as steady_state

    patcher = Patcher([dleit, cli, apm, dynamics, steady_state, phase_jump])

    def grid_of(*args, **kwargs):
        return _arg(args, kwargs, 3, "grid") or dynamics.SimGrid()

    patcher.wrap(cli, "main", traced(
        tracer, "cli.main", label=lambda *a, **k: list(_arg(a, k, 0, "argv") or ["?"])[0]))
    patcher.wrap(dynamics, "simulate", traced(
        tracer, "dynamics.simulate",
        label=lambda *a, **k: f"nz{grid_of(*a, **k).n_z}",
        work=lambda *a, **k: grid_of(*a, **k).n_steps))
    patcher.wrap(dynamics, "step_fields", traced(
        tracer, "dynamics.step_fields", label=lambda coherences, *a, **k: f"nz{coherences.shape[1]}"))
    if hasattr(getattr(dynamics, "_propagators", None), "cache_info"):
        patcher.wrap(dynamics, "_propagators", _propagator_wrapper(tracer))
    else:
        patcher.absent.append("dleit.dynamics._propagators")
    for name in ("steady_cw_output", "optimize_amplification", "peak_transmission"):
        patcher.wrap(dynamics, name, traced(tracer, f"dynamics.{name}"))
    patcher.wrap(apm, "optimize_detuning", traced(
        tracer, "apm.optimize_detuning", label=lambda *a, **k: _arg(a, k, 1, "target_shift")))
    patcher.wrap(apm, "phi_r_for_pi_shift", traced(tracer, "apm.phase_solver.pi"))
    patcher.wrap(apm, "phi_r_for_half_pi_shift", traced(tracer, "apm.phase_solver.half_pi"))
    patcher.wrap(apm, "operating_point", traced(tracer, "apm.operating_point"))
    for name in ("balanced_components", "trace_curve"):
        patcher.wrap(steady_state, name, traced(tracer, f"steady_state.{name}"))
    for name in ("detect_zero_crossing", "solve_jump"):
        patcher.wrap(phase_jump, name, traced(tracer, f"phase_jump.{name}"))
    return patcher


def _propagator_wrapper(tracer: Tracer):
    """Span per propagator request, named by whether the cache built it."""

    def make(original):
        def wrapper(*args, **kwargs):
            misses = original.cache_info().misses
            index = tracer.open("dynamics.propagators.request")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)
                if original.cache_info().misses > misses:
                    tracer.rename(index, "dynamics.propagators.build")

        return wrapper

    return make


def metric_specs() -> list[tuple[str, str, str]]:
    """(metric name, unit, wrapped attribute it needs) of every per-layer metric."""
    specs = []
    for n_z in PULSE_NZ:
        specs += [
            (f"dynamics.simulate.us_per_step.nz{n_z}", "us", "dynamics.simulate"),
            (f"dynamics.simulate.ns_per_point_step.nz{n_z}", "ns", "dynamics.simulate"),
            (f"dynamics.step_fields.us_per_call.nz{n_z}", "us", "dynamics.step_fields"),
            (f"dynamics.simulate.self_us_per_step.nz{n_z}", "us", "dynamics.simulate"),
        ]
    specs += [
        ("dynamics.propagator_cache.hits", "count", "dynamics._propagators"),
        ("dynamics.propagator_cache.misses", "count", "dynamics._propagators"),
        ("dynamics.propagators.us_per_build", "us", "dynamics._propagators"),
        ("dynamics.steady_cw_output.us_per_call", "us", "dynamics.steady_cw_output"),
        ("dynamics.optimize_amplification.ms_per_call", "ms", "dynamics.optimize_amplification"),
        ("dynamics.peak_transmission.calls", "count", "dynamics.peak_transmission"),
        ("dynamics.simulate.instabilities", "count", "dynamics.simulate"),
    ]
    for target in TARGETS:
        solver = "apm.phi_r_for_pi_shift" if target == "pi" else "apm.phi_r_for_half_pi_shift"
        specs += [
            (f"apm.optimize_detuning.ms_per_call.{target}", "ms", "apm.optimize_detuning"),
            (f"apm.phase_solver.calls.{target}", "count", solver),
            (f"apm.phase_solver.us_per_call.{target}", "us", solver),
            (f"apm.phase_solver.feasible_frac.{target}", "fraction", solver),
        ]
    specs.append(("apm.operating_point.calls", "count", "apm.operating_point"))
    for module, name in (("steady_state", "balanced_components"), ("steady_state", "trace_curve"),
                         ("phase_jump", "detect_zero_crossing")):
        specs += [
            (f"{module}.{name}.calls", "count", f"{module}.{name}"),
            (f"{module}.{name}.us_per_call", "us", f"{module}.{name}"),
        ]
    specs.append(("phase_jump.solve_jump.us_per_call", "us", "phase_jump.solve_jump"))
    for sub in SUBCOMMANDS:
        specs += [
            (f"cli.main.ms.{sub}", "ms", "cli.main"),
            (f"cli.self_ms.{sub}", "ms", "cli.main"),
            (f"cli.output_bytes.{sub}", "bytes", "cli.main"),
        ]
    specs += [
        ("trace.overhead_s", "s", ""),
        ("trace.overhead_frac", "fraction", ""),
    ]
    return specs


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def compute(tracer: Tracer, cache: tuple[int, int] | None, output_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.* excluded)."""
    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}

    def get(name: str) -> dict:
        return summary.get(name, empty)

    values: dict[str, float] = {}
    instabilities = 0
    for n_z in PULSE_NZ:
        sim, fields = get(f"dynamics.simulate.nz{n_z}"), get(f"dynamics.step_fields.nz{n_z}")
        values[f"dynamics.simulate.us_per_step.nz{n_z}"] = _per(sim["total_s"], sim["work"], 1e6)
        values[f"dynamics.simulate.ns_per_point_step.nz{n_z}"] = _per(sim["total_s"], sim["work"] * n_z, 1e9)
        values[f"dynamics.step_fields.us_per_call.nz{n_z}"] = _per(fields["total_s"], fields["calls"], 1e6)
        values[f"dynamics.simulate.self_us_per_step.nz{n_z}"] = _per(sim["self_s"], sim["work"], 1e6)
        instabilities += tracer.errors[(f"dynamics.simulate.nz{n_z}", "NumericalInstability")]
    hits, misses = cache if cache is not None else (0, 0)
    values["dynamics.propagator_cache.hits"] = hits
    values["dynamics.propagator_cache.misses"] = misses
    build = get("dynamics.propagators.build")
    values["dynamics.propagators.us_per_build"] = _per(build["total_s"], build["calls"], 1e6)
    cw = get("dynamics.steady_cw_output")
    values["dynamics.steady_cw_output.us_per_call"] = _per(cw["total_s"], cw["calls"], 1e6)
    opt = get("dynamics.optimize_amplification")
    values["dynamics.optimize_amplification.ms_per_call"] = _per(opt["total_s"], opt["calls"], 1e3)
    values["dynamics.peak_transmission.calls"] = get("dynamics.peak_transmission")["calls"]
    values["dynamics.simulate.instabilities"] = instabilities
    for target in TARGETS:
        scan, solver = get(f"apm.optimize_detuning.{target}"), get(f"apm.phase_solver.{target}")
        infeasible = tracer.errors[(f"apm.phase_solver.{target}", "InfeasibleError")]
        values[f"apm.optimize_detuning.ms_per_call.{target}"] = _per(scan["total_s"], scan["calls"], 1e3)
        values[f"apm.phase_solver.calls.{target}"] = solver["calls"]
        values[f"apm.phase_solver.us_per_call.{target}"] = _per(solver["total_s"], solver["calls"], 1e6)
        values[f"apm.phase_solver.feasible_frac.{target}"] = _per(solver["calls"] - infeasible, solver["calls"], 1.0)
    values["apm.operating_point.calls"] = get("apm.operating_point")["calls"]
    for name in ("steady_state.balanced_components", "steady_state.trace_curve",
                 "phase_jump.detect_zero_crossing"):
        entry = get(name)
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.us_per_call"] = _per(entry["total_s"], entry["calls"], 1e6)
    solve = get("phase_jump.solve_jump")
    values["phase_jump.solve_jump.us_per_call"] = _per(solve["total_s"], solve["calls"], 1e6)
    for sub in SUBCOMMANDS:
        main = get(f"cli.main.{sub}")
        values[f"cli.main.ms.{sub}"] = main["total_s"] * 1e3
        values[f"cli.self_ms.{sub}"] = main["self_s"] * 1e3
        values[f"cli.output_bytes.{sub}"] = output_bytes.get(sub, 0)
    return values


#: Which end-to-end metric each layer should move, and on which workload.
PREDICTIONS = (
    ("dynamics.simulate.* / step_fields at n_z=50", "wall_s and task_p50_ms on cw_ensemble"),
    ("dynamics.simulate.* / step_fields at n_z=3200", "wall_s on pulse_propagation"),
    ("dynamics.propagator_cache.*, propagators.us_per_build",
     "task_p50_ms on cw_ensemble; no change on pulse_propagation"),
    ("dynamics.steady_cw_output.us_per_call", "negligible on cw_ensemble"),
    ("dynamics.optimize_amplification, peak_transmission.calls", "wall_s on design_sweep"),
    ("dynamics.simulate.instabilities", "failed_frac"),
    ("apm.*", "wall_s and task_tail_ms on design_sweep"),
    ("steady_state.*", "wall_s on design_sweep"),
    ("phase_jump.*", "wall_s on design_sweep (jump --verify)"),
    ("cli.*", "wall_s and task_p50_ms on design_sweep"),
)
