"""Seeded task lists of the three benchmark workloads.

Generation is pure Python (``random.Random``) and never imports dleit, so
the program only ever receives the generated inputs.  Every workload has a
fixed structure (the same number of tasks of the same kind and size for
every seed); the seed moves the physical parameters inside ranges where no
operation fails.  A fixed structure keeps the run cost nearly independent
of the seed, so timings of different seeds are comparable.

Why each workload exists:

* ``design_sweep`` -- the closed-form half of the study, run through
  ``dleit.cli.main`` the way ``scripts/make_figure_data.py`` does.  apm,
  steady_state, phase_jump, the amplification optimizer and cli do all of
  the work; the time-domain stepper does none.
* ``pulse_propagation`` -- a few long pulse-pair ``simulate`` runs at
  n_z in {50, 200, 800, 3200}.  The per-step loop dominates: small n_z is
  bound by Python overhead, large n_z by arithmetic and memory.  Some runs
  store maps, which exercises bookkeeping and memory.
* ``cw_ensemble`` -- many short CW ``simulate`` runs at one small n_z, each
  over a distinct parameter set and each building a fresh propagator.
  Per-call set-up and batching across parameter sets show here.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("design_sweep", "pulse_propagation", "cw_ensemble")

#: Seed used when none is given, and the seed held out for confirming a
#: claim made while tuning on other seeds.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

#: Weak-field amplitude of every dynamics run (the tests' value).
AMP = 1e-3

#: Grid sizes of the pulse workload; the smallest is also the CW grid.
PULSE_NZ = (50, 200, 800, 3200)
CW_NZ = 50

TWO_PI = 2.0 * math.pi


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One value drawn inside each of n equal strata of [lo, hi], in order."""
    width = (hi - lo) / n
    return [lo + width * (k + rng.uniform(0.1, 0.9)) for k in range(n)]


def _fmt(value: float) -> str:
    return repr(round(value, 6))


def _cli(argv: list[str]) -> dict:
    return {"kind": "cli", "argv": argv}


def design_sweep(rng: random.Random) -> list[dict]:
    tasks = []
    # Terminal transmissions and phases over a full loop-phase turn.
    for alpha in _strata(rng, 20.0, 100.0, 4):
        tasks.append(_cli([
            "steady", "--alpha", _fmt(alpha), "--delta", _fmt(rng.uniform(2.0, 30.0)),
            "--phi-r-sweep", "0:6.2832:0.02",
        ]))
    # Field trajectories at two loop phases each.
    for _ in range(2):
        tasks.append(_cli([
            "phase-diagram", "--alpha", _fmt(rng.uniform(60.0, 110.0)),
            "--delta", _fmt(rng.uniform(5.0, 30.0)),
            "--phi-r", _fmt(rng.uniform(0.0, TWO_PI)), _fmt(rng.uniform(0.0, TWO_PI)),
        ]))
    # Critical depths over the detuning range of the study, numerically
    # verified; the seed shifts the grid by a small offset.
    offset = rng.uniform(0.0, 0.05)
    for lo, hi in ((2.0, 18.0), (18.25, 34.0), (34.25, 50.0)):
        tasks.append(_cli([
            "jump", "--delta-sweep", f"{_fmt(lo + offset)}:{_fmt(hi)}:0.5", "--verify",
        ]))
    # Optimized phase-modulation points: 20 depths per target in 5 calls,
    # plus the alpha = 100 reference point of acceptance criteria 2 and 3.
    for target in ("pi", "half_pi"):
        depths = [_fmt(a) for a in _strata(rng, 10.0, 200.0, 20)]
        depths.insert(10, "100.0")
        for chunk in (depths[0:4], depths[4:8], depths[8:13], depths[13:17], depths[17:21]):
            tasks.append(_cli(["apm", "--alpha", *chunk, "--target", target]))
    # Amplification optima, including the criterion-4 depths 50 and 100.
    depths = [_fmt(a) for a in _strata(rng, 5.0, 200.0, 37)] + ["50.0", "100.0"]
    for k in range(3):
        tasks.append(_cli(["amplify-sweep", "--alpha", *depths[k::3]]))
    return tasks


def pulse_propagation(rng: random.Random) -> list[dict]:
    tasks = []
    for n_z in PULSE_NZ:
        common = {"kind": "pulse", "n_z": n_z, "dt": 0.1, "t_final": 300.0,
                  "t_on": 10.0, "t_off": 210.0}
        # Amplifying pair at the energy optimum of a seeded depth; the
        # depth keeps the zeta step at or below the 0.5 of the tests.
        alpha_hi = min(100.0, 0.4 * (n_z - 1))
        tasks.append({**common, "slot": "optimum", "shape": "smoothed_square",
                      "alpha": rng.uniform(0.95 * alpha_hi, alpha_hi),
                      "gamma21": 0.0, "store_maps": True})
        # The largest grid runs the dephased pairs twice, so that the
        # median and the tail of the task times fall inside a group of
        # similar runs instead of on the step between two grid sizes.
        for _ in range(2 if n_z == PULSE_NZ[-1] else 1):
            # Dephased square pair; the zeta step stays near that of the
            # dephased-route test so its 1e-4 tolerance applies.
            tasks.append({**common, "slot": "dephased", "shape": "square",
                          "alpha": rng.uniform(0.02, 0.025) * (n_z - 1),
                          "delta": rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 5.0),
                          "phi_r": rng.uniform(0.0, TWO_PI),
                          "gamma21": rng.uniform(0.01, 0.1), "store_maps": False})
            # Dephased gaussian pair, checked for passivity.
            tasks.append({**common, "slot": "gaussian", "shape": "gaussian",
                          "alpha": rng.uniform(5.0, 50.0),
                          "delta": rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 10.0),
                          "phi_r": rng.uniform(0.0, TWO_PI),
                          "gamma21": rng.uniform(0.01, 0.1), "store_maps": False})
    return tasks


def cw_ensemble(rng: random.Random) -> list[dict]:
    # A jittered factorial design: every seed samples each cell of
    # depth x detuning x loop phase x dephasing once, so the largest
    # discretization error (deepest medium, |delta| near 1.5, loop phase
    # near pi) is always sampled and max_rel_err is comparable across
    # seeds.  The error grows as alpha^2 and steeply as |delta| falls,
    # hence the narrow jitter on those two; smaller |delta| would bring
    # dephased outputs too close to the 1e-4 relative tolerance.
    tasks = []
    for alpha in (1.0, 1.75, 2.5):
        for delta in (-4.0, -1.5, 1.5, 4.0):
            for phi_r in (0.5 * math.pi, math.pi):
                for dephased in (False, True):
                    tasks.append({
                        "kind": "cw", "n_z": CW_NZ, "dt": 0.1, "t_final": 60.0,
                        "alpha": alpha + rng.uniform(0.0, 0.04),
                        "delta": delta + rng.uniform(-0.05, 0.05),
                        "phi_r": phi_r + rng.uniform(-0.25, 0.25),
                        "gamma21": rng.uniform(0.01, 0.1) if dephased else 0.0,
                    })
    rng.shuffle(tasks)
    return tasks


_GENERATORS = {
    "design_sweep": design_sweep,
    "pulse_propagation": pulse_propagation,
    "cw_ensemble": cw_ensemble,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The task list of `workload` for `seed`; equal seeds give equal lists."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
