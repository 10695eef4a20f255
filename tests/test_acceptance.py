"""Release checklist: one test per headline result, at fixed tolerances.

Every test prints (and queues for the terminal summary) a single
`[criterion N] PASS/FAIL` line with the measured values before asserting,
so a red run still reports the status of every criterion.
"""

import numpy as np

from conftest import record_checklist, unwrapped_phase
from dleit.apm import optimize_detuning
from dleit.core import FieldPair, MediumParams, wrap_phase
from dleit.dynamics import (
    PulseShape,
    SimGrid,
    _working_point,
    optimize_amplification,
    simulate,
)
from dleit.phase_jump import detect_zero_crossing, solve_jump
from dleit.steady_state import (
    propagate_balanced,
    propagate_general,
    trace_curve,
    transmission_and_phase,
)

AMP = 1e-3


def report(n: int, ok: bool, detail: str) -> bool:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    record_checklist(line)
    return ok


def test_criterion_1_phase_jump_analytics():
    sol = solve_jump(16.5, 1)
    depth, probe, signal = sol.critical_depth, sol.probe_jump_phase, sol.signal_jump_phase
    ok = (
        abs(depth - 52.0) <= 0.1
        and abs(probe - 4.62) <= 0.01
        and abs(signal - 1.66) <= 0.01
    )
    assert report(
        1,
        ok,
        f"critical_depth={depth:.4f} (52.0±0.1), probe_jump={probe:.4f} "
        f"(4.62±0.01), signal_jump={signal:.4f} (1.66±0.01)",
    )


def test_criterion_2_pi_modulation_point():
    op = optimize_detuning(100.0, "pi")
    ok = (
        abs(op.delta - 16.5) <= 0.5
        and abs(op.transmission_with_signal - 0.68) <= 0.01
        and abs(op.transmission_without_signal - 0.01) <= 0.002
        and abs(op.apm_contrast - 2.62) <= 0.02
    )
    assert report(
        2,
        ok,
        f"delta_opt={op.delta:.4f} (16.5±0.5), T_with="
        f"{op.transmission_with_signal:.4f} (0.68±0.01), T_without="
        f"{op.transmission_without_signal:.4f} (0.01±0.002), contrast="
        f"{op.apm_contrast:.4f} (2.62±0.02)",
    )


def test_criterion_3_half_pi_modulation_point():
    op = optimize_detuning(100.0, "half_pi")
    ok = (
        abs(op.transmission_with_signal - 1.40) <= 0.02
        and abs(op.transmission_without_signal - 0.19) <= 0.01
        and abs(op.apm_contrast - 0.57) <= 0.02
    )
    assert report(
        3,
        ok,
        f"T_with={op.transmission_with_signal:.4f} (1.40±0.02), T_without="
        f"{op.transmission_without_signal:.4f} (0.19±0.01), contrast="
        f"{op.apm_contrast:.4f} (0.57±0.02)",
    )


def test_criterion_4_amplification_optimum():
    hundred = optimize_amplification(100.0)
    fifty = optimize_amplification(50.0)
    # The probe carries exp(-i*phi_r): its optimum is the signal's, negated.
    probe_phi = wrap_phase(-_working_point(100.0, 34.2).phi_r_opt)
    ok = (
        abs(hundred.delta_opt - 34.2) <= 1.0
        and abs(hundred.phi_r_opt - 4.76) <= 0.02
        and abs(hundred.signal_transmission - 1.91) <= 0.01
        and abs(fifty.signal_transmission - 1.84) <= 0.01
        and abs(probe_phi - 1.53) <= 0.02
    )
    assert report(
        4,
        ok,
        f"delta_opt={hundred.delta_opt:.3f} (34.2±1), phi_r_opt="
        f"{hundred.phi_r_opt:.4f} (4.76±0.02), T_s={hundred.signal_transmission:.4f} "
        f"(1.91±0.01), T_s(50)={fifty.signal_transmission:.4f} (1.84±0.01), "
        f"probe_phi={probe_phi:.4f} (1.53±0.02)",
    )


def test_criterion_5_dynamics_matches_analytics():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(1.0, 100.0)
        delta = rng.uniform(0.0, 40.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        params = MediumParams(alpha=alpha, delta=delta, omega_d=np.exp(1j * phi))
        reference = propagate_general(params, FieldPair(AMP, AMP), alpha)
        pulse = PulseShape.cw(AMP)
        result = simulate(
            params,
            pulse,
            pulse,
            SimGrid(n_z=200, dt=0.02, t_final=300.0 + 2.0 * alpha),
        )
        worst = max(
            worst,
            abs(result.output_probe[-1] - reference.omega_p) / abs(reference.omega_p),
            abs(result.output_signal[-1] - reference.omega_s)
            / abs(reference.omega_s),
        )
    ok = worst <= 1e-3
    assert report(
        5, ok, f"worst CW relative error over 20 random sets = {worst:.2e} (<=1e-3)"
    )


def test_criterion_6_trivial_limits():
    failures = []

    # Zero loop phase: both fields pass unchanged for any depth and detuning.
    for alpha in (0.5, 1.0, 4.0, 10.0, 40.0, 100.0):
        for delta in (0.0, 1.0, 16.5, -7.0, 40.0):
            params = MediumParams(alpha=alpha, delta=delta)
            probe, signal = propagate_balanced(0.0, params, alpha)
            if abs(probe - 1.0) > 1e-12 or abs(signal - 1.0) > 1e-12:
                failures.append(f"phi_r=0 at ({alpha}, {delta})")

    # Half-turn loop phase on resonance: plain Beer absorption, zero phase.
    for alpha in (1.0, 4.0, 10.0):
        probe, _ = propagate_balanced(np.pi, MediumParams(alpha=alpha), alpha)
        t, phase = transmission_and_phase(probe)
        if abs(t - np.exp(-alpha)) > 1e-12 or abs(phase) > 1e-12:
            failures.append(f"phi_r=pi at alpha={alpha}")
    probe, _ = propagate_balanced(np.pi, MediumParams(alpha=100.0), 100.0)
    if (
        abs(abs(probe) ** 2 - np.exp(-100.0)) > 1e-12
        or probe.real < 0.0
        or abs(probe.imag) > 1e-12
    ):
        failures.append("phi_r=pi at alpha=100")

    # Zero thickness is the identity.
    params = MediumParams(alpha=30.0, delta=5.0, omega_d=np.exp(1.1j))
    inputs = FieldPair(2e-3, -1e-3 + 0.5e-3j)
    out = propagate_general(params, inputs, 0.0)
    if abs(out.omega_p - inputs.omega_p) > 1e-12 or abs(
        out.omega_s - inputs.omega_s
    ) > 1e-12:
        failures.append("zeta=0 identity")

    # No input, no output, in both solvers.
    out = propagate_general(params, FieldPair(0.0, 0.0), 30.0)
    if out.omega_p != 0.0 or out.omega_s != 0.0:
        failures.append("zero input (closed form)")
    zero = PulseShape.square(0.0, 0.0, 2.0)
    res = simulate(
        MediumParams(alpha=5.0), zero, zero, SimGrid(n_z=16, dt=0.05, t_final=5.0)
    )
    if np.any(res.output_probe != 0.0) or np.any(res.output_signal != 0.0):
        failures.append("zero input (dynamics)")

    ok = not failures
    assert report(
        6, ok, "all trivial limits exact to 1e-12" if ok else f"failed: {failures}"
    )


def test_criterion_7_property_suite():
    failures = []

    # Passivity of the weak-field pair for arbitrary drive configurations.
    rng = np.random.default_rng(7)
    worst_total = -np.inf
    for _ in range(10_000):
        alpha = rng.uniform(0.0, 100.0)
        delta = rng.uniform(-40.0, 40.0)
        mag_c, mag_d = rng.uniform(0.2, 3.0, size=2)
        ph = rng.uniform(0.0, 2.0 * np.pi, size=4)
        params = MediumParams(
            alpha=alpha,
            delta=delta,
            omega_c=mag_c * np.exp(1j * ph[0]),
            omega_d=mag_d * np.exp(1j * ph[1]),
        )
        fields = FieldPair(AMP * np.exp(1j * ph[2]), AMP * np.exp(1j * ph[3]))
        out = propagate_general(params, fields, alpha)
        total = (abs(out.omega_p) ** 2 + abs(out.omega_s) ** 2) / AMP**2
        worst_total = max(worst_total, total)
    if worst_total > 2.0 + 1e-12:
        failures.append(f"energy bound violated: {worst_total}")

    # Balanced closed form against the general one.
    worst_gap = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.0, 80.0)
        delta = rng.uniform(-30.0, 30.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(0.3, 2.0)
        params = MediumParams(
            alpha=alpha, delta=delta, omega_c=mag, omega_d=mag * np.exp(1j * phi)
        )
        zeta = rng.uniform(0.0, 1.0) * alpha
        probe, signal = propagate_balanced(phi, params, zeta)
        out = propagate_general(params, FieldPair(AMP, AMP), zeta)
        worst_gap = max(
            worst_gap,
            abs(out.omega_p / AMP - probe),
            abs(out.omega_s / AMP - signal),
        )
    if worst_gap > 1e-12:
        failures.append(f"balanced/general gap {worst_gap:.2e}")

    # Output-phase discontinuity across the jump phase, present only above
    # the critical depth.
    sol = solve_jump(16.5, 1)

    def terminal_phase(alpha, phi_r):
        curve = trace_curve(
            phi_r, MediumParams(alpha=alpha, delta=16.5), n_samples=2000
        )
        return unwrapped_phase(curve)[0][-1]

    above = abs(
        terminal_phase(100.0, sol.probe_jump_phase + 0.05)
        - terminal_phase(100.0, sol.probe_jump_phase - 0.05)
    )
    below = abs(
        terminal_phase(40.0, sol.probe_jump_phase + 0.05)
        - terminal_phase(40.0, sol.probe_jump_phase - 0.05)
    )
    below_fine = abs(
        terminal_phase(40.0, sol.probe_jump_phase + 0.002)
        - terminal_phase(40.0, sol.probe_jump_phase - 0.002)
    )
    if not (above > np.pi / 2):
        failures.append(f"no jump above critical depth: {above:.3f}")
    if not (below < np.pi / 2 and below_fine < 0.05):
        failures.append(f"not continuous below critical depth: {below:.3f}")

    # Linearity of the time-domain solver under a common complex scale.
    params = MediumParams(alpha=10.0, delta=3.0, omega_d=np.exp(0.7j))
    grid = SimGrid(n_z=64, dt=0.05, t_final=60.0)
    scale = 2.0 + 0.5j
    base = simulate(params, PulseShape.cw(AMP), PulseShape.cw(AMP), grid)
    scaled = simulate(
        params, PulseShape.cw(scale * AMP), PulseShape.cw(scale * AMP), grid
    )
    gap = np.abs(scaled.output_probe - scale * base.output_probe).max()
    gap = max(gap, np.abs(scaled.output_signal - scale * base.output_signal).max())
    norm = np.abs(scaled.output_probe).max()
    if gap > 1e-10 * norm:
        failures.append(f"nonlinearity {gap / norm:.2e}")

    ok = not failures
    assert report(
        7,
        ok,
        f"energy bound max={worst_total:.6f}, balanced gap={worst_gap:.1e}, "
        f"jump bracket above/below={above:.2f}/{below_fine:.4f}, "
        f"linearity={gap / norm:.1e}"
        if ok
        else f"failed: {failures}",
    )


def test_criterion_8_zero_crossing_oracle():
    failures = []
    details = []
    for delta in (5.0, 10.0, 16.5, 25.0, 40.0):
        sol = solve_jump(delta, 1)
        params = MediumParams(alpha=sol.critical_depth, delta=delta)
        curve = trace_curve(sol.probe_jump_phase, params, n_samples=2000)
        zero = detect_zero_crossing(curve, "probe")
        step = sol.critical_depth / 1999
        if zero is None:
            failures.append(f"no zero at delta={delta}")
            continue
        offset = abs(zero - sol.critical_depth)
        details.append(f"delta={delta}: offset={offset:.2e} (step {step:.2e})")
        if offset > step:
            failures.append(f"zero misplaced at delta={delta}: {offset:.2e}")
    ok = not failures
    assert report(
        8, ok, "; ".join(details) if ok else f"failed: {failures}"
    )
