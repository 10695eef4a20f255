"""Critical depths, jump phases, and numeric zero-crossing detection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dleit.core import MediumParams, wrap_phase
from dleit.phase_jump import (
    GRID_WINDOW_FRACTION,
    JumpSolution,
    ZERO_MAGNITUDE_TOL,
    critical_depth,
    detect_zero_crossing,
    jump_phase_probe,
    jump_phase_signal,
    solve_jump,
    verify_jump,
    zero_crossings,
)
from dleit.steady_state import (
    PropagationCurve,
    propagate_balanced,
    trace_curve,
    unwrapped_phase,
)

detunings = st.floats(min_value=0.5, max_value=60.0)
orders = st.sampled_from([1, 3, 5, 7])


def test_critical_depth_values():
    assert critical_depth(16.5, 1) == pytest.approx(52.026678, abs=1e-5)
    assert critical_depth(1.0, 1) == pytest.approx(2 * np.pi, rel=1e-15)
    assert critical_depth(16.5, 3) == pytest.approx(3 * critical_depth(16.5, 1),
                                                    rel=1e-15)
    assert critical_depth(-16.5, 1) == critical_depth(16.5, 1)


def test_critical_depth_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        critical_depth(0.0, 1)
    for bad_order in (0, 2, -1, 4):
        with pytest.raises(ValueError):
            critical_depth(5.0, bad_order)


def test_jump_phase_values():
    assert jump_phase_probe(16.5, 1) == pytest.approx(4.617333, abs=1e-5)
    assert jump_phase_signal(16.5, 1) == pytest.approx(1.665853, abs=1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phase_jump_rejects_non_finite_detuning(bad):
    for call in (critical_depth, jump_phase_probe, jump_phase_signal, solve_jump):
        with pytest.raises(ValueError, match="finite"):
            call(bad)


def test_jump_phase_limits_at_large_detuning():
    assert jump_phase_probe(1e9, 1) == pytest.approx(3 * np.pi / 2, abs=1e-6)
    assert jump_phase_signal(1e9, 1) == pytest.approx(np.pi / 2, abs=1e-6)


def test_jump_phase_third_order():
    # sin(3*pi/2) flips the sign of the atan argument.
    expected = wrap_phase(2 * np.arctan(np.exp(3 * np.pi / 33.0)))
    assert jump_phase_probe(16.5, 3) == pytest.approx(float(expected), rel=1e-12)


def test_jump_phase_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        jump_phase_probe(0.0, 1)
    with pytest.raises(ValueError):
        jump_phase_signal(5.0, 2)


@given(delta=detunings, n=orders)
def test_jump_phases_sum_to_full_turn(delta, n):
    total = jump_phase_probe(delta, n) + jump_phase_signal(delta, n)
    assert min(abs(total), abs(total - 2 * np.pi), abs(total - 4 * np.pi)) < 1e-9


@given(delta=detunings, n=orders)
def test_negative_detuning_swaps_roles(delta, n):
    assert jump_phase_probe(-delta, n) == pytest.approx(
        jump_phase_signal(delta, n), abs=1e-12
    )
    assert jump_phase_signal(-delta, n) == pytest.approx(
        jump_phase_probe(delta, n), abs=1e-12
    )


def test_solve_jump_bundles_consistently():
    sol = solve_jump(16.5, 1)
    assert sol.order == 1
    assert sol.delta == 16.5
    assert sol.critical_depth == critical_depth(16.5, 1)
    assert sol.probe_jump_phase == jump_phase_probe(16.5, 1)
    assert sol.signal_jump_phase == jump_phase_signal(16.5, 1)


@given(delta=detunings, n=st.sampled_from([1, 3]))
def test_probe_vanishes_at_critical_point(delta, n):
    # Substituting the critical depth and jump phase into the closed form
    # must extinguish the probe to machine precision.
    alpha_c = critical_depth(delta, n)
    params = MediumParams(alpha=alpha_c, delta=delta)
    probe, _ = propagate_balanced(jump_phase_probe(delta, n), params, alpha_c)
    assert abs(probe) < 1e-9


def test_detect_zero_crossing_probe_and_signal():
    delta = 16.5
    sol = solve_jump(delta, 1)
    params = MediumParams(alpha=100.0, delta=delta)
    probe_curve = trace_curve(sol.probe_jump_phase, params, n_samples=2000)
    step = 100.0 / 1999
    zero = detect_zero_crossing(probe_curve, "probe")
    assert zero is not None
    assert abs(zero - sol.critical_depth) < step
    assert detect_zero_crossing(probe_curve, "signal") is None

    signal_curve = trace_curve(sol.signal_jump_phase, params, n_samples=2000)
    zero_s = detect_zero_crossing(signal_curve, "signal")
    assert zero_s is not None
    assert abs(zero_s - sol.critical_depth) < step
    assert detect_zero_crossing(signal_curve, "probe") is None


def test_detect_zero_crossing_transparent_curve_has_none():
    params = MediumParams(alpha=100.0, delta=16.5)
    curve = trace_curve(0.0, params, n_samples=500)
    assert detect_zero_crossing(curve, "probe") is None
    assert detect_zero_crossing(curve, "signal") is None


def test_zero_crossing_oracle_grid():
    for delta in (2.0, 5.0, 10.0, 16.5, 25.0, 40.0, 50.0):
        sol = solve_jump(delta, 1)
        alpha = 1.2 * sol.critical_depth
        params = MediumParams(alpha=alpha, delta=delta)
        curve = trace_curve(sol.probe_jump_phase, params, n_samples=2000)
        zero = detect_zero_crossing(curve, "probe")
        step = alpha / 1999
        assert zero is not None
        assert abs(zero - sol.critical_depth) < step


def test_zero_crossings_synthetic_multiple_dips():
    zeta = np.linspace(0.0, 6.0, 1200)
    ratio = np.cos(zeta) * np.exp(0.1j * zeta)
    ratio[0] = 1.0
    other = np.ones_like(ratio)
    curve = PropagationCurve(zeta, ratio, other)
    zeros = zero_crossings(curve, "probe")
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(np.pi / 2, abs=0.01)
    assert zeros[1] == pytest.approx(3 * np.pi / 2, abs=0.01)
    assert zero_crossings(curve, "signal") == []


def per_sample_zero_crossings(curve, which="probe"):
    """The per-sample loop the array zero locator replaced, kept as its oracle."""
    ratio = curve.probe_ratio if which == "probe" else curve.signal_ratio
    mag_sq = np.abs(ratio) ** 2
    zeta = curve.zeta_grid
    if mag_sq.size < 3:
        return []
    found = []

    def classify(k):
        z0, z1, z2 = zeta[k - 1], zeta[k], zeta[k + 1]
        v0, v1, v2 = mag_sq[k - 1], mag_sq[k], mag_sq[k + 1]
        a = 0.5 * (v0 + v2) - v1
        b = 0.5 * (v2 - v0)
        if a <= 0.0:
            z_star, v_star = float(z1), float(v1)
        else:
            s = np.clip(-b / (2.0 * a), -1.0, 1.0)
            value = a * s * s + b * s + v1
            z_star, v_star = float(z1 + s * (z1 - z0)), float(max(value, 0.0))
        if np.sqrt(v_star) < ZERO_MAGNITUDE_TOL:
            found.append(z_star)
        elif a > 0.0 and v_star < (GRID_WINDOW_FRACTION**2) * a:
            found.append(z_star)

    for k in range(1, len(mag_sq) - 1):
        if mag_sq[k] <= mag_sq[k - 1] and mag_sq[k] < mag_sq[k + 1]:
            classify(k)
    if mag_sq[-1] < mag_sq[-2]:
        classify(len(mag_sq) - 2)
    return found


def curve_of(samples, length=1.0):
    """Probe curve through 1 followed by `samples`, on a uniform grid."""
    probe = np.array([1.0] + list(samples), dtype=complex)
    zeta = np.linspace(0.0, length, probe.size)
    return PropagationCurve(zeta, probe, np.ones_like(probe))


# Few distinct levels make ties (m[k] == m[k-1]) and exact or sub-tolerance
# zeros likely; NaN samples must never produce a zero of their own.
sample_values = st.one_of(
    st.sampled_from([0.0, 1e-10, 1e-3, 0.5, 1.0]),
    st.floats(min_value=-2.0, max_value=2.0),
    st.just(math.nan),
)


@given(samples=st.lists(sample_values, min_size=0, max_size=40),
       length=st.floats(min_value=0.1, max_value=200.0))
@example(samples=[1.0, 0.0, 0.0, 1.0], length=1.0)  # tie at the bottom
@example(samples=[0.0, 1e-10, 0.0], length=1.0)  # a <= 0 at the far boundary
@example(samples=[math.nan, 1e-10, 0.0], length=1.0)  # NaN curvature there
@example(samples=[0.5, 0.2, 0.0], length=1.0)  # falling far boundary
def test_zero_locator_matches_per_sample_loop(samples, length):
    curve = curve_of(samples, length)
    assert zero_crossings(curve, "probe") == per_sample_zero_crossings(curve, "probe")


@given(freq=st.floats(min_value=0.1, max_value=20.0),
       shift=st.floats(min_value=0.0, max_value=2 * np.pi),
       twist=st.floats(min_value=-1.0, max_value=1.0),
       n=st.integers(min_value=3, max_value=600))
def test_zero_locator_matches_per_sample_loop_on_smooth_curves(freq, shift, twist, n):
    zeta = np.linspace(0.0, 6.0, n)
    curve = curve_of(np.cos(freq * zeta[1:] + shift) * np.exp(1j * twist * zeta[1:]), 6.0)
    assert zero_crossings(curve, "probe") == per_sample_zero_crossings(curve, "probe")


def test_zero_locator_plateau_and_nan_curvature():
    # Where the parabola does not open upward the node itself is reported;
    # a NaN curvature (NaN neighbour) yields no zero.
    curve = curve_of([0.0, 1e-10, 0.0])
    assert zero_crossings(curve)[-1] == curve.zeta_grid[2]
    assert zero_crossings(curve_of([math.nan, 1e-10, 0.0])) == []


@given(delta=detunings, sign=st.sampled_from([1.0, -1.0]), n=orders,
       samples=st.sampled_from([2, 3, 4, 64, 2000]))
@example(delta=16.5, sign=-1.0, n=3, samples=2000)
@example(delta=0.5, sign=1.0, n=1, samples=3)
def test_verify_jump_equals_traced_zero_crossing(delta, sign, n, samples):
    sol = solve_jump(sign * delta, n)
    params = MediumParams(alpha=sol.critical_depth, delta=sol.delta)
    expected = detect_zero_crossing(trace_curve(sol.probe_jump_phase, params, n_samples=samples))
    zero = verify_jump(sol, samples)
    assert zero == expected and type(zero) is type(expected)


def test_verify_jump_validates_its_inputs():
    with pytest.raises(ValueError, match="n_samples"):
        verify_jump(solve_jump(16.5), 1)
    sol = solve_jump(1e200)  # alpha_c overflows to inf
    assert sol.critical_depth == math.inf
    good = solve_jump(16.5)
    for bad in (sol, JumpSolution(1, 16.5, 0.0, 1.0, 2.0),
                JumpSolution(1, math.nan, good.critical_depth, 1.0, 2.0),
                JumpSolution(1, 16.5, good.critical_depth, math.inf, 2.0)):
        with pytest.raises(ValueError, match="critical depth"):
            verify_jump(bad)


def test_zero_crossings_rejects_unknown_field():
    params = MediumParams(alpha=10.0)
    curve = trace_curve(1.0, params, n_samples=64)
    with pytest.raises(ValueError, match="probe"):
        zero_crossings(curve, "pump")


def test_zero_crossings_rejects_non_uniform_grid():
    # On this grid the uniform-step parabola put the zero of 1 - zeta at
    # 0.9761; a linspace grid through the same span finds 1.0.
    zeta = np.array([0.0, 0.5, 0.9, 1.05, 2.0, 3.0])
    curve = PropagationCurve(zeta, 1.0 - zeta, np.ones_like(zeta))
    with pytest.raises(ValueError, match="uniform"):
        zero_crossings(curve, "probe")
    zeta = np.linspace(0.0, 3.0, 7)
    curve = PropagationCurve(zeta, 1.0 - zeta, np.ones_like(zeta))
    assert zero_crossings(curve, "probe") == pytest.approx([1.0], abs=1e-12)


def test_near_miss_is_not_classified_as_zero():
    # Slightly off the jump phase the minimum misses zero by more than the
    # one-grid-step travel and must not be reported.
    delta = 16.5
    sol = solve_jump(delta, 1)
    params = MediumParams(alpha=100.0, delta=delta)
    curve = trace_curve(sol.probe_jump_phase + 0.05, params, n_samples=2000)
    assert detect_zero_crossing(curve, "probe") is None


def test_jump_discontinuity_above_and_continuity_below():
    delta = 16.5
    sol = solve_jump(delta, 1)

    def terminal_phase(alpha, phi_r):
        params = MediumParams(alpha=alpha, delta=delta)
        curve = trace_curve(phi_r, params, n_samples=2000)
        return unwrapped_phase(curve)[0][-1]

    above = abs(
        terminal_phase(100.0, sol.probe_jump_phase + 0.05)
        - terminal_phase(100.0, sol.probe_jump_phase - 0.05)
    )
    assert above > np.pi / 2

    gaps = [
        abs(
            terminal_phase(40.0, sol.probe_jump_phase + eps)
            - terminal_phase(40.0, sol.probe_jump_phase - eps)
        )
        for eps in (0.05, 0.01, 0.002)
    ]
    assert gaps[0] < np.pi / 2
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01
