"""Loop-phase solutions pinning the probe output phase, and detuning search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import needs_scipy
from dleit.apm import (
    AXIS_TOL,
    ApmOperatingPoint,
    InfeasibleError,
    apm_contrast,
    operating_point,
    optimize_detuning,
    optimize_detuning_sweep,
    phi_r_for_half_pi_shift,
    phi_r_for_pi_shift,
    scan_local_maxima,
    _TARGET_RAYS,
    _pinned_phase,
    _ray_solutions,
    _reduce_roots,
)
from dleit.core import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_DELTA_TOL,
    DEFAULT_SCAN_STEP,
    TWO_PI,
    detuning_grid,
    wrap_signed,
)
from dleit.dynamics import _peak_transmission, amplification_sweep, peak_transmission
from dleit.phase_jump import critical_depth, jump_phase_probe
from dleit.steady_state import (
    ZeroFieldError,
    _decay_kernel,
    _mode_weights,
    balanced_components,
    balanced_ratios,
    decay_factor,
)

alphas = st.floats(min_value=0.5, max_value=150.0)
detunings = st.floats(min_value=0.2, max_value=60.0)
targets = st.sampled_from(["pi", "half_pi"])
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])

SOLVERS = {"pi": phi_r_for_pi_shift, "half_pi": phi_r_for_half_pi_shift}
#: Direction of the ray each target pins the terminal probe ratio to.
RAYS = {"pi": -1.0, "half_pi": -1.0j}


def bracketed_root(alpha, delta, target, n_brackets):
    """Independent oracle: sign changes of the pinned coordinate on a uniform
    loop-phase grid, each refined by brentq; among the roots on the target
    ray the one with the highest transmission wins.  Returns (phi, T) or None.
    """
    from scipy.optimize import brentq

    center, radius = balanced_components(alpha, delta)
    ray = RAYS[target]

    def pinned(phi):
        return ((center + radius * np.exp(-1j * phi)) * np.conj(ray)).imag

    nodes = np.linspace(0.0, 2.0 * np.pi, n_brackets + 1)
    values = [pinned(phi) for phi in nodes]
    best = None
    for k in range(n_brackets):
        if values[k] == 0.0:
            root = nodes[k]
        elif values[k] * values[k + 1] < 0.0:
            root = brentq(pinned, nodes[k], nodes[k + 1], xtol=1e-15)
        else:
            continue
        ratio = center + radius * np.exp(-1j * root)
        if (ratio * np.conj(ray)).real > 0.0 and (best is None or abs(ratio) ** 2 > best[1]):
            best = (root, abs(ratio) ** 2)
    return best


def test_terminal_ratio_is_center_plus_rotated_radius():
    center, radius = balanced_components(30.0, 5.0)
    phi = 1.3
    expected = center + radius * np.exp(-1j * phi)
    assert complex(balanced_ratios(30.0, 5.0, phi)[0]) == pytest.approx(expected)


def test_pi_shift_loop_phase_value():
    assert phi_r_for_pi_shift(100.0, 16.5) == pytest.approx(3.252793, abs=1e-5)


def test_pi_shift_ratio_sits_on_negative_real_axis():
    phi = phi_r_for_pi_shift(100.0, 16.5)
    ratio = complex(balanced_ratios(100.0, 16.5, phi)[0])
    assert abs(ratio.imag) < 1e-12
    assert ratio.real < 0.0


@given(alpha=alphas, delta=detunings)
@settings(max_examples=150)
def test_pi_shift_ratio_imaginary_part_vanishes(alpha, delta):
    # The closed form zeroes the imaginary part identically; feasibility only
    # gates the sign of the real part.
    try:
        phi = phi_r_for_pi_shift(alpha, delta)
    except InfeasibleError:
        return
    ratio = complex(balanced_ratios(alpha, delta, phi)[0])
    assert abs(ratio.imag) < 1e-12
    assert ratio.real < 0.0


def test_pi_shift_infeasible_cases():
    with pytest.raises(InfeasibleError):
        phi_r_for_pi_shift(1e-6, 16.5)
    with pytest.raises(InfeasibleError):
        phi_r_for_pi_shift(50.0, 0.0)
    with pytest.raises(ValueError):
        phi_r_for_pi_shift(0.0, 16.5)
    with pytest.raises(ValueError):
        phi_r_for_pi_shift(-3.0, 16.5)


def test_half_pi_shift_ratio_sits_on_negative_imaginary_axis():
    for alpha, delta in ((100.0, 16.5), (100.0, 15.0), (50.0, 7.8), (20.0, 2.84)):
        phi = phi_r_for_half_pi_shift(alpha, delta)
        ratio = complex(balanced_ratios(alpha, delta, phi)[0])
        assert abs(ratio.real) < 1e-9
        assert ratio.imag < 0.0


def test_half_pi_shift_infeasible_when_circle_misses_axis():
    with pytest.raises(InfeasibleError):
        phi_r_for_half_pi_shift(1.0, 50.0)
    with pytest.raises(ValueError):
        phi_r_for_half_pi_shift(0.0, 16.5)


def test_contrast_at_pi_point():
    phi = phi_r_for_pi_shift(100.0, 16.5)
    phase_with, phase_without, contrast = apm_contrast(100.0, 16.5, phi)
    assert abs(abs(phase_with) - np.pi) < 1e-9
    assert phase_without == pytest.approx(-0.530157, abs=1e-5)
    assert contrast == pytest.approx(2.611436, abs=1e-5)


def test_contrast_vanishes_on_resonance_at_zero_loop_phase():
    phase_with, phase_without, contrast = apm_contrast(5.0, 0.0, 0.0)
    assert phase_with == pytest.approx(0.0, abs=1e-12)
    assert phase_without == pytest.approx(0.0, abs=1e-12)
    assert contrast == pytest.approx(0.0, abs=1e-12)


def test_contrast_raises_when_probe_is_extinguished():
    delta = 16.5
    with pytest.raises(ZeroFieldError):
        apm_contrast(critical_depth(delta, 1), delta, jump_phase_probe(delta, 1))


def test_operating_point_bundles_fields():
    op = operating_point(100.0, 16.5, "pi")
    assert op.target_shift == "pi"
    assert op.phi_r == phi_r_for_pi_shift(100.0, 16.5)
    assert op.transmission_with_signal == pytest.approx(
        abs(complex(balanced_ratios(100.0, 16.5, op.phi_r)[0])) ** 2
    )
    assert op.transmission_without_signal == pytest.approx(
        abs(balanced_components(100.0, 16.5)[0]) ** 2
    )
    assert op.apm_contrast == pytest.approx(2.611436, abs=1e-5)


@pytest.mark.parametrize("target, angle", [("pi", np.pi), ("half_pi", -np.pi / 2)])
def test_phase_with_is_the_target_ray_angle(target, angle):
    # The pinned ratio's own np.angle would flip between +pi and -pi with the
    # sign of a rounding residue; the reported phase is the ray's angle.
    for alpha in np.arange(10.0, 201.0, 10.0):
        op = optimize_detuning(alpha, target)
        assert op.phase_with == angle
        ratio = complex(balanced_ratios(alpha, op.delta, op.phi_r)[0])
        assert abs(ratio) ** 2 == pytest.approx(op.transmission_with_signal, abs=1e-12)
        assert op.apm_contrast == pytest.approx(
            abs(wrap_signed(np.angle(ratio) - op.phase_without)), abs=1e-9
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apm_contrast_rejects_non_finite_loop_phase(bad):
    with pytest.raises(ValueError, match="phi_r must be finite"):
        apm_contrast(100.0, 16.5, bad)


def test_operating_point_rejects_unknown_target():
    with pytest.raises(ValueError, match="target_shift"):
        operating_point(100.0, 16.5, "quarter")


def test_operating_point_validation():
    kwargs = dict(
        alpha=10.0, delta=5.0, phi_r=1.0, target_shift="pi",
        transmission_with_signal=0.5, transmission_without_signal=0.1,
        apm_contrast=1.0, phase_with=0.4, phase_without=-0.6,
    )
    ApmOperatingPoint(**kwargs)
    with pytest.raises(ValueError):
        ApmOperatingPoint(**{**kwargs, "target_shift": "tau"})
    with pytest.raises(ValueError):
        ApmOperatingPoint(**{**kwargs, "apm_contrast": 4.0})
    with pytest.raises(ValueError):
        ApmOperatingPoint(**{**kwargs, "transmission_with_signal": -0.2})


def test_optimize_detuning_matches_dense_scan():
    for target, window in (("pi", (10.0, 25.0)), ("half_pi", (15.0, 30.0))):
        op = optimize_detuning(100.0, target, delta_range=window)
        solver = phi_r_for_pi_shift if target == "pi" else phi_r_for_half_pi_shift
        grid = np.arange(window[0], window[1] + 0.005, 0.01)

        def transmission(delta):
            try:
                phi = solver(100.0, delta)
            except InfeasibleError:
                return np.nan
            return abs(complex(balanced_ratios(100.0, delta, phi)[0])) ** 2

        scanned = np.array([transmission(d) for d in grid])
        k = int(np.nanargmax(scanned))
        assert abs(op.delta - grid[k]) <= 0.05
        assert op.transmission_with_signal >= scanned[k] - 1e-12


def test_scan_reports_every_feasible_band_maximum():
    points = scan_local_maxima(100.0, "pi")
    deltas = [p.delta for p in points]
    assert len(points) >= 2
    assert deltas == sorted(deltas)
    for p in points:
        ratio = complex(balanced_ratios(100.0, p.delta, p.phi_r)[0])
        assert abs(ratio.imag) < 1e-9
        assert ratio.real < 0.0
    best = max(points, key=lambda p: p.transmission_with_signal)
    op = optimize_detuning(100.0, "pi")
    assert best.delta == op.delta
    assert best.transmission_with_signal == op.transmission_with_signal


def test_scan_marks_extinguished_band_with_nan_contrast():
    # The lowest-detuning feasible sliver at this depth pins the probe right
    # at a critical point; its output phase and contrast are undefined.
    points = scan_local_maxima(100.0, "pi")
    assert any(
        np.isnan(p.apm_contrast) and np.isnan(p.phase_with) and p.transmission_with_signal < 1e-12
        for p in points
    )
    assert not np.isnan(points[-1].apm_contrast)


def test_optimize_detuning_pi_default_range():
    op = optimize_detuning(100.0, "pi")
    assert 16.0 <= op.delta <= 17.0
    assert op.transmission_with_signal == pytest.approx(0.683193, abs=1e-4)
    assert op.transmission_without_signal == pytest.approx(0.010048, abs=1e-4)


def test_optimize_detuning_half_pi_default_range():
    op = optimize_detuning(100.0, "half_pi")
    assert op.transmission_with_signal == pytest.approx(1.403602, abs=1e-4)
    assert op.transmission_without_signal == pytest.approx(0.194704, abs=1e-4)
    assert op.apm_contrast == pytest.approx(0.570322, abs=1e-4)


def test_optimized_transmission_trends_with_depth():
    # Deeper media pin the pi point with less constrained loss while the
    # signal-off leakage keeps shrinking.
    points = [optimize_detuning(a, "pi") for a in (10.0, 20.0, 50.0, 100.0)]
    t_with = [p.transmission_with_signal for p in points]
    t_without = [p.transmission_without_signal for p in points]
    assert all(a < b for a, b in zip(t_with, t_with[1:]))
    assert all(a > b for a, b in zip(t_without, t_without[1:]))


def test_optimize_detuning_infeasible_range():
    with pytest.raises(InfeasibleError):
        optimize_detuning(1.0, "half_pi", delta_range=(40.0, 60.0))


def test_sweep_raises_for_the_first_failing_depth():
    window = (40.0, 60.0)
    with pytest.raises(InfeasibleError, match="at alpha=1.0"):
        optimize_detuning_sweep([1.0, -3.0], "half_pi", delta_range=window)
    with pytest.raises(ValueError, match="got -3.0") as info:
        optimize_detuning_sweep([-3.0, 1.0], "half_pi", delta_range=window)
    assert not isinstance(info.value, InfeasibleError)
    with pytest.raises(ValueError, match="non-empty"):
        optimize_detuning_sweep([], "pi")


def test_optimize_detuning_rejects_bad_window():
    with pytest.raises(ValueError):
        optimize_detuning(100.0, "pi", delta_range=(5.0, 5.0))
    with pytest.raises(ValueError):
        optimize_detuning(100.0, "pi", scan_step=0.0)


@needs_scipy
@given(alpha=alphas, delta=detunings, target=targets)
@settings(max_examples=200, deadline=None)
def test_closed_form_roots_match_bracketed_oracle(alpha, delta, target):
    oracle = bracketed_root(alpha, delta, target, n_brackets=4096)
    try:
        phi = SOLVERS[target](alpha, delta)
    except InfeasibleError:
        assert oracle is None
        return
    assert oracle is not None
    assert abs(wrap_signed(phi - oracle[0])) <= 1e-6
    assert abs(balanced_ratios(alpha, delta, phi)[0]) ** 2 == pytest.approx(oracle[1], abs=1e-9)


@needs_scipy
@pytest.mark.parametrize("alpha, delta", [(100.0, 37.2814), (20.0, 7.153), (50.0, 18.4934)])
def test_half_pi_finds_near_tangent_root_pair(alpha, delta):
    # Just inside a band edge the circle grazes the axis and both roots sit
    # inside one bracket of a 64-bracket sign-change search, which misses
    # them; a 4096-bracket search finds the pair, and the closed form its
    # winner.
    assert bracketed_root(alpha, delta, "half_pi", n_brackets=64) is None
    phi = phi_r_for_half_pi_shift(alpha, delta)
    oracle = bracketed_root(alpha, delta, "half_pi", n_brackets=4096)
    assert abs(wrap_signed(phi - oracle[0])) <= 1e-9
    ratio = complex(balanced_ratios(alpha, delta, phi)[0])
    assert abs(ratio.real) < 1e-9
    assert ratio.imag < 0.0


@given(alpha=alphas, target=targets)
@settings(max_examples=15, deadline=None)
def test_vectorized_scan_matches_scalar_solver(alpha, target):
    grid = detuning_grid(DEFAULT_DELTA_RANGE, DEFAULT_SCAN_STEP, DEFAULT_DELTA_TOL)
    phis, scanned = _ray_solutions(alpha, grid, target)
    for delta, phi, t in zip(grid, phis, scanned):
        try:
            single = SOLVERS[target](alpha, delta)
        except InfeasibleError:
            assert np.isnan(phi) and np.isnan(t)
            continue
        assert abs(wrap_signed(single - phi)) <= 1e-12
        assert abs(abs(balanced_ratios(alpha, delta, single)[0]) ** 2 - t) <= 1e-12


def two_root_reference(alpha, deltas, target_shift):
    """Both intersections of the ratio circle with the target ray's line,
    each checked for the ray, the one with the larger transmission kept.
    Returns (phi_r, transmission) as `_ray_solutions` does.
    """
    center, radius = _mode_weights(_decay_kernel(alpha, deltas))
    turn = np.conj(_TARGET_RAYS[target_shift][0])
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.arcsin((center * turn).imag / np.abs(radius))
        base = np.angle(radius * turn)
        roots = np.mod(np.stack((base + offset, base + np.pi - offset)), TWO_PI)
        roots[roots == TWO_PI] = 0.0
        ratios = center + radius * np.exp(-1j * roots)
        pinned = ratios * turn
        feasible = (pinned.real > 0.0) & (np.abs(pinned.imag) <= AXIS_TOL)
        transmission = np.where(feasible, np.abs(ratios) ** 2, np.nan)
        second = feasible[1] & ~(transmission[0] >= transmission[1])
    best = np.where(second, transmission[1], transmission[0])
    phi = np.where(np.isnan(best), np.nan, np.where(second, roots[1], roots[0]))
    return phi, best


@given(
    pairs=st.lists(
        st.tuples(st.floats(0.01, 500.0), st.floats(-80.0, 80.0)), min_size=1, max_size=256
    ),
    target=targets,
)
@settings(max_examples=200, deadline=None)
def test_one_root_matches_two_root_reference(pairs, target):
    # The "-" intersection sits at Re w = Re c_t - sqrt(...), never beyond
    # the "+" one, so it can never be feasible alone or transmit more; only
    # rounding near an extinguished output could ever select it.
    depths, deltas = (np.array(column) for column in zip(*pairs))
    phi, transmission = _ray_solutions(depths, deltas, target)
    ref_phi, ref_transmission = two_root_reference(depths, deltas, target)
    assert np.array_equal(np.isnan(transmission), np.isnan(ref_transmission))
    assert np.array_equal(np.isnan(phi), np.isnan(ref_phi))
    feasible = ~np.isnan(ref_transmission)
    assert (np.abs(transmission[feasible] - ref_transmission[feasible]) <= 1e-15).all()
    bright = ref_transmission > 1e-12
    assert np.array_equal(phi[bright], ref_phi[bright])


root_edges = st.sampled_from(
    [0.0, -0.0, np.nan, np.nextafter(TWO_PI, 0.0), -1e-17, -1e-300, -5e-324]
)


@given(roots=st.lists(st.floats(-1.5 * np.pi, 1.5 * np.pi) | root_edges, min_size=1, max_size=64))
@settings(max_examples=300)
def test_root_reduction_is_np_mod_bit_for_bit(roots):
    roots = np.array(roots)
    assert np.array_equal(_reduce_roots(roots).view(np.uint64), np.mod(roots, TWO_PI).view(np.uint64))


@given(alpha=alphas, target=targets)
@settings(max_examples=30, deadline=None)
def test_ray_solutions_return_phases_in_one_turn(alpha, target):
    grid = detuning_grid((-60.0, 60.0), DEFAULT_SCAN_STEP, DEFAULT_DELTA_TOL)
    phis, _ = _ray_solutions(alpha, grid, target)
    feasible = phis[~np.isnan(phis)]
    assert ((feasible >= 0.0) & (feasible < TWO_PI)).all()


def same_point(a, b):
    """Field-for-field exact equality, with NaN equal to NaN."""
    for name, value in vars(a).items():
        other = getattr(b, name)
        assert value == other or (np.isnan(value) and np.isnan(other)), name


@pytest.mark.parametrize("target", ["pi", "half_pi"])
def test_sweep_winners_equal_their_one_point_operating_points(target):
    depths = [7.5, 10.0, 20.0, 33.3, 50.0, 77.7, 100.0, 150.0, 200.0]
    for op in optimize_detuning_sweep(depths, target):
        same_point(op, operating_point(op.alpha, op.delta, target))


def test_sweep_winner_in_an_extinguished_band_equals_its_operating_point():
    # Inside this window the only band is the sliver of
    # test_scan_marks_extinguished_band_with_nan_contrast.
    (op,) = optimize_detuning_sweep([100.0], "pi", delta_range=(0.5, 1.0))
    assert np.isnan(op.apm_contrast) and np.isnan(op.phase_with)
    same_point(op, operating_point(100.0, op.delta, "pi"))


@given(bad=non_finite, target=targets)
def test_apm_entry_points_reject_non_finite_inputs(bad, target):
    solver = SOLVERS[target]
    calls = [
        lambda: optimize_detuning(bad, target),
        lambda: optimize_detuning(100.0, target, delta_range=(0.5, bad)),
        lambda: optimize_detuning(100.0, target, delta_range=(bad, 60.0)),
        lambda: optimize_detuning(100.0, target, tol=bad),
        lambda: scan_local_maxima(100.0, target, scan_step=bad),
        lambda: operating_point(bad, 16.5, target),
        lambda: operating_point(100.0, bad, target),
        lambda: solver(bad, 16.5),
        lambda: solver(100.0, bad),
    ]

    def fail(*args, **kwargs):
        raise AssertionError("computed before the inputs were validated")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dleit.apm.balanced_components", fail)
        patch.setattr("dleit.apm._decay_kernel", fail)
        for call in calls:
            with pytest.raises(ValueError, match="finite") as info:
                call()
            assert not isinstance(info.value, InfeasibleError)


@given(
    pairs=st.lists(st.tuples(alphas, st.floats(min_value=-60.0, max_value=60.0)), min_size=1, max_size=24),
    target=targets,
)
@settings(max_examples=100, deadline=None)
def test_golden_objectives_equal_their_validated_entry_points(pairs, target):
    # The golden loops evaluate the unchecked closed forms on one (depth,
    # detuning) per band; each value must equal, bit for bit, what the
    # validated one-point entries return for that pair.
    depths, deltas = (np.array(column) for column in zip(*pairs))

    def pinned(alpha, delta):
        try:
            return _pinned_phase(alpha, delta, target)[1]
        except InfeasibleError:
            return np.nan

    expected = [pinned(a, d) for a, d in pairs]
    assert np.array_equal(_ray_solutions(depths, deltas, target)[1], expected, equal_nan=True)
    peak = _peak_transmission(depths, deltas)
    dark, bright = balanced_components(depths, deltas)
    assert np.array_equal(peak, (np.abs(dark) + np.abs(bright)) ** 2)
    # One-element arrays, as the loops evaluate them: numpy's scalar complex
    # exp can differ from its array loop in the last bit.
    assert np.array_equal(peak, [peak_transmission(np.array([a]), d)[0] for a, d in pairs])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("target", ["pi", "half_pi"])
def test_public_entries_keep_their_depth_errors(bad, target):
    # The golden objectives no longer check depths, so the entry points must.
    with pytest.raises(ValueError, match=f"alpha must be finite and > 0, got {bad}") as info:
        SOLVERS[target](bad, 16.5)
    assert not isinstance(info.value, InfeasibleError)
    with pytest.raises(ValueError, match="delta must be finite, got nan"):
        SOLVERS[target](bad, np.nan)
    with pytest.raises(ValueError, match=f"got {bad}"):
        optimize_detuning_sweep([100.0, 50.0, bad, np.nan], target)
    with pytest.raises(ValueError, match="got nan"):
        optimize_detuning_sweep([100.0, np.nan, bad], target)
    if bad != 0.0:
        with pytest.raises(ValueError, match=f"alpha must be finite and >= 0, got {bad}"):
            decay_factor(bad, 16.5)
        with pytest.raises(ValueError, match=f"got {bad}"):
            amplification_sweep([50.0, 0.0, bad, np.nan])
    assert decay_factor(0.0, 16.5) == 1.0
    with pytest.raises(ValueError, match="delta must be finite"):
        decay_factor(100.0, np.array([16.5, np.nan]))
