"""Closed-form steady-state solutions against independent numeric oracles.

The coherence closed form is checked against a direct linear solve of the
stationary Bloch system; the propagation closed form is checked against a
Runge-Kutta integration of the field ODEs.  Both oracles are built here
from the governing equations, sharing no code with the implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dleit.apm import apm_contrast
from dleit.core import FieldPair, MediumParams, wrap_signed
from dleit.dynamics import _obe_matrix, optimal_relative_phase, peak_transmission, steady_cw_output
from dleit.phase_jump import solve_jump
from dleit.steady_state import (
    CoherenceState,
    PropagationCurve,
    ZeroFieldError,
    accumulated_phase,
    balanced_components,
    balanced_ratios,
    coherences_steady,
    decay_factor,
    propagate_balanced,
    propagate_general,
    trace_curve,
    transfer_matrix,
    transmission_and_phase,
    unwrapped_phase,
)


def oracle_coherences(params: MediumParams, fields: FieldPair) -> np.ndarray:
    """Stationary point of the Bloch ODE system by direct linear solve."""
    matrix = np.array(
        [
            [1j * params.delta - 0.5, 0.0, 0.5j * params.omega_d],
            [0.0, -0.5, 0.5j * params.omega_c],
            [
                0.5j * np.conj(params.omega_d),
                0.5j * np.conj(params.omega_c),
                -0.5 * params.gamma21,
            ],
        ],
        dtype=complex,
    )
    source = 0.5j * np.array([fields.omega_s, fields.omega_p, 0.0], dtype=complex)
    return np.linalg.solve(matrix, -source)


def oracle_propagate(params: MediumParams, incident: FieldPair, zeta: float):
    """Integrate the field ODEs with coherences from the linear-solve oracle."""

    def rhs(z, y):
        fields = FieldPair(y[0] + 1j * y[1], y[2] + 1j * y[3])
        rho41, rho31, _ = oracle_coherences(params, fields)
        dp, ds = 0.5j * rho31, 0.5j * rho41
        return [dp.real, dp.imag, ds.real, ds.imag]

    y0 = [
        incident.omega_p.real,
        incident.omega_p.imag,
        incident.omega_s.real,
        incident.omega_s.imag,
    ]
    sol = solve_ivp(rhs, (0.0, zeta), y0, rtol=1e-11, atol=1e-13, dense_output=True)
    y = sol.y[:, -1]
    return complex(y[0] + 1j * y[1]), complex(y[2] + 1j * y[3])


def balanced_realization(alpha, delta, phi_r, amp=0.01):
    """Parameter/field pair realizing a given loop phase with unit drives."""
    params = MediumParams(
        alpha=alpha, delta=delta, omega_c=1.0, omega_d=np.exp(1j * phi_r)
    )
    return params, FieldPair(amp, amp)


def test_coherences_zero_fields_are_zero():
    params = MediumParams(alpha=10.0, delta=3.0)
    state = coherences_steady(params, FieldPair(0.0, 0.0))
    assert state.rho21 == 0 and state.rho31 == 0 and state.rho41 == 0


def test_coherences_matched_fields_are_dark():
    params = MediumParams(alpha=10.0, delta=0.0, omega_c=1.0, omega_d=1.0)
    fields = FieldPair(0.01, 0.01)
    state = coherences_steady(params, fields)
    assert state.rho31 == 0.0
    assert state.rho41 == 0.0


def test_coherences_antisymmetric_example():
    params = MediumParams(alpha=10.0, delta=0.0, omega_c=1.0, omega_d=1.0)
    state = coherences_steady(params, FieldPair(0.01, -0.01))
    assert state.rho31 == pytest.approx(0.01j, abs=1e-15)
    assert state.rho41 == pytest.approx(-0.01j, abs=1e-15)
    assert state.rho21 == pytest.approx(0.0, abs=1e-15)


def test_coherences_match_linear_solve_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        params = MediumParams(
            alpha=10.0,
            delta=rng.uniform(-30, 30),
            omega_c=rng.uniform(0.2, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            omega_d=rng.uniform(0.2, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        fields = FieldPair(
            0.01 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            0.01 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        state = coherences_steady(params, fields)
        expected = oracle_coherences(params, fields)
        got = state.as_array()
        assert np.max(np.abs(got - expected)) < 1e-14


def test_coherences_reject_gamma21():
    params = MediumParams(alpha=10.0, gamma21=0.1)
    with pytest.raises(ValueError, match="dynamics"):
        coherences_steady(params, FieldPair(0.01, 0.01))


def test_coherence_state_sanity_bound():
    with pytest.raises(ValueError, match="perturbative"):
        CoherenceState(rho21=0.6, rho31=0.0, rho41=0.0)


def test_propagation_curve_invariants():
    with pytest.raises(ValueError, match="increasing"):
        PropagationCurve(
            np.array([0.0, 2.0, 1.0]), np.ones(3, complex), np.ones(3, complex)
        )
    with pytest.raises(ValueError, match="start at exactly 1"):
        PropagationCurve(
            np.array([0.0, 1.0]),
            np.array([0.99, 1.0], complex),
            np.ones(2, complex),
        )


def test_propagate_general_identity_at_zero_depth():
    params = MediumParams(alpha=50.0, delta=7.0, omega_c=1.3, omega_d=0.4j)
    incident = FieldPair(0.01 + 0.002j, -0.005j)
    out = propagate_general(params, incident, 0.0)
    # the mode split/recombination costs one rounding step even at zero depth
    assert abs(out.omega_p - incident.omega_p) < 1e-15
    assert abs(out.omega_s - incident.omega_s) < 1e-15


def test_propagate_general_rejects_bad_zeta():
    clean = MediumParams(alpha=10.0)
    with pytest.raises(ValueError, match="outside"):
        propagate_general(clean, FieldPair(0.01, 0.0), 11.0)


def test_generation_case_transmission():
    params = MediumParams(alpha=100.0, delta=16.5)
    incident = FieldPair(0.01, 0.0)
    out = propagate_general(params, incident, 100.0)
    transmission = abs(out.omega_p / incident.omega_p) ** 2
    assert transmission == pytest.approx(0.0101, abs=0.0005)


def test_decay_factor_value_at_large_detuning():
    env = decay_factor(100.0, 34.2)
    assert env.real == pytest.approx(0.1052, abs=2e-4)
    assert env.imag == pytest.approx(-0.9524, abs=2e-4)
    # An antisymmetric input excites the decaying mode alone.
    params = MediumParams(alpha=100.0, delta=34.2)
    out = propagate_general(params, FieldPair(1.0, -1.0), 100.0)
    assert out.omega_p == pytest.approx(env, abs=1e-15)


def test_decay_factor_polar_form():
    # |E| = exp(-alpha/(2(delta^2 + 1))), arg E = -alpha*delta/(2(delta^2 + 1)).
    for alpha, delta in ((100.0, 16.5), (52.0, -7.0), (3.0, 0.0), (80.0, 34.2)):
        denom = delta * delta + 1.0
        polar = np.exp(-0.5 * alpha / denom - 0.5j * alpha * delta / denom)
        assert polar == pytest.approx(decay_factor(alpha, delta), abs=1e-15)


balanced_points = st.tuples(
    st.floats(min_value=0.0, max_value=150.0),
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(min_value=-2 * np.pi, max_value=2 * np.pi),
)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(balanced_points, min_size=1, max_size=8), drive=st.floats(0.2, 3.0))
def test_balanced_ratios_symmetry_broadcast_and_general_limit(points, drive):
    depth, delta, phi_r = (np.array(column) for column in zip(*points))
    probe, signal = balanced_ratios(depth, delta, phi_r)
    # The signal is the probe with the loop phase reversed.
    mirrored, _ = balanced_ratios(depth, delta, -phi_r)
    np.testing.assert_allclose(signal, mirrored, rtol=0.0, atol=1e-15)
    for k, (alpha, det, phi) in enumerate(points):
        one_probe, one_signal = balanced_ratios(alpha, det, phi)
        assert abs(one_probe - probe[k]) <= 1e-15 and abs(one_signal - signal[k]) <= 1e-15
        # At |Omega_c| = |Omega_d| and equal inputs the general form reduces to it.
        params = MediumParams(alpha=alpha, delta=det, omega_c=drive, omega_d=drive * np.exp(1j * phi))
        out = propagate_general(params, FieldPair(0.01, 0.01), alpha)
        assert abs(out.omega_p / 0.01 - probe[k]) <= 1e-12 * max(1.0, abs(probe[k]))
        assert abs(out.omega_s / 0.01 - signal[k]) <= 1e-12 * max(1.0, abs(signal[k]))


def test_balanced_ratios_pass_nan_through():
    probe, signal = balanced_ratios(np.array([10.0, 10.0]), 2.0, np.array([1.0, np.nan]))
    assert np.isfinite(probe[0]) and np.isnan(probe[1]) and np.isnan(signal[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_balanced_entry_points_reject_non_finite_loop_phase(bad):
    params = MediumParams(alpha=10.0, delta=2.0)
    for call in (
        lambda: propagate_balanced(bad, params, 5.0),
        lambda: trace_curve(bad, params),
        lambda: trace_curve(bad, MediumParams(alpha=0.0)),
    ):
        with pytest.raises(ValueError, match="phi_r must be finite"):
            call()
    # With incident fields the general path takes its phases from them.
    curve = trace_curve(bad, params, n_samples=8, incident=FieldPair(0.01, 0.01))
    assert np.all(np.isfinite(curve.probe_ratio))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [
    decay_factor,
    balanced_components,
    peak_transmission,
    optimal_relative_phase,
    lambda alpha, delta: apm_contrast(alpha, delta, 1.0),
], ids=["decay_factor", "balanced_components", "peak_transmission",
        "optimal_relative_phase", "apm_contrast"])
def test_balanced_closed_forms_reject_non_finite_depth_or_detuning(entry, bad):
    # Every entry point runs decay_factor's one check, which must raise rather
    # than return NaN (or, for delta = +-inf, a silent factor of 1); one bad
    # entry of a detuning array is enough.
    for alpha, delta in ((bad, 16.5), (100.0, bad), (100.0, np.array([1.0, bad, 3.0]))):
        with pytest.raises(ValueError, match="finite"):
            entry(alpha, delta)


def test_closed_forms_share_one_dephasing_guard():
    params = MediumParams(alpha=10.0, gamma21=0.05)
    messages = set()
    for call in (
        lambda: coherences_steady(params, FieldPair(0.01, 0.0)),
        lambda: propagate_balanced(1.0, params, 5.0),
        lambda: trace_curve(1.0, params),
    ):
        with pytest.raises(ValueError, match="gamma21 = 0") as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_balanced_components_sum_to_one():
    dark, bright = balanced_components(57.0, 11.0)
    assert dark + bright == pytest.approx(1.0, abs=1e-15)


def test_propagate_general_matches_ode_oracle():
    rng = np.random.default_rng(3)
    for k in range(10):
        params = MediumParams(
            alpha=rng.uniform(5, 60),
            delta=rng.uniform(-20, 20),
            gamma21=0.0 if k < 6 else rng.uniform(0.01, 0.5),
            omega_c=rng.uniform(0.3, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            omega_d=rng.uniform(0.3, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        incident = FieldPair(
            0.01 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            rng.choice([0.0, 0.01]) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        out = propagate_general(params, incident, params.alpha)
        ref_p, ref_s = oracle_propagate(params, incident, params.alpha)
        scale = max(abs(ref_p), abs(ref_s), 1e-6)
        assert abs(out.omega_p - ref_p) / scale < 1e-7
        assert abs(out.omega_s - ref_s) / scale < 1e-7


def oracle_transfer(params: MediumParams, depth: float) -> np.ndarray:
    """scipy's expm of depth*G with the adiabatic generator G = 1/4*C*A^-1*B."""
    hom = _obe_matrix(params.delta, params.gamma21, params.omega_c, params.omega_d)
    b_map = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], dtype=complex)
    c_map = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex)
    return expm(depth * 0.25 * c_map @ np.linalg.solve(hom, b_map))


def assert_transfer_matches_oracle(params: MediumParams, depths: np.ndarray) -> None:
    """Every H of one broadcast call within 1e-12*max(1, |H|) of scipy's expm."""
    h = transfer_matrix(params, depths)
    assert h.shape == depths.shape + (2, 2)
    for depth, one in zip(depths, h):
        reference = oracle_transfer(params, depth)
        assert np.abs(one - reference).max() <= 1e-12 * max(1.0, np.abs(one).max())


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=300.0),
    delta=st.floats(min_value=-60.0, max_value=60.0),
    gamma21=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
    mag_c=st.floats(min_value=0.1, max_value=3.0),
    mag_d=st.floats(min_value=0.1, max_value=3.0),
    phase_c=st.floats(min_value=0.0, max_value=2 * np.pi),
    phase_d=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_transfer_matrix_matches_scipy_expm(alpha, delta, gamma21, mag_c, mag_d, phase_c, phase_d):
    params = MediumParams(
        alpha=alpha,
        delta=delta,
        gamma21=gamma21,
        omega_c=mag_c * np.exp(1j * phase_c),
        omega_d=mag_d * np.exp(1j * phase_d),
    )
    assert_transfer_matches_oracle(params, np.array([0.3 * alpha, alpha]))


def test_transfer_matrix_special_points():
    # Zero depth is exactly the identity, dephased or not.
    for gamma21 in (0.0, 0.3):
        params = MediumParams(alpha=50.0, delta=7.0, gamma21=gamma21, omega_c=1.3, omega_d=0.4j)
        assert np.array_equal(transfer_matrix(params, 0.0), np.eye(2))
    # Balanced drives with 2|delta|*gamma21 = |Omega|^2: G's eigenvalues coincide.
    degenerate = MediumParams(alpha=100.0, delta=20.0, gamma21=0.05, omega_d=np.exp(0.7j))
    assert_transfer_matches_oracle(degenerate, np.array([0.0, 1.0, 37.5, 100.0]))
    # At large depth the decaying mode is gone and nothing overflows.
    deep = MediumParams(alpha=5000.0)
    assert_transfer_matches_oracle(deep, np.array([5000.0]))
    np.testing.assert_allclose(transfer_matrix(deep, 5000.0), np.full((2, 2), 0.5), rtol=0.0, atol=1e-15)
    # trace_curve(incident=...) follows H in a dephased, imbalanced medium.
    dephased = MediumParams(alpha=40.0, delta=-3.0, gamma21=0.2, omega_c=1.5, omega_d=0.5j)
    incident = np.array([0.01, 0.02j])
    curve = trace_curve(0.0, dephased, n_samples=5, incident=FieldPair(*incident))
    for zeta, probe, signal in zip(curve.zeta_grid[1:], curve.probe_ratio[1:], curve.signal_ratio[1:]):
        expected = oracle_transfer(dephased, zeta) @ incident / incident
        assert abs(probe - expected[0]) <= 1e-12 and abs(signal - expected[1]) <= 1e-12
    # steady_cw_output is H applied to the boundary fields.
    params = MediumParams(alpha=30.0, delta=7.0, omega_d=np.exp(1.2j))
    boundary = np.array([1e-3, 1e-3], dtype=complex)
    out = steady_cw_output(params, FieldPair(*boundary))
    expected = oracle_transfer(params, 30.0) @ boundary
    assert abs(out.omega_p - expected[0]) < 1e-12 * 1e-3
    assert abs(out.omega_s - expected[1]) < 1e-12 * 1e-3


def test_propagate_balanced_trivial_phases():
    params = MediumParams(alpha=77.0, delta=12.3)
    probe, signal = propagate_balanced(0.0, params, 77.0)
    assert probe == 1.0 + 0.0j
    assert signal == 1.0 + 0.0j


def test_propagate_balanced_opaque_point():
    for alpha in (1.0, 4.0, 10.0, 100.0):
        params = MediumParams(alpha=alpha, delta=0.0)
        probe, signal = propagate_balanced(np.pi, params, alpha)
        for ratio in (probe, signal):
            assert abs(ratio) ** 2 == pytest.approx(np.exp(-alpha), abs=1e-12)
            # The analytic ratio is real positive: phase 0 means staying on
            # the positive real axis to within roundoff.
            assert ratio.real >= 0.0
            assert abs(ratio.imag) < 1e-12


def test_propagate_balanced_rejects_imbalance():
    params = MediumParams(alpha=10.0, omega_c=1.0, omega_d=0.5)
    with pytest.raises(ValueError, match="balanced"):
        propagate_balanced(1.0, params, 5.0)


@settings(max_examples=150)
@given(
    alpha=st.floats(min_value=0.0, max_value=120.0),
    delta=st.floats(min_value=-40.0, max_value=40.0),
    phi_r=st.floats(min_value=0.0, max_value=2 * np.pi),
    drive=st.floats(min_value=0.2, max_value=3.0),
    input_phase=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_balanced_agrees_with_general(alpha, delta, phi_r, drive, input_phase):
    params = MediumParams(
        alpha=alpha,
        delta=delta,
        omega_c=drive,
        omega_d=drive * np.exp(1j * phi_r),
    )
    amp = 0.01 * np.exp(1j * input_phase)
    incident = FieldPair(amp, amp)
    zeta = 0.7 * alpha
    out = propagate_general(params, incident, zeta)
    probe, signal = propagate_balanced(phi_r, params, zeta)
    assert abs(out.omega_p / amp - probe) <= 1e-12 * max(1.0, abs(probe))
    assert abs(out.omega_s / amp - signal) <= 1e-12 * max(1.0, abs(signal))


@given(
    alpha=st.floats(min_value=0.0, max_value=60.0),
    phi_r=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_resonant_symmetry(alpha, phi_r):
    params = MediumParams(alpha=alpha, delta=0.0)
    probe, signal = propagate_balanced(phi_r, params, alpha)
    assert abs(probe) == pytest.approx(abs(signal), abs=1e-13)
    assert wrap_signed(np.angle(probe) + np.angle(signal)) == pytest.approx(
        0.0, abs=1e-9
    )


@settings(max_examples=200)
@given(
    alpha=st.floats(min_value=0.0, max_value=120.0),
    delta=st.floats(min_value=-40.0, max_value=40.0),
    phase_c=st.floats(min_value=0.0, max_value=2 * np.pi),
    phase_d=st.floats(min_value=0.0, max_value=2 * np.pi),
    mag_c=st.floats(min_value=0.2, max_value=3.0),
    mag_d=st.floats(min_value=0.2, max_value=3.0),
    phase_p=st.floats(min_value=0.0, max_value=2 * np.pi),
    phase_s=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_energy_bound_for_equal_inputs(
    alpha, delta, phase_c, phase_d, mag_c, mag_d, phase_p, phase_s
):
    params = MediumParams(
        alpha=alpha,
        delta=delta,
        omega_c=mag_c * np.exp(1j * phase_c),
        omega_d=mag_d * np.exp(1j * phase_d),
    )
    amp = 0.01
    incident = FieldPair(amp * np.exp(1j * phase_p), amp * np.exp(1j * phase_s))
    out = propagate_general(params, incident, alpha)
    total = (abs(out.omega_p) ** 2 + abs(out.omega_s) ** 2) / amp**2
    assert total <= 2.0 + 1e-12


def test_trace_curve_zero_depth_is_identity_point():
    params = MediumParams(alpha=0.0, delta=5.0)
    curve = trace_curve(1.0, params)
    assert len(curve) == 1
    assert curve.probe_ratio[0] == 1.0 + 0.0j


def test_trace_curve_boundary_sample_is_exactly_one():
    params = MediumParams(alpha=100.0, delta=16.5)
    curve = trace_curve(4.617, params, n_samples=500)
    assert curve.probe_ratio[0] == 1.0 + 0.0j
    assert curve.signal_ratio[0] == 1.0 + 0.0j


def test_trace_curve_probe_phase_zero_crossing_location():
    params = MediumParams(alpha=100.0, delta=16.5)
    curve = trace_curve(5.0, params, n_samples=4000)
    phase, _ = unwrapped_phase(curve)
    # Terminal-referenced: phase starts negative, crosses zero once on the
    # way up; the crossing sits near zeta of 40.
    sign_change = np.where(np.diff(np.sign(phase[1:])) > 0)[0]
    assert sign_change.size >= 1
    crossing = curve.zeta_grid[1:][sign_change[0]]
    assert 35.0 < crossing < 45.0
    assert phase[-1] > 0.0


#: zeta step of the sampled oracle.  Between samples the curve a + b*e^{kappa*zeta}
#: leaves its chord by at most |kappa|^2*step^2/8 <= 7.8e-7 (|kappa| <= 1/2,
#: |b*e^{kappa*zeta}| <= 1), so the unwrap of a polyline that stays farther
#: than WINDING_SKIP_BELOW from 0 counts the true winding.
WINDING_STEP = 0.005
WINDING_SKIP_BELOW = 1e-5


def _closest_approach(ratio):
    """Distance from 0 to the polyline through the sampled ratios."""
    start, step = ratio[:-1], np.diff(ratio)
    t = -(np.conj(start) * step).real / np.maximum(np.abs(step) ** 2, 1e-300)
    return np.abs(start + np.clip(t, 0.0, 1.0) * step).min()


def _winding_cases():
    turns = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi]
    grid = list(np.linspace(0.0, 2.0 * np.pi, 13)[1:-1] + 0.1) + [np.pi - 1e-3, np.pi + 1e-3]
    for alpha in (0.5, 20.0, 100.0, 200.0):
        for delta in (-12.0, -3.0, -0.7, 0.0, 1.0, 3.0, 16.5):
            yield alpha, delta, turns + grid
    # +-1e-3 around both jump phases, below, at and above the critical depth.
    for delta in (-16.5, 5.0, 16.5):
        sol = solve_jump(delta, 1)
        near = [phi + d for phi in (sol.probe_jump_phase, sol.signal_jump_phase)
                for d in np.linspace(-1e-3, 1e-3, 5)]
        for scale in (0.98, 1.0, 1.02):
            yield scale * sol.critical_depth, delta, near


@pytest.mark.filterwarnings("error")
def test_accumulated_phase_matches_sampled_unwrap():
    checked = skipped = 0
    widest = 0.0
    for alpha, delta, phis in _winding_cases():
        params = MediumParams(alpha=alpha, delta=delta)
        probe, signal = accumulated_phase(alpha, params.xi.real, np.array(phis))
        for phi, got_p, got_s in zip(phis, probe, signal):
            curve = trace_curve(phi, params, n_samples=int(alpha / WINDING_STEP) + 2)
            closest = min(_closest_approach(curve.probe_ratio), _closest_approach(curve.signal_ratio))
            if closest < WINDING_SKIP_BELOW:
                skipped += 1
                continue
            ref_p, ref_s = (phase[-1] for phase in unwrapped_phase(curve))
            assert got_p == pytest.approx(ref_p, abs=1e-12), (alpha, delta, phi)
            assert got_s == pytest.approx(ref_s, abs=1e-12), (alpha, delta, phi)
            widest = max(widest, abs(ref_p), abs(ref_s))
            checked += 1
    # The skipped paths pass within 2e-8 of a field zero, where the phase is
    # undefined: the exact jump phases at and above the critical depth
    # (2 phases x 3 detunings x 2 depths), and phi_r = pi at delta in
    # {-0.7, 0, 1} and alpha in {100, 200}, where the decaying term falls
    # towards the ~6e-17 non-decaying weight that rounding pi leaves.
    assert skipped == 18
    assert checked == 576
    assert widest > 4.0 * np.pi


@pytest.mark.filterwarnings("error")
def test_accumulated_phase_trivial_loop_phases():
    phis = np.array([0.0, np.pi])
    probe, signal = accumulated_phase(30.0, 0.0, phis)
    # phi_r = 0 (b = 0): the medium is transparent and every phase is 0.
    assert probe[0] == 0.0 and signal[0] == 0.0
    # phi_r = pi on resonance: real decay, up to the 6e-17 left of a by
    # rounding pi, against |b|*e^{-15} = 3e-7.
    assert abs(probe[1]) < 1e-9 and abs(signal[1]) < 1e-9
    # Zero depth starts every branch at 0.
    assert np.allclose(accumulated_phase(0.0, 7.0, np.linspace(0.0, 6.0, 7)), 0.0, atol=1e-15)


def test_trace_curve_resonant_opaque_is_real_decay():
    params = MediumParams(alpha=100.0, delta=0.0)
    curve = trace_curve(np.pi, params, n_samples=200)
    assert np.max(np.abs(curve.probe_ratio.imag)) < 1e-12
    expected = np.exp(-0.5 * curve.zeta_grid)
    assert np.max(np.abs(curve.probe_ratio.real - expected)) < 1e-12


def test_trace_curve_general_path_matches_balanced():
    alpha, delta, phi_r = 40.0, 8.0, 2.3
    params = MediumParams(
        alpha=alpha, delta=delta, omega_c=1.0, omega_d=np.exp(1j * phi_r)
    )
    incident = FieldPair(0.01, 0.01)
    general = trace_curve(0.0, params, n_samples=64, incident=incident)
    balanced = trace_curve(phi_r, MediumParams(alpha=alpha, delta=delta), n_samples=64)
    assert np.max(np.abs(general.probe_ratio - balanced.probe_ratio)) < 1e-12
    assert np.max(np.abs(general.signal_ratio - balanced.signal_ratio)) < 1e-12


def test_trace_curve_input_validation():
    params = MediumParams(alpha=10.0)
    with pytest.raises(ValueError, match="n_samples"):
        trace_curve(1.0, params, n_samples=1)
    imbalanced = MediumParams(alpha=10.0, omega_c=1.0, omega_d=0.3)
    with pytest.raises(ValueError, match="incident"):
        trace_curve(1.0, imbalanced)
    with pytest.raises(ValueError, match="nonzero incident"):
        trace_curve(1.0, params, incident=FieldPair(0.01, 0.0))


def test_transmission_and_phase_examples():
    assert transmission_and_phase(1.0 + 0.0j) == (1.0, 0.0)
    t, phase = transmission_and_phase(np.exp(-10.0) + 0.0j)
    assert t == pytest.approx(np.exp(-20.0), rel=1e-12)
    assert phase == 0.0
    t, phase = transmission_and_phase(0.0867 - 0.0508j)
    assert t == pytest.approx(0.0101, abs=2e-4)
    assert phase == pytest.approx(-0.530, abs=2e-3)
    with pytest.raises(ZeroFieldError):
        transmission_and_phase(1e-12 + 0.0j)


def test_field_gradient_matches_coherence_sources():
    # The zeta derivative of the traced fields must reproduce the local
    # steady coherence sources, converging at second order in the step.
    alpha, delta, phi_r, amp = 20.0, 3.0, 2.5, 0.01
    params, incident = balanced_realization(alpha, delta, phi_r, amp)

    def max_defect(n_samples):
        curve = trace_curve(0.0, params, n_samples=n_samples, incident=incident)
        probe = amp * curve.probe_ratio
        signal = amp * curve.signal_ratio
        h = curve.zeta_grid[1] - curve.zeta_grid[0]
        worst = 0.0
        for k in range(1, len(curve) - 1, 7):
            state = coherences_steady(params, FieldPair(probe[k], signal[k]))
            dp = (probe[k + 1] - probe[k - 1]) / (2 * h)
            ds = (signal[k + 1] - signal[k - 1]) / (2 * h)
            worst = max(
                worst,
                abs(dp - 0.5j * state.rho31) / amp,
                abs(ds - 0.5j * state.rho41) / amp,
            )
        return worst

    coarse, fine = max_defect(201), max_defect(401)
    assert coarse < 1e-4
    assert coarse / fine > 3.5
