"""Time-domain solver checks against closed forms and physical invariants."""

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from conftest import needs_scipy
from dleit import dynamics
from dleit.core import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_DELTA_TOL,
    DEFAULT_SCAN_STEP,
    FieldPair,
    MediumParams,
    detuning_grid,
)
from dleit.dynamics import (
    FIELD_BLOWUP_FACTOR,
    INSTABILITY_CHECK_STRIDE,
    PULSE_KINDS,
    SPECTRAL_TAIL_BOUND,
    AmplificationResult,
    NumericalInstability,
    PulseShape,
    SimGrid,
    _field_rebuilds,
    _propagators,
    _trapezoid,
    amplification_sweep,
    optimal_relative_phase,
    optimize_amplification,
    peak_transmission,
    simulate,
    steady_cw_output,
    step_fields,
)
from dleit.steady_state import (
    _field_ratio,
    balanced_components,
    coherences_steady,
    decay_factor,
    propagate_general,
)

AMP = 1e-3


def cw_pair(amplitude=AMP):
    return PulseShape.cw(amplitude), PulseShape.cw(amplitude)


def test_sim_grid_validation():
    with pytest.raises(ValueError):
        SimGrid(n_z=8)
    for bad in (16.5, 20.0):
        with pytest.raises(ValueError, match="n_z must be an integer"):
            SimGrid(n_z=bad)
    assert type(SimGrid(n_z=np.int64(20)).n_z) is int
    with pytest.raises(ValueError):
        SimGrid(dt=0.0)
    with pytest.raises(ValueError):
        SimGrid(dt=0.1, t_final=0.05)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SimGrid(dt=bad)
        with pytest.raises(ValueError):
            SimGrid(t_final=bad)
    grid = SimGrid(n_z=32, dt=0.05, t_final=5.0)
    assert grid.n_steps == 100
    times = grid.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(5.0)
    zeta = grid.zeta(12.0)
    assert zeta[0] == 0.0 and zeta[-1] == 12.0 and zeta.size == 32


def test_pulse_shape_validation():
    with pytest.raises(ValueError):
        PulseShape("triangle", 1.0)
    with pytest.raises(ValueError):
        PulseShape("square", 1.0, t_on=5.0, t_off=5.0)
    with pytest.raises(ValueError):
        PulseShape("cw", 1.0, rise_time=-1.0)
    with pytest.raises(ValueError):
        PulseShape("smoothed_square", 1.0, t_on=0.0, t_off=10.0, rise_time=0.0)


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@given(non_finite, st.sampled_from(["amplitude", "t_on", "rise_time"]))
def test_pulse_shape_rejects_non_finite_inputs(bad, field):
    kwargs = {"amplitude": 1.0, "t_on": 0.0, "t_off": 10.0, "rise_time": 1.0}
    kwargs[field] = bad
    for kind in PULSE_KINDS:
        with pytest.raises(ValueError):
            PulseShape(kind, **kwargs)


@given(non_finite, non_finite)
def test_pulse_shape_rejects_non_finite_complex_amplitude(re, im):
    for amplitude in (complex(re, 1.0), complex(1.0, im), complex(re, im)):
        with pytest.raises(ValueError):
            PulseShape.cw(amplitude)


def test_pulse_shape_allows_infinite_t_off_except_gaussian():
    assert PulseShape.cw(1.0).t_off == math.inf
    assert PulseShape.square(1.0, 0.0, math.inf).envelope(1e6) == 1.0
    with pytest.raises(ValueError):
        PulseShape.gaussian(1.0, 0.0, math.inf)
    with pytest.raises(ValueError):
        PulseShape("square", 1.0, t_on=0.0, t_off=math.nan)


def test_square_envelope_edges():
    pulse = PulseShape.square(2.0, 1.0, 3.0)
    t = np.array([0.5, 1.0, 2.9, 3.0, 4.0])
    assert pulse.envelope(t) == pytest.approx([0.0, 2.0, 2.0, 0.0, 0.0])


def test_smoothed_square_envelope():
    pulse = PulseShape.smoothed_square(1.0, 10.0, 210.0, rise_time=2.0)
    assert abs(pulse.envelope(110.0)) == pytest.approx(1.0, abs=1e-12)
    assert abs(pulse.envelope(-20.0)) < 1e-10
    assert abs(pulse.envelope(10.0)) == pytest.approx(0.5, abs=0.01)


def test_gaussian_envelope():
    pulse = PulseShape.gaussian(1.5, 0.0, 8.0)
    assert pulse.envelope(4.0) == pytest.approx(1.5)
    assert pulse.envelope(0.0) == pytest.approx(1.5 * np.exp(-2.0))
    assert pulse.envelope(8.0) == pytest.approx(1.5 * np.exp(-2.0))


def test_cw_envelope_ramp():
    pulse = PulseShape.cw(1.0, t_on=5.0, rise_time=2.0)
    assert pulse.envelope(4.0) == 0.0
    assert pulse.envelope(5.0) == 0.0
    assert pulse.envelope(7.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert pulse.envelope(1e4) == pytest.approx(1.0)
    step = PulseShape.cw(1.0, t_on=5.0, rise_time=0.0)
    assert step.envelope(5.0) == 1.0
    assert step.envelope(4.999) == 0.0


def test_complex_amplitude_scales_envelope():
    base = PulseShape.square(1.0, 0.0, 2.0)
    scaled = PulseShape.square(0.5j, 0.0, 2.0)
    t = np.linspace(0.0, 3.0, 7)
    assert scaled.envelope(t) == pytest.approx(0.5j * base.envelope(t))


def propagator_step(x, fields, params, dt):
    """One exact coherence update x -> P x + S b with b = (i/2)(Omega_s, Omega_p, 0)."""
    step, source = _propagators(params.delta, params.gamma21, params.omega_c, params.omega_d, dt)
    return step @ x + source @ (0.5j * np.array([fields.omega_s, fields.omega_p, 0.0]))


def test_propagator_update_zero_fixed_point():
    params = MediumParams(alpha=10.0, delta=1.0)
    out = propagator_step(np.zeros(3, dtype=complex), FieldPair(0.0, 0.0), params, 0.1)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("gamma21", [0.0, 0.1])
def test_propagator_update_relaxes_to_steady_state(gamma21):
    params = MediumParams(alpha=10.0, delta=0.3, gamma21=gamma21)
    fields = FieldPair(0.01, 0.005j)
    x = np.zeros(3, dtype=complex)
    # the dark-state transient at |omega_c| = |omega_d| = 1 decays at
    # roughly 0.25 Gamma, so t = 75 leaves it below 1e-9
    for _ in range(1500):
        x = propagator_step(x, fields, params, 0.05)
    ref = coherences_steady(params, fields).as_array()
    assert np.all(np.abs(x - ref) < 1e-8)


def test_step_fields_zero_coherences_keep_boundary():
    zeta = np.linspace(0.0, 5.0, 40)
    probe, signal = step_fields(
        np.zeros((3, 40), dtype=complex), FieldPair(0.3, -0.1j), zeta
    )
    assert np.all(probe == 0.3)
    assert np.all(signal == -0.1j)


def test_step_fields_shape_validation():
    zeta = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        step_fields(np.zeros((2, 8), dtype=complex), FieldPair(0.0, 0.0), zeta)


def test_step_fields_rejects_mismatched_zeta_grid():
    coherences = np.zeros((3, 8), dtype=complex)
    with pytest.raises(ValueError):
        step_fields(coherences, FieldPair(0.0, 0.0), np.linspace(0.0, 1.0, 2))


@needs_scipy
@pytest.mark.parametrize(
    "zeta",
    [
        np.linspace(0.0, 7.0, 50),
        np.cumsum(np.random.default_rng(3).uniform(0.01, 0.4, 50)) - 0.01,
    ],
    ids=["uniform", "non_uniform"],
)
def test_step_fields_matches_cumulative_trapezoid(zeta):
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(11)
    coherences = rng.normal(size=(3, zeta.size)) + 1j * rng.normal(size=(3, zeta.size))
    boundary = FieldPair(0.3 - 0.2j, 0.1j)
    probe, signal = step_fields(coherences, boundary, zeta)
    ref_probe = boundary.omega_p + cumulative_trapezoid(0.5j * coherences[1], zeta, initial=0.0)
    ref_signal = boundary.omega_s + cumulative_trapezoid(0.5j * coherences[0], zeta, initial=0.0)
    scale = max(np.abs(ref_probe).max(), np.abs(ref_signal).max())
    assert np.abs(probe - ref_probe).max() <= 1e-15 * scale
    assert np.abs(signal - ref_signal).max() <= 1e-15 * scale


@needs_scipy
@pytest.mark.parametrize(
    "zeta",
    [np.linspace(0.0, 7.0, 51), np.cumsum(np.random.default_rng(5).uniform(0.01, 0.4, 51))],
    ids=["uniform", "non_uniform"],
)
def test_field_rebuild_never_reads_the_cross_row_slot(zeta):
    # The flat pair add puts one sum across the two driving rows into the
    # scratch's last column, weighted 0; NaN seeded there, or in any other
    # scratch slot the rebuild leaves unwritten, must not reach the fields.
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(7)
    state = np.full((5, zeta.size), np.nan, dtype=complex)
    state[:3] = rng.normal(size=(3, zeta.size)) + 1j * rng.normal(size=(3, zeta.size))
    coherences = state[:3].copy()
    scratch = np.full((2, zeta.size), np.nan, dtype=complex)
    edge = np.array([[0.1j], [0.3 - 0.2j]])
    (rebuild,) = _field_rebuilds([state], zeta, scratch)
    rebuild(edge)
    assert np.array_equal(state[:3], coherences)
    for row, drive in ((3, 0), (4, 1)):
        ref = edge[row - 3, 0] + cumulative_trapezoid(0.5j * coherences[drive], zeta, initial=0.0)
        assert np.abs(state[row] - ref).max() <= 1e-15 * np.abs(ref).max()


def reference_states(params, probe_pulse, signal_pulse, grid):
    """The split-step scheme written plainly: one scipy quadrature per field.

    Returns every step's state, shape (n_steps + 1, 5, n_z), with rows
    (rho41, rho31, rho21, signal, probe).
    """
    from scipy.integrate import cumulative_trapezoid

    zeta = grid.zeta(params.alpha)
    times = grid.times()
    step, source = _propagators(
        params.delta, params.gamma21, params.omega_c, params.omega_d, grid.dt
    )
    input_probe = probe_pulse.envelope(times)
    input_signal = signal_pulse.envelope(times)
    x = np.zeros((3, grid.n_z), dtype=complex)
    states = np.empty((times.size, 5, grid.n_z), dtype=complex)
    for k in range(times.size):
        if k > 0:
            b = 0.5j * np.array([signal, probe, np.zeros(grid.n_z)])
            x = step @ x + source @ b
        probe = input_probe[k] + cumulative_trapezoid(0.5j * x[1], zeta, initial=0.0)
        signal = input_signal[k] + cumulative_trapezoid(0.5j * x[0], zeta, initial=0.0)
        states[k, :3], states[k, 3], states[k, 4] = x, signal, probe
    return states


REFERENCE_CASES = pytest.mark.parametrize(
    "params, probe, signal",
    [
        (
            MediumParams(alpha=20.0, delta=5.0, omega_d=np.exp(2j)),
            PulseShape.cw(AMP),
            PulseShape.cw(AMP),
        ),
        (
            MediumParams(alpha=10.0, delta=1.0, gamma21=0.05, omega_d=np.exp(1j)),
            PulseShape.smoothed_square(AMP, 2.0, 12.0),
            PulseShape.square(0.5j * AMP, 1.0, 8.0),
        ),
    ],
    ids=["cw", "dephased_pulse"],
)


@needs_scipy
@pytest.mark.parametrize("n_z", [16, 64])
@REFERENCE_CASES
def test_simulate_matches_reference_loop(n_z, params, probe, signal):
    grid = SimGrid(n_z=n_z, dt=0.05, t_final=20.0)
    res = simulate(params, probe, signal, grid, store_maps=True)
    ref = reference_states(params, probe, signal, grid)
    assert np.abs(res.output_probe - ref[:, 4, -1]).max() <= 1e-15 * AMP
    assert np.abs(res.output_signal - ref[:, 3, -1]).max() <= 1e-15 * AMP


def debug_routes(caplog):
    """The route messages `simulate` logged to "dleit.dynamics"."""
    return [r.getMessage() for r in caplog.records if r.name == "dleit.dynamics"]


@needs_scipy
@pytest.mark.parametrize("n_z", [16, 64])
@REFERENCE_CASES
def test_spectral_route_matches_reference_loop(n_z, params, probe, signal, caplog):
    # t_final = 60 lets both cases' impulse responses settle inside the
    # padding, so the default route answers.  The cw case's slow near-dark
    # mode leaves the largest wrap residue: 4.3e-12 * AMP measured.
    caplog.set_level(logging.DEBUG, logger="dleit")
    grid = SimGrid(n_z=n_z, dt=0.05, t_final=60.0)
    res = simulate(params, probe, signal, grid)
    assert debug_routes(caplog) == ["simulate: spectral route"]
    ref = reference_states(params, probe, signal, grid)
    assert np.abs(res.output_probe - ref[:, 4, -1]).max() <= 1e-11 * AMP
    assert np.abs(res.output_signal - ref[:, 3, -1]).max() <= 1e-11 * AMP


@needs_scipy
@pytest.mark.parametrize("map_stride", [1, 7])
@REFERENCE_CASES
def test_simulate_maps_match_reference_loop(map_stride, params, probe, signal):
    # Every saved snapshot, interior grid points included, against the
    # plain loop: a stale or wrongly sliced state buffer errs by O(AMP).
    grid = SimGrid(n_z=64, dt=0.05, t_final=20.0)
    res = simulate(params, probe, signal, grid, store_maps=True, map_stride=map_stride)
    steps = [k for k in range(grid.n_steps + 1) if k % map_stride == 0 or k == grid.n_steps]
    ref = reference_states(params, probe, signal, grid)[steps]
    assert np.array_equal(res.map_times, grid.times()[steps])
    assert np.abs(res.coherence_map - ref[:, :3]).max() <= 1e-12 * AMP
    assert np.abs(res.field_map_signal - ref[:, 3]).max() <= 1e-12 * AMP
    assert np.abs(res.field_map_probe - ref[:, 4]).max() <= 1e-12 * AMP


def plain_fused_loop(params, probe_pulse, signal_pulse, grid, map_stride):
    """The fused stepper as first written: np.cumsum, slices taken inside the
    loop, and the edge added to the accumulated fields in a separate pass.

    The arithmetic and its order are those of `simulate`, so the two must
    agree bit for bit.  Returns the (signal, probe) outputs, shape
    (2, n_steps + 1), and the map steps with their (5, n_z) states.
    """
    zeta = grid.zeta(params.alpha)
    times = grid.times()
    step, source = _propagators(
        params.delta, params.gamma21, params.omega_c, params.omega_d, grid.dt
    )
    edges = np.stack([signal_pulse.envelope(times), probe_pulse.envelope(times)], axis=1)
    edges = edges[:, :, None]
    update = np.hstack([step, 0.5j * source[:, :2]])
    half_dz = 0.25j * np.diff(zeta)
    incr = np.empty((2, grid.n_z - 1), dtype=complex)

    def rebuild(state, edge, incr):
        np.add(state[:2, :-1], state[:2, 1:], out=incr)
        incr *= half_dz
        np.cumsum(incr, axis=1, out=state[3:, 1:])
        state[3:, 1:] += edge
        state[3:, :1] = edge

    cur, nxt = np.zeros((2, 5, grid.n_z), dtype=complex)
    rebuild(cur, edges[0], incr)
    outputs, steps, states = [cur[3:, -1].copy()], [0], [cur.copy()]
    for k in range(1, grid.n_steps + 1):
        np.matmul(update, cur, out=nxt[:3])
        rebuild(nxt, edges[k], incr)
        cur, nxt = nxt, cur
        outputs.append(cur[3:, -1].copy())
        if k % map_stride == 0 or k == grid.n_steps:
            steps.append(k)
            states.append(cur.copy())
    return np.array(outputs).T, np.array(steps), np.array(states)


def _energy(series: np.ndarray, times: np.ndarray) -> float:
    """Energy of one waveform, the oracle of `simulate`'s stacked trapezoids."""
    return float(_trapezoid(np.abs(series) ** 2, times))


def _centroid(series: np.ndarray, times: np.ndarray) -> float:
    """Center of energy of one waveform, NaN when it carries none."""
    energy = _energy(series, times)
    if energy <= 0.0:
        return math.nan
    return float(_trapezoid(times * np.abs(series) ** 2, times)) / energy


@pytest.mark.parametrize("map_stride", [1, 7])
@pytest.mark.parametrize("n_z", [16, 64, 200, 801])
@REFERENCE_CASES
def test_simulate_is_bit_identical_to_plain_fused_loop(n_z, map_stride, params, probe, signal):
    # The scipy reference allows 1e-15 * AMP, which a reordered sum can
    # pass; this pins the stepper's arithmetic order exactly.
    grid = SimGrid(n_z=n_z, dt=0.05, t_final=20.0)
    res = simulate(params, probe, signal, grid, store_maps=True, map_stride=map_stride)
    outputs, steps, states = plain_fused_loop(params, probe, signal, grid, map_stride)
    signal_out, probe_out = outputs
    times = grid.times()
    assert np.array_equal(res.output_signal, signal_out)
    assert np.array_equal(res.output_probe, probe_out)
    for out, inp, transmission, delay in (
        (probe_out, res.input_probe, res.energy_transmission_probe, res.group_delay_probe),
        (signal_out, res.input_signal, res.energy_transmission_signal, res.group_delay_signal),
    ):
        assert transmission == _energy(out, times) / _energy(inp, times)
        assert delay == _centroid(out, times) - _centroid(inp, times)
    assert np.array_equal(res.map_times, times[steps])
    assert np.array_equal(res.coherence_map, states[:, :3])
    assert np.array_equal(res.field_map_signal, states[:, 3])
    assert np.array_equal(res.field_map_probe, states[:, 4])


def test_simulate_map_snapshots_are_copies():
    params = MediumParams(alpha=5.0, delta=1.0, omega_d=np.exp(0.5j))
    res = simulate(
        params,
        PulseShape.cw(AMP),
        PulseShape.cw(0.5 * AMP),
        SimGrid(n_z=32, dt=0.05, t_final=5.0),
        store_maps=True,
        map_stride=7,
    )
    k = np.rint(res.map_times / 0.05).astype(int)
    assert np.array_equal(res.field_map_probe[:, -1], res.output_probe[k])
    assert np.array_equal(res.field_map_signal[:, -1], res.output_signal[k])
    assert np.array_equal(res.field_map_probe[:, 0], res.input_probe[k])
    for earlier, later in zip(res.coherence_map[:-1], res.coherence_map[1:]):
        assert np.any(earlier != later)


def stepper_run(params, probe, signal, grid):
    """The same run held on the stepper: storing maps keeps it there."""
    return simulate(params, probe, signal, grid, store_maps=True, map_stride=grid.n_steps)


def assert_bit_identical(res, ref):
    assert np.array_equal(res.output_probe, ref.output_probe)
    assert np.array_equal(res.output_signal, ref.output_signal)
    assert res.energy_transmission_probe == ref.energy_transmission_probe
    assert res.energy_transmission_signal == ref.energy_transmission_signal
    assert res.group_delay_probe == ref.group_delay_probe
    assert res.group_delay_signal == ref.group_delay_signal


def assert_twin_agrees(res, ref, t_final):
    """Terminal outputs within 1e-9 of the peak input, and the bookkeeping with them."""
    peak = max(np.abs(ref.input_probe).max(), np.abs(ref.input_signal).max())
    assert np.abs(res.output_probe - ref.output_probe).max() <= 1e-9 * peak
    assert np.abs(res.output_signal - ref.output_signal).max() <= 1e-9 * peak
    for field in ("probe", "signal"):
        energy = getattr(ref, f"energy_transmission_{field}")
        assert getattr(res, f"energy_transmission_{field}") == pytest.approx(energy, rel=1e-9, abs=1e-12)
        # a centroid moves by about t_final * (relative energy change)
        assert getattr(res, f"group_delay_{field}") == pytest.approx(
            getattr(ref, f"group_delay_{field}"), abs=1e-9 * t_final / min(1.0, energy)
        )


class RouteLog(logging.Handler):
    """Collects `simulate`'s route messages where pytest's caplog fixture cannot go."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logger = logging.getLogger("dleit")
        self.level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        logger = logging.getLogger("dleit")
        logger.removeHandler(self)
        logger.setLevel(self.level)


def pulse_of(kind, amplitude, t_on, width):
    if kind == "cw":
        return PulseShape.cw(amplitude, t_on)
    rise = 2.0 if kind == "smoothed_square" else 0.0
    return PulseShape(kind, amplitude, t_on, t_on + width, rise)


drive_magnitude = st.floats(min_value=0.5, max_value=2.0)


@given(
    kind=st.sampled_from(PULSE_KINDS),
    alpha=st.floats(min_value=0.0, max_value=40.0),
    delta=st.floats(min_value=-10.0, max_value=10.0),
    gamma21=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.2)),
    omega_c=drive_magnitude,
    omega_d=drive_magnitude,
    phi_r=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    n_z=st.integers(min_value=16, max_value=801),
    dt=st.floats(min_value=0.05, max_value=0.2),
    t_final=st.floats(min_value=100.0, max_value=200.0),
    t_on=st.floats(min_value=0.0, max_value=20.0),
    width=st.floats(min_value=5.0, max_value=60.0),
)
@settings(max_examples=30, deadline=None)
def test_default_route_matches_stepper(
    kind, alpha, delta, gamma21, omega_c, omega_d, phi_r, n_z, dt, t_final, t_on, width
):
    # Imbalanced drives, both gamma21 regimes and every pulse kind: the
    # twin answers within 1e-9 of the peak input (at most 3.6e-11 over 610
    # such draws), and a fallback is the stepper itself.
    params = MediumParams(alpha=alpha, delta=delta, gamma21=gamma21, omega_c=omega_c,
                          omega_d=omega_d * np.exp(1j * phi_r))
    probe = pulse_of(kind, AMP, t_on, width)
    signal = pulse_of(kind, 0.6j * AMP, t_on, width)
    grid = SimGrid(n_z=n_z, dt=dt, t_final=t_final)
    with RouteLog() as log:
        res = simulate(params, probe, signal, grid)
    ref = stepper_run(params, probe, signal, grid)
    if log.messages[0] == "simulate: spectral route":
        event("spectral route")
        assert_twin_agrees(res, ref, t_final)
    else:
        event("stepper fallback")
        assert_bit_identical(res, ref)


@pytest.mark.parametrize("kind", PULSE_KINDS)
@pytest.mark.parametrize(
    "params",
    [
        MediumParams(alpha=12.0, delta=3.0, omega_c=1.4, omega_d=0.8 * np.exp(2.5j)),
        MediumParams(alpha=25.0, delta=-6.0, gamma21=0.05, omega_c=0.9, omega_d=1.6j),
    ],
    ids=["imbalanced", "imbalanced_dephased"],
)
def test_spectral_route_answers_settled_runs(kind, params, caplog):
    caplog.set_level(logging.DEBUG, logger="dleit")
    probe, signal = pulse_of(kind, AMP, 5.0, 30.0), pulse_of(kind, -0.4j * AMP, 5.0, 30.0)
    grid = SimGrid(n_z=64, dt=0.1, t_final=150.0)
    res = simulate(params, probe, signal, grid)
    assert debug_routes(caplog) == ["simulate: spectral route"]
    assert_twin_agrees(res, stepper_run(params, probe, signal, grid), grid.t_final)


@pytest.fixture
def ifft_shapes(monkeypatch):
    """The shapes of the arrays that np.fft.ifft transforms during the test."""
    shapes = []
    ifft = np.fft.ifft

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    return shapes


def test_guard_samples_exactly_where_its_bound_fails(caplog, ifft_shapes):
    # At amplitude 0.8 the mean-|DFT| bound on |rho| exceeds 1 at every
    # checked grid point, so each point's coherences are inverse-transformed
    # and checked sample by sample; they stay below 1, and the twin answers.
    caplog.set_level(logging.DEBUG, logger="dleit")
    params, pulse = MediumParams(alpha=5.0), PulseShape.cw(0.8)
    grid = SimGrid(n_z=32, dt=0.05, t_final=60.0)
    res = simulate(params, pulse, pulse, grid)
    assert debug_routes(caplog) == ["simulate: spectral route"]
    assert ifft_shapes.count((3, 4096)) == 3  # grid points 0, 25 and 31
    assert_twin_agrees(res, stepper_run(params, pulse, pulse, grid), grid.t_final)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       log_size=st.integers(min_value=3, max_value=10),
       sparsity=st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_guard_bounds_dominate_every_sample(seed, log_size, sparsity):
    # For any resolvent rows R and spectra F, sparse and spanning six decades:
    # the coherence bound is at least each row's mean |R_i F| (the per-row
    # bound it replaced) and so at least every |IFFT| sample of R F; the field
    # bound is at least every sample of F.  One gain serves two spectra, as
    # it serves successive grid points.
    rng = np.random.default_rng(seed)
    size = 1 << log_size

    def draw(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z * (rng.random(shape) >= sparsity) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    resolvent = draw((3, 2, size))
    gain = dynamics._guard_gain(resolvent)
    for fields in (draw((2, size)), draw((2, size))):
        rho_bound, field_bound = dynamics._guard_bounds(gain, fields)
        coherences = resolvent[:, 0] * fields[0] + resolvent[:, 1] * fields[1]
        slack = 1.0 + 1e-12
        assert np.abs(coherences).sum(axis=1).max() / size <= rho_bound * slack
        assert np.abs(np.fft.ifft(coherences)).max() <= rho_bound * slack
        assert np.abs(np.fft.ifft(fields)).max() <= field_bound * slack


def test_weak_fields_pass_the_guard_without_sampling(caplog, ifft_shapes, monkeypatch):
    # A weak square pair at n_z = 800: the whole-run bound covers every
    # interior checked grid point, so the guard takes no per-point hop
    # product (the one product is the terminal's) and the last point passes
    # on its bounds.  The only inverse transforms are the certificate's and
    # the outputs', and no (3, L) coherence transform runs.
    caplog.set_level(logging.DEBUG, logger="dleit")
    products, apply = [], dynamics._apply
    monkeypatch.setattr(dynamics, "_apply", lambda m, v: products.append(m.shape) or apply(m, v))
    params = MediumParams(alpha=18.0, delta=2.0, gamma21=0.05, omega_d=np.exp(1j))
    pulse = PulseShape.square(AMP, 10.0, 210.0)
    simulate(params, pulse, pulse, SimGrid(n_z=800, dt=0.1, t_final=300.0))
    assert debug_routes(caplog) == ["simulate: spectral route"]
    assert products == [(2, 2, 8192)]
    assert ifft_shapes == [(2, 2, 8192), (2, 8192)]


def amplifying(alpha):
    """Balanced drives at the amplification optimum of depth `alpha`."""
    optimum = optimize_amplification(alpha)
    return MediumParams(alpha=alpha, delta=optimum.delta_opt, omega_d=np.exp(1j * optimum.phi_r_opt))


@given(
    alpha=st.floats(min_value=0.5, max_value=100.0),
    delta=st.floats(min_value=-10.0, max_value=10.0),
    omega_c=drive_magnitude,
    omega_d=drive_magnitude,
    phi_r=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    amplify=st.booleans(),
    n_z=st.integers(min_value=16, max_value=400),
    dt=st.floats(min_value=0.05, max_value=0.2),
    log_size=st.integers(min_value=6, max_value=11),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_run_bounds_dominate_every_checked_point(
    alpha, delta, omega_c, omega_d, phi_r, amplify, n_z, dt, log_size, seed
):
    # Real hops of gamma21 = 0 media, imbalanced or at an amplifying working
    # point, and sparse spectra spanning six decades: the whole-run bounds are
    # at least the mean-|DFT| bounds at every interior checked grid point
    # j = m * stride, and so at least every |IFFT| sample of F_j and R F_j.
    params = amplifying(alpha) if amplify else MediumParams(
        alpha=alpha, delta=delta, omega_c=omega_c, omega_d=omega_d * np.exp(1j * phi_r))
    step, source = _propagators(params.delta, 0.0, params.omega_c, params.omega_d, dt)
    size = 1 << log_size
    resolvent = dynamics._resolvent(step, source, size)
    (hop,) = dynamics._segment_powers(resolvent[:2], alpha / (n_z - 1), (INSTABILITY_CHECK_STRIDE,))
    rng = np.random.default_rng(seed)
    shape = (2, size)
    fields = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (
        rng.random(shape) >= rng.uniform(0.0, 0.95)) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    gain = dynamics._guard_gain(resolvent)
    hops = (n_z - 2) // INSTABILITY_CHECK_STRIDE
    # With a unit spectrum on one field the bounds are sums of max(1, |hop|)^hops,
    # against a numerical SVD: |hop| in closed form is good to a few ulps.
    growth = np.maximum(np.linalg.norm(hop.transpose(2, 0, 1), 2, axis=(1, 2)), 1.0) ** hops
    unit = np.zeros((2, size), dtype=complex)
    unit[1] = 1.0
    np.testing.assert_allclose(dynamics._run_bounds(gain, hop, unit, hops),
                               (np.hypot(*gain) @ growth / size, growth.mean()), rtol=1e-12)
    rho_run, field_run = (bound * (1.0 + 1e-12) for bound in dynamics._run_bounds(gain, hop, fields, hops))
    for _ in range(hops + 1):
        rho_bound, field_bound = dynamics._guard_bounds(gain, fields)
        assert rho_bound <= rho_run and field_bound <= field_run
        assert np.abs(np.fft.ifft(dynamics._apply(resolvent, fields))).max() <= rho_run
        assert np.abs(np.fft.ifft(fields)).max() <= field_run
        fields = dynamics._apply(hop, fields)


@pytest.mark.parametrize(
    "params, pulse, grid, route",
    [
        (lambda: MediumParams(alpha=18.0, delta=2.0, gamma21=0.05, omega_d=np.exp(1j)),
         PulseShape.square(AMP, 10.0, 210.0), SimGrid(n_z=800, dt=0.1, t_final=300.0),
         "simulate: spectral route"),
        (lambda: amplifying(40.0), PulseShape.smoothed_square(AMP, 10.0, 110.0),
         SimGrid(n_z=160, dt=0.1, t_final=200.0), "simulate: spectral route"),
        (lambda: MediumParams(alpha=5.0), PulseShape.cw(0.8),
         SimGrid(n_z=160, dt=0.05, t_final=60.0), "simulate: spectral route"),
        (lambda: amplifying(40.0), PulseShape.smoothed_square(1.0, 10.0, 110.0),
         SimGrid(n_z=160, dt=0.1, t_final=200.0), "simulate: stepper route (guard at grid point 0)"),
    ],
    ids=["weak", "amplifying", "sampled", "aborting"],
)
def test_failed_run_bound_walks_to_the_same_result(params, pulse, grid, route, monkeypatch):
    # The whole-run bound passes in the first two cases and fails in the
    # last two.  Forced to fail, it leaves the guard to walk every checked
    # grid point: the route, its DEBUG message, and the outputs or the
    # stepper's error are those of the normal run.
    params = params()

    def run():
        with RouteLog() as log:
            try:
                return log.messages, simulate(params, pulse, pulse, grid), None
            except NumericalInstability as exc:
                return log.messages, None, str(exc)

    calls, run_bounds = [], dynamics._run_bounds
    monkeypatch.setattr(dynamics, "_run_bounds", lambda *a: calls.append(a) or run_bounds(*a))
    messages, result, error = run()
    assert messages == [route] and len(calls) == 1
    monkeypatch.setattr(dynamics, "_run_bounds", lambda *a: (math.inf, math.inf))
    walked_messages, walked, walked_error = run()
    assert walked_messages == messages and walked_error == error
    if result is not None:
        assert_bit_identical(walked, result)


@given(
    kind=st.sampled_from(PULSE_KINDS),
    alpha=st.floats(min_value=1.0, max_value=10.0),
    delta=st.floats(min_value=-5.0, max_value=5.0),
    omega_c=st.floats(min_value=1.0, max_value=2.0),
    omega_d=st.floats(min_value=1.0, max_value=2.0),
    phi_r=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    probe_amp=st.floats(min_value=0.05, max_value=1.5),
    signal_amp=st.floats(min_value=0.05, max_value=1.5),
    n_z=st.integers(min_value=16, max_value=80),
)
# One draw per outcome: the twin answers after sampling, the guard falls back
# to a stepper that completes, and the stepper aborts.
@example(kind="cw", alpha=7.82, delta=-0.79, omega_c=1.26, omega_d=1.51, phi_r=2.54,
         probe_amp=1.19, signal_amp=0.49, n_z=77)
@example(kind="smoothed_square", alpha=3.61, delta=4.01, omega_c=1.42, omega_d=1.97,
         phi_r=5.31, probe_amp=1.46, signal_amp=0.93, n_z=45)
@example(kind="smoothed_square", alpha=9.65, delta=-3.15, omega_c=1.12, omega_d=1.21,
         phi_r=5.03, probe_amp=1.41, signal_amp=0.08, n_z=70)
@settings(max_examples=30, deadline=None)
def test_guard_decides_as_the_stepper_states_at_its_grid_points(
    kind, alpha, delta, omega_c, omega_d, phi_r, probe_amp, signal_amp, n_z
):
    # Amplitudes up to 1.5, where the mean-|DFT| bounds fail and the exact
    # per-sample checks decide.  Drives of 1-2 settle the response inside the
    # padding, so the certificate passes and the guard alone picks the route.
    # The oracle is the stepper's own state at every step (map_stride=1),
    # read at the guard's grid points: the twin answers exactly when every
    # one of them stays within the stepper's bounds, and otherwise falls back
    # at the first that does not.
    params = MediumParams(alpha=alpha, delta=delta, omega_c=omega_c,
                          omega_d=omega_d * np.exp(1j * phi_r))
    probe = pulse_of(kind, probe_amp, 5.0, 30.0)
    signal = pulse_of(kind, 1j * signal_amp, 5.0, 30.0)
    grid = SimGrid(n_z=n_z, dt=0.05, t_final=60.0)
    try:
        ref = simulate(params, probe, signal, grid, store_maps=True, map_stride=1)
    except NumericalInstability:
        event("stepper aborts")
        with RouteLog() as log, pytest.raises(NumericalInstability, match=r"^aborted at t = "):
            simulate(params, probe, signal, grid)
        (message,) = log.messages
        assert message.startswith("simulate: stepper route (guard at grid point ")
        return
    field_bound = FIELD_BLOWUP_FACTOR * max(np.abs(ref.input_probe).max(),
                                            np.abs(ref.input_signal).max())
    points = [*range(0, n_z - 1, INSTABILITY_CHECK_STRIDE), n_z - 1]
    rho = np.abs(ref.coherence_map[:, :, points]).max(axis=(0, 1))
    fields = np.maximum(np.abs(ref.field_map_probe[:, points]).max(axis=0),
                        np.abs(ref.field_map_signal[:, points]).max(axis=0))
    assume(np.all(np.abs(rho - 1.0) > 1e-6) and np.all(np.abs(fields / field_bound - 1.0) > 1e-6))
    failed = [point for point, r, f in zip(points, rho, fields) if not (r <= 1.0 and f <= field_bound)]
    with RouteLog() as log:
        res = simulate(params, probe, signal, grid)
    if failed:
        event("guard falls back")
        assert log.messages == [f"simulate: stepper route (guard at grid point {failed[0]})"]
        assert_bit_identical(res, stepper_run(params, probe, signal, grid))
    else:
        event("spectral route")
        assert log.messages == ["simulate: spectral route"]


def test_stored_maps_keep_the_stepper_route(caplog):
    caplog.set_level(logging.DEBUG, logger="dleit")
    probe, signal = cw_pair()
    simulate(MediumParams(alpha=5.0), probe, signal, SimGrid(n_z=16, dt=0.05, t_final=60.0),
             store_maps=True)
    assert debug_routes(caplog) == ["simulate: stepper route (maps stored)"]


def test_unsettled_response_falls_back_bit_identically(caplog):
    # A deep, near-dark medium over a short run: its impulse response is
    # still ringing where the zero padding wraps, so the certificate fails.
    caplog.set_level(logging.DEBUG, logger="dleit")
    params = MediumParams(alpha=20.0, delta=5.0, omega_d=np.exp(2j))
    probe, signal = cw_pair()
    grid = SimGrid(n_z=64, dt=0.05, t_final=20.0)
    res = simulate(params, probe, signal, grid)
    (message,) = debug_routes(caplog)
    assert message.startswith("simulate: stepper route (certificate tail ")
    assert float(message.split("tail ")[1].rstrip(")")) > SPECTRAL_TAIL_BOUND
    assert_bit_identical(res, stepper_run(params, probe, signal, grid))


def test_runs_past_the_longest_fft_keep_the_stepper(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="dleit")
    monkeypatch.setattr(dynamics, "_SPECTRAL_MAX_SIZE", 2048)
    probe, signal = cw_pair()
    params, grid = MediumParams(alpha=5.0), SimGrid(n_z=16, dt=0.05, t_final=60.0)
    res = simulate(params, probe, signal, grid)
    assert debug_routes(caplog) == ["simulate: stepper route (FFT length 4096 over 2048)"]
    assert_bit_identical(res, stepper_run(params, probe, signal, grid))


def test_singular_resolvent_falls_back_without_warnings(caplog):
    # With both drives off (injected past validation) and gamma21 = 0, rho21
    # never moves: P has the eigenvalue 1 and z I - P is singular at z = 1.
    caplog.set_level(logging.DEBUG, logger="dleit")
    params = MediumParams(alpha=5.0)
    object.__setattr__(params, "omega_c", 0j)
    object.__setattr__(params, "omega_d", 0j)
    probe, signal = cw_pair()
    grid = SimGrid(n_z=16, dt=0.05, t_final=60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate(params, probe, signal, grid)
    assert debug_routes(caplog) == ["simulate: stepper route (non-finite transfer function)"]
    assert_bit_identical(res, stepper_run(params, probe, signal, grid))


def test_spectral_route_gives_exact_zeros_for_zero_inputs(caplog):
    caplog.set_level(logging.DEBUG, logger="dleit")
    zero = PulseShape.square(0.0, 0.0, 2.0)
    res = simulate(MediumParams(alpha=5.0), zero, zero, SimGrid(n_z=16, dt=0.05, t_final=60.0))
    assert debug_routes(caplog) == ["simulate: spectral route"]
    assert np.all(res.output_probe == 0.0)
    assert np.all(res.output_signal == 0.0)
    assert res.energy_transmission_probe == 0.0
    assert math.isnan(res.group_delay_signal)


def test_simulate_zero_inputs_give_zero_outputs():
    zero = PulseShape.square(0.0, 0.0, 2.0)
    res = simulate(
        MediumParams(alpha=5.0), zero, zero, SimGrid(n_z=16, dt=0.05, t_final=5.0)
    )
    assert np.all(res.output_probe == 0.0)
    assert np.all(res.output_signal == 0.0)
    assert res.energy_transmission_probe == 0.0
    assert res.energy_transmission_signal == 0.0
    assert math.isnan(res.group_delay_probe)


def test_simulate_cw_matches_closed_form():
    params = MediumParams(alpha=20.0, delta=5.0, omega_d=np.exp(2j))
    probe, signal = cw_pair()
    res = simulate(params, probe, signal, SimGrid(n_z=200, dt=0.02, t_final=200.0))
    ref = propagate_general(params, FieldPair(AMP, AMP), 20.0)
    assert abs(res.output_probe[-1] - ref.omega_p) / abs(ref.omega_p) < 1e-3
    assert abs(res.output_signal[-1] - ref.omega_s) / abs(ref.omega_s) < 1e-3


def test_simulate_converges_at_second_order():
    params = MediumParams(alpha=20.0, delta=5.0, omega_d=np.exp(2j))
    probe, signal = cw_pair()
    ref = propagate_general(params, FieldPair(AMP, AMP), 20.0)

    def terminal_error(n_z, dt):
        res = simulate(params, probe, signal, SimGrid(n_z=n_z, dt=dt, t_final=200.0))
        return max(
            abs(res.output_probe[-1] - ref.omega_p),
            abs(res.output_signal[-1] - ref.omega_s),
        )

    assert terminal_error(100, 0.04) / terminal_error(200, 0.02) > 3.0


def test_simulate_dephased_cw_matches_adiabatic_route():
    params = MediumParams(alpha=10.0, delta=2.0, gamma21=0.02, omega_d=np.exp(1.2j))
    probe, signal = cw_pair()
    res = simulate(params, probe, signal, SimGrid(n_z=200, dt=0.02, t_final=200.0))
    ref = steady_cw_output(params, FieldPair(AMP, AMP))
    assert abs(res.output_probe[-1] - ref.omega_p) / abs(ref.omega_p) < 1e-4
    assert abs(res.output_signal[-1] - ref.omega_s) / abs(ref.omega_s) < 1e-4


def test_single_ladder_transparency_limit():
    # With the second loop arm switched off the probe sees plain EIT with
    # dephasing; the plateau follows exp(-alpha*gamma21/(gamma21 + |oc|^2)).
    params = MediumParams(alpha=20.0, delta=0.0, gamma21=0.01, omega_d=1e-6)
    res = simulate(
        params,
        PulseShape.cw(AMP),
        PulseShape.cw(0.0),
        SimGrid(n_z=200, dt=0.02, t_final=200.0),
    )
    plateau = abs(res.output_probe[-1] / AMP) ** 2
    expected = np.exp(-20.0 * 0.01 / 1.01)
    assert plateau == pytest.approx(expected, rel=1e-5)
    route = steady_cw_output(params, FieldPair(AMP, 0.0))
    assert abs(route.omega_p / AMP) ** 2 == pytest.approx(expected, rel=1e-6)


def test_simulate_is_linear_in_the_inputs():
    params = MediumParams(alpha=10.0, delta=3.0, omega_d=np.exp(0.7j))
    grid = SimGrid(n_z=64, dt=0.05, t_final=60.0)
    scale = 2.0 + 0.5j
    base = simulate(params, PulseShape.cw(AMP), PulseShape.cw(AMP), grid)
    scaled = simulate(
        params, PulseShape.cw(scale * AMP), PulseShape.cw(scale * AMP), grid
    )
    norm = np.abs(scaled.output_probe).max()
    assert np.abs(scaled.output_probe - scale * base.output_probe).max() < 1e-10 * norm
    assert np.abs(scaled.output_signal - scale * base.output_signal).max() < 1e-10 * norm


def test_dephasing_makes_the_medium_passive():
    params = MediumParams(alpha=10.0, delta=1.0, gamma21=0.05, omega_d=np.exp(1j))
    pulse = PulseShape.smoothed_square(AMP, 5.0, 60.0)
    res = simulate(params, pulse, pulse, SimGrid(n_z=64, dt=0.05, t_final=100.0))
    total = res.energy_transmission_probe + res.energy_transmission_signal
    assert total <= 2.0 + 1e-12


def test_transmission_decreases_with_dephasing():
    probe, signal = cw_pair()
    values = []
    for gamma in (0.0, 0.02, 0.1):
        params = MediumParams(alpha=10.0, delta=0.0, gamma21=gamma)
        res = simulate(params, probe, signal, SimGrid(n_z=64, dt=0.05, t_final=120.0))
        values.append(abs(res.output_probe[-1] / AMP) ** 2)
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert values[0] > values[1] + 0.01
    assert values[1] > values[2] + 0.01


def test_pulse_pair_reaches_amplified_plateau():
    # Long smoothed pulses at the optimal working point reach the steady
    # amplification level in the flat section while their energies lag it
    # because of the switch-on transient.
    opt = optimize_amplification(100.0)
    params = MediumParams(
        alpha=100.0, delta=opt.delta_opt, omega_d=np.exp(1j * opt.phi_r_opt)
    )
    pulse = PulseShape.smoothed_square(AMP, 10.0, 210.0)
    res = simulate(params, pulse, pulse, SimGrid(n_z=200, dt=0.02, t_final=300.0))
    k = int(round(190.0 / 0.02))
    plateau_signal = abs(res.output_signal[k] / res.input_signal[k]) ** 2
    plateau_probe = abs(res.output_probe[k] / res.input_probe[k]) ** 2
    assert plateau_signal == pytest.approx(opt.signal_transmission, rel=1e-3)
    assert plateau_probe == pytest.approx(opt.probe_transmission, rel=1e-2)
    assert res.energy_transmission_signal > 1.3
    assert math.isfinite(res.group_delay_signal)
    assert res.group_delay_signal > 0.0
    assert res.group_delay_probe != res.group_delay_signal


def assert_aborts_after_fallback(caplog, check, params, probe, signal, grid):
    """The run falls back on `check` and the stepper raises its own error."""
    caplog.set_level(logging.DEBUG, logger="dleit")
    with pytest.raises(NumericalInstability, match=r"^aborted at t = "):
        simulate(params, probe, signal, grid)
    (message,) = debug_routes(caplog)
    assert message.startswith(f"simulate: stepper route ({check}")


def test_simulate_aborts_on_strong_fields(caplog):
    strong = PulseShape.cw(50.0)
    assert_aborts_after_fallback(caplog, "certificate tail", MediumParams(alpha=10.0),
                                 strong, strong, SimGrid(n_z=32, dt=0.02, t_final=20.0))


def test_simulate_aborts_on_strong_fields_past_the_certificate(caplog):
    # A run long enough to certify: the transposed guard rejects it instead.
    strong = PulseShape.cw(50.0)
    assert_aborts_after_fallback(caplog, "guard at grid point 0", MediumParams(alpha=10.0),
                                 strong, strong, SimGrid(n_z=32, dt=0.05, t_final=60.0))


def test_simulate_aborts_on_nan_detuning(caplog):
    # construction rejects NaN, so inject it past the validation to check
    # that the stepper's own guard catches non-finite state
    params = MediumParams(alpha=5.0)
    object.__setattr__(params, "delta", math.nan)
    probe, signal = cw_pair()
    assert_aborts_after_fallback(caplog, "non-finite transfer function", params,
                                 probe, signal, SimGrid(n_z=16, dt=0.05, t_final=2.0))


def nan_input_pair(field):
    bad = PulseShape.cw(AMP)
    object.__setattr__(bad, "amplitude", complex(math.nan, 0.0))
    good = PulseShape.cw(AMP)
    return (bad, good) if field == "probe" else (good, bad)


@pytest.mark.parametrize("field", ["probe", "signal"])
def test_simulate_aborts_on_nan_input(field, caplog):
    assert_aborts_after_fallback(caplog, "certificate tail", MediumParams(alpha=5.0),
                                 *nan_input_pair(field), SimGrid(n_z=16, dt=0.05, t_final=2.0))


@pytest.mark.parametrize("field", ["probe", "signal"])
def test_simulate_aborts_on_nan_input_past_the_certificate(field, caplog):
    assert_aborts_after_fallback(caplog, "guard at grid point 0", MediumParams(alpha=5.0),
                                 *nan_input_pair(field), SimGrid(n_z=16, dt=0.05, t_final=60.0))


def test_simulate_map_storage():
    probe, signal = cw_pair()
    res = simulate(
        MediumParams(alpha=5.0),
        probe,
        signal,
        SimGrid(n_z=32, dt=0.05, t_final=5.0),
        store_maps=True,
        map_stride=7,
    )
    assert res.map_times.shape == (16,)
    assert res.field_map_probe.shape == (16, 32)
    assert res.field_map_signal.shape == (16, 32)
    assert res.coherence_map.shape == (16, 3, 32)
    assert res.map_times[0] == 0.0
    assert res.map_times[-1] == pytest.approx(5.0)
    off = simulate(
        MediumParams(alpha=5.0), probe, signal, SimGrid(n_z=32, dt=0.05, t_final=1.0)
    )
    assert off.field_map_probe is None


def test_simulate_rejects_bad_map_stride():
    # A non-integral stride must fail before any step, not at the map-time index.
    probe, signal = cw_pair()
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="map_stride"):
            simulate(
                MediumParams(alpha=5.0),
                probe,
                signal,
                SimGrid(n_z=32, dt=0.05, t_final=1.0),
                store_maps=True,
                map_stride=bad,
            )


def test_steady_cw_output_rejects_zeta_outside_medium():
    params = MediumParams(alpha=10.0)
    with pytest.raises(ValueError):
        steady_cw_output(params, FieldPair(1.0, 0.0), zeta=-1.0)
    with pytest.raises(ValueError):
        steady_cw_output(params, FieldPair(1.0, 0.0), zeta=11.0)


def test_peak_transmission_matches_phase_scan():
    for alpha, delta in ((100.0, 34.2), (50.0, 10.0), (20.0, 3.0)):
        dark, bright = balanced_components(alpha, delta)
        phis = np.linspace(0.0, 2.0 * np.pi, 20001)
        brute = np.max(np.abs(dark + bright * np.exp(1j * phis)) ** 2)
        peak = peak_transmission(alpha, delta)
        assert peak >= brute - 1e-12
        assert peak - brute < 1e-6


@given(alpha=st.floats(min_value=0.5, max_value=200.0))
@settings(max_examples=25)
def test_peak_transmission_scan_matches_scalar_loop(alpha):
    grid = detuning_grid(DEFAULT_DELTA_RANGE, DEFAULT_SCAN_STEP, DEFAULT_DELTA_TOL)
    scalar = np.array([peak_transmission(alpha, float(d)) for d in grid])
    np.testing.assert_allclose(peak_transmission(alpha, grid), scalar, rtol=0.0, atol=1e-12)


def test_optimal_relative_phase_attains_the_peak():
    alpha, delta = 100.0, 34.2
    dark, bright = balanced_components(alpha, delta)
    peak = peak_transmission(alpha, delta)
    phi_s = optimal_relative_phase(alpha, delta, "signal")
    phi_p = optimal_relative_phase(alpha, delta, "probe")
    assert abs(dark + bright * np.exp(1j * phi_s)) ** 2 == pytest.approx(peak)
    assert abs(dark + bright * np.exp(-1j * phi_p)) ** 2 == pytest.approx(peak)
    with pytest.raises(ValueError):
        optimal_relative_phase(alpha, delta, "coupling")


def test_optimize_amplification_zero_depth():
    res = optimize_amplification(0.0)
    assert math.isnan(res.delta_opt)
    assert res.phi_r_opt == 0.0
    assert res.probe_transmission == 1.0
    assert res.signal_transmission == 1.0


def test_optimize_amplification_operating_point():
    res = optimize_amplification(100.0)
    assert res.delta_opt == pytest.approx(34.25, abs=0.5)
    assert res.phi_r_opt == pytest.approx(4.7552, abs=0.01)
    assert res.signal_transmission == pytest.approx(1.91233, abs=1e-3)
    assert res.probe_transmission == pytest.approx(0.009516, abs=1e-4)
    fifty = optimize_amplification(50.0)
    assert fifty.signal_transmission == pytest.approx(1.84162, abs=1e-3)


def test_optimize_amplification_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimize_amplification(-1.0)
    with pytest.raises(ValueError):
        optimize_amplification(10.0, delta_range=(5.0, 5.0))


@given(non_finite)
def test_optimize_amplification_rejects_non_finite_inputs(bad):
    with pytest.raises(ValueError):
        optimize_amplification(bad)
    with pytest.raises(ValueError):
        optimize_amplification(10.0, delta_range=(0.5, bad))
    with pytest.raises(ValueError):
        optimize_amplification(10.0, delta_range=(bad, 60.0))
    with pytest.raises(ValueError):
        optimize_amplification(10.0, scan_step=bad)
    with pytest.raises(ValueError):
        optimize_amplification(10.0, tol=bad)


def test_amplification_sweep():
    results = amplification_sweep([50.0, 100.0])
    assert [r.alpha for r in results] == [50.0, 100.0]
    assert all(isinstance(r, AmplificationResult) for r in results)
    assert results[1].signal_transmission > results[0].signal_transmission
    with pytest.raises(ValueError):
        amplification_sweep([])


@given(alpha=st.floats(min_value=0.5, max_value=200.0), delta=st.floats(min_value=0.5, max_value=60.0))
def test_working_point_takes_one_decay_factor(alpha, delta):
    # The loop phase and both transmissions come from one evaluation of the
    # decay factor E: the phase is optimal_relative_phase's, and each
    # transmission is that of E's balanced ratio at it.  A second evaluation
    # by another numpy path differs in the last bit at about 3 points in 10.
    point = dynamics._working_point(alpha, delta)
    env = decay_factor(alpha, delta)
    phase = np.exp(-1j * point.phi_r_opt)
    assert point.phi_r_opt == optimal_relative_phase(alpha, delta, "signal")
    assert point.probe_transmission == abs(_field_ratio(env, phase)) ** 2
    assert point.signal_transmission == abs(_field_ratio(env, np.conj(phase))) ** 2


def test_amplification_sweep_reports_the_first_invalid_depth():
    with pytest.raises(ValueError, match="got -1.0"):
        amplification_sweep([50.0, -1.0, math.nan])
    # The first depth is checked before the detuning window, the rest after it.
    with pytest.raises(ValueError, match="alpha must be"):
        amplification_sweep([-1.0, 50.0], delta_range=(5.0, 5.0))
    with pytest.raises(ValueError, match="delta_range"):
        amplification_sweep([50.0, -1.0], delta_range=(5.0, 5.0))
