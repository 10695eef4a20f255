"""Time-domain Maxwell-Bloch integrator for slow-light pulse pairs.

The first-order coherences at each grid point obey a linear ODE system with
a constant homogeneous matrix and a source given by the local weak fields;
the weak fields in turn obey propagation equations in zeta sourced by the
coherences (comoving frame, so 1/c time-of-flight terms drop out and never
enter the Gamma-unit formulation).

The integrator splits each time step: fields are frozen while every grid
point's coherences advance by an exact matrix-exponential update, then the
fields are rebuilt by trapezoidal integration in zeta from the incident
boundary values.  Coherences and fields share one C-contiguous (5, n_z)
state array: the frozen-field update is one (3, 5) matrix product per step,
and the rebuild reads both driving coherence rows as one flat block (its one
cross-row sum weighted 0, never read).  The splitting is first order in dt,
but the coherence update itself is exact, so there is no stiffness limit
from the detuning and the CW fixed point is independent of dt (its error
comes from the zeta quadrature alone).

The module also hosts the steady-state amplification analytics: for
balanced drives the terminal ratio of either weak field is the sum of a
non-decaying and a decaying mode weight, and the loop phase aligning the
two maximizes the output energy.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_DELTA_TOL,
    DEFAULT_SCAN_STEP,
    FieldPair,
    MediumParams,
    detuning_grid,
    refine_maxima,
    wrap_phase,
)
from .steady_state import (
    _check_balanced,
    _decay_kernel,
    _mode_weights,
    balanced_components,
    balanced_ratios,
    propagate_general,
)

#: Default smoothing time of pulse edges, in 1/Gamma.  Hard discontinuities
#: excite transients that obscure the steady plateau.
DEFAULT_RISE_TIME = 2.0

#: Steps between instability checks inside the main loop.
INSTABILITY_CHECK_STRIDE = 25

#: A field exceeding this multiple of the peak input aborts the run.
FIELD_BLOWUP_FACTOR = 10.0

PULSE_KINDS = ("square", "smoothed_square", "gaussian", "cw")


class NumericalInstability(RuntimeError):
    """The integrator state left the physically meaningful range."""


def _integer(name: str, value) -> int:
    """`value` as an int; ValueError for anything non-integral, floats included."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SimGrid:
    """Discretization of the simulation box.

    n_z spatial points span zeta in [0, alpha]; time advances in steps of
    dt up to t_final (both in 1/Gamma).
    """

    n_z: int = 200
    dt: float = 0.02
    t_final: float = 400.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_z", _integer("n_z", self.n_z))
        if self.n_z < 16:
            raise ValueError(f"n_z must be >= 16, got {self.n_z}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ValueError(f"t_final must be finite and >= dt, got {self.t_final}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def zeta(self, alpha: float) -> np.ndarray:
        return np.linspace(0.0, alpha, self.n_z)


@dataclass(frozen=True)
class PulseShape:
    """Incident boundary waveform of one weak field.

    Kinds: `square` (hard edges), `smoothed_square` (tanh edges of width
    rise_time), `gaussian` (centered in [t_on, t_off] with sigma a quarter
    of the window), and `cw` (switched on at t_on with an exponential ramp
    of time constant rise_time, never switched off).
    """

    kind: str
    amplitude: complex
    t_on: float = 0.0
    t_off: float = math.inf
    rise_time: float = DEFAULT_RISE_TIME

    def __post_init__(self) -> None:
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"kind must be one of {PULSE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if not math.isfinite(self.t_on):
            raise ValueError(f"t_on must be finite, got {self.t_on}")
        if not (math.isfinite(self.rise_time) and self.rise_time >= 0.0):
            raise ValueError(f"rise_time must be finite and >= 0, got {self.rise_time}")
        if self.kind != "cw" and not self.t_off > self.t_on:
            raise ValueError("pulses require t_off > t_on")
        if self.kind == "gaussian" and not math.isfinite(self.t_off):
            raise ValueError("gaussian pulses require a finite t_off")
        if self.kind == "smoothed_square" and self.rise_time == 0.0:
            raise ValueError("smoothed_square requires rise_time > 0")

    @classmethod
    def square(cls, amplitude: complex, t_on: float, t_off: float) -> "PulseShape":
        return cls("square", amplitude, t_on, t_off, rise_time=0.0)

    @classmethod
    def smoothed_square(
        cls,
        amplitude: complex,
        t_on: float,
        t_off: float,
        rise_time: float = DEFAULT_RISE_TIME,
    ) -> "PulseShape":
        return cls("smoothed_square", amplitude, t_on, t_off, rise_time)

    @classmethod
    def gaussian(cls, amplitude: complex, t_on: float, t_off: float) -> "PulseShape":
        return cls("gaussian", amplitude, t_on, t_off, rise_time=0.0)

    @classmethod
    def cw(
        cls,
        amplitude: complex,
        t_on: float = 0.0,
        rise_time: float = DEFAULT_RISE_TIME,
    ) -> "PulseShape":
        return cls("cw", amplitude, t_on, math.inf, rise_time)

    def envelope(self, t) -> np.ndarray:
        """Complex boundary amplitude at the given times (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "square":
            shape = ((t >= self.t_on) & (t < self.t_off)).astype(float)
        elif self.kind == "smoothed_square":
            shape = 0.25 * (1.0 + np.tanh((t - self.t_on) / self.rise_time)) * (
                1.0 + np.tanh((self.t_off - t) / self.rise_time)
            )
        elif self.kind == "gaussian":
            center = 0.5 * (self.t_on + self.t_off)
            sigma = 0.25 * (self.t_off - self.t_on)
            shape = np.exp(-0.5 * ((t - center) / sigma) ** 2)
        else:
            if self.rise_time == 0.0:
                shape = (t >= self.t_on).astype(float)
            else:
                shape = np.where(
                    t >= self.t_on,
                    1.0 - np.exp(-np.maximum(t - self.t_on, 0.0) / self.rise_time),
                    0.0,
                )
        return self.amplitude * shape


@dataclass(frozen=True)
class PulseSimResult:
    """Boundary and terminal waveforms of one run, with energy bookkeeping.

    Energy transmissions are time-integrated |field|^2 at zeta = alpha over
    the same integral at zeta = 0 (0 when the input carries no energy).
    Group delays are center-of-energy shifts between output and input (NaN
    when either waveform carries no energy).  When maps were requested,
    field_map_* have shape (n_saved, n_z) and coherence_map has shape
    (n_saved, 3, n_z) ordered (rho41, rho31, rho21); otherwise they are None.
    """

    time_grid: np.ndarray
    input_probe: np.ndarray
    input_signal: np.ndarray
    output_probe: np.ndarray
    output_signal: np.ndarray
    energy_transmission_probe: float
    energy_transmission_signal: float
    group_delay_probe: float
    group_delay_signal: float
    zeta_grid: np.ndarray
    map_times: np.ndarray | None = None
    field_map_probe: np.ndarray | None = None
    field_map_signal: np.ndarray | None = None
    coherence_map: np.ndarray | None = None


def _obe_matrix(
    delta: float, gamma21: float, omega_c: complex, omega_d: complex
) -> np.ndarray:
    """Homogeneous matrix of the coherence ODE in (rho41, rho31, rho21) order."""
    return np.array(
        [
            [1j * delta - 0.5, 0.0, 0.5j * omega_d],
            [0.0, -0.5, 0.5j * omega_c],
            [0.5j * np.conj(omega_d), 0.5j * np.conj(omega_c), -0.5 * gamma21],
        ],
        dtype=complex,
    )


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: the degree-18 Taylor series of a/2^s, squared s times.

    s is the fewest halvings that bring the 1-norm to 0.5 or below, where the
    series (summed in Horner form) is accurate to 0.5^19/19! ~ 1e-23 relative.
    """
    norm = np.abs(a).sum(axis=0).max()
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    scaled = a / 2.0**squarings
    result = eye = np.eye(a.shape[0], dtype=complex)
    for j in range(18, 0, -1):
        result = eye + (scaled / j) @ result
    for _ in range(squarings):
        result = result @ result
    return result


@functools.lru_cache(maxsize=128)
def _propagators(
    delta: float, gamma21: float, omega_c: complex, omega_d: complex, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step update pair (P, S) for the frozen-field coherence ODE.

    The state (rho41, rho31, rho21) advances as x -> P x + S b with source
    b = (i/2)(Omega_s, Omega_p, 0); both matrices come from one exponential
    of the augmented 6x6 block matrix, which handles a singular homogeneous
    matrix (gamma21 = 0) without special cases.
    """
    aug = np.zeros((6, 6), dtype=complex)
    aug[:3, :3] = _obe_matrix(delta, gamma21, omega_c, omega_d)
    aug[:3, 3:] = np.eye(3)
    exp_aug = _expm(aug * dt)
    step = exp_aug[:3, :3].copy()
    source = exp_aug[:3, 3:].copy()
    step.setflags(write=False)
    source.setflags(write=False)
    return step, source


def _field_rebuilds(states: np.ndarray, zeta: np.ndarray, scratch: np.ndarray) -> list:
    """One `rebuild(edge)` per C-contiguous (5, n_z) state of `states`: the
    trapezoid rebuild along `zeta` of field rows 3-4, in place, from the (2, 1)
    boundary values `edge` and coherence rows 0-1 read as one flat block.
    """
    weights = np.zeros(2 * zeta.size - 1, dtype=complex)
    weights[:zeta.size - 1] = weights[zeta.size:] = 0.25j * np.diff(zeta)
    flat, incr = scratch.reshape(-1)[:-1], scratch[:, :-1]
    add, multiply, accumulate = np.add, np.multiply, np.add.accumulate

    def bind(state: np.ndarray):
        drive = state[:2].reshape(-1)
        left, right, tail, head = drive[:-1], drive[1:], state[3:, 1:], state[3:, :1]

        def rebuild(edge: np.ndarray) -> None:
            add(left, right, flat)
            multiply(flat, weights, flat)
            accumulate(incr, 1, None, tail)
            add(tail, edge, tail)
            head[...] = edge

        return rebuild

    return [bind(state) for state in states]


def step_fields(
    coherences: np.ndarray, boundary: FieldPair, zeta_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild both weak fields along zeta from the coherence samples.

    `coherences` has shape (3, n_z) ordered (rho41, rho31, rho21); the probe
    gradient is (i/2)rho31 and the signal gradient (i/2)rho41, integrated
    by trapezoid from the incident boundary values.
    """
    coherences = np.asarray(coherences, dtype=complex)
    if coherences.ndim != 2 or coherences.shape[0] != 3:
        raise ValueError(f"coherences must have shape (3, n_z), got {coherences.shape}")
    n_z = coherences.shape[1]
    zeta_grid = np.asarray(zeta_grid, dtype=float)
    if zeta_grid.shape != (n_z,):
        raise ValueError(f"zeta_grid must have shape ({n_z},), got {zeta_grid.shape}")
    state = np.vstack([coherences, np.empty((2, n_z), dtype=complex)])
    (rebuild,) = _field_rebuilds([state], zeta_grid, np.empty((2, n_z), dtype=complex))
    rebuild(np.array([[boundary.omega_s], [boundary.omega_p]], dtype=complex))
    return state[4], state[3]


def _trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid rule over samples y(x) along the last axis."""
    pair = y[..., 1:] + y[..., :-1]
    pair *= np.diff(x)
    pair /= 2.0
    return pair.sum(axis=-1)


def _energy(series: np.ndarray, times: np.ndarray) -> float:
    return float(_trapezoid(np.abs(series) ** 2, times))


def _centroid(series: np.ndarray, times: np.ndarray) -> float:
    energy = _energy(series, times)
    if energy <= 0.0:
        return math.nan
    return float(_trapezoid(times * np.abs(series) ** 2, times)) / energy


def simulate(
    params: MediumParams,
    probe_pulse: PulseShape,
    signal_pulse: PulseShape,
    grid: SimGrid = SimGrid(),
    store_maps: bool = False,
    map_stride: int = 10,
) -> PulseSimResult:
    """Propagate a probe/signal pulse pair through the medium.

    Per time step the coherences at every grid point advance with the
    fields frozen, then both fields are re-integrated in zeta from the
    boundary waveforms.  Aborts with NumericalInstability when any
    coherence magnitude exceeds 1 or a field grows beyond
    FIELD_BLOWUP_FACTOR times the peak input.
    """
    map_stride = _integer("map_stride", map_stride)
    if map_stride < 1:
        raise ValueError(f"map_stride must be >= 1, got {map_stride}")
    zeta = grid.zeta(params.alpha)
    times = grid.times()
    n_steps = grid.n_steps
    step, source = _propagators(
        params.delta, params.gamma21, params.omega_c, params.omega_d, grid.dt
    )

    input_probe = np.atleast_1d(probe_pulse.envelope(times))
    input_signal = np.atleast_1d(signal_pulse.envelope(times))
    peak_input = max(np.abs(input_probe).max(), np.abs(input_signal).max())
    field_bound = FIELD_BLOWUP_FACTOR * peak_input

    # Rows of the (5, n_z) state: rho41, rho31, rho21, signal, probe.  Rows
    # 0-1 are one flat 2 n_z block, so the rebuild's pair add and scale run
    # once over both; their one cross-row sum goes to the shared scratch's
    # last column, weighted 0, and is never read.  Two buffers alternate as
    # current and next state, each carried with its coherence rows, field
    # rows, rebuild and terminal column, so the loop slices nothing.  The
    # matmul by update = [P | (i/2) S[:, :2]] writes the next coherences.
    edges = np.stack([input_signal, input_probe], axis=1)[:, :, None]
    update = np.hstack([step, 0.5j * source[:, :2]])
    bufs = np.zeros((2, 5, grid.n_z), dtype=complex)
    rebuilds = _field_rebuilds(bufs, zeta, np.empty((2, grid.n_z), dtype=complex))
    cur, nxt = ((buf, buf[:3], buf[3:], rebuild, buf[3:, -1])
                for buf, rebuild in zip(bufs, rebuilds))
    state, coh, fields, rebuild, last = cur
    rebuild(edges[0])

    outputs = np.empty((2, n_steps + 1), dtype=complex).T  # rows (signal, probe) stay contiguous
    outputs[0] = last
    map_steps = np.append(np.arange(0, n_steps, map_stride), n_steps)
    states = np.empty((map_steps.size if store_maps else 0, 5, grid.n_z), dtype=complex)
    if store_maps:
        states[0] = state

    for k in range(1, n_steps + 1):
        state, coh, fields, rebuild, last = nxt
        np.matmul(update, cur[0], out=coh)
        rebuild(edges[k])
        cur, nxt = nxt, cur
        outputs[k] = last
        if store_maps and (k % map_stride == 0 or k == n_steps):
            states[np.searchsorted(map_steps, k)] = state
        if k % INSTABILITY_CHECK_STRIDE == 0 or k == n_steps:
            # written so that NaN fails the test as well as overflow
            rho_peak = np.abs(coh).max()
            field_peak = np.abs(fields).max()
            if not (rho_peak <= 1.0 and field_peak <= field_bound):
                raise NumericalInstability(
                    f"aborted at t = {times[k]:.3f}: max |rho| = "
                    f"{rho_peak:.3g}, max |field| = {field_peak:.3g} "
                    f"(bound {field_bound:.3g})"
                )

    output_signal, output_probe = outputs.T
    maps = {}
    if store_maps:
        maps = dict(map_times=times[map_steps], field_map_signal=states[:, 3],
                    field_map_probe=states[:, 4], coherence_map=states[:, :3])
    # _energy and _centroid of all four waveforms, each a trapezoid over the stack.
    power = np.abs(np.stack((input_probe, input_signal, output_probe, output_signal))) ** 2
    energies = _trapezoid(power, times).tolist()
    moments = _trapezoid(times * power, times).tolist()
    centroids = [m / e if e > 0.0 else math.nan for e, m in zip(energies, moments)]
    e_in_probe, e_in_signal, e_out_probe, e_out_signal = energies
    t_probe = e_out_probe / e_in_probe if e_in_probe > 0 else 0.0
    t_signal = e_out_signal / e_in_signal if e_in_signal > 0 else 0.0
    delay_probe = centroids[2] - centroids[0]
    delay_signal = centroids[3] - centroids[1]

    return PulseSimResult(
        time_grid=times,
        input_probe=input_probe,
        input_signal=input_signal,
        output_probe=output_probe,
        output_signal=output_signal,
        energy_transmission_probe=t_probe,
        energy_transmission_signal=t_signal,
        group_delay_probe=delay_probe,
        group_delay_signal=delay_signal,
        zeta_grid=zeta,
        **maps,
    )


def steady_cw_output(params: MediumParams, boundary: FieldPair, zeta: float | None = None) -> FieldPair:
    """Steady CW output fields at `zeta` (default alpha), any gamma21 >= 0: `propagate_general`."""
    return propagate_general(params, boundary, params.alpha if zeta is None else zeta)


@dataclass(frozen=True)
class AmplificationResult:
    """Energy-optimal signal working point at one optical depth."""

    alpha: float
    delta_opt: float
    phi_r_opt: float
    probe_transmission: float
    signal_transmission: float


def peak_transmission(alpha: float, delta):
    """Best steady transmission of either weak field over the loop phase.

    Aligning the non-decaying and decaying mode weights gives
    (|1+E| + |1-E|)^2 / 4, identical for probe and signal.  Arrays of
    depths and detunings broadcast to one value per pair.  A negative or
    non-finite depth and any non-finite detuning raise ValueError.
    """
    _check_balanced(alpha, delta)
    return _peak_transmission(alpha, delta)


def _peak_transmission(depth, delta):
    """`peak_transmission` unchecked: the golden objective on inputs its caller validated."""
    dark, bright = _mode_weights(_decay_kernel(depth, delta))
    return (np.abs(dark) + np.abs(bright)) ** 2


def optimal_relative_phase(alpha: float, delta: float, field: str = "signal") -> float:
    """Loop phase maximizing the chosen field's steady transmission.

    The signal optimum aligns the decaying weight's phasor exp(+i*phi_r)
    with the non-decaying weight; the probe carries exp(-i*phi_r), so its
    optimum is the negative of the signal one.
    """
    dark, bright = balanced_components(alpha, delta)
    base = float(np.angle(dark) - np.angle(bright))
    if field == "signal":
        return float(wrap_phase(base))
    if field == "probe":
        return float(wrap_phase(-base))
    raise ValueError(f"field must be 'probe' or 'signal', got {field!r}")


def _working_point(alpha: float, delta: float) -> AmplificationResult:
    """Signal-optimal loop phase and both transmissions at a found detuning."""
    if alpha == 0.0:
        return AmplificationResult(0.0, math.nan, 0.0, 1.0, 1.0)
    phi_opt = optimal_relative_phase(alpha, delta, field="signal")
    probe, signal = balanced_ratios(alpha, delta, phi_opt)
    return AmplificationResult(
        alpha=float(alpha),
        delta_opt=delta,
        phi_r_opt=phi_opt,
        probe_transmission=float(abs(probe) ** 2),
        signal_transmission=float(abs(signal) ** 2),
    )


def amplification_sweep(
    alphas,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    scan_step: float = DEFAULT_SCAN_STEP,
    tol: float = DEFAULT_DELTA_TOL,
) -> list[AmplificationResult]:
    """Energy-optimal signal working points for each optical depth.

    The loop-phase maximization is analytic.  The detuning of every depth
    is located by one closed-form scan of the whole depth x detuning grid,
    and all scan maxima are refined together by one array golden-section
    loop.  alpha = 0 transmits both fields unchanged for every detuning,
    reported with delta_opt NaN.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    depths = np.array(alphas, dtype=float)
    invalid = ~(np.isfinite(depths) & (depths >= 0.0))
    # The first depth is checked before the detuning window, the rest after it.
    if invalid[0]:
        raise ValueError(f"alpha must be finite and >= 0, got {alphas[0]}")
    grid = detuning_grid(delta_range, scan_step, tol)
    if invalid.any():
        raise ValueError(f"alpha must be finite and >= 0, got {alphas[int(np.argmax(invalid))]}")
    deep = np.flatnonzero(depths > 0.0)
    scanned = _peak_transmission(depths[deep, None], grid)
    peaks = np.argmax(scanned, axis=1) + grid.size * np.arange(deep.size)
    deltas = np.full(depths.size, math.nan)
    deltas[deep] = refine_maxima(
        lambda d, a: _peak_transmission(a, d), grid, scanned, peaks, tol, args=(depths[deep],)
    )
    return [_working_point(alpha, delta) for alpha, delta in zip(alphas, deltas.tolist())]


def optimize_amplification(
    alpha: float,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    scan_step: float = DEFAULT_SCAN_STEP,
    tol: float = DEFAULT_DELTA_TOL,
) -> AmplificationResult:
    """Maximize steady signal transmission over detuning and loop phase.

    The one-depth case of `amplification_sweep`.
    """
    return amplification_sweep([alpha], delta_range, scan_step, tol)[0]
