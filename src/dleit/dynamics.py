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

That scheme is linear and time-invariant, so a run that needs only the
terminal outputs has two routes to the same numbers:

- the stepper, the loop above, run whenever maps are stored and as the
  fallback of the other route;
- the spectral route, its discrete-exact z-domain twin.  The update
  x_k = P x_{k-1} + S' f_{k-1} gives X(z) = (zI - P)^-1 S' F(z); with K(z)
  its driving rows and a = (i/4) dzeta, one trapezoid segment maps
  F_{j-1} to F_j = (I - aK)^-1 (I + aK) F_{j-1}, and the terminal output is
  that transfer to the power n_z - 1 applied to the boundary waveform.  It
  is evaluated on a zero-padded FFT grid of a power of two >= 2 (n_steps + 1)
  samples, with no time steps, numpy only; runs that would need more than
  _SPECTRAL_MAX_SIZE samples stay on the stepper, which needs less memory.

The spectral route answers only when two checks pass.  Its certificate: the
periodized impulse response over the lags that the padding folds back onto
returned samples has an l1 norm of at most SPECTRAL_TAIL_BOUND; this
rejects instability, poles on the unit circle and responses that have not
decayed inside the padding.  Its transposed guard: the stepper checks every
INSTABILITY_CHECK_STRIDE-th step at every grid point; the twin checks every
step at every INSTABILITY_CHECK_STRIDE-th grid point and the last, against
the same bounds: first by the mean |F| and the mean max_i |R_i| |F| (R the
resolvent rows), which bound every sample, then, where those fail, exactly.
Before that walk, one whole-run bound, max(1, |hop|)^m |F_0| per frequency
for the m hops from the first to the last interior point, covers them all;
when it holds, only the last point is walked.  So the bounds set the cost,
never the route.  A non-finite transfer
function fails as well.  On any failure the stepper runs, so errors are
raised exactly as the stepper raises them.

The module also hosts the steady-state amplification analytics: for
balanced drives the terminal ratio of either weak field is the sum of a
non-decaying and a decaying mode weight, and the loop phase aligning the
two maximizes the output energy.
"""

from __future__ import annotations

import cmath
import functools
import logging
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
    _adjugate,
    _check_balanced,
    _decay_kernel,
    _field_ratio,
    _mode_weights,
    _obe_matrix,
    decay_factor,
    propagate_general,
)

#: Default smoothing time of pulse edges, in 1/Gamma.  Hard discontinuities
#: excite transients that obscure the steady plateau.
DEFAULT_RISE_TIME = 2.0

#: Steps between instability checks inside the main loop.
INSTABILITY_CHECK_STRIDE = 25

#: A field exceeding this multiple of the peak input aborts the run.
FIELD_BLOWUP_FACTOR = 10.0

#: Largest wrap-zone l1 norm of the spectral route's impulse response: the
#: share of the peak input that its zero padding may fold back onto an output.
SPECTRAL_TAIL_BOUND = 1e-10

#: Frequencies per block of the spectral route's transfer powers.  Best of 40
#: `_segment_powers` at n_z 3200, L 8192, blocks of 256 to 8192: 5.1, 3.4, 2.6,
#: 2.2, 1.8, 1.9 ms; traced peak 1.3, 1.8, 2.5 MiB at 1024, 4096, 8192.
_SPECTRAL_BLOCK = 4096

#: Hop products the spectral guard's walk may take before its whole-run
#: bound is tried first.  The bound costs about 4 walked grid points: 377 us
#: against 95 us per point at 8192 frequencies, 111 against 28 at 2048
#: (numpy 2.4, 2-vCPU Xeon).
_RUN_BOUND_HOPS = 4

#: Longest FFT the spectral route takes on.  A first run's arrays peak near
#: 350 bytes per sample (92 MB here), several times the stepper's per-step
#: storage, so longer runs go to the stepper.
_SPECTRAL_MAX_SIZE = 1 << 18

PULSE_KINDS = ("square", "smoothed_square", "gaussian", "cw")

_log = logging.getLogger(__name__)


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
    dt up to t_final (both in 1/Gamma).  Coarse grids can make a passive
    medium gain energy, unchecked: alpha = 200, Omega_d = 1e-6 and a
    gaussian probe on [0, 20] pass 1.83 of its energy at n_z = 400,
    dt = 0.2, and 0.166 at dt = 0.05 (1.83 at n_z = 1600, dt = 0.2).
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
    of the augmented 6x6 block matrix.  The closed form S = A^-1 (P - I)
    would lose S to cancellation at small dt, where P - I ~ dt A.
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


@functools.lru_cache(maxsize=4)
def _unit_circle(size: int) -> np.ndarray:
    """u = z - 1 at z_m = exp(2 pi i m / size), numpy's FFT sign, in a form
    exact near z = 1, where a CW response lives."""
    theta = (2.0 * math.pi / size) * np.arange(size)
    u = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
    u.setflags(write=False)
    return u


def _segment_powers(drive_rows: np.ndarray, dzeta: float, exponents: tuple[int, ...]) -> list:
    """(I + E)^p for each p, as (2, 2, L) stacks: one trapezoid segment's transfer, raised.

    The segment solves (I - aK) F_j = (I + aK) F_{j-1}, with a = (i/4) dzeta
    and K = `drive_rows`, the resolvent's driving rows.  Its transfer is
    I + E with E = 2 (I - aK)^-1 aK = 2 (aK - det(aK) I) / det(I - aK).
    Frequencies go through in blocks, so the temporaries scale with the
    block, not with L.
    """
    size = drive_rows.shape[-1]
    powers = [np.empty((2, 2, size), dtype=complex) for _ in exponents]
    for lo in range(0, size, _SPECTRAL_BLOCK):
        block = slice(lo, lo + _SPECTRAL_BLOCK)
        _block_powers(drive_rows[..., block], dzeta, exponents, [power[..., block] for power in powers])
    return powers


def _block_powers(rows: np.ndarray, dzeta: float, exponents: tuple[int, ...], outs: list) -> None:
    """One block of `_segment_powers` into `outs`; E is formed in outs[0], written last."""
    e = np.multiply(0.25j * dzeta, rows, out=outs[0])
    cross = e[0, 0] * e[1, 1]
    cross -= e[0, 1] * e[1, 0]
    e[0, 0] -= cross
    e[1, 1] -= cross
    scale = 1.0 - e[0, 0]
    scale -= e[1, 1]
    scale -= cross
    e *= np.divide(2.0, scale, out=scale)
    trace = np.add(e[0, 0], e[1, 1], out=scale)
    det = np.multiply(e[0, 0], e[1, 1], out=cross)
    det -= e[0, 1] * e[1, 0]
    for out, (a, b) in reversed(list(zip(outs, _powers(trace, det, exponents)))):
        np.multiply(b, e, out=out)
        out[0, 0] += a
        out[1, 1] += a


def _powers(trace: np.ndarray, det: np.ndarray, exponents: tuple[int, ...]) -> list:
    """(a_p, b_p) with (I + E)^p = a_p I + b_p E for each p >= 1, by repeated squaring.

    E is a stack of 2x2 matrices given by its trace and determinant: every
    power of I + E is a polynomial in E, reduced to degree 1 by Cayley-Hamilton,
    E^2 = tr(E) E - det(E) I.  So a product costs a few ops on two arrays, and
    a square step, (a, b)^2 = (a^2 - det b^2, 2ab + tr b^2), one op fewer.
    """
    results = [None] * len(exponents)
    base, bit = (1.0, 1.0), 1
    while True:
        for i, p in enumerate(exponents):
            if p & bit:
                results[i] = base if results[i] is None else _times(results[i], base, trace, det)
        bit <<= 1
        if bit > max(exponents):
            return results
        base = _square(base, trace, det)


def _times(x: tuple, y: tuple, trace: np.ndarray, det: np.ndarray) -> tuple:
    """(a1 I + b1 E)(a2 I + b2 E) in the same degree-1 form."""
    (a1, b1), (a2, b2) = x, y
    bb = b1 * b2
    a = a1 * a2
    a -= det * bb
    b = a1 * b2
    b += a2 * b1
    b += trace * bb
    return a, b


def _square(x: tuple, trace: np.ndarray, det: np.ndarray) -> tuple:
    """`_times(x, x, ...)`, bit for bit: a1 b2 + a2 b1 as ab + ab."""
    a, b = x
    bb = b * b
    ab = a * b
    ab += ab
    ab += trace * bb
    aa = a * a
    aa -= det * bb
    return aa, ab


def _apply(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Per-frequency product of a (..., 2, L) stack with a (2, L) stack."""
    product = matrix[..., 0, :] * vector[0]
    for row, coupling in zip(product, matrix[..., 1, :]):
        row += coupling * vector[1]
    return product


def _guard_gain(resolvent: np.ndarray) -> np.ndarray:
    """max_i |R_ik| for each driving column k, shape (2, L): per frequency,
    every |R_i F| is at most gain . |F|."""
    gain = np.abs(resolvent[0])
    for row in resolvent[1:]:
        np.maximum(gain, np.abs(row), out=gain)
    return gain


def _guard_bounds(gain: np.ndarray, fields: np.ndarray) -> tuple[float, float]:
    """Bounds on every sample of R F and of F for a (2, L) spectrum F: the mean |DFT|."""
    magnitude = np.abs(fields)
    size = fields.shape[-1]
    return gain.reshape(-1) @ magnitude.reshape(-1) / size, magnitude.sum(axis=1).max() / size


def _run_bounds(gain: np.ndarray, hop: np.ndarray, spectrum: np.ndarray, hops: int):
    """Bounds on every sample of R F and of F at once, for all F = hop^m `spectrum`
    with 0 <= m <= `hops`: per frequency, in 2-norms, |F| <= max(1, |hop|)^hops
    |spectrum| and every |R_i F| <= |gain| |F|."""
    weight = _pair_norm(np.abs(spectrum))
    weight *= np.maximum(_norm_squared(hop), 1.0) ** (0.5 * hops)
    return _pair_norm(gain) @ weight / weight.size, weight.sum() / weight.size


def _pair_norm(pair: np.ndarray) -> np.ndarray:
    """Per-frequency 2-norm of a real (2, L) pair: a hypot that cannot underflow."""
    z = 1j * pair[1]
    z += pair[0]
    return np.abs(z)


def _norm_squared(hop: np.ndarray) -> np.ndarray:
    """|hop|_2^2 per frequency, the top eigenvalue of hop hop^H = [[a, c], [c*, b]]:
    (a + b)/2 + sqrt(((a - b)/2)^2 + |c|^2), a sum free of cancellation."""
    a, b = ((np.abs(row) ** 2).sum(axis=0) for row in hop)
    cross = hop[1].conj()
    np.multiply(hop[0], cross, out=cross)
    c = np.abs(np.add(*cross, out=cross[0]))
    del cross
    half = 0.5 * (a - b)
    return 0.5 * (a + b) + np.sqrt(half * half + c * c)


def _resolvent(step: np.ndarray, source: np.ndarray, size: int) -> np.ndarray:
    """(z I - P)^-1 S' at the `size` FFT points z of the unit circle, shape (3, 2, size).

    It equals adj(u I + Q) S' / det(u I + Q), with u = z - 1, Q = I - P and
    S' = (i/2) S[:, :2]: a quadratic over a cubic in u, by Cayley-Hamilton.
    """
    u = _unit_circle(size)
    q = np.eye(3) - step
    drive = 0.5j * source[:, :2]
    adj_q, c3 = _adjugate(q)
    c1, c2 = q.trace(), adj_q.trace()
    lin, const = c1 * drive - q @ drive, adj_q @ drive
    resolvent = drive[..., None] * u
    resolvent += lin[..., None]
    resolvent *= u
    resolvent += const[..., None]
    resolvent /= ((u + c1) * u + c2) * u + c3
    return resolvent


def _spectral_outputs(
    step: np.ndarray,
    source: np.ndarray,
    inputs: np.ndarray,
    dzeta: float,
    n_z: int,
    field_bound: float,
) -> tuple[np.ndarray | None, str]:
    """Terminal (signal, probe) outputs of the stepper's scheme, from its z-domain twin.

    `inputs` holds the (signal, probe) boundary samples, shape (2, n).  Returns
    the (2, n) outputs and "", or None and the failed check: an FFT longer
    than _SPECTRAL_MAX_SIZE, a non-finite transfer function, the certificate
    tail, or the guard's grid point.
    """
    n = inputs.shape[1]
    size = 1 << (2 * n - 1).bit_length()
    if size > _SPECTRAL_MAX_SIZE:
        return None, f"FFT length {size} over {_SPECTRAL_MAX_SIZE}"
    with np.errstate(all="ignore"):
        resolvent = _resolvent(step, source, size)
        stride = INSTABILITY_CHECK_STRIDE
        hop, total = _segment_powers(resolvent[:2], dzeta, (stride, n_z - 1))
        # Certificate: the periodized impulse response over the wrap zone,
        # the lags that the zero padding folds back onto returned samples.
        # One row of the stack at a time halves the temporaries.
        tail = np.max([np.abs(np.fft.ifft(row)[:, size - n + 1:]).sum() for row in total])
        if not math.isfinite(tail):
            return None, "non-finite transfer function"
        if not tail <= SPECTRAL_TAIL_BOUND:
            return None, f"certificate tail {tail:.3g}"
        spectrum = np.fft.fft(inputs, size)
        terminal = _apply(total, spectrum)
        del total  # released before the guard, whose arrays set the peak memory
        # Transposed guard: the stepper's bounds at every time step of every
        # stride-th grid point and the last.  A point within the mean-|DFT|
        # bounds passes the exact check too, so only the others pay for an
        # inverse FFT; written so that NaN fails as well as overflow.  When
        # one whole-run bound covers every interior point at once, only the
        # last is walked.
        gain = _guard_gain(resolvent)
        points, hops = [*range(0, n_z - 1, stride), n_z - 1], (n_z - 2) // stride
        if hops > _RUN_BOUND_HOPS:
            rho_peak, field_peak = _run_bounds(gain, hop, spectrum, hops)
            if rho_peak <= 1.0 and field_peak <= field_bound:
                points = [n_z - 1]
        fields = spectrum
        for point in points:
            if point == n_z - 1:
                fields = terminal
            elif point:
                fields = _apply(hop, fields)
            rho_peak, field_peak = _guard_bounds(gain, fields)
            if rho_peak <= 1.0 and field_peak <= field_bound:
                continue
            rho_peak = np.abs(np.fft.ifft(_apply(resolvent, fields))[:, :n]).max()
            field_peak = np.abs(np.fft.ifft(fields)[:, :n]).max()
            if not (rho_peak <= 1.0 and field_peak <= field_bound):
                return None, f"guard at grid point {point}"
        return np.fft.ifft(fields)[:, :n], ""


def _stepper(
    step: np.ndarray,
    source: np.ndarray,
    zeta: np.ndarray,
    times: np.ndarray,
    edges: np.ndarray,
    field_bound: float,
    store_maps: bool,
    map_stride: int,
) -> tuple[np.ndarray, dict]:
    """The split-step loop from the (signal, probe) boundary samples `edges`,
    shape (2, n_steps + 1): the outputs in the same layout, and the stored
    maps as `PulseSimResult` fields (empty without maps)."""
    n_steps, n_z = times.size - 1, zeta.size
    # Rows of the (5, n_z) state: rho41, rho31, rho21, signal, probe.  Rows
    # 0-1 are one flat 2 n_z block, so the rebuild's pair add and scale run
    # once over both; their one cross-row sum goes to the shared scratch's
    # last column, weighted 0, and is never read.  Two buffers alternate as
    # current and next state, each carried with its coherence rows, field
    # rows, rebuild and terminal column, so the loop slices nothing.  The
    # matmul by update = [P | (i/2) S[:, :2]] writes the next coherences.
    edges = edges.T[:, :, None]
    update = np.hstack([step, 0.5j * source[:, :2]])
    bufs = np.zeros((2, 5, n_z), dtype=complex)
    rebuilds = _field_rebuilds(bufs, zeta, np.empty((2, n_z), dtype=complex))
    cur, nxt = ((buf, buf[:3], buf[3:], rebuild, buf[3:, -1])
                for buf, rebuild in zip(bufs, rebuilds))
    state, coh, fields, rebuild, last = cur
    rebuild(edges[0])

    outputs = np.empty((2, n_steps + 1), dtype=complex).T  # rows (signal, probe) stay contiguous
    outputs[0] = last
    map_steps = np.append(np.arange(0, n_steps, map_stride), n_steps)
    states = np.empty((map_steps.size if store_maps else 0, 5, n_z), dtype=complex)
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

    if not store_maps:
        return outputs.T, {}
    return outputs.T, dict(map_times=times[map_steps], field_map_signal=states[:, 3],
                           field_map_probe=states[:, 4], coherence_map=states[:, :3])


def simulate(
    params: MediumParams,
    probe_pulse: PulseShape,
    signal_pulse: PulseShape,
    grid: SimGrid = SimGrid(),
    store_maps: bool = False,
    map_stride: int = 10,
) -> PulseSimResult:
    """Propagate a probe/signal pulse pair through the medium.

    With `store_maps`, the split-step loop runs: per time step the
    coherences at every grid point advance with the fields frozen, then both
    fields are re-integrated in zeta from the boundary waveforms.  It aborts
    with NumericalInstability when, at a checked step, any coherence
    magnitude exceeds 1 or a field grows beyond FIELD_BLOWUP_FACTOR times
    the peak input.

    Without maps, the terminal outputs come from the loop's z-domain twin:
    the same scheme evaluated exactly on a zero-padded FFT grid, with no
    time steps.  It answers only when its certificate (the impulse
    response folded back by the padding stays below SPECTRAL_TAIL_BOUND)
    and its transposed guard (the loop's bounds, at every time step of every
    INSTABILITY_CHECK_STRIDE-th grid point and the last, all interior
    ones at once by one whole-run bound where it holds) both pass;
    otherwise the loop runs and raises as above.  The two routes agree
    within 1e-9 of the peak input (1e-15 to 4e-11 measured, n_z 16 to
    3200), and both can gain energy on coarse grids (see `SimGrid`).  The
    chosen route, and a fallback's failed check, go to the
    "dleit.dynamics" logger at DEBUG level.
    """
    map_stride = _integer("map_stride", map_stride)
    if map_stride < 1:
        raise ValueError(f"map_stride must be >= 1, got {map_stride}")
    zeta = grid.zeta(params.alpha)
    times = grid.times()
    step, source = _propagators(
        params.delta, params.gamma21, params.omega_c, params.omega_d, grid.dt
    )

    input_probe = np.atleast_1d(probe_pulse.envelope(times))
    input_signal = np.atleast_1d(signal_pulse.envelope(times))
    peak_input = max(np.abs(input_probe).max(), np.abs(input_signal).max())
    field_bound = FIELD_BLOWUP_FACTOR * peak_input
    edges = np.stack([input_signal, input_probe])

    if store_maps:
        outputs, reason = None, "maps stored"
    else:
        outputs, reason = _spectral_outputs(
            step, source, edges, params.alpha / (grid.n_z - 1), grid.n_z, field_bound
        )
    if outputs is not None:
        _log.debug("simulate: spectral route")
        maps = {}
    else:
        _log.debug("simulate: stepper route (%s)", reason)
        outputs, maps = _stepper(
            step, source, zeta, times, edges, field_bound, store_maps, map_stride
        )
    output_signal, output_probe = outputs
    # Energy and centroid of all four waveforms, each a trapezoid over the
    # stack, squared and time-weighted in place.
    power = np.abs(np.stack((input_probe, input_signal, output_probe, output_signal)))
    power *= power
    energies = _trapezoid(power, times).tolist()
    power *= times
    moments = _trapezoid(power, times).tolist()
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
    base = _aligning_phase(decay_factor(alpha, delta))
    if field == "signal":
        return float(wrap_phase(base))
    if field == "probe":
        return float(wrap_phase(-base))
    raise ValueError(f"field must be 'probe' or 'signal', got {field!r}")


def _aligning_phase(env) -> float:
    """arg(a) - arg(c) for decay factor `env`: the signal phase aligning its mode weights."""
    dark, bright = _mode_weights(env)
    return float(np.angle(dark) - np.angle(bright))


def _working_point(alpha: float, delta: float) -> AmplificationResult:
    """Signal-optimal loop phase and both transmissions at a found detuning,
    all from one evaluation of the decay factor."""
    if alpha == 0.0:
        return AmplificationResult(0.0, math.nan, 0.0, 1.0, 1.0)
    env = decay_factor(alpha, delta)
    phi_opt = float(wrap_phase(_aligning_phase(env)))
    phase = np.exp(-1j * phi_opt)
    return AmplificationResult(
        alpha=float(alpha),
        delta_opt=delta,
        phi_r_opt=phi_opt,
        probe_transmission=float(abs(_field_ratio(env, phase)) ** 2),
        signal_transmission=float(abs(_field_ratio(env, np.conj(phase))) ** 2),
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
