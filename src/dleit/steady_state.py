"""Closed-form steady-state solutions for the double-lambda medium.

The weak probe and signal obey a linear two-field propagation problem once
the atomic coherences are eliminated adiabatically.  This module evaluates
the resulting closed forms: the first-order coherences driven by a frozen
field pair, the general propagation solution for arbitrary drive magnitudes,
the compact balanced-case solution parameterized by the loop phase phi_r,
and transmission/phase extraction from terminal field ratios.

One optical-Bloch-equation matrix A (`_obe_matrix`) and one 3x3 inverse
(`_adjugate`) sit behind the coherences, the transfer matrix and the spectral
twin of `dleit.dynamics`, for any gamma21 >= 0.  One balanced-entry check
(`_require_phi_r_form`: gamma21 = 0, a finite phi_r, |Omega_c| = |Omega_d|)
guards the phi_r-parameterized entries `propagate_balanced` and `trace_curve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FieldPair, MediumParams

#: Magnitudes below this are treated as a vanished field for phase bookkeeping.
ZERO_FIELD_TOL = 1e-9

#: Default number of zeta samples when tracing a propagation curve.
DEFAULT_CURVE_SAMPLES = 2000


class ZeroFieldError(ValueError):
    """Phase requested at a point where the field has vanished."""


@dataclass(frozen=True)
class CoherenceState:
    """First-order density-matrix coherences at one grid point.

    Magnitudes are bounded by 0.5 for any physical density matrix; values
    beyond that indicate the inputs left the perturbative regime.
    """

    rho21: complex
    rho31: complex
    rho41: complex

    def __post_init__(self) -> None:
        for name in ("rho21", "rho31", "rho41"):
            object.__setattr__(self, name, complex(getattr(self, name)))
            if abs(getattr(self, name)) > 0.5:
                raise ValueError(
                    f"|{name}| > 0.5: fields are outside the perturbative regime"
                )

    def as_array(self) -> np.ndarray:
        """Coherences ordered (rho41, rho31, rho21), matching the dynamics state."""
        return np.array([self.rho41, self.rho31, self.rho21], dtype=complex)


@dataclass(frozen=True)
class PropagationCurve:
    """Complex field ratios Omega(zeta)/Omega(0) sampled along the medium."""

    zeta_grid: np.ndarray
    probe_ratio: np.ndarray
    signal_ratio: np.ndarray

    def __post_init__(self) -> None:
        zeta = np.asarray(self.zeta_grid, dtype=float)
        probe = np.asarray(self.probe_ratio, dtype=complex)
        signal = np.asarray(self.signal_ratio, dtype=complex)
        if not (zeta.shape == probe.shape == signal.shape) or zeta.ndim != 1:
            raise ValueError("curve arrays must be 1-D and of equal length")
        if zeta.size >= 2 and not np.all(np.diff(zeta) > 0.0):
            raise ValueError("zeta_grid must be strictly increasing")
        if probe[0] != 1.0 or signal[0] != 1.0:
            raise ValueError("field ratios must start at exactly 1")
        object.__setattr__(self, "zeta_grid", zeta)
        object.__setattr__(self, "probe_ratio", probe)
        object.__setattr__(self, "signal_ratio", signal)

    def __len__(self) -> int:
        return self.zeta_grid.size


def _require_phi_r_form(phi_r: float, params: MediumParams) -> None:
    """The one balanced-entry check: gamma21 = 0, finite phi_r and |Omega_c| = |Omega_d|."""
    if params.gamma21 != 0.0:
        raise ValueError("balanced closed form requires gamma21 = 0; for dephased media "
                         "use propagate_general or trace_curve(incident=...)")
    if not math.isfinite(phi_r):
        raise ValueError(f"phi_r must be finite, got {phi_r}")
    if not params.is_balanced:
        raise ValueError("balanced closed form requires |omega_c| = |omega_d|; for imbalanced "
                         "drives use propagate_general or trace_curve(incident=...)")


def _obe_matrix(delta: float, gamma21: float, omega_c: complex, omega_d: complex) -> np.ndarray:
    """Homogeneous matrix A of the coherence ODE in (rho41, rho31, rho21) order.

    Never singular: Re det A = -(gamma21 + |Omega_c|^2 + |Omega_d|^2)/8 < 0,
    as MediumParams rejects vanishing drives.
    """
    return np.array([[1j * delta - 0.5, 0.0, 0.5j * omega_d],
                     [0.0, -0.5, 0.5j * omega_c],
                     [0.5j * omega_d.conjugate(), 0.5j * omega_c.conjugate(), -0.5 * gamma21]])


def _adjugate(q: np.ndarray) -> tuple[np.ndarray, complex]:
    """Adjugate and determinant of a 3x3 matrix, by cofactors on Python scalars."""
    (a, b, c), (d, e, f), (g, h, i) = q.tolist()
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return np.array(adj), a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def coherences_steady(params: MediumParams, fields: FieldPair) -> CoherenceState:
    """Steady-state coherences driven by a frozen probe/signal pair, any gamma21 >= 0.

    The stationary point x = -adj(A) b / det A of dx/dt = A x + b, with
    b = (i/2)(Omega_s, Omega_p, 0).
    """
    adj, det = _adjugate(_obe_matrix(params.delta, params.gamma21, params.omega_c, params.omega_d))
    rho41, rho31, rho21 = adj[:, :2] @ [fields.omega_s, fields.omega_p] * (-0.5j / det)
    return CoherenceState(rho21=rho21, rho31=rho31, rho41=rho41)


def _check_balanced(alpha, delta) -> None:
    """The one depth and detuning check of the balanced closed forms' public entries."""
    if not (np.isfinite(alpha) & (np.asarray(alpha) >= 0.0)).all():
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not np.isfinite(delta).all():
        raise ValueError(f"delta must be finite, got {delta}")


def _decay_kernel(depth, delta):
    """Decaying-mode factor exp(-i*depth/(2*(i + delta))) at effective detuning delta."""
    return np.exp(-0.5j * depth / (1j + delta))


def _mode_weights(env):
    """Non-decaying and decaying mode weights (1 + E)/2 and (1 - E)/2 of a decay factor E."""
    return 0.5 * (1.0 + env), 0.5 * (1.0 - env)


def _field_ratio(env, phase):
    """One field's balanced ratio (1 + p)/2 + (1 - p)/2*E at loop phasor p and decay factor E."""
    return 0.5 * ((1.0 + phase) + (1.0 - phase) * env)


def decay_factor(alpha: float, delta):
    """Balanced-drive decaying-mode factor after the full medium length.

    Equals exp(-i*alpha/(2*xi)) with xi = i + delta.  Scalar arguments give
    a complex; arrays broadcast (a column of depths against a row of
    detunings gives one factor per pair).  A negative or non-finite depth
    and any non-finite detuning raise ValueError.  This is the validated
    entry; loops over inputs their caller has already checked (the
    optimizers' golden objectives, `phase_jump.verify_jump`) evaluate the
    raw `_decay_kernel` instead.
    """
    _check_balanced(alpha, delta)
    env = _decay_kernel(alpha, delta)
    return env if np.ndim(env) else complex(env)


def balanced_components(alpha: float, delta):
    """Non-decaying and decaying mode weights of the balanced terminal ratio.

    The terminal probe ratio is a + c*exp(-i*phi_r) with a = (1+E)/2 and
    c = (1-E)/2 (the signal ratio carries exp(+i*phi_r) instead); both
    weights are returned, as arrays when either argument is an array.
    """
    return _mode_weights(decay_factor(alpha, delta))


def transfer_matrix(params: MediumParams, depth):
    """Steady CW map H: (Omega_p, Omega_s) at `depth` = H @ (Omega_p, Omega_s) at 0.

    Holds for any gamma21 >= 0.  The fields obey d/dzeta = G, with G = A^-1/4 on
    its (rho41, rho31) block in (probe, signal) order and, by Jacobi's identity,
    det G = A[2, 2]/(16 det A) (exactly 0 at gamma21 = 0).  With Z = depth*G,
    tau = tr(Z)/2 and s the root of s^2 = tau^2 - det(Z) with Re s <= 0,
    H = e^(tau - s)*[(1 + m/2)*I + m/(2s)*(Z - tau*I)], m = expm1(2s): e^(tau - s)
    is the dominant mode and |1 + m| <= 1, so nothing overflows or cancels
    (m/(2s) is 1 at s = 0, where the eigenvalues coincide).  Broadcasts over
    `depth`, H in the last two axes; depth 0 gives I.  A negative or
    non-finite depth raises ValueError.
    """
    depth = np.asarray(depth, dtype=float)
    if not (np.isfinite(depth) & (depth >= 0.0)).all():
        raise ValueError(f"depth must be finite and >= 0, got {depth}")
    a = _obe_matrix(params.delta, params.gamma21, params.omega_c, params.omega_d)
    adj, det = _adjugate(a)
    z = np.multiply.outer(depth, adj[1::-1, 1::-1] / (4.0 * det))
    tau = 0.5 * (z[..., 0, 0] + z[..., 1, 1])
    s = -np.sqrt(tau * tau - depth * depth * a[2, 2] / (16.0 * det))
    m = np.expm1(2.0 * s)
    odd = np.divide(m, 2.0 * s, out=np.ones_like(m), where=s != 0.0)
    dominant = np.exp(tau - s)
    eye = np.eye(2)
    return ((dominant * odd)[..., None, None] * (z - tau[..., None, None] * eye)
            + (dominant * (1.0 + 0.5 * m))[..., None, None] * eye)


def propagate_general(params: MediumParams, incident: FieldPair, zeta: float) -> FieldPair:
    """Steady-state probe/signal fields after propagating to optical depth zeta.

    Supports arbitrary drive magnitudes, any gamma21 >= 0 and a vanishing
    incident signal (the four-wave-mixing generation case).  Requires
    0 <= zeta <= alpha.
    """
    if not 0.0 <= zeta <= params.alpha:
        raise ValueError(f"zeta = {zeta} outside [0, alpha = {params.alpha}]")
    h = transfer_matrix(params, float(zeta))
    probe, signal = h @ np.array([incident.omega_p, incident.omega_s])
    return FieldPair(omega_p=complex(probe), omega_s=complex(signal))


def balanced_ratios(depth, delta, phi_r):
    """Probe and signal ratios of the balanced closed form at optical depth `depth`.

    The probe ratio is a + c*exp(-i*phi_r) with a = (1+E)/2, c = (1-E)/2 and
    E = exp(-i*depth/(2*(i + delta))); the signal carries exp(+i*phi_r).
    Broadcasts over arrays and validates nothing, so NaN passes through.
    """
    env = _decay_kernel(np.asarray(depth, dtype=float), delta)
    phase = np.exp(-1j * phi_r)
    return _field_ratio(env, phase), _field_ratio(env, np.conj(phase))


def propagate_balanced(
    phi_r: float, params: MediumParams, zeta: float
) -> tuple[complex, complex]:
    """Probe and signal field ratios for equal drive and input magnitudes.

    The compact balanced solution depends on the incident fields only through
    the loop phase phi_r, so the ratios are returned directly.  The drive
    phases stored in `params` are ignored: `phi_r` is taken as given.
    Requires |Omega_c| = |Omega_d|, gamma21 = 0, and 0 <= zeta <= alpha;
    the caller is responsible for |Omega_p(0)| = |Omega_s(0)|.
    """
    _require_phi_r_form(phi_r, params)
    if not 0.0 <= zeta <= params.alpha:
        raise ValueError(f"zeta = {zeta} outside [0, alpha = {params.alpha}]")
    probe, signal = balanced_ratios(float(zeta), params.xi.real, float(phi_r))
    return complex(probe), complex(signal)


def trace_curve(
    phi_r: float,
    params: MediumParams,
    n_samples: int = DEFAULT_CURVE_SAMPLES,
    incident: FieldPair | None = None,
) -> PropagationCurve:
    """Sample the field ratios on a uniform zeta grid from 0 to alpha.

    Without `incident`, the balanced closed form at loop phase `phi_r` is
    used (requires |Omega_c| = |Omega_d| and gamma21 = 0).  With `incident`,
    the transfer matrix is traced for any gamma21 and normalized by the
    incident fields, which must both be nonzero for the ratios to exist;
    `phi_r` is then ignored in favor of the phases carried by the fields.

    alpha = 0 yields the single-point identity curve.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if incident is None:
        _require_phi_r_form(phi_r, params)
    if params.alpha == 0.0:
        one = np.array([1.0 + 0.0j])
        return PropagationCurve(np.array([0.0]), one, one.copy())
    zeta = np.linspace(0.0, params.alpha, n_samples)
    if incident is None:
        probe, signal = balanced_ratios(zeta, params.xi.real, float(phi_r))
    else:
        if abs(incident.omega_p) == 0.0 or abs(incident.omega_s) == 0.0:
            raise ValueError(
                "curve ratios need nonzero incident fields; evaluate "
                "propagate_general directly for the generation case"
            )
        fields = transfer_matrix(params, zeta) @ np.array([incident.omega_p, incident.omega_s])
        probe = fields[:, 0] / incident.omega_p
        signal = fields[:, 1] / incident.omega_s
    # The analytic ratios at zeta = 0 are identically 1; pin the boundary
    # sample so the curve invariant holds exactly in floating point.
    probe[0] = 1.0
    signal[0] = 1.0
    return PropagationCurve(zeta, probe, signal)


def transmission_and_phase(ratio_end: complex) -> tuple[float, float]:
    """Transmission |ratio|^2 and principal phase shift of a terminal ratio.

    The phase is the principal value in (-pi, pi].  Raises ZeroFieldError
    when the field has vanished (|ratio| below ZERO_FIELD_TOL), where the
    phase is undefined.
    """
    ratio = complex(ratio_end)
    if abs(ratio) < ZERO_FIELD_TOL:
        raise ZeroFieldError(
            f"zero-field point: |ratio| = {abs(ratio):.3e} < {ZERO_FIELD_TOL}"
        )
    return abs(ratio) ** 2, float(np.angle(ratio))


def unwrapped_phase(curve: PropagationCurve) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrapped probe and signal phases along the curve.

    Terminal entries give the accumulated phase shift, which distinguishes
    +pi from -pi endpoints that the principal value cannot.
    """
    probe = np.unwrap(np.angle(curve.probe_ratio))
    signal = np.unwrap(np.angle(curve.signal_ratio))
    return probe, signal


def accumulated_phase(alpha, delta, phi_r):
    """Closed-form accumulated probe and signal phases at optical depth `alpha`.

    The terminal entries of `unwrapped_phase` on a balanced curve, unsampled.
    The probe ratio a + b*e^{kappa*zeta}, with a, b = (1 +- e^{-i*phi_r})/2
    and kappa = -i/(2*(i + delta)), keeps its phase within pi/2 of its leading
    term's: b*e^{kappa*zeta} up to zeta* = ln(|a|/|b|)/Re kappa, then a plus
    the turns made by zeta*, onto which the principal phase is lifted
    (derivation in README.md).  Broadcasts over `phi_r`; on a path through a
    field zero (a phase jump) the branch is arbitrary.
    """
    kappa = -0.5j / (1j + delta)
    phi = np.asarray(phi_r, dtype=float)
    turn = np.exp(-1j * np.stack([phi, -phi]))  # the signal ratio is the probe's at -phi_r
    a, b = 0.5 * (1.0 + turn), 0.5 * (1.0 - turn)
    with np.errstate(divide="ignore"):  # b = 0 at phi_r = 0
        meet = np.maximum(np.log(np.abs(a) / np.abs(b)) / kappa.real, 0.0)
    turns = np.round((np.angle(b) - np.angle(a) + kappa.imag * meet) / (2.0 * np.pi))
    lead = np.where(alpha < meet, np.angle(b) + kappa.imag * alpha, np.angle(a) + 2.0 * np.pi * turns)
    principal = np.angle(balanced_ratios(alpha, delta, phi))
    probe, signal = principal + 2.0 * np.pi * np.round((lead - principal) / (2.0 * np.pi))
    return probe, signal
