"""Signal-controlled phase modulation of the probe output.

In the balanced configuration the terminal probe ratio traces a circle in
the complex plane as the loop phase phi_r is scanned.  Pinning the terminal
ratio to the negative real axis imprints a pi output phase on the probe;
pinning it to the negative imaginary axis imprints -pi/2.  This module
computes the loop phase that realizes those conditions in closed form, as
the one intersection of the circle with the target ray's line that can lie
on the ray, for a whole depth x detuning grid at once; optimizes the
detuning of every depth for maximal probe transmission subject to them; and
quantifies the modulation contrast against the signal-off configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_DELTA_TOL,
    DEFAULT_SCAN_STEP,
    TWO_PI,
    detuning_grid,
    refine_maxima,
    wrap_signed,
)
from .steady_state import (
    ZERO_FIELD_TOL,
    ZeroFieldError,
    _decay_kernel,
    _field_ratio,
    _mode_weights,
    balanced_components,
    decay_factor,
    transmission_and_phase,
)

#: Verification ceiling for the pinned coordinate of a returned operating point.
AXIS_TOL = 1e-9

#: Direction exp(i*theta) of the ray each target pins the terminal probe ratio
#: to (theta = pi and theta = -pi/2), with the name of that ray.
_TARGET_RAYS = {
    "pi": (-1.0 + 0.0j, "negative real axis"),
    "half_pi": (-1.0j, "negative imaginary axis"),
}


class InfeasibleError(ValueError):
    """No loop phase or detuning satisfies the requested phase-shift target."""


def _check_target(target_shift: str) -> None:
    if target_shift not in _TARGET_RAYS:
        raise ValueError(f"target_shift must be 'pi' or 'half_pi', got {target_shift!r}")


@dataclass(frozen=True)
class ApmOperatingPoint:
    """A phase-modulation working point with its signal-off comparison.

    `apm_contrast` is the absolute wrapped difference between the probe
    output phase with the signal present and with the signal absent.
    `phase_with` and `phase_without` are the underlying principal phases.
    """

    alpha: float
    delta: float
    phi_r: float
    target_shift: str
    transmission_with_signal: float
    transmission_without_signal: float
    apm_contrast: float
    phase_with: float
    phase_without: float

    def __post_init__(self) -> None:
        _check_target(self.target_shift)
        if self.transmission_with_signal < 0.0 or self.transmission_without_signal < 0.0:
            raise ValueError("transmissions must be >= 0")
        # NaN marks an extinguished output whose phase (and therefore
        # contrast) is undefined.
        if not (np.isnan(self.apm_contrast) or 0.0 <= self.apm_contrast <= np.pi):
            raise ValueError(f"apm_contrast must lie in [0, pi], got {self.apm_contrast}")


def _reduce_roots(roots: np.ndarray) -> np.ndarray:
    """np.mod(roots, TWO_PI) bit for bit, for roots in (-2*pi, 2*pi) or NaN."""
    return roots + np.where(roots < 0.0, TWO_PI, 0.0)


def _ray_solutions(alpha, deltas: np.ndarray, target_shift: str) -> tuple[np.ndarray, np.ndarray]:
    """Loop phase pinning the terminal probe ratio to the target ray, per detuning.

    Turned by exp(-i*theta), where exp(i*theta) is the target's ray in
    _TARGET_RAYS, the ratio c + r*exp(-i*phi_r) becomes
    w = c_t + r_t*exp(-i*phi_r), and the target reads Im w = 0, Re w > 0.
    When |Im c_t| <= |r| the circle meets the line Im w = 0 twice, at
    Re w = Re c_t +- sqrt(|r|^2 - (Im c_t)^2).  The "-" point is on the ray
    only if the "+" point is, and then transmits |Re w|^2 no more than it,
    so only the "+" root phi_r = arg r_t + arcsin(Im c_t/|r|) is solved.
    It is feasible when it lands on the ray (Re w > 0) with
    |Im w| <= AXIS_TOL.  Returns (phi_r in [0, 2*pi), transmission
    |ratio|^2), both NaN wherever the target is infeasible.  A depth array
    broadcasts against `deltas`: a column of depths scans the whole
    depth x detuning grid in one expression.  The root lies in
    [-3*pi/2, 3*pi/2], so adding 2*pi below 0 reduces it as np.mod does,
    bit for bit, and skips np.mod's slow remainder on the NaN roots of
    circles that miss the ray.

    Nothing is validated here: this is the golden loop's objective, and its
    callers (`_pinned_phase`, `_band_maxima` and the sweep built on it) have
    checked the target and that every depth is finite and > 0 and every
    detuning finite, so the circle comes from the raw `_decay_kernel`.
    """
    center, radius = _mode_weights(_decay_kernel(alpha, deltas))
    turn = np.conj(_TARGET_RAYS[target_shift][0])
    # A circle that misses the line (|sin| > 1) or has shrunk to a point
    # yields a NaN root, which fails the feasibility test below.
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.arcsin((center * turn).imag / np.abs(radius))
        root = _reduce_roots(np.angle(radius * turn) + offset)
        # A tiny negative angle plus 2*pi rounds to exactly 2*pi.
        root[root == TWO_PI] = 0.0
        ratio = center + radius * np.exp(-1j * root)
        pinned = ratio * turn
        feasible = (pinned.real > 0.0) & (np.abs(pinned.imag) <= AXIS_TOL)
    return np.where(feasible, root, np.nan), np.where(feasible, np.abs(ratio) ** 2, np.nan)


def _pinned_phase(alpha: float, delta: float, target_shift: str) -> tuple[float, float]:
    """Loop phase of the target at one detuning, with its transmission.

    The one-point case of `_ray_solutions`; raises InfeasibleError where
    the ratio circle does not reach the target ray.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    _check_target(target_shift)
    if not (np.isfinite(alpha) & (np.asarray(alpha) > 0.0)).all():
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    phi, transmission = _ray_solutions(alpha, np.array([delta], dtype=float), target_shift)
    if np.isnan(transmission[0]):
        raise InfeasibleError(
            f"no {target_shift} solution at alpha={alpha}, delta={delta}: "
            f"the ratio circle does not reach the {_TARGET_RAYS[target_shift][1]}"
        )
    return float(phi[0]), float(transmission[0])


def phi_r_for_pi_shift(alpha: float, delta: float) -> float:
    """Loop phase placing the terminal probe ratio on the negative real axis.

    The closed-form ray solution for theta = pi (see `_ray_solutions`).
    Raises ValueError for a non-finite or non-positive depth or a
    non-finite detuning, and InfeasibleError where the ratio circle does not
    reach the negative real axis.
    """
    return _pinned_phase(alpha, delta, "pi")[0]


def phi_r_for_half_pi_shift(alpha: float, delta: float) -> float:
    """Loop phase placing the terminal probe ratio on the negative imaginary axis.

    The closed-form ray solution for theta = -pi/2, i.e.
    phi_r = arg r + arccos(-Re c/|r|), the one root that can put the ratio
    on the axis (see `_ray_solutions`).  Raises ValueError for a non-finite
    or non-positive depth or a non-finite detuning, and InfeasibleError
    where the ratio circle does not reach the axis.
    """
    return _pinned_phase(alpha, delta, "half_pi")[0]


def apm_contrast(alpha: float, delta: float, phi_r: float) -> tuple[float, float, float]:
    """Probe output phases with and without the signal, and their contrast.

    Returns (phase_with, phase_without, contrast); contrast is the absolute
    wrapped phase difference in [0, pi].  Both ratios come from one
    evaluation of the decay factor.  Raises ZeroFieldError when either
    terminal field has vanished and its phase is undefined.
    """
    if not math.isfinite(phi_r):
        raise ValueError(f"phi_r must be finite, got {phi_r}")
    env = decay_factor(alpha, delta)
    ratio_without = _mode_weights(env)[0]
    ratio_with = complex(_field_ratio(env, np.exp(-1j * phi_r)))
    _, phase_with = transmission_and_phase(ratio_with)
    _, phase_without = transmission_and_phase(ratio_without)
    contrast = abs(float(wrap_signed(phase_with - phase_without)))
    return phase_with, phase_without, contrast


def operating_point(alpha: float, delta: float, target_shift: str) -> ApmOperatingPoint:
    """Evaluate the constrained modulation point at a fixed detuning.

    The with-signal ratio sits on the target ray, so `phase_with` is that
    ray's angle (pi or -pi/2) exactly.  Either output can be extinguished
    (the with-signal one right at a critical depth, the signal-off one at
    resonance); the undefined phases and contrast are then reported as NaN.
    """
    return _operating_point(alpha, delta, target_shift, *_pinned_phase(alpha, delta, target_shift))


def _operating_point(alpha, delta, target_shift, phi: float, t_with: float) -> ApmOperatingPoint:
    """`operating_point` from its ray solution (loop phase, transmission)."""
    ray_angle = float(np.angle(_TARGET_RAYS[target_shift][0]))
    phase_with = ray_angle if math.sqrt(t_with) >= ZERO_FIELD_TOL else np.nan
    ratio_without = balanced_components(alpha, delta)[0]
    try:
        t_without, phase_without = transmission_and_phase(ratio_without)
    except ZeroFieldError:
        t_without, phase_without = abs(ratio_without) ** 2, np.nan
    contrast = abs(float(wrap_signed(phase_with - phase_without)))
    return ApmOperatingPoint(
        alpha=float(alpha),
        delta=float(delta),
        phi_r=phi,
        target_shift=target_shift,
        transmission_with_signal=t_with,
        transmission_without_signal=t_without,
        apm_contrast=contrast,
        phase_with=phase_with,
        phase_without=phase_without,
    )


def _band_maxima(
    alphas: list, target_shift: str, delta_range: tuple[float, float], tol: float, scan_step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Refined transmission maxima of every feasible band, for every depth.

    One closed-form array expression scans the whole depth x detuning grid
    and one array golden-section loop refines every band maximum of every
    depth together.  The feasible set of a depth can split into several
    bands; every band contributes its local maxima, band and window edges
    included and left unrefined.  Returns (depth index, detuning) per
    maximum, depth by depth in argument order and by increasing detuning
    within a depth.  After the window and target checks, the first depth in
    argument order that is invalid (ValueError) or infeasible over the
    whole window (InfeasibleError) raises.
    """
    grid = detuning_grid(delta_range, scan_step, tol)
    _check_target(target_shift)
    depths = np.array(alphas, dtype=float)
    valid = np.isfinite(depths) & (depths > 0.0)
    n_valid = depths.size if valid.all() else int(np.argmin(valid))
    scanned = np.empty((0, grid.size))
    if n_valid:
        _, scanned = _ray_solutions(depths[:n_valid, None], grid, target_shift)
    infeasible = np.isnan(scanned).all(axis=1)
    if infeasible.any():
        raise InfeasibleError(
            f"no feasible detuning for target {target_shift!r} in "
            f"[{float(delta_range[0])}, {float(delta_range[1])}] "
            f"at alpha={alphas[int(np.argmax(infeasible))]}"
        )
    if n_valid < depths.size:
        raise ValueError(f"alpha must be finite and > 0, got {alphas[n_valid]}")

    # NaN compares false, so an infeasible or missing neighbor makes a band
    # edge, which still counts; >= on the left and > on the right breaks
    # plateau ties.
    edge = np.full((depths.size, 1), np.nan)
    left = np.hstack((edge, scanned[:, :-1]))
    right = np.hstack((scanned[:, 1:], edge))
    peaks = np.flatnonzero(np.isfinite(scanned) & ~(left > scanned) & ~(right >= scanned))
    rows = peaks // grid.size
    deltas = refine_maxima(
        lambda d, a: _ray_solutions(a, d, target_shift)[1], grid, scanned, peaks, tol,
        args=(depths[rows],),
    )
    return rows, deltas


def scan_local_maxima(
    alpha: float,
    target_shift: str,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    tol: float = DEFAULT_DELTA_TOL,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ApmOperatingPoint]:
    """All local transmission maxima of the constrained detuning scan.

    The one-depth case of the scan behind `optimize_detuning_sweep`: every
    band's local maxima (band edges included), those strictly inside the
    feasible region golden-refined.  Points are returned in increasing
    detuning order, each built from one ray solution over all band maxima.
    Raises InfeasibleError when the whole range is infeasible.
    """
    _, deltas = _band_maxima([alpha], target_shift, delta_range, tol, scan_step)
    phi, transmission = _ray_solutions(alpha, deltas, target_shift)
    points = zip(deltas.tolist(), phi.tolist(), transmission.tolist())
    return [_operating_point(alpha, d, target_shift, p, t) for d, p, t in points]


def optimize_detuning_sweep(
    alphas,
    target_shift: str,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    tol: float = DEFAULT_DELTA_TOL,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ApmOperatingPoint]:
    """Transmission-optimal modulation point of the target for each optical depth.

    All depths share one scan and one golden loop (see `_band_maxima`); per
    depth the band maximum of largest constrained transmission wins, the
    lowest detuning among equals, its point built from the one ray solution
    over all band maxima.  The first depth in argument order that is
    invalid raises ValueError, or InfeasibleError when no detuning in the
    range admits the requested phase shift.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be non-empty")
    rows, deltas = _band_maxima(alphas, target_shift, delta_range, tol, scan_step)
    phi, transmission = _ray_solutions(np.array(alphas, dtype=float)[rows], deltas, target_shift)
    # A stable sort by depth, then by falling transmission, puts each depth's
    # winner first in its group; ties keep the detuning order.
    order = np.lexsort((-transmission, rows))
    best = order[np.searchsorted(rows[order], np.arange(len(alphas)))]
    winners = zip(alphas, deltas[best].tolist(), phi[best].tolist(), transmission[best].tolist())
    return [_operating_point(a, d, target_shift, p, t) for a, d, p, t in winners]


def optimize_detuning(
    alpha: float,
    target_shift: str,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    tol: float = DEFAULT_DELTA_TOL,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> ApmOperatingPoint:
    """Detuning maximizing constrained probe transmission over `delta_range`.

    The one-depth case of `optimize_detuning_sweep`.  Raises InfeasibleError
    when no detuning in the range admits the requested phase shift.
    """
    return optimize_detuning_sweep([alpha], target_shift, delta_range, tol, scan_step)[0]
