"""Signal-controlled phase modulation of the probe output.

In the balanced configuration the terminal probe ratio traces a circle in
the complex plane as the loop phase phi_r is scanned.  Pinning the terminal
ratio to the negative real axis imprints a pi output phase on the probe;
pinning it to the negative imaginary axis imprints -pi/2.  This module
computes the loop phases that realize those conditions in closed form, as
the points where the circle meets the target ray, for a whole detuning grid
at once; optimizes the detuning for maximal probe transmission subject to
them; and quantifies the modulation contrast against the signal-off
configuration.
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
    refine_maximum,
    wrap_signed,
)
from .steady_state import (
    ZERO_FIELD_TOL,
    ZeroFieldError,
    balanced_components,
    balanced_ratios,
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
        if self.target_shift not in _TARGET_RAYS:
            raise ValueError(
                f"target_shift must be 'pi' or 'half_pi', got {self.target_shift!r}"
            )
        if self.transmission_with_signal < 0.0 or self.transmission_without_signal < 0.0:
            raise ValueError("transmissions must be >= 0")
        # NaN marks an extinguished output whose phase (and therefore
        # contrast) is undefined.
        if not (np.isnan(self.apm_contrast) or 0.0 <= self.apm_contrast <= np.pi):
            raise ValueError(f"apm_contrast must lie in [0, pi], got {self.apm_contrast}")


def _ray_solutions(
    alpha: float, deltas: np.ndarray, target_shift: str
) -> tuple[np.ndarray, np.ndarray]:
    """Loop phases pinning the terminal probe ratio to the target ray, per detuning.

    Turned by exp(-i*theta), where exp(i*theta) is the target's ray in
    _TARGET_RAYS, the ratio c + r*exp(-i*phi_r) becomes
    w = c_t + r_t*exp(-i*phi_r), and the target reads Im w = 0, Re w > 0.
    Im w = 0 is sin(phi_r - arg r_t) = Im c_t/|r|, met at
    phi_r = arg r_t + arcsin(Im c_t/|r|) and arg r_t + pi - arcsin(Im c_t/|r|)
    when |Im c_t| <= |r|.  A root is feasible when it lands on the ray
    (Re w > 0) with |Im w| <= AXIS_TOL; of two feasible roots the one with
    the larger transmission |ratio|^2 is kept.  Returns (phi_r in [0, 2*pi),
    transmission), both NaN wherever the target is infeasible.
    """
    if target_shift not in _TARGET_RAYS:
        raise ValueError(f"target_shift must be 'pi' or 'half_pi', got {target_shift!r}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    center, radius = balanced_components(alpha, deltas)
    turn = np.conj(_TARGET_RAYS[target_shift][0])
    # A circle that misses the line (|sin| > 1) or has shrunk to a point
    # yields NaN roots, which fail every feasibility test below.
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.arcsin((center * turn).imag / np.abs(radius))
        base = np.angle(radius * turn)
        roots = np.mod(np.stack((base + offset, base + np.pi - offset)), TWO_PI)
        # np.mod of a tiny negative angle rounds to exactly 2*pi.
        roots[roots == TWO_PI] = 0.0
        ratios = center + radius * np.exp(-1j * roots)
        pinned = ratios * turn
        feasible = (pinned.real > 0.0) & (np.abs(pinned.imag) <= AXIS_TOL)
        transmission = np.where(feasible, np.abs(ratios) ** 2, np.nan)
        # The second root wins when only it is feasible or it transmits more.
        second = feasible[1] & ~(transmission[0] >= transmission[1])
    best = np.where(second, transmission[1], transmission[0])
    phi = np.where(np.isnan(best), np.nan, np.where(second, roots[1], roots[0]))
    return phi, best


def _pinned_phase(alpha: float, delta: float, target_shift: str) -> tuple[float, float]:
    """Loop phase of the target at one detuning, with its transmission.

    The one-point case of `_ray_solutions`; raises InfeasibleError where
    the ratio circle does not reach the target ray.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
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
    phi_r = arg r +- arccos(-Re c/|r|), keeping the root with Im[ratio] < 0
    and the highest transmission (see `_ray_solutions`).  Raises ValueError
    for a non-finite or non-positive depth or a non-finite detuning, and
    InfeasibleError where the ratio circle does not reach the axis.
    """
    return _pinned_phase(alpha, delta, "half_pi")[0]


def apm_contrast(alpha: float, delta: float, phi_r: float) -> tuple[float, float, float]:
    """Probe output phases with and without the signal, and their contrast.

    Returns (phase_with, phase_without, contrast); contrast is the absolute
    wrapped phase difference in [0, pi].  Raises ZeroFieldError when either
    terminal field has vanished and its phase is undefined.
    """
    if not math.isfinite(phi_r):
        raise ValueError(f"phi_r must be finite, got {phi_r}")
    ratio_without = balanced_components(alpha, delta)[0]
    ratio_with = complex(balanced_ratios(alpha, delta, phi_r)[0])
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
    phi, t_with = _pinned_phase(alpha, delta, target_shift)
    ray_angle = float(np.angle(_TARGET_RAYS[target_shift][0]))
    phase_with = ray_angle if math.sqrt(t_with) >= ZERO_FIELD_TOL else np.nan
    ratio_without = balanced_components(alpha, delta)[0]
    try:
        t_without, phase_without = transmission_and_phase(ratio_without)
    except ZeroFieldError:
        t_without, phase_without = abs(ratio_without) ** 2, np.nan
    if np.isnan(phase_with) or np.isnan(phase_without):
        contrast = np.nan
    else:
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


def scan_local_maxima(
    alpha: float,
    target_shift: str,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    tol: float = DEFAULT_DELTA_TOL,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ApmOperatingPoint]:
    """All local transmission maxima of the constrained detuning scan.

    The whole grid is evaluated by one closed-form array expression.
    The feasible set can split into several bands; every band contributes
    its local maxima (band edges included), each refined by golden-section
    search when it sits strictly inside the feasible region.  Points are
    returned in increasing detuning order.  Raises InfeasibleError when the
    whole range is infeasible.
    """
    grid = detuning_grid(delta_range, scan_step, tol)
    _, scanned = _ray_solutions(alpha, grid, target_shift)
    if np.all(np.isnan(scanned)):
        raise InfeasibleError(
            f"no feasible detuning for target {target_shift!r} in "
            f"[{float(delta_range[0])}, {float(delta_range[1])}] at alpha={alpha}"
        )

    def transmission(delta: float) -> float:
        return _ray_solutions(alpha, np.array([delta]), target_shift)[1][0]

    # NaN compares false, so an infeasible or missing neighbor makes a band
    # edge, which still counts; >= on the left and > on the right breaks
    # plateau ties.
    left = np.concatenate(([np.nan], scanned[:-1]))
    right = np.concatenate((scanned[1:], [np.nan]))
    peaks = np.flatnonzero(np.isfinite(scanned) & ~(left > scanned) & ~(right >= scanned))
    return [
        operating_point(alpha, refine_maximum(transmission, grid, scanned, k, tol), target_shift)
        for k in peaks
    ]


def optimize_detuning(
    alpha: float,
    target_shift: str,
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE,
    tol: float = DEFAULT_DELTA_TOL,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> ApmOperatingPoint:
    """Detuning maximizing constrained probe transmission over `delta_range`.

    The best of the scan's local maxima (see scan_local_maxima).  Raises
    InfeasibleError when no detuning in the range admits the requested
    phase shift.
    """
    points = scan_local_maxima(alpha, target_shift, delta_range, tol, scan_step)
    return max(points, key=lambda point: point.transmission_with_signal)
