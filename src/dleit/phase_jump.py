"""Critical optical depths and the discontinuous output-phase jump.

At special combinations of optical depth and detuning the balanced medium
drives one output field exactly through zero, and the output phase of that
field jumps discontinuously as the loop phase phi_r is scanned.  This module
evaluates the critical depths, the loop phases at which the jumps sit, and
locates field zeros numerically along sampled curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import wrap_phase
from .steady_state import DEFAULT_CURVE_SAMPLES, PropagationCurve, _decay_kernel, _field_ratio

#: |ratio| below this at the refined minimum counts as an exact field zero.
ZERO_MAGNITUDE_TOL = 1e-9

#: Fraction of one grid step: refined minima closer to zero than the field
#: travels over this fraction of a step are classified as zero crossings.
GRID_WINDOW_FRACTION = 0.1

#: Largest relative spread of the zeta steps the uniform-grid parabola accepts.
UNIFORM_GRID_TOL = 1e-9


@dataclass(frozen=True)
class JumpSolution:
    """A critical depth with the loop phases of both output-phase jumps."""

    order: int
    delta: float
    critical_depth: float
    probe_jump_phase: float
    signal_jump_phase: float


def _check_jump(delta: float, n: int) -> None:
    """The one (delta, n) check of the critical-depth closed forms."""
    if not (math.isfinite(delta) and delta != 0.0):
        raise ValueError(f"phase jumps need a finite delta != 0, got {delta}")
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jump order must be a positive odd integer, got {n}")


def critical_depth(delta: float, n: int = 1) -> float:
    """Optical depth at which the n-th field zero becomes reachable.

    alpha_c = n*pi*(delta^2 + 1)/|delta| for odd positive n.  At delta = 0
    the decaying mode only attenuates and never rotates, so no zero exists
    at any depth.
    """
    _check_jump(delta, n)
    return n * np.pi * (delta * delta + 1.0) / abs(delta)


def _jump_phase(delta: float, n: int, branch_sign: float) -> float:
    """Shared closed form for the two jump phases, wrapped to [0, 2*pi).

    Negative detuning reverses the rotation sense of the decaying mode,
    which is equivalent to negating the order n; that swaps the roles of
    the two output fields.  The swap is absorbed into the sign of x.
    """
    _check_jump(delta, n)
    x = branch_sign * np.sign(delta) * np.sin(0.5 * np.pi * n) * np.exp(
        0.5 * np.pi * n / abs(delta)
    )
    return float(wrap_phase(2.0 * np.arctan(x)))


def jump_phase_probe(delta: float, n: int = 1) -> float:
    """Loop phase at which the probe output phase jumps, at the critical depth."""
    return _jump_phase(delta, n, -1.0)


def jump_phase_signal(delta: float, n: int = 1) -> float:
    """Loop phase at which the signal output phase jumps, at the critical depth."""
    return _jump_phase(delta, n, +1.0)


def solve_jump(delta: float, n: int = 1) -> JumpSolution:
    """Critical depth and both jump phases for the n-th zero at detuning delta."""
    return JumpSolution(
        order=n,
        delta=delta,
        critical_depth=critical_depth(delta, n),
        probe_jump_phase=jump_phase_probe(delta, n),
        signal_jump_phase=jump_phase_signal(delta, n),
    )


def _zeros(zeta: np.ndarray, mag_sq: np.ndarray) -> np.ndarray:
    """Zeros of |ratio|^2 sampled on the uniform grid `zeta`, in increasing order.

    The array core of `zero_crossings`, which documents the rule; it checks
    nothing, and fewer than three samples have no zeros.
    """
    if mag_sq.size < 3:
        return zeta[:0]
    mid = mag_sq[1:-1]
    minima = (mid <= mag_sq[:-2]) & (mid < mag_sq[2:])
    # A zero can sit at the far boundary (e.g. a curve traced exactly to a
    # critical depth); refine it through the window centered one step in.
    # That node is never also an interior minimum, which needs a rising end.
    minima[-1] |= mag_sq[-1] < mag_sq[-2]
    k = np.flatnonzero(minima) + 1
    v0, v1, v2 = mag_sq[k - 1], mag_sq[k], mag_sq[k + 1]
    # Uniform-grid parabola: v(zeta[k] + s*h) = a*s^2 + b*s + v1.  Where it
    # does not open upward the node itself is the minimum (s = 0); a NaN
    # curvature keeps s NaN, so such a sample is never a zero.
    a = 0.5 * (v0 + v2) - v1
    b = 0.5 * (v2 - v0)
    plateau = a <= 0.0
    s = np.clip(np.divide(-b, 2.0 * a, out=np.zeros_like(a), where=~plateau), -1.0, 1.0)
    value = np.maximum(a * s * s + b * s + v1, 0.0)
    is_zero = (np.sqrt(value) < ZERO_MAGNITUDE_TOL) | (
        (a > 0.0) & (value < GRID_WINDOW_FRACTION**2 * a)
    )
    z_star = zeta[k] + s * (zeta[k] - zeta[k - 1])
    return z_star[is_zero]


def zero_crossings(curve: PropagationCurve, which: str = "probe") -> list[float]:
    """All zeta positions where the chosen field ratio passes through zero.

    Local minima of |ratio|^2 (and a falling far boundary) are refined by a
    three-point parabola clamped to the bracketing interval.  A minimum
    counts as a zero when the refined magnitude is below ZERO_MAGNITUDE_TOL,
    or when the refined minimum value is smaller than the change of
    |ratio|^2 over a small fraction of one grid step (the sampled curve
    cannot distinguish such a near-miss from an exact zero).  The parabola
    assumes uniform spacing: a zeta grid whose steps spread by more than
    UNIFORM_GRID_TOL relative raises ValueError.
    """
    ratio = {"probe": curve.probe_ratio, "signal": curve.signal_ratio}.get(which)
    if ratio is None:
        raise ValueError(f"which must be 'probe' or 'signal', got {which!r}")
    zeta = curve.zeta_grid
    if zeta.size >= 3:
        steps = np.diff(zeta)
        if np.ptp(steps) > UNIFORM_GRID_TOL * steps.max():
            raise ValueError("zero_crossings needs a uniformly spaced zeta_grid")
    return _zeros(zeta, np.abs(ratio) ** 2).tolist()


def detect_zero_crossing(curve: PropagationCurve, which: str = "probe") -> float | None:
    """First zero of the chosen field ratio along the curve, or None."""
    zeros = zero_crossings(curve, which)
    return zeros[0] if zeros else None


def verify_jump(solution: JumpSolution, n_samples: int = DEFAULT_CURVE_SAMPLES) -> float | None:
    """First zero of the probe ratio traced to the critical depth at its jump phase, or None.

    Bit for bit the zero `detect_zero_crossing` finds on the balanced curve
    `trace_curve(solution.probe_jump_phase, MediumParams(alpha=
    solution.critical_depth, delta=solution.delta), n_samples)`, whose
    effective detuning is delta itself.  Only the probe ratio is evaluated
    (pinned to exactly 1 at zeta = 0), and the uniform grid it builds is not
    re-checked.  Raises ValueError for n_samples < 2, for a critical depth
    that is not finite and > 0, and for a non-finite detuning or phase.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    depth, delta, phase = solution.critical_depth, solution.delta, solution.probe_jump_phase
    if not (math.isfinite(depth) and depth > 0.0 and math.isfinite(delta) and math.isfinite(phase)):
        raise ValueError(f"verify_jump needs a finite critical depth > 0, delta and phase, got {solution}")
    zeta = np.linspace(0.0, depth, n_samples)
    probe = _field_ratio(_decay_kernel(zeta, delta), np.exp(-1j * phase))
    probe[0] = 1.0
    zeros = _zeros(zeta, np.abs(probe) ** 2)
    return zeros[0].item() if zeros.size else None
