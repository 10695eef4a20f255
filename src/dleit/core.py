"""Shared parameter records, field containers, unit conventions, and the
detuning scan shared by the design optimizers.

All rates and Rabi frequencies are expressed in units of the excited-state
coherence decay rate Gamma (both excited states decay at the same rate),
time in 1/Gamma, and propagation distance by the dimensionless
optical-depth coordinate zeta in [0, alpha].  Field phases live inside the
complex Rabi amplitudes; the loop relative phase

    phi_r = (phi_p - phi_c) - (phi_s - phi_d)

is derived on demand rather than stored.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

TWO_PI = 2.0 * np.pi

#: Default bound on |weak field| / |strong field| for the perturbative regime.
DEFAULT_PERTURBATIVE_RATIO = 0.1

#: Detuning search window covering the useful dispersive regime, in Gamma units.
DEFAULT_DELTA_RANGE = (0.5, 60.0)

#: Scan step of the coarse detuning grid, in Gamma units.
DEFAULT_SCAN_STEP = 0.05

#: Golden-section refinement tolerance; the transmission optima are flat-topped.
DEFAULT_DELTA_TOL = 1e-3


def wrap_phase(phi: float) -> float:
    """Reduce an angle in radians into [0, 2*pi)."""
    wrapped = float(np.mod(phi, TWO_PI))
    # np.mod of a tiny negative angle rounds to exactly 2*pi
    return 0.0 if wrapped == TWO_PI else wrapped


def wrap_signed(phi: float) -> float:
    """Reduce an angle in radians into (-pi, pi]."""
    wrapped = float(np.mod(-phi + np.pi, TWO_PI))
    if wrapped == TWO_PI:
        wrapped = 0.0
    return np.pi - wrapped


def detuning_grid(delta_range: tuple[float, float], scan_step: float, tol: float) -> np.ndarray:
    """Coarse detuning grid of a scan-then-golden optimizer.

    Nodes run from lo in steps of scan_step, the last one clamped to hi.
    Raises ValueError, before building anything, for a non-finite or empty
    window and for a non-finite or non-positive step or refinement tolerance.
    """
    lo, hi = float(delta_range[0]), float(delta_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"delta_range must be finite with lo < hi, got {delta_range}")
    if not (math.isfinite(scan_step) and scan_step > 0.0 and math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"scan_step and tol must be finite and > 0, got {scan_step}, {tol}")
    grid = np.arange(lo, hi + 0.5 * scan_step, scan_step)
    grid[-1] = min(grid[-1], hi)
    return grid


def refine_maximum(objective, grid: np.ndarray, scanned: np.ndarray, k: int, tol: float) -> float:
    """Golden-refine the scanned maximum at grid[k] of a scalar objective.

    Only a maximum with finite scanned neighbors on both sides is refined;
    a band or window edge, a flat-topped bracket, or a non-finite refined
    value keeps the grid node.
    """
    node = float(grid[k])
    if not (0 < k < grid.size - 1 and np.isfinite(scanned[k - 1]) and np.isfinite(scanned[k + 1])):
        return node
    try:
        result = minimize_scalar(
            lambda d: -objective(d),
            bracket=(grid[k - 1], grid[k], grid[k + 1]),
            method="golden",
            options={"xtol": tol},
        )
    except ValueError:
        # Flat-topped bracket: the grid candidate already sits within tol.
        return node
    return float(result.x) if np.isfinite(result.fun) else node


@dataclass(frozen=True)
class MediumParams:
    """Medium and strong-drive configuration.

    Attributes
    ----------
    alpha : float
        Optical depth of the medium (equal on both weak-field transitions).
    delta : float
        Detuning of the signal transition, in units of Gamma.
    gamma21 : float
        Ground-state dephasing rate, in units of Gamma.
    omega_c : complex
        Coupling Rabi frequency (magnitude and phase), in units of Gamma.
    omega_d : complex
        Driving Rabi frequency (magnitude and phase), in units of Gamma.
    """

    alpha: float
    delta: float = 0.0
    gamma21: float = 0.0
    omega_c: complex = 1.0 + 0.0j
    omega_d: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "gamma21", float(self.gamma21))
        object.__setattr__(self, "omega_c", complex(self.omega_c))
        object.__setattr__(self, "omega_d", complex(self.omega_d))
        if not (
            math.isfinite(self.alpha)
            and math.isfinite(self.delta)
            and math.isfinite(self.gamma21)
            and cmath.isfinite(self.omega_c)
            and cmath.isfinite(self.omega_d)
        ):
            raise ValueError(f"parameters must be finite, got {self}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.gamma21 >= 0.0:
            raise ValueError(f"gamma21 must be >= 0, got {self.gamma21}")
        if abs(self.omega_c) ** 2 + abs(self.omega_d) ** 2 == 0.0:
            raise ValueError("omega_c and omega_d cannot both vanish")

    @property
    def omega_sq(self) -> float:
        """Total strong-drive intensity |Omega_c|^2 + |Omega_d|^2."""
        return abs(self.omega_c) ** 2 + abs(self.omega_d) ** 2

    @property
    def xi(self) -> complex:
        """Complex propagation parameter i + 2|Omega_c|^2 * delta / |Omega|^2.

        Its imaginary part is exactly 1 in Gamma units by construction.
        """
        return 1j + 2.0 * abs(self.omega_c) ** 2 * self.delta / self.omega_sq

    @property
    def is_balanced(self) -> bool:
        """True when the two strong drives have equal magnitude."""
        oc, od = abs(self.omega_c), abs(self.omega_d)
        return abs(oc - od) <= 1e-12 * max(oc, od)


@dataclass(frozen=True)
class FieldPair:
    """Complex probe and signal Rabi amplitudes at a single point."""

    omega_p: complex
    omega_s: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_p", complex(self.omega_p))
        object.__setattr__(self, "omega_s", complex(self.omega_s))
        if not (cmath.isfinite(self.omega_p) and cmath.isfinite(self.omega_s)):
            raise ValueError(f"field amplitudes must be finite, got {self}")


@dataclass(frozen=True)
class DerivedQuantities:
    """Quantities derived from a parameter set and a boundary field pair."""

    omega_sq: float
    xi: complex
    relative_phase: float


def derive(params: MediumParams, boundary: FieldPair) -> DerivedQuantities:
    """Compute |Omega|^2, xi, and the loop relative phase phi_r.

    phi_r = (phi_p - phi_c) - (phi_s - phi_d), wrapped into [0, 2*pi).
    Raises ValueError if both strong drives vanish (xi undefined).
    """
    omega_sq = params.omega_sq
    if omega_sq == 0.0:
        raise ValueError("|Omega|^2 = 0: xi is undefined")
    phi_r = (
        np.angle(boundary.omega_p)
        - np.angle(params.omega_c)
        - np.angle(boundary.omega_s)
        + np.angle(params.omega_d)
    )
    return DerivedQuantities(
        omega_sq=omega_sq,
        xi=params.xi,
        relative_phase=wrap_phase(phi_r),
    )


@dataclass(frozen=True)
class PerturbativeCheck:
    """Outcome of the weak-field regime check, truthy when satisfied."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_perturbative(
    params: MediumParams,
    boundary: FieldPair,
    ratio_threshold: float = DEFAULT_PERTURBATIVE_RATIO,
) -> PerturbativeCheck:
    """Check |Omega_p| <= thr*|Omega_c| and |Omega_s| <= thr*|Omega_d|.

    Zero weak fields always pass.  Comparisons avoid division so a vanishing
    strong drive only fails when the corresponding weak field is nonzero.
    """
    violations = []
    pairs = (
        ("probe/coupling", abs(boundary.omega_p), abs(params.omega_c)),
        ("signal/driving", abs(boundary.omega_s), abs(params.omega_d)),
    )
    for name, weak, strong in pairs:
        if weak > ratio_threshold * strong:
            ratio = weak / strong if strong > 0.0 else np.inf
            violations.append(
                f"{name} ratio {ratio:.3g} exceeds threshold {ratio_threshold:.3g}"
            )
    return PerturbativeCheck(ok=not violations, violations=tuple(violations))
