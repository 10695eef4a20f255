"""Shared parameter records, field containers, unit conventions, and the
detuning scan and golden refinement shared by the design optimizers.

All rates and Rabi frequencies are expressed in units of the excited-state
coherence decay rate Gamma (both excited states decay at the same rate),
time in 1/Gamma, and propagation distance by the dimensionless
optical-depth coordinate zeta in [0, alpha].  Field phases live inside the
complex Rabi amplitudes; the loop relative phase

    phi_r = (phi_p - phi_c) - (phi_s - phi_d)

is never stored: the closed forms take it as an argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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


def refine_maxima(objective, grid: np.ndarray, scanned: np.ndarray, ks, tol: float,
                  args=()) -> np.ndarray:
    """Golden-refine the scanned maxima of a vectorized objective.

    `scanned` holds one scan over `grid` per row (a 1-D scan is one row) and
    `ks` indexes it flat, so candidate k sits at grid[k % grid.size] of row
    k // grid.size.  `args` are per-candidate parameter arrays, one entry per
    k, passed after the detunings: every evaluation is one 1-D call
    objective(x, *args) over all live candidates.  One array copy of scipy's
    golden-section loop (`minimize_scalar` with method "golden" on
    -objective, bracket (grid[k-1], grid[k], grid[k+1]), relative
    xtol = tol) runs every candidate at once, each to its own stop test.
    Only a maximum with finite scanned neighbors in its own row that rises
    strictly above both is refined; a band or window edge, a flat-topped
    bracket, or a non-finite refined value keeps the grid node.
    """
    flat = np.asarray(ks, dtype=np.intp)
    ks = flat % grid.size
    refined = grid[ks].astype(float)
    inner = (ks > 0) & (ks < grid.size - 1)
    scanned = np.ravel(scanned)
    inner[inner] = np.isfinite(scanned[flat[inner] - 1]) & np.isfinite(scanned[flat[inner] + 1])
    k = ks[inner]
    args = [np.asarray(arg)[inner] for arg in args]
    xa, xb, xc = grid[k - 1], grid[k], grid[k + 1]
    triple = (np.concatenate((arg,) * 3) for arg in args)
    fa, fb, fc = objective(np.concatenate((xa, xb, xc)), *triple).reshape(3, -1)
    # Comparisons read scipy's on -objective with both sides swapped.
    bracketed = (fb > fa) & (fb > fc)
    g_r = 0.61803399  # scipy's rounded golden-ratio conjugate
    g_c = 1.0 - g_r
    x0, x3 = xa, xc
    wide = np.abs(xc - xb) > np.abs(xb - xa)
    x1 = np.where(wide, xb, xb - g_c * (xb - xa))
    x2 = np.where(wide, xb + g_c * (xc - xb), xb)
    pair = (np.concatenate((arg,) * 2) for arg in args)
    f1, f2 = objective(np.concatenate((x1, x2)), *pair).reshape(2, -1)
    live = bracketed.copy()
    for _ in range(5000):  # scipy's maxiter
        live &= ~(np.abs(x3 - x0) <= tol * (np.abs(x1) + np.abs(x2)))
        if not live.any():
            break
        up = live & (f2 > f1)
        down = live & ~up
        x0, x3 = np.where(up, x1, x0), np.where(down, x2, x3)
        x1, x2 = np.where(up, x2, x1), np.where(down, x1, x2)
        f1, f2 = np.where(up, f2, f1), np.where(down, f1, f2)
        x1 = np.where(down, g_r * x2 + g_c * x0, x1)
        x2 = np.where(up, g_r * x1 + g_c * x3, x2)
        fresh = objective(np.where(up, x2, x1), *args)  # finished candidates are evaluated, never updated
        f1, f2 = np.where(down, fresh, f1), np.where(up, fresh, f2)
    first = f1 > f2
    best, value = np.where(first, x1, x2), np.where(first, f1, f2)
    refined[inner] = np.where(bracketed & np.isfinite(value), best, xb)
    return refined


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
