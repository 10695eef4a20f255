"""The in-package numpy replacements of scipy helpers, checked against scipy.

The runtime needs numpy only; scipy is a test dependency and serves here as
the oracle for the golden-section refinement, the matrix exponential and the
trapezoid rule.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

import dleit
from dleit.apm import _ray_solutions
from dleit.core import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_DELTA_TOL,
    DEFAULT_SCAN_STEP,
    detuning_grid,
    refine_maxima,
)
from dleit.dynamics import _expm, _obe_matrix, _trapezoid, peak_transmission

SRC = Path(dleit.__file__).resolve().parents[1]

NO_SCIPY = """
import runpy, sys
import dleit
assert "scipy" not in sys.modules, "import dleit"
sys.argv = ["dleit", "--help"]
try:
    runpy.run_module("dleit.cli", run_name="__main__")
except SystemExit as exit:
    assert exit.code == 0, exit.code
assert "scipy" not in sys.modules, "dleit --help"
"""


def test_runtime_never_imports_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def scipy_refine(objective, grid, scanned, k, tol):
    """The former per-maximum refinement: one scipy golden run per candidate."""
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
        return node
    return float(result.x) if np.isfinite(result.fun) else node


def local_maxima(scanned):
    """Band maxima as the optimizers pick them, band edges included."""
    left = np.concatenate(([np.nan], scanned[:-1]))
    right = np.concatenate((scanned[1:], [np.nan]))
    return np.flatnonzero(np.isfinite(scanned) & ~(left > scanned) & ~(right >= scanned))


#: The optimizers' objectives: the apm transmission on the target ray and
#: the peak amplification transmission, at several depths.
OBJECTIVES = {
    **{
        f"{target}-{alpha:g}": lambda d, a=alpha, t=target: _ray_solutions(a, d, t)[1]
        for target in ("pi", "half_pi")
        for alpha in (10.0, 40.0, 100.0, 200.0)
    },
    **{f"peak-{alpha:g}": lambda d, a=alpha: peak_transmission(a, d) for alpha in (5.0, 50.0, 150.0)},
}


@pytest.mark.parametrize("name", OBJECTIVES)
def test_array_golden_loop_matches_scipy_golden(name):
    objective = OBJECTIVES[name]
    grid = detuning_grid(DEFAULT_DELTA_RANGE, DEFAULT_SCAN_STEP, DEFAULT_DELTA_TOL)
    scanned = objective(grid)
    peaks = local_maxima(scanned)

    def one(d):
        return objective(np.array([d]))[0]

    def pointwise(ds):
        return np.array([one(d) for d in ds])

    reference = [scipy_refine(one, grid, scanned, k, DEFAULT_DELTA_TOL) for k in peaks]
    single = [refine_maxima(pointwise, grid, scanned, [k], DEFAULT_DELTA_TOL)[0] for k in peaks]
    assert single == reference
    assert any(x != grid[k] for x, k in zip(reference, peaks))
    together = refine_maxima(objective, grid, scanned, peaks, DEFAULT_DELTA_TOL)
    np.testing.assert_allclose(together, reference, rtol=0.0, atol=1e-12)


def test_array_golden_loop_keeps_unbracketed_nodes():
    grid = np.linspace(0.0, 4.0, 5)
    scanned = np.array([1.0, 2.0, 2.0, np.nan, 3.0])
    # an edge, a flat top, a NaN neighbor and the far edge all keep their node
    refined = refine_maxima(lambda d: np.interp(d, grid, scanned), grid, scanned, [0, 1, 2, 4], 1e-3)
    assert refined.tolist() == [0.0, 1.0, 2.0, 4.0]


@st.composite
def obe_exponents(draw):
    """dt times the augmented 6x6 block matrix of one propagator build."""
    gamma21 = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)))
    delta = draw(st.floats(min_value=-60.0, max_value=60.0))
    moduli = st.floats(min_value=0.0, max_value=5.0)
    phases = st.floats(min_value=-np.pi, max_value=np.pi)
    omega_c = draw(moduli) * np.exp(1j * draw(phases))
    omega_d = draw(moduli) * np.exp(1j * draw(phases))
    dt = draw(st.floats(min_value=1e-4, max_value=1.0))
    aug = np.zeros((6, 6), dtype=complex)
    aug[:3, :3] = _obe_matrix(delta, gamma21, omega_c, omega_d)
    aug[:3, 3:] = np.eye(3)
    return aug * dt


@settings(max_examples=300, deadline=None)
@given(obe_exponents())
def test_expm_matches_scipy_on_obe_matrices(exponent):
    reference = expm(exponent)
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(_expm(exponent) - reference).max() <= 1e-12 * scale


def test_expm_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((6, 6), dtype=complex)), np.eye(6))


@given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
def test_trapezoid_is_bit_identical_to_scipy(n, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 100.0, n))
    y = rng.normal(size=n)
    assert _trapezoid(y, x) == float(trapezoid(y, x))
