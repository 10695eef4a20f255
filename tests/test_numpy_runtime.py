"""The in-package numpy replacements of scipy helpers, checked against scipy.

The runtime needs numpy only; scipy is a test dependency and serves here as
the oracle for the golden-section refinement, the matrix exponential and the
trapezoid rule.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dleit
from conftest import needs_scipy
from dleit.apm import _band_maxima, _ray_solutions, operating_point, optimize_detuning_sweep
from dleit.core import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_DELTA_TOL,
    DEFAULT_SCAN_STEP,
    detuning_grid,
    refine_maxima,
)
from dleit.dynamics import _expm, _trapezoid, amplification_sweep, peak_transmission
from dleit.steady_state import _obe_matrix

SRC = Path(dleit.__file__).resolve().parents[1]

NO_SCIPY = """
import runpy, sys
import numpy
eager_fft = "numpy.fft" in sys.modules  # numpy < 2 imports it with numpy
import dleit
assert "scipy" not in sys.modules, "import dleit"
# simulate's spectral route reaches numpy.fft lazily, on its first call
assert eager_fft or "numpy.fft" not in sys.modules, "import dleit loaded numpy.fft"
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
    from scipy.optimize import minimize_scalar

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


@needs_scipy
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


def test_array_golden_loop_keeps_row_edges_and_passes_candidate_args():
    # Two scans over one grid, indexed flat: row 0 peaks at its last node and
    # row 1 starts below it, so row 1's first node would bracket it.
    grid = np.linspace(0.0, 4.0, 5)
    scanned = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 2.0, 1.0, 0.0]])
    shapes = []

    def objective(x, center):
        shapes.append((x.shape, center.shape))
        return -((x - center) ** 2)

    centers = np.array([9.0, 9.0, 2.1])
    refined = refine_maxima(objective, grid, scanned, [4, 5, 7], 1e-10, args=(centers,))
    assert refined[:2].tolist() == [4.0, 0.0]
    assert refined[2] == pytest.approx(2.1, abs=1e-8)
    assert shapes[0] == ((3,), (3,)) and all(x == c == (1,) for x, c in shapes[2:])


#: Depths with one feasible band (10) and with several (the others).
SWEEP_DEPTHS = [10.0, 55.5, 100.0, 131.3, 200.0]


@needs_scipy
@pytest.mark.parametrize("target", ["pi", "half_pi"])
def test_batched_apm_maxima_match_per_depth_scipy_golden(target):
    grid = detuning_grid(DEFAULT_DELTA_RANGE, DEFAULT_SCAN_STEP, DEFAULT_DELTA_TOL)
    rows, deltas = _band_maxima(
        SWEEP_DEPTHS, target, DEFAULT_DELTA_RANGE, DEFAULT_DELTA_TOL, DEFAULT_SCAN_STEP
    )
    expected_rows, expected = [], []
    for row, alpha in enumerate(SWEEP_DEPTHS):
        scanned = _ray_solutions(alpha, grid, target)[1]
        peaks = local_maxima(scanned)
        expected_rows += [row] * peaks.size
        expected += [
            scipy_refine(lambda d: _ray_solutions(alpha, np.array([d]), target)[1][0],
                         grid, scanned, k, DEFAULT_DELTA_TOL)
            for k in peaks
        ]
    assert rows.tolist() == expected_rows
    counts = np.bincount(rows)
    assert counts[0] == 1 and counts[1:].min() > 1
    np.testing.assert_allclose(deltas, expected, rtol=0.0, atol=1e-12)

    # Per depth the best band wins, the first in detuning order among equals.
    expected = np.array(expected)
    for row, point in enumerate(optimize_detuning_sweep(SWEEP_DEPTHS, target)):
        alpha = SWEEP_DEPTHS[row]
        bands = [operating_point(alpha, d, target) for d in expected[rows == row].tolist()]
        best = max(bands, key=lambda p: p.transmission_with_signal)
        assert point.alpha == alpha
        assert abs(point.delta - best.delta) <= 1e-12


@needs_scipy
def test_batched_amplification_matches_per_depth_scipy_golden():
    grid = detuning_grid(DEFAULT_DELTA_RANGE, DEFAULT_SCAN_STEP, DEFAULT_DELTA_TOL)
    results = amplification_sweep([0.0] + SWEEP_DEPTHS)
    assert math.isnan(results[0].delta_opt)
    assert (results[0].probe_transmission, results[0].signal_transmission) == (1.0, 1.0)
    for alpha, result in zip(SWEEP_DEPTHS, results[1:]):
        scanned = peak_transmission(alpha, grid)
        expected = scipy_refine(lambda d: peak_transmission(alpha, np.array([d]))[0],
                                grid, scanned, int(np.argmax(scanned)), DEFAULT_DELTA_TOL)
        assert result.alpha == alpha
        assert abs(result.delta_opt - expected) <= 1e-12


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


@needs_scipy
@settings(max_examples=300, deadline=None)
@given(obe_exponents())
def test_expm_matches_scipy_on_obe_matrices(exponent):
    from scipy.linalg import expm

    reference = expm(exponent)
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(_expm(exponent) - reference).max() <= 1e-12 * scale


def test_expm_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((6, 6), dtype=complex)), np.eye(6))


@needs_scipy
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
def test_trapezoid_is_bit_identical_to_scipy(n, seed):
    from scipy.integrate import trapezoid

    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 100.0, n))
    y = rng.normal(size=n)
    assert _trapezoid(y, x) == float(trapezoid(y, x))
