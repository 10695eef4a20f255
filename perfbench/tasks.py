"""Run one benchmark task through dleit's public entry points and check it.

A task is one call into the program: one ``dleit.cli.main`` invocation, or
one ``dleit.simulate`` run together with its oracle check.  Every check
compares against an independent route with a tolerance copied unchanged
from the repository's tests; the test each one comes from is named beside
the constant.  A check that fails raises ``OracleMismatch``.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import dleit
import dleit.cli
from workloads import AMP

# Balanced closed form against the general one (criterion 7).
CLOSED_FORM_TOL = 1e-12
# Pinned coordinate of an APM operating point (test_apm: |Im| and |Re| < 1e-9).
AXIS_TOL = 1e-9
# CW run against the closed form, relative (criterion 5).
CW_COHERENT_TOL = 1e-3
# Dephased CW run against steady_cw_output, relative
# (test_simulate_dephased_cw_matches_adiabatic_route).
CW_DEPHASED_TOL = 1e-4
# Plateau transmissions at the amplification optimum, relative
# (test_pulse_pair_reaches_amplified_plateau).
PLATEAU_SIGNAL_TOL = 1e-3
PLATEAU_PROBE_TOL = 1e-2
# Total energy transmission of a dephased pair (test_dephasing_makes_the_medium_passive).
PASSIVE_BOUND = 2.0 + 1e-12
# Plateau sample: this long before the pulse switches off (the plateau test
# samples t = 190 of a 10..210 pulse).
PLATEAU_LEAD = 20.0

# Acceptance reference points: (value, tolerance) per reported quantity.
CRITERION_2 = {"delta_opt": (16.5, 0.5), "T_with": (0.68, 0.01),
               "T_without": (0.01, 0.002), "contrast": (2.62, 0.02)}
CRITERION_3 = {"T_with": (1.40, 0.02), "T_without": (0.19, 0.01), "contrast": (0.57, 0.02)}
CRITERION_4 = {100.0: {"delta_opt": (34.2, 1.0), "phi_r_opt": (4.76, 0.02), "T_s": (1.91, 0.01)},
               50.0: {"T_s": (1.84, 0.01)}}


class OracleMismatch(AssertionError):
    """A task's output disagrees with its independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


def _near(name: str, value: float, reference: float, tol: float) -> None:
    _require(abs(value - reference) <= tol,
             f"{name} = {value!r}, reference {reference!r} +- {tol}")


def _balanced(alpha: float, delta: float, phi_r: float) -> dleit.MediumParams:
    return dleit.MediumParams(alpha=alpha, delta=delta, omega_d=np.exp(1j * phi_r))


# ---------------------------------------------------------------- cli tasks

def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``dleit.cli.main`` call with stdout captured; (exit code, output)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = dleit.cli.main(list(argv))
    return code, buffer.getvalue()


def parse_rows(text: str) -> list[list[float]]:
    """Data rows of a CSV table, without its metadata lines and header."""
    table = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [[float(v) for v in line.split(",")] for line in table[1:]]


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_steady(argv, rows) -> float:
    alpha, delta = float(_option(argv, "--alpha")), float(_option(argv, "--delta"))
    for phi, t_p, t_s, dphi_p, dphi_s in rows:
        ref = dleit.propagate_general(_balanced(alpha, delta, phi), dleit.FieldPair(1.0, 1.0), alpha)
        for name, t, dphi, r in (("probe", t_p, dphi_p, ref.omega_p), ("signal", t_s, dphi_s, ref.omega_s)):
            got = math.sqrt(t) * complex(math.cos(dphi), math.sin(dphi))
            _require(abs(got - r) <= CLOSED_FORM_TOL,
                     f"steady {name} ratio at phi_r={phi}: {got} vs general {r}")
    return 0.0


def _check_phase_diagram(argv, rows) -> float:
    alpha, delta = float(_option(argv, "--alpha")), float(_option(argv, "--delta"))
    # Every 50th sample of each curve plus its terminal sample.
    picked = rows[::50] + [row for k, row in enumerate(rows)
                           if k + 1 == len(rows) or rows[k + 1][0] != row[0]]
    for phi, zeta, re_p, im_p, re_s, im_s in picked:
        ref = dleit.propagate_general(_balanced(alpha, delta, phi), dleit.FieldPair(1.0, 1.0), zeta)
        _require(abs(complex(re_p, im_p) - ref.omega_p) <= CLOSED_FORM_TOL
                 and abs(complex(re_s, im_s) - ref.omega_s) <= CLOSED_FORM_TOL,
                 f"trajectory at phi_r={phi}, zeta={zeta} disagrees with the general form")
    return 0.0


def _check_jump(argv, rows) -> float:
    worst = 0.0
    for delta, depth, _, _, zero, offset, step in rows:
        # Criterion 8: the numeric zero sits within one grid step of the
        # closed-form critical depth.
        _require(math.isfinite(zero) and offset <= step,
                 f"jump zero at delta={delta}: offset {offset} vs grid step {step}")
        worst = max(worst, offset / depth)
    return worst


def _check_apm(argv, rows) -> float:
    target = _option(argv, "--target")
    for alpha, delta, phi, t_with, t_without, _, _, contrast in rows:
        ratio, _ = dleit.propagate_balanced(phi, dleit.MediumParams(alpha=alpha, delta=delta), alpha)
        if target == "pi":
            _require(abs(ratio.imag) < AXIS_TOL and ratio.real < 0.0,
                     f"apm pi point at alpha={alpha}: ratio {ratio} is not on the negative real axis")
        else:
            _require(abs(ratio.real) < AXIS_TOL and ratio.imag < 0.0,
                     f"apm half_pi point at alpha={alpha}: ratio {ratio} is not on the negative imaginary axis")
        _near(f"apm T_with at alpha={alpha}", t_with, abs(ratio) ** 2, CLOSED_FORM_TOL)
        if alpha == 100.0:
            got = {"delta_opt": delta, "T_with": t_with, "T_without": t_without, "contrast": contrast}
            for key, (ref, tol) in (CRITERION_2 if target == "pi" else CRITERION_3).items():
                _near(f"apm {target} {key} at alpha=100", got[key], ref, tol)
    return 0.0


def _check_amplify(argv, rows) -> float:
    for alpha, delta, phi, t_p, t_s in rows:
        probe, signal = dleit.propagate_balanced(phi, dleit.MediumParams(alpha=alpha, delta=delta), alpha)
        _near(f"amplify T_p at alpha={alpha}", t_p, abs(probe) ** 2, CLOSED_FORM_TOL)
        _near(f"amplify T_s at alpha={alpha}", t_s, abs(signal) ** 2, CLOSED_FORM_TOL)
        got = {"delta_opt": delta, "phi_r_opt": phi, "T_s": t_s}
        for key, (ref, tol) in CRITERION_4.get(alpha, {}).items():
            _near(f"amplify {key} at alpha={alpha}", got[key], ref, tol)
    return 0.0


_CLI_CHECKS = {
    "steady": _check_steady,
    "phase-diagram": _check_phase_diagram,
    "jump": _check_jump,
    "apm": _check_apm,
    "amplify-sweep": _check_amplify,
}


def check_cli(argv: list[str], code: int, output: str) -> float:
    """Check one cli task's output; returns its relative discretization error."""
    _require(code == 0, f"dleit {' '.join(argv)} exited with code {code}")
    rows = parse_rows(output)
    _require(len(rows) > 0, f"dleit {' '.join(argv)} wrote no rows")
    return _CLI_CHECKS[argv[0]](argv, rows)


# ----------------------------------------------------------- dynamics tasks

def _params(task: dict) -> dleit.MediumParams:
    return dleit.MediumParams(alpha=task["alpha"], delta=task["delta"], gamma21=task["gamma21"],
                              omega_d=np.exp(1j * task["phi_r"]))


def _relative(out: complex, ref: complex) -> float:
    return abs(out - ref) / abs(ref)


def run_cw(task: dict) -> float:
    """One CW run checked at its final sample; returns the deviation from the
    steady oracle relative to the input amplitude."""
    params = _params(task)
    pulse = dleit.PulseShape.cw(AMP)
    grid = dleit.SimGrid(n_z=task["n_z"], dt=task["dt"], t_final=task["t_final"])
    result = dleit.simulate(params, pulse, pulse, grid)
    out = (complex(result.output_probe[-1]), complex(result.output_signal[-1]))
    steady = dleit.steady_cw_output(params, dleit.FieldPair(AMP, AMP))
    refs = [(steady.omega_p, steady.omega_s, "steady_cw_output")]
    if params.gamma21 == 0.0:
        general = dleit.propagate_general(params, dleit.FieldPair(AMP, AMP), params.alpha)
        refs.append((general.omega_p, general.omega_s, "propagate_general"))
    tol = CW_COHERENT_TOL if params.gamma21 == 0.0 else CW_DEPHASED_TOL
    for ref_p, ref_s, route in refs:
        worst = max(_relative(out[0], ref_p), _relative(out[1], ref_s))
        _require(worst <= tol, f"CW output off {route} by {worst:.3e} (> {tol}) for {task}")
    return max(abs(out[0] - steady.omega_p), abs(out[1] - steady.omega_s)) / AMP


def run_pulse(task: dict) -> float:
    """One pulse-pair run with its oracle; returns the plateau deviation from
    the steady oracle relative to the input amplitude (0 without a plateau)."""
    optimum = None
    if task["slot"] == "optimum":
        optimum = dleit.optimize_amplification(task["alpha"])
        params = _balanced(task["alpha"], optimum.delta_opt, optimum.phi_r_opt)
    else:
        params = _params(task)
    pulse = dleit.PulseShape(task["shape"], AMP, task["t_on"], task["t_off"],
                             2.0 if task["shape"] == "smoothed_square" else 0.0)
    grid = dleit.SimGrid(n_z=task["n_z"], dt=task["dt"], t_final=task["t_final"])
    result = dleit.simulate(params, pulse, pulse, grid, store_maps=task["store_maps"], map_stride=50)
    if task["store_maps"]:
        _require(result.field_map_probe.shape[1] == task["n_z"], "field map has the wrong width")
    if params.gamma21 > 0.0:
        total = result.energy_transmission_probe + result.energy_transmission_signal
        _require(total <= PASSIVE_BOUND, f"dephased pair gains energy: {total} for {task}")
    if task["shape"] == "gaussian":
        return 0.0
    k = int(round((task["t_off"] - PLATEAU_LEAD) / task["dt"]))
    inputs = dleit.FieldPair(result.input_probe[k], result.input_signal[k])
    out_p, out_s = complex(result.output_probe[k]), complex(result.output_signal[k])
    steady = dleit.steady_cw_output(params, inputs)
    if optimum is not None:
        t_s = abs(out_s / inputs.omega_s) ** 2
        t_p = abs(out_p / inputs.omega_p) ** 2
        _require(abs(t_s / optimum.signal_transmission - 1.0) <= PLATEAU_SIGNAL_TOL
                 and abs(t_p / optimum.probe_transmission - 1.0) <= PLATEAU_PROBE_TOL,
                 f"plateau transmissions {t_p:.6f}/{t_s:.6f} miss the optimum "
                 f"{optimum.probe_transmission:.6f}/{optimum.signal_transmission:.6f} for {task}")
        _require(math.isfinite(result.group_delay_signal), "group delay is not finite")
    else:
        worst = max(_relative(out_p, steady.omega_p), _relative(out_s, steady.omega_s))
        _require(worst <= CW_DEPHASED_TOL,
                 f"dephased plateau off steady_cw_output by {worst:.3e} for {task}")
    return max(abs(out_p - steady.omega_p), abs(out_s - steady.omega_s)) / abs(inputs.omega_p)


# ------------------------------------------------------------------ warm-up

def warm_up(workload: str) -> None:
    """One call into each layer the workload uses, on inputs outside its task list."""
    if workload == "design_sweep":
        for argv in (
            ["steady", "--alpha", "3", "--delta", "0.5", "--phi-r", "0.3", "--samples", "16"],
            ["phase-diagram", "--alpha", "3", "--delta", "0.5", "--phi-r", "0.3", "0.9", "--samples", "16"],
            ["jump", "--delta", "0.7", "--verify", "--samples", "64"],
            ["apm", "--alpha", "7", "--target", "pi", "--delta-range", "0.5:3", "--scan-step", "0.5"],
            ["apm", "--alpha", "7", "--target", "half_pi", "--delta-range", "0.5:3", "--scan-step", "0.5"],
            ["amplify-sweep", "--alpha", "3", "--scan-step", "1"],
        ):
            code, output = run_cli(argv)
            check_cli(argv, code, output)
        return
    params = _params({"alpha": 0.5, "delta": 0.25, "phi_r": 0.1, "gamma21": 0.0})
    grid = dleit.SimGrid(n_z=16, dt=0.5, t_final=20.0)
    if workload == "cw_ensemble":
        dleit.simulate(params, dleit.PulseShape.cw(AMP), dleit.PulseShape.cw(AMP), grid)
        dleit.propagate_general(params, dleit.FieldPair(AMP, AMP), params.alpha)
    else:
        dleit.optimize_amplification(2.0)
        dleit.simulate(params, dleit.PulseShape.gaussian(AMP, 1.0, 9.0),
                       dleit.PulseShape.square(AMP, 1.0, 9.0), grid, store_maps=True)
    dleit.steady_cw_output(params, dleit.FieldPair(AMP, AMP))
