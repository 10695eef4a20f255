"""Command-line interface emitting reproducible CSV/JSON data files.

Every subcommand resolves its configuration (optional key-value config
file, overridden by explicit flags), runs the corresponding computation,
and writes a table: CSV with `#`-prefixed metadata lines, or a single
JSON object with `config`, `columns`, and `data`.  Identical configuration
yields byte-identical output.  All physical quantities are in Gamma units.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np

# optimize_detuning stays importable here: perfbench's layer tests look it up on dleit.cli.
from .apm import optimize_detuning, optimize_detuning_sweep  # noqa: F401
from .core import DEFAULT_DELTA_RANGE, DEFAULT_DELTA_TOL, DEFAULT_SCAN_STEP, MediumParams
from .dynamics import (
    DEFAULT_RISE_TIME,
    PULSE_KINDS,
    NumericalInstability,
    PulseShape,
    SimGrid,
    amplification_sweep,
    simulate,
)
from .phase_jump import solve_jump, verify_jump
from .steady_state import DEFAULT_CURVE_SAMPLES, accumulated_phase, balanced_ratios, trace_curve

COMMANDS = ("steady", "phase-diagram", "jump", "apm", "propagate", "amplify-sweep")


def _parse_sweep(spec: str) -> list[float]:
    """start:stop:step grid, stop included when it lies on the grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step) and step > 0.0):
        raise ValueError(f"sweep needs finite bounds and a step > 0, got {spec!r}")
    count = math.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise ValueError(f"sweep {spec!r} contains no points")
    return [start + k * step for k in range(count)]


def _parse_pair(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must be lo:hi, got {spec!r}")
    return float(parts[0]), float(parts[1])


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output path, '-' for stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument(
        "--config",
        default=None,
        help="key-value file supplying defaults; explicit flags override it",
    )
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `dleit` parser, built once per process and shared by every `main` call.

    Parsing leaves it unchanged; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="dleit",
        description="Double-lambda EIT toolkit: steady-state propagation, "
        "phase jumps, phase modulation, and pulse dynamics (Gamma units).",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "steady",
        parents=[common],
        help="terminal transmissions and accumulated phases of both fields",
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--phi-r", type=float, default=0.0)
    group.add_argument("--phi-r-sweep", type=_parse_sweep, default=None,
                       metavar="START:STOP:STEP")
    p.add_argument("--samples", type=int, default=DEFAULT_CURVE_SAMPLES,
                   help="kept for compatibility; the closed-form phases do not use it")
    p.set_defaults(handler=cmd_steady)

    p = sub.add_parser(
        "phase-diagram",
        parents=[common],
        help="complex field trajectories along the medium",
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--phi-r", type=float, nargs="+", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_CURVE_SAMPLES)
    p.set_defaults(handler=cmd_phase_diagram)

    p = sub.add_parser(
        "jump",
        parents=[common],
        help="critical depths and jump phases over a detuning grid",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, nargs="+")
    group.add_argument("--delta-sweep", type=_parse_sweep, metavar="START:STOP:STEP")
    p.add_argument("--n", type=int, default=1, help="jump order (odd)")
    p.add_argument("--verify", action="store_true",
                   help="locate the field zero numerically on a traced curve")
    p.add_argument("--samples", type=int, default=DEFAULT_CURVE_SAMPLES)
    p.set_defaults(handler=cmd_jump)

    p = sub.add_parser(
        "apm",
        parents=[common],
        help="optimized phase-modulation working points per optical depth",
    )
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--target", choices=("pi", "half_pi"), default="pi")
    p.add_argument("--delta-range", type=_parse_pair, default=DEFAULT_DELTA_RANGE,
                   metavar="LO:HI")
    p.add_argument("--scan-step", type=float, default=DEFAULT_SCAN_STEP)
    p.add_argument("--tol", type=float, default=DEFAULT_DELTA_TOL)
    p.set_defaults(handler=cmd_apm)

    p = sub.add_parser(
        "propagate",
        parents=[common],
        help="time-domain pulse propagation through the medium",
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--gamma21", type=float, default=0.0)
    p.add_argument("--phi-r", type=float, default=0.0,
                   help="loop phase, realized as the drive-field phase")
    p.add_argument("--omega-c", type=float, default=1.0)
    p.add_argument("--omega-d", type=float, default=1.0)
    p.add_argument("--probe-amp", type=float, default=1e-3)
    p.add_argument("--signal-amp", type=float, default=1e-3)
    p.add_argument("--pulse", choices=PULSE_KINDS, default="smoothed_square")
    p.add_argument("--t-on", type=float, default=10.0)
    p.add_argument("--t-off", type=float, default=210.0)
    p.add_argument("--rise-time", type=float, default=DEFAULT_RISE_TIME)
    p.add_argument("--n-z", type=int, default=200)
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--t-final", type=float, default=400.0)
    p.add_argument("--t-stride", type=int, default=1,
                   help="emit every k-th time sample")
    p.set_defaults(handler=cmd_propagate)

    p = sub.add_parser(
        "amplify-sweep",
        parents=[common],
        help="energy-optimal signal working point per optical depth",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, nargs="+")
    group.add_argument("--alpha-sweep", type=_parse_sweep, metavar="START:STOP:STEP")
    p.add_argument("--delta-range", type=_parse_pair, default=DEFAULT_DELTA_RANGE,
                   metavar="LO:HI")
    p.add_argument("--scan-step", type=float, default=DEFAULT_SCAN_STEP)
    p.add_argument("--tol", type=float, default=DEFAULT_DELTA_TOL)
    p.set_defaults(handler=cmd_amplify_sweep)

    return parser


def _config_tokens(path: str) -> list[str]:
    """Translate a key-value config file into command-line tokens."""
    tokens: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or key == "config":
            raise ValueError(f"invalid config key in line: {raw!r}")
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(flag)
            continue
        tokens.append(flag)
        tokens.extend(shlex.split(value))
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens right after the subcommand.

    Tokens given explicitly on the command line come later and therefore
    override the config file.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None:
        return argv
    for i, token in enumerate(argv):
        if token in COMMANDS:
            return argv[: i + 1] + _config_tokens(path) + argv[i + 1 :]
    return argv


def cmd_steady(args) -> tuple[list[str], list[list[float]], dict]:
    params = MediumParams(alpha=args.alpha, delta=args.delta)
    phis = np.array(args.phi_r_sweep if args.phi_r_sweep is not None else [args.phi_r])
    if args.samples < 2:
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    if not math.isfinite(args.phi_r):  # a sweep's parser has checked its values
        raise ValueError(f"phi_r must be finite, got {args.phi_r}")
    ends = np.vstack([np.abs(balanced_ratios(params.alpha, params.xi.real, phis)),
                      accumulated_phase(params.alpha, params.xi.real, phis)])
    if params.alpha == 0.0:  # the identity medium, pinned exactly as trace_curve pins zeta = 0
        ends = np.repeat([[1.0], [1.0], [0.0], [0.0]], phis.size, axis=1)
    # Squared as Python floats (libm pow), as the per-curve rows always were;
    # numpy's array square can differ from pow in the last bit.
    rows = [[phi, mp**2, ms**2, dp, ds] for phi, mp, ms, dp, ds in zip(phis.tolist(), *ends.tolist())]
    return ["phi_r", "T_p", "T_s", "dphi_p", "dphi_s"], rows, {}


def cmd_phase_diagram(args) -> tuple[list[str], list[list[float]], dict]:
    params = MediumParams(alpha=args.alpha, delta=args.delta)
    columns = ["zeta", "re_probe", "im_probe", "re_signal", "im_signal"]
    multi = len(args.phi_r) > 1
    if multi:
        columns = ["phi_r"] + columns
    rows: list[list[float]] = []
    for phi in args.phi_r:
        curve = trace_curve(phi, params, n_samples=args.samples)
        probe, signal = curve.probe_ratio, curve.signal_ratio
        lead = [np.full(len(curve), phi)] if multi else []
        rows += np.column_stack(
            lead + [curve.zeta_grid, probe.real, probe.imag, signal.real, signal.imag]
        ).tolist()
    return columns, rows, {}


def cmd_jump(args) -> tuple[list[str], list[list[float]], dict]:
    if args.samples < 2:
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    deltas = args.delta if args.delta is not None else args.delta_sweep
    columns = ["delta", "critical_depth", "probe_jump_phase", "signal_jump_phase"]
    if args.verify:
        columns += ["zero_zeta", "zero_offset", "grid_step"]

    def one(delta: float) -> list[float]:
        sol = solve_jump(delta, args.n)
        row = [delta, sol.critical_depth, sol.probe_jump_phase, sol.signal_jump_phase]
        if args.verify:
            zero = verify_jump(sol, args.samples)
            zero = math.nan if zero is None else zero
            row += [zero, abs(zero - sol.critical_depth), sol.critical_depth / (args.samples - 1)]
        return row

    return columns, [one(delta) for delta in deltas], {}


def cmd_apm(args) -> tuple[list[str], list[list[float]], dict]:
    points = optimize_detuning_sweep(
        args.alpha, args.target, delta_range=args.delta_range, tol=args.tol, scan_step=args.scan_step
    )
    rows = [[pt.alpha, pt.delta, pt.phi_r, pt.transmission_with_signal, pt.transmission_without_signal,
             pt.phase_with, pt.phase_without, pt.apm_contrast] for pt in points]
    columns = ["alpha", "delta_opt", "phi_r", "T_with", "T_without", "phase_with", "phase_without",
               "contrast"]
    return columns, rows, {}


def cmd_propagate(args) -> tuple[list[str], list[list[float]], dict]:
    if args.t_stride < 1:
        raise ValueError(f"t-stride must be >= 1, got {args.t_stride}")
    params = MediumParams(
        alpha=args.alpha,
        delta=args.delta,
        gamma21=args.gamma21,
        omega_c=args.omega_c,
        omega_d=args.omega_d * np.exp(1j * args.phi_r),
    )
    probe = PulseShape(args.pulse, args.probe_amp, args.t_on, args.t_off, args.rise_time)
    signal = PulseShape(args.pulse, args.signal_amp, args.t_on, args.t_off, args.rise_time)
    grid = SimGrid(n_z=args.n_z, dt=args.dt, t_final=args.t_final)
    result = simulate(params, probe, signal, grid)
    waves = {"probe_in": result.input_probe, "signal_in": result.input_signal,
             "probe_out": result.output_probe, "signal_out": result.output_signal}
    columns = ["t"] + [f"{part}_{name}" for name in waves for part in ("re", "im")]
    rows = np.column_stack(
        [result.time_grid] + [part for w in waves.values() for part in (w.real, w.imag)]
    )[:: args.t_stride].tolist()
    meta = {
        "energy_transmission_probe": result.energy_transmission_probe,
        "energy_transmission_signal": result.energy_transmission_signal,
        "group_delay_probe": result.group_delay_probe,
        "group_delay_signal": result.group_delay_signal,
    }
    return columns, rows, meta


def cmd_amplify_sweep(args) -> tuple[list[str], list[list[float]], dict]:
    alphas = args.alpha if args.alpha is not None else args.alpha_sweep
    results = amplification_sweep(
        alphas, delta_range=args.delta_range, scan_step=args.scan_step, tol=args.tol
    )
    rows = [[r.alpha, r.delta_opt, r.phi_r_opt, r.probe_transmission, r.signal_transmission]
            for r in results]
    columns = ["alpha", "delta_opt", "phi_r_opt", "T_p", "T_s"]
    return columns, rows, {}


#: argparse entries that do not affect the computed data and therefore stay
#: out of the reproducibility header (identical physics => identical bytes).
_NON_CONFIG_KEYS = ("handler", "command", "out", "format", "config")


def _config_echo(args) -> dict:
    echo = {"command": args.command}
    for key, value in vars(args).items():
        if key in _NON_CONFIG_KEYS:
            continue
        if isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    return echo


def _render_csv(config: dict, columns: list[str], rows: list[list[float]],
                meta: dict) -> str:
    lines = [f"# {key} = {value}" for key, value in config.items()]
    lines += [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(repr, map(float, row))))
    return "\n".join(lines) + "\n"


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN/inf; undefined entries become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _render_json(config: dict, columns: list[str], rows: list[list[float]],
                 meta: dict) -> str:
    payload = {
        "config": {
            key: _finite_or_none(value) if isinstance(value, float) else value
            for key, value in {**config, **meta}.items()
        },
        "columns": columns,
        "data": [[_finite_or_none(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _write(args, columns: list[str], rows: list[list[float]], meta: dict) -> None:
    config = _config_echo(args)
    if args.format == "csv":
        text = _render_csv(config, columns, rows, meta)
    else:
        text = _render_json(config, columns, rows, meta)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        columns, rows, meta = args.handler(args)
        _write(args, columns, rows, meta)
    except NumericalInstability as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
