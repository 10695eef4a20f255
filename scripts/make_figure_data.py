"""Generate the study's data tables into an output directory.

Runs the dleit CLI once per table so every file carries its exact
configuration header and is reproducible byte-for-byte:

  steady_sweep_a*.csv     terminal transmissions/phases vs loop phase
  trajectory_jump.csv     field trajectories at the first jump phase
  jump_table.csv          critical depths and jump phases vs detuning
  apm_pi.csv, apm_half_pi.csv   optimized modulation points vs depth
  amplification.csv       optimal amplification working points vs depth
  pulse_amplified.csv     pulse pair at the alpha=100 amplification optimum

Usage: python scripts/make_figure_data.py --out-dir data [--quick]
"""

import argparse
import sys
from pathlib import Path

from dleit.cli import main as dleit_main
from dleit.dynamics import optimize_amplification
from dleit.phase_jump import solve_jump


def run(argv: list[str], out_path: Path) -> None:
    code = dleit_main(argv + ["--out", str(out_path)])
    if code != 0:
        raise SystemExit(f"dleit {' '.join(argv)} failed with exit code {code}")
    print(f"wrote {out_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--quick", action="store_true",
                        help="coarser sweeps and a shorter pulse run")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    phi_step = "0.1" if args.quick else "0.02"
    for alpha in (40, 100):
        run(
            ["steady", "--alpha", str(alpha), "--delta", "16.5",
             "--phi-r-sweep", f"0:6.2832:{phi_step}"],
            out / f"steady_sweep_a{alpha}.csv",
        )

    jump = solve_jump(16.5, 1)
    run(
        ["phase-diagram", "--alpha", "100", "--delta", "16.5",
         "--phi-r", f"{jump.probe_jump_phase}", f"{jump.signal_jump_phase}"],
        out / "trajectory_jump.csv",
    )

    run(
        ["jump", "--delta-sweep", "2:50:0.5", "--verify"],
        out / "jump_table.csv",
    )

    alpha_list = ["20", "40", "60", "80", "100"] if args.quick else [
        str(a) for a in range(10, 201, 10)
    ]
    for target in ("pi", "half_pi"):
        run(
            ["apm", "--alpha", *alpha_list, "--target", target],
            out / f"apm_{target}.csv",
        )

    run(
        ["amplify-sweep", "--alpha-sweep", "5:200:5"],
        out / "amplification.csv",
    )

    best = optimize_amplification(100.0)
    t_final = "260" if args.quick else "400"
    run(
        ["propagate", "--alpha", "100", "--delta", f"{best.delta_opt}",
         "--phi-r", f"{best.phi_r_opt}", "--t-final", t_final,
         "--t-stride", "10"],
        out / "pulse_amplified.csv",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
