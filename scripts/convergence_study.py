"""Grid-refinement study of the time-domain solver against the closed form.

Halves dt and the spatial step together over a few levels, measures the
terminal CW error of both weak fields against the exact steady solution,
and prints the observed convergence order per level.  The CW error comes
from the trapezoid quadrature in zeta alone: it is second order in the
spatial step and independent of dt, because the coherence update is exact
and leaves the CW fixed point unchanged.  Each level should therefore
shrink the error by about 4x until the finite settling time floors it.
Pulse transients are a different matter: the split step (coherences with
frozen fields, then the field rebuild) is first order in dt, which this
CW study does not probe.

The runs need only the terminal outputs, so `simulate` answers them
through its discrete-exact FFT twin of that split step, not by stepping;
the twin reproduces the stepper within 2.5e-13 of the amplitude on the
default four levels, far below the errors printed here, and falls back
to the stepper whenever its certificate or guard fails.  The measured
orders are therefore the scheme's.  Set the "dleit" logger to DEBUG to
see each run's route.

Usage: python scripts/convergence_study.py [--alpha 20] [--levels 4]
"""

import argparse
import math
import sys

import numpy as np

from dleit.core import FieldPair, MediumParams
from dleit.dynamics import PulseShape, SimGrid, simulate
from dleit.steady_state import propagate_general


def terminal_error(params: MediumParams, amp: float, n_z: int, dt: float,
                   t_final: float) -> float:
    pulse = PulseShape.cw(amp)
    result = simulate(params, pulse, pulse, SimGrid(n_z=n_z, dt=dt, t_final=t_final))
    exact = propagate_general(params, FieldPair(amp, amp), params.alpha)
    return max(
        abs(result.output_probe[-1] - exact.omega_p),
        abs(result.output_signal[-1] - exact.omega_s),
    ) / amp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", type=float, default=20.0)
    parser.add_argument("--delta", type=float, default=5.0)
    parser.add_argument("--phi-r", type=float, default=2.0)
    parser.add_argument("--amp", type=float, default=1e-3)
    parser.add_argument("--levels", type=int, default=4)
    parser.add_argument("--base-n-z", type=int, default=50)
    parser.add_argument("--base-dt", type=float, default=0.08)
    parser.add_argument("--t-final", type=float, default=None,
                        help="default 300 + 2*alpha, enough to settle")
    args = parser.parse_args()

    params = MediumParams(
        alpha=args.alpha, delta=args.delta, omega_d=np.exp(1j * args.phi_r)
    )
    t_final = args.t_final if args.t_final is not None else 300.0 + 2.0 * args.alpha

    print(f"alpha={args.alpha} delta={args.delta} phi_r={args.phi_r} "
          f"t_final={t_final}")
    print(f"{'n_z':>6} {'dt':>8} {'rel error':>12} {'order':>7}")
    previous = None
    for level in range(args.levels):
        n_z = args.base_n_z * 2**level
        dt = args.base_dt / 2**level
        error = terminal_error(params, args.amp, n_z, dt, t_final)
        order = math.log2(previous / error) if previous is not None else float("nan")
        print(f"{n_z:>6} {dt:>8.4f} {error:>12.3e} {order:>7.2f}")
        previous = error
    return 0


if __name__ == "__main__":
    sys.exit(main())
