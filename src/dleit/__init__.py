"""Phase-dependent double-lambda EIT toolkit.

Weak probe and signal fields coupled through two strong drives form a
closed interaction loop whose relative phase controls absorption, gain,
output phases, and pulse propagation.  The package provides the
steady-state closed forms, the critical-depth phase-jump analytics, the
phase-modulation design tools, and a time-domain Maxwell-Bloch integrator,
all in Gamma units.

The package logs to the "dleit" logger, which carries a NullHandler:
nothing is printed unless the application configures logging.  At DEBUG
level `simulate` names the route each run took.
"""

import logging

from .core import (
    FieldPair,
    MediumParams,
    PerturbativeCheck,
    validate_perturbative,
    wrap_phase,
    wrap_signed,
)
from .steady_state import (
    CoherenceState,
    PropagationCurve,
    ZeroFieldError,
    accumulated_phase,
    balanced_components,
    balanced_ratios,
    coherences_steady,
    decay_factor,
    propagate_balanced,
    propagate_general,
    trace_curve,
    transmission_and_phase,
    unwrapped_phase,
)
from .phase_jump import (
    JumpSolution,
    critical_depth,
    detect_zero_crossing,
    jump_phase_probe,
    jump_phase_signal,
    solve_jump,
    verify_jump,
    zero_crossings,
)
from .apm import (
    ApmOperatingPoint,
    InfeasibleError,
    apm_contrast,
    operating_point,
    optimize_detuning,
    optimize_detuning_sweep,
    phi_r_for_half_pi_shift,
    phi_r_for_pi_shift,
    scan_local_maxima,
)
from .dynamics import (
    AmplificationResult,
    NumericalInstability,
    PulseShape,
    PulseSimResult,
    SimGrid,
    amplification_sweep,
    optimal_relative_phase,
    optimize_amplification,
    peak_transmission,
    simulate,
    steady_cw_output,
    step_fields,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "AmplificationResult",
    "ApmOperatingPoint",
    "CoherenceState",
    "FieldPair",
    "InfeasibleError",
    "JumpSolution",
    "MediumParams",
    "NumericalInstability",
    "PerturbativeCheck",
    "PropagationCurve",
    "PulseShape",
    "PulseSimResult",
    "SimGrid",
    "ZeroFieldError",
    "accumulated_phase",
    "amplification_sweep",
    "apm_contrast",
    "balanced_components",
    "balanced_ratios",
    "coherences_steady",
    "critical_depth",
    "decay_factor",
    "detect_zero_crossing",
    "jump_phase_probe",
    "jump_phase_signal",
    "operating_point",
    "optimal_relative_phase",
    "optimize_amplification",
    "optimize_detuning",
    "optimize_detuning_sweep",
    "peak_transmission",
    "phi_r_for_half_pi_shift",
    "phi_r_for_pi_shift",
    "propagate_balanced",
    "propagate_general",
    "scan_local_maxima",
    "simulate",
    "solve_jump",
    "steady_cw_output",
    "step_fields",
    "trace_curve",
    "transmission_and_phase",
    "unwrapped_phase",
    "validate_perturbative",
    "verify_jump",
    "wrap_phase",
    "wrap_signed",
    "zero_crossings",
]
