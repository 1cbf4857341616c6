"""Energy budget of a measurement-feedback energy-extraction protocol on
chiral quantum Hall edge channels.

The package has two independent computational routes:

* an analytic pipeline (:mod:`edgeqet.energetics`) evaluating the
  closed-form / quadrature expressions for the measurement cost ``E_A``,
  the feedback packet energy ``E_1``, and the extracted energy ``E_B``;
* an exact Gaussian-state protocol simulator (:mod:`edgeqet.oracle`)
  that runs the measure-communicate-extract cycle shot by shot on a
  discretized two-channel boson field.

The command-line interface (``edgeqet``) wraps both.
"""

from .params import (ExperimentParams, FastDetectorWarning, ParamFileError,
                     RegimeWarning, ValidationError, default_paper_params,
                     thermal_energy, validate)
from .chiral_field import WindowProfile
from .detector import RCDetector, delta_v, signal_rms
from .energetics import (ConvergenceFailure, EnergyBudget, compute_EA,
                         compute_EB, compute_E1, current_from_energy_density,
                         eb_order_estimate, energy_budget,
                         energy_density_from_current)
from .oracle import ModeGrid, ProtocolResult, default_grid, run_protocol

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure", "EnergyBudget", "ExperimentParams",
    "FastDetectorWarning", "ModeGrid", "ParamFileError", "ProtocolResult",
    "RCDetector", "RegimeWarning", "ValidationError", "WindowProfile",
    "compute_EA", "compute_EB", "compute_E1",
    "current_from_energy_density", "default_grid", "default_paper_params",
    "delta_v", "eb_order_estimate", "energy_budget",
    "energy_density_from_current", "run_protocol", "signal_rms",
    "thermal_energy", "validate",
]
