"""RC-circuit detector model: vacuum voltage noise, measured-signal RMS,
and the measurement coupling of the Gaussian pointer."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import params as P
from .chiral_field import WindowProfile, quad_form_vacuum


@dataclass(frozen=True)
class RCDetector:
    R: float
    C: float
    omega_c: float

    def __post_init__(self):
        if min(self.R, self.C) <= 0 or self.omega_c < 0:
            raise ValueError("R, C must be > 0 and omega_c >= 0")


def delta_v(det: RCDetector) -> float:
    """Vacuum RMS of the detector voltage with spectral cutoff omega_c.

    The band integral int_0^wc w/(w^2 + (RC)^-2) dw is logarithmic, so
    the cutoff is an explicit knob:
        dV = sqrt( hbar/(2 pi R C^2) * ln(1 + (wc R C)^2) ).
    """
    x = det.omega_c * det.R * det.C
    return math.sqrt(P.HBAR / (2.0 * math.pi * det.R * det.C ** 2)
                     * math.log1p(x * x))


def detector_from_params(params: P.ExperimentParams) -> RCDetector:
    return RCDetector(R=params.R, C=params.C, omega_c=params.omega_c)


def sense_window(params: P.ExperimentParams) -> WindowProfile:
    """Unit-amplitude Gaussian window of the measured region, sigma = l."""
    return WindowProfile(center=0.0, sigma=params.l, amplitude=1.0)


def signal_rms(params: P.ExperimentParams) -> float:
    """RMS of the voltage shift R*dQ/dt induced by vacuum charge noise.

    R dQ/dt at switch-on equals -e v_g R int rho(x) dw(x) dx, so the
    variance is the vacuum quadratic form with kernel dw.
    """
    qf = quad_form_vacuum(params.nu_S, params.eps_uv, sense_window(params),
                          order=1)
    return P.E_CHARGE * params.v_g * params.R * math.sqrt(qf)


def measurement_coupling(params: P.ExperimentParams) -> float:
    """e v_g R / (2 dV), the length-dimension coupling of the pointer."""
    dv = delta_v(detector_from_params(params))
    if dv <= 0:
        raise FloatingPointError(f"delta_v is {dv:g} V, not positive")
    return P.E_CHARGE * params.v_g * params.R / (2.0 * dv)
