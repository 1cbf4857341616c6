"""RC detector noise, signal RMS, and the measurement coupling."""

import math

import pytest

from edgeqet import params as P
from edgeqet.detector import (RCDetector, delta_v,
                              detector_from_params, measurement_coupling,
                              sense_window, signal_rms)


def test_delta_v_closed_form(params):
    det = detector_from_params(params)
    x = det.omega_c * det.R * det.C
    expected = math.sqrt(P.HBAR / (2 * math.pi * det.R * det.C ** 2)
                         * math.log1p(x * x))
    assert delta_v(det) == pytest.approx(expected, rel=1e-14, abs=0.0)
    # the quoted setup lands at 12.43 uV, the expected ~10 uV order
    assert delta_v(det) == pytest.approx(12.43e-6, rel=1e-3, abs=0.0)


def test_delta_v_monotone_in_cutoff(params):
    det = detector_from_params(params)
    lower = RCDetector(R=det.R, C=det.C, omega_c=det.omega_c / 10)
    assert delta_v(lower) < delta_v(det)
    assert delta_v(RCDetector(R=det.R, C=det.C, omega_c=0.0)) == 0.0
    with pytest.raises(ValueError):
        RCDetector(R=-1.0, C=det.C, omega_c=det.omega_c)


def test_signal_rms_order(params):
    rms = signal_rms(params)
    # O(100 uV); frozen value 77.76 uV
    assert rms == pytest.approx(77.76e-6, rel=1e-3, abs=0.0)
    # scales linearly with the drive e v_g R
    assert signal_rms(params.replace(R=2 * params.R)) == pytest.approx(
        2 * rms, rel=1e-10, abs=0.0)


def test_measurement_coupling(params):
    dv = delta_v(detector_from_params(params))
    g = measurement_coupling(params)
    assert g == pytest.approx(
        P.E_CHARGE * params.v_g * params.R / (2 * dv), rel=1e-14, abs=0.0)
    # no spectral band, no vacuum noise: the guard on dV refuses it as
    # a numerical failure, as it refuses a dV that underflows to 0
    with pytest.raises(FloatingPointError, match="delta_v"):
        measurement_coupling(params.replace(omega_c=0.0))


def test_sense_window_geometry(params):
    w = sense_window(params)
    assert w.center == 0.0
    assert w.sigma == params.l
    assert w.amplitude == 1.0

