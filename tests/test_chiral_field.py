"""Window profiles, the vacuum quadratic form in closed form, and the
quadrature references it is checked against (quad_reference.py)."""

import math

import numpy as np
import pytest

from edgeqet.chiral_field import (WindowProfile, _moment, quad_form_vacuum,
                                  window_derivative_l2)
from quad_reference import (CorrelatorKernel, fourier_abs,
                            quad_form_vacuum_position_space,
                            quad_form_vacuum_spectral)


@pytest.fixture()
def window():
    return WindowProfile(center=0.3e-5, sigma=1e-5, amplitude=2.0)


def test_window_shape(window):
    assert window(window.center) == pytest.approx(window.amplitude)
    one_sigma = window(window.center + window.sigma)
    assert one_sigma == pytest.approx(window.amplitude * math.exp(-0.5))
    with pytest.raises(ValueError):
        WindowProfile(center=0.0, sigma=0.0)


def test_window_derivatives_match_finite_differences(window):
    x = np.linspace(-3e-5, 3e-5, 11)
    h = 1e-9  # small against sigma = 1e-5, large against fp noise
    d1 = (window(x + h) - window(x - h)) / (2 * h)
    assert window.derivative(x, order=1) == pytest.approx(d1, rel=1e-6,
                                                          abs=0.0)
    h = 1e-7
    d2 = (window(x + h) - 2 * window(x) + window(x - h)) / h ** 2
    assert window.derivative(x, order=2) == pytest.approx(d2, rel=1e-4,
                                                          abs=0.0)
    with pytest.raises(ValueError):
        window.derivative(x, order=3)


def test_derivative_l2_closed_forms(window):
    # cross-check the closed forms by direct sampling
    x = np.linspace(window.center - 10 * window.sigma,
                    window.center + 10 * window.sigma, 200001)
    for order in (1, 2):
        sampled = np.trapezoid(window.derivative(x, order=order) ** 2, x)
        assert window_derivative_l2(window, order) == pytest.approx(
            sampled, rel=1e-8, abs=0.0)
    with pytest.raises(ValueError):
        window_derivative_l2(window, 3)


def test_fourier_abs_is_transform_magnitude(window):
    # compare |FT| against a dense numerical Fourier integral
    k = 2.0 / window.sigma
    x = np.linspace(window.center - 12 * window.sigma,
                    window.center + 12 * window.sigma, 400001)
    for order in (0, 1):
        g = window(x) if order == 0 else window.derivative(x, order=1)
        ft = np.trapezoid(g * np.exp(-1j * k * x), x)
        assert fourier_abs(window, k, order=order) == pytest.approx(
            abs(ft), rel=1e-7, abs=0.0)


def test_correlator_values():
    kern = CorrelatorKernel(nu=3.0, eps_uv=1e-7)
    # at x = 0 the correlator is real and positive: nu / (4 pi^2 eps^2)
    assert kern.correlator(0.0) == pytest.approx(
        3.0 / (4 * math.pi ** 2 * 1e-14))
    # large-x tail: Re Delta -> -nu/(4 pi^2 x^2)
    x = 1e-3
    assert kern.correlator(x).real == pytest.approx(
        -3.0 / (4 * math.pi ** 2 * x ** 2), rel=1e-6, abs=0.0)
    with pytest.raises(ValueError):
        CorrelatorKernel(nu=0.0, eps_uv=1e-7)


def test_spectral_weight_is_correlator_transform():
    # Delta(x) = int_0^inf dk spectral_weight(k) e^{-ikx} / k * k ... i.e.
    # the position-space kernel must equal the k integral of the weight
    kern = CorrelatorKernel(nu=3.0, eps_uv=1e-7)
    k = np.linspace(0, 60 / 1e-7, 2_000_001)
    x = 2.5e-7
    val = np.trapezoid(kern.spectral_weight(k) * np.exp(-1j * k * x), k)
    assert val.real == pytest.approx(kern.correlator(x).real, rel=1e-6,
                                     abs=0.0)


def test_quad_form_spectral_vs_position_space():
    """The closed form and the brute-force position-space quadratic form
    agree."""
    kern = CorrelatorKernel(nu=3.0, eps_uv=1e-7)
    window = WindowProfile(center=0.0, sigma=1e-5, amplitude=1.0)
    closed = quad_form_vacuum(3.0, 1e-7, window, order=1)
    direct = quad_form_vacuum_position_space(kern, window, order=1)
    assert closed > 0
    assert direct == pytest.approx(closed, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("ratio", [1e-7, 1e-2, 1, 2, 4, 10, 100, 1000])
def test_quad_form_closed_form_matches_spectral_quadrature(order, ratio):
    """Both regimes of the moments (forward recursion for eps <= 2 sigma,
    continued fraction above) against adaptive quadrature of the
    spectral integral."""
    sigma = 1e-5
    window = WindowProfile(center=0.3e-5, sigma=sigma, amplitude=2.0)
    kern = CorrelatorKernel(nu=3.0, eps_uv=ratio * sigma)
    reference = quad_form_vacuum_spectral(kern, window, order=order,
                                          coupling=1.5, rel_tol=1e-14)
    closed = quad_form_vacuum(3.0, ratio * sigma, window, order=order,
                              coupling=1.5)
    assert closed == pytest.approx(reference, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_moment_without_regulator_is_gamma_function(n):
    sigma = 1e-5
    exact = math.gamma(0.5 * (n + 1)) / (2.0 * sigma ** (n + 1))
    assert _moment(n, 0.0, sigma) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_quad_form_scaling(params):
    window = WindowProfile(center=0.0, sigma=params.l, amplitude=1.0)
    base = quad_form_vacuum(params.nu_S, params.eps_uv, window, order=1)
    # quadratic in the coupling, linear in nu
    assert quad_form_vacuum(params.nu_S, params.eps_uv, window, order=1,
                            coupling=2.0) == pytest.approx(
        4 * base, rel=1e-12, abs=0.0)
    assert quad_form_vacuum(2 * params.nu_S, params.eps_uv, window,
                            order=1) == pytest.approx(2 * base, rel=1e-12,
                                                      abs=0.0)
    assert quad_form_vacuum(params.nu_S, params.eps_uv, window, order=1,
                            coupling=0.0) == 0.0
    # eps_uv = 0 is finite and lies above every regulated value
    assert quad_form_vacuum(params.nu_S, 0.0, window, order=1) > base
    with pytest.raises(ValueError, match="eps_uv"):
        quad_form_vacuum(params.nu_S, -1e-9, window, order=1)
