"""Continuum chiral-boson toolbox: Gaussian window profiles, the
regularized vacuum density-density correlator, and quadratic-form vacuum
expectation values evaluated in spectral form.

Conventions: a window ``w`` is a Gaussian ``A exp(-(x-c)^2 / 2 sigma^2)``;
every wavenumber integral carries the same exponential short-distance
damping ``exp(-k * eps_uv)`` so that regulated results are consistent
across modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import IntegrationSpec, integrate_1d

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WindowProfile:
    """Gaussian window A*exp(-(x-center)^2 / (2 sigma^2))."""

    center: float
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-((x - self.center) ** 2)
                                       / (2.0 * self.sigma ** 2))

    def derivative(self, x, order: int = 1):
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.sigma
        gauss = self.amplitude * np.exp(-0.5 * u * u)
        if order == 1:
            return -u / self.sigma * gauss
        if order == 2:
            return (u * u - 1.0) / self.sigma ** 2 * gauss
        raise ValueError(f"order must be 1 or 2, got {order}")

    def fourier_abs(self, k, order: int = 0):
        """|FT of the order-th derivative| at wavenumber k >= 0.

        FT convention: g~(k) = int g(x) exp(-i k x) dx, so
        |FT d^n w| = k^n * A*sqrt(2 pi)*sigma*exp(-sigma^2 k^2 / 2).
        """
        k = np.asarray(k, dtype=float)
        base = (self.amplitude * math.sqrt(TWO_PI) * self.sigma
                * np.exp(-0.5 * (self.sigma * k) ** 2))
        return base * k ** order


def window_derivative_l2(w: WindowProfile, order: int) -> float:
    """Closed-form int (d^order w)^2 dx for the Gaussian window.

    order 1: A^2 sqrt(pi) / (2 sigma); order 2: (3/4) sqrt(pi) A^2 / sigma^3.
    """
    a2 = w.amplitude ** 2
    if order == 1:
        return a2 * math.sqrt(math.pi) / (2.0 * w.sigma)
    if order == 2:
        return 0.75 * math.sqrt(math.pi) * a2 / w.sigma ** 3
    raise ValueError(f"order must be 1 or 2, got {order}")


@dataclass(frozen=True)
class CorrelatorKernel:
    """Regularized vacuum two-point function of the charge density.

    Delta(x) = (nu / 4 pi^2) * 1/(eps_uv + i x)^2, i.e. the wavenumber
    integral int_0^inf dk k exp(-ikx) damped by exp(-k eps_uv).
    """

    nu: float
    eps_uv: float

    def __post_init__(self):
        if self.nu <= 0 or self.eps_uv <= 0:
            raise ValueError("nu and eps_uv must be positive")

    def correlator(self, x):
        x = np.asarray(x, dtype=float)
        return self.nu / (4.0 * math.pi ** 2) / (self.eps_uv + 1j * x) ** 2

    def spectral_weight(self, k):
        """(nu / 4 pi^2) * k * exp(-k eps_uv): density of the quadratic form."""
        k = np.asarray(k, dtype=float)
        return self.nu / (4.0 * math.pi ** 2) * k * np.exp(-k * self.eps_uv)


def quad_form_vacuum(kernel: CorrelatorKernel, window: WindowProfile,
                     order: int = 1, coupling: float = 1.0,
                     rel_tol: float = 1e-10) -> float:
    """Vacuum expectation of (coupling * int rho(x) d^order w(x) dx)^2.

    Evaluated spectrally: (nu/4pi^2) int_0^inf dk k e^{-k eps} |g~(k)|^2,
    with g = coupling * d^order w; real and non-negative by construction.
    """
    if coupling == 0.0 or window.amplitude == 0.0:
        return 0.0
    k_max = 60.0 / window.sigma

    def integrand(k):
        g = coupling * window.fourier_abs(k, order=order)
        return kernel.spectral_weight(k) * g * g

    spec = IntegrationSpec(bounds=((0.0, k_max),), rel_tol=rel_tol,
                           max_subdivisions=2000)
    return integrate_1d(integrand, spec).value


def quad_form_vacuum_position_space(kernel: CorrelatorKernel,
                                    window: WindowProfile, order: int = 1,
                                    coupling: float = 1.0,
                                    rel_tol: float = 1e-8) -> float:
    """Position-space evaluation of the vacuum quadratic form.

    In separation coordinates the double integral collapses to
    int du Re Delta(u) * c(u), with c the autocorrelation of
    g = coupling * d^order w (computed here by quadrature, not in
    closed form).  Splitting the u integral at the regulator spike
    keeps the adaptive rule honest.  Independent cross-check of the
    spectral route; used in tests only.
    """
    span = 8.0 * window.sigma
    lo, hi = window.center - span, window.center + span
    # autocorrelation values decay to ~0 at large separation: an absolute
    # floor relative to the zero-lag value keeps the quadrature sane there
    floor = 1e-14 * coupling ** 2 * window_derivative_l2(window, order)

    def autocorr(u):
        def gg(x):
            return (coupling * window.derivative(x, order=order)
                    * coupling * window.derivative(x - u, order=order))
        spec = IntegrationSpec(bounds=((lo, hi + abs(u)),), rel_tol=1e-12,
                               abs_tol=floor, max_subdivisions=200)
        return integrate_1d(gg, spec).value

    def f(us):
        return np.array([autocorr(u) * kernel.correlator(u).real
                         for u in us])

    total = 0.0
    for bounds in ((-2.0 * span, 0.0), (0.0, 2.0 * span)):
        spec = IntegrationSpec(bounds=(bounds,), rel_tol=rel_tol,
                               abs_tol=1e-40, max_subdivisions=4000)
        total += integrate_1d(f, spec).value
    return total
