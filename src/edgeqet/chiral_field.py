"""Continuum chiral-boson toolbox: Gaussian window profiles, the
Faddeeva function, and quadratic-form vacuum expectation values in
closed form.

Conventions: a window ``w`` is a Gaussian ``A exp(-(x-c)^2 / 2 sigma^2)``;
every wavenumber integral carries the same exponential short-distance
damping ``exp(-k * eps_uv)`` so that regulated results are consistent
across modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Depth of the continued fraction for the moments above x = 1; 400 terms
# give the moment ratios to rounding for every x >= 1.
_MOMENT_CF_TERMS = 400


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


# The coefficients of the polynomial p in _faddeeva, highest degree
# first: a_N .. a_1 of the length-4N FFT of exp(-t^2) (L^2 + t^2) at
# t = L tan(theta/2), divided by 4N, as numpy's FFT gives them, for
# N = 48 terms (full double precision for Im z >= 0).  Written out so
# that no command loads numpy.fft; tests/test_chiral_field.py rebuilds
# them by that FFT.  The table fixes N, and with it Weideman's scale
# L = sqrt(N / sqrt(2)).
_WEIDEMAN_COEFFS = np.array([
    -3.700743415417188e-17, 3.908097080905041e-17, 8.913045359641251e-17,
    4.336469876763116e-17, 2.10357809007448e-17, 7.068313479639792e-20,
    3.859105048166247e-16, 7.253797548522926e-16, -1.8792328220691556e-15,
    -5.239158595095343e-15, 9.527536360754516e-15, 4.2342555584235587e-14,
    -3.1933415962846563e-14, -3.227757310972546e-13, -9.65501738984251e-14,
    2.2154187772000165e-12, 3.4253340904418414e-12, -1.1935451266839411e-11,
    -4.386586767527037e-11, 2.162200234796574e-11, 3.8794220773032034e-10,
    5.775289855479109e-10, -2.015659927316155e-09, -9.596254713078844e-09,
    -6.3868099289015055e-09, 6.927000636026076e-08, 2.654949200687094e-07,
    1.949433746724146e-07, -1.9445657790098968e-06, -9.475638240450828e-06,
    -1.905446161911202e-05, 1.7506316371117585e-05, 0.0003078691364088904,
    0.0014864991251956183, 0.005125813548225686, 0.014546837792237402,
    0.03586136998337668, 0.07895589553470005, 0.1578633044338047,
    0.2897998907960481, 0.49225702391399057, 0.7780624191484228,
    1.149220464539778, 1.5913084691178003, 2.0707599716742915,
    2.5370484874446904, 2.9304498956237564, 3.194064589395071])
_WEIDEMAN_COEFFS.flags.writeable = False
_WEIDEMAN_SCALE = math.sqrt(len(_WEIDEMAN_COEFFS) / math.sqrt(2.0))


def _faddeeva(z):
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Weideman's rational expansion (SIAM J. Numer. Anal. 31, 1497
    (1994)): w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)) with
    Z = (L + iz) / (L - iz), exact to rounding on and above the real
    axis.
    """
    iz = 1j * np.asarray(z)
    d = _WEIDEMAN_SCALE - iz
    return (2.0 * np.polyval(_WEIDEMAN_COEFFS, (_WEIDEMAN_SCALE + iz) / d)
            / d ** 2
            + 1.0 / (math.sqrt(math.pi) * d))


def _moment(n: int, eps: float, sigma: float) -> float:
    """I_n = int_0^inf k^n exp(-eps k - sigma^2 k^2) dk, exactly.

    With x = eps / (2 sigma), I_n = F_n(x) / sigma^(n+1), where
    F_0 = (sqrt(pi)/2) erfcx(x), erfcx(x) = w(ix), F_1 = 1/2 - x F_0 and,
    by parts, 2 F_n = (n-1) F_(n-2) - 2x F_(n-1) (DLMF 7.7).  That
    forward recursion cancels as x grows, so above x = 1 the ratios
    rho_m = F_m / F_(m-1) come from the same recursion run backwards,
    rho_(m-1) = (m-1) / (2x + 2 rho_m), started at zero
    _MOMENT_CF_TERMS deep.
    """
    x = eps / (2.0 * sigma)
    f0 = 0.5 * math.sqrt(math.pi) * float(_faddeeva(1j * x).real)
    if x <= 1.0:
        f = [f0, 0.5 - x * f0]
        for m in range(2, n + 1):
            f.append(0.5 * (m - 1) * f[m - 2] - x * f[m - 1])
        value = f[n]
    else:
        rho, value = 0.0, f0
        for m in range(_MOMENT_CF_TERMS, 0, -1):
            rho = m / (2.0 * x + 2.0 * rho)
            if m <= n:
                value *= rho
    return value / sigma ** (n + 1)


def quad_form_vacuum(nu: float, eps_uv: float, window: WindowProfile,
                     order: int = 1, coupling: float = 1.0) -> float:
    """Vacuum expectation of (coupling * int rho(x) d^order w(x) dx)^2
    for a channel of filling ``nu``, regulated by exp(-k eps_uv).

    Spectrally this is (nu/4pi^2) int_0^inf dk k e^{-k eps_uv} |g~(k)|^2
    with g = coupling * d^order w, whose transform has modulus
    coupling A sqrt(2pi) sigma k^order exp(-sigma^2 k^2 / 2); so it is
    (nu/2pi) (coupling A sigma)^2 times the moment I_(2 order + 1) of
    :func:`_moment`.  eps_uv = 0 is finite: the window damps large k.
    """
    if not eps_uv >= 0.0:
        raise ValueError(f"eps_uv must be >= 0, got {eps_uv!r}")
    scale = coupling * window.amplitude * window.sigma
    return (nu / (2.0 * math.pi) * scale * scale
            * _moment(2 * order + 1, eps_uv, window.sigma))
