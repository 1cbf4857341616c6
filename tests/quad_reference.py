"""Adaptive 1-D quadrature and the quadrature routes to the vacuum
quadratic form, kept as an independent reference for the closed forms.

``integrate_1d`` is deterministic adaptive bisection with the embedded
Gauss-Kronrod G7/K15 pair (nd_reference.py tensorizes the same tables).
``quad_form_vacuum_spectral`` integrates the spectral form of
<(int rho d^n w)^2> by it, and ``quad_form_vacuum_position_space`` the
position-space form; production code evaluates the same quantity in
closed form (``edgeqet.chiral_field.quad_form_vacuum``).

Integrands must be pure, vectorized callables ``f(x)`` over a 1-D node
array.  Subdivision order is deterministic for a fixed spec, and the
final accumulation runs in interval order, so results are bit-reproducible
regardless of how cells were prioritized.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from edgeqet.chiral_field import WindowProfile, window_derivative_l2
from edgeqet.energetics import ConvergenceFailure, Estimate

# 15-point Kronrod extension of the 7-point Gauss rule, nodes ascending.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Gauss-7 nodes sit at every other interior Kronrod node.
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass(frozen=True)
class IntegrationSpec:
    """Interval and tolerances for one integration task."""

    bounds: tuple              # ((lo, hi),)
    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_subdivisions: int = 2000

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) != 1:
            raise ValueError(
                f"need exactly one (lo, hi) pair, got {len(bounds)}")
        (lo, hi), = bounds
        if not lo < hi:
            raise ValueError(f"need lo < hi, got ({lo}, {hi})")
        if self.rel_tol <= 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be positive")


def _tolerance(spec, value):
    return max(spec.rel_tol * abs(value), spec.abs_tol)


def _gk_panel(f, lo, hi):
    """One G7/K15 evaluation on [lo, hi]: (kronrod, |kronrod - gauss|)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = np.asarray(f(mid + half * _XK), dtype=float)
    k = half * float(fx @ _WK)
    g = half * float(fx[_GAUSS_IDX] @ _WG)
    return k, abs(k - g)


def integrate_1d(f, spec: IntegrationSpec) -> Estimate:
    """Adaptive bisection with the embedded G7/K15 pair."""
    (lo, hi), = spec.bounds
    value, err = _gk_panel(f, lo, hi)
    # (-error, creation_index) heap: deterministic worst-cell-first order
    cells = {0: (lo, hi, value, err)}
    heap = [(-err, 0)]
    counter = 1
    n_evals = 15
    subdivisions = 0
    while True:
        total = sum(c[2] for c in sorted(cells.values(), key=lambda c: c[0]))
        total_err = sum(c[3] for c in cells.values())
        if total_err <= _tolerance(spec, total):
            return Estimate(total, total_err, n_evals, subdivisions)
        if subdivisions >= spec.max_subdivisions:
            raise ConvergenceFailure(
                f"1-D quadrature: error {total_err:.3g} above tolerance "
                f"{_tolerance(spec, total):.3g} after {subdivisions} subdivisions",
                Estimate(total, total_err, n_evals, subdivisions))
        while True:
            neg_err, idx = heapq.heappop(heap)
            if idx in cells and -neg_err == cells[idx][3]:
                break
        clo, chi, _, _ = cells.pop(idx)
        cmid = 0.5 * (clo + chi)
        for sub in ((clo, cmid), (cmid, chi)):
            v, e = _gk_panel(f, *sub)
            cells[counter] = (sub[0], sub[1], v, e)
            heapq.heappush(heap, (-e, counter))
            counter += 1
        n_evals += 30
        subdivisions += 1


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


def fourier_abs(window: WindowProfile, k, order: int = 0):
    """|FT of the order-th derivative of ``window``| at wavenumber k >= 0.

    FT convention: g~(k) = int g(x) exp(-i k x) dx, so
    |FT d^n w| = k^n * A*sqrt(2 pi)*sigma*exp(-sigma^2 k^2 / 2).
    """
    k = np.asarray(k, dtype=float)
    base = (window.amplitude * math.sqrt(2.0 * math.pi) * window.sigma
            * np.exp(-0.5 * (window.sigma * k) ** 2))
    return base * k ** order


def quad_form_vacuum_spectral(kernel: CorrelatorKernel,
                              window: WindowProfile, order: int = 1,
                              coupling: float = 1.0,
                              rel_tol: float = 1e-10) -> float:
    """Vacuum expectation of (coupling * int rho(x) d^order w(x) dx)^2
    by adaptive quadrature of its spectral form,
    (nu/4pi^2) int_0^inf dk k e^{-k eps} |g~(k)|^2, g = coupling * d^order w.
    """
    k_max = 60.0 / window.sigma

    def integrand(k):
        g = coupling * fourier_abs(window, k, order=order)
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
    keeps the adaptive rule honest.
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
