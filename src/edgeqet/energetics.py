"""Analytic energy pipeline: injection cost E_A, feedback packet energy
E_1, extracted energy E_B (a 3-D integral whose inner convolution of
the measured window with the regularized cubic pole is done exactly by
the Faddeeva function, evaluated in numpy by Weideman's rational
expansion, plus its order-of-magnitude estimate), the log-log slope fit,
and the current to energy-density conversion for channel U.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import params as P
from .chiral_field import WindowProfile, _faddeeva, quad_form_vacuum, \
    window_derivative_l2
from .detector import delta_v, detector_from_params, measurement_coupling, \
    sense_window, signal_rms

# Gauss-Legendre nodes on each of x and y for the first E_B rule (tau
# gets twice as many), and the most that node doubling may reach.
_EB_START_NODES = 16
_EB_MAX_NODES = 512
# Newton's method in theta stops after a step below this: the error
# squares with each step, so the theta it leaves is at rounding level.
_NEWTON_TOL = 1e-11


class ConvergenceFailure(ArithmeticError):
    """A quadrature exhausted its budget before reaching tolerance: a
    numerical failure, so an ArithmeticError (CLI exit 2).  The partial
    :class:`Estimate` is ``result``."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class Estimate(float):
    """A quadrature's result: a float that also carries
    ``error_estimate``, its absolute error estimate, ``n_evals``, the
    integrand evaluations it took, and ``subdivisions_used``, the
    refinements it made.  ``value`` is the float itself; arithmetic on
    it gives a plain float."""

    __slots__ = ("error_estimate", "n_evals", "subdivisions_used")

    def __new__(cls, value: float, error_estimate: float, n_evals: int,
                subdivisions_used: int):
        self = super().__new__(cls, value)
        self.error_estimate = error_estimate
        self.n_evals = n_evals
        self.subdivisions_used = subdivisions_used
        return self

    @property
    def value(self) -> float:
        return float(self)

    def __getnewargs__(self):
        return (float(self), self.error_estimate, self.n_evals,
                self.subdivisions_used)


def feedback_window(params: P.ExperimentParams) -> WindowProfile:
    """Feedback profile: amplitude lambda_amp, sigma = b, centered b/2 - L
    (the packet is created a distance L upstream of the coupling region)."""
    return WindowProfile(center=0.5 * params.b - params.L, sigma=params.b,
                         amplitude=params.lambda_amp)


def gs_squared(params: P.ExperimentParams) -> float:
    """Vacuum variance of the dimensionless recorded-signal operator,
    (e v_g R / 2 dV)^2 <(int rho dw)^2>."""
    return quad_form_vacuum(params.nu_S, params.eps_uv, sense_window(params),
                            order=1, coupling=measurement_coupling(params))


def compute_EA(params: P.ExperimentParams) -> float:
    """Average energy injected into the sensed channel by one measurement:

        E_A = (hbar v_g nu_S / 4 pi) (e v_g R / 2 dV)^2 int (d^2 w)^2 dx
    """
    g = measurement_coupling(params)
    l2 = window_derivative_l2(sense_window(params), order=2)
    return P.HBAR * params.v_g * params.nu_S / (4.0 * math.pi) * g * g * l2


def compute_E1(params: P.ExperimentParams) -> float:
    """Average energy of the feedback packet before it reaches the
    coupling region:

        E_1 = (pi hbar v_g / nu_U) int (d lambda)^2 dy * (<G^2> + 1/4)
    """
    l2 = window_derivative_l2(feedback_window(params), order=1)
    return (math.pi * P.HBAR * params.v_g / params.nu_U * l2
            * (gs_squared(params) + 0.25))


def eb_order_estimate(params: P.ExperimentParams) -> float:
    """Literal order-of-magnitude product for the extracted energy:

        (e^2 lambda / 4 pi eps l) * (e v_g R / l dV) * (l / L)^5
    """
    dv = delta_v(detector_from_params(params))
    coulomb = (P.E_CHARGE ** 2 * params.lambda_amp
               / (4.0 * math.pi * params.epsilon * params.l))
    drive = P.E_CHARGE * params.v_g * params.R / (params.l * dv)
    return coulomb * drive * (params.l / params.L) ** 5


def _eb_prefactor(params: P.ExperimentParams) -> float:
    """e^3 v_g R nu_S / (16 pi^3 eps dV), the time-integral prefactor.

    Moving the two profile derivatives onto the correlator (valid when
    the interaction window is unrestricted) turns the cubic kernel into
    12x the quintic one, which reproduces the familiar
    3 e^3 v_g R nu_S / (4 pi^3 eps dV) quintic prefactor.
    """
    dv = delta_v(detector_from_params(params))
    return (P.E_CHARGE ** 3 * params.v_g * params.R * params.nu_S
            / (16.0 * math.pi ** 3 * params.epsilon * dv))


def _leggauss(n: int):
    """(t, w), the n-point Gauss-Legendre rule on [-1, 1], n >= 2, by
    Newton's method in theta, t = cos(theta) (Hale & Townsend, SIAM J.
    Sci. Comput. 35, A652 (2013)), with no linear algebra: P_n and
    P_n-1 by the three-term recurrence, starting from
    theta_i = pi (i + 3/4) / (n + 1/2), i = n - 1, ..., 0 (so t ascends),
    stepping until the largest step is below _NEWTON_TOL; the weights
    are 2 / (dP_n/dtheta)^2 at the final theta, and t and w are then
    symmetrised.  In theta the end nodes are as well conditioned as the
    middle ones, so the end weights keep their relative accuracy."""
    theta = math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)
    step = np.inf
    while True:
        t = np.cos(theta)
        p_prev, p = np.ones(n), t
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
        dp = n * (t * p - p_prev) / np.sin(theta)   # dP_n/dtheta
        if np.abs(step).max() <= _NEWTON_TOL:
            break
        step = p / dp
        theta = theta - step
    w = 2.0 / dp ** 2
    return (t - t[::-1]) / 2, (w + w[::-1]) / 2


@functools.cache
def _legendre_rule(n: int):
    """(t, w), the n-point Gauss-Legendre rule on [-1, 1] (``_leggauss``,
    no LAPACK call), as read-only arrays.

    Every E_B rule and the oracle's coupling nodes take their rule from
    here, so each n is built once per process; ``cache_clear()``
    releases the rules.
    """
    t, w = _leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss_legendre(n: int, lo: float, hi: float):
    """n-point Gauss-Legendre nodes and weights on [lo, hi]."""
    t, w = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def _measured_pole(window: WindowProfile, c, eps: float):
    """int window(xbar) Re(c - xbar + i eps)^-3 dxbar, in closed form.

    For a Gaussian window of width s this is
    (pi A / 4 s^2) Im w''(zeta), zeta = (c - center + i eps) / (sqrt(2) s),
    with w the Faddeeva function (``chiral_field._faddeeva``; Im zeta >= 0
    because eps >= 0) and w'' from the recursion
    w' = -2 z w + 2i/sqrt(pi).
    """
    zeta = (np.asarray(c) - window.center + 1j * eps) / (
        math.sqrt(2.0) * window.sigma)
    w0 = _faddeeva(zeta)
    w1 = -2.0 * zeta * w0 + 2.0j / math.sqrt(math.pi)
    w2 = -2.0 * w0 - 2.0 * zeta * w1
    return (math.pi * window.amplitude / (4.0 * window.sigma ** 2)) * w2.imag


def _eb_rule(params: P.ExperimentParams, eps: float, causal: bool,
             n: int) -> float:
    """The 3-D weight integral on an n x n x 2n Gauss-Legendre tensor.

    Axes are the coupling-region coordinates x, y on [0, b] (n nodes
    each) and the elapsed distance tau = v_g*(t - T) since the feedback
    packet was created (2n nodes).  The weight is the Coulomb kernel
    times the second derivative of the feedback profile where the packet
    sits at time t, times the measured window convolved with the
    regularized cubic pole at c = x + tau + v_g T, the distance the
    measured fluctuation has run since the measurement.  That last
    convolution is exact (:func:`_measured_pole`), so every factor is
    smooth on the scale of l and b.

    ``causal`` starts tau at 0, where the packet is created; otherwise
    tau extends to the left of the creation time as well, which on the
    unrestricted window equals the quintic form carrying the
    undifferentiated profile (checked in the tests).
    """
    b = params.b
    lam = feedback_window(params)
    tau_hi = params.L + 0.5 * b + 8.0 * lam.sigma
    tau_lo = 0.0 if causal else -(0.5 * b + 8.0 * lam.sigma)
    x, wx = _gauss_legendre(n, 0.0, b)
    tau, wt = _gauss_legendre(2 * n, tau_lo, tau_hi)
    coulomb = 1.0 / np.sqrt((x[:, None] - x[None, :]) ** 2 + params.d ** 2)
    pole = _measured_pole(sense_window(params),
                          x[:, None] + tau + params.v_g * params.T_delay, eps)
    profile = lam.derivative(x[:, None] - tau, order=2)
    # sum over x, y, tau of coulomb[x, y] * pole[x, tau] * profile[y, tau]
    return float(wx @ (coulomb * ((pole * wt) @ profile.T)) @ wx)


def _eb_integral(params: P.ExperimentParams, rel_tol: float, eps: float,
                 causal: bool = True) -> Estimate:
    """E_B in joules from the weight integral by node doubling.

    Evaluates :func:`_eb_rule` at n = _EB_START_NODES and doubles n
    until two successive rules agree to ``rel_tol``; the error estimate
    is that difference, ``subdivisions_used`` counts the doublings and
    ``n_evals`` the tensor nodes of every rule evaluated.  Raises
    :class:`ConvergenceFailure`, carrying the last result, as soon as a
    rule is not finite or when the next rule would exceed
    _EB_MAX_NODES.
    """
    n = _EB_START_NODES
    value = _eb_rule(params, eps, causal, n)
    err, doublings, n_evals = math.inf, 0, 2 * n ** 3
    while math.isfinite(value) and 2 * n <= _EB_MAX_NODES:
        n *= 2
        fine = _eb_rule(params, eps, causal, n)
        err, value = abs(fine - value), fine
        doublings += 1
        n_evals += 2 * n ** 3
        if math.isfinite(value) and err <= rel_tol * abs(value):
            break
    prefactor = _eb_prefactor(params)
    result = Estimate(-prefactor * value, abs(prefactor * err), n_evals,
                      doublings)
    if math.isfinite(value) and err <= rel_tol * abs(value):
        return result
    reason = (f"non-finite rule value {value!r}" if not math.isfinite(value)
              else f"doubling difference {err:.3g} above {rel_tol:.3g} "
                   "relative")
    raise ConvergenceFailure(
        f"E_B quadrature: {reason} at {n} x {n} x {2 * n} nodes", result)


def compute_EB(params: P.ExperimentParams,
               rel_tol: float = 1e-4) -> Estimate:
    """Energy gained by the feedback channel, first order in the coupling.

    Evaluates the regularized weight integral in its 3-D Faddeeva form
    (:func:`_eb_integral`), converged by Gauss-Legendre node doubling to
    ``rel_tol``; the sign convention is that a positive value means the
    stated feedback polarity extracts energy.  The result is an
    :class:`Estimate` whose ``error_estimate`` is the node-doubling
    difference in joules, whose ``n_evals`` counts the tensor nodes of
    every rule evaluated and whose ``subdivisions_used`` counts the
    doublings.
    The result changes sign with L: the underlying kernel (a Gaussian
    smoothed against an odd cubic pole) oscillates before settling onto
    its ~1/L^5 tail, so at the default parameters extraction at L = 2l
    turns into injection at L = 4.3455l.

    Requires L >= 2l, where the pole regularization is demonstrably
    stable.
    The tolerance has a floor: the recursion for w'' in
    :func:`_measured_pole` cancels at large |zeta|, so at L >= 10l a
    ``rel_tol`` below ~1e-9 converges on rounding noise (two Faddeeva
    implementations, each exact to ~2e-14, give E_B that differ by
    1.1e-10 relative at 10l and 3.8e-10 at 30l).
    Raises ValueError unless 0 < ``rel_tol`` < 1, and
    :class:`ConvergenceFailure` if node doubling hits its cap.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    if params.L < 2.0 * params.l:
        raise ValueError(
            f"L = {params.L:.3g} < 2l = {2 * params.l:.3g}: regularization "
            "validity not established")
    return _eb_integral(params, rel_tol, params.eps_uv)


def loglog_slope(x, y):
    """(slope, stderr): the least-squares slope of log |y| versus log x
    over the points in the order given, and its standard error, in
    closed form on centred logs: slope = sum(dx dy) / sum(dx^2), stderr
    the square root of the residual variance over n - 2 divided by
    sum(dx^2), as ``np.polyfit(..., cov=True)`` gives them.

    Both are None below 2 points, with a zero y, with an x <= 0 or with
    every x equal (not computable); stderr is None at exactly 2 points.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 2 or np.any(y == 0.0) or x.min() <= 0 or x.min() == x.max():
        return None, None
    dx, dy = np.log(x), np.log(np.abs(y))
    dx, dy = dx - dx.mean(), dy - dy.mean()
    sxx = dx @ dx
    slope = float(dx @ dy / sxx)
    resid = dy - slope * dx
    return slope, (math.sqrt(resid @ resid / (len(x) - 2) / sxx)
                   if len(x) > 2 else None)


def energy_density_from_current(j: float, params: P.ExperimentParams) -> float:
    """eps = pi hbar / (nu_U e^2 v_g) * j^2, J/m from amperes."""
    return (math.pi * P.HBAR / (params.nu_U * P.E_CHARGE ** 2 * params.v_g)
            * j * j)


def current_from_energy_density(eps: float, params: P.ExperimentParams) -> float:
    """Inverse of :func:`energy_density_from_current`."""
    if eps < 0:
        raise ValueError("energy density must be >= 0")
    return math.sqrt(eps * params.nu_U * P.E_CHARGE ** 2 * params.v_g
                     / (math.pi * P.HBAR))


@dataclass(frozen=True)
class EnergyBudget:
    """Every reportable scalar of the protocol, SI units."""

    delta_v: float              # V
    signal_rms: float           # V
    signal_rms_unregularized: float  # V, signal_rms at eps_uv = 0
    E_A: float                  # J
    E_1: float                  # J
    E_1_unregularized: float    # J, E_1 at eps_uv = 0
    E_B: float                  # J
    E_B_unregularized: float    # J, E_B at eps_uv = 0
    # E_B_unregularized / E_B - 1; None when E_B is 0
    E_B_unregularized_shift: float | None
    E_B_error: float            # J, E_B's quadrature error estimate
    E_B_evals: int              # integrand evaluations of E_B
    E_B_order_estimate: float   # J
    thermal: float              # J
    detect_current: float       # A
    eps_uv: float               # m, regulator used
    omega_c: float              # rad/s, detector cutoff used
    rel_tol: float              # quadrature tolerance used

    def as_dict(self):
        return asdict(self)


def energy_budget(params: P.ExperimentParams,
                  rel_tol: float = 1e-4) -> EnergyBudget:
    """One call producing the complete budget at the given parameters.

    The ``_unregularized`` fields repeat a quantity at eps_uv = 0, which
    the Gaussian windows keep finite, to show the regulator's bias.
    """
    unregularized = params.replace(eps_uv=0.0)
    e_b = compute_EB(params, rel_tol=rel_tol)
    e_b_unreg = compute_EB(unregularized, rel_tol=rel_tol)
    # packet energy spread over the typical length scale sets the
    # detectable current
    j = current_from_energy_density(max(e_b, 0.0) / params.l, params)
    return EnergyBudget(
        delta_v=delta_v(detector_from_params(params)),
        signal_rms=signal_rms(params),
        signal_rms_unregularized=signal_rms(unregularized),
        E_A=compute_EA(params), E_1=compute_E1(params),
        E_1_unregularized=compute_E1(unregularized),
        E_B=e_b, E_B_unregularized=e_b_unreg,
        E_B_unregularized_shift=e_b_unreg / e_b - 1.0 if e_b else None,
        E_B_error=e_b.error_estimate, E_B_evals=e_b.n_evals,
        E_B_order_estimate=eb_order_estimate(params),
        thermal=P.thermal_energy(params.temperature),
        detect_current=j, eps_uv=params.eps_uv, omega_c=params.omega_c,
        rel_tol=rel_tol)
