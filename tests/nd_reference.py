"""Slow, independent reference for the extracted-energy integral.

``integrate_nd`` is a tensorized adaptive G7/K15 subdivision scheme for
2-4 dimensions, and ``eb_integral_4d`` feeds it the original 4-D form
of the E_B weight integral, in which the measured-window convolution
with the regularized cubic pole is done by quadrature rather than in
closed form.  Production code computes the same integral in its 3-D
Faddeeva form (``edgeqet.energetics._eb_integral``); the tests compare
the two.
"""

import heapq
import math

import numpy as np

from edgeqet.detector import sense_window
from edgeqet.energetics import ConvergenceFailure, Estimate, feedback_window
from quad_reference import _GAUSS_IDX, _WG, _WK, _XK


class _NdCell:
    __slots__ = ("lo", "hi", "value", "error", "axis_errors", "index")

    def __init__(self, lo, hi, value, error, axis_errors, index):
        self.lo, self.hi = lo, hi
        self.value, self.error = value, error
        self.axis_errors = axis_errors
        self.index = index


def _nd_panel(f, lo, hi):
    """Tensor G7/K15 on a box; returns (value, error, per-axis errors)."""
    dim = len(lo)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    axes = [mid[i] + half[i] * _XK for i in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(f(pts), dtype=float).reshape((15,) * dim)

    scale = float(np.prod(half))
    full = vals
    for _ in range(dim):
        full = np.tensordot(full, _WK, axes=([0], [0]))
    kron = scale * float(full)

    axis_errors = np.empty(dim)
    for axis in range(dim):
        sub = np.take(vals, _GAUSS_IDX, axis=axis)
        sub = np.tensordot(sub, _WG, axes=([axis], [0]))
        for _ in range(dim - 1):
            sub = np.tensordot(sub, _WK, axes=([0], [0]))
        axis_errors[axis] = abs(kron - scale * float(sub))
    return kron, float(axis_errors.sum()), axis_errors


def integrate_nd(f, bounds, rel_tol, max_subdivisions=2000) -> Estimate:
    """Adaptive subdivision of boxes, splitting the axis that dominates
    the embedded-rule error of the worst cell.

    ``f(points)`` is evaluated over an ``(n, dim)`` array; ``bounds``
    holds one (lo, hi) pair per axis.  The final accumulation runs in
    cell-creation order, so results are bit-reproducible.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    dim = len(lo)
    value, err, axis_errs = _nd_panel(f, lo, hi)
    cells = {0: _NdCell(lo, hi, value, err, axis_errs, 0)}
    heap = [(-err, 0)]
    counter = 1
    n_evals = 15 ** dim
    subdivisions = 0
    while True:
        ordered = sorted(cells.values(), key=lambda c: c.index)
        total = sum(c.value for c in ordered)
        total_err = sum(c.error for c in ordered)
        if total_err <= rel_tol * abs(total):
            return Estimate(total, total_err, n_evals, subdivisions)
        if subdivisions >= max_subdivisions:
            raise ConvergenceFailure(
                f"{dim}-D quadrature: error {total_err:.3g} above tolerance "
                f"after {subdivisions} subdivisions",
                Estimate(total, total_err, n_evals, subdivisions))
        while True:
            neg_err, idx = heapq.heappop(heap)
            if idx in cells and -neg_err == cells[idx].error:
                break
        cell = cells.pop(idx)
        axis = int(np.argmax(cell.axis_errors))
        mid = 0.5 * (cell.lo[axis] + cell.hi[axis])
        for side in range(2):
            slo, shi = cell.lo.copy(), cell.hi.copy()
            if side == 0:
                shi[axis] = mid
            else:
                slo[axis] = mid
            v, e, ax = _nd_panel(f, slo, shi)
            cells[counter] = _NdCell(slo, shi, v, e, ax, counter)
            heapq.heappush(heap, (-e, counter))
            counter += 1
        n_evals += 2 * 15 ** dim
        subdivisions += 1


def eb_integral_4d(params, rel_tol, eps, causal=True,
                   max_subdivisions=20000) -> Estimate:
    """The E_B weight integral over (x, y, tau, xbar), all by quadrature.

    Same axes and weight as the production 3-D form, plus the
    measured-window coordinate xbar under the regularized cubic pole
    Re(u + i eps)^-3 at u = x + tau + v_g T - xbar.  xbar is
    parameterized as xbar = c - eps*sinh(theta), c = x + tau + v_g T,
    which turns the pole into a smooth bounded function of theta.
    """
    b = params.b
    vgt = params.v_g * params.T_delay
    w_a = sense_window(params)
    lam = feedback_window(params)
    span = 8.0 * w_a.sigma
    tau_hi = params.L + 0.5 * b + 8.0 * lam.sigma
    tau_lo = 0.0 if causal else -(0.5 * b + 8.0 * lam.sigma)
    c_min, c_max = tau_lo + vgt, b + tau_hi + vgt
    th_lo = -math.asinh(max(span - c_min, eps) / eps)
    th_hi = math.asinh(max(c_max + span, eps) / eps)

    inv_eps2 = eps ** -2.0

    def integrand(pts):
        x, y, tau, theta = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
        sinh = np.sinh(theta)
        c = x + tau + vgt
        xbar = c - eps * sinh
        w = np.where(np.abs(xbar) <= span, w_a(xbar), 0.0)
        kern = inv_eps2 * ((sinh + 1j) ** -3.0).real * np.cosh(theta)
        coulomb = 1.0 / np.sqrt((x - y) ** 2 + params.d ** 2)
        return coulomb * lam.derivative(y - tau, order=2) * w * kern

    return integrate_nd(
        integrand, ((0.0, b), (0.0, b), (tau_lo, tau_hi), (th_lo, th_hi)),
        rel_tol, max_subdivisions)
