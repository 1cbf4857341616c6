"""Adaptive 1-D quadrature with the embedded Gauss-Kronrod G7/K15 pair.

Integrands must be pure, vectorized callables ``f(x)`` over a 1-D node
array.  Subdivision order is deterministic for a fixed spec, and the
final accumulation runs in interval order, so results are bit-reproducible
regardless of how cells were prioritized.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

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


class ConvergenceFailure(RuntimeError):
    """A quadrature exhausted its budget before reaching tolerance."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


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


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool
    n_evals: int = 0


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


def integrate_1d(f, spec: IntegrationSpec) -> QuadResult:
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
            return QuadResult(total, total_err, subdivisions, True, n_evals)
        if subdivisions >= spec.max_subdivisions:
            raise ConvergenceFailure(
                f"1-D quadrature: error {total_err:.3g} above tolerance "
                f"{_tolerance(spec, total):.3g} after {subdivisions} subdivisions",
                QuadResult(total, total_err, subdivisions, False, n_evals))
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

