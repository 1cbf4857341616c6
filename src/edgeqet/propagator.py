"""The window propagator on the subspace the coupling touches.

The chiral dispersion is linear, so free flight R(t) only translates
density vectors: the Coulomb coupling over [0, b] reads, during a time
tau, the S density that free flight carries in from [0, b + v tau] and
the U density from [-v tau, b].  Their span Q is numerically low-rank,
and every direction orthogonal to it moves by free flight alone, so a
propagator M over the interaction window is R(T)(I - Q Q^T) + (MQ) Q^T
and only MQ has to be computed: one exponential action per distinct
step of the coupling schedule, doubled in the same low-rank form.

``oracle.run_protocol`` imports this module when it is first called, so
commands that never simulate do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import params as P
from .oracle import (ModeGrid, _coupling_nodes, _omega_times,
                     density_basis, free_rotate, interaction_window)

#: Relative singular-value cut of the subspace bases and of the coupling
#: factors: directions below SVD_CUT times the largest singular value are
#: dropped.  It is the one approximation the window propagator adds to
#: the discretization.
SVD_CUT = 1e-15

# theta_m of Al-Mohy & Higham (2011), Table 3.1: m Taylor terms give
# exp(A) to double precision when ||A||_1 <= theta_m.  Their table goes
# on to m = 55 (theta 9.9), but the terms of a rotation by theta peak
# near e^theta and cancel: with m up to 55 the symplectic residual at
# 256 modes rose from 4e-15 to 1e-13.
_THETA = {10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54}

# a short step moves the coupled region by at most this many b
_SHORT_REACH = 0.25


def _coupling_factors(params: P.ExperimentParams, grid: ModeGrid):
    """(f_s, f_u), 2N x rho each, with the coupling block K = f_s f_u^T.

    K has numerical rank far below 2N (14 of 512 at 256 modes); the
    factors keep the singular values above SVD_CUT, so applying the
    coupling costs O(N rho) per vector instead of O(N^2).
    """
    u_s, u_u, kernel = _coupling_nodes(params, grid)
    q_s, r_s = np.linalg.qr(u_s.T)
    q_u, r_u = np.linalg.qr(u_u.T)
    w, sv, vt = np.linalg.svd(r_s @ kernel @ r_u.T)
    keep = sv > SVD_CUT * sv[0]
    return q_s @ (w[:, keep] * sv[keep]), q_u @ vt[keep].T


def expm_action(apply, b: np.ndarray, norm: float) -> np.ndarray:
    """exp(A) @ b for A given as ``apply`` (x -> A @ x), ||A||_1 <= norm.

    The exponential action of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
    488 (2011), Algorithm 3.2): s scaled steps of a Taylor series of at
    most m terms, cut short once two successive terms drop below double
    precision of the sum (infinity norms).  m and s follow from the norm
    bound alone.  scipy's ``expm_multiply`` would estimate the norm from
    numpy's global random stream, and the last bits of its result, which
    reach the output files, would then differ from run to run.
    """
    m, s = min(((m, max(1, math.ceil(norm / theta)))
                for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    f = b.copy()
    for _ in range(s):
        term = f.copy()
        c1 = np.linalg.norm(term, np.inf)
        for j in range(1, m + 1):
            term = apply(term)
            term /= s * j
            c2 = np.linalg.norm(term, np.inf)
            f += term
            if c1 + c2 <= 2.0 ** -53 * np.linalg.norm(f, np.inf):
                break
            c1 = c2
    return f


def _interval_basis(grid: ModeGrid, length: float) -> np.ndarray:
    """Orthonormal 2N x r basis of the S density vectors u_S(x) for x in
    [0, length], to within SVD_CUT.

    The vectors are band-limited in x (wave numbers up to k_N), so
    k_N length / 2 + 40 Chebyshev samples resolve their span to double
    precision; the SVD of the samples gives the basis.
    """
    m = min(math.ceil(0.5 * grid.k[-1] * length) + 40, 2 * grid.n_modes)
    x = 0.5 * length * (1.0 - np.cos(np.pi * (np.arange(m) + 0.5) / m))
    u, sv, _ = np.linalg.svd(density_basis(grid, 1.0, x, "left").T,
                             full_matrices=False)
    return u[:, sv > SVD_CUT * sv[0]]


def _step_basis(grid: ModeGrid, params: P.ExperimentParams,
                tau: float) -> np.ndarray:
    """Q_tau, 4N x r orthonormal: all the coupling reads during a step of
    length tau, in terms of the state at the start of the step.

    The coupling reads rho_S and rho_U on [0, b]; free flight carries
    into that region the S density at [0, b + v tau] (left-movers) and
    the U density at [-v tau, b] (right-movers).  The intervals have the
    same length and u_U(y) is u_S(-y) up to a constant, so one channel
    basis serves both, the U copy turned by b / v.
    """
    n = grid.n_modes
    basis = _interval_basis(grid, params.b + params.v_g * tau)
    r = basis.shape[1]
    q = np.zeros((4 * n, 2 * r))
    q[:2 * n, :r] = basis
    q[2 * n:, r:] = free_rotate(basis, grid, params, params.b / params.v_g)
    return q


def ramp_schedule(t_i: float, t_f: float, ramp_fraction: float,
                  n_ramp: int):
    """[(duration, scale), ...] of the coupling over [t_i, t_f], in time
    order: ``n_ramp`` equal steps up (scales (j + 1/2)/n_ramp) over the
    first ``ramp_fraction`` of the window, the plateau at scale 1, and
    the same steps down.  Zero-length steps are left out."""
    span = t_f - t_i
    ramp = ramp_fraction * span
    up = ([(ramp / n_ramp, (j + 0.5) / n_ramp) for j in range(n_ramp)]
          if ramp > 0.0 else [])
    plateau = [(span - 2.0 * ramp, 1.0)] if span > 2.0 * ramp else []
    return up + plateau + up[::-1]


def _step_propagator(grid: ModeGrid, params: P.ExperimentParams, factors,
                     dt: float, scale: float, basis):
    """(q, l) with the step propagator exp(dt A) = R(dt) + l q^T, q = Q_dt.

    A = Omega (hw + hw + scale K) / hbar, with K = f_s f_u^T from
    ``factors`` = (f_s, f_u, ||K||_1 bound).  One ``expm_action`` covers
    a short step h = dt / 2^k that moves the coupled region by at most
    _SHORT_REACH b; k doublings E(2h) = E(h) E(h) in the same form then
    cover the step.  With P = q^T Q_2h,
    E(2h) Q_2h - R(2h) Q_2h = R(h) l P + l q^T (R(h) Q_2h + l P).
    ``basis`` maps a duration tau to Q_tau.
    """
    f_s, f_u, k_norm = factors
    n = grid.n_modes
    k = max(0, math.ceil(math.log2(
        params.v_g * dt / (_SHORT_REACH * params.b))))
    h = dt / 2 ** k
    hw = (h / P.HBAR) * grid.mode_energies(params.v_g)
    hw4 = np.tile(hw, 4)[:, None]
    c = scale * h / P.HBAR

    def apply(x):
        gx = hw4 * x
        gx[:2 * n] += c * (f_s @ (f_u.T @ x[2 * n:]))
        gx[2 * n:] += c * (f_u @ (f_s.T @ x[:2 * n]))
        return _omega_times(gx)

    q = basis(h)
    l = (expm_action(apply, q, hw[-1] + abs(c) * k_norm)
         - free_rotate(q, grid, params, h))
    for _ in range(k):
        q2 = basis(2.0 * h)
        lp = l @ (q.T @ q2)
        l = (free_rotate(lp, grid, params, h)
             + l @ (q.T @ (free_rotate(q2, grid, params, h) + lp)))
        q, h = q2, 2.0 * h
    return q, l


@dataclass(frozen=True)
class WindowPropagator:
    """M = R(span) (I - q q^T) + mq q^T, the window propagator, exact up
    to SVD_CUT.

    q (4N x r, orthonormal) spans every direction the coupling reads
    during the window; M moves the rest by free flight R alone, so
    mq = M q determines M.
    """

    q: np.ndarray
    mq: np.ndarray
    span: float                        # s, t_f - t_i
    grid: ModeGrid
    params: P.ExperimentParams

    @property
    def rq(self) -> np.ndarray:
        """R(span) q."""
        return free_rotate(self.q, self.grid, self.params, self.span)

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        c = self.q.T @ a
        return (free_rotate(a - self.q @ c, self.grid, self.params,
                            self.span) + self.mq @ c)

    @property
    def symplectic_residual(self) -> float:
        """max |mq^T Omega mq - q^T Omega q|, zero for a symplectic M."""
        return float(np.max(np.abs(self.mq.T @ _omega_times(self.mq)
                                   - self.q.T @ _omega_times(self.q))))


def window_propagator(params: P.ExperimentParams, grid: ModeGrid,
                      coupling_scale: float = 1.0,
                      ramp_fraction: float = 0.05,
                      n_ramp: int = 5) -> WindowPropagator:
    """The propagator over the interaction window, on the coupling's
    subspace.

    q is Q_(t_f - t_i) (``_step_basis``).  mq is built in time order
    through the ``ramp_schedule``: each distinct (duration, scale) step
    with a nonzero coupling costs one ``expm_action``
    (``_step_propagator``), and applying a step costs O(N r r_step).
    No 4N x 4N matrix is formed.
    """
    t_i, t_f = interaction_window(params)
    f_s, f_u = _coupling_factors(params, grid)
    # ||K||_1 and ||K^T||_1 bounded through the factors
    k_norm = max(np.max(np.abs(f_u) @ np.abs(f_s).sum(0)),
                 np.max(np.abs(f_s) @ np.abs(f_u).sum(0)))
    bases, steps = {}, {}

    def basis(tau):
        if tau not in bases:
            bases[tau] = _step_basis(grid, params, tau)
        return bases[tau]

    q = basis(t_f - t_i)
    mq = q
    for dt, scale in ramp_schedule(t_i, t_f, ramp_fraction, n_ramp):
        scale *= coupling_scale
        if scale == 0.0:                 # free flight alone, exactly
            mq = free_rotate(mq, grid, params, dt)
            continue
        if (dt, scale) not in steps:
            steps[dt, scale] = _step_propagator(
                grid, params, (f_s, f_u, k_norm), dt, scale, basis)
        q_step, l_step = steps[dt, scale]
        mq = free_rotate(mq, grid, params, dt) + l_step @ (q_step.T @ mq)
    return WindowPropagator(q, mq, t_f - t_i, grid, params)
