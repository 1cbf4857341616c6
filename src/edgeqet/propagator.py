"""The window propagator on the subspace the coupling touches.

The chiral dispersion is linear, so free flight R(t) only translates
density vectors: the Coulomb coupling over [0, b] reads, during a time
tau, the S density that free flight carries in from [0, b + v tau] and
the U density from [-v tau, b].  Their span Q is numerically low-rank,
and every direction orthogonal to it moves by free flight alone, so a
propagator M over the interaction window is R(T)(I - Q Q^T) + (MQ) Q^T
and only MQ has to be computed: one exponential action per distinct
step of the coupling schedule, doubled in the same low-rank form.

The build holds only what the rest of the schedule still needs.
``window_propagator`` computes the window basis first and keeps its S
block (Q is block-diagonal: the U block is the S block turned by b/v).
It then builds the distinct coupled steps, longest first, so that the
plateau's doubling temporaries never sit beside the finished ramp
steps; ramp steps share their duration, so they share each level's
basis, which lives for that level only.  Only then does it run the
chain mq <- R mq + l (Q^T mq) over the schedule, in place, and drop
each step after its last use; q is made dense after the chain.

``oracle.run_protocol`` imports this module when it is first called, so
commands that never simulate do not load it.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import params as P
from .oracle import (ModeGrid, _coupling_nodes, _omega_times,
                     density_basis, free_rotate, interaction_window,
                     local_energy_density)

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

# Cost of one Taylor apply on one column of Q, in multiply-adds per row
# of a doubling product: the apply makes ~7 elementwise passes over the
# 4N rows, each far slower than a BLAS multiply-add.  A least-squares
# fit to step build times at 256-1024 modes on one thread gave 37; the
# doublings chosen are the same for any value from 40 to 100.
_APPLY_COST = 40.0


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


def _taylor_plan(norm: float):
    """(m, s): s scaled steps of at most m Taylor terms for exp(A),
    ||A||_1 <= norm, with the fewest applies m s."""
    return min(((m, max(1, math.ceil(norm / theta)))
                for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def expm_action(apply, b: np.ndarray, norm: float) -> np.ndarray:
    """exp(A) @ b for A given as ``apply`` (x -> A @ x), ||A||_1 <= norm.

    The exponential action of Al-Mohy & Higham (SIAM J. Sci. Comput. 33,
    488 (2011), Algorithm 3.2): s scaled steps of a Taylor series of at
    most m terms, cut short once two successive terms drop below double
    precision of the sum (infinity norms).  m and s follow from the norm
    bound alone (``_taylor_plan``).  scipy's ``expm_multiply`` would
    estimate the norm from numpy's global random stream, and the last
    bits of its result, which reach the output files, would then differ
    from run to run.
    """
    m, s = _taylor_plan(norm)
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


def _samples(grid: ModeGrid, length: float) -> int:
    """Chebyshev samples that resolve the S density vectors on
    [0, length]: they are band-limited in x (wave numbers up to k_N),
    so k_N length / 2 + 40 resolve their span to double precision."""
    return min(math.ceil(0.5 * grid.k[-1] * length) + 40, 2 * grid.n_modes)


def _step_basis(grid: ModeGrid, params: P.ExperimentParams,
                tau: float) -> np.ndarray:
    """B_tau, 2N x r/2 orthonormal: the S block of Q_tau, which spans
    all the coupling reads during a step of length tau, in terms of the
    state at the start of the step.

    The coupling reads rho_S and rho_U on [0, b]; free flight carries
    into that region the S density at [0, b + v tau] (left-movers) and
    the U density at [-v tau, b] (right-movers).  The intervals have the
    same length and u_U(y) is u_S(-y) up to a constant, so one channel
    basis serves both: Q_tau = [[B, 0], [0, B_U]] with B_U = R(b/v) B
    (``_u_block``, ``_dense``).  B is the SVD basis of the S density
    vectors at ``_samples`` Chebyshev points, cut at SVD_CUT.
    """
    length = params.b + params.v_g * tau
    m = _samples(grid, length)
    x = 0.5 * length * (1.0 - np.cos(np.pi * (np.arange(m) + 0.5) / m))
    u, sv, _ = np.linalg.svd(density_basis(grid, 1.0, x, "left").T,
                             full_matrices=False)
    return u[:, sv > SVD_CUT * sv[0]]


def _u_block(b: np.ndarray, grid: ModeGrid,
             params: P.ExperimentParams) -> np.ndarray:
    """B_U = R(b/v) B, the U block of the step basis with S block B."""
    return free_rotate(b, grid, params, params.b / params.v_g)


def _dense(b: np.ndarray, grid: ModeGrid,
           params: P.ExperimentParams) -> np.ndarray:
    """Q = [[B, 0], [0, B_U]], 4N x 2 r_B, from its S block B."""
    n2, r = b.shape
    q = np.zeros((2 * n2, 2 * r))
    q[:n2, :r] = b
    q[n2:, r:] = _u_block(b, grid, params)
    return q


def _project(b: np.ndarray, b_u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q^T x for Q = [[b, 0], [0, b_u]], without the zero blocks."""
    n2 = b.shape[0]
    return np.vstack([b.T @ x[:n2], b_u.T @ x[n2:]])


def _add_product(out: np.ndarray, a: np.ndarray, c: np.ndarray) -> None:
    """out += a @ c, one channel's rows at a time (a 2N-row temporary)."""
    n2 = out.shape[0] // 2
    for rows in (slice(0, n2), slice(n2, None)):
        out[rows] += a[rows] @ c


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


def _doublings(grid: ModeGrid, params: P.ExperimentParams, dt: float,
               rates) -> int:
    """k, the doublings that build a step of length dt from h = dt / 2^k.

    ``rates`` holds, per scale, the bound on ||A||_1 per unit time.  A
    step's Taylor series costs (applies, ``_taylor_plan``) x (columns of
    Q_h) x _APPLY_COST; each doubling costs r_h r_2h multiply-adds per
    row and scale, plus as much again for the level's basis.  Columns are
    bounded by twice the ``_samples`` of the interval.  k is the
    cheapest up to the first h that one scaled Taylor step covers
    (s = 1 at the largest m): past it, halving h only trades Taylor
    terms for doublings, and each doubling doubles the rounding error
    the step carries.
    """
    def columns(tau):
        return 2 * _samples(grid, params.b + params.v_g * tau)

    def taylor(h):
        return sum(math.prod(_taylor_plan(rate * h)) for rate in rates)

    k_max = max(0, math.ceil(math.log2(max(rates) * dt
                                       / max(_THETA.values()))))
    best, cost, doubling = 0, math.inf, 0.0
    for k in range(k_max + 1):
        h = dt / 2 ** k
        if k:
            doubling += (len(rates) + 1) * columns(h) * columns(2.0 * h)
        total = taylor(h) * columns(h) * _APPLY_COST + doubling
        if total < cost:
            best, cost = k, total
    return best


def _step_propagators(grid: ModeGrid, params: P.ExperimentParams, factors,
                      dt: float, scales):
    """(b, {scale: l}): exp(dt A_scale) = R(dt) + l Q^T for each of
    ``scales``, with Q = Q_dt given by its S block b (``_step_basis``).

    A = Omega (hw + hw + scale K) / hbar, with K = f_s f_u^T from
    ``factors`` = (f_s, f_u, ||K||_1 bound).  One ``expm_action`` per
    scale covers a short step h = dt / 2^k (k from ``_doublings``); k
    doublings E(2h) = E(h) E(h) in the same form then cover the step.
    With P = Q_h^T Q_2h and L = l P,
    E(2h) Q_2h - R(2h) Q_2h = R(h) L + l (Q_h^T R(h) Q_2h + Q_h^T L).
    R is orthogonal and commutes with the turn b/v that makes each U
    block, so P = diag(P0, P0) and Q_h^T R(h) Q_2h = diag(G, G), each
    from the S blocks.  The scales share each level's basis, which
    lives for that level only.
    """
    f_s, f_u, k_norm = factors
    n = grid.n_modes
    rates = [(grid.mode_energies(params.v_g)[-1] + abs(scale) * k_norm)
             / P.HBAR for scale in scales]
    k = _doublings(grid, params, dt, rates)
    h = dt / 2 ** k
    hw = (h / P.HBAR) * grid.mode_energies(params.v_g)
    hw4 = np.tile(hw, 4)[:, None]

    def apply_at(c):
        def apply(x):
            gx = hw4 * x
            gx[:2 * n] += c * (f_s @ (f_u.T @ x[2 * n:]))
            gx[2 * n:] += c * (f_u @ (f_s.T @ x[:2 * n]))
            return _omega_times(gx)
        return apply

    b = _step_basis(grid, params, h)
    q = _dense(b, grid, params)
    rq = free_rotate(q, grid, params, h)
    ls = {}
    for scale, rate in zip(scales, rates):
        ls[scale] = expm_action(apply_at(scale * h / P.HBAR), q, rate * h)
        ls[scale] -= rq
    del q, rq
    for _ in range(k):
        b2 = _step_basis(grid, params, 2.0 * h)
        b_u = _u_block(b, grid, params)
        p0 = b.T @ b2
        g = b.T @ free_rotate(b2, grid, params, h)
        r, r2 = p0.shape
        for scale, l in ls.items():
            lp = np.empty((4 * n, 2 * r2))
            np.matmul(l[:, :r], p0, out=lp[:, :r2])
            np.matmul(l[:, r:], p0, out=lp[:, r2:])
            inner = _project(b, b_u, lp)
            inner[:r, :r2] += g
            inner[r:, r2:] += g
            free_rotate(lp, grid, params, h, out=lp)
            _add_product(lp, l, inner)
            ls[scale] = lp
        del l
        b, h = b2, 2.0 * h
    return b, ls


# snapshots per setup that keep their covariance profile (8 kB each at
# 1024 profile points)
_PROFILE_ENTRIES = 8


@dataclass(frozen=True)
class WindowPropagator:
    """M = R(span) (I - q q^T) + mq q^T, the window propagator, exact up
    to SVD_CUT.

    q (4N x r, orthonormal) spans every direction the coupling reads
    during the window; M moves the rest by free flight R alone, so
    mq = M q determines M.  ``symplectic_residual`` is
    max |mq^T Omega mq - q^T Omega q|, zero for a symplectic M.
    ``u_excess`` is diag(mq mq^T - rq rq^T)/2 on the U rows (2N): what M
    adds to the U variances of the vacuum, I/2.  q, mq, u_excess and
    the memoised ``covariance_profile`` arrays are read-only:
    ``window_propagator`` hands one instance to every caller with the
    same setup.
    """

    q: np.ndarray
    mq: np.ndarray
    span: float                        # s, t_f - t_i
    grid: ModeGrid
    params: P.ExperimentParams
    symplectic_residual: float
    u_excess: np.ndarray
    # (profile points, dt) -> covariance_profile, oldest first
    _profiles: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def rq(self) -> np.ndarray:
        """R(span) q."""
        return free_rotate(self.q, self.grid, self.params, self.span)

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        c = self.q.T @ a
        return (free_rotate(a - self.q @ c, self.grid, self.params,
                            self.span) + self.mq @ c)

    def covariance_profile(self, x: np.ndarray, dt: float) -> np.ndarray:
        """S energy density (J/m) at the points ``x`` of the moment
        (mq mq^T - rq rq^T)/2, carried freely a time ``dt`` past the
        window.

        This is the part of the S profile that M adds to the vacuum,
        whatever the measurement and feedback: ``local_energy_density``
        of the columns R(dt) mq and R(dt) rq with weights +1/2 and -1/2.
        The U half of q has no S rows, so only the first r/2 columns of
        rq enter.  The last _PROFILE_ENTRIES (x, dt) are memoised as
        read-only arrays of len(x) floats each.
        """
        key = (x.tobytes(), dt)
        if key not in self._profiles:
            n, half = self.grid.n_modes, self.q.shape[1] // 2
            rq_s = free_rotate(self.q[:2 * n, :half], self.grid, self.params,
                               self.span)
            cols = free_rotate(np.hstack([self.mq[:2 * n], rq_s]),
                               self.grid, self.params, dt)
            weights = np.repeat([0.5, -0.5], [self.mq.shape[1], half])
            profile = local_energy_density(x, self.grid, self.params, cols,
                                           weights)
            profile.flags.writeable = False
            if len(self._profiles) == _PROFILE_ENTRIES:
                del self._profiles[next(iter(self._profiles))]
            self._profiles[key] = profile
        return self._profiles[key]


# A scan over feedback modes and a few coupling strengths on one grid
# reuses every propagator it builds; four entries bound the memory (two
# 4N x r arrays each, 61 MB at 1024 modes, 4.6 MB at 256).  A cold build
# peaks at 2.1 to 3.1 times what it returns: 129 MB traced at 1024 modes,
# 11 MB at 256, 3.9 MB at 128.
@functools.lru_cache(maxsize=4)
def window_propagator(params: P.ExperimentParams, grid: ModeGrid,
                      coupling_scale: float, ramp_fraction: float,
                      n_ramp: int, /) -> WindowPropagator:
    """The propagator over the interaction window, on the coupling's
    subspace.

    q is Q_(t_f - t_i) (``_step_basis``).  mq is built in time order
    through the ``ramp_schedule``: each distinct (duration, scale) step
    with a nonzero coupling costs one ``expm_action``
    (``_step_propagators``), and applying a step costs O(N r r_step).
    No 4N x 4N matrix is formed.  The build holds only what the rest of
    the schedule needs: the window basis as its S block, then every
    distinct step, built longest first, then mq, updated in place, each
    step dropped after its last use.

    The result depends on nothing but the arguments, all hashable, so
    the last four propagators built are memoised by argument value (an
    equal ``ExperimentParams`` built separately finds the same entry);
    ``window_propagator.cache_clear()`` releases them.  The arguments
    are positional-only with no defaults: ``lru_cache`` keys on how
    they are passed, so this keeps one key per setup.
    """
    t_i, t_f = interaction_window(params)
    span = t_f - t_i
    f_s, f_u = _coupling_factors(params, grid)
    # ||K||_1 and ||K^T||_1 bounded through the factors
    k_norm = max(np.max(np.abs(f_u) @ np.abs(f_s).sum(0)),
                 np.max(np.abs(f_s) @ np.abs(f_u).sum(0)))
    window = _step_basis(grid, params, span)
    schedule = [(dt, scale * coupling_scale)
                for dt, scale in ramp_schedule(t_i, t_f, ramp_fraction,
                                               n_ramp)]
    # distinct nonzero scales per duration, in order
    scales = {}
    for dt, scale in schedule:
        if scale != 0.0:
            scales.setdefault(dt, {})[scale] = None
    steps = {}
    for dt in sorted(scales, reverse=True):
        b, ls = _step_propagators(grid, params, (f_s, f_u, k_norm), dt,
                                  list(scales[dt]))
        for scale, l in ls.items():
            steps[dt, scale] = b, l
        del b, ls
    uses = collections.Counter(schedule)

    mq = _dense(window, grid, params)
    for dt, scale in schedule:
        if scale == 0.0:                 # free flight alone, exactly
            free_rotate(mq, grid, params, dt, out=mq)
            continue
        b, l = steps[dt, scale]
        c = _project(b, _u_block(b, grid, params), mq)
        free_rotate(mq, grid, params, dt, out=mq)
        _add_product(mq, l, c)
        uses[dt, scale] -= 1
        if not uses[dt, scale]:
            del steps[dt, scale]
        del b, l
    q = _dense(window, grid, params)
    residual = float(np.max(np.abs(mq.T @ _omega_times(mq)
                                   - q.T @ _omega_times(q))))
    u = slice(2 * grid.n_modes, None)
    rq_u = free_rotate(q[u], grid, params, span)
    u_excess = 0.5 * (np.einsum("ij,ij->i", mq[u], mq[u])
                      - np.einsum("ij,ij->i", rq_u, rq_u))
    q.flags.writeable = mq.flags.writeable = False
    u_excess.flags.writeable = False
    return WindowPropagator(q, mq, span, grid, params, residual, u_excess)
