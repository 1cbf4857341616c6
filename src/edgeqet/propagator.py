"""The window propagator on the subspace the coupling touches.

The chiral dispersion is linear, so free flight R(t) only translates
density vectors: the Coulomb coupling over [0, b] reads, during a time
tau, the S density that free flight carries in from [0, b + v tau] and
the U density from [-v tau, b].  Their span Q is numerically low-rank,
and every direction orthogonal to it moves by free flight alone, so a
propagator E over a time T is R(T) + (EQ - RQ) Q^T and only the
deviation EQ - RQ has to be computed: one exponential action per
distinct step of the coupling schedule, doubled in the same low-rank
form, and the steps chained into the window propagator M.

Q is block-diagonal, [[b, 0], [0, B_U]], with the U block B_U the S
block b turned by b/v, and the mirror x -> b - x with S and U swapped
(Pi, ``_mirror_blocks``) maps [b; 0] onto [0; B_U] and commutes with
free flight and with the coupling: the coupling's nodes on [0, b] are
symmetric and its kernel depends on |x - y| only.  So the deviation of
the U-half columns is Pi of the deviation l of the S-half columns, and
every propagator the build makes, each step and M itself, is held in
one form, (b, l), with E = R(T) + [l, Pi l] Q^T, and applied by one
routine (``_apply``).  The build checks the symmetry first, from the
coupling's factors (``_mirror_residual``), and refuses a coupling that
breaks it.

The build holds only what the rest of the schedule still needs.
``window_propagator`` computes the window basis first; with sudden
switching the plateau is the window, and its last doubling level takes
that basis instead of computing it again.  Every shorter step reads an
interval inside the window's, so its basis is taken inside the window
basis (``_step_basis``): the build makes one SVD of 2N-row density
samples, whatever its number of steps.  It then builds the distinct
coupled steps, longest first, so that the plateau's doubling
temporaries never sit beside the finished ramp steps; ramp steps share
their duration, so they share each level's basis, which lives for that
level only.  Only then does it apply the steps in time order to the
S-half columns [b; 0] of the window, in place, and drop each step
after its last use.

The same module holds the setup stage of ``oracle.run_protocol``
(``protocol_setup``): the window propagator together with everything
else a run computes from its setup alone, memoised per setup.  It calls
the oracle's measurement, feedback and profile functions through the
``oracle`` module, so that a wrapper or stub put there is seen.

``oracle.run_protocol`` imports this module when it is first called, so
commands that never simulate neither load nor compile it.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle as O
from . import params as P
from .detector import delta_v, detector_from_params
from .oracle import (ModeGrid, StepInstability, _conditioning,
                     _coupling_nodes, _omega_times, density_basis,
                     free_rotate, interaction_window)

#: Relative singular-value cut of the subspace bases and of the coupling
#: factors: directions below SVD_CUT times the largest singular value are
#: dropped.  It is the one approximation the window propagator adds to
#: the discretization.  The singular values of the window's density
#: samples decay geometrically to ~4e-15 and then sit on a rounding
#: plateau (at 256 modes, 28 values from 2.5e-15 to 1e-15 after the
#: 112th); a cut at 1e-14 keeps the decay and drops the plateau, and
#: held-out density vectors still lie in the basis to a few 1e-15.
SVD_CUT = 1e-14

#: Bound on the relative mirror residual ||K^T - R(b/v) K R(b/v)|| / ||K||
#: of the coupling (``_mirror_residual``), above which the window
#: propagator refuses to take the U-half deviation from the S half.  The
#: default parameters give 1e-15 at 64 modes and 3e-14 at 1024 (the
#: rounding of the turn b/v); a channel-dependent velocity or kernel
#: gives O(1).
MIRROR_TOL = 1e-11

#: Bound on ``symplectic_residual`` above which the window propagator is
#: refused.  Stable couplings give at most 1.1e-14 (16 to 512 modes,
#: |coupling_scale| <= 1, any ramp) and 2.5e-14 at coupling_scale 10;
#: at 64 modes coupling_scale 20 gives 3.7e-6 and 100 gives 1.5e31.
SYMPLECTIC_TOL = 1e-10

#: Equal steps of each ramp of the coupling (``ramp_schedule``): it rises
#: through scales (j + 1/2)/N_RAMP, j = 0 .. N_RAMP - 1, and falls
#: through the same scales in reverse.
N_RAMP = 5

# theta_m of Al-Mohy & Higham (2011), Table 3.1: m Taylor terms give
# exp(A) to double precision when ||A||_1 <= theta_m.  Their table goes
# on to m = 55 (theta 9.9), but the terms of a rotation by theta peak
# near e^theta and cancel: with m up to 55 the symplectic residual at
# 256 modes rose from 4e-15 to 1e-13.
_THETA = {10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54}


def _coupling_factors(params: P.ExperimentParams, grid: ModeGrid):
    """(f_s, f_u), 2N x rho each, with the coupling block K = f_s f_u^T.

    K has numerical rank far below 2N (13 of 512 at 256 modes); the
    factors keep the singular values above SVD_CUT, so applying the
    coupling costs O(N rho) per vector instead of O(N^2).
    """
    u_s, u_u, kernel = _coupling_nodes(params, grid)
    q_s, r_s = np.linalg.qr(u_s.T)
    q_u, r_u = np.linalg.qr(u_u.T)
    w, sv, vt = np.linalg.svd(r_s @ kernel @ r_u.T)
    keep = sv > SVD_CUT * sv[0]
    return q_s @ (w[:, keep] * sv[keep]), q_u @ vt[keep].T


def _doublings(norm: float) -> int:
    """k, the fewest doublings after which one Taylor series covers a
    step with ||A||_1 <= norm: norm / 2^k < theta_30.  frexp's exponent
    k puts norm / theta_30 in [2^(k-1), 2^k), so this holds exactly in
    floating point, where ceil(log2(.)) can fall one short."""
    return max(0, math.frexp(norm / max(_THETA.values()))[1])


def expm_action(apply, b: np.ndarray, norm: float) -> np.ndarray:
    """exp(A) @ b for A given as ``apply`` (x -> A @ x, a new array),
    ||A||_1 <= norm <= theta_30.

    One truncated Taylor series of m terms, m the fewest whose theta_m
    covers the norm bound: the exponential action of Al-Mohy & Higham
    (SIAM J. Sci. Comput. 33, 488 (2011), Algorithm 3.2) with its
    scaling done by the caller's doublings (``_step_propagators``) and
    without its early stop, which never fires on these steps (every
    action of a 5%-ramp build takes its m terms at 256 and at 1024
    modes) and costs an infinity norm per term.  scipy's
    ``expm_multiply`` would estimate the norm from numpy's global
    random stream, and the last bits of its result, which reach the
    output files, would then differ from run to run.
    """
    terms = min(m for m, theta in _THETA.items() if norm <= theta)
    f = b.copy()
    term = b
    for j in range(1, terms + 1):
        term = apply(term)
        term /= j
        f += term
    return f


def _samples(grid: ModeGrid, length: float) -> int:
    """Chebyshev samples that resolve the S density vectors on
    [0, length]: they are band-limited in x (wave numbers up to k_N),
    so k_N length / 2 + 40 resolve their span to double precision."""
    return min(math.ceil(0.5 * grid.k[-1] * length) + 40, 2 * grid.n_modes)


def _step_basis(grid: ModeGrid, params: P.ExperimentParams, tau: float,
                window: np.ndarray | None = None) -> np.ndarray:
    """B_tau, 2N x r/2 orthonormal: the S block of Q_tau, which spans
    all the coupling reads during a step of length tau, in terms of the
    state at the start of the step.

    The coupling reads rho_S and rho_U on [0, b]; free flight carries
    into that region the S density at [0, b + v tau] (left-movers) and
    the U density at [-v tau, b] (right-movers).  The intervals have the
    same length and u_U(y) is u_S(-y) up to a constant, so one channel
    basis serves both: Q_tau = [[B, 0], [0, B_U]] with B_U = R(b/v) B,
    the mirror of [B; 0] (``_mirror_blocks``).  B is the SVD basis of
    the S density samples D at ``_samples`` Chebyshev points, cut at
    SVD_CUT.

    ``window``, the basis of a step at least as long (the window's),
    already spans the samples, since [0, b + v tau] lies inside its
    interval: B is then ``window`` @ U with U the SVD basis of
    window^T D, cut at SVD_CUT.  Its singular values are those of D (the
    window is orthonormal), so the cut keeps the same rank, and the SVD
    is of an r/2 x m matrix instead of 2N x m.
    """
    length = params.b + params.v_g * tau
    m = _samples(grid, length)
    x = 0.5 * length * (1.0 - np.cos(np.pi * (np.arange(m) + 0.5) / m))
    d = density_basis(grid, 1.0, x, "left").T
    if window is not None:
        d = window.T @ d
    u, sv, _ = np.linalg.svd(d, full_matrices=False)
    del d
    u = u[:, sv > SVD_CUT * sv[0]]
    return u if window is None else window @ u


def _mirror_blocks(grid: ModeGrid, params: P.ExperimentParams):
    """((rows, other, t), ...): the rows ``rows`` of Pi a are R(t) of the
    rows ``other`` of a, for the S <-> U mirror Pi.

    Pi sends the S rows to R(-b/v) of the U rows and the U rows to
    R(b/v) of the S rows: it is the mirror x -> b - x of the coupling
    region with the channels swapped.  It is orthogonal, symplectic and
    its own inverse, it commutes with free flight, and
    Pi [B; 0] = [0; B_U] (``_step_basis``).  It commutes with every
    coupled generator as long as K^T = R(b/v) K R(b/v)
    (``_mirror_residual``), so the U-half deviation of every propagator
    the build makes is Pi of its S-half deviation l.
    """
    n2 = 2 * grid.n_modes
    turn = params.b / params.v_g
    return ((slice(0, n2), slice(n2, None), -turn),
            (slice(n2, None), slice(0, n2), turn))


def _mirror(a: np.ndarray, grid: ModeGrid,
            params: P.ExperimentParams) -> np.ndarray:
    """Pi a for ``a`` with the 4N rows of R (``_mirror_blocks``)."""
    out = np.empty_like(a)
    for rows, other, t in _mirror_blocks(grid, params):
        free_rotate(a[other], grid, params, t, out=out[rows])
    return out


def _apply(b: np.ndarray, l: np.ndarray, dt: float, x: np.ndarray,
           grid: ModeGrid, params: P.ExperimentParams,
           g: np.ndarray | None = None) -> np.ndarray:
    """E x for the propagator E = R(dt) + [l, Pi l] Q^T held as (b, l),
    Q = [[b, 0], [0, B_U]] = [[b; 0], Pi [b; 0]]: x becomes
    R(dt) x + l (b^T x_S) + Pi l (B_U^T x_U), in place, and is returned.
    ``g`` (r_b x x's columns) is added to b^T x_S: the result is then
    E x + l g, with no product of its own (the doublings,
    ``_step_propagators``).

    B_U and Pi l enter one channel at a time, as the turned rows of b
    and l (2N-row temporaries): in the build b and l have no more
    columns than x, so turning them costs less than turning x.
    """
    n2 = b.shape[0]
    c_s = b.T @ x[:n2]
    if g is not None:
        c_s += g
    c_u = free_rotate(b, grid, params, params.b / params.v_g).T @ x[n2:]
    free_rotate(x, grid, params, dt, out=x)
    for rows, other, t in _mirror_blocks(grid, params):
        x[rows] += l[rows] @ c_s
        x[rows] += free_rotate(l[other], grid, params, t) @ c_u
    return x


def _mirror_residual(f_s: np.ndarray, f_u: np.ndarray, grid: ModeGrid,
                     params: P.ExperimentParams) -> float:
    """||K^T - R(b/v) K R(b/v)||_F / ||K||_F for K = f_s f_u^T.

    Zero when Pi commutes with the coupling: the Gauss-Legendre nodes on
    [0, b] are symmetric, the kernel depends on |x - y| only and
    nu_S / nu_U enters K as a constant factor.  The difference is
    [f_u, R f_s] [f_s, -R^T f_u]^T, R = R(b/v), with R f_s and R^T f_u
    the halves of Pi [f_s; f_u] (``_mirror``); the triangular factors of
    the two stacked factors give its norm in O(N rho^2) without squaring
    them (a Gram matrix would cancel to ~1e-8).
    """
    n2 = f_s.shape[0]
    turned = _mirror(np.vstack([f_s, f_u]), grid, params)
    rot_u, rot_s = turned[:n2], turned[n2:]
    diff = (np.linalg.qr(np.hstack([f_u, rot_s]), mode="r")
            @ np.linalg.qr(np.hstack([f_s, -rot_u]), mode="r").T)
    k = np.linalg.qr(f_s, mode="r") @ np.linalg.qr(f_u, mode="r").T
    return float(np.linalg.norm(diff) / np.linalg.norm(k))


def _omega_form(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a^T Omega c for a and c with the 4N rows of R, from the x and p
    rows of each channel: X_a^T P_c - P_a^T X_c summed over S and U
    (small temporaries only)."""
    n = a.shape[0] // 4
    g = np.zeros((a.shape[1], c.shape[1]))
    for base in (0, 2 * n):
        x, p = slice(base, base + n), slice(base + n, base + 2 * n)
        g += a[x].T @ c[p]
        g -= a[p].T @ c[x]
    return g


def ramp_schedule(t_i: float, t_f: float, ramp_fraction: float):
    """[(duration, scale), ...] of the coupling over [t_i, t_f], in time
    order: N_RAMP equal steps up (scales (j + 1/2)/N_RAMP) over the
    first ``ramp_fraction`` of the window, the plateau at scale 1, and
    the same steps down.  Zero-length steps are left out."""
    span = t_f - t_i
    ramp = ramp_fraction * span
    up = ([(ramp / N_RAMP, (j + 0.5) / N_RAMP) for j in range(N_RAMP)]
          if ramp > 0.0 else [])
    plateau = [(span - 2.0 * ramp, 1.0)] if span > 2.0 * ramp else []
    return up + plateau + up[::-1]


def _step_propagators(grid: ModeGrid, params: P.ExperimentParams, factors,
                      dt: float, scales, window):
    """(b, {scale: l}): exp(dt A_scale) held as (b, l) for each of
    ``scales``, that is R(dt) + [l, Pi l] Q^T with Q = Q_dt given by
    its S block b (``_step_basis``) and l (4N x r_b) the deviation
    E Q - R Q on the S-half columns [b; 0] of Q (``_apply``).
    ``window`` = (span, B_span) is the window's basis, already built: a
    level of duration span (sudden switching) uses it instead of
    building it again, and every shorter level takes its basis inside
    it (``_step_basis``), so the build makes one SVD of 2N-row samples.

    A = Omega (hw + hw + scale K) / hbar, with K = f_s f_u^T from
    ``factors`` = (f_s, f_u, ||K||_1 bound).  One ``expm_action`` per
    scale, on the r_h columns [B_h; 0], covers a short step
    h = dt / 2^k; k doublings E(2h) = E(h) E(h) in the same form then
    cover the step.  k is the fewest that let one Taylor series cover h
    at every scale (``_doublings``, from the largest scale's bound on
    ||A||_1): the doublings are the squarings of scaling and squaring,
    so no action scales h further.  The S-half columns of
    E(2h) Q_2h - R(2h) Q_2h are E(h) L + l G with L = l P0 the
    deviation E(h) Q_2h - R(h) Q_2h of those columns after one step,
    P0 = B_h^T B_2h and G = B_h^T R(h) B_2h: one ``_apply`` of E(h)
    to L with G added to its coefficient of l.  The scales share each
    level's basis, which lives for that level only.
    """
    f_s, f_u, k_norm = factors
    n = grid.n_modes
    rates = [(grid.mode_energies(params.v_g)[-1] + abs(scale) * k_norm)
             / P.HBAR for scale in scales]
    k = _doublings(max(rates) * dt)
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

    def basis(tau):
        return (window[1] if tau == window[0]
                else _step_basis(grid, params, tau, window[1]))

    b = basis(h)
    q_s = np.zeros((4 * n, b.shape[1]))
    q_s[:2 * n] = b
    rq_s = free_rotate(q_s, grid, params, h)
    ls = {}
    for scale, rate in zip(scales, rates):
        ls[scale] = expm_action(apply_at(scale * h / P.HBAR), q_s, rate * h)
        ls[scale] -= rq_s
    del q_s, rq_s
    for _ in range(k):
        b2 = basis(2.0 * h)
        p0 = b.T @ b2
        g = b.T @ free_rotate(b2, grid, params, h)
        for scale, l in ls.items():
            ls[scale] = _apply(b, l, h, l @ p0, grid, params, g)
        del l
        b, h = b2, 2.0 * h
    return b, ls


@dataclass(frozen=True)
class WindowPropagator:
    """M = R(span) + [l, Pi l] Q^T, the window propagator, exact up to
    SVD_CUT, held in the form of its steps (``_apply``).

    Q = [[b, 0], [0, B_U]] (4N x r, orthonormal) spans every direction
    the coupling reads during the window, and M moves the rest by free
    flight R alone.  ``b`` (2N x r/2) is its S block and ``l``
    (4N x r/2) the coupled deviation M [b; 0] - R(span) [b; 0] of its
    S-half columns; the U-half columns deviate by Pi l.  ``m @ a`` is
    M a.  ``symplectic_residual`` is max |mq^T Omega mq - q^T Omega q|
    over Q's columns, zero for a symplectic M and at most
    SYMPLECTIC_TOL; ``mirror_residual`` is how far the coupling is from
    the S <-> U mirror symmetry that gives the U half
    (``_mirror_residual``), at most MIRROR_TOL.  b and l are read-only:
    ``protocol_setup`` memoises the propagator with the rest of a run's
    setup and shares it between calls.
    """

    b: np.ndarray
    l: np.ndarray
    span: float                        # s, t_f - t_i
    grid: ModeGrid
    params: P.ExperimentParams
    symplectic_residual: float
    mirror_residual: float

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        return _apply(self.b, self.l, self.span, np.array(a, dtype=float),
                      self.grid, self.params)


def window_propagator(params: P.ExperimentParams, grid: ModeGrid,
                      coupling_scale: float,
                      ramp_fraction: float) -> WindowPropagator:
    """The propagator over the interaction window, on the coupling's
    subspace.

    b is the S block of Q_(t_f - t_i) (``_step_basis``), the one basis
    built from the full density samples: every step's basis is taken
    inside it.  l is built in time order through the ``ramp_schedule``:
    each distinct (duration, scale) step with a nonzero coupling costs one
    ``expm_action`` (``_step_propagators``), and applying a step to the
    S-half columns [b; 0] costs O(N r r_step) (``_apply``).  No 4N x 4N
    matrix is formed, and no U-half column: M commutes with the
    S <-> U mirror Pi (``_mirror``), so they follow from the S half.  A
    free window (``coupling_scale`` 0) is one free rotation by span
    whatever the ramp, so it gives l = 0 exactly.  The mirror is checked
    first, from the coupling factors: a ``mirror_residual`` above
    MIRROR_TOL raises StepInstability, and so does a
    ``symplectic_residual`` above SYMPLECTIC_TOL or NaN: M is then not
    symplectic to working precision.  Pi is symplectic and commutes
    with M, so the residual's U-U block repeats its S-S block and, as
    q^T Omega Pi q = 0 for the S-half columns q, its S-U block is
    mq^T Omega Pi mq: both come from the S half.

    The build holds only what the rest of the schedule needs: the
    window basis, then every distinct step, built longest first, then
    the S-half columns, updated in place, each step dropped after its
    last use.  Its peak is set by the steps, not by what it returns,
    b and l, 3/8 of the dense Q and MQ.  Each call builds afresh;
    ``protocol_setup`` memoises the result with the rest of a run's
    setup.
    """
    t_i, t_f = interaction_window(params)
    span = t_f - t_i
    f_s, f_u = _coupling_factors(params, grid)
    mirror = _mirror_residual(f_s, f_u, grid, params)
    if not mirror <= MIRROR_TOL:
        raise StepInstability(
            f"coupling breaks the S <-> U mirror: residual {mirror:.3g} "
            f"> {MIRROR_TOL:g}")
    # ||K||_1 and ||K^T||_1 bounded through the factors
    k_norm = max(np.max(np.abs(f_u) @ np.abs(f_s).sum(0)),
                 np.max(np.abs(f_s) @ np.abs(f_u).sum(0)))
    window = _step_basis(grid, params, span)
    # with no coupling the ramp steps are free flight: one rotation by
    # span, not a chain of them, gives R(span) [b; 0] exactly
    schedule = [(dt, scale * coupling_scale)
                for dt, scale in ramp_schedule(
                    t_i, t_f, ramp_fraction if coupling_scale else 0.0)]
    # distinct nonzero scales per duration, in order
    scales = {}
    for dt, scale in schedule:
        if scale != 0.0:
            scales.setdefault(dt, {})[scale] = None
    steps = {}
    for dt in sorted(scales, reverse=True):
        b, ls = _step_propagators(grid, params, (f_s, f_u, k_norm), dt,
                                  list(scales[dt]), (span, window))
        for scale, l in ls.items():
            steps[dt, scale] = b, l
        del b, ls
    uses = collections.Counter(schedule)

    n2, r = window.shape
    mq = np.zeros((2 * n2, r))
    mq[:n2] = window
    omega_q = _omega_form(mq, mq)
    for dt, scale in schedule:
        if scale == 0.0:                 # free flight alone, exactly
            free_rotate(mq, grid, params, dt, out=mq)
            continue
        b, l = steps[dt, scale]
        _apply(b, l, dt, mq, grid, params)
        uses[dt, scale] -= 1
        if not uses[dt, scale]:
            del steps[dt, scale]
        del b, l
    residual = float(np.max(np.abs([
        _omega_form(mq, mq) - omega_q,
        _omega_form(mq, _mirror(mq, grid, params))])))
    if not residual <= SYMPLECTIC_TOL:
        raise StepInstability(
            f"window propagator is not symplectic: residual {residual:.3g} "
            f"> {SYMPLECTIC_TOL:g}")
    # the coupled deviation: R(span) [b; 0] has no U rows
    mq[:n2] -= free_rotate(window, grid, params, span)
    window.flags.writeable = mq.flags.writeable = False
    return WindowPropagator(window, mq, span, grid, params, residual, mirror)


@dataclass(frozen=True)
class ProtocolSetup:
    """What ``oracle.run_protocol`` computes from its setup alone.

    The setup is (params, grid, coupling_scale, ramp_fraction).
    It fixes the measurement at t = 0, the window propagator M, the
    measurement response, feedback displacement and back-action kick
    carried to t_f, and every coefficient of the shot energies: a shot
    with outcome u (variance ``s_pred``) and feedback value f has
    (E_A, E_1, E_B) = ``energies`` @ (1, u^2, f^2, u f), and the shot
    means are ``energies`` @ (1, u.u/n, f.f/n, u.f/n).
    ``profile_terms`` gives the S profile over the same columns.  The
    arrays, and the profile table it memoises (the last request), are
    read-only: ``protocol_setup`` hands one instance to every caller
    with the same setup.
    """

    window: WindowPropagator
    s_pred: float          # V^2, predictive variance of the outcome
    back: float            # 1/V^2, weight of the back-action term
    a_vec: np.ndarray      # posterior mean per unit outcome, at t_f
    b_vec: np.ndarray      # feedback displacement per unit value, at t_f
    kick_f: np.ndarray     # back-action direction Omega o, at t_f
    energies: np.ndarray   # J, J/V^2: E_A, E_1, E_B over (1, u^2, f^2, uf)
    # the last profile request: its points -> profile_terms
    _profiles: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def profile_terms(self, x: np.ndarray) -> np.ndarray:
        """The S energy density (J/m) at t_f at the points ``x``, as a
        len(x) x 4 table over the shot moments (1, u^2, f^2, u f), like
        ``energies``: a run's profile is the table @ its moments.

        The constant column is what M adds to the vacuum,
        (mq mq^T - rq rq^T)/2 with mq = M Q and rq = R(span) Q, plus the
        conditioning terms -s_pred a a^T + back kick kick^T.  On the
        S rows rq is [rq_s, 0] and mq is [rq_s + l_S, (Pi l)_S], so the
        first part comes from those three blocks with weights +1/2,
        +1/2 and -1/2, 1.5 r columns for Q's r.  The u^2 and f^2 columns
        are the densities of a and b; ``local_energy_density`` forms
        squares, so the cross term u f (a b^T + b a^T) is the density of
        a + b less those of a and b.  All four come from one call on
        the stacked columns with a k x 4 weight matrix, which takes the
        points in blocks (``oracle.PROFILE_BLOCK``): beyond the table
        and the stacked columns a request holds one block's density
        rows and product, however many points it has.  After t_f the S
        channel moves freely, a rigid translation at v_g, so a snapshot
        dt later is this profile at x + v_g dt: one request can hold
        the points of every snapshot.  The last request is memoised;
        another one replaces it.
        """
        key = x.tobytes()
        if key not in self._profiles:
            m = self.window
            grid, params = m.grid, m.params
            (s_sl, u_sl, to_s), _ = _mirror_blocks(grid, params)
            rq_s = free_rotate(m.b, grid, params, m.span)
            a_s, b_s = self.a_vec[s_sl], self.b_vec[s_sl]
            cols = np.column_stack(
                [rq_s + m.l[s_sl], free_rotate(m.l[u_sl], grid, params, to_s),
                 rq_s, a_s, b_s, a_s + b_s, self.kick_f[s_sl]])
            r = 2 * m.b.shape[1]
            weights = np.zeros((cols.shape[1], 4))
            weights[:r, 0] = 0.5                 # the S rows of mq
            weights[r:-4, 0] = -0.5              # rq_s
            weights[-4:] = [[-self.s_pred, 1.0, 0.0, -1.0],   # a
                            [0.0, 0.0, 1.0, -1.0],            # b
                            [0.0, 0.0, 0.0, 1.0],             # a + b
                            [self.back, 0.0, 0.0, 0.0]]       # kick
            table = O.local_energy_density(x, grid, params, cols, weights)
            table.flags.writeable = False
            self._profiles.clear()
            self._profiles[key] = table
        return self._profiles[key]


# A scan over feedback modes and a few coupling strengths on one grid
# reuses every setup it builds; four entries bound the memory.  The
# window propagator is most of an entry (b and l, 2N x r/2 and
# 4N x r/2: 18 MB at 1024 modes, 1.4 MB at 256); the rest is three 4N
# vectors, the 3 x 4 energy table and the last request's profile
# table, 32 kB per snapshot at 1024 profile points.
@functools.lru_cache(maxsize=4)
def protocol_setup(params: P.ExperimentParams, grid: ModeGrid,
                   coupling_scale: float, ramp_fraction: float,
                   /) -> ProtocolSetup:
    """The shot-independent stage of ``oracle.run_protocol``.

    The result depends on nothing but the arguments, all hashable, so
    the last four setups built are memoised by argument value (an equal
    ``ExperimentParams`` built separately finds the same entry);
    ``protocol_setup.cache_clear()`` releases them with their
    propagators and profile tables.  The arguments are positional-only
    with no defaults: ``lru_cache`` keys on how they are passed, so
    this keeps one key per setup.
    """
    t_i, _ = interaction_window(params)
    n = grid.n_modes
    hw = grid.mode_energies(params.v_g)
    hw2 = np.concatenate([hw, hw])
    u_sl = slice(2 * n, 4 * n)
    s_sl = slice(0, 2 * n)

    # measurement conditioning at t = 0 (vacuum prior, Cov = I/2)
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    sigma = 0.5 * o
    s_pred, kick = _conditioning(sigma, o, dv)
    back = 1.0 / (4.0 * dv ** 2)             # weight of the back-action term
    gain = sigma / s_pred                    # posterior mean per unit outcome

    # S-channel covariance part of the post-measurement energy
    cov_diag = 0.5 - sigma * sigma / s_pred + back * kick * kick
    d_unit = O.feedback_displacement(params, grid)

    # the measurement response turns freely from t = 0 to t_i, the
    # feedback displacement from T to t_i; M carries both on to t_f
    m = window_propagator(params, grid, coupling_scale, ramp_fraction)
    a_vec, b_vec, kick_f = (m @ np.stack([
        free_rotate(gain, grid, params, t_i),        # per unit outcome
        free_rotate(d_unit, grid, params, t_i - params.T_delay),
        free_rotate(kick, grid, params, t_i)], axis=1)).T

    # U-channel energy at t_f: the covariance I/2 + (mq mq^T - rq rq^T)/2
    # - s_pred a a^T + back kick kick^T (sigma carried to t_f is
    # s_pred * a_vec) on its diagonal, the mean quadratic in (outcome,
    # feedback).  On the U rows rq is [0, rq_u] and mq is
    # [l_U, rq_u + d_u], with rq_u = R(span) B_U and d_u = (Pi l)_U, so
    # the diagonal of mq mq^T - rq rq^T is exactly 0 when l = 0
    turn = params.b / params.v_g
    d_u = free_rotate(m.l[s_sl], grid, params, turn)
    cross = free_rotate(m.b, grid, params, m.span + turn)
    cross *= 2.0
    cross += d_u                             # 2 rq_u + d_u
    excess_d = (0.5 * (np.einsum("ij,ij->i", m.l[u_sl], m.l[u_sl])
                       + np.einsum("ij,ij->i", d_u, cross))
                - s_pred * a_vec[u_sl] ** 2 + back * kick_f[u_sl] ** 2)
    # the energy table over (1, u^2, f^2, u f); E_B is <H_U>(t_f) less
    # <H_U> just after the displacement, E_1
    au, bu = a_vec[u_sl], b_vec[u_sl]
    q_1 = 0.5 * (hw2 @ (d_unit[u_sl] ** 2))
    energies = np.array([
        [0.5 * (hw @ (cov_diag[:n] + cov_diag[n:2 * n] - 1.0)),    # E_A
         0.5 * (hw2 @ (gain[s_sl] ** 2)), 0.0, 0.0],
        [0.0, 0.0, q_1, 0.0],                                       # E_1
        [0.5 * (hw @ (excess_d[:n] + excess_d[n:])),                # E_B
         0.5 * (hw2 @ (au * au)), 0.5 * (hw2 @ (bu * bu)) - q_1,
         hw2 @ (au * bu)]])
    for a in (a_vec, b_vec, kick_f, energies):
        a.flags.writeable = False
    return ProtocolSetup(
        window=m, s_pred=s_pred, back=back, a_vec=a_vec, b_vec=b_vec,
        kick_f=kick_f, energies=energies)
