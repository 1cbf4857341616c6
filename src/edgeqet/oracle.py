"""Discretized two-channel chiral boson system as a Gaussian state.

Independent, nonperturbative check on the analytic pipeline: the two
edge channels live on a ring of length ``ring_length`` with ``n_modes``
momentum modes each, the joint state is (mean, covariance) in the
quadrature vector R = [x_S, p_S, x_U, p_U], and every protocol step —
Gaussian pointer measurement, outcome-dependent displacement, quadratic
evolution with a ramped bilinear coupling — is Gaussian-closed, so the
simulation is exact up to discretization and a stated SVD cut
(``propagator.SVD_CUT``): the window propagator is built on the
subspace the coupling touches, whose basis drops directions below that
cut.

Conventions: hbar = 1 units internally would obscure the SI interface,
so quadratures are dimensionless (vacuum covariance I/2) and all
Hamiltonian matrices G are in joules, H = (1/2) R^T G R, with the flow
dR/dt = (1/hbar) Omega G R.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import params as P
from .detector import delta_v, detector_from_params, sense_window
from .energetics import feedback_window

TWO_PI = 2.0 * math.pi


class DegenerateObservable(RuntimeError):
    """Measured observable has (numerically) no variance."""


class StepInstability(RuntimeError):
    """Evolution violated the uncertainty-relation invariant."""


@dataclass(frozen=True)
class ModeGrid:
    """Momentum grid of one ring: k_n = 2 pi n / ring_length, n = 1..N.

    The zero mode is excluded (it carries no energy and no gradient);
    the ring must be long enough that nothing wraps around during the
    simulated protocol.
    """

    ring_length: float
    n_modes: int

    def __post_init__(self):
        if self.ring_length <= 0 or self.n_modes < 1:
            raise ValueError("ring_length > 0 and n_modes >= 1 required")

    @property
    def k(self) -> np.ndarray:
        return TWO_PI * np.arange(1, self.n_modes + 1) / self.ring_length

    def mode_energies(self, v_g: float) -> np.ndarray:
        """hbar v_g k_n, the chiral dispersion."""
        return P.HBAR * v_g * self.k

    def amplitudes(self, nu: float) -> np.ndarray:
        """c_n = sqrt(nu k_n / (2 pi ring_length)): density mode weights."""
        return np.sqrt(nu * self.k / (TWO_PI * self.ring_length))


def default_grid(params: P.ExperimentParams, n_modes: int = 256) -> ModeGrid:
    """Ring 8x the largest protocol length scale: wrap-around negligible."""
    return ModeGrid(ring_length=8.0 * (params.L + 4.0 * params.l),
                    n_modes=n_modes)


@dataclass
class GaussianState:
    """Mean vector and symmetric covariance of R = [x_S, p_S, x_U, p_U]."""

    mean: np.ndarray
    cov: np.ndarray


def vacuum_state(grid: ModeGrid) -> GaussianState:
    n = 4 * grid.n_modes
    return GaussianState(mean=np.zeros(n), cov=0.5 * np.eye(n))


def symplectic_form(n_modes: int) -> np.ndarray:
    """[R_i, R_j] = i Omega_ij for the [x_S, p_S, x_U, p_U] layout."""
    omega = np.zeros((4 * n_modes, 4 * n_modes))
    eye = np.eye(n_modes)
    for base in (0, 2 * n_modes):
        omega[base:base + n_modes, base + n_modes:base + 2 * n_modes] = eye
        omega[base + n_modes:base + 2 * n_modes, base:base + n_modes] = -eye
    return omega


def _omega_times(a: np.ndarray) -> np.ndarray:
    """symplectic_form(n) @ a by row moves: x rows take +p, p rows -x.

    ``a`` is a vector or a matrix with the 4N rows of R.
    """
    n = a.shape[0] // 4
    out = np.empty_like(a)
    for base in (0, 2 * n):
        out[base:base + n] = a[base + n:base + 2 * n]
        out[base + n:base + 2 * n] = -a[base:base + n]
    return out


def validate_state(cov: np.ndarray, tol_sym: float = 1e-12,
                   tol_heis: float = 1e-9) -> None:
    """Symmetry and uncertainty-relation checks on a covariance of R;
    raises on violation."""
    asym = np.max(np.abs(cov - cov.T))
    if asym > tol_sym:
        raise StepInstability(f"covariance asymmetry {asym:.3g} > {tol_sym}")
    m = cov + 0.5j * symplectic_form(cov.shape[0] // 4)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -tol_heis:
        raise StepInstability(
            f"uncertainty relation violated: min eig {min_eig:.3g}")


# Field profiles -------------------------------------------------------

def density_basis(grid: ModeGrid, nu: float, x, chirality: str) -> np.ndarray:
    """Rows of u with rho(x) = u(x) . [x_n, p_n] for one channel.

    Left-movers carry e^{-ikx} on the annihilation side, right-movers
    e^{+iky}; in quadratures that is a sign on the sine row.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = grid.amplitudes(nu)
    phase = np.outer(x, grid.k)
    sign = {"left": 1.0, "right": -1.0}[chirality]
    root2 = math.sqrt(2.0)
    u = np.concatenate([root2 * c * np.cos(phase),
                        sign * root2 * c * np.sin(phase)], axis=1)
    return u


# Every run_protocol call on one grid draws its profile on the same
# points; the rows (n_profile x 2N) cost more than the profile itself.
@functools.lru_cache(maxsize=4)
def _density_rows(grid: ModeGrid, nu: float, chirality: str,
                  x_bytes: bytes) -> np.ndarray:
    """Read-only ``density_basis`` at the float64 points in ``x_bytes``,
    memoised by value."""
    u = density_basis(grid, nu, np.frombuffer(x_bytes), chirality)
    u.flags.writeable = False
    return u


_CHANNELS = {"S": (0, "left"), "U": (2, "right")}


def _channel_slice(grid: ModeGrid, channel: str):
    base, chirality = _CHANNELS[channel]
    n = grid.n_modes
    return slice(base * n, (base + 2) * n), chirality


def channel_energy(state: GaussianState, grid: ModeGrid,
                   params: P.ExperimentParams, channel: str) -> float:
    """Normal-ordered <H> of one channel, joules.

    H = sum_n hbar w_n (x_n^2 + p_n^2 - 1)/2 including the mean part.
    """
    sl, _ = _channel_slice(grid, channel)
    n = grid.n_modes
    hw = grid.mode_energies(params.v_g)
    d = np.diag(state.cov[sl, sl])
    m = state.mean[sl]
    per_mode = (d[:n] + d[n:] - 1.0) + m[:n] ** 2 + m[n:] ** 2
    return 0.5 * float(hw @ per_mode)


def local_energy_density(x_grid, grid: ModeGrid,
                         params: P.ExperimentParams, cols: np.ndarray,
                         weights, channel: str = "S") -> np.ndarray:
    """Normal-ordered <eps(x)> = (pi hbar v_g / nu) <:rho(x)^2:>, J/m.

    The channel's normal-ordered second moment <R R^T> - I/2 over its 2N
    quadratures, mean included, is given factored as
    cols diag(weights) cols^T (``cols`` 2N x k), so
    eps(x) = (pi hbar v_g / nu) sum_j w_j (u(x) . c_j)^2 costs one
    n_x x 2N by 2N x k product.  The density rows u at ``x_grid`` are
    memoised for the last four (grid, nu, x_grid) combinations
    (``_density_rows.cache_clear()`` releases them).
    """
    _, chirality = _CHANNELS[channel]
    nu = params.nu_S if channel == "S" else params.nu_U
    x = np.atleast_1d(np.asarray(x_grid, dtype=float))
    v = _density_rows(grid, nu, chirality, x.tobytes()) @ cols
    v *= v
    return math.pi * P.HBAR * params.v_g / nu * (v @ weights)


# Hamiltonians ---------------------------------------------------------

def build_hamiltonians(params: P.ExperimentParams, grid: ModeGrid,
                       n_quad: int = 96):
    """Quadratic forms (G_S, G_U, G_int), H = (1/2) R^T G R, joules.

    Free parts are diagonal with the chiral mode energies; the coupling
    is the Coulomb bilinear over the coupling region [0, b] on both
    channels, kernel 1/sqrt((x-y)^2 + d^2), prefactor e^2/(4 pi eps).
    """
    n = grid.n_modes
    dim = 4 * n
    hw = grid.mode_energies(params.v_g)
    g_s = np.zeros((dim, dim))
    g_u = np.zeros((dim, dim))
    g_s[:2 * n, :2 * n] = np.diag(np.concatenate([hw, hw]))
    g_u[2 * n:, 2 * n:] = np.diag(np.concatenate([hw, hw]))
    u_s, u_u, kernel = _coupling_nodes(params, grid, n_quad)
    k_block = u_s.T @ kernel @ u_u
    g_int = np.zeros((dim, dim))
    g_int[:2 * n, 2 * n:] = k_block
    g_int[2 * n:, :2 * n] = k_block.T
    return g_s, g_u, g_int


def _coupling_nodes(params: P.ExperimentParams, grid: ModeGrid,
                    n_quad: int = 96):
    """(u_s, u_u, kernel) with the coupling block K = u_s^T kernel u_u.

    Gauss-Legendre on [0, b] for both coupling coordinates: the rows of
    u_s, u_u are the weighted density vectors at the nodes, and kernel
    is the Coulomb kernel between nodes, joules.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    xq = 0.5 * params.b * (nodes + 1.0)
    wq = 0.5 * params.b * weights
    f_kernel = 1.0 / np.sqrt((xq[:, None] - xq[None, :]) ** 2 + params.d ** 2)
    pref = P.E_CHARGE ** 2 / (4.0 * math.pi * params.epsilon)
    u_s = density_basis(grid, params.nu_S, xq, "left") * wq[:, None]
    u_u = density_basis(grid, params.nu_U, xq, "right") * wq[:, None]
    return u_s, u_u, pref * f_kernel


# Protocol elements ----------------------------------------------------

def measurement_observable(params: P.ExperimentParams,
                           grid: ModeGrid) -> np.ndarray:
    """Linear form o with recorded signal O = o . R, volts.

    O = -e v_g R_amp * int rho_S(x) dw_A(x) dx for the Gaussian sense
    window; the window integrals are analytic (Gaussian Fourier
    transform), with the window center at the origin.
    """
    n = grid.n_modes
    k = grid.k
    w = sense_window(params)
    c = grid.amplitudes(params.nu_S)
    drive = P.E_CHARGE * params.v_g * params.R
    ft = w.amplitude * math.sqrt(TWO_PI) * w.sigma * np.exp(
        -0.5 * (w.sigma * k) ** 2)
    root2 = math.sqrt(2.0)
    o = np.zeros(4 * n)
    o[:n] = -drive * root2 * c * k * ft * np.sin(k * w.center)
    o[n:2 * n] = drive * root2 * c * k * ft * np.cos(k * w.center)
    return o


def _conditioning(sigma: np.ndarray, o: np.ndarray, pointer_sd: float):
    """Rank-2 factors (s, kick) of a Gaussian pointer measurement.

    sigma = Cov.o is the observable's covariance column, s = o.Cov.o +
    pointer_sd^2 the predictive variance of the outcome and kick =
    Omega.o the pointer's back-action direction; the posterior
    covariance is Cov - sigma sigma^T / s + kick kick^T / (4 pointer_sd^2).
    """
    var_o = float(o @ sigma)
    if not np.isfinite(var_o) or var_o <= 0.0:
        raise DegenerateObservable(f"observable variance {var_o!r}")
    return var_o + pointer_sd ** 2, _omega_times(o)


def measure_gaussian(state: GaussianState, observable: np.ndarray,
                     pointer_sd: float, rng=None, outcome: float | None = None):
    """One Gaussian pointer measurement of O = observable . R.

    Returns (outcome, posterior).  The outcome follows the exact
    predictive law N(o.m, o.Cov.o + pointer_sd^2); conditioning updates
    mean and covariance, and the pointer momentum kick adds the
    back-action term along Omega.o.
    """
    o = np.asarray(observable, dtype=float)
    sigma_o = state.cov @ o
    s, kick = _conditioning(sigma_o, o, pointer_sd)
    prior_mean = float(o @ state.mean)
    if outcome is None:
        if rng is None:
            raise ValueError("provide either rng or outcome")
        outcome = prior_mean + math.sqrt(s) * rng.standard_normal()
    mean = state.mean + sigma_o * ((outcome - prior_mean) / s)
    cov = state.cov - np.outer(sigma_o, sigma_o) / s
    if np.isfinite(pointer_sd):
        cov = cov + np.outer(kick, kick) / (4.0 * pointer_sd ** 2)
    cov = 0.5 * (cov + cov.T)
    return float(outcome), GaussianState(mean, cov)


def feedback_displacement(params: P.ExperimentParams,
                          grid: ModeGrid) -> np.ndarray:
    """Mean shift per unit outcome: <rho_U(y)> = (1/2 dV) d(lambda_B)/dy.

    Projects the target density profile on the ring mode basis; the
    profile integrals are analytic for the Gaussian feedback window.
    """
    n = grid.n_modes
    k = grid.k
    lam = feedback_window(params)
    dv = delta_v(detector_from_params(params))
    ft = lam.amplitude * math.sqrt(TWO_PI) * lam.sigma * np.exp(
        -0.5 * (lam.sigma * k) ** 2)
    c = grid.amplitudes(params.nu_U)
    scale = math.sqrt(2.0) * k * ft / (2.0 * dv * c * grid.ring_length)
    d = np.zeros(4 * n)
    d[2 * n:3 * n] = scale * np.sin(k * lam.center)
    d[3 * n:] = scale * np.cos(k * lam.center)
    return d


def displace_feedback(state: GaussianState, outcome: float,
                      params: P.ExperimentParams,
                      grid: ModeGrid) -> GaussianState:
    """Outcome-proportional displacement of channel U; covariance untouched."""
    return GaussianState(
        state.mean + outcome * feedback_displacement(params, grid),
        state.cov.copy())


def free_rotate(a: np.ndarray, grid: ModeGrid, params: P.ExperimentParams,
                t: float, out: np.ndarray | None = None) -> np.ndarray:
    """Exact free evolution of the rows of ``a`` over time t.

    Each mode's (x, p) pair turns by the angle v_g k t, the same on both
    channels: the free propagator applied without building it.  ``a``
    is a vector or a matrix with the 4N rows of R, or the 2N rows of
    one channel.  The result goes to ``out``, which may be ``a`` itself
    (then the temporaries are two N-row blocks), or to a new array.
    """
    n = grid.n_modes
    angle = params.v_g * grid.k * t
    shape = (n,) + (1,) * (a.ndim - 1)
    cs, sn = np.cos(angle).reshape(shape), np.sin(angle).reshape(shape)
    if out is None:
        out = np.empty_like(a)
    for base in range(0, a.shape[0], 2 * n):
        x, p = a[base:base + n], a[base + n:base + 2 * n]
        x_new = cs * x
        x_new += sn * p
        p_new = np.multiply(cs, p, out=out[base + n:base + 2 * n])
        p_new -= sn * x
        out[base:base + n] = x_new
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential.  scipy.linalg is imported on the first call,
    so importing the package does not pay for it."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def evolve(state: GaussianState, hamiltonian: np.ndarray, t: float,
           check: bool = False) -> GaussianState:
    """Evolve under a constant quadratic Hamiltonian for time t.

    The propagator expm(t/hbar * Omega G) is exact for constant G; no
    time-stepping error enters.  ``check`` re-validates the uncertainty
    invariant afterwards (O(N^3) eigenvalue cost).
    """
    prop = expm((t / P.HBAR) * _omega_times(hamiltonian))
    out = GaussianState(prop @ state.mean, prop @ state.cov @ prop.T)
    out.cov = 0.5 * (out.cov + out.cov.T)
    if check:
        validate_state(out.cov)
    return out


# Full protocol --------------------------------------------------------

@dataclass
class ProtocolResult:
    """Aggregated output of a protocol run."""

    E_A_oracle: float                  # J
    E_B_oracle: float                  # J
    E_1_oracle: float                  # J
    E_B_stderr: float                  # J
    outcome_samples: np.ndarray        # V
    e_b_samples: np.ndarray            # J, per shot
    energy_density_profile: np.ndarray  # J/m, (n_times, n_x)
    profile_x: np.ndarray              # m
    profile_times: np.ndarray          # s
    feedback_mode: str
    t_f: float                         # s, end of the interaction window
    subspace_rank: int                 # r, columns of the window basis
    symplectic_residual: float         # max |mq^T Omega mq - q^T Omega q|
    wrap_margin_m: float               # m, ring_length/2 - farthest edge


def interaction_window(params: P.ExperimentParams):
    """(t_i, t_f): covers the feedback packet's transit of the region.

    The packet center starts at b/2 - L; the window opens when it is
    4 sigma short of the region (never before the packet exists) and
    closes when it is 4 sigma past.
    """
    lam = feedback_window(params)
    t_i = params.T_delay + max(
        0.0, params.L - 0.5 * params.b - 4.0 * lam.sigma) / params.v_g
    t_f = params.T_delay + (
        params.L + 0.5 * params.b + 4.0 * lam.sigma) / params.v_g
    return t_i, t_f


def wrap_margin(params: P.ExperimentParams, grid: ModeGrid,
                t: float) -> float:
    """ring_length/2 minus the farthest 4 sigma edge at time t, metres.

    The sense-window disturbance on S leaves the origin at t = 0 moving
    left, the feedback packet on U leaves b/2 - L at T moving right, both
    at v_g.  A negative margin means one of them has wrapped around the
    ring.
    """
    w, lam = sense_window(params), feedback_window(params)
    edge_s = abs(w.center - params.v_g * t) + 4.0 * w.sigma
    edge_u = (abs(lam.center + params.v_g * (t - params.T_delay))
              + 4.0 * lam.sigma)
    return 0.5 * grid.ring_length - max(edge_s, edge_u)


def run_protocol(params: P.ExperimentParams, grid: ModeGrid | None = None,
                 feedback_mode: str = "correlated", n_shots: int = 1000,
                 seed: int = 0, coupling_scale: float = 1.0,
                 ramp_fraction: float = 0.05, n_ramp: int = 5,
                 profile_times=None, n_profile: int = 1024,
                 check_invariants: bool = False) -> ProtocolResult:
    """Run the full measurement-feedback protocol shot by shot.

    Per shot: vacuum, Gaussian measurement of the sense signal at t=0,
    free flight to T, feedback displacement (mode ``correlated`` uses
    the shot's own outcome, ``scrambled`` a seeded permutation of the
    outcomes across shots, ``off`` zero), then evolution through the
    interaction window [t_i, t_f].  There the coupling rises in
    ``n_ramp`` equal steps (scales (j + 1/2)/n_ramp) over the first
    ``ramp_fraction`` of the window, holds, and falls through the same
    steps in reverse; ``ramp_fraction`` 0 switches it suddenly.  All
    shot dependence is linear in (outcome, feedback value), so
    propagators and covariances are computed once and shots reduce to
    vector algebra.

    The propagation is exact up to ``propagator.SVD_CUT`` and uses the
    problem's structure:

    * the window propagator is M = R(T)(I - Q Q^T) + (MQ) Q^T
      (``propagator.window_propagator``): Q spans the S and U density
      vectors the coupling reads over the window, free flight R moves
      every other direction, and MQ costs one ``expm_action`` per
      distinct (duration, scale) step and none for a zero-length step;
    * free flight is a per-mode rotation (``free_rotate``) of vectors
      and column blocks, never a dense matrix product;
    * the post-measurement covariance is I/2 minus one and plus one
      rank-1 term (``_conditioning``); rotations leave I/2 alone, so at
      t_f it is M M^T/2 = (I - (RQ)(RQ)^T + (MQ)(MQ)^T)/2 plus two
      rank-1 terms, and it is never assembled: E_B reads the U
      diagonal, O(N r), and the profile reads the factors as weighted
      columns (``local_energy_density``): the covariance part from mq
      and the S half of rq (r + r/2 columns, O(n_profile N r)), the
      shot-averaged mean and the measurement terms from four more.
      No 2N x 2N or 4N x 4N array is formed unless
      ``check_invariants`` is set.

    Only the shot stage and the four mean and measurement columns of
    the profile depend on ``feedback_mode``, ``n_shots`` and ``seed``.
    The window propagator is memoised by (params, grid, coupling_scale,
    ramp_fraction, n_ramp), four entries, and carries what else depends
    on the setup alone: the U-variance excess diag(mq mq^T - rq rq^T)/2
    (2N floats) and the covariance part of the profile, filled on first
    use for each (profile points, snapshot time - t_f), eight entries
    of n_profile floats each (``WindowPropagator.covariance_profile``).
    The profile's density rows are memoised by (grid, nu_S, n_profile),
    four entries.  So a repeated call on one setup makes no
    exponential action and draws n_profile x 2N by 2N x 4 products
    only.  The cached arrays are read-only;
    ``propagator.window_propagator.cache_clear()`` releases the
    propagators with their profiles, and
    ``oracle._density_rows.cache_clear()`` the rows.

    E_B_oracle is <H_U>(t_f) - <H_U>(just after displacement), averaged
    over shots; the returned profile is the shot-averaged energy density
    of channel S at the requested times (>= t_f, default exactly t_f).
    Its covariance part (mq mq^T - rq rq^T)/2 is a difference of terms
    of the size of the profile's maximum, so samples below ~1e-14 of
    that maximum are rounding, and so are their signs.
    ``subspace_rank`` and ``symplectic_residual`` report the size of Q
    and how far M is from symplectic on it; ``wrap_margin_m`` is the
    ``wrap_margin`` at the last profile time.  ``check_invariants``
    validates the full covariance just after the measurement and at t_f
    (O(N^3) each).  Raises ValueError for an unknown feedback mode,
    ``n_shots`` < 2 (the standard error needs two shots), ``n_profile``
    < 1, a ``ramp_fraction`` outside [0, 0.5], ``n_ramp`` < 1 with a
    ramp, a non-finite ``coupling_scale``, a profile time before t_f, or
    a negative wrap margin, before any propagation.
    """
    if feedback_mode not in ("correlated", "scrambled", "off"):
        raise ValueError(f"unknown feedback_mode {feedback_mode!r}")
    if n_shots < 2:
        raise ValueError(f"n_shots must be >= 2, got {n_shots!r}")
    if n_profile < 1:
        raise ValueError(f"n_profile must be >= 1, got {n_profile!r}")
    if not 0.0 <= ramp_fraction <= 0.5:
        raise ValueError(
            f"ramp_fraction must lie in [0, 0.5], got {ramp_fraction!r}")
    if ramp_fraction > 0.0 and n_ramp < 1:
        raise ValueError(f"n_ramp must be >= 1 for a ramped coupling, "
                         f"got {n_ramp!r}")
    if not math.isfinite(coupling_scale):
        raise ValueError(
            f"coupling_scale must be finite, got {coupling_scale!r}")
    if grid is None:
        grid = default_grid(params)
    t_i, t_f = interaction_window(params)
    if profile_times is None:
        profile_times = [t_f]
    profile_times = np.asarray(sorted(float(t) for t in profile_times))
    if profile_times.size and profile_times[0] < t_f - 1e-15:
        raise ValueError("profile snapshots must be at or after t_f")
    margin = wrap_margin(params, grid, max(profile_times, default=t_f))
    if margin < 0.0:
        raise ValueError(f"the ring wraps around: wrap margin "
                         f"{margin:.3g} m < 0; use a longer ring")

    rng = np.random.default_rng(seed)
    n = grid.n_modes
    hw = grid.mode_energies(params.v_g)
    hw2 = np.concatenate([hw, hw])
    u_sl = slice(2 * n, 4 * n)
    s_sl = slice(0, 2 * n)

    # measurement conditioning at t = 0 (vacuum prior, Cov = I/2)
    o = measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    sigma = 0.5 * o
    s_pred, kick = _conditioning(sigma, o, dv)
    back = 1.0 / (4.0 * dv ** 2)             # weight of the back-action term
    gain = sigma / s_pred                    # posterior mean per unit outcome
    if check_invariants:
        validate_state(0.5 * np.eye(4 * n) - np.outer(sigma, sigma) / s_pred
                       + back * np.outer(kick, kick))

    # shot-independent energy pieces
    cov_diag = 0.5 - sigma * sigma / s_pred + back * kick * kick
    # S-channel covariance part of the post-measurement energy
    e_a_const = 0.5 * float(hw @ (cov_diag[:n] + cov_diag[n:2 * n] - 1.0))
    q_a = 0.5 * float(hw2 @ (gain[s_sl] ** 2))  # E_A mean part per outcome^2

    d_unit = feedback_displacement(params, grid)
    q_1 = 0.5 * float(hw2 @ (d_unit[u_sl] ** 2))  # E_1 per feedback^2

    # the measurement response turns freely from t = 0 to t_i, the
    # feedback displacement from T to t_i; M carries both on to t_f
    from .propagator import window_propagator

    m = window_propagator(params, grid, coupling_scale, ramp_fraction,
                          n_ramp)
    a_vec, b_vec, kick_f = (m @ np.stack([
        free_rotate(gain, grid, params, t_i),        # per unit outcome
        free_rotate(d_unit, grid, params, t_i - params.T_delay),
        free_rotate(kick, grid, params, t_i)], axis=1)).T

    # the covariance at t_f is I/2 + (mq mq^T - rq rq^T)/2
    # - s_pred a a^T + back kick kick^T (sigma carried to t_f is
    # s_pred * a_vec)
    if check_invariants:
        rq = m.rq
        cov_t = (0.5 * (np.eye(4 * n) + m.mq @ m.mq.T - rq @ rq.T)
                 - s_pred * np.outer(a_vec, a_vec)
                 + back * np.outer(kick_f, kick_f))
        validate_state(0.5 * (cov_t + cov_t.T))

    # shots
    upsilon = math.sqrt(s_pred) * rng.standard_normal(n_shots)
    if feedback_mode == "correlated":
        fb = upsilon
    elif feedback_mode == "scrambled":
        fb = upsilon[rng.permutation(n_shots)]
    else:
        fb = np.zeros(n_shots)

    e_a_samples = e_a_const + q_a * upsilon ** 2
    # U-channel energy at t_f, mean part quadratic in (outcome, feedback)
    excess_d = (m.u_excess - s_pred * a_vec[u_sl] ** 2
                + back * kick_f[u_sl] ** 2)
    e_u_cov = 0.5 * float(hw @ (excess_d[:n] + excess_d[n:]))
    au, bu = a_vec[u_sl], b_vec[u_sl]
    qaa = 0.5 * float(hw2 @ (au * au))
    qbb = 0.5 * float(hw2 @ (bu * bu))
    qab = float(hw2 @ (au * bu))
    e_b_samples = (e_u_cov + qaa * upsilon ** 2 + qbb * fb ** 2
                   + qab * upsilon * fb) - q_1 * fb ** 2
    e_b_mean = float(np.mean(e_b_samples))
    e_b_stderr = float(np.std(e_b_samples, ddof=1) / math.sqrt(n_shots))

    # shot-averaged S-channel energy density at the requested times
    half = 0.5 * grid.ring_length
    x_grid = np.linspace(-half, half, n_profile, endpoint=False)
    m2_u = float(np.mean(upsilon * upsilon))
    m2_f = float(np.mean(fb * fb))
    m2_x = float(np.mean(upsilon * fb))
    # S block of the shot-averaged <R R^T> - I/2 at t_f: the memoised
    # covariance part (mq mq^T - rq rq^T)/2 plus four weighted columns;
    # the cross term m2_x (a b^T + b a^T) is written as
    # m2_x ((a + b)(a + b)^T - a a^T - b b^T)
    a_s, b_s = a_vec[s_sl], b_vec[s_sl]
    cols = np.column_stack([a_s, b_s, a_s + b_s, kick_f[s_sl]])
    weights = np.array([m2_u - m2_x - s_pred, m2_f - m2_x, m2_x, back])
    profiles = np.empty((profile_times.size, n_profile))
    for i, t_snap in enumerate(profile_times):
        dt = t_snap - t_f
        profiles[i] = m.covariance_profile(x_grid, dt) + local_energy_density(
            x_grid, grid, params, free_rotate(cols, grid, params, dt),
            weights)

    return ProtocolResult(
        E_A_oracle=float(np.mean(e_a_samples)),
        E_B_oracle=e_b_mean,
        E_1_oracle=q_1 * float(np.mean(fb ** 2)),
        E_B_stderr=e_b_stderr,
        outcome_samples=upsilon,
        e_b_samples=e_b_samples,
        energy_density_profile=profiles,
        profile_x=x_grid,
        profile_times=profile_times,
        feedback_mode=feedback_mode,
        t_f=t_f,
        subspace_rank=m.q.shape[1],
        symplectic_residual=m.symplectic_residual,
        wrap_margin_m=margin)
