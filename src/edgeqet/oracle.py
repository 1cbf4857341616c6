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

import math
from dataclasses import dataclass

import numpy as np

from . import params as P
from .detector import delta_v, detector_from_params, sense_window
from .energetics import _gauss_legendre, feedback_window

TWO_PI = 2.0 * math.pi

#: Gauss-Legendre nodes of the coupling region [0, b] in each coupling
#: coordinate (``_coupling_nodes``).
N_QUAD = 96

#: Floats of density rows per block of points in ``local_energy_density``
#: (64 points at 256 modes, 16 at 1024).
PROFILE_BLOCK = 2 ** 15


class DegenerateObservable(RuntimeError):
    """Measured observable has (numerically) no variance."""


class StepInstability(RuntimeError):
    """The propagation failed one of its numerical checks."""


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


def _omega_times(a: np.ndarray) -> np.ndarray:
    """Omega @ a by row moves, Omega the symplectic form of R with
    [R_i, R_j] = i Omega_ij: x rows take +p, p rows -x.

    ``a`` is a vector or a matrix with the 4N rows of R.
    """
    n = a.shape[0] // 4
    out = np.empty_like(a)
    for base in (0, 2 * n):
        out[base:base + n] = a[base + n:base + 2 * n]
        out[base + n:base + 2 * n] = -a[base:base + n]
    return out


# Field profiles -------------------------------------------------------

def density_basis(grid: ModeGrid, nu: float, x, chirality: str) -> np.ndarray:
    """Rows of u with rho(x) = u(x) . [x_n, p_n] for one channel.

    Left-movers carry e^{-ikx} on the annihilation side, right-movers
    e^{+iky}; in quadratures that is a sign on the sine row.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = grid.n_modes
    c = math.sqrt(2.0) * grid.amplitudes(nu)
    phase = np.outer(x, grid.k)
    # filled in place: the rows are the largest array a profile builds
    u = np.empty((x.size, 2 * n))
    np.cos(phase, out=u[:, :n])
    u[:, :n] *= c
    np.sin(phase, out=u[:, n:])
    u[:, n:] *= {"left": 1.0, "right": -1.0}[chirality] * c
    return u


def local_energy_density(x_grid, grid: ModeGrid,
                         params: P.ExperimentParams, cols: np.ndarray,
                         weights, channel: str = "S") -> np.ndarray:
    """Normal-ordered <eps(x)> = (pi hbar v_g / nu) <:rho(x)^2:>, J/m.

    The channel's normal-ordered second moment <R R^T> - I/2 over its 2N
    quadratures, mean included, is given factored as
    cols diag(weights) cols^T (``cols`` 2N x k), so
    eps(x) = (pi hbar v_g / nu) sum_j w_j (u(x) . c_j)^2 costs the
    density rows u at ``x_grid`` and their product with ``cols``.
    ``weights`` k x m (instead of length k) gives m densities, one per
    column, from that one product.  The points are taken in blocks of
    about PROFILE_BLOCK floats of rows, each block's result written into
    the output, so the memory beyond the output and ``cols`` is one
    block's rows and product whatever the number of points.
    """
    nu = params.nu_S if channel == "S" else params.nu_U
    chirality = {"S": "left", "U": "right"}[channel]
    x = np.asarray(x_grid, dtype=float).ravel()
    scale = math.pi * P.HBAR * params.v_g / nu
    out = np.empty(x.shape + np.shape(weights)[1:])
    step = max(1, PROFILE_BLOCK // (2 * grid.n_modes))
    for start in range(0, x.size, step):
        block = slice(start, start + step)
        v = density_basis(grid, nu, x[block], chirality) @ cols
        v *= v
        np.multiply(v @ weights, scale, out=out[block])
    return out


# Hamiltonians ---------------------------------------------------------

def build_hamiltonians(params: P.ExperimentParams, grid: ModeGrid):
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
    u_s, u_u, kernel = _coupling_nodes(params, grid)
    k_block = u_s.T @ kernel @ u_u
    g_int = np.zeros((dim, dim))
    g_int[:2 * n, 2 * n:] = k_block
    g_int[2 * n:, :2 * n] = k_block.T
    return g_s, g_u, g_int


def _coupling_nodes(params: P.ExperimentParams, grid: ModeGrid):
    """(u_s, u_u, kernel) with the coupling block K = u_s^T kernel u_u.

    Gauss-Legendre (N_QUAD nodes) on [0, b] for both coupling
    coordinates: the rows of u_s, u_u are the weighted density vectors
    at the nodes, and kernel is the Coulomb kernel between nodes,
    joules.  The window propagator relies on the mirror symmetry this
    gives, K^T = R(b/v) K R(b/v) with R the free flight: the nodes are
    symmetric about b/2, the kernel depends on |x - y| only and nu_S,
    nu_U enter as a constant factor (``propagator._mirror_residual``
    checks it).
    """
    xq, wq = _gauss_legendre(N_QUAD, 0.0, params.b)
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


def evolve(state: GaussianState, hamiltonian: np.ndarray,
           t: float) -> GaussianState:
    """Evolve under a constant quadratic Hamiltonian for time t.

    The propagator expm(t/hbar * Omega G) is exact for constant G; no
    time-stepping error enters.  It is a dense 4N x 4N matrix, which
    ``run_protocol`` never forms; the tests check the uncertainty
    relation on its results through their dense reference.
    """
    prop = expm((t / P.HBAR) * _omega_times(hamiltonian))
    out = GaussianState(prop @ state.mean, prop @ state.cov @ prop.T)
    out.cov = 0.5 * (out.cov + out.cov.T)
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
    mirror_residual: float             # S <-> U mirror residual of K
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
                 ramp_fraction: float = 0.05, profile_times=None,
                 n_profile: int = 1024) -> ProtocolResult:
    """Run the full measurement-feedback protocol shot by shot.

    Per shot: vacuum, Gaussian measurement of the sense signal at t=0,
    free flight to T, feedback displacement (mode ``correlated`` uses
    the shot's own outcome, ``scrambled`` a seeded permutation of the
    outcomes across shots, ``off`` zero), then evolution through the
    interaction window [t_i, t_f].  There the coupling rises in
    ``propagator.N_RAMP`` equal steps over the first ``ramp_fraction``
    of the window, holds, and falls through the same steps in reverse;
    ``ramp_fraction`` 0 switches it suddenly.

    The propagation is exact up to ``propagator.SVD_CUT``: the window
    propagator M (``propagator.window_propagator``) acts on the
    subspace Q the coupling reads and moves every other direction by
    free flight R, a per-mode rotation (``free_rotate``).  No 2N x 2N or
    4N x 4N array is formed: the covariance at t_f is
    (I - (RQ)(RQ)^T + (MQ)(MQ)^T)/2 plus two rank-1 measurement terms,
    E_B reads its U diagonal and the profile its S block as weighted
    columns (``local_energy_density``).

    The run has two stages.  The setup stage
    (``propagator.protocol_setup``) depends only on (params, grid,
    coupling_scale, ramp_fraction) and is memoised by them, four
    entries; it holds M, the measurement's predictive variance and
    back-action weight, the three vectors carried to t_f, the energy
    table and, for the last request of profile points, the profile
    table.  S moves rigidly at v_g after t_f, so the snapshot at t is
    the t_f profile at x + v_g (t - t_f), and one request holds every
    snapshot's points.  The shot stage draws the outcomes u from
    ``seed`` and forms the feedback values f: u when correlated, a copy
    of u shuffled by the same generator when scrambled, zeros when off.
    Every shot energy is a quadratic form in (u, f), so every mean is a row
    of a table over (1, u^2, f^2, u f) applied to the sample moments
    m = (1, u.u/n, f.f/n, u.f/n), three dot products: E_A, E_1 and
    E_B are ``energies @ m`` and the profile is
    ``profile_terms(points) @ m``.  The per-shot E_B is the E_B row
    applied in place, with the same arithmetic in every mode; besides
    the draws and f, it and one scratch array, which holds its
    deviations from the mean for the standard error, are the
    shot-length arrays formed.  So a repeated call on one setup costs
    little more than its draws.  The cached arrays are read-only and no
    result shares them; ``propagator.protocol_setup.cache_clear()``
    releases the setups with their propagators and profiles.

    E_B_oracle is <H_U>(t_f) - <H_U>(just after displacement), averaged
    over shots; the returned profile is the shot-averaged energy density
    of channel S at the requested times (>= t_f, default exactly t_f).
    Its covariance part (mq mq^T - rq rq^T)/2 is a difference of terms
    of the size of the profile's maximum, so samples below ~1e-14 of
    that maximum are rounding, and so are their signs.
    ``subspace_rank`` is the size of Q, ``symplectic_residual`` how far
    M is from symplectic on it and ``mirror_residual`` how far the
    coupling is from the S <-> U mirror symmetry the build relies on;
    ``wrap_margin_m`` is the ``wrap_margin`` at the last profile time.
    Raises ValueError for an unknown feedback mode, ``n_shots`` < 2
    (the standard error needs two shots), ``n_profile`` < 1, a
    ``ramp_fraction`` outside [0, 0.5], a non-finite
    ``coupling_scale``, a non-finite profile time or one before t_f, or
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
    if not math.isfinite(coupling_scale):
        raise ValueError(
            f"coupling_scale must be finite, got {coupling_scale!r}")
    if grid is None:
        grid = default_grid(params)
    _, t_f = interaction_window(params)
    if profile_times is None:
        profile_times = [t_f]
    profile_times = np.asarray(sorted(float(t) for t in profile_times))
    if not np.all(np.isfinite(profile_times)):
        raise ValueError(f"profile times must be finite, got "
                         f"{profile_times.tolist()!r}")
    if profile_times.size and profile_times[0] < t_f - 1e-15:
        raise ValueError("profile snapshots must be at or after t_f")
    margin = wrap_margin(params, grid, max(profile_times, default=t_f))
    if margin < 0.0:
        raise ValueError(f"the ring wraps around: wrap margin "
                         f"{margin:.3g} m < 0; use a longer ring")

    from .propagator import protocol_setup

    st = protocol_setup(params, grid, coupling_scale, ramp_fraction)

    # shots: every energy is a quadratic form in (outcome, feedback), so
    # each mean is a row of the setup's tables applied to the moments m
    rng = np.random.default_rng(seed)
    upsilon = math.sqrt(st.s_pred) * rng.standard_normal(n_shots)
    if feedback_mode == "scrambled":
        fb = upsilon.copy()
        rng.shuffle(fb)
    else:
        fb = upsilon if feedback_mode == "correlated" else np.zeros(n_shots)
    m = np.array([1.0, upsilon @ upsilon, fb @ fb, upsilon @ fb])
    m[1:] /= n_shots
    e_a, e_1, e_b_mean = map(float, st.energies @ m)
    # per shot, c + u (qaa u + qab f) + (el f) f in place: the result
    # and one scratch array, which then holds the deviations
    c, qaa, el, qab = st.energies[2]
    e_b_samples = np.multiply(upsilon, qaa)
    scratch = np.multiply(fb, qab)
    e_b_samples += scratch
    e_b_samples *= upsilon
    np.multiply(fb, el, out=scratch)
    scratch *= fb
    e_b_samples += scratch
    e_b_samples += c
    dev = np.subtract(e_b_samples, e_b_mean, out=scratch)
    e_b_stderr = math.sqrt(float(dev @ dev) / (n_shots - 1) / n_shots)

    # shot-averaged S-channel energy density at the requested times,
    # every snapshot's points in one request
    half = 0.5 * grid.ring_length
    x_grid = np.linspace(-half, half, n_profile, endpoint=False)
    points = x_grid + params.v_g * (profile_times - t_f)[:, None]
    profiles = (st.profile_terms(points.ravel()) @ m).reshape(points.shape)

    return ProtocolResult(
        E_A_oracle=e_a,
        E_B_oracle=e_b_mean,
        E_1_oracle=e_1,
        E_B_stderr=e_b_stderr,
        outcome_samples=upsilon,
        e_b_samples=e_b_samples,
        energy_density_profile=profiles,
        profile_x=x_grid,
        profile_times=profile_times,
        feedback_mode=feedback_mode,
        t_f=t_f,
        subspace_rank=2 * st.window.b.shape[1],
        symplectic_residual=st.window.symplectic_residual,
        mirror_residual=st.window.mirror_residual,
        wrap_margin_m=margin)
