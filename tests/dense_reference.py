"""Slow, independent reference for the oracle's protocol propagation.

``run_protocol_dense`` runs the measurement-feedback protocol the
direct way: every segment of the ramped coupling schedule gets its own
dense propagator (``segment_propagator``), the segments are multiplied
in time order, free flight is a dense rotation matrix, the
post-measurement covariance is formed as a dense matrix and carried
through every propagator, and the profile is the triple-product
``einsum``.  Production code
(``edgeqet.oracle.run_protocol``) reaches the same numbers on the
subspace the coupling touches, with per-mode rotations and the rank-2
form of the conditioned covariance; the tests compare the two.

It shares the protocol elements (observable, feedback displacement,
Hamiltonians, interaction window) with production code, and draws the
shots from the same random stream, so the two agree shot by shot.
"""

import math

import numpy as np

from edgeqet import params as P
from edgeqet.detector import delta_v, detector_from_params
from edgeqet.oracle import (build_hamiltonians, density_basis,
                            feedback_displacement, interaction_window,
                            measurement_observable, symplectic_form)


def free_propagator(grid, params, t):
    """Exact free evolution as a dense matrix: per-mode phase rotation."""
    n = grid.n_modes
    angle = params.v_g * grid.k * t
    cs, sn = np.cos(angle), np.sin(angle)
    prop = np.zeros((4 * n, 4 * n))
    for base in (0, 2 * n):
        idx = np.arange(n)
        prop[base + idx, base + idx] = cs
        prop[base + idx, base + n + idx] = sn
        prop[base + n + idx, base + idx] = -sn
        prop[base + n + idx, base + n + idx] = cs
    return prop


def segment_propagator(grid, params, g_free, g_int, dt, scale):
    """exp(dt A), A = Omega (G_free + scale G_int) / hbar, as a dense
    matrix R(dt) + F: R is the exact free flight, F the coupling's change.

    F is kept accurate relative to its own size.  A plain ``expm`` of A
    (1-norm up to ~100 at 128 modes) was off by 5e-14 at 8 modes and
    1e-13 at 16 against a 34-digit mpmath propagator, and that error
    moved the off-feedback E_B by up to 4e-9 of its size at 128 modes;
    this form was within 3e-15 at both sizes.  Over h = dt / 2^j
    (1-norm <= 1/2), with a0 and a1 the free and coupling parts of h A
    and a = a0 + a1, F is the series sum_k D_k / k! with
    D_k = a^k - a0^k = a D_(k-1) + a1 a0^(k-1), which has no
    cancellation; j doublings (R(h) + F)^2 = R(2h) + R F + F R + F F
    then reach dt.
    """
    omega = symplectic_form(grid.n_modes)
    a0 = (dt / P.HBAR) * (omega @ g_free)
    a1 = (dt * scale / P.HBAR) * (omega @ g_int)
    j = math.ceil(math.log2(max(2.0 * np.linalg.norm(a0 + a1, 1), 1.0)))
    a0, a1 = a0 / 2 ** j, a1 / 2 ** j
    d, power, f = a1, np.eye(a0.shape[0]), a1
    for k in range(2, 40):
        power = a0 @ power
        d = (a0 + a1) @ d + a1 @ power
        term = d / math.factorial(k)
        f = f + term
        if np.max(np.abs(term)) <= 1e-18 * np.max(np.abs(f)):
            break
    h = dt / 2 ** j
    for _ in range(j):
        rot = free_propagator(grid, params, h)
        f = rot @ f + f @ rot + f @ f
        h = 2.0 * h
    return free_propagator(grid, params, dt) + f


def ramp_segments(t_i, t_f, ramp_fraction, n_ramp):
    """Piecewise-constant coupling schedule [(duration, scale), ...]."""
    span = t_f - t_i
    ramp = ramp_fraction * span
    segments = []
    for j in range(n_ramp):          # up
        segments.append((ramp / n_ramp, (j + 0.5) / n_ramp))
    segments.append((span - 2.0 * ramp, 1.0))
    for j in reversed(range(n_ramp)):  # down
        segments.append((ramp / n_ramp, (j + 0.5) / n_ramp))
    return segments


def s_energy_density(cov, mean_second_moment, x_grid, grid, params):
    """Shot-averaged normal-ordered S-channel energy density, J/m."""
    n = grid.n_modes
    u = density_basis(grid, params.nu_S, x_grid, "left")
    dcov = cov[:2 * n, :2 * n] - 0.5 * np.eye(2 * n)
    quad = np.einsum("xi,ij,xj->x", u, dcov, u)
    mean_part = np.einsum("xi,ij,xj->x", u, mean_second_moment, u)
    return math.pi * P.HBAR * params.v_g / params.nu_S * (quad + mean_part)


def run_protocol_dense(params, grid, feedback_mode="correlated",
                       n_shots=1000, seed=0, coupling_scale=1.0,
                       ramp_fraction=0.05, n_ramp=5, profile_times=None,
                       n_profile=1024):
    """Dict with the fields of ``ProtocolResult`` that carry numbers."""
    rng = np.random.default_rng(seed)
    n = grid.n_modes
    hw = grid.mode_energies(params.v_g)
    hw2 = np.concatenate([hw, hw])
    u_sl = slice(2 * n, 4 * n)
    s_sl = slice(0, 2 * n)

    # measurement conditioning at t = 0 (vacuum prior)
    o = measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    vac_cov = 0.5 * np.eye(4 * n)
    var_o = float(o @ (vac_cov @ o))
    s_pred = var_o + dv ** 2
    gain = (vac_cov @ o) / s_pred
    kick = symplectic_form(n) @ o
    cov_post = (vac_cov - np.outer(vac_cov @ o, vac_cov @ o) / s_pred
                + np.outer(kick, kick) / (4.0 * dv ** 2))
    cov_post = 0.5 * (cov_post + cov_post.T)

    cov_diag = np.diag(cov_post)
    e_a_const = 0.5 * float(hw @ (cov_diag[:n] + cov_diag[n:2 * n] - 1.0))
    q_a = 0.5 * float(hw2 @ (gain[s_sl] ** 2))
    d_unit = feedback_displacement(params, grid)
    q_1 = 0.5 * float(hw2 @ (d_unit[u_sl] ** 2))

    # propagators, one per segment, in time order
    t_i, t_f = interaction_window(params)
    g_s, g_u, g_int = build_hamiltonians(params, grid)
    prop = free_propagator(grid, params, t_i - params.T_delay)
    for dt, scale in ramp_segments(t_i, t_f, ramp_fraction, n_ramp):
        prop = segment_propagator(grid, params, g_s + g_u, g_int, dt,
                                  coupling_scale * scale) @ prop
    free_t = free_propagator(grid, params, params.T_delay)
    a_vec = prop @ (free_t @ gain)
    b_vec = prop @ d_unit
    cov_after = prop @ (free_t @ cov_post @ free_t.T) @ prop.T
    cov_after = 0.5 * (cov_after + cov_after.T)

    # shots
    upsilon = math.sqrt(s_pred) * rng.standard_normal(n_shots)
    if feedback_mode == "correlated":
        fb = upsilon
    elif feedback_mode == "scrambled":
        fb = upsilon[rng.permutation(n_shots)]
    else:
        fb = np.zeros(n_shots)
    e_a_samples = e_a_const + q_a * upsilon ** 2
    cov_d = np.diag(cov_after)
    e_u_cov = 0.5 * float(hw @ (cov_d[2 * n:3 * n] + cov_d[3 * n:] - 1.0))
    au, bu = a_vec[u_sl], b_vec[u_sl]
    qaa = 0.5 * float(hw2 @ (au * au))
    qbb = 0.5 * float(hw2 @ (bu * bu))
    qab = float(hw2 @ (au * bu))
    e_b_samples = (e_u_cov + qaa * upsilon ** 2 + qbb * fb ** 2
                   + qab * upsilon * fb) - q_1 * fb ** 2

    # shot-averaged S-channel profile at the requested times
    if profile_times is None:
        profile_times = [t_f]
    profile_times = np.asarray(sorted(float(t) for t in profile_times))
    half = 0.5 * grid.ring_length
    x_grid = np.linspace(-half, half, n_profile, endpoint=False)
    m2_u = float(np.mean(upsilon * upsilon))
    m2_f = float(np.mean(fb * fb))
    m2_x = float(np.mean(upsilon * fb))
    mm_after = (m2_u * np.outer(a_vec, a_vec) + m2_f * np.outer(b_vec, b_vec)
                + m2_x * (np.outer(a_vec, b_vec) + np.outer(b_vec, a_vec)))
    profiles = np.empty((profile_times.size, n_profile))
    for i, t_snap in enumerate(profile_times):
        rot = free_propagator(grid, params, t_snap - t_f)
        cov_t = rot @ cov_after @ rot.T
        mm_t = rot @ mm_after @ rot.T
        profiles[i] = s_energy_density(0.5 * (cov_t + cov_t.T),
                                       mm_t[s_sl, s_sl], x_grid, grid, params)

    return {"E_A_oracle": float(np.mean(e_a_samples)),
            "E_B_oracle": float(np.mean(e_b_samples)),
            "E_1_oracle": q_1 * float(np.mean(fb ** 2)),
            "outcome_samples": upsilon,
            "e_b_samples": e_b_samples,
            "energy_density_profile": profiles,
            "profile_x": x_grid,
            "profile_times": profile_times,
            "t_f": t_f}
