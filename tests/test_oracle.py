"""Gaussian protocol simulator: state algebra, protocol elements, and
the shot-level run driver."""

import math

import numpy as np
import pytest

from edgeqet import params as P
from edgeqet import oracle as O
from edgeqet import propagator
from edgeqet.detector import (delta_v, detector_from_params,
                              measurement_model, outcome_distribution)
from edgeqet.energetics import compute_EA, compute_E1

from dense_reference import run_protocol_dense


@pytest.fixture(scope="module")
def grid(params):
    return O.default_grid(params, n_modes=64)


@pytest.fixture(scope="module")
def run_small(params, grid):
    return O.run_protocol(params, grid, feedback_mode="correlated",
                          n_shots=600, seed=5, coupling_scale=0.01,
                          ramp_fraction=0.0, n_profile=256)


def test_mode_grid_basics(params):
    grid = O.default_grid(params, n_modes=8)
    assert grid.ring_length == pytest.approx(8 * (params.L + 4 * params.l))
    assert grid.k[0] == pytest.approx(2 * math.pi / grid.ring_length)
    assert np.all(np.diff(grid.k) > 0)
    assert grid.mode_energies(params.v_g) == pytest.approx(
        P.HBAR * params.v_g * grid.k)
    with pytest.raises(ValueError):
        O.ModeGrid(ring_length=-1.0, n_modes=8)
    with pytest.raises(ValueError):
        O.ModeGrid(ring_length=1.0, n_modes=0)


def test_vacuum_state_and_validation(grid):
    vac = O.vacuum_state(grid)
    O.validate_state(vac)
    broken = O.GaussianState(vac.mean.copy(), vac.cov.copy())
    broken.cov = 0.4 * np.eye(4 * grid.n_modes)  # below vacuum noise
    with pytest.raises(O.StepInstability):
        O.validate_state(broken)
    asym = O.GaussianState(vac.mean.copy(), vac.cov.copy())
    asym.cov[0, 1] = 1e-6
    with pytest.raises(O.StepInstability, match="asymmetry"):
        O.validate_state(asym)


def test_symplectic_form_properties(grid):
    omega = O.symplectic_form(grid.n_modes)
    n = 4 * grid.n_modes
    assert np.array_equal(omega @ omega, -np.eye(n))
    assert np.array_equal(omega.T, -omega)
    # the row-move product is the dense one, for vectors and matrices
    a = np.random.default_rng(0).standard_normal((n, 3))
    assert np.array_equal(O._omega_times(a), omega @ a)
    assert np.array_equal(O._omega_times(a[:, 0]), omega @ a[:, 0])


def test_vacuum_energies_are_zero(params, grid):
    vac = O.vacuum_state(grid)
    assert O.channel_energy(vac, grid, params, "S") == 0.0
    assert O.channel_energy(vac, grid, params, "U") == 0.0
    x = np.linspace(-1e-4, 1e-4, 64)
    prof = O.local_energy_density(vac, x, grid, params, channel="S")
    assert np.max(np.abs(prof)) < 1e-12 * P.HBAR * params.v_g / params.l ** 2


def test_observable_variance_matches_signal_rms(params, grid):
    o = O.measurement_observable(params, grid)
    vac = O.vacuum_state(grid)
    var = float(o @ vac.cov @ o)
    model = measurement_model(params)
    assert math.sqrt(var) == pytest.approx(model.signal_rms, rel=0.02)


def test_measurement_conditioning(params, grid):
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    vac = O.vacuum_state(grid)
    # forced zero outcome on the vacuum leaves the mean untouched
    outcome, post = O.measure_gaussian(vac, o, dv, outcome=0.0)
    assert outcome == 0.0
    assert np.all(post.mean == 0.0)
    O.validate_state(post)
    # infinitely weak pointer: no conditioning, no back-action
    _, weak = O.measure_gaussian(vac, o, math.inf, outcome=0.0)
    assert np.max(np.abs(weak.cov - vac.cov)) < 1e-12 * np.max(vac.cov)
    # sampled outcomes follow the predictive law
    rng = np.random.default_rng(1)
    samples = [O.measure_gaussian(vac, o, dv, rng=rng)[0]
               for _ in range(4000)]
    law = outcome_distribution(measurement_model(params))
    assert np.std(samples) == pytest.approx(law.std, rel=0.05)
    with pytest.raises(O.DegenerateObservable):
        O.measure_gaussian(vac, np.zeros(4 * grid.n_modes), dv, outcome=0.0)


def test_feedback_displacement_properties(params, grid):
    vac = O.vacuum_state(grid)
    displaced = O.displace_feedback(vac, 0.0, params, grid)
    assert np.array_equal(displaced.mean, vac.mean)
    displaced = O.displace_feedback(vac, 3e-5, params, grid)
    # covariance exactly preserved: displacements are mean-only
    assert np.max(np.abs(displaced.cov - vac.cov)) == 0.0
    # only channel U moves
    n = grid.n_modes
    assert np.all(displaced.mean[:2 * n] == 0.0)
    assert np.any(displaced.mean[2 * n:] != 0.0)


def test_displacement_energy_matches_E1(params):
    """<H_U> after the feedback displacement, averaged over the exact
    outcome law, reproduces the closed-form packet energy."""
    grid = O.default_grid(params, n_modes=256)
    d_unit = O.feedback_displacement(params, grid)
    hw = grid.mode_energies(params.v_g)
    hw2 = np.concatenate([hw, hw])
    n = grid.n_modes
    q_1 = 0.5 * float(hw2 @ (d_unit[2 * n:] ** 2))
    law = outcome_distribution(measurement_model(params))
    oracle_e1 = q_1 * law.var
    assert oracle_e1 == pytest.approx(compute_E1(params), rel=0.05)


def test_free_evolution_conserves_energy(params, grid):
    # a displaced, measured state under the free Hamiltonian only
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    _, state = O.measure_gaussian(O.vacuum_state(grid), o, dv,
                                  outcome=2.0 * dv)
    state = O.displace_feedback(state, 2.0 * dv, params, grid)
    g_s, g_u, _ = O.build_hamiltonians(params, grid)
    before = (O.channel_energy(state, grid, params, "S")
              + O.channel_energy(state, grid, params, "U"))
    _, t_f = O.interaction_window(params)
    evolved = O.evolve(state, g_s + g_u, t_f, check=True)
    after = (O.channel_energy(evolved, grid, params, "S")
             + O.channel_energy(evolved, grid, params, "U"))
    assert abs(after - before) < 1e-6 * abs(before)
    # and the exact per-mode rotation agrees with the expm route
    assert O.free_rotate(state.mean, grid, params, t_f) == pytest.approx(
        evolved.mean, abs=1e-12)


def test_packet_moves_chirally_at_vg(params, grid):
    """A feedback packet on U runs toward +x at v_g; the measured lump
    on S toward -x."""
    state = O.displace_feedback(O.vacuum_state(grid), 5e-5, params, grid)
    x = np.linspace(-0.5 * grid.ring_length, 0.5 * grid.ring_length, 4096,
                    endpoint=False)
    dt = 3 * params.l / params.v_g

    def centroid(s, channel):
        prof = O.local_energy_density(s, x, grid, params, channel=channel)
        prof = np.clip(prof, 0.0, None)
        sel = np.abs(x - x[np.argmax(prof)]) < 4 * params.l
        return float(np.sum(x[sel] * prof[sel]) / np.sum(prof[sel]))

    c0 = centroid(state, "U")
    moved = O.evolve(state, O.build_hamiltonians(params, grid)[1], dt)
    c1 = centroid(moved, "U")
    v = (c1 - c0) / dt
    assert v == pytest.approx(params.v_g, rel=0.01)


def test_run_protocol_basics(params, grid, run_small):
    r = run_small
    assert r.feedback_mode == "correlated"
    assert r.outcome_samples.shape == (600,)
    assert r.e_b_samples.shape == (600,)
    assert r.energy_density_profile.shape == (1, 256)
    # headline sign: correlated feedback extracts
    assert r.E_B_oracle > 0
    assert r.E_B_oracle / r.E_B_stderr > 5.0
    # measurement cost matches the closed form
    assert r.E_A_oracle == pytest.approx(compute_EA(params), rel=0.05)
    assert r.E_1_oracle == pytest.approx(
        0.01 ** 0 * compute_E1(params), rel=0.05)
    assert r.E_A_oracle > r.E_B_oracle
    # the S disturbance, at v_g t_f left of the origin, is the farther
    assert r.wrap_margin_m == pytest.approx(
        0.5 * grid.ring_length - (params.v_g * r.t_f + 4 * params.l))


def test_run_protocol_controls(params, grid):
    off = O.run_protocol(params, grid, feedback_mode="off", n_shots=300,
                         seed=5, coupling_scale=0.01, ramp_fraction=0.0,
                         n_profile=64)
    assert off.E_1_oracle == 0.0
    assert abs(off.E_B_oracle) < 1e-3 * compute_EA(params)
    scram = O.run_protocol(params, grid, feedback_mode="scrambled",
                           n_shots=300, seed=5, coupling_scale=0.01,
                           ramp_fraction=0.0, n_profile=64)
    assert scram.E_B_oracle <= 2.0 * scram.E_B_stderr
    with pytest.raises(ValueError, match="feedback_mode"):
        O.run_protocol(params, grid, feedback_mode="telepathic")
    with pytest.raises(ValueError, match="after t_f"):
        O.run_protocol(params, grid, n_shots=2, profile_times=[0.0])
    # the ramps must fit in the window, in at least one step
    for ramp_fraction in (-0.1, 0.6, math.nan):
        with pytest.raises(ValueError, match="ramp_fraction"):
            O.run_protocol(params, grid, n_shots=2,
                           ramp_fraction=ramp_fraction)
    with pytest.raises(ValueError, match="n_ramp"):
        O.run_protocol(params, grid, n_shots=2, ramp_fraction=0.05,
                       n_ramp=0)
    # a standard error needs two shots, a profile at least one point
    for n_shots in (0, 1):
        with pytest.raises(ValueError, match="n_shots"):
            O.run_protocol(params, grid, n_shots=n_shots)
    with pytest.raises(ValueError, match="n_profile"):
        O.run_protocol(params, grid, n_shots=2, n_profile=0)
    # a ring too short to hold the sense-window disturbance at t_f
    short = O.ModeGrid(ring_length=4.0 * params.L, n_modes=16)
    with pytest.raises(ValueError, match="wraps"):
        O.run_protocol(params, short, n_shots=2)


def test_run_protocol_deterministic(params, grid):
    kwargs = dict(feedback_mode="correlated", n_shots=100, seed=9,
                  coupling_scale=0.01, n_profile=64)
    a = O.run_protocol(params, grid, **kwargs)
    b = O.run_protocol(params, grid, **kwargs)
    assert np.array_equal(a.outcome_samples, b.outcome_samples)
    assert np.array_equal(a.e_b_samples, b.e_b_samples)
    assert np.array_equal(a.energy_density_profile, b.energy_density_profile)
    assert a.E_B_oracle == b.E_B_oracle


def test_run_protocol_grid_convergence(params):
    values = []
    for n_modes in (64, 128):
        g = O.default_grid(params, n_modes=n_modes)
        r = O.run_protocol(params, g, feedback_mode="correlated",
                           n_shots=400, seed=5, coupling_scale=0.01,
                           ramp_fraction=0.0, n_profile=64)
        values.append((r.E_A_oracle, r.E_B_oracle))
    assert values[1][0] == pytest.approx(values[0][0], rel=0.03)
    assert values[1][1] == pytest.approx(values[0][1], rel=0.03)


def test_profile_integrates_to_channel_energy(params, grid, run_small):
    """Parseval-type check: the shot-averaged S profile integrates to
    the shot-averaged post-measurement S energy."""
    r = run_small
    total = np.trapezoid(r.energy_density_profile[0], r.profile_x)
    # S carries E_A (measurement injection) plus O(g^2) interaction dust
    assert total == pytest.approx(r.E_A_oracle, rel=0.02)


def test_invariants_hold_through_protocol(params, grid):
    # the covariance checks run inside run_protocol when asked
    O.run_protocol(params, grid, feedback_mode="correlated", n_shots=10,
                   seed=0, coupling_scale=0.01, n_profile=32,
                   check_invariants=True)


# (ramp_fraction, n_ramp, feedback_mode): sudden, short and long ramps
# and a ramp with no plateau, across all three feedback modes
DENSE_CASES = [(0.0, 3, "correlated"), (0.05, 3, "scrambled"),
               (0.2, 3, "off"), (0.5, 3, "correlated")]


@pytest.mark.parametrize("n_modes", [64, 128])
@pytest.mark.parametrize("ramp_fraction,n_ramp,feedback_mode", DENSE_CASES)
def test_run_protocol_matches_dense_reference(params, n_modes, ramp_fraction,
                                              n_ramp, feedback_mode):
    """The structured propagation reproduces the dense one: a segment-by-
    segment expm product, dense rotations and a dense covariance."""
    grid = O.default_grid(params, n_modes=n_modes)
    _, t_f = O.interaction_window(params)
    kwargs = dict(feedback_mode=feedback_mode, n_shots=200, seed=11,
                  coupling_scale=1.0, ramp_fraction=ramp_fraction,
                  n_ramp=n_ramp, n_profile=128,
                  profile_times=[t_f, t_f + 3 * params.l / params.v_g])
    fast = O.run_protocol(params, grid, check_invariants=True, **kwargs)
    ref = run_protocol_dense(params, grid, **kwargs)
    assert np.array_equal(fast.outcome_samples, ref["outcome_samples"])
    for name in ("E_A_oracle", "E_1_oracle", "e_b_samples",
                 "energy_density_profile"):
        want = np.asarray(ref[name])
        err = np.max(np.abs(np.asarray(getattr(fast, name)) - want))
        assert err <= 1e-10 * np.max(np.abs(want)), name
    e_b_scale = np.max(np.abs(ref["e_b_samples"]))
    assert abs(fast.E_B_oracle - ref["E_B_oracle"]) <= 1e-10 * e_b_scale


@pytest.mark.parametrize("ramp_fraction,n_ramp,calls",
                         [(0.05, 5, 6), (0.2, 3, 4), (0.0, 5, 1),
                          (0.5, 3, 3)])
def test_run_protocol_one_action_per_distinct_step(params, monkeypatch,
                                                   ramp_fraction, n_ramp,
                                                   calls):
    """Ramp up and down share their steps; zero-length steps need none;
    no dense expm is taken."""
    seen, dense = [], []
    action = propagator.expm_action
    monkeypatch.setattr(propagator, "expm_action",
                        lambda *a: seen.append(a) or action(*a))
    monkeypatch.setattr(O, "expm", lambda a: dense.append(a))
    O.run_protocol(params, O.default_grid(params, n_modes=16), n_shots=2,
                   ramp_fraction=ramp_fraction, n_ramp=n_ramp, n_profile=16)
    assert len(seen) == calls
    assert dense == []


def test_step_basis_is_complete(params):
    """Density vectors at held-out points of both intervals lie in the
    span of the step basis to within the cut (times the sample count's
    growth of the largest singular value)."""
    grid = O.default_grid(params, n_modes=128)
    tau = 0.3 * params.l / params.v_g
    q = propagator._step_basis(grid, params, tau)
    n = grid.n_modes
    rng = np.random.default_rng(4)
    reach = params.b + params.v_g * tau
    x = rng.uniform(0.0, reach, 64)
    y = rng.uniform(-params.v_g * tau, params.b, 64)
    u = np.zeros((4 * n, 128))
    u[:2 * n, :64] = O.density_basis(grid, params.nu_S, x, "left").T
    u[2 * n:, 64:] = O.density_basis(grid, params.nu_U, y, "right").T
    resid = np.linalg.norm(u - q @ (q.T @ u), axis=0)
    assert np.all(resid <= 100 * propagator.SVD_CUT
                  * np.linalg.norm(u, axis=0))
    # and the basis is orthonormal and much smaller than the space
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-13)
    assert q.shape[1] < 2 * n


def test_window_propagator_invariants_at_512_modes(params):
    """Sudden switching at the physical coupling, 512 modes: M is
    symplectic on its subspace and conserves the total energy."""
    grid = O.default_grid(params, n_modes=512)
    m = propagator.window_propagator(params, grid, coupling_scale=1.0,
                            ramp_fraction=0.0)
    assert m.symplectic_residual <= 1e-12
    # H = (1/2) R^T G R with G = G_S + G_U + G_int is conserved: probe
    # M^T G M = G on random directions
    g_s, g_u, g_int = O.build_hamiltonians(params, grid)
    g = g_s + g_u + g_int
    z = np.random.default_rng(0).standard_normal((4 * grid.n_modes, 8))
    w = m @ z
    before = z.T @ g @ z
    assert np.max(np.abs(w.T @ g @ w - before)) <= 1e-12 * np.max(
        np.abs(before))
