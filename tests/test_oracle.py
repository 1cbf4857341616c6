"""Gaussian protocol simulator: state algebra, protocol elements, and
the shot-level run driver."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from edgeqet import params as P
from edgeqet import oracle as O
from edgeqet import propagator
from edgeqet.detector import delta_v, detector_from_params, signal_rms
from edgeqet.energetics import compute_EA, compute_E1

from dense_reference import run_protocol_dense, s_energy_density


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
    O.validate_state(vac.cov)
    with pytest.raises(O.StepInstability):  # below vacuum noise
        O.validate_state(0.4 * np.eye(4 * grid.n_modes))
    asym = vac.cov.copy()
    asym[0, 1] = 1e-6
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
    prof = O.local_energy_density(x, grid, params,
                                  vac.mean[:2 * grid.n_modes, None], [1.0])
    assert np.max(np.abs(prof)) < 1e-12 * P.HBAR * params.v_g / params.l ** 2


def test_local_energy_density_factored_form(params, grid):
    """A measured, displaced and freely evolved state, its normal-ordered
    moment factored by eigh: the S profile matches the dense quadratic
    form, and on both channels the ring integral is the channel energy."""
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    _, state = O.measure_gaussian(O.vacuum_state(grid), o, dv,
                                  outcome=2.0 * dv)
    state = O.displace_feedback(state, 2.0 * dv, params, grid)
    g_s, g_u, _ = O.build_hamiltonians(params, grid)
    state = O.evolve(state, g_s + g_u, 2.0 * params.l / params.v_g)
    n_x = 8 * grid.n_modes      # exact ring sums of the 2 k_N harmonics
    x = np.linspace(-0.5 * grid.ring_length, 0.5 * grid.ring_length, n_x,
                    endpoint=False)
    for channel in ("S", "U"):
        sl, _ = O._channel_slice(grid, channel)
        mean = state.mean[sl]
        moment = (state.cov[sl, sl] - 0.5 * np.eye(2 * grid.n_modes)
                  + np.outer(mean, mean))
        weights, cols = np.linalg.eigh(moment)
        prof = O.local_energy_density(x, grid, params, cols, weights,
                                      channel=channel)
        if channel == "S":
            want = s_energy_density(state.cov, np.outer(mean, mean), x,
                                    grid, params)
            assert np.max(np.abs(prof - want)) <= 1e-12 * np.max(
                np.abs(want))
        energy = O.channel_energy(state, grid, params, channel)
        assert np.sum(prof) * grid.ring_length / n_x == pytest.approx(
            energy, rel=1e-12)


def test_observable_variance_matches_signal_rms(params, grid):
    o = O.measurement_observable(params, grid)
    vac = O.vacuum_state(grid)
    var = float(o @ vac.cov @ o)
    assert math.sqrt(var) == pytest.approx(signal_rms(params), rel=0.02)


def test_measurement_conditioning(params, grid):
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    vac = O.vacuum_state(grid)
    # forced zero outcome on the vacuum leaves the mean untouched
    outcome, post = O.measure_gaussian(vac, o, dv, outcome=0.0)
    assert outcome == 0.0
    assert np.all(post.mean == 0.0)
    O.validate_state(post.cov)
    # infinitely weak pointer: no conditioning, no back-action
    _, weak = O.measure_gaussian(vac, o, math.inf, outcome=0.0)
    assert np.max(np.abs(weak.cov - vac.cov)) < 1e-12 * np.max(vac.cov)
    # sampled outcomes follow the predictive law
    rng = np.random.default_rng(1)
    samples = [O.measure_gaussian(vac, o, dv, rng=rng)[0]
               for _ in range(4000)]
    # pointer noise plus signal
    assert np.std(samples) == pytest.approx(
        math.hypot(dv, signal_rms(params)), rel=0.05)
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
    # outcome variance: pointer noise plus signal
    dv = delta_v(detector_from_params(params))
    oracle_e1 = q_1 * math.hypot(dv, signal_rms(params)) ** 2
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
    # written into its own input, it gives the same bits
    block = np.random.default_rng(1).standard_normal((4 * grid.n_modes, 3))
    want = O.free_rotate(block, grid, params, t_f)
    assert O.free_rotate(block, grid, params, t_f, out=block) is block
    assert np.array_equal(block, want)


def test_packet_moves_chirally_at_vg(params, grid):
    """A feedback packet on U runs toward +x at v_g; the measured lump
    on S toward -x."""
    state = O.displace_feedback(O.vacuum_state(grid), 5e-5, params, grid)
    x = np.linspace(-0.5 * grid.ring_length, 0.5 * grid.ring_length, 4096,
                    endpoint=False)
    dt = 3 * params.l / params.v_g

    def centroid(s, channel):
        # the covariance stays I/2: the mean alone carries the packet
        sl, _ = O._channel_slice(grid, channel)
        prof = O.local_energy_density(x, grid, params, s.mean[sl, None],
                                      [1.0], channel=channel)
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
    seen, dense = _count_actions(monkeypatch), []
    monkeypatch.setattr(O, "expm", lambda a: dense.append(a))
    propagator.window_propagator.cache_clear()
    O.run_protocol(params, O.default_grid(params, n_modes=16), n_shots=2,
                   ramp_fraction=ramp_fraction, n_ramp=n_ramp, n_profile=16)
    assert len(seen) == calls
    assert dense == []


def _count_actions(monkeypatch):
    """List that gets one entry per propagator.expm_action call."""
    seen = []
    action = propagator.expm_action
    monkeypatch.setattr(propagator, "expm_action",
                        lambda *a: seen.append(a) or action(*a))
    return seen


def test_run_protocol_reuses_window_propagator(params, monkeypatch):
    """A second call on one setup, with another feedback mode and seed,
    builds neither the window propagator nor the profile rows, draws
    the covariance part of its profile from the propagator's memo and
    returns what a cold call returns; a change to any input of the
    propagator builds a fresh one."""
    actions = _count_actions(monkeypatch)
    rows = []
    basis = O.density_basis
    monkeypatch.setattr(O, "density_basis",
                        lambda *a: rows.append(a) or basis(*a))
    # columns of every local_energy_density call, from run_protocol and
    # from the propagator's covariance_profile
    cols = []
    density = O.local_energy_density
    for module in (O, propagator):
        monkeypatch.setattr(module, "local_energy_density",
                            lambda x, g, p, c, w: cols.append(c.shape[1])
                            or density(x, g, p, c, w))
    grid = O.default_grid(params, n_modes=64)
    setup = dict(coupling_scale=0.3, ramp_fraction=0.05, n_ramp=3,
                 n_profile=64)

    def run(p=params, g=grid, mode="correlated", seed=1, **changes):
        return O.run_protocol(p, g, feedback_mode=mode, n_shots=50,
                              seed=seed, **{**setup, **changes})

    def cold(*args, **kwargs):
        propagator.window_propagator.cache_clear()
        O._density_rows.cache_clear()
        return run(*args, **kwargs)

    def assert_same(a, b):
        assert np.array_equal(a.e_b_samples, b.e_b_samples)
        assert np.array_equal(a.energy_density_profile,
                              b.energy_density_profile)
        assert a.symplectic_residual == b.symplectic_residual

    want = cold(mode="scrambled", seed=2)
    # a cold call fills the memo from mq and the S half of rq (r + r/2
    # columns), then adds the four shot columns
    r = want.subspace_rank
    assert cols == [r + r // 2, 4]
    cold()
    before = len(actions), len(rows)
    cols.clear()
    assert_same(run(mode="scrambled", seed=2), want)
    assert (len(actions), len(rows)) == before
    assert cols == [4]

    # another n_profile or snapshot time fills one more memo entry on
    # the same propagator and matches a cold call
    _, t_f = O.interaction_window(params)
    for changes in (dict(n_profile=96),
                    dict(profile_times=[t_f + 2 * params.l / params.v_g])):
        run()
        m = propagator.window_propagator(params, grid, 0.3, 0.05, 3)
        entries = len(m._profiles)
        cols.clear()
        warm = run(**changes)
        assert len(m._profiles) == entries + 1
        assert cols == [r + r // 2, 4]
        assert_same(warm, cold(**changes))
    # the memo keeps the last _PROFILE_ENTRIES snapshots
    many = [t_f + k * 0.1 * params.l / params.v_g for k in range(10)]
    run(profile_times=many)
    m = propagator.window_propagator(params, grid, 0.3, 0.05, 3)
    assert len(m._profiles) == propagator._PROFILE_ENTRIES < len(many)

    # an equal parameter set built separately finds the same entry
    twin = P.ExperimentParams(**params.as_dict())
    assert twin is not params and twin == params
    n = len(actions)
    run(p=twin, mode="off", seed=3)
    assert len(actions) == n
    assert propagator.window_propagator.cache_info().currsize == 1

    # 128 modes with the same parameters: another subspace, rank 152
    # against 90 at 64 modes
    grid128 = O.default_grid(params, n_modes=128)
    for changes in (dict(coupling_scale=0.31), dict(ramp_fraction=0.1),
                    dict(g=grid128), dict(p=params.replace(d=1.2e-5))):
        base = cold()
        n = len(actions)
        warm = run(**changes)
        assert len(actions) > n, changes
        assert_same(warm, cold(**changes))
        if "g" in changes:
            assert warm.subspace_rank > base.subspace_rank

    # one setup has one cache key: every argument is positional-only
    with pytest.raises(TypeError):
        propagator.window_propagator(params, grid, coupling_scale=0.3,
                                     ramp_fraction=0.05, n_ramp=3)
    with pytest.raises(TypeError):
        propagator.window_propagator(params, grid)

    # cached arrays are shared, so they are read-only
    run()
    m = propagator.window_propagator(params, grid, 0.3, 0.05, 3)
    u = O._density_rows(grid, params.nu_S, "left", want.profile_x.tobytes())
    memo = list(m._profiles.values())
    assert len(memo) == 1
    for a in (m.q, m.mq, m.u_excess, u, *memo):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # and cache_clear releases the memo with its propagator
    released = weakref.ref(memo[0])
    del m, memo, a
    propagator.window_propagator.cache_clear()
    gc.collect()
    assert released() is None


def test_window_propagator_build_memory(params):
    """A cold build at 128 modes with the 5% ramp peaks (traced) at a
    small multiple of what it returns, q and mq: it holds only what the
    rest of the ramp schedule still needs."""
    grid = O.default_grid(params, n_modes=128)
    propagator.window_propagator.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m = propagator.window_propagator(params, grid, 1.0, 0.05, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * (m.q.nbytes + m.mq.nbytes)


@pytest.mark.parametrize("n_modes", [64, 128])
def test_covariance_profile_drops_only_zero_columns(params, n_modes):
    """The U half of q has no S rows, so the S rows of rq in those
    columns, which covariance_profile leaves out, are exactly zero; no
    column it keeps is."""
    grid = O.default_grid(params, n_modes=n_modes)
    m = propagator.window_propagator(params, grid, 1.0, 0.0, 5)
    s_rows, half = slice(0, 2 * n_modes), m.q.shape[1] // 2
    rq_s = m.rq[s_rows]
    assert np.all(rq_s[:, half:] == 0.0)
    assert np.all(np.any(rq_s[:, :half] != 0.0, axis=0))
    assert np.all(np.any(m.mq[s_rows] != 0.0, axis=0))


def test_step_basis_is_complete(params):
    """Density vectors at held-out points of both intervals lie in the
    span of the step basis, built from its S block, to within the cut
    (times the sample count's growth of the largest singular value)."""
    grid = O.default_grid(params, n_modes=128)
    tau = 0.3 * params.l / params.v_g
    b = propagator._step_basis(grid, params, tau)
    q = propagator._dense(b, grid, params)
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


def _assert_window_invariants(params, monkeypatch, n_modes, ramp_fraction,
                              residual):
    """M is symplectic on its subspace, every step propagator the build
    makes conserves the energy of its own Hamiltonian, and with a
    constant coupling so does M."""
    steps = []
    build = propagator._step_propagators
    monkeypatch.setattr(propagator, "_step_propagators",
                        lambda *a: steps.append((a[3], build(*a)))
                        or steps[-1][1])
    grid = O.default_grid(params, n_modes=n_modes)
    propagator.window_propagator.cache_clear()
    m = propagator.window_propagator(params, grid, 1.0, ramp_fraction, 5)
    assert m.symplectic_residual <= residual
    # H = (1/2) R^T G R with G = G_S + G_U + scale G_int is conserved:
    # probe E^T G E = G on random directions
    g_s, g_u, g_int = O.build_hamiltonians(params, grid)
    z = np.random.default_rng(0).standard_normal((4 * grid.n_modes, 8))

    def assert_conserved(w, g):
        before = z.T @ g @ z
        assert np.max(np.abs(w.T @ g @ w - before)) <= 1e-12 * np.max(
            np.abs(before))

    if ramp_fraction == 0.0:
        assert_conserved(m @ z, g_s + g_u + g_int)
    # the plateau, and for a ramp its steps, which share a duration
    assert len(steps) == (1 if ramp_fraction == 0.0 else 2)
    for dt, (b, ls) in steps:
        q = propagator._dense(b, grid, params)
        for scale, l in ls.items():
            assert_conserved(O.free_rotate(z, grid, params, dt)
                             + l @ (q.T @ z), g_s + g_u + scale * g_int)


def test_window_propagator_invariants_at_512_modes(params, monkeypatch):
    """Sudden switching at the physical coupling, 512 modes."""
    _assert_window_invariants(params, monkeypatch, 512, 0.0, 1e-12)


def test_window_propagator_invariants_ramped_at_256_modes(params,
                                                          monkeypatch):
    """The 5% ramp at the physical coupling, 256 modes: the ramp steps
    add doublings of their own, and a ramped M conserves no energy (the
    ramp does work), so each step is checked on its own."""
    _assert_window_invariants(params, monkeypatch, 256, 0.05, 1e-13)
