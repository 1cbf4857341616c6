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
from edgeqet.energetics import _eb_integral, _leggauss, compute_EA, \
    compute_E1

from dense_reference import (channel_energy, channel_slice,
                             displace_feedback, free_propagator,
                             run_protocol_dense, s_energy_density,
                             symplectic_form, time_reversal, validate_setup,
                             validate_state, window_propagator_dense)


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


@pytest.mark.parametrize("ring_length, n_modes", [
    (math.nan, 16), (math.inf, 16), (1.0, 16.5), (1.0, True)])
def test_mode_grid_rejects_non_finite_length_and_non_integer_modes(
        ring_length, n_modes):
    """A ring of NaN or infinite length and a mode count that is not an
    integer, bool included, are refused when the grid is made, not
    later in a run."""
    with pytest.raises(ValueError, match="ring_length|n_modes"):
        O.ModeGrid(ring_length=ring_length, n_modes=n_modes)


def test_vacuum_state_and_validation(grid):
    vac = O.vacuum_state(grid)
    validate_state(vac.cov)
    with pytest.raises(O.StepInstability):  # below vacuum noise
        validate_state(0.4 * np.eye(4 * grid.n_modes))
    asym = vac.cov.copy()
    asym[0, 1] = 1e-6
    with pytest.raises(O.StepInstability, match="asymmetry"):
        validate_state(asym)


def test_symplectic_form_properties(grid):
    omega = symplectic_form(grid.n_modes)
    n = 4 * grid.n_modes
    assert np.array_equal(omega @ omega, -np.eye(n))
    assert np.array_equal(omega.T, -omega)
    # the row-move product is the dense one, for vectors and matrices
    a = np.random.default_rng(0).standard_normal((n, 3))
    assert np.array_equal(O._omega_times(a), omega @ a)
    assert np.array_equal(O._omega_times(a[:, 0]), omega @ a[:, 0])


def test_vacuum_energies_are_zero(params, grid):
    vac = O.vacuum_state(grid)
    assert channel_energy(vac, grid, params, "S") == 0.0
    assert channel_energy(vac, grid, params, "U") == 0.0
    x = np.linspace(-1e-4, 1e-4, 64)
    prof = O.local_energy_density(x, grid, params,
                                  [vac.mean[:2 * grid.n_modes]],
                                  (np.arange(1), np.arange(1), [1.0]))
    assert np.max(np.abs(prof)) < 1e-12 * P.HBAR * params.v_g / params.l ** 2


def _one_shot_density(x, grid, params, cols, pairs, channel="S"):
    """A channel's density as one product per column block over every
    point (no blocks of points): S from left-moving density rows, U
    from right-moving ones."""
    i, j, w = pairs
    nu, chirality = {"S": (params.nu_S, "left"),
                     "U": (params.nu_U, "right")}[channel]
    u = O.density_basis(grid, nu, x, chirality)
    v = np.column_stack([u @ c for c in cols])
    return math.pi * P.HBAR * params.v_g / nu * ((v[:, i] * v[:, j]) @ w)


def test_local_energy_density_factored_form(params, grid):
    """A measured, displaced and freely evolved state, its normal-ordered
    moment factored by eigh: the S profile matches the dense quadratic
    form, and on both channels the ring integral is the channel energy
    (the U density, right-moving, from the test's own product)."""
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    _, state = O.measure_gaussian(O.vacuum_state(grid), o, dv,
                                  outcome=2.0 * dv)
    state = displace_feedback(state, 2.0 * dv, params, grid)
    g_s, g_u, _ = O.build_hamiltonians(params, grid)
    state = O.evolve(state, g_s + g_u, 2.0 * params.l / params.v_g)
    n_x = 8 * grid.n_modes      # exact ring sums of the 2 k_N harmonics
    x = np.linspace(-0.5 * grid.ring_length, 0.5 * grid.ring_length, n_x,
                    endpoint=False)
    for channel in ("S", "U"):
        sl = channel_slice(grid, channel)
        mean = state.mean[sl]
        moment = (state.cov[sl, sl] - 0.5 * np.eye(2 * grid.n_modes)
                  + np.outer(mean, mean))
        weights, cols = np.linalg.eigh(moment)
        pairs = np.arange(weights.size), np.arange(weights.size), weights
        if channel == "S":
            prof = O.local_energy_density(x, grid, params, [cols], pairs)
            want = s_energy_density(state.cov, np.outer(mean, mean), x,
                                    grid, params)
            assert np.max(np.abs(prof - want)) <= 1e-12 * np.max(
                np.abs(want))
        else:
            prof = _one_shot_density(x, grid, params, [cols], pairs, "U")
        energy = channel_energy(state, grid, params, channel)
        assert np.sum(prof) * grid.ring_length / n_x == pytest.approx(
            energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_x", [1, 256, 257])
def test_blocked_density_matches_one_product(params, grid, n_x):
    """The density taken in blocks of points (256 at 64 modes) equals
    one product over all of them to 1e-15 of its maximum: for 1 point,
    one full block and a block plus one point, with k x m and with
    length-k weights."""
    assert O.PROFILE_BLOCK // (2 * grid.n_modes) == 256
    rng = np.random.default_rng(n_x)
    cols = rng.standard_normal((2 * grid.n_modes, 7))
    x = rng.uniform(-0.5, 0.5, n_x) * grid.ring_length
    for weights in (rng.standard_normal((7, 4)), rng.standard_normal(7)):
        pairs = np.arange(7), np.arange(7), weights
        got = O.local_energy_density(x, grid, params, [cols], pairs)
        want = _one_shot_density(x, grid, params, [cols], pairs)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_blocked_profile_table_over_snapshots(params, grid, monkeypatch):
    """A run with 320 profile points (two blocks at 64 modes) makes one
    request, and its table equals one product over all its points,
    column by column, to 1e-15 of the column's maximum."""
    calls = []
    density = O.local_energy_density
    monkeypatch.setattr(O, "local_energy_density",
                        lambda x, g, p, c, pairs: calls.append(
                            (x, c, pairs, density(x, g, p, c, pairs)))
                        or calls[-1][-1])
    propagator.protocol_setup.cache_clear()
    O.run_protocol(params, grid, n_shots=10, n_profile=320)
    (x, cols, pairs, table), = calls
    assert table.shape == (320, 4)
    want = _one_shot_density(x, grid, params, cols, pairs)
    assert np.all(np.max(np.abs(table - want), axis=0)
                  <= 1e-15 * np.max(np.abs(want), axis=0))


def test_observable_variance_matches_signal_rms(params, grid):
    o = O.measurement_observable(params, grid)
    vac = O.vacuum_state(grid)
    var = float(o @ vac.cov @ o)
    assert math.sqrt(var) == pytest.approx(signal_rms(params), rel=0.02,
                                           abs=0.0)


def test_measurement_conditioning(params, grid):
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    vac = O.vacuum_state(grid)
    # forced zero outcome on the vacuum leaves the mean untouched
    outcome, post = O.measure_gaussian(vac, o, dv, outcome=0.0)
    assert outcome == 0.0
    assert np.all(post.mean == 0.0)
    validate_state(post.cov)
    # infinitely weak pointer: no conditioning, no back-action
    _, weak = O.measure_gaussian(vac, o, math.inf, outcome=0.0)
    assert np.max(np.abs(weak.cov - vac.cov)) < 1e-12 * np.max(vac.cov)
    # sampled outcomes follow the predictive law
    rng = np.random.default_rng(1)
    samples = [O.measure_gaussian(vac, o, dv, rng=rng)[0]
               for _ in range(4000)]
    # pointer noise plus signal
    assert np.std(samples) == pytest.approx(
        math.hypot(dv, signal_rms(params)), rel=0.05, abs=0.0)
    with pytest.raises(O.DegenerateObservable):
        O.measure_gaussian(vac, np.zeros(4 * grid.n_modes), dv, outcome=0.0)


def test_feedback_displacement_properties(params, grid):
    vac = O.vacuum_state(grid)
    displaced = displace_feedback(vac, 0.0, params, grid)
    assert np.array_equal(displaced.mean, vac.mean)
    displaced = displace_feedback(vac, 3e-5, params, grid)
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
    assert oracle_e1 == pytest.approx(compute_E1(params), rel=0.05, abs=0.0)


def test_free_evolution_conserves_energy(params, grid):
    # a displaced, measured state under the free Hamiltonian only
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    _, state = O.measure_gaussian(O.vacuum_state(grid), o, dv,
                                  outcome=2.0 * dv)
    state = displace_feedback(state, 2.0 * dv, params, grid)
    g_s, g_u, _ = O.build_hamiltonians(params, grid)
    before = (channel_energy(state, grid, params, "S")
              + channel_energy(state, grid, params, "U"))
    _, t_f = O.interaction_window(params)
    evolved = O.evolve(state, g_s + g_u, t_f)
    validate_state(evolved.cov)
    after = (channel_energy(evolved, grid, params, "S")
             + channel_energy(evolved, grid, params, "U"))
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
    state = displace_feedback(O.vacuum_state(grid), 5e-5, params, grid)
    x = np.linspace(-0.5 * grid.ring_length, 0.5 * grid.ring_length, 4096,
                    endpoint=False)
    dt = 3 * params.l / params.v_g

    def centroid(s, channel):
        # the covariance stays I/2: the mean alone carries the packet
        sl = channel_slice(grid, channel)
        prof = _one_shot_density(x, grid, params, [s.mean[sl]],
                                 (np.arange(1), np.arange(1), [1.0]), channel)
        prof = np.clip(prof, 0.0, None)
        sel = np.abs(x - x[np.argmax(prof)]) < 4 * params.l
        return float(np.sum(x[sel] * prof[sel]) / np.sum(prof[sel]))

    c0 = centroid(state, "U")
    moved = O.evolve(state, O.build_hamiltonians(params, grid)[1], dt)
    c1 = centroid(moved, "U")
    v = (c1 - c0) / dt
    assert v == pytest.approx(params.v_g, rel=0.01, abs=0.0)


def test_run_protocol_basics(params, grid, run_small):
    r = run_small
    assert r.feedback_mode == "correlated"
    assert r.outcome_samples.shape == (600,)
    assert r.e_b_samples.shape == (600,)
    assert r.energy_density_profile.shape == (256,)
    # headline sign: correlated feedback extracts
    assert r.E_B_oracle > 0
    assert r.E_B_oracle / r.E_B_stderr > 5.0
    # measurement cost matches the closed form
    assert r.E_A_oracle == pytest.approx(compute_EA(params), rel=0.05, abs=0.0)
    assert r.E_1_oracle == pytest.approx(
        0.01 ** 0 * compute_E1(params), rel=0.05, abs=0.0)
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
    # the ramps must fit in the window, in at least one step
    for ramp_fraction in (-0.1, 0.6, math.nan):
        with pytest.raises(ValueError, match="ramp_fraction"):
            O.run_protocol(params, grid, n_shots=2,
                           ramp_fraction=ramp_fraction)
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


@pytest.mark.parametrize("name,bad", [("seed", -1), ("seed", 1.5),
                                      ("seed", "0"), ("n_shots", 10.0),
                                      ("n_profile", 64.5),
                                      ("n_profile", True)])
def test_run_protocol_rejects_bad_counts_and_seeds(params, grid, monkeypatch,
                                                  name, bad):
    """A seed that is not a non-negative integer, and an n_shots or
    n_profile that is not an integer (bool included), are refused
    before the setup stage runs."""
    setups = []
    monkeypatch.setattr(propagator, "protocol_setup",
                        lambda *a: setups.append(a))
    with pytest.raises(ValueError, match=name):
        O.run_protocol(params, grid, **{"n_shots": 2, name: bad})
    assert setups == []


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
    assert values[1][0] == pytest.approx(values[0][0], rel=0.03, abs=0.0)
    assert values[1][1] == pytest.approx(values[0][1], rel=0.03, abs=0.0)


def test_profile_integrates_to_channel_energy(params, grid, run_small):
    """Parseval-type check: the shot-averaged S profile integrates to
    the shot-averaged post-measurement S energy."""
    r = run_small
    total = np.trapezoid(r.energy_density_profile, r.profile_x)
    # S carries E_A (measurement injection) plus O(g^2) interaction dust
    assert total == pytest.approx(r.E_A_oracle, rel=0.02, abs=0.0)


def test_invariants_hold_through_protocol(params, grid):
    """The full covariance of a run's setup, just after the measurement
    and at t_f, obeys the uncertainty relation."""
    O.run_protocol(params, grid, feedback_mode="correlated", n_shots=10,
                   seed=0, coupling_scale=0.01, n_profile=32)
    validate_setup(propagator.protocol_setup(params, grid, 0.01, 0.05))


@pytest.fixture
def ramp_steps(monkeypatch):
    """set_steps(n) makes the coupling ramp in n steps for one test
    (``propagator.N_RAMP``).  ``protocol_setup`` does not key on it, so
    its memo is cleared when the count is set and after the test."""
    def set_steps(n):
        monkeypatch.setattr(propagator, "N_RAMP", n)
        propagator.protocol_setup.cache_clear()
    yield set_steps
    propagator.protocol_setup.cache_clear()


# (ramp_fraction, n_ramp, feedback_mode): sudden, short and long ramps
# and a ramp with no plateau, across all three feedback modes, with a
# ramp step count other than the default
DENSE_CASES = [(0.0, 3, "correlated"), (0.05, 3, "scrambled"),
               (0.2, 3, "off"), (0.5, 3, "correlated")]


@pytest.mark.parametrize("n_modes", [64, 128])
@pytest.mark.parametrize("ramp_fraction,n_ramp,feedback_mode", DENSE_CASES)
def test_run_protocol_matches_dense_reference(params, ramp_steps, n_modes,
                                              ramp_fraction, n_ramp,
                                              feedback_mode):
    """The structured propagation reproduces the dense one: a segment-by-
    segment expm product, dense rotations and a dense covariance; and
    its full covariance obeys the uncertainty relation just after the
    measurement and at t_f."""
    ramp_steps(n_ramp)
    grid = O.default_grid(params, n_modes=n_modes)
    kwargs = dict(feedback_mode=feedback_mode, n_shots=200, seed=11,
                  coupling_scale=1.0, ramp_fraction=ramp_fraction,
                  n_profile=128)
    fast = O.run_protocol(params, grid, **kwargs)
    validate_setup(propagator.protocol_setup(params, grid, 1.0,
                                             ramp_fraction))
    ref = run_protocol_dense(params, grid, n_ramp=n_ramp, **kwargs)
    assert np.array_equal(fast.outcome_samples, ref["outcome_samples"])
    for name in ("E_A_oracle", "E_1_oracle", "e_b_samples",
                 "energy_density_profile"):
        want = np.asarray(ref[name])
        err = np.max(np.abs(np.asarray(getattr(fast, name)) - want))
        assert err <= 1e-10 * np.max(np.abs(want)), name
    e_b_scale = np.max(np.abs(ref["e_b_samples"]))
    assert abs(fast.E_B_oracle - ref["E_B_oracle"]) <= 1e-10 * e_b_scale


@pytest.mark.parametrize("n_modes", [64, 128])
@pytest.mark.parametrize("feedback_mode", ["correlated", "scrambled", "off"])
def test_shot_means_match_per_shot_energies(params, n_modes, feedback_mode):
    """The means that the shot stage forms from second moments equal the
    per-shot energies averaged, and the shot energies are the setup's
    quadratic form in the outcome and the feedback value."""
    grid = O.default_grid(params, n_modes=n_modes)
    n_shots, seed = 3000, 23
    r = O.run_protocol(params, grid, feedback_mode=feedback_mode,
                       n_shots=n_shots, seed=seed, coupling_scale=1.0,
                       ramp_fraction=0.0, n_profile=32)
    st = propagator.protocol_setup(params, grid, 1.0, 0.0)
    # the draws: outcomes first, then the scrambling permutation
    rng = np.random.default_rng(seed)
    u = math.sqrt(st.s_pred) * rng.standard_normal(n_shots)
    assert np.array_equal(r.outcome_samples, u)
    f = {"correlated": u, "scrambled": u[rng.permutation(n_shots)],
         "off": np.zeros(n_shots)}[feedback_mode]
    # each row of the energy table applied to every shot's (1, u^2, f^2, uf)
    e_a, e_1, e_b = st.energies @ np.stack([np.ones(n_shots), u * u, f * f,
                                            u * f])
    scale = np.max(np.abs(e_b))
    assert np.max(np.abs(r.e_b_samples - e_b)) <= 1e-12 * scale
    assert abs(r.E_B_oracle - np.mean(r.e_b_samples)) <= 1e-12 * scale
    assert r.E_A_oracle == pytest.approx(np.mean(e_a), rel=1e-12, abs=0.0)
    if feedback_mode == "off":
        assert r.E_1_oracle == 0.0
    else:
        assert r.E_1_oracle == pytest.approx(np.mean(e_1), rel=1e-12,
                                             abs=0.0)
    assert r.E_B_stderr == pytest.approx(
        np.std(r.e_b_samples, ddof=1) / math.sqrt(n_shots), rel=1e-10,
        abs=0.0)


@pytest.mark.parametrize("feedback_mode", ["correlated", "scrambled", "off"])
def test_sample_E_B_within_five_stderr_of_ensemble_mean(params,
                                                        feedback_mode):
    """The E_B row applied to the ensemble moments is the exact mean: the
    outcome u has variance s = s_pred, so E[u.u/n] = s; f is u when
    correlated, a random permutation of u when scrambled (one fixed
    point on average, so E[u.f/n] = s/n), zero when off.  4000 shots at
    64 modes sample it to within 5 standard errors (|z| <= 0.36 over
    seeds 0-4)."""
    grid = O.default_grid(params, n_modes=64)
    n_shots = 4000
    r = O.run_protocol(params, grid, feedback_mode=feedback_mode,
                       n_shots=n_shots, seed=0, coupling_scale=1.0,
                       ramp_fraction=0.05, n_profile=16)
    st = propagator.protocol_setup(params, grid, 1.0, 0.05)
    s = st.s_pred
    moments = {"correlated": (1.0, s, s, s),
               "scrambled": (1.0, s, s, s / n_shots),
               "off": (1.0, s, 0.0, 0.0)}[feedback_mode]
    exact = st.energies[2] @ moments
    assert abs(r.E_B_oracle - exact) <= 5.0 * r.E_B_stderr


@pytest.mark.parametrize("n_shots", [2, 3, 1000])
def test_scrambled_feedback_is_a_permutation_of_the_outcomes(params, grid,
                                                             n_shots):
    """Scrambled feedback shuffles a copy of the outcomes with the run's
    generator: the per-shot E_B is byte for byte that of the feedback
    values u[rng.permutation(n)], applied in the shot stage's order."""
    st = propagator.protocol_setup(params, grid, 1.0, 0.05)
    c, qaa, el, qab = st.energies[2]
    for seed in (0, 1, 7, 23):
        r = O.run_protocol(params, grid, feedback_mode="scrambled",
                           n_shots=n_shots, seed=seed, n_profile=8)
        rng = np.random.default_rng(seed)
        u = math.sqrt(st.s_pred) * rng.standard_normal(n_shots)
        f = u[rng.permutation(n_shots)]
        want = (u * qaa + f * qab) * u + (f * el) * f + c
        assert r.e_b_samples.tobytes() == want.tobytes()


def test_gain_entry_meets_first_order_closed_form(params):
    """The correlation gain, the E_B row's uf entry times s_pred, is
    first order in the coupling: per unit g at g = 0.01 (sudden, 64
    modes) it equals the closed form, E_B from ``_eb_integral`` at
    eps = 0, to 1e-4 (4.9e-6 measured, from the
    window's 4 sigma edge and the ring's periodic images)."""
    g = 0.01
    st = propagator.protocol_setup(params, O.default_grid(params, 64), g,
                                   0.0)
    closed = _eb_integral(params, 1e-8, 0.0)
    assert st.energies[2, 3] * st.s_pred / g == pytest.approx(
        closed, rel=1e-4, abs=0.0)


@pytest.mark.parametrize("g", [0.3, 1.0])
@pytest.mark.parametrize("ramp_fraction", [0.0, 0.05])
@pytest.mark.parametrize("n_modes", [64, 128])
def test_E_B_row_parity_in_the_coupling(params, n_modes, ramp_fraction, g):
    """The S <-> U sign flip D = diag(I_S, -I_U) gives M(-g) = D M(g) D,
    so the E_B row at -g is the row at +g with its u f entry, the
    correlation gain, negated, to 1e-12 relative entry by entry: the
    gain is odd in g and the rest of the row even."""
    grid = O.default_grid(params, n_modes=n_modes)
    plus, minus = (propagator.protocol_setup(params, grid, scale,
                                             ramp_fraction).energies[2]
                   for scale in (g, -g))
    assert minus == pytest.approx(plus * [1.0, 1.0, 1.0, -1.0], rel=1e-12,
                                  abs=0.0)


def _channel_energy_table(st, channel, pairs=None):
    """The energy reduction of a setup's pair table (or of ``pairs``) on
    one channel's columns at t_f."""
    m = st.window
    if pairs is None:
        pairs = propagator._moment_pairs(m.b.shape[1], st.s_pred, st.back)
    cols = propagator._columns(m, (st.a_vec, st.b_vec, st.kick_f), channel)
    hw2 = np.tile(m.grid.mode_energies(m.params.v_g), 2)
    return propagator._energy(cols, pairs, hw2)


@pytest.mark.parametrize("g", [0.1, 1.0])
@pytest.mark.parametrize("ramp_fraction", [0.0, 0.05])
@pytest.mark.parametrize("n_modes", [64, 128, 256])
def test_vacuum_switching_is_mirror_equal_and_positive(params, n_modes,
                                                       ramp_fraction, g):
    """The vacuum-switching share of the constant column, the covariance
    pairs alone (what M does to the vacuum), is the same on S and on U
    to 1e-12 relative, by the S <-> U mirror, and positive: switching
    the coupling on and off costs work on the product vacuum, which is
    passive."""
    st = propagator.protocol_setup(
        params, O.default_grid(params, n_modes=n_modes), g, ramp_fraction)
    i, j, w = propagator._moment_pairs(st.window.b.shape[1], st.s_pred,
                                       st.back)
    covariance = i[4:], j[4:], w[4:]
    e_s, e_u = (_channel_energy_table(st, channel, covariance)[0]
                for channel in "SU")
    assert e_u == pytest.approx(e_s, rel=1e-12, abs=0.0)
    assert e_s > 0.0


@pytest.mark.parametrize("n_modes", [64, 128])
def test_profile_ring_integral_is_the_S_energy_reduction(params, n_modes):
    """The two reductions of one pair table agree: the ring integral of
    ``profile_terms`` at 8N uniform points, exact for the 2 k_N harmonics
    of the density, equals the energy reduction of the same S columns at
    t_f, column by column over (1, u^2, f^2, u f), to 1e-12 relative."""
    grid = O.default_grid(params, n_modes=n_modes)
    st = propagator.protocol_setup(params, grid, 1.0, 0.05)
    n_x = 8 * n_modes
    x = np.linspace(-0.5, 0.5, n_x, endpoint=False) * grid.ring_length
    ring = st.profile_terms(x).sum(axis=0) * grid.ring_length / n_x
    assert ring == pytest.approx(_channel_energy_table(st, "S"), rel=1e-12,
                                 abs=0.0)


@pytest.mark.parametrize("ramp_fraction,n_ramp,calls",
                         [(0.05, 5, 6), (0.2, 3, 4), (0.0, 5, 1),
                          (0.5, 3, 3)])
def test_run_protocol_one_action_per_distinct_step(params, monkeypatch,
                                                   ramp_steps,
                                                   ramp_fraction, n_ramp,
                                                   calls):
    """Ramp up and down share their steps; zero-length steps need none;
    no dense expm is taken."""
    seen, dense = _count_actions(monkeypatch), []
    monkeypatch.setattr(O, "expm", lambda a: dense.append(a))
    ramp_steps(n_ramp)
    O.run_protocol(params, O.default_grid(params, n_modes=16), n_shots=2,
                   ramp_fraction=ramp_fraction, n_profile=16)
    assert len(seen) == calls
    assert dense == []


def _count_actions(monkeypatch):
    """List that gets one entry per propagator.expm_action call.  Each
    call must act on the S-half columns [B; 0] of a step basis B the
    build made, exactly B's width: the U half comes from the mirror."""
    seen, bases = [], []
    step_basis = propagator._step_basis
    monkeypatch.setattr(propagator, "_step_basis",
                        lambda *a: bases.append(step_basis(*a))
                        or bases[-1])
    action = propagator.expm_action

    def record(apply, b, norm):
        n2 = b.shape[0] // 2
        assert not b[n2:].any()
        assert any(np.array_equal(b[:n2], basis) for basis in bases)
        seen.append((apply, b, norm))
        return action(apply, b, norm)

    monkeypatch.setattr(propagator, "expm_action", record)
    return seen


def test_run_protocol_reuses_window_propagator(params, monkeypatch):
    """A second call on one setup, with another feedback mode and seed,
    builds neither the window propagator nor the profile rows, draws
    its whole profile from the setup's memo and returns what a cold
    call returns; a change to any input of the setup builds a fresh
    one."""
    actions = _count_actions(monkeypatch)
    rows = []
    basis = O.density_basis
    monkeypatch.setattr(O, "density_basis",
                        lambda *a: rows.append(a) or basis(*a))
    # columns of every local_energy_density call, from run_protocol's
    # setup stage
    cols = []
    density = O.local_energy_density
    monkeypatch.setattr(O, "local_energy_density",
                        lambda x, g, p, c, pairs: cols.append(
                            np.column_stack(c).shape[1])
                        or density(x, g, p, c, pairs))
    # the setup-only work a warm call must not repeat
    setup_calls = []

    def count(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: setup_calls.append(name)
                            or fn(*a, **k))

    for module in (O, propagator):
        count(module, "free_rotate")
    count(O, "measurement_observable")
    count(O, "feedback_displacement")
    count(propagator.WindowPropagator, "__matmul__")
    grid = O.default_grid(params, n_modes=64)
    setup = dict(coupling_scale=0.3, ramp_fraction=0.05, n_profile=64)

    def run(p=params, g=grid, mode="correlated", seed=1, **changes):
        return O.run_protocol(p, g, feedback_mode=mode, n_shots=50,
                              seed=seed, **{**setup, **changes})

    def cold(*args, **kwargs):
        propagator.protocol_setup.cache_clear()
        return run(*args, **kwargs)

    def assert_same(a, b):
        assert np.array_equal(a.e_b_samples, b.e_b_samples)
        assert np.array_equal(a.energy_density_profile,
                              b.energy_density_profile)
        assert a.symplectic_residual == b.symplectic_residual

    want = cold(mode="scrambled", seed=2)
    # a cold call fills the memo with one density product: the S columns
    # rq, l and l' (r + r/2 columns) stacked with a, b and kick
    r = want.subspace_rank
    assert cols == [r + r // 2 + 3]
    assert setup_calls
    cold()
    before = len(actions), len(rows)
    cols.clear()
    setup_calls.clear()
    assert_same(run(mode="scrambled", seed=2), want)
    assert (len(actions), len(rows)) == before
    assert cols == []
    assert setup_calls == []

    # another n_profile on the same setup makes one density product,
    # which builds each point's row once (in blocks), replaces the
    # memo's one entry and matches a cold call; repeating it makes no
    # product
    for changes in (dict(n_profile=96), dict(n_profile=640)):
        run()
        st = propagator.protocol_setup(params, grid, 0.3, 0.05)
        before = next(iter(st._profiles))
        cols.clear()
        n_rows = len(rows)
        warm = run(**changes)
        assert len(st._profiles) == 1 and before not in st._profiles
        assert cols == [r + r // 2 + 3]
        assert sum(a[2].size for a in rows[n_rows:]) == (
            warm.energy_density_profile.size)
        assert_same(run(**changes), warm)
        assert cols == [r + r // 2 + 3]
        assert_same(warm, cold(**changes))

    # an equal parameter set built separately finds the same entry
    twin = P.ExperimentParams(**params.as_dict())
    assert twin is not params and twin == params
    n = len(actions)
    run(p=twin, mode="off", seed=3)
    assert len(actions) == n
    assert propagator.protocol_setup.cache_info().currsize == 1

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
        propagator.protocol_setup(params, grid, coupling_scale=0.3,
                                  ramp_fraction=0.05)
    with pytest.raises(TypeError):
        propagator.protocol_setup(params, grid)

    # cached arrays are shared, so they are read-only
    run()
    st = propagator.protocol_setup(params, grid, 0.3, 0.05)
    memo = list(st._profiles.values())
    assert len(memo) == 1 and memo[0].shape == (64, 4)
    for a in (st.window.b, st.window.l, st.a_vec, st.b_vec, st.kick_f,
              st.energies, *memo):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # and cache_clear releases the memo with its setup
    released = weakref.ref(memo[0])
    del st, memo, a
    propagator.protocol_setup.cache_clear()
    gc.collect()
    assert released() is None


def _memoised_arrays(st):
    """Every array a setup holds, its profile memo included."""
    arrays = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
    arrays += [st.window.b, st.window.l]
    return arrays + list(st._profiles.values())


def test_run_protocol_results_never_alias_the_memo(params):
    """Writing into a warm result changes neither the memo nor the next
    warm call, which still equals a cold call; every memoised array is
    read-only."""
    grid = O.default_grid(params, n_modes=32)
    kwargs = dict(feedback_mode="correlated", n_shots=40, seed=4,
                  coupling_scale=0.5, ramp_fraction=0.0, n_profile=48)
    propagator.protocol_setup.cache_clear()
    O.run_protocol(params, grid, **kwargs)
    warm = O.run_protocol(params, grid, **kwargs)
    for a in (warm.e_b_samples, warm.outcome_samples,
              warm.energy_density_profile):
        a[...] = math.nan
    again = O.run_protocol(params, grid, **kwargs)
    st = propagator.protocol_setup(params, grid, 0.5, 0.0)
    arrays = _memoised_arrays(st)
    assert len(arrays) == 7
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    propagator.protocol_setup.cache_clear()
    cold = O.run_protocol(params, grid, **kwargs)
    for name in ("e_b_samples", "outcome_samples", "energy_density_profile"):
        assert np.array_equal(getattr(again, name), getattr(cold, name))
    assert again.E_B_oracle == cold.E_B_oracle


def _dense_basis(b, grid, params):
    """Q = [[b, 0], [0, B_U]], 4N x 2 r_b, from its S block b, with
    B_U = R(b/v) b."""
    n2, r = b.shape
    q = np.zeros((2 * n2, 2 * r))
    q[:n2, :r] = b
    q[n2:, r:] = O.free_rotate(b, grid, params, params.b / params.v_g)
    return q


@pytest.mark.parametrize("ramp_fraction", [0.0, 0.05])
def test_window_propagator_matches_dense_product(params, ramp_fraction):
    """M, held as (b, l) and applied to the identity, is the dense
    segment-by-segment product of the reference's step propagators to
    1e-12 of its largest entry, and symplectic to 1e-13: 64 modes,
    sudden switching and the 5% ramp."""
    grid = O.default_grid(params, n_modes=64)
    m = propagator.window_propagator(params, grid, 1.0, ramp_fraction)
    prop = m @ np.eye(4 * grid.n_modes)
    ref = window_propagator_dense(params, grid, 1.0, ramp_fraction,
                                  propagator.N_RAMP)
    assert np.max(np.abs(prop - ref)) <= 1e-12 * np.max(np.abs(ref))
    omega = symplectic_form(grid.n_modes)
    assert np.max(np.abs(prop.T @ omega @ prop - omega)) <= 1e-13


def _build_peak(params, ramp_fraction):
    """(traced peak of a cold 128-mode build, bytes of the dense Q and
    MQ, two 4N x r arrays, the propagator)."""
    # the first build in a process imports the quadrature rule's module;
    # a 16-mode build pays for that before the traced one
    propagator.window_propagator(params, O.default_grid(params, 16), 1.0,
                                 ramp_fraction)
    grid = O.default_grid(params, n_modes=128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m = propagator.window_propagator(params, grid, 1.0, ramp_fraction)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, 2 * (4 * grid.n_modes) * (2 * m.b.shape[1]) * 8, m


def test_window_propagator_build_memory(params):
    """A cold build at 128 modes with the 5% ramp peaks (traced) at a
    small multiple of the dense Q and MQ: it builds only the first half
    of the window, holds one group of steps at a time and uses each
    step once.  What it returns, b and l, is 3/8 of those."""
    peak, dense, m = _build_peak(params, 0.05)
    assert peak <= 1.4 * dense
    assert 8 * (m.b.nbytes + m.l.nbytes) == 3 * dense


def test_window_propagator_sudden_build_memory(params):
    """A cold sudden build at 128 modes, half the window's plateau and
    no ramp, peaks (traced) at no more than 1.2 times the dense Q and
    MQ."""
    peak, dense, _ = _build_peak(params, 0.0)
    assert peak <= 1.2 * dense


def test_profile_terms_memory_is_one_block(params):
    """At 256 modes a request for 4096 points (64 blocks of 64) peaks,
    traced, at no more than 1.4 times the size of its S columns (1.4 MB;
    1.33 measured), which it never stacks: rq and the turned deviation
    (0.9 MB) are its only 2N-row arrays, where all its density rows at
    once would be 16.8 MB.  It peaks above a 512-point request by no
    more than the larger table."""
    grid = O.default_grid(params, n_modes=256)
    st = propagator.protocol_setup(params, grid, 1.0, 0.05)
    st.profile_terms(np.zeros(1))

    def peak(n_x):
        x = np.linspace(-0.5, 0.5, n_x, endpoint=False) * grid.ring_length
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            st.profile_terms(x)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    cols = 2 * grid.n_modes * (3 * st.window.b.shape[1] + 4) * 8
    big = peak(4096)
    assert big <= 1.4 * cols
    assert big - peak(512) <= (4096 - 512) * 4 * 8 + 2 ** 14


@pytest.mark.parametrize("n_modes", [64, 128])
def test_covariance_profile_drops_only_zero_columns(params, n_modes):
    """The U half of Q has no S rows, so the S rows of RQ in those
    columns, which the profile's covariance part leaves out
    (``ProtocolSetup.profile_terms``), are exactly zero; no column it
    keeps is."""
    grid = O.default_grid(params, n_modes=n_modes)
    m = propagator.window_propagator(params, grid, 1.0, 0.0)
    q = _dense_basis(m.b, grid, params)
    s_rows, half = slice(0, 2 * n_modes), m.b.shape[1]
    rq_s = O.free_rotate(q, grid, params, m.span)[s_rows]
    assert np.all(rq_s[:, half:] == 0.0)
    assert np.all(np.any(rq_s[:, :half] != 0.0, axis=0))
    assert np.all(np.any((m @ q)[s_rows] != 0.0, axis=0))


def test_step_basis_is_complete(params):
    """Density vectors at held-out points of both intervals lie in the
    span of the step basis, built from its S block, to 1e-13 relative
    (~3e-15 measured): the directions SVD_CUT = 1e-14 drops are
    rounding."""
    grid = O.default_grid(params, n_modes=128)
    tau = 0.3 * params.l / params.v_g
    q = _dense_basis(propagator._step_basis(grid, params, tau), grid,
                     params)
    n = grid.n_modes
    rng = np.random.default_rng(4)
    reach = params.b + params.v_g * tau
    x = rng.uniform(0.0, reach, 64)
    y = rng.uniform(-params.v_g * tau, params.b, 64)
    u = np.zeros((4 * n, 128))
    u[:2 * n, :64] = O.density_basis(grid, params.nu_S, x, "left").T
    u[2 * n:, 64:] = O.density_basis(grid, params.nu_U, y, "right").T
    resid = np.linalg.norm(u - q @ (q.T @ u), axis=0)
    assert np.all(resid <= 1e-13 * np.linalg.norm(u, axis=0))
    # and the basis is orthonormal and much smaller than the space
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-13)
    assert q.shape[1] < 2 * n


@pytest.mark.parametrize("n_modes", [64, 256])
def test_step_bases_of_every_level_span_their_interval(params, monkeypatch,
                                                       n_modes):
    """A sudden, a 5% and a 20% build each make the window basis once,
    first, and then the basis of each doubling level of the first half
    of the window from that level's own samples.  Every one is
    orthonormal and holds density vectors at held-out points of its
    interval [0, b + v tau] to 1e-13 relative."""
    grid = O.default_grid(params, n_modes=n_modes)
    made = []
    step_basis = propagator._step_basis
    monkeypatch.setattr(propagator, "_step_basis",
                        lambda g, p, tau: made.append(
                            (tau, step_basis(g, p, tau))) or made[-1][-1])
    t_i, t_f = O.interaction_window(params)
    firsts = []
    for ramp_fraction in (0.0, 0.05, 0.2):
        firsts.append(len(made))
        propagator.window_propagator(params, grid, 1.0, ramp_fraction)
    taus = [tau for tau, _ in made]
    assert [taus[i] for i in firsts] == [t_f - t_i] * 3
    assert taus.count(t_f - t_i) == 3
    levels = {tau: b for tau, b in made if tau != t_f - t_i}
    # the levels of half the plateau (sudden and 5%) and of the ramp
    # steps (5% and 20%), 15 distinct durations at 64 modes
    assert len(levels) >= 15
    assert max(levels) == 0.5 * (t_f - t_i)
    rng = np.random.default_rng(6)
    for tau, b in made:
        assert np.allclose(b.T @ b, np.eye(b.shape[1]), rtol=0.0,
                           atol=1e-13)
        x = rng.uniform(0.0, params.b + params.v_g * tau, 64)
        u = O.density_basis(grid, params.nu_S, x, "left").T
        resid = np.linalg.norm(u - b @ (b.T @ u), axis=0)
        assert np.all(resid <= 1e-13 * np.linalg.norm(u, axis=0))


@pytest.mark.parametrize("n_modes", [16, 64, 256])
def test_split_step_bases_are_exact(params, monkeypatch, n_modes):
    """The window basis, the last doubling level of the half plateau
    (0.45 of the window) and the short step of the 5% ramp, as a build
    makes them from two N-row SVDs: each is orthonormal to 1e-14 and
    holds the density vectors at the points between its Chebyshev
    samples on [0, b + v tau] to 1e-14 relative (9.8e-15 for the window
    at 256 modes)."""
    grid = O.default_grid(params, n_modes=n_modes)
    made = []
    step_basis = propagator._step_basis
    monkeypatch.setattr(propagator, "_step_basis",
                        lambda g, p, tau: made.append(
                            (tau, step_basis(g, p, tau))) or made[-1][-1])
    propagator.window_propagator(params, grid, 1.0, 0.05)
    t_i, t_f = O.interaction_window(params)
    span = t_f - t_i
    # the window's, the ramp's short step (no doublings at these sizes)
    # and the half plateau's last level
    window, ramp, level = made[0], made[1], made[-1]
    assert window[0] == span
    assert ramp[0] == pytest.approx(0.01 * span, rel=1e-12, abs=0.0)
    assert level[0] == pytest.approx(0.45 * span, rel=1e-12, abs=0.0)
    for tau, b in (window, ramp, level):
        assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) <= 1e-14
        length = params.b + params.v_g * tau
        m = propagator._samples(grid, length)
        x = 0.5 * length * (1.0 - np.cos(np.pi * np.arange(1, m) / m))
        u = O.density_basis(grid, params.nu_S, x, "left").T
        resid = np.linalg.norm(u - b @ (b.T @ u), axis=0)
        assert np.all(resid <= 1e-14 * np.linalg.norm(u, axis=0))


@pytest.mark.parametrize("ramp_fraction", [0.0, 0.05])
def test_build_svds_have_at_most_n_rows(params, monkeypatch, ramp_fraction):
    """No SVD a build at 128 modes makes has more than N rows: each step
    basis comes from the cos and the sin rows of its samples apart, and
    the coupling's factors from a 96 x 96 core."""
    grid = O.default_grid(params, n_modes=128)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(a.shape)
                        or svd(a, *args, **kw))
    propagator.window_propagator(params, grid, 1.0, ramp_fraction)
    assert shapes
    assert max(rows for rows, _ in shapes) <= grid.n_modes


def _assert_window_invariants(params, monkeypatch, n_modes, ramp_fraction,
                              residual):
    """M is symplectic on its subspace, every step propagator the build
    makes conserves the energy of its own Hamiltonian, and with a
    constant coupling so does M.  The build makes the steps of the
    first half of the window only: half the plateau and, with a ramp,
    the ramp-up steps.  A step is recorded by its S-half deviation l
    (a copy: the build drops each step once it is applied); the mirror
    gives the rest, [l, Pi l]."""
    steps = []
    build = propagator._step_propagators

    def record(*a):
        ls = {}
        for scale, (b, l) in zip(a[4], build(*a)):
            ls[scale] = l.copy()
            yield b, l
        steps.append((a[3], (b, ls)))

    monkeypatch.setattr(propagator, "_step_propagators", record)
    grid = O.default_grid(params, n_modes=n_modes)
    m = propagator.window_propagator(params, grid, 1.0, ramp_fraction)
    assert m.symplectic_residual <= residual
    t_i, t_f = O.interaction_window(params)
    span, ramp = t_f - t_i, ramp_fraction * (t_f - t_i)
    assert steps[-1][0] == 0.5 * (span - 2.0 * ramp)
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
    # half the plateau, and for a ramp the ramp-up steps, which share a
    # duration
    assert len(steps) == (1 if ramp_fraction == 0.0 else 2)
    for dt, (b, ls) in steps:
        assert ls
        q = _dense_basis(b, grid, params)
        for scale, l in ls.items():
            assert l.shape == (4 * grid.n_modes, b.shape[1])
            l = np.hstack([l, propagator._mirror(l, grid, params)])
            assert_conserved(O.free_rotate(z, grid, params, dt)
                             + l @ (q.T @ z), g_s + g_u + scale * g_int)


@pytest.mark.parametrize("ramp_fraction, depth", [(0.05, 0), (0.5, 1)])
def test_ramp_steps_are_built_one_at_a_time(params, monkeypatch,
                                            ramp_fraction, depth):
    """In a ramped build at 64 modes each step's deviation l is freed
    before the next step's exponential action starts, so the build holds
    one step at a time.  The 5% ramp's steps take no doublings; the 50%
    ramp's take one, and its level's basis is built once for the five
    scales: besides the window basis, each group builds its short
    step's basis and one per doubling."""
    events = []
    action = propagator.expm_action
    monkeypatch.setattr(propagator, "expm_action",
                        lambda *a: events.append("action") or action(*a))
    build = propagator._step_propagators

    def record(*a):
        for step in build(*a):
            weakref.finalize(step[1], events.append, "freed")
            events.append("built")
            yield step
            del step

    monkeypatch.setattr(propagator, "_step_propagators", record)
    depths = []
    doublings = propagator._doublings
    monkeypatch.setattr(propagator, "_doublings",
                        lambda norm: depths.append(doublings(norm))
                        or depths[-1])
    bases = []
    step_basis = propagator._step_basis
    monkeypatch.setattr(propagator, "_step_basis",
                        lambda *a: bases.append(a[2]) or step_basis(*a))
    grid = O.default_grid(params, n_modes=64)
    propagator.window_propagator(params, grid, 1.0, ramp_fraction)
    steps = propagator.N_RAMP + (ramp_fraction < 0.5)   # + half the plateau
    assert events == ["action", "built", "freed"] * steps
    assert depths[0] == depth
    assert len(bases) == 1 + sum(k + 1 for k in depths)


def test_window_propagator_invariants_at_512_modes(params, monkeypatch):
    """Sudden switching at the physical coupling, 512 modes."""
    _assert_window_invariants(params, monkeypatch, 512, 0.0, 1e-12)


def test_window_propagator_invariants_ramped_at_256_modes(params,
                                                          monkeypatch):
    """The 5% ramp at the physical coupling, 256 modes: the ramp steps
    add doublings of their own, and a ramped M conserves no energy (the
    ramp does work), so each step is checked on its own."""
    _assert_window_invariants(params, monkeypatch, 256, 0.05, 1e-13)


def test_coupling_nodes_match_direct_rule(params, grid):
    """The coupling's 96-point rule, shared with E_B, gives the same
    bits as a rule built afresh and mapped onto [0, b]."""
    nodes, weights = _leggauss(96)
    xq = 0.5 * params.b * (nodes + 1.0)
    wq = 0.5 * params.b * weights
    u_s, u_u, kernel = O._coupling_nodes(params, grid)
    assert np.array_equal(
        u_s, O.density_basis(grid, params.nu_S, xq, "left") * wq[:, None])
    assert np.array_equal(
        u_u, O.density_basis(grid, params.nu_U, xq, "right") * wq[:, None])
    assert np.array_equal(
        kernel, P.E_CHARGE ** 2 / (4.0 * math.pi * params.epsilon)
        * (1.0 / np.sqrt((xq[:, None] - xq[None, :]) ** 2 + params.d ** 2)))


@pytest.mark.parametrize("doublings", [None, 0])
def test_sudden_build_makes_window_basis_once(params, monkeypatch,
                                              doublings):
    """With sudden switching the build makes half the plateau, which is
    half the window: the window basis is built once, first, and then
    the short step's and every doubling level's of the half plateau,
    its last (half the window) included.  16 modes take doublings; on 4
    modes one Taylor series covers half the window (norm bound
    1.74 <= theta_30), so the bound itself gives none."""
    grid = O.default_grid(params, n_modes=16 if doublings is None else 4)
    depths = []
    depth = propagator._doublings
    monkeypatch.setattr(propagator, "_doublings",
                        lambda norm: depths.append(depth(norm))
                        or depths[-1])
    t_i, t_f = O.interaction_window(params)
    taus = []
    step_basis = propagator._step_basis
    monkeypatch.setattr(propagator, "_step_basis",
                        lambda g, p, tau: taus.append(tau)
                        or step_basis(g, p, tau))
    propagator.window_propagator(params, grid, 1.0, 0.0)
    assert taus[0] == t_f - t_i
    assert taus.count(t_f - t_i) == 1
    assert taus[-1] == 0.5 * (t_f - t_i)
    assert len(taus) == depths[0] + 2
    assert (depths == [0]) if doublings == 0 else (min(depths) > 0)


@pytest.mark.parametrize("n_modes, depths", [
    (16, [(2,), (0, 1), (0, 1), (0,)]),
    (64, [(4,), (0, 3), (0, 3), (1,)]),
    (256, [(5,), (0, 5), (2, 5), (3,)]),
    (1024, [(7,), (2, 7), (4, 7), (5,)]),
])
def test_step_doublings_follow_taylor_bound(params, monkeypatch, n_modes,
                                            depths):
    """The doublings of each group of steps of the first half of the
    window, in time order (the ramp-up steps, then half the plateau),
    for sudden switching and 5%, 20% and 50% ramps (5 steps): half the
    plateau takes one doubling fewer than the whole took, and each
    count is the fewest after which one Taylor series covers the short
    step, so every exponential action gets a norm bound within
    max(_THETA).  The depths follow from the step durations and the
    norm bounds alone, so one unit column stands in for every step
    basis and keeps the 1024-mode builds cheap."""
    grid = O.default_grid(params, n_modes=n_modes)
    monkeypatch.setattr(propagator, "_step_basis",
                        lambda g, p, tau: np.eye(2 * g.n_modes, 1))
    found = []
    depth = propagator._doublings
    monkeypatch.setattr(propagator, "_doublings",
                        lambda norm: found.append(depth(norm)) or found[-1])
    norms = []
    action = propagator.expm_action
    monkeypatch.setattr(propagator, "expm_action",
                        lambda apply, b, norm: norms.append(norm)
                        or action(apply, b, norm))
    built = []
    for ramp_fraction in (0.0, 0.05, 0.2, 0.5):
        found.clear()
        propagator.window_propagator(params, grid, 1.0, ramp_fraction)
        built.append(tuple(found))
    assert built == depths
    assert 0.0 < max(norms) <= max(propagator._THETA.values())


def test_mirror_is_a_symplectic_involution(params, grid):
    """Pi is its own inverse, orthogonal and symplectic, commutes with
    free flight, and maps the S half [B; 0] of a step basis onto its U
    half [0; B_U]."""
    n4 = 4 * grid.n_modes
    eye = np.eye(n4)
    pi = propagator._mirror(eye, grid, params)
    assert np.allclose(pi @ pi, eye, rtol=0.0, atol=1e-14)
    assert np.allclose(pi.T @ pi, eye, rtol=0.0, atol=1e-14)
    omega = symplectic_form(grid.n_modes)
    assert np.allclose(pi.T @ omega @ pi, omega, rtol=0.0, atol=1e-14)
    z = np.random.default_rng(2).standard_normal((n4, 5))
    t = 0.7 * params.l / params.v_g
    assert np.allclose(
        propagator._mirror(O.free_rotate(z, grid, params, t), grid, params),
        O.free_rotate(propagator._mirror(z, grid, params), grid, params, t),
        rtol=0.0, atol=1e-13)
    b = propagator._step_basis(grid, params, t)
    q = _dense_basis(b, grid, params)
    r = b.shape[1]
    assert np.array_equal(propagator._mirror(q[:, :r], grid, params),
                          q[:, r:])


@pytest.mark.parametrize("n_modes", [64, 256])
@pytest.mark.parametrize("changes", [{}, {"nu_U": 0.5}, {"d": 1.2e-5}])
def test_mirror_commutes_with_coupled_generator(params, n_modes, changes):
    """Pi A x = A Pi x for A = Omega G / hbar, G = G_S + G_U + G_int from
    the dense Hamiltonians, and for the coupling part alone, to 1e-12 of
    |A x|; the build's factor check reads the same, and so does its
    time-reversal check."""
    p = params.replace(**changes)
    grid = O.default_grid(p, n_modes=n_modes)
    g_s, g_u, g_int = O.build_hamiltonians(p, grid)
    x = np.random.default_rng(3).standard_normal((4 * n_modes, 6))

    def mirror(a):
        return propagator._mirror(a, grid, p)

    for g in (g_s + g_u + g_int, g_int):
        ax = O._omega_times(g @ x) / P.HBAR
        pax = O._omega_times(g @ mirror(x)) / P.HBAR
        assert np.max(np.abs(mirror(ax) - pax)) <= 1e-12 * np.max(
            np.abs(ax))
    *_, mirror_residual, reversal_residual = propagator._coupling(p, grid)
    assert mirror_residual <= 1e-13
    assert reversal_residual <= 1e-13


def test_free_window_gives_rotated_basis_bit_for_bit(params, grid):
    """With no coupling M is free flight, sudden or ramped: its coupled
    deviation l is exactly zero, because the ramp steps make one
    rotation, and the U channel gains exactly no energy."""
    for ramp_fraction in (0.0, 0.05):
        st = propagator.protocol_setup(params, grid, 0.0, ramp_fraction)
        assert not st.window.l.any()
        assert st.window.mirror_residual <= 1e-13
        assert st.window.reversal_residual <= 1e-13
        assert st.energies[2, 0] == 0.0


def test_broken_mirror_is_refused(params, grid, monkeypatch):
    """A coupling the S <-> U mirror does not map onto itself (here a
    kernel weighted towards x = 0) raises StepInstability before any
    step is built."""
    nodes = O._coupling_nodes

    def skewed(p, g, *args):
        u_s, u_u, kernel = nodes(p, g, *args)
        return u_s, u_u, kernel * np.linspace(1.0, 2.0, len(kernel))
    monkeypatch.setattr(propagator, "_coupling_nodes", skewed)
    monkeypatch.setattr(propagator, "_step_propagators",
                        lambda *a: pytest.fail("step built"))
    with pytest.raises(O.StepInstability, match="mirror"):
        propagator.window_propagator(params, grid, 1.0, 0.05)


def test_time_reversal_is_an_antisymplectic_involution(params, grid):
    """Theta, built per mode from its definition (``time_reversal``), is
    what ``_reverse`` applies one channel at a time (T R(b/v) on S,
    T R(-b/v) on U, and Omega times those).  It is its own inverse,
    antisymplectic (Theta Omega Theta = -Omega) and keeps the free and
    the coupling Hamiltonians to 1e-14 of their largest entries; and
    rho(b - x) = rho(x) Theta on each channel."""
    n2 = 2 * grid.n_modes
    theta = time_reversal(grid, params)
    omega = symplectic_form(grid.n_modes)
    eye = np.eye(n2)
    turn = params.b / params.v_g
    # the angle k b (8.4 rad at the top mode) is rounded as k b here and
    # as v k (b/v) there: the two differ by ~2e-15
    for rows, t in ((slice(0, n2), turn), (slice(n2, None), -turn)):
        for want, got in (
                (theta[rows, rows], propagator._reverse(eye, grid, params, t)),
                ((omega @ theta)[rows, rows],
                 propagator._reverse(eye, grid, params, t, omega=True))):
            assert np.allclose(got, want, rtol=0.0, atol=1e-14)
    assert np.allclose(theta @ theta, np.eye(2 * n2), rtol=0.0, atol=1e-15)
    assert np.allclose(theta @ omega @ theta, -omega, rtol=0.0, atol=1e-15)
    g_s, g_u, g_int = O.build_hamiltonians(params, grid)
    for g in (g_s + g_u, g_int):
        assert np.max(np.abs(theta @ g @ theta - g)) <= 1e-14 * np.max(
            np.abs(g))
    x = np.random.default_rng(8).uniform(0.0, params.b, 7)
    for rows, nu, chirality in ((slice(0, n2), params.nu_S, "left"),
                                (slice(n2, None), params.nu_U, "right")):
        at = O.density_basis(grid, nu, x, chirality)
        mirrored = O.density_basis(grid, nu, params.b - x, chirality)
        assert np.allclose(at @ theta[rows, rows], mirrored, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(at)))


def _reversal_defects(params, grid, ramp_fraction):
    """max |M - Theta M^-1 Theta| and max |M - Theta X^-1 Theta X| of
    the dense reference, X its first half, with the inverses
    Omega^-1 (.)^T Omega of a symplectic matrix."""
    m, x = (window_propagator_dense(params, grid, 1.0, ramp_fraction,
                                    propagator.N_RAMP, first_half=half)
            for half in (False, True))
    theta = time_reversal(grid, params)
    omega = symplectic_form(grid.n_modes)

    def inverse(a):
        return -omega @ a.T @ omega

    return (np.max(np.abs(m - theta @ inverse(m) @ theta)),
            np.max(np.abs(m - theta @ inverse(x) @ theta @ x)), m)


@pytest.mark.parametrize("n_modes", [16, 32, 64])
@pytest.mark.parametrize("ramp_fraction", [0.0, 0.05, 0.5])
def test_window_propagator_is_its_time_reversed_inverse(params, n_modes,
                                                        ramp_fraction):
    """The symmetry the build takes the second half of the window from,
    on the dense reference: M = Theta M^-1 Theta and, with X the first
    half (the ramp-up and half the plateau),
    M = Theta X^-1 Theta X, to 1e-14 of max|M| (5e-15 measured), for
    sudden switching, the 5% ramp and a ramp with no plateau."""
    grid = O.default_grid(params, n_modes=n_modes)
    whole, half, m = _reversal_defects(params, grid, ramp_fraction)
    assert whole <= 1e-14 * np.max(np.abs(m))
    assert half <= 1e-14 * np.max(np.abs(m))


def test_broken_time_reversal_is_refused(params, monkeypatch):
    """A kernel times 1 + 0.3 sign(x - y) keeps the S <-> U mirror
    (residual ~1e-15) but not Theta: on the dense reference at 32 modes
    with the 5% ramp, M = Theta M^-1 Theta then fails by 6.7% of
    max|M - R| (M - R is the coupling's part of M).  With the symmetry
    tolerance lifted, ``_coupling`` reads both residuals; at the real
    one it raises StepInstability, and so does the build, before any
    step is built."""
    grid = O.default_grid(params, n_modes=32)
    nodes = O._coupling_nodes
    xq = np.polynomial.legendre.leggauss(O.N_QUAD)[0]
    sign = np.sign(xq[:, None] - xq[None, :])

    def skewed(p, g):
        u_s, u_u, kernel = nodes(p, g)
        return u_s, u_u, kernel * (1.0 + 0.3 * sign)
    monkeypatch.setattr(O, "_coupling_nodes", skewed)
    monkeypatch.setattr(propagator, "_coupling_nodes", skewed)
    with monkeypatch.context() as mp:
        mp.setattr(propagator, "SYMMETRY_TOL", math.inf)
        *_, mirror, reversal = propagator._coupling(params, grid)
    assert mirror <= 1e-13
    assert reversal >= 0.1
    whole, _, m = _reversal_defects(params, grid, 0.05)
    t_i, t_f = O.interaction_window(params)
    r = free_propagator(grid, params, t_f - t_i)
    assert whole >= 0.01 * np.max(np.abs(m - r))
    with pytest.raises(O.StepInstability, match="time reversal"):
        propagator._coupling(params, grid)
    monkeypatch.setattr(propagator, "_step_propagators",
                        lambda *a: pytest.fail("step built"))
    with pytest.raises(O.StepInstability, match="time reversal"):
        propagator.window_propagator(params, grid, 1.0, 0.05)


def test_non_symplectic_window_is_refused(params, grid, monkeypatch):
    """A coupling far above the physical one (100 times, at 64 modes)
    gives a window propagator that is not symplectic (residual ~1e31):
    the build raises StepInstability, and so does a NaN residual."""
    with pytest.raises(O.StepInstability, match="symplectic"):
        propagator.window_propagator(params, grid, 100.0, 0.0)
    monkeypatch.setattr(propagator, "_omega_form",
                        lambda a, c: np.full((a.shape[1], c.shape[1]),
                                             math.nan))
    with pytest.raises(O.StepInstability, match="nan"):
        propagator.window_propagator(params, grid, 1.0, 0.0)
