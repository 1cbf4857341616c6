"""Acceptance gate: one check per headline claim of the package.

Each test prints a single ``criterion NN: PASS/FAIL`` line on the real
stdout (bypassing capture) so the gate reads as a checklist, then
asserts.  The whole module is budgeted to run in well under ten
minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from edgeqet import cli
from edgeqet import oracle as O
from edgeqet import params as P
from edgeqet import propagator
from edgeqet.detector import (delta_v, detector_from_params,
                              measurement_coupling, sense_window,
                              signal_rms)
from edgeqet.energetics import (compute_EA, compute_EB, compute_E1,
                                loglog_slope)
from edgeqet.chiral_field import window_derivative_l2
from dense_reference import channel_energy, displace_feedback
from quad_reference import IntegrationSpec, integrate_1d

UEV = 1e6 / P.E_CHARGE  # J -> ueV
MEV = 1e3 / P.E_CHARGE  # J -> meV


@pytest.fixture()
def report(capfd):
    """Print one checklist line per criterion on the real terminal,
    outside pytest's capture, then assert."""
    def _report(num, ok, detail):
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


# Shared expensive artifacts ---------------------------------------------

@pytest.fixture(scope="module")
def grid256(params):
    return O.default_grid(params, n_modes=256)


@pytest.fixture(scope="module")
def eb_2l(params):
    return compute_EB(params, rel_tol=1e-4)


@pytest.fixture(scope="module")
def coupling_runs(params, grid256):
    """Sudden-switching protocol runs at three weak couplings.

    The interaction ramp is turned off here so that the oracle's
    first-order response is directly comparable to the closed-form
    linear-response integral; the elastic O(g^2) packet-scattering term
    is the only residual.
    """
    runs = {}
    for g in (0.04, 0.02, 0.01):
        runs[g] = O.run_protocol(
            params, grid256, feedback_mode="correlated", n_shots=20000,
            seed=11, coupling_scale=g, ramp_fraction=0.0, n_profile=64)
    return runs


@pytest.fixture(scope="module")
def scrambled_run(params, grid256):
    return O.run_protocol(
        params, grid256, feedback_mode="scrambled", n_shots=20000,
        seed=11, coupling_scale=0.01, ramp_fraction=0.0, n_profile=64)


@pytest.fixture(scope="module")
def dip_runs(params, grid256):
    """Correlated and feedback-off runs at L=3l and very weak coupling.

    The extraction dip in <eps_S(x)> is O(g) but rides on the O(1)
    measurement lump (the energy is squeezed out of the measurement
    response wave itself), so it is isolated by differencing the
    correlated and feedback-off profiles at a matched seed.  L=3l puts
    the feedback packet well clear of the coupling region at switch-on,
    so no spurious interaction energy contaminates the balance; weak
    coupling keeps the elastic O(g^2) term negligible.
    """
    p3 = P.validate(params.replace(L=3 * params.l))
    grid = O.default_grid(p3, n_modes=256)
    kwargs = dict(n_shots=8000, seed=11, coupling_scale=0.0025,
                  ramp_fraction=0.0, n_profile=1024)
    corr = O.run_protocol(p3, grid, feedback_mode="correlated", **kwargs)
    off = O.run_protocol(p3, grid, feedback_mode="off", **kwargs)
    return p3, corr, off


# 1-5: closed-form magnitudes --------------------------------------------

def test_c01_detector_voltage_band(params, report):
    dv = delta_v(detector_from_params(params))
    report(1, 3e-6 <= dv <= 30e-6,
            f"detector resolution dV = {dv * 1e6:.2f} uV in [3, 30] uV")


def test_c02_signal_rms_band(params, report):
    rms = signal_rms(params)
    report(2, 30e-6 <= rms <= 300e-6,
            f"zero-point signal RMS = {rms * 1e6:.2f} uV in [30, 300] uV")


def test_c03_measurement_energy_band_and_quadrature(params, report):
    e_a = compute_EA(params)
    # independent route: 1-D quadrature of the squared second derivative
    w = sense_window(params)
    g = measurement_coupling(params)
    spec = IntegrationSpec(bounds=((-10 * w.sigma, 10 * w.sigma),),
                           rel_tol=1e-10)
    l2 = integrate_1d(lambda x: w.derivative(x, order=2) ** 2, spec).value
    quad = P.HBAR * params.v_g * params.nu_S / (4 * math.pi) * g * g * l2
    in_band = 0.1e-3 * P.E_CHARGE <= e_a <= 10e-3 * P.E_CHARGE
    matches = abs(quad - e_a) <= 1e-8 * e_a
    assert l2 == pytest.approx(
        g * g * window_derivative_l2(w, 2) / g / g, rel=1e-9, abs=0.0)
    report(3, in_band and matches,
            f"E_A = {e_a * MEV:.4f} meV in [0.1, 10] meV; "
            f"quadrature route agrees to {abs(quad / e_a - 1):.1e}")


def test_c04_packet_energy_band(params, report):
    e_1 = compute_E1(params)
    report(4, 1e-3 * P.E_CHARGE <= e_1 <= 100e-3 * P.E_CHARGE,
            f"E_1 = {e_1 * MEV:.2f} meV in [1, 100] meV")


def test_c05_extraction_energy_bands(params, eb_2l, report):
    eb_4l = compute_EB(P.validate(params.replace(L=4 * params.l)),
                       rel_tol=1e-4)
    ok = (10e-6 * P.E_CHARGE <= eb_2l <= 1000e-6 * P.E_CHARGE
          and 0.1e-6 * P.E_CHARGE <= eb_4l <= 10e-6 * P.E_CHARGE
          and eb_2l > 0 and eb_4l > 0)
    report(5, ok, f"E_B(2l) = {eb_2l * UEV:.2f} ueV in [10, 1000]; "
                   f"E_B(4l) = {eb_4l * UEV:.3f} ueV in [0.1, 10]")


# 6: separation scaling ---------------------------------------------------

def test_c06_separation_scaling_slope(params, report):
    """Log-log slope of the extraction energy over L in {3l..6l},
    expected -5 +- 0.3 by the envelope estimate.

    Known-unattainable: the first-order extraction integral is
    non-monotonic and changes sign at L = 4.3455l (its exact inner
    kernel oscillates before settling onto the ~L^-5 tail: the local
    log-log slope is -5.87 over 8l..10l and nears -5 only past 15l).
    The fit below is done on log|E_B| so it is well-defined; the
    measured slope is reported and the band asserted as stated, failing
    honestly.
    """
    t0 = time.perf_counter()
    ls = [3 * params.l, 4 * params.l, 5 * params.l, 6 * params.l]
    slope, _ = loglog_slope(
        ls, [compute_EB(params.replace(L=L), rel_tol=1e-4) for L in ls])
    runtime = time.perf_counter() - t0
    assert runtime < 120.0
    report(6, abs(slope - (-5.0)) <= 0.3,
            f"log-log slope over L in 3l..6l = {slope:.3f} "
            f"(target -5 +- 0.3; integral is sign-changing, envelope "
            f"exponent not attained; {runtime:.0f} s)")


# 7: numerical robustness --------------------------------------------------

def test_c07_regulator_and_tolerance_stability(params, eb_2l, report):
    halved = compute_EB(params.replace(eps_uv=params.eps_uv / 2),
                        rel_tol=1e-4)
    tighter = compute_EB(params, rel_tol=1e-5)
    d_reg = abs(halved / eb_2l - 1)
    d_tol = abs(tighter / eb_2l - 1)
    report(7, d_reg < 0.05 and d_tol < 0.01,
            f"E_B(2l) shift: regulator halved {d_reg:.2%} (< 5%), "
            f"tolerance x10 {d_tol:.2e} (< 1%)")


# 8-10: oracle equivalence and passivity -----------------------------------

def test_c08_oracle_matches_closed_forms(params, coupling_runs, report):
    r = coupling_runs[0.01]
    d_a = abs(r.E_A_oracle / compute_EA(params) - 1)
    d_1 = abs(r.E_1_oracle / compute_E1(params) - 1)
    report(8, d_a < 0.05 and d_1 < 0.05,
            f"oracle vs closed form over {len(r.outcome_samples)} shots: "
            f"E_A off by {d_a:.2%}, E_1 off by {d_1:.2%} (< 5%)")


def test_c09_perturbative_consistency(params, coupling_runs, eb_2l, report):
    mismatches = []
    for g in (0.04, 0.02, 0.01):
        r = coupling_runs[g]
        mismatches.append(abs(r.E_B_oracle / (g * eb_2l) - 1))
    monotone = mismatches[0] > mismatches[1] > mismatches[2]
    report(9, mismatches[2] < 0.15 and monotone,
            f"oracle/scaled-integral mismatch {mismatches[0]:.3f} -> "
            f"{mismatches[1]:.3f} -> {mismatches[2]:.3f} over coupling "
            f"0.04/0.02/0.01 (final < 15%, shrinking)")


def test_c10_passivity(coupling_runs, scrambled_run, report):
    s = scrambled_run
    c = coupling_runs[0.01]
    sig = c.E_B_oracle / c.E_B_stderr
    scram_ok = s.E_B_oracle <= 2.0 * s.E_B_stderr
    report(10, scram_ok and sig >= 5.0,
            f"scrambled mean = {s.E_B_oracle * UEV:.3f} +- "
            f"{s.E_B_stderr * UEV:.3f} ueV (<= 0 within 2 s.e.); "
            f"correlated at {sig:.0f} sigma (>= 5)")


# 11-12: local energy density -----------------------------------------------

def test_c11_negative_energy_density(dip_runs, report):
    p3, corr, off = dip_runs
    x = corr.profile_x
    diff = corr.energy_density_profile - off.energy_density_profile
    neg = np.where(diff < 0.0, diff, 0.0)
    neg_integral = float(np.trapezoid(neg, x))
    ratio = -neg_integral / corr.E_B_oracle
    # the dip has advected with the left-moving channel by t_f
    x_dip = x[np.argmin(diff)]
    advected = abs(x_dip - (-p3.v_g * corr.t_f)) < 5 * p3.l
    report(11, abs(ratio - 1.0) <= 0.20 and advected,
            f"negative-density integral / E_B_oracle = {ratio:.3f} "
            f"(within 20% of 1); dip rides the channel at "
            f"x = {x_dip * 1e6:.1f} um")


def test_c12_chirality(params, grid256, report):
    """Centroid speed of the S energy lump between t_f and t_f + 4l/v_g.

    The t_f profile is run_protocol's.  The one 4l/v_g later is built
    here by free flight: the setup's S columns at t_f (the moment's
    column pairs, ``propagator._columns``), turned mode by mode by
    ``free_rotate`` and reduced at the same points by
    ``local_energy_density`` with the run's shot moments.  So a flight
    at the wrong speed moves the later centroid by the wrong distance.
    """
    dt = 4 * params.l / params.v_g
    r = O.run_protocol(params, grid256, feedback_mode="correlated",
                       n_shots=400, seed=11, coupling_scale=0.01,
                       ramp_fraction=0.0, n_profile=2048)
    st = propagator.protocol_setup(params, grid256, 0.01, 0.0)
    cols = np.column_stack(propagator._columns(
        st.window, (st.a_vec, st.b_vec, st.kick_f), "S"))
    pairs = propagator._moment_pairs(st.window.b.shape[1], st.s_pred,
                                     st.back)
    u = r.outcome_samples
    moments = np.array([1.0] + 3 * [u @ u / u.size])  # correlated: f = u
    x = r.profile_x
    later = O.local_energy_density(
        x, grid256, params, [O.free_rotate(cols, grid256, params, dt)],
        pairs) @ moments

    def centroid(prof):
        sel = np.abs(x - x[np.argmax(prof)]) < 4 * params.l
        return float(np.sum(x[sel] * prof[sel]) / np.sum(prof[sel]))

    c0 = centroid(r.energy_density_profile)
    c1 = centroid(later)
    v = (c0 - c1) / dt  # left-moving channel: centroid moves to -x
    report(12, abs(v / params.v_g - 1) < 0.01,
            f"lump centroid speed = {v:.4g} m/s vs v_g = {params.v_g:.4g} "
            f"(within 1%)")


# 13-14: bookkeeping --------------------------------------------------------

def test_c13_conservation(params, coupling_runs, scrambled_run, dip_runs, report):
    grid = O.default_grid(params, n_modes=128)
    o = O.measurement_observable(params, grid)
    dv = delta_v(detector_from_params(params))
    _, state = O.measure_gaussian(O.vacuum_state(grid), o, dv,
                                  outcome=2.0 * dv)
    state = displace_feedback(state, 2.0 * dv, params, grid)
    g_s, g_u, _ = O.build_hamiltonians(params, grid)
    total = lambda s: (channel_energy(s, grid, params, "S")
                       + channel_energy(s, grid, params, "U"))
    before = total(state)
    _, t_f = O.interaction_window(params)
    drift = abs(total(O.evolve(state, g_s + g_u, t_f)) / before - 1)
    runs = list(coupling_runs.values()) + [scrambled_run, dip_runs[1]]
    balance = all(r.E_A_oracle - r.E_B_oracle >= 0.0 for r in runs)
    report(13, drift < 1e-6 and balance,
            f"free-evolution energy drift = {drift:.1e} (< 1e-6); "
            f"E_A - E_B >= 0 in all {len(runs)} run averages")


def test_c14_thermal_margin(eb_2l, report):
    thermal = P.thermal_energy(0.01)
    report(14, eb_2l > 10.0 * thermal,
            f"E_B(2l) = {eb_2l * UEV:.1f} ueV > 10 x kT(10 mK) "
            f"= {10 * thermal * UEV:.2f} ueV")


# 15: reproducibility --------------------------------------------------------

def test_c15_byte_determinism(tmp_path, report):
    argv = ["simulate", "--shots", "80", "--seed", "7", "--modes", "64",
            "--coupling-scale", "0.01", "--ramp-fraction", "0",
            "--profile-points", "128", "--tol", "1e-3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    names = ("shots.csv", "profile.csv", "summary.json")
    identical = all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in names)
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (a, b)]
    for m in manifests:
        m.pop("duration_s")
    report(15, identical and manifests[0] == manifests[1],
            "re-running an identical manifest reproduces shots.csv, "
            "profile.csv, summary.json byte-for-byte")
