"""Analytic energy pipeline: E_A, E_1, E_B and its cross-checks.

The extracted-energy integral is validated two ways: against the slow
4-D form in which every convolution is done by adaptive quadrature
(nd_reference.py), and, on the unrestricted window, against a further
exact reduction in which both convolution integrals against the
regularized power kernel collapse onto derivatives of the Faddeeva
function w(z), leaving a smooth 2-D integral that Gauss-Legendre nails.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from scipy.special import wofz

from edgeqet import energetics as E
from edgeqet import oracle as O
from edgeqet import params as P
from edgeqet.chiral_field import window_derivative_l2
from edgeqet.detector import delta_v, detector_from_params, sense_window
from edgeqet.energetics import (ConvergenceFailure, EnergyBudget, Estimate,
                                compute_EA, compute_EB, compute_E1,
                                current_from_energy_density,
                                eb_order_estimate, energy_budget,
                                energy_density_from_current, feedback_window,
                                gs_squared, loglog_slope)
from nd_reference import eb_integral_4d
from quad_reference import IntegrationSpec, integrate_1d

UEV = 1e6 / P.E_CHARGE  # J -> micro-eV


@pytest.fixture(scope="module")
def eb_default(params):
    return compute_EB(params, rel_tol=1e-4)


def _faddeeva_4th(z):
    """w''''(z) from the ODE recursion w' = -2 z w + 2i/sqrt(pi)."""
    w0 = wofz(z)
    w1 = -2.0 * z * w0 + 2.0j / math.sqrt(math.pi)
    w2 = -2.0 * w0 - 2.0 * z * w1
    w3 = -4.0 * w1 - 2.0 * z * w2
    return -6.0 * w2 - 2.0 * z * w3


def quintic_reference(params, n_quad=120):
    """E_B with the inner two convolutions done exactly.

    The measured-window and feedback-profile integrals against the
    regularized 5th-power kernel reduce to Im w''''(zeta) at
    zeta = (x + y + L + v_g T - b/2 + i eps) / (sqrt(2) sigma_z),
    sigma_z^2 = l^2 + b^2; only the smooth coupling-region double
    integral remains.  Valid for an unrestricted interaction window.
    """
    l, b = params.l, params.b
    dv = delta_v(detector_from_params(params))
    pref = (3.0 * P.E_CHARGE ** 3 * params.v_g * params.R * params.nu_S
            / (4.0 * math.pi ** 3 * params.epsilon * dv))
    sigma_z = math.hypot(l, b)
    amp = params.lambda_amp * math.sqrt(2.0 * math.pi) * l * b / sigma_z
    root2sz = math.sqrt(2.0) * sigma_z

    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    xq = 0.5 * b * (nodes + 1.0)
    wq = 0.5 * b * weights
    x = xq[:, None]
    y = xq[None, :]
    delta = x + y + params.L + params.v_g * params.T_delay - 0.5 * b
    zeta = (delta + 1j * params.eps_uv) / root2sz
    inner = (amp * root2sz ** -4 * (math.pi / 24.0)
             * np.imag(_faddeeva_4th(zeta)))
    coulomb = 1.0 / np.sqrt((x - y) ** 2 + params.d ** 2)
    j5 = float(wq @ (coulomb * inner) @ wq)
    return -pref * j5


# E_A / E_1 --------------------------------------------------------------

def test_EA_closed_form_vs_quadrature(params):
    e_a = compute_EA(params)
    assert 0.1e-3 * P.E_CHARGE < e_a < 10e-3 * P.E_CHARGE
    # the (d^2 w)^2 integral re-done by adaptive quadrature
    w = sense_window(params)
    spec = IntegrationSpec(bounds=((-10 * w.sigma, 10 * w.sigma),),
                           rel_tol=1e-12)
    l2 = integrate_1d(lambda x: w.derivative(x, order=2) ** 2, spec).value
    assert window_derivative_l2(w, order=2) == pytest.approx(l2, rel=1e-8,
                                                             abs=0.0)
    # frozen value at the defaults
    assert e_a * 1e3 / P.E_CHARGE == pytest.approx(0.8672, rel=1e-3, abs=0.0)


def test_gs_squared_matches_cutoff_free_closed_form(params):
    # <G^2> -> g^2 nu_S / (4 pi l^2) as eps_uv -> 0
    g = (P.E_CHARGE * params.v_g * params.R
         / (2 * delta_v(detector_from_params(params))))
    closed = g * g * params.nu_S / (4 * math.pi * params.l ** 2)
    assert gs_squared(params) == pytest.approx(closed, rel=0.02, abs=0.0)
    assert gs_squared(params.replace(eps_uv=params.l / 1e4)) == \
        pytest.approx(closed, rel=2e-4, abs=0.0)


def test_E1_band_and_structure(params):
    e_1 = compute_E1(params)
    assert 1e-3 * P.E_CHARGE < e_1 < 100e-3 * P.E_CHARGE
    lam = feedback_window(params)
    expected = (math.pi * P.HBAR * params.v_g / params.nu_U
                * window_derivative_l2(lam, order=1)
                * (gs_squared(params) + 0.25))
    assert e_1 == pytest.approx(expected, rel=1e-12, abs=0.0)
    # quadratic in the feedback amplitude (through the profile L2 norm)
    ratio = compute_E1(params.replace(lambda_amp=20.0)) / e_1
    # the <G^2>+1/4 factor is amplitude-independent
    assert ratio == pytest.approx(4.0, rel=1e-10, abs=0.0)


def test_feedback_window_geometry(params):
    lam = feedback_window(params)
    assert lam.center == pytest.approx(0.5 * params.b - params.L)
    assert lam.sigma == params.b
    assert lam.amplitude == params.lambda_amp


# Gauss-Legendre rules ---------------------------------------------------

def test_legendre_rule_is_read_only():
    for array in E._legendre_rule(16):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("n", [16, 32, 64, 96, 1024])
def test_gauss_legendre_matches_direct_mapping(params, n):
    """The cached rule maps onto [lo, hi] with the same bits as a rule
    built afresh."""
    t, w = np.polynomial.legendre.leggauss(n)
    for lo, hi in ((0.0, params.b), (-3.0 * params.l, 7.0 * params.l)):
        half = 0.5 * (hi - lo)
        x, wx = E._gauss_legendre(n, lo, hi)
        assert np.array_equal(x, lo + half * (t + 1.0))
        assert np.array_equal(wx, half * w)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, O.N_QUAD])
def test_legendre_rule_matches_numpy_bit_for_bit(n):
    """The in-house rule is numpy's ``leggauss``, step for step, so the
    nodes and weights carry the same bits."""
    t, w = np.polynomial.legendre.leggauss(n)
    rule = E._legendre_rule(n)
    assert np.array_equal(rule[0], t) and np.array_equal(rule[1], w)


def test_EB_sweep_builds_each_rule_once(params, monkeypatch):
    built = []
    leggauss = E._leggauss
    monkeypatch.setattr(E, "_leggauss",
                        lambda n: built.append(n) or leggauss(n))
    E._legendre_rule.cache_clear()
    for mult in (2, 3, 4):
        compute_EB(params.replace(L=mult * params.l), rel_tol=1e-4)
    assert len(built) == len(set(built))
    assert {16, 32} <= set(built)


# E_B --------------------------------------------------------------------

def test_faddeeva_matches_wofz(params):
    """The numpy Faddeeva function against scipy's, on the real axis,
    at the Im zeta the default regulator gives, and above."""
    im_default = params.eps_uv / (math.sqrt(2.0) * sense_window(params).sigma)
    re = np.linspace(-40.0, 40.0, 4001)
    for im in (0.0, im_default, 2.0 * im_default, 0.1, 1.0, 5.0):
        z = re + 1j * im
        reference = wofz(z)
        rel = np.abs(E._faddeeva(z) - reference) / np.abs(reference)
        assert rel.max() <= 1e-13, f"Im z = {im}"


def test_EB_matches_wofz_rule(params, monkeypatch):
    """compute_EB with the numpy Faddeeva function against the same rule
    evaluated with scipy's wofz."""
    ours = {m: compute_EB(params.replace(L=m * params.l), rel_tol=1e-8)
            for m in (2, 3, 4, 5, 6)}
    monkeypatch.setattr(E, "_faddeeva", wofz)
    for mult, value in ours.items():
        reference = compute_EB(params.replace(L=mult * params.l),
                               rel_tol=1e-8)
        assert value == pytest.approx(reference, rel=2e-12,
                                      abs=0.0), f"L={mult}l"


def test_EB_frozen_values(params, eb_default):
    """Regression against the frozen separation scan (micro-eV)."""
    assert eb_default * UEV == pytest.approx(40.291086, rel=1e-4, abs=0.0)
    frozen = {3: 55.849898, 4: 8.245024, 5: -4.748838}
    for mult, value in frozen.items():
        e_b = compute_EB(params.replace(L=mult * params.l), rel_tol=1e-4)
        assert e_b * UEV == pytest.approx(value, rel=1e-4,
                                          abs=0.0), f"L = {mult}l"


def test_EB_changes_sign_at_4_3455l(params):
    """At the default parameters E_B, positive at 4l and negative at 5l,
    vanishes at L = 4.3455l: bisection in L to 3e-5 l (17 calls)."""
    def e_b(mult):
        return compute_EB(params.replace(L=mult * params.l), rel_tol=1e-4)

    lo, hi = 4.0, 5.0
    assert e_b(lo) > 0.0 > e_b(hi)
    for _ in range(15):
        mid = 0.5 * (lo + hi)
        if e_b(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(4.3455, abs=1e-3)


def _non_causal_EB(p, rel_tol):
    """E_B with tau also extending before the packet is created, the
    weight integral's ``causal=False`` form."""
    return E._eb_integral(p, rel_tol, p.eps_uv, causal=False)


def test_EB_full_window_matches_faddeeva_reduction(params):
    """The production integral against the exact w'''' reduction."""
    for mult in (2, 4):
        p = params.replace(L=mult * params.l)
        production = _non_causal_EB(p, 1e-5)
        reference = quintic_reference(p)
        assert production == pytest.approx(reference, rel=2e-4,
                                           abs=0.0), f"L={mult}l"


def test_EB_causal_window_effect(params):
    """The causal start of the interaction matters only when the packet
    overlaps the coupling region at creation (small L)."""
    at_2l = compute_EB(params, rel_tol=1e-4)
    full_2l = _non_causal_EB(params, 1e-4)
    assert abs(full_2l - at_2l) > 0.02 * abs(at_2l)
    p5 = params.replace(L=5 * params.l)
    at_5l = compute_EB(p5, rel_tol=1e-4)
    full_5l = _non_causal_EB(p5, 1e-4)
    assert full_5l == pytest.approx(at_5l, rel=0.005, abs=0.0)


def test_EB_matches_4d_reference(params):
    """The 3-D Faddeeva form against the 4-D all-quadrature form."""
    for mult, causal in ((2, True), (4, False)):
        p = params.replace(L=mult * params.l)
        reference = eb_integral_4d(p, 1e-7, p.eps_uv, causal=causal)
        production = (compute_EB(p, rel_tol=1e-8) if causal
                      else _non_causal_EB(p, 1e-8))
        assert production == pytest.approx(
            -E._eb_prefactor(p) * reference.value, rel=1e-6,
            abs=0.0), f"L={mult}l"


def test_EB_node_doubling_at_long_separation(params):
    """At L = 30l the first rule is far off; doubling converges, and the
    result agrees with the next doubling to rel_tol."""
    p = params.replace(L=30 * params.l)
    res = E._eb_integral(p, 1e-4, p.eps_uv)
    assert res.subdivisions_used >= 2
    assert res.error_estimate <= 1e-4 * abs(res.value)
    n = E._EB_START_NODES * 2 ** res.subdivisions_used
    finer = -E._eb_prefactor(p) * E._eb_rule(p, p.eps_uv, True, 2 * n)
    assert res.value == pytest.approx(finer, rel=1e-4, abs=0.0)
    e_b = compute_EB(p)
    assert e_b == res
    assert e_b.error_estimate == res.error_estimate


def test_EB_node_cap_raises_with_partial_result(params, monkeypatch):
    monkeypatch.setattr(E, "_EB_MAX_NODES", 2 * E._EB_START_NODES)
    p = params.replace(L=30 * params.l)
    with pytest.raises(ConvergenceFailure) as exc:
        E._eb_integral(p, 1e-4, p.eps_uv)
    partial = exc.value.result
    assert partial.subdivisions_used == 1
    assert partial.error_estimate > 1e-4 * abs(partial.value)


def test_EB_non_finite_rule_raises_at_once(params):
    # L = 1e300 m overflows the first rule: no doubling follows it
    p = params.replace(L=1e300)
    with pytest.raises(ConvergenceFailure, match="non-finite") as exc:
        E._eb_integral(p, 1e-4, p.eps_uv)
    partial = exc.value.result
    assert not math.isfinite(partial.value)
    assert partial.subdivisions_used == 0
    assert partial.n_evals == 2 * E._EB_START_NODES ** 3


def test_EB_linearity_in_feedback_amplitude(params, eb_default):
    double = compute_EB(params.replace(lambda_amp=20.0), rel_tol=1e-4)
    assert double == pytest.approx(2.0 * eb_default, rel=1e-10, abs=0.0)
    assert compute_EB(params.replace(lambda_amp=0.0), rel_tol=1e-4) == 0.0


def test_EB_regulator_and_tolerance_stability(params, eb_default):
    halved = compute_EB(params.replace(eps_uv=0.5 * params.eps_uv),
                        rel_tol=1e-4)
    assert abs(halved - eb_default) < 0.05 * abs(eb_default)
    tight = compute_EB(params, rel_tol=1e-5)
    assert abs(tight - eb_default) < 0.01 * abs(eb_default)


def test_EB_rejects_short_separation(params):
    with pytest.raises(ValueError, match="2l"):
        compute_EB(params.replace(L=1.5 * params.l))


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, 1.0, 2.0])
def test_EB_rejects_tolerance_outside_unit_interval(params, monkeypatch,
                                                    rel_tol):
    # a small node cap keeps a missing check from doubling for long
    monkeypatch.setattr(E, "_EB_MAX_NODES", 2 * E._EB_START_NODES)
    with pytest.raises(ValueError, match="rel_tol"):
        compute_EB(params, rel_tol=rel_tol)


def test_EB_sign_structure(params):
    """The kernel oscillates: extraction at 2l-4l flips to injection by 5l."""
    assert compute_EB(params, rel_tol=1e-4) > 0
    assert compute_EB(params.replace(L=4 * params.l), rel_tol=1e-4) > 0
    assert compute_EB(params.replace(L=5 * params.l), rel_tol=1e-4) < 0


# order estimate and scaling ----------------------------------------------

def test_order_estimate_value_and_scaling(params):
    est = eb_order_estimate(params)
    assert est * UEV == pytest.approx(57.99, rel=1e-3, abs=0.0)
    assert eb_order_estimate(params.replace(L=2 * params.L)) == \
        pytest.approx(est / 32, rel=1e-12, abs=0.0)


def test_order_estimate_within_decade_of_integral(params):
    # decade agreement holds for L in 2l..5l; by 6l the envelope has
    # fallen below a tenth of the (sign-flipped) integral
    for mult in (2, 3, 4, 5):
        p = params.replace(L=mult * params.l)
        ratio = eb_order_estimate(p) / abs(compute_EB(p, rel_tol=1e-4))
        assert 0.1 < ratio < 10.0, f"L = {mult}l: ratio {ratio}"
    p6 = params.replace(L=6 * params.l)
    ratio6 = eb_order_estimate(p6) / abs(compute_EB(p6, rel_tol=1e-4))
    assert ratio6 < 0.1


def test_fit_scaling_exponent(params):
    """The log-log slope of |E_B| over L in 3l..6l, as ``sweep`` fits it."""
    grid = [m * params.l for m in (3, 4, 5, 6)]
    envelope, _ = loglog_slope(
        grid, [eb_order_estimate(params.replace(L=L)) for L in grid])
    assert envelope == pytest.approx(-5.0, abs=1e-10)
    slope, _ = loglog_slope(
        grid, [compute_EB(params.replace(L=L), rel_tol=1e-4) for L in grid])
    # the true integral is non-monotonic with a sign change inside the
    # grid; the magnitude fit lands near -4.3, not -5
    assert -4.6 < slope < -4.0


def test_loglog_slope_rules():
    x = np.array([2.0, 3.0, 5.0, 7.0])
    y = -3.0 * x ** -2.5
    slope, stderr = loglog_slope(x, y)
    assert slope == pytest.approx(-2.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    # the points are taken in the order given
    assert loglog_slope(x[::-1], y[::-1])[0] == pytest.approx(-2.5, abs=1e-12)
    slope, stderr = loglog_slope(x[:2], y[:2])
    assert slope == pytest.approx(-2.5, abs=1e-12) and stderr is None
    for xs, ys in ((x[:1], y[:1]), (x, np.r_[y[:3], 0.0]),
                   (np.r_[0.0, x[1:]], y), (np.r_[-1.0, x[1:]], y)):
        assert loglog_slope(xs, ys) == (None, None)


# conversions and the budget ----------------------------------------------

def test_current_energy_density_conversion(params):
    eps = energy_density_from_current(1e-8, params)
    # 10 nA pairs with ~1.34 ueV/um at nu_U = 6
    assert eps / P.E_CHARGE * 1e6 / 1e6 == pytest.approx(1.3426, rel=1e-3,
                                                         abs=0.0)
    assert current_from_energy_density(eps, params) == \
        pytest.approx(1e-8, rel=1e-12, abs=0.0)
    assert current_from_energy_density(0.0, params) == 0.0
    with pytest.raises(ValueError):
        current_from_energy_density(-1.0, params)


def test_energy_budget_aggregates(params, eb_default):
    budget = energy_budget(params, rel_tol=1e-4)
    assert isinstance(budget, EnergyBudget)
    assert budget.E_B == pytest.approx(eb_default, rel=1e-6, abs=0.0)
    assert budget.E_A == pytest.approx(compute_EA(params), rel=1e-12, abs=0.0)
    assert budget.E_1 == pytest.approx(compute_E1(params), rel=1e-12, abs=0.0)
    assert budget.thermal == pytest.approx(P.KB * params.temperature)
    assert budget.detect_current > 0
    assert budget.E_A > budget.E_B > 0
    # E_B's quadrature diagnostics travel with the budget
    assert budget.E_B_error == eb_default.error_estimate
    assert budget.E_B_evals == eb_default.n_evals
    assert math.isfinite(budget.E_B_error) and budget.E_B_error > 0
    assert isinstance(budget.E_B_evals, int) and budget.E_B_evals > 0
    d = budget.as_dict()
    assert set(d) >= {"delta_v", "signal_rms", "signal_rms_unregularized",
                      "E_A", "E_1", "E_1_unregularized", "E_B",
                      "E_B_unregularized", "E_B_unregularized_shift",
                      "E_B_order_estimate", "thermal", "detect_current"}
    # the regulator bias: E_B at eps_uv = 0 lies 2.68% above E_B
    assert budget.E_B_unregularized * UEV == pytest.approx(
        41.3706, rel=1e-4, abs=0.0)
    assert budget.E_B_unregularized_shift == pytest.approx(
        budget.E_B_unregularized / budget.E_B - 1.0, rel=1e-12, abs=0.0)
    assert budget.E_B_unregularized_shift == pytest.approx(0.0268, abs=5e-4)
    # E_1 and the signal RMS at eps_uv = 0: +1.30% and +0.67%; the
    # oracle's exact mean packet energy is 4.972065e-21 J
    assert budget.E_1_unregularized == pytest.approx(
        compute_E1(params.replace(eps_uv=0.0)), rel=1e-15, abs=0.0)
    assert budget.E_1_unregularized == pytest.approx(
        4.972041e-21, rel=1e-6, abs=0.0)
    assert budget.E_1_unregularized / budget.E_1 - 1.0 == pytest.approx(
        0.0130, abs=5e-4)
    assert budget.signal_rms_unregularized * 1e6 == pytest.approx(
        78.2828, rel=1e-5, abs=0.0)
    assert budget.signal_rms_unregularized / budget.signal_rms - 1.0 == \
        pytest.approx(0.0067, abs=5e-4)


def test_EB_estimate_is_a_float_with_its_error(params, eb_default):
    assert isinstance(eb_default, Estimate) and isinstance(eb_default, float)
    assert 0.0 < eb_default.error_estimate <= 1e-4 * abs(eb_default)
    # copies (EnergyBudget.as_dict deep-copies) keep value and error
    for twin in (copy.deepcopy(eb_default),
                 pickle.loads(pickle.dumps(eb_default))):
        assert twin == eb_default
        assert twin.error_estimate == eb_default.error_estimate
        assert twin.n_evals == eb_default.n_evals
        assert twin.subdivisions_used == eb_default.subdivisions_used
    assert type(2.0 * eb_default) is float
    assert type(eb_default.value) is float and eb_default.value == eb_default
