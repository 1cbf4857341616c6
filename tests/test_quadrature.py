"""Adaptive Gauss-Kronrod integration: the 1-D and n-D reference
integrators kept with the tests (quad_reference.py, nd_reference.py)."""

import math

import numpy as np
import pytest

from edgeqet.energetics import ConvergenceFailure, Estimate
from nd_reference import integrate_nd
from quad_reference import IntegrationSpec, integrate_1d


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrationSpec(bounds=((1.0, 0.0),))
    with pytest.raises(ValueError):
        IntegrationSpec(bounds=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        IntegrationSpec(bounds=((0.0, 1.0),), rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationSpec(bounds=((0.0, 1.0),), abs_tol=-1.0)
    assert IntegrationSpec(bounds=((0, 2),)).bounds == ((0.0, 2.0),)


def test_1d_polynomial_exact():
    # degree-7 polynomial: exact for the Gauss-7 rule, zero error estimate
    spec = IntegrationSpec(bounds=((0.0, 2.0),), rel_tol=1e-12)
    res = integrate_1d(lambda x: 7 * x ** 6, spec)
    assert res.value == pytest.approx(2.0 ** 7, rel=1e-14, abs=0.0)


def test_1d_oscillatory_adaptive():
    spec = IntegrationSpec(bounds=((0.0, 10.0),), rel_tol=1e-10,
                           max_subdivisions=500)
    res = integrate_1d(lambda x: np.sin(50 * x), spec)
    exact = (1 - math.cos(500)) / 50
    assert res.value == pytest.approx(exact, abs=1e-10)
    assert res.subdivisions_used > 0


def test_1d_gaussian_tail():
    spec = IntegrationSpec(bounds=((-8.0, 8.0),), rel_tol=1e-12)
    res = integrate_1d(lambda x: np.exp(-x * x), spec)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12, abs=0.0)


def test_convergence_failure_carries_partial_result():
    spec = IntegrationSpec(bounds=((0.0, 1.0),), rel_tol=1e-14,
                           max_subdivisions=2)
    with pytest.raises(ConvergenceFailure) as exc:
        integrate_1d(lambda x: np.abs(np.sin(200 * x)) ** 0.5, spec)
    partial = exc.value.result
    assert isinstance(partial, Estimate)
    assert partial.subdivisions_used == 2
    assert partial.error_estimate > 1e-14 * abs(partial.value)


# n-D reference integrator --------------------------------------------

def test_2d_separable_gaussian():
    res = integrate_nd(lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2),
                       ((-6.0, 6.0), (-6.0, 6.0)), rel_tol=1e-10)
    assert res.value == pytest.approx(math.pi, rel=1e-10, abs=0.0)


def test_3d_polynomial():
    res = integrate_nd(lambda p: p[:, 0] * p[:, 1] ** 2 * p[:, 2] ** 3,
                       ((0.0, 1.0),) * 3, rel_tol=1e-12)
    assert res.value == pytest.approx(0.5 * (1 / 3) * 0.25, rel=1e-12, abs=0.0)


def test_4d_anisotropic_needs_subdivision():
    res = integrate_nd(
        lambda p: np.sin(12 * p[:, 0]) ** 2 + p[:, 1] * p[:, 2] * p[:, 3],
        ((0.0, 1.0),) * 4, rel_tol=1e-8, max_subdivisions=400)
    exact = 0.5 - math.sin(24) / 48 + 0.125
    assert res.value == pytest.approx(exact, rel=1e-8, abs=0.0)


def test_nd_determinism():
    def f(p):
        return np.exp(-p[:, 0]) * np.cos(4 * p[:, 1])

    a = integrate_nd(f, ((0.0, 3.0), (0.0, 3.0)), rel_tol=1e-9)
    b = integrate_nd(f, ((0.0, 3.0), (0.0, 3.0)), rel_tol=1e-9)
    assert a.value == b.value  # bit-identical accumulation order

