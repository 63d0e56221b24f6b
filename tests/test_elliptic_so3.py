"""Elliptic rotation identity tests.

jacobi_eval is checked against scipy's ellipj and the exact trigonometric
and hyperbolic limits; the matrix identity and its six component relations
are checked over random draws and pinned to each other entry by entry.
The cross-module oracle ties sn back to genus-2 theta quotients on a
diagonal period matrix, where the series factorizes into genus-1 pieces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ellipj

from hypertheta import ORIGIN, EvalPoint, PeriodMatrix, ThetaCharacteristic, theta_eval
from hypertheta.elliptic_so3 import (
    component_residuals,
    euler_lhs,
    euler_rhs,
    jacobi_eval,
    x_rotation,
    z_rotation,
)

K_GRID = (0.0, 0.3, 0.6, 0.9, 1.0)
U_GRID = np.linspace(-3.0, 3.0, 25)


def test_trigonometric_limit_exact():
    for u in (-2.1, -0.3, 0.0, 0.7, 2.9):
        t = jacobi_eval(u, 0.0)
        assert t.sn == math.sin(u)
        assert t.cn == math.cos(u)
        assert t.dn == 1.0


def test_hyperbolic_limit_exact():
    for u in (-1.7, 0.0, 0.4, 2.2):
        t = jacobi_eval(u, 1.0)
        assert t.sn == math.tanh(u)
        assert t.cn == 1.0 / math.cosh(u)
        assert t.dn == t.cn


def test_origin_values():
    for k in K_GRID:
        t = jacobi_eval(0.0, k)
        assert t.sn == 0.0
        assert t.cn == 1.0
        assert t.dn == 1.0


def test_pythagorean_invariants_on_grid():
    for k in K_GRID:
        for u in U_GRID:
            t = jacobi_eval(float(u), k)
            assert abs(t.sn ** 2 + t.cn ** 2 - 1.0) < 1e-12
            assert abs(t.dn ** 2 + (k * t.sn) ** 2 - 1.0) < 1e-12


def test_against_scipy_ellipj():
    for k in (0.0, 0.2, 0.45, 0.7, 0.9, 0.99):
        for u in U_GRID:
            t = jacobi_eval(float(u), k)
            sn, cn, dn, _ = ellipj(float(u), k * k)
            assert abs(t.sn - sn) < 1e-12
            assert abs(t.cn - cn) < 1e-12
            assert abs(t.dn - dn) < 1e-12


def test_argument_validation():
    with pytest.raises(ValueError):
        jacobi_eval(0.5, 1.5)
    with pytest.raises(ValueError):
        jacobi_eval(0.5, -0.1)
    with pytest.raises(ValueError):
        jacobi_eval(math.inf, 0.5)


def _assert_rotation(m: np.ndarray, tol: float) -> None:
    """m is orthogonal with determinant +1, to tol."""
    assert m.shape == (3, 3)
    assert np.abs(m @ m.T - np.eye(3)).max() < tol
    assert abs(np.linalg.det(m) - 1.0) < tol


def test_factors_are_rotations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = float(rng.uniform(-3, 3))
        k = float(rng.uniform(0, 1))
        t = jacobi_eval(u, k)
        for m in (x_rotation(t), z_rotation(t)):
            _assert_rotation(m, 1e-12)


def test_matrix_identity_over_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u1, u3 = (float(v) for v in rng.uniform(-3, 3, 2))
        k = float(rng.uniform(0, 1))
        lhs, rhs = euler_lhs(u1, u3, k), euler_rhs(u1, u3, k)
        assert np.abs(lhs - rhs).max() < 1e-10
        _assert_rotation(lhs, 1e-10)
        _assert_rotation(rhs, 1e-10)


def test_component_residuals_vanish():
    rng = np.random.default_rng(12)
    for _ in range(100):
        u1, u3 = (float(v) for v in rng.uniform(-3, 3, 2))
        k = float(rng.uniform(0, 1))
        for key, value in component_residuals(u1, u3, k).items():
            assert abs(value) < 1e-10, key


def test_components_pin_matrix_entries():
    """The six scalars are literally entries of lhs - rhs."""
    location = {"11": (0, 0), "12": (0, 1), "13": (0, 2),
                "22": (1, 1), "23": (1, 2), "33": (2, 2)}
    rng = np.random.default_rng(13)
    for _ in range(10):
        u1, u3 = (float(v) for v in rng.uniform(-3, 3, 2))
        k = float(rng.uniform(0, 1))
        diff = euler_lhs(u1, u3, k) - euler_rhs(u1, u3, k)
        comp = component_residuals(u1, u3, k)
        for key, (i, j) in location.items():
            assert abs(comp[key] - diff[i, j]) < 1e-14


def test_degenerate_moduli_tight():
    for k in (0.0, 1.0):
        for u1, u3 in ((0.9, -0.4), (-1.3, 2.0), (0.05, 0.03)):
            gap = np.abs(euler_lhs(u1, u3, k) - euler_rhs(u1, u3, k)).max()
            assert gap < 1e-12
    # k = 0 collapses to the rotation addition formula
    lhs = euler_lhs(0.8, 0.5, 0.0)
    t = jacobi_eval(1.3, 0.0)
    assert np.max(np.abs(lhs - z_rotation(t))) < 1e-12


def test_cross_module_theta_quotient_oracle():
    """On a diagonal period matrix the genus-2 series factorizes; the
    quotient theta[1 0;1 0](x,0)/theta[0 0;1 0](x,0) is a constant multiple
    of sn at modulus k = (theta[1 0;0 0]/theta[0 0;0 0])^2(0,0) and
    argument u = pi * x * theta3^2(0).  The constant squares to k, which is
    convention-free; its sign is not asserted."""
    tau1, tau2 = 1.2j, 1.5j
    T = PeriodMatrix(tau1, tau2, 0j)
    diag = PeriodMatrix(tau1, tau1, 0j)

    def th(a, c, b, d, z, tau):
        return theta_eval(ThetaCharacteristic.of(a, c, b, d), z, tau)

    k = ((th(1, 0, 0, 0, ORIGIN, T) / th(0, 0, 0, 0, ORIGIN, T)) ** 2).real
    theta3_sq = th(0, 0, 0, 0, ORIGIN, diag).real
    ratios = []
    for x in (0.05, 0.12, 0.21, 0.33):
        z = EvalPoint(x, 0.0)
        candidate = th(1, 0, 1, 0, z, T) / th(0, 0, 1, 0, z, T)
        sn = jacobi_eval(math.pi * x * theta3_sq, k).sn
        ratios.append(candidate / sn)
    spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
    assert spread < 1e-8
    assert abs(ratios[0] ** 2 - k) < 1e-8
