"""Elliptic rotation-matrix identity (a one-parameter Yang-Baxter check).

Jacobi's elliptic functions sn, cn, dn turn the spherical-triangle closure
relations into a matrix identity between alternating rotations:

    X(u3) Z(u1 + u3) X(u1)  =  Z(u1) X(u1 + u3) Z(u3)

with

    Z(u) = | cn(u)  sn(u)  0 |      X(u) = | 1     0        0     |
           |-sn(u)  cn(u)  0 |             | 0   dn(u)   k*sn(u)  |
           | 0       0     1 |             | 0  -k*sn(u)  dn(u)   |

Both factors are rotations: det Z = cn^2 + sn^2 = 1 and
det X = dn^2 + k^2 sn^2 = 1.  The middle argument carries the *sum* of the
outer ones; in the angular picture the middle angle enters through its
supplement, which is what makes the sign pattern of X consistent (the
naive angle reading would flip the dn terms and break the identity at
k = 0, where the whole statement degenerates to the rotation-addition
formula Z(u1 + u3) = Z(u1) Z(u3)).

Everything here is real: u real, modulus k in [0, 1].  sn/cn/dn are
computed by the descending Gauss/Landen transformation, which terminates
at the trigonometric limit; k = 1 is the exact hyperbolic limit.

component_residuals exposes the six scalar closure relations hidden in the
matrix identity (the remaining entries vanish structurally or repeat these
six under u1 <-> u3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LANDEN_CUTOFF = 1e-15


@dataclass(frozen=True)
class JacobiTriple:
    """sn, cn, dn at one (u, k)."""

    u: float
    k: float
    sn: float
    cn: float
    dn: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sn, self.cn, self.dn)


def _sncndn(u: float, k: float) -> tuple[float, float, float]:
    if k < LANDEN_CUTOFF:
        return (math.sin(u), math.cos(u), 1.0)
    # descending step k -> k1 < k; quadratic convergence to the trig limit
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    k1 = (1.0 - kp) / (1.0 + kp)
    s, c, d = _sncndn(u / (1.0 + k1), k1)
    denom = 1.0 + k1 * s * s
    return ((1.0 + k1) * s / denom,
            c * d / denom,
            (1.0 - k1 * s * s) / denom)


def jacobi_eval(u: float, k: float) -> JacobiTriple:
    """sn, cn, dn for real u and modulus k in [0, 1]."""
    if not (math.isfinite(u) and math.isfinite(k)):
        raise ValueError(f"non-finite arguments u={u}, k={k}")
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus k={k} outside [0, 1]")
    if k == 1.0:
        sech = 1.0 / math.cosh(u)
        return JacobiTriple(u, k, math.tanh(u), sech, sech)
    sn, cn, dn = _sncndn(u, k)
    return JacobiTriple(u, k, sn, cn, dn)


def x_rotation(t: JacobiTriple) -> np.ndarray:
    """Rotation about the first axis through (dn, k*sn)."""
    ks = t.k * t.sn
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, t.dn, ks],
                     [0.0, -ks, t.dn]])


def z_rotation(t: JacobiTriple) -> np.ndarray:
    """Rotation about the third axis through (cn, sn)."""
    return np.array([[t.cn, t.sn, 0.0],
                     [-t.sn, t.cn, 0.0],
                     [0.0, 0.0, 1.0]])


def _triples(u1: float, u3: float, k: float):
    return (jacobi_eval(u1, k), jacobi_eval(u1 + u3, k), jacobi_eval(u3, k))


def euler_lhs(u1: float, u3: float, k: float) -> np.ndarray:
    """X(u3) Z(u1 + u3) X(u1)."""
    t1, t2, t3 = _triples(u1, u3, k)
    return x_rotation(t3) @ z_rotation(t2) @ x_rotation(t1)


def euler_rhs(u1: float, u3: float, k: float) -> np.ndarray:
    """Z(u1) X(u1 + u3) Z(u3)."""
    t1, t2, t3 = _triples(u1, u3, k)
    return z_rotation(t1) @ x_rotation(t2) @ z_rotation(t3)


def component_residuals(u1: float, u3: float, k: float) -> dict[str, float]:
    """The six scalar closure relations, keyed by the matrix entry they
    come from (row-column of lhs - rhs).  Entry 13 is a structural zero;
    21, 31, 32 repeat 12, 13, 23 under u1 <-> u3 and are not repeated."""
    t1, t2, t3 = _triples(u1, u3, k)
    s1, c1, d1 = t1.as_tuple()
    s2, c2, d2 = t2.as_tuple()
    s3, c3, d3 = t3.as_tuple()
    kk = k * k
    return {
        "11": c2 - c1 * c3 + d2 * s1 * s3,
        "12": d1 * s2 - c1 * s3 - d2 * s1 * c3,
        "13": k * (s2 * s1 - s1 * s2),
        "22": c2 * d1 * d3 - kk * s1 * s3 + s1 * s3 - c1 * c3 * d2,
        "23": -c1 * k * s2 + d1 * k * s3 + d3 * k * s1 * c2,
        "33": -d2 + d1 * d3 - c2 * kk * s1 * s3,
    }
