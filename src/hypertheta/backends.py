"""Lattice-sum kernel behind the genus-2 theta evaluator.

The kernel computes the truncated double series

    sum_{|m|,|n| <= R} exp( pi*i*(tau1*M^2 + tau2*N^2 + 2*tau12*M*N)
                            + 2*pi*i*(M*xs + N*ys) )

with M = m + a2, N = n + c2, where a2, c2 are the (halved) upper
characteristic entries and xs, ys already include the lower-row shift
(xs = x + b/2, ys = y + d/2).
"""

from __future__ import annotations

import numpy as np

BACKEND_NAME = "numpy"


def lattice_sum(a2: float, c2: float, xs: complex, ys: complex,
                tau1: complex, tau2: complex, tau12: complex,
                radius: int) -> complex:
    """One (2R+1)^2 exp call over the window, pairwise summation."""
    m = np.arange(-radius, radius + 1, dtype=np.float64) + a2
    n = np.arange(-radius, radius + 1, dtype=np.float64) + c2
    row = 1j * np.pi * tau1 * m * m + 2j * np.pi * m * xs
    col = 1j * np.pi * tau2 * n * n + 2j * np.pi * n * ys
    cross = 2j * np.pi * tau12 * np.outer(m, n)
    return complex(np.exp(row[:, None] + col[None, :] + cross).sum())
