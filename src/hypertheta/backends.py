"""Lattice-sum kernel behind the genus-2 theta evaluator.

The kernel computes the truncated double series

    sum_{|m|,|n| <= R} exp( pi*i*(tau1*M^2 + tau2*N^2 + 2*tau12*M*N)
                            + 2*pi*i*(M*xs + N*ys) )

with M = m + a2, N = n + c2, where a2, c2 are the (halved) upper
characteristic entries and xs, ys already include the lower-row shift
(xs = x + b/2, ys = y + d/2).  Given numpy arrays of shape (C,) for a2,
c2, xs and ys, one call sums C characteristics that share R; tau1, tau2
and tau12 are either scalars shared by all rows or arrays of shape (C,),
one period matrix per row.  Each sum is bit-identical to the scalar call,
since every term is formed by the same expressions in the same order and
each window is reduced on its own.

Drop rule.  A floor, scalar or one per row, names the smallest exponent
real part (log-modulus) worth exponentiating: a term whose exponent has
real part below it is set to 0, every other term is exp of the same
exponent as in the full window, and the window is summed pairwise as a
whole, zeros included.  A row's sum therefore moves from the full-window
sum only by its dropped terms, at most (2R+1)^2 of them, each below
exp(floor) in modulus.  theta_core.window_for computes the floor, as
radius_for's docstring derives it, so that they sum to less than the
slack the tail bound leaves below eps_tail.
The default floor -inf keeps every term.  A NaN exponent is kept, so it
still makes the sum non-finite.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND_NAME = "numpy"

# Most lattice points one exp grid holds (128 KB of complex terms), so the
# memory of a batch does not grow with its size: larger batches are summed
# a slice of characteristics at a time.
GRID_POINTS = 8192


def lattice_sum(a2, c2, xs, ys, tau1, tau2, tau12, radius: int,
                floor=-math.inf):
    """The sum over the (2R+1)^2 window, pairwise summation, terms whose
    log-modulus is below floor (a scalar, or one per row) set to 0: a
    complex for scalar offsets, else an array of C sums."""
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    if not isinstance(a2, np.ndarray):
        return complex(_window_sums(k, floor, a2, c2, xs, ys, tau1, tau2,
                                    tau12))
    rows = [np.broadcast_to(floor, a2.shape)[:, None, None]]
    rows += [v[:, None] for v in (a2, c2, xs, ys)]
    shared = (tau1, tau2, tau12)
    if isinstance(tau1, np.ndarray):
        rows += [tau1[:, None], tau2[:, None], tau12[:, None, None]]
        shared = ()
    step = max(1, GRID_POINTS // k.size ** 2)
    if len(a2) <= step:
        return _window_sums(k, *rows, *shared)
    return np.concatenate([
        _window_sums(k, *(v[i:i + step] for v in rows), *shared)
        for i in range(0, len(a2), step)])


def exponents(k, a2, c2, xs, ys, tau1, tau2, tau12):
    """The exponent of every term of each window, formed in place; offsets
    of shape (C, 1) give a (C, K, K) grid, scalars one (K, K) grid.
    Per-row periods come as tau1, tau2 of shape (C, 1) and tau12 of shape
    (C, 1, 1)."""
    m = k + a2
    n = k + c2
    row = 1j * np.pi * tau1 * m * m + 2j * np.pi * m * xs
    col = 1j * np.pi * tau2 * n * n + 2j * np.pi * n * ys
    grid = row[..., :, None] + col[..., None, :]
    grid += 2j * np.pi * tau12 * (m[..., :, None] * n[..., None, :])
    return grid


def _window_sums(k, floor, *offsets_and_periods):
    """The sum of each window: exp of the exponents whose real part is not
    below floor (a scalar, or shape (C, 1, 1)), zeros elsewhere."""
    grid = exponents(k, *offsets_and_periods)
    terms = np.zeros_like(grid)
    np.exp(grid, out=terms, where=~(grid.real < floor))
    return terms.sum(axis=(-2, -1))
