"""Lattice-sum kernel behind the genus-2 theta evaluator.

The kernel computes the truncated double series

    sum_{|m|,|n| <= R} exp( pi*i*(tau1*M^2 + tau2*N^2 + 2*tau12*M*N)
                            + 2*pi*i*(M*xs + N*ys) )

with M = m + a2, N = n + c2, where a2, c2 are the (halved) upper
characteristic entries and xs, ys already include the lower-row shift
(xs = x + b/2, ys = y + d/2).  It takes two input shapes: scalars, one
characteristic at one (z, tau), for theta_eval; or numpy arrays of shape
(C,) for a2, c2, xs, ys, tau1, tau2 and tau12, one period matrix per
row, for every batch of C rows that share R.  Each row's sum is
bit-identical to its scalar call, since every term is formed by the same
expressions in the same order and each window is reduced on its own.
At radius 4 (numpy, 2-core host, best of 9 repeats, floor -40) one row
takes 26-31 us as a scalar call and 42-50 us as a batch of one, and 16
or 28 rows take 86-144 us.
The index lines m and n enter the products as complex128 (line()): a
call mixing a float line with complex operands converts it to exactly
m + 0j but costs about 0.9 us more (1.51 against 0.65 us at 21
elements), and the scalar call took 34-40 us with such calls.

Drop rule.  A floor, scalar or one per row, names the smallest exponent
real part (log-modulus) worth exponentiating: a term whose exponent has
real part below it is set to 0, every other term is exp of the same
exponent as in the full window, and the window is summed pairwise as a
whole, zeros included.  A row's sum therefore moves from the full-window
sum only by its dropped terms, at most (2R+1)^2 of them, each below
exp(floor) in modulus.  theta_core.window_for computes the floor, as
its docstring derives it, so that they sum to less than the slack the
tail bound leaves below eps_tail.
The default floor -inf keeps every term.  A NaN exponent is kept, so it
still makes the sum non-finite.
"""

from __future__ import annotations

import functools
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
    complex for scalar inputs, else an array of C sums."""
    if not isinstance(a2, np.ndarray):
        return complex(_window_sums(floor, *_cached_line(radius, a2),
                                    *_cached_line(radius, c2), xs, ys, tau1,
                                    tau2, tau12))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    rows = [np.broadcast_to(floor, a2.shape)[:, None, None],
            *line(k + a2[:, None]), *line(k + c2[:, None]), xs[:, None],
            ys[:, None], tau1[:, None], tau2[:, None], tau12[:, None, None]]
    step = max(1, GRID_POINTS // k.size ** 2)
    if len(a2) <= step:
        return _window_sums(*rows)
    return np.concatenate([_window_sums(*(v[i:i + step] for v in rows))
                           for i in range(0, len(a2), step)])


def line(m):
    """The index line m = k + offset (float) as the two complex lines its
    exponent products read: m + 0j and 2*pi*i*m, each product bit for bit
    that of the float line."""
    m = m.astype(complex)
    return m, 2j * np.pi * m


@functools.lru_cache(maxsize=256)
def _cached_line(radius: int, offset: float):
    """line() of a scalar offset, read only.  The kernel offsets take 4
    values, so 256 entries (0.6 MB at radius 60) hold every line that
    radii up to 60 use."""
    lines = line(np.arange(-radius, radius + 1, dtype=np.float64) + offset)
    for v in lines:
        v.flags.writeable = False
    return lines


def exponents(m, tm, n, tn, xs, ys, tau1, tau2, tau12):
    """The exponent of every term of each window, formed in place from the
    lines (m, 2*pi*i*m) and (n, 2*pi*i*n) of line(): lines of shape (C, K)
    and offsets of shape (C, 1) give a (C, K, K) grid, lines of shape (K,)
    and scalars one (K, K) grid.  Per-row periods come as tau1, tau2 of
    shape (C, 1) and tau12 of shape (C, 1, 1)."""
    row = 1j * np.pi * tau1 * m * m + tm * xs
    col = 1j * np.pi * tau2 * n * n + tn * ys
    grid = row[..., :, None] + col[..., None, :]
    grid += 2j * np.pi * tau12 * (
        m.real[..., :, None] * n.real[..., None, :]).astype(complex)
    return grid


def _window_sums(floor, *lines_offsets_and_periods):
    """The sum of each window: exp of the exponents whose real part is not
    below floor (a scalar, or shape (C, 1, 1)), zeros elsewhere."""
    grid = exponents(*lines_offsets_and_periods)
    terms = np.zeros_like(grid)
    np.exp(grid, out=terms, where=~(grid.real < floor))
    return terms.sum(axis=(-2, -1))
