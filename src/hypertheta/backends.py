"""Lattice-sum kernel behind the genus-2 theta evaluator.

The kernel computes the truncated double series

    sum_{|m|,|n| <= R} exp( pi*i*(tau1*M^2 + tau2*N^2 + 2*tau12*M*N)
                            + 2*pi*i*(M*xs + N*ys) )

with M = m + a2, N = n + c2, where a2, c2 are the (halved) upper
characteristic entries and xs, ys already include the lower-row shift
(xs = x + b/2, ys = y + d/2).  It takes two input shapes: scalars, one
characteristic at one (z, tau), for theta_eval, summed by _scalar_sum;
or numpy arrays of shape (C,) for a2, c2, xs, ys, tau1, tau2 and tau12,
one period matrix per row, for every batch of C rows that share R,
summed by _window_sums.  Each row's sum is bit-identical to its scalar
call, since both routines form every term by exponents' expressions in
its order and reduce each window on its own.
At radius 4 (numpy, 2-core host, best of 9 repeats, floor -40) one row
takes 13-15 us as a scalar call and 27-31 us as a batch of one, and 16
or 28 rows take 55-77 us.
The index lines m and n enter the products as complex128 (line()): a
call mixing a float line with complex operands converts it to exactly
m + 0j but costs about 0.9 us more (1.51 against 0.65 us at 21
elements).

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

Scalar windows.  _scalar_sum reads its index lines from _cached_line
and, below BOX_RADIUS, the cross term's factor M*N from a centred slice
of _cross_grid: one read-only grid per offset pair (a2, c2) at radius
CROSS_RADIUS, 16 grids of 15 KB.  That spares each call an outer product
and a float-to-complex cast, about 2.2 us at radius 9.  quiet=True says
that no exponent of the window can overflow (theta_eval passes it where
its window is not loud, theta_core._window); such a window has no NaN
exponent, so one comparison, grid.real >= floor, masks it.  From
BOX_RADIUS on, a quiet window also forms the exponents and the mask only inside
floor_box, the index box of the ellipse of terms whose computed
log-modulus can reach the floor (a median of 12 % of the square for the
benchmark's theta-eval windows at radius 16 or more), and writes their
exp into that part of the zeroed (2R+1)^2 grid, which is summed whole as
above: every kept term, every zero and the pairwise order are unchanged,
so the sum is the same bit for bit.  Where forming an exponent may
overflow, a real part can be NaN outside the box, which the full window
keeps and the box, formed from Im parts, cannot see.  The batched shape
always forms the full grid: a box per slice of rows measured slower.

Residues.  A batched call with split also returns, for the rows it
marks, the 16 partial sums of the summed window over (m mod 4, n mod 4)
(residue_sums), from which theta_core.KernelBatch forms the other rows
of the row's upper class.  For 8 windows at radius 4-16 they take 5.5-7
times a plain sum of the windows (8.6 against 1.5 us at radius 4; timeit,
2-core x86-64 host, numpy 2.4), so only the first row of a class of two
or more rows asks for them.
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

# Smallest radius at which a scalar call with quiet=True forms only the
# exponents inside floor_box.  theta_eval with the box over without,
# median of 150 inputs of the benchmark's theta-eval draw per radius, min
# of 7 interleaved calls each (2-core x86-64 host, numpy 2.4): 1.04 at
# radius 10, 1.002 at 11, 0.970 at 12, 0.950 at 14, 0.918 at 16.  In the
# benchmark's stream of fresh calls a box call also slows the call after
# it (about 4 %), and a gate of 12 read the same as 16 on every theta-eval
# metric (6 rounds), so the gate keeps that margin.
BOX_RADIUS = 16


def lattice_sum(a2, c2, xs, ys, tau1, tau2, tau12, radius: int,
                floor=-math.inf, quiet: bool = False, split=None):
    """The sum over the (2R+1)^2 window, pairwise summation, terms whose
    log-modulus is below floor (a scalar, or one per row) set to 0: a
    complex for scalar inputs (_scalar_sum), else an array of C sums
    (_window_sums).  quiet tells a scalar call that no exponent of its
    window can overflow (theta_core._window), so it masks with one
    comparison and, at radius BOX_RADIUS or more, forms exponents only
    inside floor_box: the same sum bit for bit.  With split, a boolean
    per row of a batch, it returns the C sums and the residue_sums of the
    rows split marks, in order: shape (P, 4, 4)."""
    if not isinstance(a2, np.ndarray):
        return _scalar_sum(a2, c2, xs, ys, tau1, tau2, tau12, radius, floor,
                           quiet)
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    rows = [np.broadcast_to(floor, a2.shape)[:, None, None],
            *line(k + a2[:, None]), *line(k + c2[:, None]), xs[:, None],
            ys[:, None], tau1[:, None], tau2[:, None], tau12[:, None, None]]
    step = max(1, GRID_POINTS // k.size ** 2)
    if len(a2) <= step:
        return _window_sums(*rows, split=split)
    parts = [_window_sums(*(v[i:i + step] for v in rows),
                          split=None if split is None else split[i:i + step])
             for i in range(0, len(a2), step)]
    if split is None:
        return np.concatenate(parts)
    return tuple(map(np.concatenate, zip(*parts)))


def line(m):
    """The index line m = k + offset (float) as the two complex lines its
    exponent products read: m + 0j and 2*pi*i*m, each product bit for bit
    that of the float line."""
    m = m.astype(complex)
    return m, 2j * np.pi * m


@functools.lru_cache(maxsize=256)
def _cached_line(radius: int, offset: float):
    """line() of a scalar offset, read only, for _scalar_sum.  The kernel
    offsets take 4 values, so 256 entries (0.6 MB at radius 60) hold
    every line that radii up to 60 use."""
    lines = line(np.arange(-radius, radius + 1, dtype=np.float64) + offset)
    for v in lines:
        v.flags.writeable = False
    return lines


# Radius of the cross-term grids of _cross_grid: every scalar window below
# BOX_RADIUS reads a centred slice of one.
CROSS_RADIUS = BOX_RADIUS - 1


@functools.lru_cache(maxsize=16)
def _cross_grid(a2: float, c2: float) -> np.ndarray:
    """M*N = (m + a2)*(n + c2) over |m|, |n| <= CROSS_RADIUS as complex,
    read only: the cross term's factor that exponents forms per call.  A
    window of radius R < 16 is the slice [15 - R : 16 + R] on both axes,
    the same floats, since each line entry k + a2 is formed alike (and
    the products of the kernel offsets, multiples of 1/4 with small
    numerators, are exact).  One grid per offset pair: 16 of 15 KB."""
    k = np.arange(-CROSS_RADIUS, CROSS_RADIUS + 1, dtype=np.float64)
    grid = ((k + a2)[:, None] * (k + c2)[None, :]).astype(complex)
    grid.flags.writeable = False
    return grid


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


def _scalar_sum(a2, c2, xs, ys, tau1, tau2, tau12, radius, floor, quiet):
    """lattice_sum of one window: exponents' expressions in its order on
    the cached lines, so bit for bit the sum of a batch of one.  Below
    BOX_RADIUS the cross term's M*N is a slice of _cross_grid.  From
    BOX_RADIUS on, a quiet window (no exponent can overflow) forms its
    exponents only inside floor_box, any other the whole square, each
    forming M*N as exponents does.  A quiet window masks with grid.real
    >= floor, which is ~(grid.real < floor) where no exponent is NaN; any
    other keeps its NaN exponents."""
    m, tm = _cached_line(radius, a2)
    n, tn = _cached_line(radius, c2)
    terms = out = np.zeros((m.size, n.size), dtype=complex)
    if radius < BOX_RADIUS:
        ends = slice(CROSS_RADIUS - radius, CROSS_RADIUS + radius + 1)
        cross = _cross_grid(a2, c2)[ends, ends]
    else:
        if quiet:
            box = rows, cols = floor_box(radius, a2, c2, xs, ys, tau1, tau2,
                                         tau12, floor)
            m, tm, n, tn = m[rows], tm[rows], n[cols], tn[cols]
            out = terms[box]
        cross = (m.real[:, None] * n.real[None, :]).astype(complex)
    row = 1j * np.pi * tau1 * m * m + tm * xs
    col = 1j * np.pi * tau2 * n * n + tn * ys
    grid = row[:, None] + col[None, :]
    grid += 2j * np.pi * tau12 * cross
    np.exp(grid, out=out,
           where=grid.real >= floor if quiet else ~(grid.real < floor))
    return complex(terms.sum())


def _window_sums(floor, m, tm, n, tn, *offsets_and_periods, split=None):
    """The sum of each window of a batch: exp of the exponents whose real
    part is not below floor (shape (C, 1, 1)), zeros elsewhere.  With
    split, a boolean per window, also the residue_sums of those windows."""
    terms = np.zeros(m.shape + n.shape[-1:], dtype=complex)
    grid = exponents(m, tm, n, tn, *offsets_and_periods)
    np.exp(grid, out=terms, where=~(grid.real < floor))
    if split is None:
        return terms.sum(axis=(-2, -1))
    return terms.sum(axis=(-2, -1)), residue_sums(terms[split])


def residue_sums(terms):
    """The 16 partial sums of each (2R+1)^2 window of terms, shape (P, K,
    K), over the residues of its indices: [p, q] sums the terms with m = p
    and n = q mod 4, m = n = 0 at the window's centre.  The window is
    copied into a zeroed grid whose sides are multiples of 4, placed so
    that a grid index is m mod 4, and summed along its folds."""
    count, k = len(terms), terms.shape[-1]
    lead = -(k // 2) % 4
    size = -(-(k + lead) // 4)
    grid = np.zeros((count, 4 * size, 4 * size), dtype=complex)
    grid[:, lead:lead + k, lead:lead + k] = terms
    return grid.reshape(count, size, 4, size, 4).sum(axis=1).sum(axis=2)


def floor_box(radius: int, a2: float, c2: float, xs: complex, ys: complex,
              tau1: complex, tau2: complex, tau12: complex,
              floor: float) -> tuple[slice, slice]:
    """The index box (rows, cols) of the window that holds every term
    whose computed exponent has real part at least floor, for valid
    periods; the whole window where the box is not finite.

    With Y = Im tau, w = Im(xs, ys) and v = (M, N) = (m + a2, n + c2), a
    term's log-modulus is -pi*v'Yv - 2*pi*w.v = -pi*(v + u)'Y(v + u) +
    pi*w.u with u = Y^-1 w.  The kernel forms it (exponents) from five
    pieces, pi*Y11*M^2, pi*Y22*N^2, 2*pi*Y12*M*N, 2*pi*w1*M and 2*pi*w2*N,
    whose moduli sum to at most s = pi*(Y11 + Y22 + 2|Y12|)(R+1)^2 +
    2*pi*(|w1| + |w2|)(R+1), since |M|, |N| <= R + 1; it errs by a few
    ulps of s.  So a term whose computed log-modulus reaches floor has
    (v + u)'Y(v + u) <= r^2 - 1e-6/pi, where r^2 = w.u + (delta - floor)/pi
    and delta = 1e-9*s + 1e-6, and then |v_k + u_k| <= r*sqrt((Y^-1)_kk)
    (Cauchy-Schwarz).  The box holds the indices of that range of v that
    are not negative; slicing clips the stops to the window.
    Forming the box errs by a few ulps of R + |u| + h (h the half-width),
    times kappa = Y11*Y22/det Y for the cancellation in det Y.  In the
    windows theta_eval sums, |u| <= sqrt(2)*rho/lambda_min < sqrt(2)*R
    (window_for), and a half-width that ends inside the window is below
    about 4R; there the part 1e-9*s of delta widens it by at least
    1e-10*kappa*R, four orders more.
    So each term outside the box is below floor, and set to 0, in the
    full window too.  This holds only where no exponent overflows: an
    overflowed real part gives a NaN exponent, which the kernel keeps and
    the box, formed from Im parts, cannot see."""
    y1, y2, y12 = tau1.imag, tau2.imag, tau12.imag
    w1, w2 = xs.imag, ys.imag
    det = y1 * y2 - y12 * y12
    u1 = (y2 * w1 - y12 * w2) / det
    u2 = (y1 * w2 - y12 * w1) / det
    k = radius + 1.0
    delta = 1e-9 * math.pi * ((y1 + y2 + 2.0 * abs(y12)) * k * k
                              + 2.0 * (abs(w1) + abs(w2)) * k) + 1e-6
    r2 = w1 * u1 + w2 * u2 + (delta - floor) / math.pi
    if 0.0 < det < math.inf and 0.0 < r2 < math.inf:
        h1, h2 = (r2 * y2 / det) ** 0.5, (r2 * y1 / det) ** 0.5
        if h1 + h2 < math.inf:
            lo1, hi1 = radius - a2 - u1 - h1, radius - a2 - u1 + h1
            lo2, hi2 = radius - c2 - u2 - h2, radius - c2 - u2 + h2
            # -(-lo // 1) is ceil(lo), and int(hi) is floor(hi) for hi >=
            # 0: cheaper than calls to math.ceil, math.floor and max.
            return (slice(-int(-lo1 // 1) if lo1 > 0 else 0,
                          int(hi1) + 1 if hi1 >= 0 else 0),
                    slice(-int(-lo2 // 1) if lo2 > 0 else 0,
                          int(hi2) + 1 if hi2 >= 0 else 0))
    return slice(0, 2 * radius + 1), slice(0, 2 * radius + 1)
