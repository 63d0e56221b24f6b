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

Box.  A scalar call with box=True at radius BOX_RADIUS or more forms the
exponents and the mask only inside floor_box, the index box of the
ellipse of terms whose computed log-modulus can reach the floor (a
median of 12 % of the square for the benchmark's theta-eval windows at
radius 16 or more).  Their exp goes into that box of a zeroed (2R+1)^2
grid, which is summed whole as above: every kept term, every zero and
the pairwise order are unchanged, so the sum is the same bit for bit.
theta_eval asks for it only where its window is not loud
(theta_core._window): where forming an exponent may overflow, a real
part can be NaN outside the box, which the full window keeps and the
box, formed from Im parts, cannot see.  The batched shape always forms
the full grid: a box per slice of rows measured slower.
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

# Smallest radius at which a scalar call with box=True forms only the
# exponents inside floor_box.  theta_eval with the box over without,
# median of 150 inputs of the benchmark's theta-eval draw per radius, min
# of 7 interleaved calls each (2-core x86-64 host, numpy 2.4): 1.04 at
# radius 10, 1.002 at 11, 0.970 at 12, 0.950 at 14, 0.918 at 16.  In the
# benchmark's stream of fresh calls a box call also slows the call after
# it (about 4 %), and a gate of 12 read the same as 16 on every theta-eval
# metric (6 rounds), so the gate keeps that margin.
BOX_RADIUS = 16


def lattice_sum(a2, c2, xs, ys, tau1, tau2, tau12, radius: int,
                floor=-math.inf, box: bool = False):
    """The sum over the (2R+1)^2 window, pairwise summation, terms whose
    log-modulus is below floor (a scalar, or one per row) set to 0: a
    complex for scalar inputs, else an array of C sums.  With box, a
    scalar call at radius BOX_RADIUS or more forms exponents only inside
    floor_box, the same sum bit for bit; a caller asks for it only where
    no exponent of the window can overflow (theta_core._window)."""
    if not isinstance(a2, np.ndarray):
        if box and radius >= BOX_RADIUS:
            return complex(_box_sum(
                floor, floor_box(radius, a2, c2, xs, ys, tau1, tau2, tau12,
                                 floor), *_cached_line(radius, a2),
                *_cached_line(radius, c2), xs, ys, tau1, tau2, tau12))
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


def _box_sum(floor, box, m, tm, n, tn, *offsets_and_periods):
    """_window_sums of one window whose exponents are formed only inside
    box, a pair of slices (floor_box), into a zeroed (2R+1)^2 grid: the
    same kept terms, zeros and pairwise order."""
    rows, cols = box
    grid = exponents(m[rows], tm[rows], n[cols], tn[cols],
                     *offsets_and_periods)
    terms = np.zeros((m.size, n.size), dtype=complex)
    np.exp(grid, out=terms[rows, cols], where=~(grid.real < floor))
    return terms.sum(axis=(-2, -1))


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
