"""Genus-2 theta functions with (half-)integer characteristics.

The central object is

    theta[a c; b d](x, y; tau) =
        sum_{m,n in Z} exp( pi*i*( tau1*(m+a/2)^2 + tau2*(n+c/2)^2
                                   + 2*tau12*(m+a/2)*(n+c/2) )
                            + 2*pi*i*( (m+a/2)*(x+b/2) + (n+c/2)*(y+d/2) ) )

evaluated by truncated lattice summation over a square window
max(|m|, |n|) <= R, with R chosen from a rigorous tail bound T(R) <
eps_tail.  Within the window only the terms that the unused slack
eps_tail - T(R) cannot absorb are exponentiated: a term whose log-modulus
is below log((eps_tail - T(R)) / (2R+1)^2) is set to 0, so the dropped
terms and the tail together stay below eps_tail (window_for,
backends.lattice_sum).  windows_for runs the same scan over arrays of
windows, bit for bit, each step testing every unsettled window at its
own next radius: numpy does its IEEE arithmetic, but its logs are math's
mapped over lists, since numpy's SIMD log is not libm's.

Every batched sum takes one path: truncation_windows windows arrays of
(z, tau) in one windows_for call, giving each window it refuses
truncation_window's exception, and KernelBatch sums tables of
characteristics at such windows, theta_eval's values bit for bit.  Where
asked (theta_values, the addition law's blocks), the rows of a table that
share an upper row (reduced) form a class: they differ only by a real
half-period shift of z, so they share one exponent grid up to powers of
i.  The kernel then sums the first row of each class, theta_eval's value
bit for bit, and its 16 residue sums, from which the class's other rows
follow.  Those differ from theta_eval's values by rounding only, of the
order of theta_eval's own rounding error (KernelBatch.values gives the
bound).  The characteristic quadruple is
written [a c; b d]: upper row (a, c), lower row (b, d), column pairing
(a, b) and (c, d).  Entries are exact rationals with denominator 1 or 2.

Doubled-period values ("capital Theta") are plain evaluations at
double_periods(tau) = (2*tau1, 2*tau2, 2*tau12).
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import NamedTuple

import numpy as np

from .backends import lattice_sum


class InvalidPeriod(ValueError):
    """Period matrix violates the positive-definite-imaginary-part condition."""


class RadiusExceeded(RuntimeError):
    """No summation radius within max_radius meets the tail target."""


class NonFiniteSum(ArithmeticError):
    """The truncated lattice sum overflowed to a non-finite value."""


def _as_frac(value) -> Fraction:
    """Coerce one characteristic entry to an exact rational with den 1 or 2."""
    if isinstance(value, Fraction):
        f = value
    elif isinstance(value, int):
        f = Fraction(value)
    elif isinstance(value, str):
        f = Fraction(value.strip())
    elif isinstance(value, float):
        f = Fraction(value).limit_denominator(2)
        if float(f) != value:
            raise ValueError(f"characteristic entry {value!r} is not a multiple of 1/2")
    else:
        raise TypeError(f"cannot build a characteristic entry from {value!r}")
    if f.denominator not in (1, 2):
        raise ValueError(f"characteristic entry {f} has denominator {f.denominator}; "
                         "only 1 and 2 occur")
    return f


# i**q for q = 0..3.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class _memo:
    """functools.cached_property without its lock: the first access on an
    object computes the value and stores it in the object's __dict__, which
    later lookups read first, since this descriptor defines no __set__.
    cached_property takes a lock on every first access (Python 3.11); two
    threads racing here both compute the same value."""

    def __init__(self, func) -> None:
        self.func, self.name = func, func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class ThetaCharacteristic:
    """The quadruple [a c; b d]; all entries multiples of 1/2."""

    a: Fraction
    c: Fraction
    b: Fraction
    d: Fraction

    @classmethod
    def of(cls, a, c, b, d) -> "ThetaCharacteristic":
        return cls(_as_frac(a), _as_frac(c), _as_frac(b), _as_frac(d))

    @property
    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.c, self.b, self.d)

    def _reduction(self) -> tuple[tuple[int, int, int, int], int]:
        """Doubled entries of the reduced form and q with theta[self] =
        i**q * theta[reduced], in integers from the doubled entries k = 2e.

        Shifting a or c by 2 is an exact reindex of the lattice; each step
        of 2 folded out of b (d) contributes exp(pi*i*a) (exp(pi*i*c)), that
        is ka (kc) quarter turns, and k // 4 such steps are folded out.
        """
        ka, kc, kb, kd = [n * (2 // d) for n, d in (
            self.a.as_integer_ratio(), self.c.as_integer_ratio(),
            self.b.as_integer_ratio(), self.d.as_integer_ratio())]
        q = (ka * (kb // 4) + kc * (kd // 4)) % 4
        return (ka % 4, kc % 4, kb % 4, kd % 4), q

    @_memo
    def _kernel(self) -> tuple[float, float, float, float, complex]:
        """(a0/2, c0/2, b0/2, d0/2, phase) of reduce(), the offsets as floats;
        computed once per object."""
        (ka, kc, kb, kd), q = self._reduction()
        return ka / 4, kc / 4, kb / 4, kd / 4, _PHASES[q]

    def reduce(self) -> tuple["ThetaCharacteristic", complex]:
        """Canonical form with entries in [0, 2) and the exact phase unit:
        theta[self](z; tau) = phase * theta[reduced](z; tau) for all z, tau."""
        reduced, q = self._reduction()
        return (ThetaCharacteristic(*(Fraction(k, 2) for k in reduced)),
                _PHASES[q])

    def as_json(self) -> list[list[int]]:
        return [[e.numerator, e.denominator] for e in self.entries]

    @classmethod
    def from_json(cls, data) -> "ThetaCharacteristic":
        return cls.of(*(Fraction(num, den) for num, den in data))

    def __str__(self) -> str:
        def fmt(e: Fraction) -> str:
            return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/2"
        return f"[{fmt(self.a)} {fmt(self.c)}; {fmt(self.b)} {fmt(self.d)}]"


class Scale(enum.Enum):
    BASE = "base"
    DOUBLED = "doubled"


@dataclass(frozen=True)
class PeriodMatrix:
    """(tau1, tau2, tau12) with positive-definite imaginary part."""

    tau1: complex
    tau2: complex
    tau12: complex
    scale: Scale = Scale.BASE

    def validate(self) -> float:
        """lambda_min of valid periods; where it is NaN, raises
        InvalidPeriod naming the failed condition."""
        lam = self.lambda_min
        if math.isnan(lam):
            entries = (self.tau1, self.tau2, self.tau12)
            if not all(map(cmath.isfinite, entries)):
                raise InvalidPeriod(f"non-finite period entry in {self}")
            i1, i2, i12 = self.tau1.imag, self.tau2.imag, self.tau12.imag
            raise InvalidPeriod(
                f"Im part not positive definite: Im tau1={i1}, Im tau2={i2}, Im tau12={i12}")
        return lam

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of the 2x2 imaginary part, NaN where the
        matrix is invalid (lambda_min below)."""
        return lambda_min(self.tau1, self.tau2, self.tau12)


def lambda_min(tau1: complex, tau2: complex, tau12: complex) -> float:
    """Smallest eigenvalue of the Im part of the periods, or NaN where they
    are invalid: an entry not finite, or the Im part not positive definite.
    This is the one validity test; PeriodMatrix.validate raises where it
    gives NaN, and truncation_windows reads it per window.

    The eigenvalue is the determinant over the largest one: the difference
    of half the trace and the hypot cancels when the eigenvalues are far
    apart.  Where i1*i2 - i12^2 overflows (entries above about 1e154), the
    entries are first multiplied by the exact power of two s that brings
    the largest into [0.5, 1).  Scaling by s rounds nothing, so the
    determinant keeps its sign; entries whose products do not overflow
    are used as they are, so no value moves."""
    if not (cmath.isfinite(tau1) and cmath.isfinite(tau2)
            and cmath.isfinite(tau12)):
        return math.nan
    i1, i2, i12 = tau1.imag, tau2.imag, tau12.imag
    det, s = i1 * i2 - i12 * i12, 1.0
    if not math.isfinite(det):
        s = math.ldexp(1.0, -math.frexp(max(abs(i1), abs(i2), abs(i12)))[1])
        i1, i2, i12 = i1 * s, i2 * s, i12 * s
        det = i1 * i2 - i12 * i12
    if i1 <= 0 or i2 <= 0 or det <= 0:
        return math.nan
    return det / (0.5 * (i1 + i2) + math.hypot(0.5 * (i1 - i2), i12)) / s


def double_periods(tau: PeriodMatrix) -> PeriodMatrix:
    """The doubled-period matrix (2*tau1, 2*tau2, 2*tau12)."""
    if tau.scale is not Scale.BASE:
        raise ValueError("periods are already doubled")
    return PeriodMatrix(2 * tau.tau1, 2 * tau.tau2, 2 * tau.tau12, Scale.DOUBLED)


@dataclass(frozen=True)
class EvalPoint:
    """An argument pair (x, y); the same type carries (u, v), (u1, v1), ..."""

    x: complex = 0j
    y: complex = 0j

    def validate(self) -> None:
        if not (cmath.isfinite(self.x) and cmath.isfinite(self.y)):
            raise ValueError(f"non-finite evaluation point {self}")

    def __add__(self, other: "EvalPoint") -> "EvalPoint":
        return EvalPoint(self.x + other.x, self.y + other.y)

    def scaled(self, k: float) -> "EvalPoint":
        return EvalPoint(k * self.x, k * self.y)


ORIGIN = EvalPoint(0j, 0j)


@dataclass(frozen=True)
class PrecisionPolicy:
    eps_tail: float = 1e-14
    max_radius: int = 60
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not all(0 < t < math.inf
                   for t in (self.eps_tail, self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive and finite")
        if (not isinstance(self.max_radius, numbers.Integral)
                or isinstance(self.max_radius, bool)):
            raise ValueError(
                f"max_radius must be an integer, not {self.max_radius!r}")
        if self.max_radius < 1:
            raise ValueError("max_radius must be >= 1")


DEFAULT_POLICY = PrecisionPolicy()


def truncation_radius(ch: ThetaCharacteristic, z: EvalPoint, tau: PeriodMatrix,
                      eps_tail: float = DEFAULT_POLICY.eps_tail,
                      max_radius: int = DEFAULT_POLICY.max_radius) -> int:
    """The radius of truncation_window(z, tau, eps_tail, max_radius).  ch
    is not read: the radius does not depend on the characteristic (the
    lower-row shift is real and drops out of the modulus, and the
    upper-row offsets the kernel sums are reduced to [0, 1)).  Kept for
    eval's printed radius and for the benchmark, which call it in this
    form; the evaluators take their windows from truncation_window and
    truncation_windows."""
    return truncation_window(z, tau, eps_tail, max_radius)[0]


def truncation_window(z: EvalPoint, tau: PeriodMatrix,
                      eps_tail: float = DEFAULT_POLICY.eps_tail,
                      max_radius: int = DEFAULT_POLICY.max_radius
                      ) -> tuple[int, float]:
    """window_for at tau's lambda_min and rho = max(|Im x|, |Im y|) of z,
    after tau and then z are validated: the radius and drop floor that
    theta_eval and theta_values sum with."""
    return _window(z, tau, eps_tail, max_radius)[:2]


def _window(z: EvalPoint, tau: PeriodMatrix, eps_tail: float,
            max_radius: int) -> tuple[int, float, bool]:
    """truncation_window's radius and floor, and whether the window's own
    bound admits an overflow: every term has log-modulus at most
    2*pi*rho^2/lam (window_for's f(t) at its peak, once per index), so
    the (2R+1)^2 terms and their sum stay finite unless that bound plus
    2*log(2R+1) reaches log of the largest float.  Below rho^2/lam = 100
    that needs 2*log(2R+1) > 81, a radius above 1e17, so one comparison
    clears the terms of ordinary windows.  Forming the exponents
    (backends.exponents) may overflow only where 8*(R+1)^2*(|tau1| + |tau2|
    + |tau12| + |x| + |y| + 2), above each piece of them, reaches it.
    Only there does theta_eval test a term for a certain overflow
    (_must_overflow) and sum under np.errstate (about 2 us to enter), as
    NonFiniteSum says what numpy's warnings would."""
    lam = tau.validate()
    z.validate()
    rho = max(abs(z.x.imag), abs(z.y.imag))
    radius, floor = window_for(lam, rho, eps_tail, max_radius)
    if (rho * rho >= 100.0 * lam and 2.0 * math.pi * rho * rho / lam
            + 2.0 * math.log(2 * radius + 1) >= _LOG_MAX):
        return radius, floor, True
    try:  # abs raises OverflowError for a modulus past the largest float
        size = (abs(tau.tau1) + abs(tau.tau2) + abs(tau.tau12) + abs(z.x)
                + abs(z.y) + 2.0)
    except OverflowError:
        size = math.inf
    return radius, floor, 8.0 * (radius + 1) ** 2 * size >= sys.float_info.max


def _must_overflow(z: EvalPoint, tau: PeriodMatrix, radius: int,
                   a2: float, c2: float) -> bool:
    """Whether one of the window's four terms around the peak of its
    Gaussian has a modulus above sqrt(2) times the largest float, for
    certain.

    The terms are v = (m + a2, n + c2) for the four integer corners m, n of
    the unit cell that holds the peak v* = -(Im tau)^-1 Im(x, y) less the
    offsets, each clipped to |m|, |n| <= R.  Where Im tau is far from
    diagonal the rounded peak need not be the largest of them.  A term's
    log-modulus -pi*v'(Im tau)v - 2*pi*Im(x, y).v is formed here in real
    arithmetic from five pieces of total modulus s, and in the kernel from
    complex products; each evaluation errs by a few ulps of s (at most
    four roundings per piece and four in their sum), far below the margin
    OVERFLOW_MARGIN*s.  The answer is False where v* is not finite (i1*i2 -
    i12^2 overflows), and a term counts only where 2s stays below the
    largest float, so that no piece of the kernel's real part can
    overflow."""
    y1, y2, y12 = tau.tau1.imag, tau.tau2.imag, tau.tau12.imag
    w1, w2 = z.x.imag, z.y.imag
    det = y1 * y2 - y12 * y12
    p1 = (y12 * w2 - y2 * w1) / det - a2
    p2 = (y12 * w1 - y1 * w2) / det - c2
    if not (math.isfinite(p1) and math.isfinite(p2)):
        return False
    for m, n in product((math.floor(p1), math.ceil(p1)),
                        (math.floor(p2), math.ceil(p2))):
        m = min(max(m, -radius), radius) + a2
        n = min(max(n, -radius), radius) + c2
        pieces = (math.pi * y1 * m * m, math.pi * y2 * n * n,
                  2.0 * math.pi * y12 * m * n, 2.0 * math.pi * w1 * m,
                  2.0 * math.pi * w2 * n)
        s = sum(map(abs, pieces))
        if (2.0 * s < math.inf and -sum(pieces)
                > _LOG_MAX + 0.5 * _LOG2 + OVERFLOW_MARGIN * s):
            return True
    return False


_LOG2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)

# Subtracted from the drop floor.  It covers the rounding of exp and of the
# floor's logs (a few ulps), and an absolute error of up to 1e-6 in a
# computed exponent's real part, that is exponent pieces up to about 1e8
# in modulus, so that a dropped term is below the floor also in exact
# arithmetic.
FLOOR_MARGIN = 1e-6

# Relative to the total modulus s of a term's exponent pieces
# (_must_overflow).  The two evaluations of its log-modulus each err by
# about 1e-15*s at most; the rest covers the rounding of exp, of _LOG_MAX
# and of log sqrt(2), about 1e-13, since s exceeds _LOG_MAX wherever the
# margin decides.
OVERFLOW_MARGIN = 1e-12


def window_for(lam: float, rho: float,
               eps_tail: float = DEFAULT_POLICY.eps_tail,
               max_radius: int = DEFAULT_POLICY.max_radius
               ) -> tuple[int, float]:
    """(R, floor): the certified radius for periods whose Im part has
    smallest eigenvalue lam, at a point with rho = max(|Im x|, |Im y|), and
    the drop floor of its window, from one scan.

    Bound used.  Every term satisfies |term| <= f(M)*f(N) with
    f(t) = exp(-pi*lam*t^2 + 2*pi*rho*|t|).  Writing t* = rho/lam for the
    maximiser of f:

      * one full index line sums to at most
        S = 2*exp(pi*rho^2/lam) * (t* + 2 + 1/sqrt(lam))
        (at most t*+2 terms at the peak value plus a Gaussian integral),
      * for R >= t* + 1 the part of one line with |m| > R is at most
        T1(R) = 2*f(R) * (1 + 1/(2*pi*(lam*R - rho)))
        since |m + delta| >= |m| - 1 >= R for the reduced offsets
        delta in [0, 1),
      * the region max(|m|,|n|) > R is covered by two such lines,
        so tail(R) <= T(R) = 2 * S * T1(R).

    The scan returns the first R >= max(2, ceil(t*+1)) with
    T(R) < eps_tail; the bound is monotone in R, so shrinking eps_tail can
    only grow the radius.  Raises RadiusExceeded when no radius up to
    max_radius meets the target, also when lam has rounded to 0 or the
    scan would start past max_radius.  log T1(R) exceeds g(R) = log 2 -
    pi*lam*R^2 + 2*pi*rho*R by a positive log1p term, so no R below the
    larger root r of g(R) = log_target passes, and the scan starts one
    below r (a unit for the rounding of r and of the scan), formed as
    t* + sqrt(t*^2 + (log 2 - log_target)/(pi*lam)), which cannot overflow.

    Drop floor.  floor = log((eps_tail - T(R)) / (2R+1)^2) - FLOOR_MARGIN.
    The kernel sets to 0 each term of the window whose log-modulus is below
    it (backends.lattice_sum).  At most (2R+1)^2 terms are dropped, each
    below (eps_tail - T(R)) / (2R+1)^2, so the dropped terms and the tail
    outside the window together stay below eps_tail.
    """
    t_star = rho / lam if lam > 0 else math.inf
    if t_star + 1.0 <= max_radius:
        log_eps = math.log(eps_tail)
        log_s = _LOG2 + math.pi * rho * rho / lam \
            + math.log(t_star + 2.0 + 1.0 / math.sqrt(lam))
        log_target = log_eps - _LOG2 - log_s
        disc = t_star * t_star + (_LOG2 - log_target) / (math.pi * lam)
        root = t_star + math.sqrt(disc) if disc > 0 else 0.0
        start = max(2, math.ceil(t_star + 1.0),
                    math.ceil(min(root, max_radius + 2)) - 1)
        for radius in range(start, max_radius + 1):
            log_t1 = _LOG2 - math.pi * lam * radius * radius \
                + 2.0 * math.pi * rho * radius \
                + math.log1p(1.0 / (2.0 * math.pi * (lam * radius - rho)))
            if log_t1 < log_target:
                # 1 - T(R)/eps_tail, with T(R)/eps_tail = exp(log_t1 -
                # log_target) < 1; expm1 keeps it positive.
                slack = -math.expm1(log_t1 - log_target)
                return radius, (log_eps + math.log(slack) - FLOOR_MARGIN
                                - 2.0 * math.log(2 * radius + 1))
    raise RadiusExceeded(
        f"tail target {eps_tail} unreachable within radius {max_radius} "
        f"(lambda_min={lam:.3g}, rho={rho:.3g})")


def _mapped(f, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, values.tolist()), float, len(values))


def windows_for(lam: np.ndarray, rho: np.ndarray,
                eps_tail: float = DEFAULT_POLICY.eps_tail,
                max_radius: int = DEFAULT_POLICY.max_radius
                ) -> tuple[np.ndarray, np.ndarray]:
    """window_for of each (lam, rho) pair as arrays of radii and floors, bit
    for bit (radius 0, floor -inf where it raises RadiusExceeded): its
    start and expressions in its order, math's log, log1p and expm1 mapped
    over lists.  Each step tests every unsettled row at its own next
    radius; a row passes with that radius and its floor, and is dropped
    once its next radius would exceed max_radius."""
    radii, floors = np.zeros(len(lam), dtype=int), np.full(len(lam), -math.inf)
    with np.errstate(all="ignore"):
        t_star = np.where(lam > 0, rho / lam, math.inf)
        rows = np.flatnonzero(t_star + 1.0 <= max_radius)
        lam, rho, t_star = lam[rows], rho[rows], t_star[rows]
        log_eps = math.log(eps_tail)
        log_s = _LOG2 + math.pi * rho * rho / lam \
            + _mapped(math.log, t_star + 2.0 + 1.0 / np.sqrt(lam))
        log_target = log_eps - _LOG2 - log_s
        disc = t_star * t_star + (_LOG2 - log_target) / (math.pi * lam)
        root = np.where(disc > 0, t_star + np.sqrt(disc), 0.0)
        r = np.maximum(np.maximum(2.0, np.ceil(t_star + 1.0)),
                       np.ceil(np.minimum(root, max_radius + 2.0)) - 1.0)
        go = r <= max_radius
        while go.any():
            rows, lam, rho, log_target, r = (
                v[go] for v in (rows, lam, rho, log_target, r))
            log_t1 = _LOG2 - math.pi * lam * r * r + 2.0 * math.pi * rho * r \
                + _mapped(math.log1p, 1.0 / (2.0 * math.pi * (lam * r - rho)))
            done = log_t1 < log_target
            k, rk = rows[done], r[done]
            slack = -_mapped(math.expm1, log_t1[done] - log_target[done])
            radii[k] = rk
            floors[k] = (log_eps + _mapped(math.log, slack) - FLOOR_MARGIN
                         - 2.0 * _mapped(math.log, 2.0 * rk + 1.0))
            r = r + 1.0
            go = ~done & (r <= max_radius)
    return radii, floors


def clear_theta_cache() -> None:
    """No-op: theta values are not cached between calls, so every
    theta_eval sums afresh and there is nothing to clear."""


# |Re x| or |Re y| above which theta_eval shifts z by integers first.  The
# sampling family's arguments stay within |Re| <= 1, so no sampled value
# takes the shift.
RE_SHIFT = 4.0


def theta_eval(ch: ThetaCharacteristic, z: EvalPoint, tau: PeriodMatrix,
               pol: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Truncated lattice sum for theta[ch](z; tau), tail and dropped terms
    together below pol.eps_tail; raises NonFiniteSum where the terms
    overflow.

    Where the window admits an overflow (_window), four terms are tested
    first, and where one's modulus must exceed sqrt(2) times the largest
    float (_must_overflow) NonFiniteSum is raised without summing.  The
    sum would raise it too: the term lies in the window, and above the
    drop floor, which is below log eps_tail and so below log of the
    largest float; so the kernel exponentiates it.  The kernel's real part
    of its exponent is above log(sqrt(2) * largest float), since no piece
    of it can overflow, or NaN where an imaginary piece overflowed.  So
    one part of its exp is infinite or NaN: the larger of |cos| and |sin|
    is at least 1/sqrt(2).  A pairwise sum with an infinite or NaN part
    has a non-finite part.  Only the message differs from the one a sum
    gives.  The sum is the kernel's scalar routine (backends._scalar_sum,
    cached index lines and cross-term grid), bit for bit the value of a
    KernelBatch without classes.  Where the window is not loud it masks
    with one comparison, and at radius backends.BOX_RADIUS or more forms
    only the exponents in the box of terms that can reach the floor
    (backends.floor_box), the same sum bit for bit.

    Where |Re x| or |Re y| exceeds RE_SHIFT, the sum is taken at z - k,
    k = (round(Re x), round(Re y)), and multiplied by the exact unit
    i**((2a*k1 + 2c*k2) mod 4): theta(z + k) = exp(pi*i*(a*k1 + c*k2)) *
    theta(z) for integer k.  The shift rounds nothing, so the kernel forms
    its phases from |Re| <= 1/2, not from a huge Re z, where they lose
    digits (at 1e12) or overflow to NaN (at 1e307)."""
    a2, c2, b2, d2, phase = ch._kernel
    if abs(z.x.real) > RE_SHIFT or abs(z.y.real) > RE_SHIFT:
        z.validate()
        k1, k2 = round(z.x.real), round(z.y.real)
        z = EvalPoint(z.x - k1, z.y - k2)
        phase *= _PHASES[(int(4 * a2) * k1 + int(4 * c2) * k2) % 4]
    radius, floor, loud = _window(z, tau, pol.eps_tail, pol.max_radius)
    if loud and _must_overflow(z, tau, radius, a2, c2):
        raise NonFiniteSum(f"theta{ch} sum overflows: a term's modulus "
                           "exceeds the largest float")
    if not loud:
        value = lattice_sum(a2, c2, z.x + b2, z.y + d2, tau.tau1, tau.tau2,
                            tau.tau12, radius, floor=floor, quiet=True)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            value = lattice_sum(a2, c2, z.x + b2, z.y + d2, tau.tau1,
                                tau.tau2, tau.tau12, radius, floor=floor)
    if not cmath.isfinite(value):
        raise NonFiniteSum(f"theta{ch} sum overflows to {value}")
    return phase * value


def theta_values(chars, z: EvalPoint, tau: PeriodMatrix,
                 pol: PrecisionPolicy = DEFAULT_POLICY) -> list[complex]:
    """[theta_eval(ch, z, tau, pol) for ch in chars] from one truncation
    window and one KernelBatch table with classes: the radius and floor do
    not depend on the characteristic.  The first characteristic of each
    upper class (its reduced upper row) gets theta_eval's value bit for
    bit; the others are formed from that one's residue sums and differ
    from theta_eval's by rounding only (KernelBatch.values gives the
    bound).  Raises NonFiniteSum naming the first characteristic, in the
    order given, whose sum overflows."""
    chars = tuple(chars)
    if not chars:
        return []
    return KernelBatch.of([chars], classes=True).values(
        Windows.of([(z, tau)], pol))


class Windows(NamedTuple):
    """Windows as arrays, one entry per window: the argument (x, y), the
    periods, and truncation_window's radius and drop floor, radius 0 and
    floor -inf where it raises (truncation_windows)."""

    x: np.ndarray
    y: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    tau12: np.ndarray
    radius: np.ndarray
    floor: np.ndarray

    @classmethod
    def of(cls, pairs, pol: PrecisionPolicy = DEFAULT_POLICY) -> "Windows":
        """truncation_window of each (z, tau) pair, which raises its
        exception: for a few windows, where windows_for's fixed cost
        (about 75 us on one window) would dominate."""
        return cls(*map(np.array, zip(*(
            (z.x, z.y, tau.tau1, tau.tau2, tau.tau12,
             *truncation_window(z, tau, pol.eps_tail, pol.max_radius))
            for z, tau in pairs))))


def truncation_windows(x: np.ndarray, y: np.ndarray, tau1: np.ndarray,
                       tau2: np.ndarray, tau12: np.ndarray, doubled,
                       eps_tail: float = DEFAULT_POLICY.eps_tail,
                       max_radius: int = DEFAULT_POLICY.max_radius
                       ) -> tuple[Windows, dict[int, Exception]]:
    """truncation_window of each window, bit for bit, for complex arrays
    x, y and periods, one entry per window (doubled: whose periods are
    doubled): the Windows, and by index the exception of each window it
    refuses, class and text.  The periods are checked by lambda_min (NaN
    where invalid), the arguments by isfinite, and all are windowed by one
    windows_for call; only the refused windows go to truncation_window."""
    # lambda_min, math arithmetic, once per run of windows with equal
    # periods (a draw's groups of one scale are consecutive).
    new = np.ones(len(tau1), dtype=bool)
    new[1:] = ((tau1[1:] != tau1[:-1]) | (tau2[1:] != tau2[:-1])
               | (tau12[1:] != tau12[:-1]))
    lam = np.fromiter(map(lambda_min, tau1[new].tolist(), tau2[new].tolist(),
                          tau12[new].tolist()), float)[np.cumsum(new) - 1]
    valid = ~np.isnan(lam) & np.isfinite(x) & np.isfinite(y)
    rho = np.maximum(np.abs(x.imag), np.abs(y.imag))
    radii, floors = windows_for(lam, rho, eps_tail, max_radius)
    radii[~valid], floors[~valid], errors = 0, -math.inf, {}
    for k in np.flatnonzero(radii == 0).tolist():
        tau = PeriodMatrix(complex(tau1[k]), complex(tau2[k]),
                           complex(tau12[k]),
                           Scale.DOUBLED if doubled[k] else Scale.BASE)
        try:
            radii[k], floors[k] = truncation_window(
                EvalPoint(complex(x[k]), complex(y[k])), tau, eps_tail,
                max_radius)
        except (ValueError, ArithmeticError, RadiusExceeded) as exc:
            errors[k] = exc
    return Windows(x, y, tau1, tau2, tau12, radii, floors), errors


# _RESIDUE_UNITS[e, f][p, q] = i**(e*p + f*q): the unit that weights the
# terms with m = p, n = q mod 4 of a window whose lower offsets are shifted
# by (e/4, f/4) (KernelBatch).
_RESIDUE_UNITS = np.array(
    [[[[_PHASES[(e * p + f * q) % 4] for q in range(4)] for p in range(4)]
      for f in range(4)] for e in range(4)])


def _unit16(k: int) -> complex:
    """exp(pi*i*k/8), exact where it is a power of i."""
    if k % 4 == 0:
        return _PHASES[k // 4 % 4]
    return cmath.exp(1j * math.pi * k / 8)


class KernelBatch(NamedTuple):
    """Tables (collections) of characteristics compiled once into kernel
    rows, table after table: per row its characteristic, offsets and
    reduction phase (_kernel); and the number of rows of each table.

    With classes, the rows of a table that share the upper offsets (a2,
    c2) form a class; without, each row is a class of its own.  The first
    row of a class, its head, is summed by the kernel; each further
    row differs from it only by a real shift (e/4, f/4) of the lower
    offsets, which multiplies the term at (m, n) by exp(2*pi*i*(e*a2 +
    f*c2)/4) * i**(e*m + f*n).  So that row's sum is this constant phase
    (shift) times the head's 16 residue sums (backends.residue_sums)
    weighted by the units _RESIDUE_UNITS[e mod 4, f mod 4] (units), both
    given for the rows that are not heads, in order."""

    chars: tuple[ThetaCharacteristic, ...]
    offsets: np.ndarray                # (4, C): a2, c2, b2, d2
    phases: np.ndarray                 # (C,)
    sizes: list[int]
    back: np.ndarray                   # (C,) each row's distance from its head
    units: np.ndarray                  # (D, 16)
    shift: np.ndarray                  # (D,)

    @classmethod
    def of(cls, tables, classes: bool = False) -> "KernelBatch":
        tables = [tuple(chars) for chars in tables]
        chars = tuple(ch for chars in tables for ch in chars)
        kernels = [ch._kernel for ch in chars]
        back, units, shift = [], [], []
        for end in accumulate(map(len, tables)):
            first: dict[tuple, int] = {}
            for r in range(len(back), end):
                a2, c2, b2, d2, _ = kernels[r]
                h = first.setdefault((a2, c2), r) if classes else r
                back.append(r - h)
                if h != r:
                    # Offsets and shifts are multiples of 1/4, so e, f and
                    # 4*(e*a2 + f*c2) are exact integers.
                    e, f = 4 * (b2 - kernels[h][2]), 4 * (d2 - kernels[h][3])
                    units.append(_RESIDUE_UNITS[int(e) % 4, int(f) % 4])
                    shift.append(_unit16(int(4 * (e * a2 + f * c2))))
        *offsets, phases = zip(*kernels)
        return cls(chars, np.array(offsets), np.array(phases),
                   list(map(len, tables)), np.array(back, dtype=int),
                   np.array(units, dtype=complex).reshape(-1, 16),
                   np.array(shift, dtype=complex))

    def values(self, windows: Windows, strict: bool = True) -> list[complex]:
        """The values of each table at its windows, window after window:
        windows holds one window per table per repetition, in table order.
        The heads that share a radius are summed in one kernel call, under
        np.errstate, each window reduced on its own, and the sums are phased
        by their exact units as theta_eval phases them: each head's value, so
        without classes every value, is theta_eval's bit for bit.  A further
        row of a class is formed from its head's residue sums (the class
        docstring).  Its terms are the head's times exact units, so its sum
        differs from theta_eval's by rounding only: each exponent by a few ulps
        of the total modulus s of its five pieces, the order of the additions
        (pairwise in theta_eval, in folds of K/4 here) and one rounded phase.
        The two differ by at most about 2**-53 times the sum over the window of
        |term| * (2R + 30 + 8*s).  The rows of a window of radius 0 (refused)
        are not summed and read NaN.  Where a head's sum is not finite, the
        further rows of its class are summed on their own, as heads: each
        reads theta_eval's value, or overflows where theta_eval does.  A
        non-finite sum raises NonFiniteSum naming the first such
        characteristic, in order, with its unphased sum; with strict False
        it is kept, unphased."""
        n, width = len(windows.radius) // len(self.sizes), len(self.chars)
        at = np.repeat(np.arange(len(windows.radius)), self.sizes * n)
        x, y, tau1, tau2, tau12, radii, floors = (v[at] for v in windows)
        a2, c2, b2, d2 = np.tile(self.offsets, n)
        sums = np.full(len(at), complex("nan"))
        own = np.flatnonzero(self.back)
        base = (np.arange(n) * width)[:, None]
        derived, heads = base + own, base + own - self.back[own]
        lead = np.ones(len(at), dtype=bool)
        lead[derived] = False
        split = np.zeros(len(at), dtype=bool)
        split[heads] = True
        slot = np.cumsum(split) - 1
        residues = np.full((split.sum(), 4, 4), complex("nan"))
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ys = x + b2, y + d2

            def kernel(rows, radius, share=None):
                return lattice_sum(a2[rows], c2[rows], xs[rows], ys[rows],
                                   tau1[rows], tau2[rows], tau12[rows],
                                   radius, floor=floors[rows], split=share)

            for radius in set(windows.radius.tolist()) - {0}:
                rows = np.flatnonzero(lead & (radii == radius))
                if not own.size:
                    # Without classes split would mark no row, and its
                    # masks and empty residue grids cost the catalog's
                    # sums about 4 %.
                    sums[rows] = kernel(rows, radius)
                    continue
                share = split[rows]
                sums[rows], residues[slot[rows[share]]] = kernel(
                    rows, radius, share)
            if own.size:
                sums[derived] = (residues[slot[heads]].reshape(
                    n, -1, 16) * self.units).sum(axis=-1) * self.shift
                alone = derived[~np.isfinite(sums[heads])
                                & (radii[derived] != 0)]
                for radius in set(radii[alone].tolist()):
                    rows = alone[radii[alone] == radius]
                    sums[rows] = kernel(rows, radius)
            finite = np.isfinite(sums)
            np.multiply(sums, np.tile(self.phases, n), out=sums, where=finite)
        values = sums.tolist()
        if strict and not finite.all():
            k = int(np.argmin(finite))
            raise NonFiniteSum(f"theta{self.chars[k % width]} sum "
                               f"overflows to {values[k]}")
        return values
