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
backends.lattice_sum).  The
characteristic quadruple is written [a c; b d]: upper row (a, c), lower
row (b, d), column pairing (a, b) and (c, d).  Entries are exact
rationals with denominator 1 or 2.

Doubled-period values ("capital Theta") are plain evaluations at
double_periods(tau) = (2*tau1, 2*tau2, 2*tau12).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .backends import lattice_sum


class InvalidPeriod(ValueError):
    """Period matrix violates the positive-definite-imaginary-part condition."""


class RadiusExceeded(RuntimeError):
    """No summation radius within max_radius meets the tail target."""


class NonFiniteSum(ArithmeticError):
    """The truncated lattice sum overflowed to a non-finite value."""


class HalfIntegerParityUndefined(ValueError):
    """Parity (odd/even) is defined only for integer characteristics."""


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

    @property
    def is_integer(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def _reduction(self) -> tuple[tuple[int, int, int, int], int]:
        """Doubled entries of the reduced form and q with theta[self] =
        i**q * theta[reduced], in integers from the doubled entries k = 2e.

        Shifting a or c by 2 is an exact reindex of the lattice; each step
        of 2 folded out of b (d) contributes exp(pi*i*a) (exp(pi*i*c)), that
        is ka (kc) quarter turns, and k // 4 such steps are folded out.
        """
        ka, kc, kb, kd = (e.numerator * (2 // e.denominator)
                          for e in self.entries)
        q = (ka * (kb // 4) + kc * (kd // 4)) % 4
        return (ka % 4, kc % 4, kb % 4, kd % 4), q

    @cached_property
    def _kernel(self) -> tuple[float, float, float, float, complex]:
        """(a0/2, c0/2, b0/2, d0/2, phase) of reduce(), the offsets as floats;
        computed once per object."""
        reduced, q = self._reduction()
        return (*(k / 4 for k in reduced), _PHASES[q])

    @cached_property
    def _code(self) -> int:
        """reduce() as one integer, two bits per doubled reduced entry and
        two for q: (((a0*4 + c0)*4 + b0)*4 + d0)*4 + q; kernel_rows
        decodes it."""
        (ka, kc, kb, kd), q = self._reduction()
        return (((ka * 4 + kc) * 4 + kb) * 4 + kd) * 4 + q

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


def kernel_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offsets (a0/2, c0/2, b0/2, d0/2), shape (4, R), and the phases
    of characteristics given by their _code: per row, their _kernel."""
    offsets = (codes >> np.array([[8], [6], [4], [2]])) & 3
    return offsets / 4, np.array(_PHASES)[codes & 3]


def is_odd(ch: ThetaCharacteristic) -> bool:
    """Parity of an integer characteristic: odd iff a*b + c*d is odd.

    The six odd quadruples are exactly the ones whose theta vanishes
    identically at the origin.
    """
    if not ch.is_integer:
        raise HalfIntegerParityUndefined(f"parity undefined for {ch}")
    return (ch.a * ch.b + ch.c * ch.d) % 2 == 1


class Scale(enum.Enum):
    BASE = "base"
    DOUBLED = "doubled"


def _c2j(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _j2c(obj) -> complex:
    return complex(obj["re"], obj["im"])


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

    def as_json(self) -> dict:
        return {"tau1": _c2j(self.tau1), "tau2": _c2j(self.tau2),
                "tau12": _c2j(self.tau12), "scale": self.scale.value}

    @classmethod
    def from_json(cls, obj) -> "PeriodMatrix":
        return cls(_j2c(obj["tau1"]), _j2c(obj["tau2"]), _j2c(obj["tau12"]),
                   Scale(obj.get("scale", "base")))


def lambda_min(tau1: complex, tau2: complex, tau12: complex) -> float:
    """Smallest eigenvalue of the Im part of the periods, or NaN where they
    are invalid: an entry not finite, or the Im part not positive definite.
    This is the one validity test; PeriodMatrix.validate raises where it
    gives NaN, and the catalog's blocks (identity_catalog._block) read it
    per draw.

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

    def __sub__(self, other: "EvalPoint") -> "EvalPoint":
        return EvalPoint(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "EvalPoint":
        return EvalPoint(k * self.x, k * self.y)

    def as_json(self) -> dict:
        return {"x": _c2j(self.x), "y": _c2j(self.y)}

    @classmethod
    def from_json(cls, obj) -> "EvalPoint":
        return cls(_j2c(obj["x"]), _j2c(obj["y"]))


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
    window_for."""
    return truncation_window(z, tau, eps_tail, max_radius)[0]


def truncation_window(z: EvalPoint, tau: PeriodMatrix,
                      eps_tail: float = DEFAULT_POLICY.eps_tail,
                      max_radius: int = DEFAULT_POLICY.max_radius
                      ) -> tuple[int, float]:
    """window_for at tau's lambda_min and rho = max(|Im x|, |Im y|) of z,
    after tau and then z are validated: the radius and drop floor that
    theta_eval and theta_values sum with."""
    lam = tau.validate()
    z.validate()
    return window_for(lam, max(abs(z.x.imag), abs(z.y.imag)),
                      eps_tail, max_radius)


_LOG2 = math.log(2.0)

# Subtracted from the drop floor.  It covers the rounding of exp and of the
# floor's logs (a few ulps), and an absolute error of up to 1e-6 in a
# computed exponent's real part, that is exponent pieces up to about 1e8
# in modulus, so that a dropped term is below the floor also in exact
# arithmetic.
FLOOR_MARGIN = 1e-6


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

    The scan starts at max(2, ceil(t*+1)) and returns the first R with
    T(R) < eps_tail; the bound is monotone in R, so shrinking eps_tail can
    only grow the radius.  Raises RadiusExceeded when no radius up to
    max_radius meets the target, also when lam has rounded to 0 or the
    scan would start past max_radius.

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
        for radius in range(max(2, math.ceil(t_star + 1.0)), max_radius + 1):
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


def clear_theta_cache() -> None:
    """No-op: theta values are not cached between calls, so every
    theta_eval sums afresh and there is nothing to clear."""


def theta_eval(ch: ThetaCharacteristic, z: EvalPoint, tau: PeriodMatrix,
               pol: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Truncated lattice sum for theta[ch](z; tau), tail and dropped terms
    together below pol.eps_tail; raises NonFiniteSum where the terms
    overflow."""
    a2, c2, b2, d2, phase = ch._kernel
    radius, floor = truncation_window(z, tau, pol.eps_tail, pol.max_radius)
    value = lattice_sum(a2, c2, z.x + b2, z.y + d2,
                        tau.tau1, tau.tau2, tau.tau12, radius, floor=floor)
    if not cmath.isfinite(value):
        raise NonFiniteSum(f"theta{ch} sum overflows to {value}")
    return phase * value


def theta_values(chars, z: EvalPoint, tau: PeriodMatrix,
                 pol: PrecisionPolicy = DEFAULT_POLICY) -> list[complex]:
    """[theta_eval(ch, z, tau, pol) for ch in chars], bit for bit, from one
    truncation window and one kernel call: the radius and floor do not
    depend on the characteristic.  Raises NonFiniteSum naming the first
    characteristic, in the order given, whose sum overflows."""
    chars = tuple(chars)
    if not chars:
        return []
    radius, floor = truncation_window(z, tau, pol.eps_tail, pol.max_radius)
    a2, c2, b2, d2, phases = zip(*(ch._kernel for ch in chars))
    sums = lattice_sum(np.array(a2), np.array(c2), z.x + np.array(b2),
                       z.y + np.array(d2), tau.tau1, tau.tau2, tau.tau12,
                       radius, floor=floor).tolist()
    # Any non-finite sum makes the total non-finite; a total that overflows
    # from finite sums only costs the per-value check.
    if not cmath.isfinite(sum(sums)):
        for ch, value in zip(chars, sums):
            if not cmath.isfinite(value):
                raise NonFiniteSum(f"theta{ch} sum overflows to {value}")
    return [phase * value for phase, value in zip(phases, sums)]


def sums_by_radius(a2, c2, xs, ys, tau1, tau2, tau12, radii, *,
                   floors) -> np.ndarray:
    """lattice_sum of every row (arrays of shape (C,), tau and floor given
    per row) at its own radius, bit for bit: the rows that share a radius
    are summed in one kernel call.  Each window is reduced on its own, so a
    row's sum does not depend on the other rows of its call."""
    sums = np.empty(len(radii), dtype=complex)
    for radius in set(radii.tolist()):
        rows = np.flatnonzero(radii == radius)
        sums[rows] = lattice_sum(a2[rows], c2[rows], xs[rows], ys[rows],
                                 tau1[rows], tau2[rows], tau12[rows], radius,
                                 floor=floors[rows])
    return sums
