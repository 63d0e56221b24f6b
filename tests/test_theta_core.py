"""Core evaluator tests.

The numeric pins below were produced by an independent brute-force
implementation (plain cmath double loop, radius 20) kept outside the
package, so they cannot inherit a bug from the kernel under test.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertheta import (
    DEFAULT_POLICY,
    EvalPoint,
    HalfIntegerParityUndefined,
    InvalidPeriod,
    NonFiniteSum,
    ORIGIN,
    PeriodMatrix,
    PrecisionPolicy,
    RadiusExceeded,
    Scale,
    ThetaCharacteristic,
    double_periods,
    is_odd,
    theta_eval,
    theta_values,
    truncation_radius,
)
from hypertheta import identity_catalog
from hypertheta.addition import _law_tables
from hypertheta.backends import GRID_POINTS, exponents, lattice_sum
from hypertheta.sampling import Draws, SampleAssignment, sample_tau
from hypertheta.theta_core import (
    kernel_rows,
    lambda_min,
    sums_by_radius,
    truncation_window,
    window_for,
)

TAU_E = PeriodMatrix(1j, 1j, 0j)
TAU_G = PeriodMatrix(0.3 + 1.1j, -0.2 + 1.4j, 0.15 + 0.25j)
TAU_H = PeriodMatrix(1.3j, 0.4 + 0.9j, -0.1 - 0.3j)
Z_G = EvalPoint(0.21 - 0.12j, -0.34 + 0.05j)
Z_H = EvalPoint(0.1 + 0.2j, -0.05 - 0.1j)

# (characteristic, point, periods, brute-force value at radius 20)
PINS = [
    (ThetaCharacteristic.of(0, 0, 0, 0), ORIGIN, TAU_E,
     1.1803405990160964 + 0j),
    (ThetaCharacteristic.of(0, 0, 0, 0), Z_G, TAU_G,
     0.95829871279310186 + 0.062020765539333958j),
    (ThetaCharacteristic.of(1, 0, 1, 1), Z_G, TAU_G,
     -0.58571420948002506 + 0.12416177028944284j),
    (ThetaCharacteristic.of("1/2", "1/2", 0, 0), Z_G, TAU_G,
     0.64756483040929513 - 0.0076375094880626673j),
    (ThetaCharacteristic.of("1/2", 1, 0, 1), Z_H, TAU_H,
     -0.043123026817990233 + 0.25336283719728880j),
    (ThetaCharacteristic.of(3, -2, 5, -3), Z_G, TAU_G,
     -0.58571420948002484 + 0.12416177028944321j),
    (ThetaCharacteristic.of("5/2", "3/2", "-3/2", "7/2"), Z_H, TAU_H,
     0.010865764954990288 + 0.47980524211791087j),
]


@pytest.mark.parametrize("ch, z, tau, expected", PINS,
                         ids=[str(p[0]) for p in PINS])
def test_pinned_values(ch, z, tau, expected):
    got = theta_eval(ch, z, tau)
    assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_doubled_periods_pin():
    # same draw as the second pin, with z and tau both doubled
    ch = ThetaCharacteristic.of(0, 1, 1, 0)
    got = theta_eval(ch, Z_G.scaled(2), double_periods(TAU_G))
    expected = -0.10214479386585375 + 0.097877136423605099j
    assert abs(got - expected) <= 1e-13
    with pytest.raises(ValueError):
        double_periods(double_periods(TAU_G))


def _theta_1d(a: int, b: int, x: complex, tau: complex, radius: int = 20) -> complex:
    total = 0j
    for m in range(-radius, radius + 1):
        f = m + a / 2
        total += cmath.exp(cmath.pi * 1j * tau * f * f
                           + 2 * cmath.pi * 1j * f * (x + b / 2))
    return total


@pytest.mark.parametrize("a, c, b, d", [(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 0),
                                        (1, 1, 0, 1)])
def test_block_diagonal_factorizes(a, c, b, d):
    # with tau12 = 0 the double sum splits into two one-variable sums
    tau = PeriodMatrix(0.3 + 1.1j, -0.2 + 1.4j, 0j)
    got = theta_eval(ThetaCharacteristic.of(a, c, b, d), Z_G, tau)
    want = _theta_1d(a, b, Z_G.x, tau.tau1) * _theta_1d(c, d, Z_G.y, tau.tau2)
    assert abs(got - want) <= 1e-13 * abs(want)


def _thin_tau(lam_min: float, det: float = 0.2, angle: float = 0.4,
              re=(0.3, -0.2, 0.15)) -> PeriodMatrix:
    """Periods whose Im part has eigenvalues lam_min and det / lam_min,
    rotated by `angle` so the lattice is thin along a slanted direction."""
    lam_max = det / lam_min
    cs, sn = math.cos(angle), math.sin(angle)
    i1 = lam_min * cs * cs + lam_max * sn * sn
    i2 = lam_min * sn * sn + lam_max * cs * cs
    i12 = (lam_max - lam_min) * cs * sn
    return PeriodMatrix(complex(re[0], i1), complex(re[1], i2),
                        complex(re[2], i12))


def _mp_theta(ch: ThetaCharacteristic, z: EvalPoint, tau: PeriodMatrix,
              radius: int) -> complex:
    """theta[ch](z; tau) summed over |m|, |n| <= radius with 30 digits,
    straight from the definition, the characteristic left unreduced."""
    with mpmath.workdps(30):
        a, c, b, d = (mpmath.mpf(e.numerator) / e.denominator
                      for e in ch.entries)
        t1, t2, t12 = (mpmath.mpc(t.real, t.imag)
                       for t in (tau.tau1, tau.tau2, tau.tau12))
        x = mpmath.mpc(z.x.real, z.x.imag) + b / 2
        y = mpmath.mpc(z.y.real, z.y.imag) + d / 2
        total = mpmath.mpc(0)
        for m in range(-radius, radius + 1):
            M = m + a / 2
            for n in range(-radius, radius + 1):
                N = n + c / 2
                total += mpmath.expjpi(t1 * M * M + t2 * N * N
                                       + 2 * t12 * M * N + 2 * (M * x + N * y))
        return complex(total)


def _rounding_scale(ch: ThetaCharacteristic, z: EvalPoint,
                    tau: PeriodMatrix, radius: int) -> float:
    """sum |term| * (1 + pi * sum |exponent piece|) over the window of
    _mp_theta, in floats: the scale of the rounding error of a
    double-precision sum of those terms."""
    a, c, b, d = (float(e) for e in ch.entries)
    k = np.arange(-radius, radius + 1)
    M, N = np.meshgrid(k + a / 2, k + c / 2, indexing="ij")
    pieces = (tau.tau1 * M * M, tau.tau2 * N * N, 2 * tau.tau12 * M * N,
              2 * M * (z.x + b / 2), 2 * N * (z.y + d / 2))
    term = np.abs(np.exp(1j * np.pi * sum(pieces)))
    return float((term * (1 + np.pi * sum(map(np.abs, pieces)))).sum())


# At lambda_min 0.01 (_thin_tau) this Im x = 0.17 gets the certified
# radius max_radius; at Im x = 0.18 no radius up to it meets the target.
Z_GUARD = EvalPoint(0.21 + 0.17j, -0.34 + 0.05j)


@pytest.mark.parametrize("lam_min, z, chars", [
    (0.07, Z_G, ("1/2 -1/2 0 0", "3 -1 5/2 2", "1 1 1 1")),
    (0.14, Z_G, ("1/2 -1/2 0 0", "3 -1 5/2 2", "1 1 1 1")),
    (0.01, Z_G, ("3 -1 5/2 2",)),
    (0.01, Z_GUARD, ("1/2 -1/2 0 0",)),
], ids=["0.07", "0.14", "0.01", "0.01-guard"])
def test_thin_lattices_match_a_30_digit_sum(lam_min, z, chars):
    """Away from the sampling family (det Im tau = 0.2, small lambda_min,
    down to 0.01 with the radius at max_radius), with half, unreduced and
    odd characteristics.  At the default eps_tail and at 1e-6, where the
    neglected tail and the dropped terms outweigh rounding, each value is
    within eps_tail plus a rounding allowance of 8 ulps of the terms'
    rounding scale; from lambda_min 0.07 up, also within 1e-13 relative."""
    tau = _thin_tau(lam_min)
    assert math.isclose(tau.lambda_min, lam_min, rel_tol=1e-12)
    for ch in (ThetaCharacteristic.of(*entries.split()) for entries in chars):
        radius = truncation_radius(ch, z, tau) + 3
        want = _mp_theta(ch, z, tau, radius)
        scale = _rounding_scale(ch, z, tau, radius)
        for eps_tail in (DEFAULT_POLICY.eps_tail, 1e-6):
            got = theta_eval(ch, z, tau, PrecisionPolicy(eps_tail=eps_tail))
            assert abs(got - want) <= eps_tail + 8 * 2.0 ** -53 * scale
        if lam_min >= 0.07:
            assert abs(theta_eval(ch, z, tau) - want) <= 1e-13 * abs(want)
    if z is Z_GUARD:
        assert truncation_radius(ch, z, tau) == DEFAULT_POLICY.max_radius
        with pytest.raises(RadiusExceeded):
            truncation_radius(ch, EvalPoint(0.21 + 0.18j, 0j), tau)


_INTEGER_CHARS = [ThetaCharacteristic.of(*e)
                  for e in itertools.product((0, 1), repeat=4)]
_UNREDUCED_CHARS = [ThetaCharacteristic.of(*e) for e in itertools.product(
    [Fraction(k, 2) for k in range(-3, 5)], repeat=4)]


@pytest.mark.parametrize("z, tau, radius", [
    (EvalPoint(0.1 + 0.01j, -0.2), PeriodMatrix(0.2 + 3.5j, -0.1 + 4j,
                                                0.3 + 0.5j), 2),
    (Z_G, TAU_G, 4),
    (Z_G, _thin_tau(0.14), 11),
    (EvalPoint(0.3 + 1.3j, -0.2 - 1.1j),
     PeriodMatrix(0.3 + 0.5j, -0.2 + 0.6j, 0.1 + 0.2j), 12),
    (Z_G, _thin_tau(0.022), 30),
])
def test_theta_values_equal_theta_eval_bit_for_bit(z, tau, radius):
    """One kernel call over many characteristics gives exactly the values
    of one theta_eval each: the 16 integer characteristics, the 28 targets
    of the doubled law (half characteristics included) and unreduced
    entries k/2, k in [-3, 4] (all 4,096 at small radii, which the kernel
    sums in several slices, every 31st otherwise), up to radius 30 on a
    thin lattice."""
    assert truncation_radius(_INTEGER_CHARS[0], z, tau) == radius
    unreduced = _UNREDUCED_CHARS if radius <= 4 else _UNREDUCED_CHARS[::31]
    for chars in (_INTEGER_CHARS, list(_law_tables()[0].values()), unreduced):
        assert theta_values(chars, z, tau) == [theta_eval(ch, z, tau)
                                               for ch in chars]


def test_kernel_rows_decode_each_code_to_its_kernel():
    """The integer code of every characteristic [k/2], k in [-3, 4],
    decodes to exactly its _kernel offsets and phase."""
    offsets, phases = kernel_rows(np.array([ch._code
                                            for ch in _UNREDUCED_CHARS]))
    assert ([(*row, phase) for row, phase in zip(offsets.T.tolist(),
                                                 phases.tolist())]
            == [ch._kernel for ch in _UNREDUCED_CHARS])


def test_theta_values_names_the_first_overflowing_characteristic():
    chars = [ThetaCharacteristic.of(1, 0, 1, 1),
             ThetaCharacteristic.of(0, 0, 0, 0)]
    with pytest.raises(NonFiniteSum, match=r"theta\[1 0; 1 1\]"):
        theta_values(chars, EvalPoint(0.2 + 20j, 0), TAU_G)
    assert theta_values([], Z_G, TAU_G) == []


def _mixed_periods(rng, count: int) -> list[PeriodMatrix]:
    """count period matrices: draws of the sampling family, every third one
    a thin lattice with lambda_min in [0.06, 0.3] at a random slant."""
    return [_thin_tau(rng.uniform(0.06, 0.3), angle=rng.uniform(0, math.pi))
            if i % 3 == 0 else sample_tau(rng) for i in range(count)]


@pytest.mark.parametrize("radius", range(2, 14))
def test_lattice_sum_with_tau_per_row_equals_scalar_calls(radius):
    """One kernel call with a period matrix per row gives each row's scalar
    call bit for bit, with half and integer offsets, |Im z| <= 0.6, and
    enough rows to cross two GRID_POINTS slice boundaries."""
    rng = np.random.default_rng(radius)
    rows = 2 * (GRID_POINTS // (2 * radius + 1) ** 2) + 3
    taus = _mixed_periods(rng, rows)
    a2, c2 = rng.integers(0, 4, (2, rows)) / 4
    xs, ys = (rng.uniform(-1, 1, (2, rows))
              + 1j * rng.uniform(-0.6, 0.6, (2, rows)))
    t1, t2, t12 = (np.array([getattr(t, name) for t in taus])
                   for name in ("tau1", "tau2", "tau12"))
    batch = lattice_sum(a2, c2, xs, ys, t1, t2, t12, radius).tolist()
    scalar = [lattice_sum(*row, radius) for row in zip(
        *(v.tolist() for v in (a2, c2, xs, ys, t1, t2, t12)))]
    assert batch == scalar


def test_sums_by_radius_equal_theta_values_bit_for_bit():
    """Rows of groups at their own (z, tau) and radius, many groups sharing
    a radius and so a kernel call with tau per row, times their reduction
    phases, give exactly theta_values' values per group, and those are
    exactly theta_eval's."""
    rng = np.random.default_rng(11)
    groups = [([_UNREDUCED_CHARS[j] for j in rng.choice(
                   len(_UNREDUCED_CHARS), rng.integers(1, 17))],
               EvalPoint(*(complex(rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.6, 0.6)) for _ in "xy")),
               tau) for tau in _mixed_periods(rng, 60)]
    radii = [truncation_radius(chars[0], z, tau) for chars, z, tau in groups]
    assert len(set(radii)) < len(radii) - 40
    floors = [truncation_window(z, tau)[1] for chars, z, tau in groups]
    rows = [(*ch._kernel, z, tau, radius, floor)
            for (chars, z, tau), radius, floor in zip(groups, radii, floors)
            for ch in chars]
    a2, c2, b2, d2, phase = (np.array(v) for v in zip(*(r[:5] for r in rows)))
    xs = np.array([r[5].x for r in rows]) + b2
    ys = np.array([r[5].y for r in rows]) + d2
    t1, t2, t12 = (np.array([getattr(r[6], name) for r in rows])
                   for name in ("tau1", "tau2", "tau12"))
    got = (sums_by_radius(a2, c2, xs, ys, t1, t2, t12,
                          np.array([r[7] for r in rows]),
                          floors=np.array([r[8] for r in rows]))
           * phase).tolist()
    want = [value for group in groups for value in theta_values(*group)]
    assert got == want
    assert want == [theta_eval(ch, z, tau) for chars, z, tau in groups
                    for ch in chars]


def _tail_bound(lam: float, rho: float, radius: int) -> float:
    """T(R) = 2 * S * T1(R), the bound window_for's docstring derives."""
    t_star = rho / lam
    s = 2 * math.exp(math.pi * rho * rho / lam) * (t_star + 2
                                                    + 1 / math.sqrt(lam))
    t1 = 2 * math.exp(-math.pi * lam * radius * radius
                      + 2 * math.pi * rho * radius) * (
        1 + 1 / (2 * math.pi * (lam * radius - rho)))
    return 2 * s * t1


@pytest.mark.parametrize("eps_tail", [1e-14, 1e-6])
@pytest.mark.parametrize("z, tau", [(Z_G, TAU_G), (Z_G, _thin_tau(0.01)),
                                    (Z_GUARD, _thin_tau(0.01))])
def test_dropped_terms_stay_below_the_unused_slack(z, tau, eps_tail):
    """At the floor of its window, every characteristic's sum differs from
    the full-window sum (floor -inf) by at most eps_tail - T(R); and each
    pruned sum is, bit for bit, the pairwise sum of the full window's
    terms with those whose exponent has real part below the floor (some
    of them) set to 0."""
    lam, rho = tau.lambda_min, max(abs(z.x.imag), abs(z.y.imag))
    radius, floor = window_for(lam, rho, eps_tail)
    slack = eps_tail - _tail_bound(lam, rho, radius)
    assert 0 < slack and floor > -math.inf
    a2, c2, b2, d2, _ = (np.array(v) for v in zip(*(
        ch._kernel for ch in _UNREDUCED_CHARS[::97])))
    args = (a2, c2, z.x + b2, z.y + d2, tau.tau1, tau.tau2, tau.tau12, radius)
    pruned = lattice_sum(*args, floor=floor)
    full = lattice_sum(*args)
    assert np.abs(pruned - full).max() <= slack
    grid = exponents(np.arange(-radius, radius + 1.0), a2[:, None],
                     c2[:, None], args[2][:, None], args[3][:, None],
                     *args[4:7])
    terms = np.exp(grid)
    dropped = grid.real < floor
    assert dropped.any()
    terms[dropped] = 0
    assert terms.sum(axis=(-2, -1)).tolist() == pruned.tolist()


def test_exactly_six_odd_characteristics_vanish_at_origin():
    odd_by_rule = set()
    vanishing = set()
    for a in (0, 1):
        for c in (0, 1):
            for b in (0, 1):
                for d in (0, 1):
                    ch = ThetaCharacteristic.of(a, c, b, d)
                    if is_odd(ch):
                        odd_by_rule.add((a, c, b, d))
                    if abs(theta_eval(ch, ORIGIN, TAU_G)) < 1e-12:
                        vanishing.add((a, c, b, d))
    assert len(odd_by_rule) == 6
    assert vanishing == odd_by_rule


def test_parity_undefined_for_half_integer():
    with pytest.raises(HalfIntegerParityUndefined):
        is_odd(ThetaCharacteristic.of("1/2", 0, 0, 0))


half_steps = st.integers(min_value=-8, max_value=8).map(lambda n: Fraction(n, 2))


@settings(max_examples=60, deadline=None)
@given(a=half_steps, c=half_steps, b=half_steps, d=half_steps)
def test_reduction_matches_unreduced_sum(a, c, b, d):
    """theta_eval folds entries into [0,2) with a unit phase; summing the
    raw offsets directly must give the same number."""
    ch = ThetaCharacteristic(a, c, b, d)
    reduced, phase = ch.reduce()
    assert all(0 <= e < 2 for e in reduced.entries)
    assert phase in (1, 1j, -1, -1j)
    raw = lattice_sum(float(a) / 2, float(c) / 2,
                            Z_G.x + float(b) / 2, Z_G.y + float(d) / 2,
                            TAU_G.tau1, TAU_G.tau2, TAU_G.tau12, 24)
    assert abs(theta_eval(ch, Z_G, TAU_G) - raw) <= 1e-11


def _fraction_reduction(ch):
    """Reference reduction in exact rationals: fold each entry into [0, 2);
    every +2 folded out of b (d) costs exp(pi*i*a) (exp(pi*i*c))."""
    a0, c0, b0, d0 = (e % 2 for e in ch.entries)
    quarter = (ch.a * (ch.b - b0) / 2 + ch.c * (ch.d - d0) / 2) % 2
    phase = {Fraction(0): 1 + 0j, Fraction(1, 2): 1j,
             Fraction(1): -1 + 0j, Fraction(3, 2): -1j}[quarter]
    return (a0, c0, b0, d0), phase


def test_integer_reduction_matches_fraction_rule():
    """For every entry k/2 with k in [-5, 5], the offsets and phase
    theta_eval reads equal reduce()'s, and both equal the rule worked in
    rationals, bit for bit (repr tells -0.0 from 0.0)."""
    steps = [Fraction(k, 2) for k in range(-5, 6)]
    count = 0
    for entries in itertools.product(steps, repeat=4):
        ch = ThetaCharacteristic.of(*entries)
        reduced, phase = ch.reduce()
        want_entries, want_phase = _fraction_reduction(ch)
        assert reduced.entries == want_entries
        assert repr(phase) == repr(want_phase)
        *offsets, kernel_phase = ch._kernel
        assert offsets == [float(e) / 2.0 for e in reduced.entries]
        assert repr(kernel_phase) == repr(phase)
        count += 1
    assert count == 11 ** 4


@settings(max_examples=40, deadline=None)
@given(a=half_steps, c=half_steps, b=half_steps, d=half_steps)
def test_negation_symmetry(a, c, b, d):
    ch = ThetaCharacteristic(a, c, b, d)
    neg = ThetaCharacteristic(-a, -c, -b, -d)
    lhs = theta_eval(ch, EvalPoint(-Z_G.x, -Z_G.y), TAU_G)
    rhs = theta_eval(neg, Z_G, TAU_G)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_half_characteristic_even_at_origin():
    # negation symmetry at z = 0 with zero lower row
    a = theta_eval(ThetaCharacteristic.of("3/2", "3/2", 0, 0), ORIGIN, TAU_G)
    b = theta_eval(ThetaCharacteristic.of("1/2", "1/2", 0, 0), ORIGIN, TAU_G)
    assert abs(a - b) <= 1e-13 * abs(b)


def test_radius_stability():
    ch = ThetaCharacteristic.of(1, 0, 0, 1)
    base = theta_eval(ch, Z_G, TAU_G)
    r = truncation_radius(ch, Z_G, TAU_G)
    reduced, phase = ch.reduce()
    bigger = phase * lattice_sum(
        float(reduced.a) / 2, float(reduced.c) / 2,
        Z_G.x + float(reduced.b) / 2, Z_G.y + float(reduced.d) / 2,
        TAU_G.tau1, TAU_G.tau2, TAU_G.tau12, r + 10)
    assert abs(base - bigger) <= 1e-13 * max(1.0, abs(base))


def test_truncation_radius_monotone_in_eps():
    ch = ThetaCharacteristic.of(0, 0, 0, 0)
    loose = truncation_radius(ch, Z_G, TAU_G, eps_tail=1e-6)
    tight = truncation_radius(ch, Z_G, TAU_G, eps_tail=1e-14)
    assert loose <= tight


def test_invalid_period_rejected():
    with pytest.raises(InvalidPeriod):
        theta_eval(ThetaCharacteristic.of(0, 0, 0, 0), ORIGIN,
                   PeriodMatrix(-1j, 1j, 0j))
    with pytest.raises(InvalidPeriod):
        # positive diagonal but indefinite 2x2 imaginary part
        PeriodMatrix(1j, 1j, 1.5j).validate()
    with pytest.raises(InvalidPeriod):
        PeriodMatrix(complex("inf"), 1j, 0j).validate()


def test_theta_eval_validates_tau_and_z_once(monkeypatch):
    counts = {"tau": 0, "z": 0}
    for cls, key in ((PeriodMatrix, "tau"), (EvalPoint, "z")):
        def counted(self, _check=cls.validate, _key=key):
            counts[_key] += 1
            return _check(self)
        monkeypatch.setattr(cls, "validate", counted)
    theta_eval(ThetaCharacteristic.of(1, 0, 1, 1), Z_G, TAU_G)
    assert counts == {"tau": 1, "z": 1}
    theta_values(_INTEGER_CHARS, Z_G, TAU_G)
    assert counts == {"tau": 2, "z": 2}
    with pytest.raises(ValueError, match="non-finite evaluation point"):
        theta_eval(ThetaCharacteristic.of(0, 0, 0, 0),
                   EvalPoint(complex("nan"), 0j), TAU_G)


def test_overflowing_sum_raises_instead_of_returning_nan():
    """At Im z = 20 the terms overflow double precision; the sum is not a
    value, so theta_eval raises rather than return NaN."""
    with pytest.raises(NonFiniteSum):
        theta_eval(ThetaCharacteristic.of(0, 0, 0, 0), EvalPoint(0.2 + 20j, 0),
                   TAU_G)


def test_radius_exceeded():
    with pytest.raises(RadiusExceeded):
        truncation_radius(ThetaCharacteristic.of(0, 0, 0, 0), ORIGIN, TAU_G,
                          eps_tail=1e-30, max_radius=4)
    for lam in (0.0, 1e-300):  # a lambda_min that rounded to (nearly) 0
        with pytest.raises(RadiusExceeded):
            window_for(lam, 0.25)


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(eps_tail=0.0)
    with pytest.raises(ValueError):
        PrecisionPolicy(max_radius=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            PrecisionPolicy(rel_tol=bad)


def test_characteristic_coercion():
    ch = ThetaCharacteristic.of(1.5, "1/2", -2, 0)
    assert ch.entries == (Fraction(3, 2), Fraction(1, 2), Fraction(-2), Fraction(0))
    with pytest.raises(ValueError):
        ThetaCharacteristic.of(0.3, 0, 0, 0)
    with pytest.raises(ValueError):
        ThetaCharacteristic.of(Fraction(1, 3), 0, 0, 0)
    assert str(ch) == "[3/2 1/2; -2 0]"


def test_json_round_trips():
    ch = ThetaCharacteristic.of("1/2", 1, 0, "-3/2")
    assert ThetaCharacteristic.from_json(ch.as_json()) == ch
    assert PeriodMatrix.from_json(TAU_G.as_json()) == TAU_G
    tau2 = double_periods(TAU_G)
    assert PeriodMatrix.from_json(tau2.as_json()).scale is Scale.DOUBLED
    assert EvalPoint.from_json(Z_G.as_json()) == Z_G


def test_lambda_min_matches_eigenvalue():
    import numpy as np
    im = np.array([[TAU_G.tau1.imag, TAU_G.tau12.imag],
                   [TAU_G.tau12.imag, TAU_G.tau2.imag]])
    assert math.isclose(TAU_G.lambda_min, min(np.linalg.eigvalsh(im)),
                        rel_tol=1e-12)
    # half the trace minus the hypot would cancel to 0 here
    assert PeriodMatrix(1e20j, 1j, 0j).lambda_min == 1.0
    # i1*i2 - i12^2 overflows unless Im tau is scaled first
    assert math.isclose(PeriodMatrix(1e200j, 1e200j, 0.99e200j).lambda_min,
                        0.01e200, rel_tol=1e-12)
    # invalid periods give NaN, the one validity test validate reads
    for periods in [(complex("nan"), 1j, 0j), (1j, complex("inf"), 0j),
                    (-2j, 0j, 0j), (0j, 0j, 0j), (1j, 1j, 1j),
                    (1e200j, 1e200j, 1e200j)]:
        assert math.isnan(lambda_min(*periods)), periods
        assert math.isnan(PeriodMatrix(*periods).lambda_min), periods


def test_validation_survives_overflowing_determinants():
    """Entries whose products overflow: validate and the catalog's block
    check agree that a singular Im tau is invalid and a definite one
    valid (the last one then exceeds the radius, as eval's exit 5 does)."""
    taus = [PeriodMatrix(1e200j, 1e200j, 1e200j),
            PeriodMatrix(1e200j, 1e200j, 0.99e200j),
            PeriodMatrix(1e300j, 1e-300j, 0j)]
    with pytest.raises(InvalidPeriod):
        taus[0].validate()
    taus[1].validate()
    taus[2].validate()
    prog = identity_catalog._compile(identity_catalog.build_catalog()[:1])
    errors = [identity_catalog._block(
        prog, Draws.of([SampleAssignment(t, ORIGIN, ORIGIN, seed=0)]),
        DEFAULT_POLICY).errors for t in taus]
    assert [{type(e) for e in errs.values()} for errs in errors] \
        == [{InvalidPeriod}, set(), {RadiusExceeded}]
