"""Core evaluator tests.

The numeric pins below were produced by an independent brute-force
implementation (plain cmath double loop, radius 20) kept outside the
package, so they cannot inherit a bug from the kernel under test.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
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
from hypertheta import identity_catalog, theta_core
from hypertheta.addition import _law_tables
from hypertheta.backends import (
    BOX_RADIUS,
    GRID_POINTS,
    exponents,
    floor_box,
    lattice_sum,
    line,
)
from hypertheta.sampling import Draws, SampleAssignment, sample_tau
from hypertheta.theta_core import (
    FLOOR_MARGIN,
    KernelBatch,
    Windows,
    lambda_min,
    truncation_window,
    window_for,
    windows_for,
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
    """One kernel call over many characteristics, tau per row, gives
    exactly the values of one theta_eval each, to the sign bit: the 16
    integer characteristics, the 28 targets of the doubled law (half
    characteristics included) and unreduced entries k/2, k in [-3, 4] (all
    4,096 at small radii, which the kernel sums in several slices, every
    31st otherwise), up to radius 30 on a thin lattice."""
    assert truncation_radius(_INTEGER_CHARS[0], z, tau) == radius
    unreduced = _UNREDUCED_CHARS if radius <= 4 else _UNREDUCED_CHARS[::31]
    for chars in (_INTEGER_CHARS, list(_law_tables()[0].values()), unreduced):
        assert ([_parts(v) for v in theta_values(chars, z, tau)]
                == [_parts(theta_eval(ch, z, tau)) for ch in chars])


def test_theta_values_names_the_first_overflowing_characteristic():
    """It raises without numpy's overflow warnings (raised here as errors),
    which would only repeat the exception."""
    chars = [ThetaCharacteristic.of(1, 0, 1, 1),
             ThetaCharacteristic.of(0, 0, 0, 0)]
    with warnings.catch_warnings(), \
            pytest.raises(NonFiniteSum, match=r"theta\[1 0; 1 1\]"):
        warnings.simplefilter("error", RuntimeWarning)
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


def _scalar_and_batch_of_one(ch, z, tau):
    """ch's kernel sum at (z, tau) in truncation_window's window, from the
    scalar kernel (cached lines, and the box where theta_eval takes it)
    and from a batch of one row with tau per row (lines formed per
    call)."""
    radius, floor, loud = theta_core._window(z, tau, DEFAULT_POLICY.eps_tail,
                                             DEFAULT_POLICY.max_radius)
    a2, c2, b2, d2, _ = ch._kernel
    row = (a2, c2, z.x + b2, z.y + d2, tau.tau1, tau.tau2, tau.tau12)
    with np.errstate(over="ignore", invalid="ignore"):
        scalar = lattice_sum(*row, radius, floor=floor, box=not loud)
        batch = lattice_sum(*(np.array([v]) for v in row), radius,
                            floor=np.array([floor]))
    return scalar, complex(batch[0])


def _parts(value: complex) -> tuple:
    return value.real, value.imag, *np.signbit([value.real, value.imag])


def test_scalar_kernel_equals_a_batch_of_one_to_the_sign_bit():
    """The scalar kernel and a batch of one with tau per row give the same
    value and the same sign of both parts: on seeded inputs; at z = 0 and
    purely imaginary tau, where the sums are exactly real and eval prints
    the sign of the imaginary zero; for the six odd characteristics at the
    origin; at tau = diag(1e307i), where theta_eval gives 1 without a
    warning; and off-centre peaks at radius BOX_RADIUS or more (|Im z|
    1-2, lambda_min 0.15-0.3), where the scalar kernel sums a box.  Where
    tau1's phase overflows, the exponents are NaN, the kernel keeps them,
    and theta_eval raises NonFiniteSum."""
    rng = np.random.default_rng(7)
    cases = [(rng.choice(_UNREDUCED_CHARS), EvalPoint(*z), tau)
             for z, tau in zip(
                 (rng.uniform(-1, 1, (60, 2))
                  + 1j * rng.uniform(-1.5, 1.5, (60, 2))).tolist(),
                 _mixed_periods(rng, 60))]
    boxed = 0
    while boxed < 40:
        tau = _thin_tau(rng.uniform(0.15, 0.3), angle=rng.uniform(0, math.pi))
        im_z = rng.uniform(1, 2, 2) * rng.choice((-1.0, 1.0), 2)
        z = EvalPoint(*(rng.uniform(-1, 1, 2) + 1j * im_z).tolist())
        radius, floor = truncation_window(z, tau)
        if radius >= BOX_RADIUS:
            ch = rng.choice(_UNREDUCED_CHARS)
            a2, c2, b2, d2, _ = ch._kernel
            rows, cols = floor_box(radius, a2, c2, z.x + b2, z.y + d2,
                                   tau.tau1, tau.tau2, tau.tau12, floor)
            window = np.zeros((2 * radius + 1,) * 2)
            assert window[rows, cols].size < window.size
            cases.append((ch, z, tau))
            boxed += 1
    imaginary = PeriodMatrix(1.1j, 1.4j, 0.2j)
    cases += [(ch, ORIGIN, imaginary) for ch in _UNREDUCED_CHARS[::41]]
    odd = [ch for ch in _UNREDUCED_CHARS if ch.is_integer and is_odd(ch)]
    cases += [(ch, ORIGIN, tau) for ch in odd for tau in (imaginary, TAU_G)]
    huge = PeriodMatrix(1e307j, 1e307j, 0)
    cases += [(ThetaCharacteristic.of(0, 0, 0, 1), EvalPoint(0.1, 0), huge)]
    zero_imag = 0
    for ch, z, tau in cases:
        scalar, batch = _scalar_and_batch_of_one(ch, z, tau)
        assert _parts(scalar) == _parts(batch), (ch, z, tau)
        zero_imag += scalar.imag == 0
    assert zero_imag >= 20
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert theta_eval(ThetaCharacteristic.of(0, 0, 0, 1),
                          EvalPoint(0.1, 0), huge) == 1
    phase_overflow = PeriodMatrix(1e308 + 1j, 1j, 0)
    ch = ThetaCharacteristic.of(0, 0, 0, 0)
    radius, _ = truncation_window(ORIGIN, phase_overflow)
    k = np.arange(-radius, radius + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = exponents(*line(k), *line(k), 0j, 0j, 1e308 + 1j, 1j, 0j)
    assert np.isnan(grid.real).all()
    scalar, batch = _scalar_and_batch_of_one(ch, ORIGIN, phase_overflow)
    assert not cmath.isfinite(scalar) and not cmath.isfinite(batch)
    with pytest.raises(NonFiniteSum):
        theta_eval(ch, ORIGIN, phase_overflow)


def _per_window(values: list, tables, windows: int) -> list[list]:
    """A batch's values split into one list per window."""
    ends = list(itertools.accumulate(
        (len(tables[k % len(tables)]) for k in range(windows)), initial=0))
    return [values[lo:hi] for lo, hi in zip(ends, ends[1:])]


def test_kernel_batch_equals_theta_values_bit_for_bit():
    """A KernelBatch of three tables summed at 20 repetitions of windows,
    each at its own (z, tau) and radius (many sharing a radius and so a
    kernel call with tau per row; the last repetition repeats the first),
    gives exactly theta_values' values per window, and those are
    theta_eval's, to the sign bit."""
    rng = np.random.default_rng(11)
    tables = [[_UNREDUCED_CHARS[j] for j in rng.choice(
        len(_UNREDUCED_CHARS), size)] for size in (1, 16, 7)]
    pairs = []
    for tau in _mixed_periods(rng, 57):
        z = EvalPoint(*(complex(rng.uniform(-0.5, 0.5),
                                rng.uniform(-0.6, 0.6)) for _ in "xy"))
        pairs.append((z, tau))
    pairs += pairs[:3]
    windows = Windows.of(pairs)
    radii = windows.radius.tolist()
    assert radii == [truncation_window(z, tau)[0] for z, tau in pairs]
    assert len(set(radii)) < len(radii) - 40
    got = _per_window(KernelBatch.of(tables).values(windows), tables,
                      len(pairs))
    assert len(got) == len(pairs) and got[-3:] == got[:3]
    for k, (values, (z, tau)) in enumerate(zip(got, pairs)):
        chars = tables[k % 3]
        want = theta_values(chars, z, tau)
        assert [_parts(v) for v in values] == [_parts(v) for v in want]
        assert want == [theta_eval(ch, z, tau) for ch in chars]


def test_kernel_batch_raises_or_keeps_an_overflow():
    """At z = (0.2 + 15.45i, 0) the sums of some integer characteristics
    overflow and those of others do not.  A batch raises NonFiniteSum
    naming the first that overflows in table order, as theta_values names
    it; with strict False it keeps the non-finite values, where theta_eval
    raises, and gives theta_eval's values elsewhere.  Neither warns
    (numpy's warnings raised here as errors)."""
    edge = EvalPoint(0.2 + 15.45j, 0)
    tables = (_INTEGER_CHARS[:4], _INTEGER_CHARS[::-1])
    points = (Z_G, Z_G, edge, edge)
    windows = Windows.of((z, TAU_G) for z in points)
    batch = KernelBatch.of(tables)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteSum) as want:
            theta_values(_INTEGER_CHARS[::-1], edge, TAU_G)
        with pytest.raises(NonFiniteSum, match=r"theta\[1 1; 1 1\]") as got:
            batch.values(windows)
        kept = _per_window(batch.values(windows, strict=False), tables,
                           len(points))
    assert str(got.value) == str(want.value)
    outcomes = {"finite": 0, "overflow": 0}
    for k, (values, z) in enumerate(zip(kept, points)):
        for ch, value in zip(tables[k % 2], values):
            try:
                assert _parts(value) == _parts(theta_eval(ch, z, TAU_G))
                outcomes["finite"] += 1
            except NonFiniteSum:
                assert not cmath.isfinite(value)
                outcomes["overflow"] += 1
    assert outcomes == {"finite": 4 + 16 + 4 + 6, "overflow": 10}


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
    t1, t2, t12 = (np.full(a2.shape, v, dtype=complex)
                   for v in (tau.tau1, tau.tau2, tau.tau12))
    args = (a2, c2, z.x + b2, z.y + d2, t1, t2, t12, radius)
    pruned = lattice_sum(*args, floor=floor)
    full = lattice_sum(*args)
    assert np.abs(pruned - full).max() <= slack
    k = np.arange(-radius, radius + 1.0)
    grid = exponents(*line(k + a2[:, None]), *line(k + c2[:, None]),
                     args[2][:, None], args[3][:, None], t1[:, None],
                     t2[:, None], t12[:, None, None])
    terms = np.exp(grid)
    dropped = grid.real < floor
    assert dropped.any()
    terms[dropped] = 0
    assert terms.sum(axis=(-2, -1)).tolist() == pruned.tolist()


def _box_rows(rng, count: int) -> list[tuple]:
    """count kernel rows (a2, c2, xs, ys, tau1, tau2, tau12, radius,
    floor) at windows (_window) that are not loud and have radius
    BOX_RADIUS or more: Im tau of any shape with |Im tau12| up to
    0.95*sqrt(Im tau1 * Im tau2), scaled to lambda_min in [0.01, 0.15];
    each |Im z| coordinate up to the smaller of 0.97*59*lambda_min (the
    peak inside max_radius) and sqrt(110*lambda_min), about where the
    window turns loud; the 16 offset pairs (a2, c2) in turn, in runs of
    16 at eps_tail 1e-14 and 1e-6 alternately."""
    rows = []
    while len(rows) < count:
        i1, i2 = rng.uniform(0.3, 2.0, 2)
        i12 = rng.uniform(-0.95, 0.95) * math.sqrt(i1 * i2)
        i1, i2, i12 = np.array([i1, i2, i12]) * (
            rng.uniform(0.01, 0.15) / lambda_min(1j * i1, 1j * i2, 1j * i12))
        lam = lambda_min(1j * i1, 1j * i2, 1j * i12)
        im_z = rng.uniform(-1, 1, 2) * min(0.97 * 59 * lam,
                                           math.sqrt(110 * lam))
        re = rng.uniform(-0.5, 0.5, 5)
        z = EvalPoint(complex(re[0], im_z[0]), complex(re[1], im_z[1]))
        tau = PeriodMatrix(complex(re[2], i1), complex(re[3], i2),
                           complex(re[4], i12))
        eps_tail = (1e-14, 1e-6)[len(rows) // 16 % 2]
        try:
            radius, floor, loud = theta_core._window(
                z, tau, eps_tail, DEFAULT_POLICY.max_radius)
        except RadiusExceeded:
            continue
        if loud or radius < BOX_RADIUS:
            continue
        a2, c2 = len(rows) % 4 / 4, len(rows) // 4 % 4 / 4
        b2, d2 = rng.integers(0, 4, 2) / 4
        rows.append((a2, c2, z.x + b2, z.y + d2, tau.tau1, tau.tau2,
                     tau.tau12, radius, floor))
    return rows


def _tip_row(rng, row: tuple) -> tuple:
    """row with Im(xs, ys) and the floor moved so that a drawn term is the
    tip, along +-m or +-n, of the ellipse of terms whose log-modulus
    reaches the floor: the floor is that term's computed log-modulus, so
    in exact arithmetic the box's end lies on the term's index.  The peak
    stays inside the window and below log-modulus 450.  Returns the row
    and (the term's index, its axis k, whether it ends the box upward)."""
    a2, c2, xs, ys, tau1, tau2, tau12, radius, _ = row
    im_tau = np.array([[tau1.imag, tau12.imag], [tau12.imag, tau2.imag]])
    inverse = np.linalg.inv(im_tau)
    k = rng.integers(2)
    # x = v + u, the term less the peak, along the column (Im tau)^-1 e_k
    x = (rng.choice((-1.0, 1.0)) * rng.uniform(0.5, radius / 8)
         * inverse[:, k] / inverse[k, k])
    reach = min(radius / 4, 6 / math.sqrt(np.linalg.eigvalsh(im_tau)[-1]))
    offsets = np.array([a2, c2])
    v = np.round(x - rng.uniform(-reach, reach, 2) - offsets) + offsets
    im_z = im_tau @ (x - v)
    xs, ys = complex(xs.real, im_z[0]), complex(ys.real, im_z[1])
    index = tuple((v - offsets).astype(int) + radius)
    assert 0 <= min(index) and max(index) <= 2 * radius
    grid = _full_grid(a2, c2, xs, ys, tau1, tau2, tau12, radius)
    return ((a2, c2, xs, ys, tau1, tau2, tau12, radius,
             float(grid.real[index])), (index, k, x[k] > 0))


def _full_grid(a2, c2, xs, ys, tau1, tau2, tau12, radius):
    """The exponents of the whole window, from uncached lines."""
    k = np.arange(-radius, radius + 1.0)
    return exponents(*line(k + a2), *line(k + c2), xs, ys, tau1, tau2, tau12)


def test_floor_box_holds_every_term_that_reaches_the_floor():
    """floor_box holds every term of the full window (exponents) whose
    real part is at least the floor, and the box path of the scalar
    kernel gives the full window's sum to the sign bit: on 2,000 seeded
    rows of _box_rows, and on 800 of them moved so that a term sits on
    the tip of its ellipse, where the box ends on that term's index.  The
    boxes hold a fifth of the window or less in most rows.  Where the box
    is not finite (floor -inf, or Im tau1 * Im tau2 overflowing) it is
    the whole window."""
    rng = np.random.default_rng(27)
    drawn = _box_rows(rng, 2000)
    cases = [(row, None) for row in drawn] + [
        _tip_row(rng, row) for row in drawn[::5] + drawn[1::5]]
    small = 0
    for (*kernel_row, radius, floor), tip in cases:
        box = floor_box(radius, *kernel_row, floor)
        grid = _full_grid(*kernel_row, radius)
        inside = np.zeros(grid.shape, dtype=bool)
        inside[box] = True
        reached = ~(grid.real < floor)
        assert not (reached & ~inside).any(), kernel_row
        small += inside.sum() <= 0.2 * inside.size
        if tip is not None:
            index, k, upward = tip
            assert reached[index]
            assert index[k] == (box[k].stop - 1 if upward
                                else box[k].start), kernel_row
        got = lattice_sum(*kernel_row, radius, floor=floor, box=True)
        want = lattice_sum(*kernel_row, radius, floor=floor)
        assert _parts(got) == _parts(want), kernel_row
    assert small > 0.5 * len(cases)
    # No box where it cannot be formed: floor -inf, and a window that is
    # not loud at radius 24 whose Im tau1 * Im tau2 overflows (1e309).
    i12 = math.sqrt(1e303) * math.sqrt(1e6) * (1 - 2.5e-8)
    thin = PeriodMatrix(0.1 + 1e303j, 0.2 + 1e6j, complex(0, i12))
    z = EvalPoint(0.1 + 0.3j, 0.2 - 0.1j)
    radius, floor, loud = theta_core._window(z, thin, DEFAULT_POLICY.eps_tail,
                                             DEFAULT_POLICY.max_radius)
    assert (radius, loud) == (24, False)
    kernel_row = (0.5, 0.0, z.x, z.y, thin.tau1, thin.tau2, thin.tau12)
    for floor in (floor, -math.inf):
        assert floor_box(radius, *kernel_row, floor) == (
            slice(0, 2 * radius + 1),) * 2
        boxed = lattice_sum(*kernel_row, radius, floor=floor, box=True)
        assert _parts(boxed) == _parts(
            lattice_sum(*kernel_row, radius, floor=floor))


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
    value, so theta_eval raises rather than return NaN, and without
    numpy's overflow warnings (raised here as errors)."""
    with warnings.catch_warnings(), pytest.raises(NonFiniteSum):
        warnings.simplefilter("error", RuntimeWarning)
        theta_eval(ThetaCharacteristic.of(0, 0, 0, 0), EvalPoint(0.2 + 20j, 0),
                   TAU_G)


def test_exponents_near_the_largest_float_do_not_warn():
    """At periods near the largest float, forming the exponents overflows
    although every term, and so the sum, is finite: theta_eval forms them
    under np.errstate, so numpy warns nothing (raised here as errors)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = theta_eval(ThetaCharacteristic.of(0, 0, 0, 1),
                           EvalPoint(0.1, 0), PeriodMatrix(1e307j, 1e307j, 0))
    assert value == 1


def _overflow_band_inputs(rng) -> list[tuple]:
    """(family, ch, z, tau) around the certain-overflow test: characteristic
    entries k/2 with k in [-3, 4], Im tau drawn as the benchmark draws it
    (lambda_min >= 0.15), and four families of Im z.
      * the failing band: each |Im z| uniform in 8..20, random signs;
      * near threshold: Im tau scaled so that the Gaussian's peak, within
        0.3 of a lattice point of the characteristic's coset, has
        log-modulus 709..712;
      * Im tau entries of 1e100: the peak within 0.3 of a lattice point,
        or, with a and c in 2Z and Im tau12 < 0, at (1/2, 1/2).  There the
        largest terms are (0, 0), of modulus 1, and (1, 1), whose
        log-modulus is a difference of pieces of size 1e100, so that it is
        rounding noise of either sign, and a fixed margin misjudges it."""
    inputs = []
    for family in ("band", "near", "huge", "midpoint") * 120:
        while True:
            i1, i2 = rng.uniform(0.3, 2.0, 2)
            i12 = rng.uniform(-0.95, 0.95) * math.sqrt(i1 * i2)
            if lambda_min(1j * i1, 1j * i2, 1j * i12) >= 0.15:
                break
        ks = rng.integers(-3, 5, 4)
        if family == "midpoint":
            ks[:2] &= -4
            i12 = -abs(i12)
        ch = ThetaCharacteristic.of(*(Fraction(int(k), 2) for k in ks))
        a2, c2 = ch._kernel[:2]
        im_tau = np.array([[i1, i12], [i12, i2]])
        peak = rng.integers(-15, 16, 2) + np.array([a2, c2])
        if family == "band":
            im_z = rng.uniform(8.0, 20.0, 2) * rng.choice((-1.0, 1.0), 2)
        else:
            if family == "midpoint":
                peak = np.array([0.5, 0.5])
            else:
                peak += rng.uniform(-0.3, 0.3, 2)
            if family == "near":
                im_tau *= (rng.uniform(709.0, 712.0)
                           / (math.pi * peak @ im_tau @ peak))
            else:
                im_tau *= 1e100
            im_z = -im_tau @ peak
        re = rng.uniform(-0.5, 0.5, 5)
        inputs.append((family, ch, EvalPoint(complex(re[0], im_z[0]),
                                             complex(re[1], im_z[1])),
                       PeriodMatrix(complex(re[2], im_tau[0, 0]),
                                    complex(re[3], im_tau[1, 1]),
                                    complex(re[4], im_tau[0, 1]))))
    return inputs


def test_certain_overflow_is_raised_without_summing(monkeypatch):
    """Where the window admits an overflow and one term must overflow,
    theta_eval raises NonFiniteSum without a kernel call, and summing that
    window (lattice_sum) gives a non-finite value, so no finite value is
    lost.
    Every input gives a finite value, RadiusExceeded or NonFiniteSum,
    without numpy's warnings (raised here as errors); the test fires on
    every peak of modulus exp(1e100) within 0.3 of a lattice point."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[7])
        return lattice_sum(*args, **kwargs)

    monkeypatch.setattr(theta_core, "lattice_sum", counted)
    outcomes = {"finite": 0, "summed overflow": 0, "certain": 0,
                "exceeded": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for family, ch, z, tau in _overflow_band_inputs(
                np.random.default_rng(24)):
            del calls[:]
            try:
                value = theta_eval(ch, z, tau)
            except RadiusExceeded:
                outcomes["exceeded"] += 1
                continue
            except NonFiniteSum as exc:
                value = exc
            a2, c2, b2, d2, _ = ch._kernel
            window = theta_core._window(z, tau, DEFAULT_POLICY.eps_tail,
                                        DEFAULT_POLICY.max_radius)
            certain = window[2] and theta_core._must_overflow(
                z, tau, window[0], a2, c2)
            assert certain or family != "huge"
            if certain:
                outcomes["certain"] += 1
                assert isinstance(value, NonFiniteSum) and calls == []
                assert "overflows" in str(value) and str(ch) in str(value)
                with np.errstate(over="ignore", invalid="ignore"):
                    summed = lattice_sum(a2, c2, z.x + b2, z.y + d2,
                                         tau.tau1, tau.tau2, tau.tau12,
                                         window[0], floor=window[1])
                assert not cmath.isfinite(summed)
            elif isinstance(value, NonFiniteSum):
                outcomes["summed overflow"] += 1
                assert calls == [window[0]]
            else:
                outcomes["finite"] += 1
                assert cmath.isfinite(value) and calls == [window[0]]
    assert min(outcomes.values()) > 0, outcomes


def test_certain_overflow_away_from_the_rounded_peak(monkeypatch):
    """An input of the benchmark's theta-eval workload (seed 0, item 20,
    op 252) whose Im tau is far from diagonal: the peak less the offsets
    is (8.47, 3.41), the term at the rounded point (8, 3) need not
    overflow, but the term at the corner (9, 3) must.  theta_eval raises
    NonFiniteSum before summing, with the certain-overflow text."""
    ch = ThetaCharacteristic.of(-1, "-3/2", "3/2", "-3/2")
    z = EvalPoint(-0.37210546709432557 - 19.489760843332938j,
                  -0.47046071743115325 - 14.13889687403966j)
    tau = PeriodMatrix(0.11995928801487998 + 1.8280905489744264j,
                       -0.06657386463477843 + 1.7901835936912267j,
                       -0.2598161679282467 + 0.8464435689659099j)
    radius, _, loud = theta_core._window(z, tau, DEFAULT_POLICY.eps_tail,
                                         DEFAULT_POLICY.max_radius)
    assert (radius, loud) == (50, True)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[7])
        return lattice_sum(*args, **kwargs)

    monkeypatch.setattr(theta_core, "lattice_sum", counted)
    with pytest.raises(NonFiniteSum) as exc:
        theta_eval(ch, z, tau)
    assert str(exc.value) == ("theta[-1 -3/2; 3/2 -3/2] sum overflows: a "
                              "term's modulus exceeds the largest float")
    assert calls == []


def test_a_loud_window_sums_its_whole_square(monkeypatch):
    """Where forming the exponents may overflow (_window: loud), theta_eval
    sums the whole window at radius BOX_RADIUS or more as well: a real
    part that overflows gives NaN exponents, which the kernel keeps and
    the box of terms that can reach the floor, formed from Im parts only,
    cannot see.  At Re tau1 = 3.2e306 they lie at |m| >= 18, outside that
    box (|m| <= 4), where a box sums finite terms only; at Re x = 1e307
    the imaginary parts overflow.  Both raise the NonFiniteSum of the
    summed window, without numpy's warnings (raised here as errors); the
    input of CI's first overflow pin, which _must_overflow catches, makes
    no kernel call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("box", False))
        return lattice_sum(*args, **kwargs)

    monkeypatch.setattr(theta_core, "lattice_sum", counted)
    cases = [
        (ThetaCharacteristic.of(0, 0, 0, 0), EvalPoint(0.1, 0.2 + 2j),
         PeriodMatrix(3.2e306 + 2j, 0.3 + 0.15j, 0j), 35, [False],
         "theta[0 0; 0 0] sum overflows to (nan+nanj)"),
        (ThetaCharacteristic.of(1, 0, 0, 1),
         EvalPoint(1e307 + 1.5j, 0.2 - 0.5j),
         PeriodMatrix(0.1 + 0.15j, 0.3 + 1.2j, 0.05j), 28, [False],
         "theta[1 0; 0 1] sum overflows to (nan+nanj)"),
        (ThetaCharacteristic.of(0, 0, 0, 0), EvalPoint(0, 20j), TAU_E, 49, [],
         "theta[0 0; 0 0] sum overflows: a term's modulus exceeds the "
         "largest float"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ch, z, tau, radius, kernel_calls, message in cases:
            window = theta_core._window(z, tau, DEFAULT_POLICY.eps_tail,
                                        DEFAULT_POLICY.max_radius)
            assert (window[0], window[2]) == (radius, True)
            del calls[:]
            with pytest.raises(NonFiniteSum) as exc:
                theta_eval(ch, z, tau)
            assert str(exc.value) == message and calls == kernel_calls
    ch, z, tau, *_ = cases[0]
    a2, c2, b2, d2, _ = ch._kernel
    radius, floor = truncation_window(z, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        boxed = lattice_sum(a2, c2, z.x + b2, z.y + d2, tau.tau1, tau.tau2,
                            tau.tau12, radius, floor=floor, box=True)
    assert cmath.isfinite(boxed)


def _refusals() -> list[tuple[EvalPoint, PeriodMatrix]]:
    """Windows truncation_window refuses, each for its own reason, and a
    valid window of entries near 1e200; entries complex, as in an array."""
    inf = math.inf
    return [
        (Z_G, PeriodMatrix(1j, 1j, 1j)),              # singular Im tau
        (Z_G, PeriodMatrix(complex("nan"), 2j, 0j, Scale.DOUBLED)),
        (Z_G, PeriodMatrix(1j, complex(inf, 1), 0j)),  # non-finite entry
        (ORIGIN, PeriodMatrix(1e200j, 1e200j, 1e200j)),   # invalid
        (ORIGIN, PeriodMatrix(1e200j, 1e200j, 0.99e200j)),  # valid
        (EvalPoint(complex(inf, 0.1), 0.2j), TAU_G),  # finite rho, inf Re x
        (EvalPoint(0.1 + 0j, complex(0.2, -inf)), TAU_G),
        (EvalPoint(0j, 100j), TAU_E),                 # RadiusExceeded
        (ORIGIN, PeriodMatrix(1e300j, 1e-300j, 0j)),  # RadiusExceeded
    ]


def test_truncation_windows_equal_truncation_window():
    """truncation_windows gives every window truncation_window's radius
    and floor, bit for bit, and where truncation_window raises, radius 0,
    floor -inf and its exception, of the same class and text: seeded
    windows at base and doubled periods with the refusals between them."""
    rng = np.random.default_rng(25)
    pairs = []
    for tau in _mixed_periods(rng, 30):
        z = EvalPoint(*(complex(rng.uniform(-0.5, 0.5),
                                rng.uniform(-2.0, 2.0)) for _ in "xy"))
        pairs += [(z, tau), (z.scaled(2), double_periods(tau))]
    pairs[5:5] = _refusals()
    x, y, tau1, tau2, tau12 = (np.array(column, dtype=complex) for column in
                               zip(*((z.x, z.y, t.tau1, t.tau2, t.tau12)
                                     for z, t in pairs)))
    doubled = [t.scale is Scale.DOUBLED for _, t in pairs]
    windows, errors = theta_core.truncation_windows(x, y, tau1, tau2, tau12,
                                                    doubled)
    refused = []
    for k, (z, tau) in enumerate(pairs):
        got = (windows.radius[k], float.hex(windows.floor[k]))
        try:
            radius, floor = truncation_window(z, tau)
        except (ValueError, ArithmeticError, RadiusExceeded) as exc:
            refused.append(type(exc).__name__)
            assert got == (0, float.hex(-math.inf))
            assert (type(errors[k]), str(errors[k])) == (type(exc), str(exc))
            continue
        assert k not in errors and got == (radius, float.hex(floor))
    assert refused == ["InvalidPeriod"] * 4 + ["ValueError"] * 2 + [
        "RadiusExceeded"] * 2
    assert len(errors) == len(refused)
    assert "doubled" in str(errors[6])


def test_windows_for_equals_window_for_element_by_element():
    """windows_for gives every (lam, rho) pair window_for's radius and
    floor, bit for bit, and radius 0 with floor -inf where window_for
    raises RadiusExceeded: a seeded sweep of 20,007 pairs, lam from 1e-3
    to 20, rho = 0 on a fifth of them and t* + 1 at the radius cap on
    some, over three tail targets and three caps."""
    rng = np.random.default_rng(22)
    at_cap = exceeded = 0
    for eps_tail, max_radius in itertools.product((1e-14, 1e-6, 1e-15),
                                                  (10, 60, 200)):
        lam = np.exp(rng.uniform(math.log(1e-3), math.log(20.0), 2223))
        rho = lam * rng.uniform(0.0, max_radius, lam.size)
        rho[::5] = 0.0
        rho[1::40] = lam[1::40] * (max_radius - 1)
        at_cap += int(np.sum(rho / lam + 1.0 == max_radius))
        radii, floors = windows_for(lam, rho, eps_tail, max_radius)
        for pair, got in zip(zip(lam.tolist(), rho.tolist()),
                             zip(radii.tolist(), floors.tolist())):
            try:
                want = window_for(*pair, eps_tail, max_radius)
            except RadiusExceeded:
                want = (0, -math.inf)
                exceeded += 1
            assert got == want, (pair, eps_tail, max_radius)
    assert at_cap > 300 and 2000 < exceeded < 15000


def _full_scan(lam: float, rho: float, eps_tail: float,
               max_radius: int) -> tuple[int, float]:
    """window_for's bound tested at every radius from max(2, ceil(t*+1)),
    the scan before its start was raised to one below the bound's root."""
    log2 = math.log(2.0)
    t_star = rho / lam if lam > 0 else math.inf
    if t_star + 1.0 <= max_radius:
        log_eps = math.log(eps_tail)
        log_s = log2 + math.pi * rho * rho / lam \
            + math.log(t_star + 2.0 + 1.0 / math.sqrt(lam))
        log_target = log_eps - log2 - log_s
        for radius in range(max(2, math.ceil(t_star + 1.0)), max_radius + 1):
            log_t1 = log2 - math.pi * lam * radius * radius \
                + 2.0 * math.pi * rho * radius \
                + math.log1p(1.0 / (2.0 * math.pi * (lam * radius - rho)))
            if log_t1 < log_target:
                slack = -math.expm1(log_t1 - log_target)
                return radius, (log_eps + math.log(slack) - FLOOR_MARGIN
                                - 2.0 * math.log(2 * radius + 1))
    raise RadiusExceeded(
        f"tail target {eps_tail} unreachable within radius {max_radius} "
        f"(lambda_min={lam:.3g}, rho={rho:.3g})")


def _outcome(scan, *args):
    try:
        return scan(*args)
    except RadiusExceeded as exc:
        return str(exc)


def test_window_for_equals_a_full_scan():
    """window_for starts its scan one below the root of its bound without
    the log1p term, yet gives the (R, floor) of a scan from
    max(2, ceil(t*+1)), bit for bit, or the same RadiusExceeded text: a
    seeded sweep of 6,000 cases, lam from 5e-324 to 1e307 (from 1e-2 to
    1e4 on half of them, where most radii are found), rho = 0 on a third,
    t* + 1 at the radius cap on a third and t* up to half the cap on the
    rest, eps_tail from 1e-300 to 0.5 and caps from 1 to 1000.  Over 1,000
    cases find their radius past the full scan's first."""
    rng = np.random.default_rng(23)
    size = 6000
    lam = np.exp(rng.uniform(math.log(5e-324), math.log(1e307), size))
    lam[1::2] = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), size // 2))
    lam[:4] = (5e-324, 1e-300, 1e300, 1e307)
    eps_tail = np.exp(rng.uniform(math.log(1e-300), math.log(0.5), size))
    max_radius = np.exp(rng.uniform(0.0, math.log(1000.5), size)).astype(int)
    t_star = rng.uniform(0.0, max_radius / 2, size)
    t_star[::3] = 0.0
    t_star[1::3] = max_radius[1::3] - 1
    with np.errstate(over="ignore"):  # rho is kept finite
        rho = np.minimum(lam * t_star, 1.7e308)
    found = exceeded = 0
    for case in zip(lam.tolist(), rho.tolist(), eps_tail.tolist(),
                    max_radius.tolist()):
        want = _outcome(_full_scan, *case)
        assert _outcome(window_for, *case) == want, case
        if isinstance(want, str):
            exceeded += 1
        elif want[0] > max(2, math.ceil(case[1] / case[0] + 1.0)):
            found += 1
    assert found > 1000 and exceeded > 2000, (found, exceeded)


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
    errors = []
    windows = theta_core.truncation_windows

    def windowed(*args):
        out = windows(*args)
        errors.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity_catalog, "truncation_windows", windowed)
        for t in taus:
            identity_catalog._evaluate(prog, Draws.of(
                [SampleAssignment(t, ORIGIN, ORIGIN, seed=0)]), 0,
                DEFAULT_POLICY)
    assert [{type(e) for e in errs.values()} for errs in errors] \
        == [{InvalidPeriod}, set(), {RadiusExceeded}]
