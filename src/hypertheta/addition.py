"""Algebraic addition law for genus-2 theta quotients.

The quotient functions F[a c; b d](z) = theta[a c; b d](z) / theta[0 0; 0 0](z)
satisfy an algebraic addition law: all fifteen quotients at z1 + z2 are
rational functions of the quotients at z1, the quotients at z2, and theta
constants of the doubled period matrix.  This module implements that law in
three layers, running the identity catalog's own rows:

  1. doubled_values: from the sixteen point values at one z, produce the
     doubled-argument thetas at 2z the law reads (twelve integer and
     twelve half characteristics, one per solved row C1..C12, C17..C28),
     each divided through by its constants coefficient.  The map is
     homogeneous of degree 2, so feeding quotients instead of raw values
     scales every output by the same factor 1/theta[0 0;0 0]^2(z).
  2. duplication pairings (rows B1..B19 but B4, B8, B12, B16, and eight
     general_duplication instances): combine doubled values at 2*z1 and
     2*z2 into the products G[a c;b d] = theta[a c;b d](z1+z2) *
     theta[a c;0 0](z1-z2), the three connector products anchored on
     theta[0 0;0 0](z1-z2), and for the quotients with lower row (1 1)
     products anchored on theta[a c;1 1](z1-z2).
  3. quotient assembly: ratios of the G-values in which the difference
     factors and the common homogeneity scale cancel, leaving exactly
     F[a c;b d](z1+z2).

The law runs in two modes sharing layers 2-3.  Reduced mode (add_vector)
builds the doubled values out of the fifteen quotients and the constants
alone and never evaluates a theta series at a new argument.  Direct mode
(add_direct) instead sums every doubled theta at (2z; doubled periods) from
scratch.  verify_addition checks reduced mode against direct summation at
z1+z2 and cross-checks the two modes against each other.

The catalog's C and B rows and the duplication formula are the law's
only source: its constants are the ones its C rows read (constant_chars),
and its guard against a degenerate tau is those rows' own lhs
coefficients (near_singular).  It reads none of C13..C16, whose rhs
cancels about 2e5-fold on some draws, nor D1..D16, whose root forms
identity_catalog checks.

Direct sums take theta_core's one batched path, KernelBatch:
constants_vector, f_vector's numerators and doubled_values_direct are one
theta_values call each, and verify_addition windows the six windows of
each sample of a block in one truncation_windows call and sums their 107
series in one KernelBatch call (_block), leaving only a sample's three
normalizers to theta_eval.  The 107 series fall into 54 upper classes
whose first rows are theta_eval's values bit for bit; the others are
formed from their class's residue sums (KernelBatch).

The block then runs the law on all its samples at once (_finish_block),
as numpy arrays of dtype=object, from index arrays (_BlockLaw) compiled
with the tables and the block's kernel rows into one cached object
(_law_tables); its sums of products are identity_catalog's (_products,
_fold), which sum the catalog's sides too.  Each element operation is
CPython's own complex arithmetic, in the scalar law's order, so every
value is bit for bit that of the per-point functions add_vector,
add_direct and doubled_values, which stay scalar as the reference: a
complex128 law would round differently, and by the CPU's SIMD level,
since numpy's complex multiply contracts to FMA under x86-64-v3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Mapping, NamedTuple

import numpy as np

from .identity_catalog import (
    ARG_2P1,
    ARG_2P2,
    ARG_DIFF,
    ARG_ORIGIN,
    ARG_P1,
    ARG_SUM,
    IdentityTerm,
    ResidualReport,
    _fold,
    _fold_plan,
    _positions,
    _products,
    build_catalog,
    general_duplication,
)
from .sampling import make_rng, sample_point, sample_tau
from .theta_core import (
    DEFAULT_POLICY,
    ORIGIN,
    EvalPoint,
    KernelBatch,
    PeriodMatrix,
    PrecisionPolicy,
    Scale,
    ThetaCharacteristic,
    Windows,
    double_periods,
    theta_eval,
    theta_values,
    truncation_windows,
)

DIVISOR_THRESHOLD = 1e-10
CONSISTENCY_TOL = 1e-8
PATH_TOL = 1e-9


class DivisorHit(ArithmeticError):
    """The normalizing theta[0 0;0 0] vanishes (to threshold) at the point."""


class DegenerateDenominator(ArithmeticError):
    """A denominator of the algebraic assembly fell below threshold."""


BASE_CHAR = (0, 0, 0, 0)

# The fifteen quotient characteristics in report order A1..A15: the three
# lower-row-only ones first, then each nonzero upper row with its lower rows.
A_ORDER: tuple[tuple, ...] = (
    (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
    (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1),
    (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1),
    (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1))

A_LABELS: dict[str, tuple] = {f"A{k + 1}": ch for k, ch in enumerate(A_ORDER)}

_BASE = ThetaCharacteristic.of(*BASE_CHAR)
_A_CHARS = tuple(ThetaCharacteristic.of(*ch) for ch in A_ORDER)

# The catalog rows the law runs: C1..C12 and C17..C28 solve each doubled
# theta at 2z, and B1..B19 but B4, B8, B12 and B16 pair doubled values at
# 2*z1 and 2*z2 into duplication products.  The law reads no doubled theta
# with lower row (1 1): on some draws the rhs of C13..C16, which solve
# them, cancels about 2e5-fold, and the four B rows that read them carry
# that into A3, A7, A11 and A15.  Those quotients take the route of
# _ROUTE_UPPERS instead.  C13..C16 and B4, B8, B12, B16 stay catalog rows.
SOLVED_IDS = tuple(f"C{n}" for n in (*range(1, 13), *range(17, 29)))
PAIRING_IDS = tuple(f"B{n}" for n in range(1, 20) if n not in (4, 8, 12, 16))

# The upper rows u of the route: with s = [u; 1 1] and e = [u; 0 1],
# G[s, s] = theta[s](z1+z2) * theta[s](z1-z2) reads doubled thetas with
# lower row (0 0), and G[e, s] with lower row (1 0), so F[s] = G[s, s] /
# G[e, s] * F[e] at z1+z2 reads none with lower row (1 1).  Its difference
# factor theta[s](z1-z2) cancels.  The other anchor the duplication formula
# allows, theta[e](z1-z2) in G[s, e] / G[e, e], leaves sample 5 of
# verify_addition(10, 7177) at 2.2e-9, where theta[e](z1-z2) is 300 times
# smaller than theta[s](z1-z2).  The 8 pairings are general_duplication
# instances, compiled with the catalog rows but not catalog rows.
_ROUTE_UPPERS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class FVector:
    """The fifteen quotients at one point, ordered per A_ORDER.

    F[0 0;0 0] is identically 1 and is not stored; indexing by the base
    characteristic returns 1 so the vector acts like all sixteen values.
    """

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 15:
            raise ValueError(f"expected 15 quotients, got {len(self.values)}")

    @staticmethod
    def _key(ch) -> tuple:
        if isinstance(ch, ThetaCharacteristic):
            return tuple(int(e) if e.denominator == 1 else e
                         for e in ch.entries)
        return tuple(ch)

    def __getitem__(self, ch) -> complex:
        key = self._key(ch)
        if key == BASE_CHAR:
            return 1.0 + 0j
        return self.values[A_ORDER.index(key)]


@dataclass(frozen=True)
class ConstantsVector:
    """The values of the fourteen doubled-period theta constants the
    solved rows read at one tau, in constant_chars() order, each summed
    once.  Indexing takes a characteristic or a 4-tuple, as FVector's
    does.  The six odd constants vanish identically and no row reads
    them, and [0 0;1 1] and [1 1;1 1] are read only by C13..C16."""

    values: tuple[complex, ...]

    def __getitem__(self, ch) -> complex:
        return self.values[list(_law_tables().constants).index(
            FVector._key(ch))]

    @cached_property
    def _solved_rows(self) -> tuple[tuple, ...]:
        """The solved rows SOLVED_IDS at this tau, computed once: per row, its
        id, its lhs coefficient and its rhs terms as (coeff * constants,
        chA index, chB index).  Each lhs sum is a left fold from 0j, as
        the block's (_BlockLaw), not builtin sum(), which may compensate
        complex sums."""
        law = _law_tables()
        values = [math.prod((self.values[i] for i in factors), start=1)
                  for factors in law.products]
        rows = []
        for ident, lhs, rhs in law.solved:
            den = 0j
            for c, i in lhs:
                den += c * values[i]
            rows.append((ident, den,
                         [(c * values[i], a, b) for c, i, a, b in rhs]))
        return tuple(rows)

    def near_singular(self) -> tuple[str, ...]:
        """Ids of the solved rows whose lhs coefficient is below
        DIVISOR_THRESHOLD at this tau: the rows add_vector refuses."""
        return tuple(ident for ident, den, _ in self._solved_rows
                     if abs(den) < DIVISOR_THRESHOLD)


# --------------------------------------------------------------------------
# direct evaluation of quotients and constants

def _normalizer(z: EvalPoint, tau: PeriodMatrix,
                pol: PrecisionPolicy) -> complex:
    """theta[0 0;0 0](z) by theta_eval; raises DivisorHit where it
    vanishes to DIVISOR_THRESHOLD."""
    den = theta_eval(_BASE, z, tau, pol)
    if abs(den) < DIVISOR_THRESHOLD:
        raise DivisorHit(f"theta[0 0;0 0]({z.x:.4g}, {z.y:.4g}) = {den:.3e}")
    return den


def f_eval(ch, z: EvalPoint, tau: PeriodMatrix,
           pol: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """F[ch](z) by direct summation of numerator and normalizer."""
    if not isinstance(ch, ThetaCharacteristic):
        ch = ThetaCharacteristic.of(*ch)
    den = _normalizer(z, tau, pol)
    return theta_eval(ch, z, tau, pol) / den


def f_vector(z: EvalPoint, tau: PeriodMatrix,
             pol: PrecisionPolicy = DEFAULT_POLICY) -> FVector:
    """All fifteen quotients at z by direct summation: the normalizer
    first, so DivisorHit is raised before any numerator is summed, then the
    fifteen numerators in one theta_values call."""
    den = _normalizer(z, tau, pol)
    vals = tuple(v / den for v in theta_values(_A_CHARS, z, tau, pol))
    return FVector(vals)


def constant_chars() -> tuple[ThetaCharacteristic, ...]:
    """The doubled-period constants the solved rows read, in first-read
    order."""
    return tuple(_law_tables().constants.values())


def constants_vector(tau: PeriodMatrix,
                     pol: PrecisionPolicy = DEFAULT_POLICY) -> ConstantsVector:
    """The constants the solved rows read at tau, each summed once at the
    origin and doubled periods, all in one theta_values call."""
    return ConstantsVector(tuple(theta_values(
        constant_chars(), ORIGIN, double_periods(tau), pol)))


# --------------------------------------------------------------------------
# the law's tables, compiled from the catalog rows

def _guard(value: complex, what: str) -> complex:
    if abs(value) < DIVISOR_THRESHOLD:
        raise DegenerateDenominator(f"{what} = {value:.3e}")
    return value


# The sixteen point values in the order the compiled rows index them.
_POINT_CHARS = (BASE_CHAR,) + A_ORDER

# (argument, scale) of the factors away from the origin, per side of a
# solved row (C) and of a pairing row (B).
_SOLVED_LHS = ((ARG_2P1, Scale.DOUBLED),)
_SOLVED_RHS = ((ARG_P1, Scale.BASE),) * 2
_PAIRING_LHS = ((ARG_SUM, Scale.BASE), (ARG_DIFF, Scale.BASE))
_PAIRING_RHS = ((ARG_2P1, Scale.DOUBLED), (ARG_2P2, Scale.DOUBLED))


def _read(term: IdentityTerm, shape: tuple, ident: str) -> tuple:
    """(coefficient, keys of the factors away from the origin, keys of the
    doubled-period constants) of a term whose factors away from the origin
    have the (argument, scale) `shape`."""
    moving = [f for f in term.factors if f.arg != ARG_ORIGIN]
    consts = [f for f in term.factors if f.arg == ARG_ORIGIN]
    if (tuple((f.arg, f.scale) for f in moving) != shape
            or any(f.scale is not Scale.DOUBLED for f in consts)):
        raise ValueError(f"{ident} does not have the shape the law reads")
    return (term.coefficient, tuple(FVector._key(f.ch) for f in moving),
            tuple(FVector._key(f.ch) for f in consts))


class _Law(NamedTuple):
    """The law compiled from the catalog rows (_law_tables).

    constants, targets: as key -> ThetaCharacteristic, the constants in
        the order the solved rows first read them and the doubled theta
        each solved row gives;
    products: the distinct products of constants, as tuples of constants
        indices;
    solved: per solved row, its id, its lhs terms (coeff, products index)
        and its rhs terms (coeff, products index, chA and chB _POINT_CHARS
        index);
    pairings: per pairing row, (sum, diff) and its rhs terms (coeff / lhs
        coeff, x and y targets index);
    block: the same tables as index arrays for a whole block (_BlockLaw);
    rows: the kernel rows of one sample of a block, 107 rows in six
        tables, one per window, in order: the 14 constants at the origin
        (doubled periods), the 15 numerators at z1, z2 and z1+z2 (base
        periods), the 24 doubled values at 2*z1 and 2*z2 (doubled
        periods).  They fall into 54 upper classes, whose first rows the
        kernel sums."""

    constants: dict
    targets: dict
    products: tuple
    solved: tuple
    pairings: tuple
    block: _BlockLaw
    rows: KernelBatch


@lru_cache(maxsize=1)
def _law_tables() -> _Law:
    """Catalog rows SOLVED_IDS and PAIRING_IDS, and the route's pairings,
    in index form, compiled once from the catalog builder.

    A solved row (C) reads

        (sum of coeff * constants) * Theta[target](2z; doubled periods)
            = sum of coeff * constants * theta[chA](z) * theta[chB](z),

    so the doubled value is its rhs over its lhs coefficient.  A pairing
    row (B, or a route pairing) reads

        theta[sum](z1+z2) * theta[diff](z1-z2)
            = sum of coeff * Theta[x](2*z1) * Theta[y](2*z2),

    where Theta[x] is i**q times a solved target with the same kernel
    offsets (ThetaCharacteristic._kernel), q folded into the coefficient.

    Returns them as a _Law, with the block's index arrays and kernel rows
    compiled from them in the same call, so clearing this cache recompiles
    everything the block reads.
    """
    by_id = {i.id: i for i in build_catalog()}
    constants: dict[tuple, int] = {}
    products: dict[tuple, int] = {}
    targets, solved, pairings = [], [], []

    def product(keys: tuple) -> int:
        factors = tuple(constants.setdefault(key, len(constants))
                        for key in keys)
        return products.setdefault(factors, len(products))

    for ident in SOLVED_IDS:
        lhs = [_read(t, _SOLVED_LHS, ident) for t in by_id[ident].lhs]
        rhs = [_read(t, _SOLVED_RHS, ident) for t in by_id[ident].rhs]
        if len({keys for _, keys, _ in lhs}) != 1:
            raise ValueError(f"{ident} does not solve for one doubled theta")
        targets.append(lhs[0][1][0])
        solved.append((
            ident,
            tuple((c, product(keys)) for c, _, keys in lhs),
            tuple((c, product(keys),
                   _POINT_CHARS.index(a), _POINT_CHARS.index(b))
                  for c, (a, b), keys in rhs)))
    kernels = {}
    for k, key in enumerate(targets):
        *offsets, phase = ThetaCharacteristic.of(*key)._kernel
        kernels[tuple(offsets)] = k, phase

    def target(key: tuple) -> tuple[int, complex]:
        """The index of the solved target with key's kernel offsets, and
        the unit i**q with Theta[key] = i**q * Theta[target]."""
        *offsets, phase = ThetaCharacteristic.of(*key)._kernel
        k, known = kernels[tuple(offsets)]
        return k, phase / known

    route = [general_duplication(*u, *low, *u, 1, 1)
             for u in _ROUTE_UPPERS for low in ((1, 1), (0, 1))]
    for idty in [by_id[ident] for ident in PAIRING_IDS] + route:
        ((c0, pair, keys),) = [_read(t, _PAIRING_LHS, idty.id)
                               for t in idty.lhs]
        rhs = []
        for c, (x, y), more in (_read(t, _PAIRING_RHS, idty.id)
                                for t in idty.rhs):
            if keys or more:
                raise ValueError(f"{idty.id}: constants in a pairing row")
            (kx, qx), (ky, qy) = target(x), target(y)
            rhs.append((c / c0 * qx * qy, kx, ky))
        pairings.append((pair, tuple(rhs)))
    constants = {key: ThetaCharacteristic.of(*key) for key in constants}
    targets = {key: ThetaCharacteristic.of(*key) for key in targets}
    products = tuple(products)
    return _Law(constants, targets, products, tuple(solved), tuple(pairings),
                _BlockLaw.of(products, solved, pairings),
                KernelBatch.of((constants.values(), _A_CHARS, _A_CHARS,
                                _A_CHARS, targets.values(), targets.values()),
                               classes=True))


def _solved_weights(k: ConstantsVector) -> tuple[tuple, ...]:
    """k's solved rows; raises DegenerateDenominator at a vanishing lhs."""
    for ident, den, _ in k._solved_rows:
        if abs(den) < DIVISOR_THRESHOLD:
            raise DegenerateDenominator(
                f"lhs coefficient of {ident} = {den:.3e}")
    return k._solved_rows


def _doubled(v: tuple, weights: tuple[tuple, ...]) -> list[complex]:
    """Doubled values in row order from point values in _POINT_CHARS order."""
    out = []
    for _, den, terms in weights:
        acc = 0j
        for w, a, b in terms:
            acc += w * v[a] * v[b]
        out.append(acc / den)
    return out


def doubled_values(point_vals: Mapping[tuple, complex],
                   k: ConstantsVector) -> dict[tuple, complex]:
    """The doubled-argument thetas at 2z the law reads, from the sixteen
    values at z.

    `point_vals` maps the sixteen integer characteristics to values at one
    point; the result maps the twenty-four characteristics solved by
    catalog rows SOLVED_IDS (twelve integer ones plus the twelve
    half-characteristic connector names) to theta[ch](2z; doubled periods)
    divided by the same overall scale.  With raw theta values in, true
    doubled values come out; with quotients in, everything is divided by
    theta[0 0;0 0]^2(z).  The map is exactly homogeneous of degree 2 in the
    input vector.
    """
    v = tuple(point_vals[ch] for ch in _POINT_CHARS)
    return dict(zip(_law_tables().targets, _doubled(v, _solved_weights(k))))


def _pairings(d1: list[complex], d2: list[complex]) -> dict[tuple, complex]:
    """theta[sum](z1+z2) * theta[diff](z1-z2), keyed by (sum, diff), from
    doubled values at 2*z1 and 2*z2 in row order (PAIRING_IDS, then the
    route's pairings)."""
    out: dict[tuple, complex] = {}
    for pair, terms in _law_tables().pairings:
        acc = 0j
        for coeff, x, y in terms:
            acc += coeff * d1[x] * d2[y]
        out[pair] = acc
    return out


def _assemble(d1: list[complex], d2: list[complex]) -> tuple[complex, ...]:
    """Quotients at the summed point from two sets of doubled values.

    F[ch](z1+z2) is the pairing of ch with theta[0 0;0 0](z1-z2) over that
    of theta[0 0;0 0], or, where no row pairs ch with theta[0 0;0 0], the
    pairing of ch with theta[a c;0 0](z1-z2) carried over by two anchor
    pairings.  A quotient with lower row (1 1) is F[e] times G[ch, ch] /
    G[e, ch] with e = [a c;0 1], which reads no doubled theta with lower
    row (1 1) (_ROUTE_UPPERS).  The difference factors and any common
    per-point scale cancel in these ratios, which is what makes the same
    assembly serve both computation modes.
    """
    G = _pairings(d1, d2)
    g00 = _guard(G[(BASE_CHAR, BASE_CHAR)], "G[0 0;0 0]")
    out: dict[tuple, complex] = {}
    for ch in A_ORDER:
        if ch[2:] == (1, 1):
            e = (*ch[:2], 0, 1)
            anchor = _guard(G[(e, ch)], f"G[{ch[0]} {ch[1]};0 1|1 1]")
            out[ch] = G[(ch, ch)] * out[e] / anchor
        elif (ch, BASE_CHAR) in G:
            out[ch] = G[(ch, BASE_CHAR)] / g00
        else:
            upper = (*ch[:2], 0, 0)
            anchor = _guard(G[(upper, upper)], f"G[{ch[0]} {ch[1]};0 0]")
            out[ch] = G[(upper, BASE_CHAR)] * G[(ch, upper)] / (anchor * g00)
    return tuple(out.values())


def add_vector(f1: FVector, f2: FVector, k: ConstantsVector) -> FVector:
    """Reduced mode: quotients at z1 + z2 from quotients at z1 and z2.

    Never sums a theta series — the doubled values come entirely from the
    functional relations applied to the quotient vectors and constants.
    Raises DegenerateDenominator when the draw sits too close to a divisor
    (a vanishing G-product) or the constants make a solved row singular.
    """
    weights = _solved_weights(k)
    d1 = _doubled((1 + 0j, *f1.values), weights)
    d2 = _doubled((1 + 0j, *f2.values), weights)
    return FVector(_assemble(d1, d2))


def doubled_values_direct(z: EvalPoint, tau: PeriodMatrix,
                          pol: PrecisionPolicy = DEFAULT_POLICY) -> dict:
    """The twenty-four doubled values by fresh summation at (2z; 2*tau),
    in the order of rows SOLVED_IDS, all in one theta_values call."""
    targets = _law_tables().targets
    return dict(zip(targets, theta_values(targets.values(), z.scaled(2),
                                          double_periods(tau), pol)))


def add_direct(z1: EvalPoint, z2: EvalPoint, tau: PeriodMatrix,
               pol: PrecisionPolicy = DEFAULT_POLICY) -> FVector:
    """Direct mode: the same pairings fed with directly summed doubled
    thetas, bypassing the functional relations and constants entirely."""
    d1 = doubled_values_direct(z1, tau, pol)
    d2 = doubled_values_direct(z2, tau, pol)
    return FVector(_assemble(list(d1.values()), list(d2.values())))


# --------------------------------------------------------------------------
# verification

@dataclass
class AdditionRun:
    reports: list[ResidualReport]
    samples: int
    tau_redraws: int
    point_redraws: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)


# Most samples one block draws ahead, so the arrays a block holds (107 rows
# per sample) do not grow with n_samples.
_BLOCK_SAMPLES = 64


def _columns(rows) -> tuple:
    """The terms of rows of terms as _finish_block folds them: their first
    entries (the coefficients, the tables' own Python numbers) as an
    object array, the others as index arrays, then the rows' _fold_plan."""
    rows = list(rows)
    first, *rest = zip(*(t for terms in rows for t in terms))
    return (np.array(first, dtype=object),
            *(np.array(column) for column in rest),
            _fold_plan([len(terms) for terms in rows]))


class _BlockLaw(NamedTuple):
    """The law's tables (_law_tables) as index arrays for _finish_block.

    products: 1 for each distinct product of constants (its start);
    factors: per factor position k, the products with a k-th factor and
        that factor's constants index (_positions);
    lhs, rhs: the solved rows' terms, as coefficients, products index (and
        chA, chB _POINT_CHARS index), and their fold plan;
    pairings: coefficients, x and y targets index, and the fold plan;
    guards: the pairings the assembly divides by, G[0 0;0 0] first;
    base, upper, route: _assemble's three branches, as the A_ORDER
        positions each fills and the pairings it reads (and for the route
        the positions of its F[e])."""

    products: np.ndarray
    factors: tuple
    lhs: tuple
    rhs: tuple
    pairings: tuple
    guards: np.ndarray
    base: tuple
    upper: tuple
    route: tuple

    @classmethod
    def of(cls, products: tuple, solved: tuple,
           pairings: tuple) -> "_BlockLaw":
        col = {pair: j for j, (pair, _) in enumerate(pairings)}
        base, upper, route = [], [], []
        for at, ch in enumerate(A_ORDER):
            if ch[2:] == (1, 1):
                e = (*ch[:2], 0, 1)
                route.append((at, col[(ch, ch)], A_ORDER.index(e),
                              col[(e, ch)]))
            elif (ch, BASE_CHAR) in col:
                base.append((at, col[(ch, BASE_CHAR)]))
            else:
                u = (*ch[:2], 0, 0)
                upper.append((at, col[(u, BASE_CHAR)], col[(ch, u)],
                              col[(u, u)]))
        branches = [tuple(map(np.array, zip(*rows)))
                    for rows in (base, upper, route)]
        return cls(
            np.full(len(products), 1, dtype=object), _positions(products),
            _columns(lhs for _, lhs, _ in solved),
            _columns(rhs for _, _, rhs in solved),
            _columns(terms for _, terms in pairings),
            np.array([col[(BASE_CHAR, BASE_CHAR)], *branches[1][3],
                      *branches[2][3]]),
            *branches)


def _first(refused: np.ndarray) -> int:
    """The index of the first True in refused, or its length."""
    hits = np.flatnonzero(refused)
    return int(hits[0]) if hits.size else len(refused)


def _small(values: np.ndarray) -> np.ndarray:
    """abs() < DIVISOR_THRESHOLD per value: each guard of the scalar law."""
    return np.abs(values) < DIVISOR_THRESHOLD


def _finish_block(values: list, draws: list,
                  pol: PrecisionPolicy) -> np.ndarray:
    """(reduced, direct12, direct_mode) of the first m samples of a block,
    an (m, 3, 15) object array, from its summed kernel rows: the samples
    before the first that _one_sample would redraw or raise on, bit for bit
    its values.

    The law runs on all samples at once as numpy object arrays, in the
    scalar code's order of operations, so no rounding differs from the
    scalar law's (the module docstring).  The block is cut, before anything
    divides by them, at the first sample whose sums are not all finite,
    whose constants are near_singular, whose normalizer raises (DivisorHit,
    NonFiniteSum), or one of whose assembly guards is below
    DIVISOR_THRESHOLD in either mode.  The samples after one refused by an
    assembly guard have had their normalizers evaluated, and nothing else."""
    tables = _law_tables()
    law = tables.block
    n = len(draws)
    sums = np.array(values, dtype=object).reshape(n, -1)
    finite = np.isfinite(np.array(values)).reshape(n, -1).all(axis=1)
    ends = list(accumulate(tables.rows.sizes, initial=0))
    consts, at_points, at_doubled = np.split(
        sums[:_first(~finite)], [ends[1], ends[4]], axis=1)
    at_points = at_points.reshape(-1, 3, len(A_ORDER))  # z1, z2, z1+z2
    at_doubled = at_doubled.reshape(-1, 2, len(SOLVED_IDS))  # 2z1, 2z2

    # ConstantsVector._solved_rows: products from 1, lhs sums and weights
    prods = _products(law.products, law.factors, consts)
    coeffs, cols, plan = law.lhs
    den = _fold(coeffs * prods[:, cols], plan)
    m = _first(_small(den).any(axis=1))

    norms = []
    for tau, z1, z2 in draws[:m]:
        try:
            norms.append([_normalizer(z, tau, pol)
                          for z in (z1, z2, z1 + z2)])
        except ArithmeticError:  # DivisorHit, NonFiniteSum
            break
    m = len(norms)
    # the quotients at z1, z2 and z1+z2 (axis 1)
    f = at_points[:m] / np.array(norms, dtype=object).reshape(m, 3, 1)

    # _doubled at z1 and z2 (axis 1) from (1, F), then the pairings of
    # reduced and direct mode (axis 1) from the doubled values at 2z1 and
    # 2z2 (axis 2)
    coeffs, cols, a, b, plan = law.rhs
    v = np.concatenate([np.full((m, 2, 1), 1 + 0j, dtype=object), f[:, :2]],
                       axis=-1)
    w = (coeffs * prods[:m, cols])[:, None]
    d = _fold(w * v[..., a] * v[..., b], plan) / den[:m, None]
    d = np.stack([d, at_doubled[:m]], axis=1)
    coeffs, x, y, plan = law.pairings
    g = _fold(coeffs * d[:, :, 0, x] * d[:, :, 1, y], plan)
    m = _first(_small(g[..., law.guards]).any(axis=(1, 2)))

    # _assemble in both modes, into (reduced, direct12, direct_mode)
    g, out = g[:m], np.empty((m, 3, 15), dtype=object)
    out[:, 1] = f[:m, 2]
    q = out[:, ::2]
    g00 = g[..., law.guards[:1]]
    at, num = law.base
    q[..., at] = g[..., num] / g00
    at, ub, cu, uu = law.upper
    q[..., at] = g[..., ub] * g[..., cu] / (g[..., uu] * g00)
    at, cc, e, ec = law.route
    q[..., at] = g[..., cc] * q[..., e] / g[..., ec]
    return out


def _one_sample(rng: np.random.Generator,
                pol: PrecisionPolicy) -> tuple[tuple, int, int]:
    """One sample drawn and checked on its own: (reduced, direct12,
    direct_mode) with its tau and point redraws.  Draws that hit a divisor
    or a degenerate denominator are redrawn and counted."""
    tau_redraws = 0
    point_redraws = 0
    for _ in range(20):
        tau = sample_tau(rng)
        k = constants_vector(tau, pol)
        if not k.near_singular():
            break
        tau_redraws += 1
    else:  # pragma: no cover - the draw family keeps taus well away
        raise RuntimeError("could not draw a nondegenerate period matrix")

    for _ in range(50):
        z1, z2 = sample_point(rng), sample_point(rng)
        try:
            f1, f2 = f_vector(z1, tau, pol), f_vector(z2, tau, pol)
            direct12 = f_vector(z1 + z2, tau, pol)
            reduced = add_vector(f1, f2, k)
            direct_mode = add_direct(z1, z2, tau, pol)
        except (DivisorHit, DegenerateDenominator):
            point_redraws += 1
            continue
        break
    else:  # pragma: no cover
        raise RuntimeError("could not draw points clear of the divisor")
    return (reduced, direct12, direct_mode), tau_redraws, point_redraws


def _block(rng: np.random.Generator, count: int,
           pol: PrecisionPolicy) -> tuple[np.ndarray, dict | None]:
    """Up to count samples drawn ahead, assuming no redraw, windowed by one
    truncation_windows call, summed in one KernelBatch call, then finished
    all at once by the law as object arrays (_finish_block), bit for bit the
    scalar per-point functions' values: the outputs of the samples
    finished, and the RNG state before the first sample not finished (None
    when all count are).  That sample is the first whose drawing raises or
    one of whose windows fails, or which _finish_block refuses."""
    states, draws, rows = [], [], []
    for _ in range(count):
        states.append(rng.bit_generator.state)
        try:
            tau = sample_tau(rng)
            z1, z2 = sample_point(rng), sample_point(rng)
            dbl = double_periods(tau)
            sample = [(z.x, z.y, t.tau1, t.tau2, t.tau12, t is dbl)
                      for z, t in ((ORIGIN, dbl), (z1, tau), (z2, tau),
                                   (z1 + z2, tau), (z1.scaled(2), dbl),
                                   (z2.scaled(2), dbl))]
        except Exception:
            # _one_sample replays this draw and raises what it raises, or
            # redraws first; nothing is raised from a draw made ahead.
            break
        draws.append((tau, z1, z2))
        rows.extend(sample)
    if draws:
        windows, errors = truncation_windows(
            *map(np.array, zip(*rows)), pol.eps_tail, pol.max_radius)
        del draws[min(errors, default=len(rows)) // 6:]
    if not draws:
        return np.empty((0, 3, 15), dtype=object), states[0]

    values = _law_tables().rows.values(
        Windows(*(v[:6 * len(draws)] for v in windows)), strict=False)
    done = _finish_block(values, draws, pol)
    return done, (states[len(done)] if len(done) < count else None)


# The row ids of one sample, in report order.
_ROW_IDS = [f"A{k + 1}{suffix}" for suffix in ("", ".path") for k in range(15)]


def verify_addition(n_samples: int = 100, seed: int = 0,
                    pol: PrecisionPolicy = DEFAULT_POLICY) -> AdditionRun:
    """Check the algebraic law against direct summation at fresh draws.

    Per sample: rows A1..A15 compare reduced-mode add_vector(F(z1), F(z2))
    with the directly summed quotients at z1+z2 (tolerance 1e-8); rows
    A1.path..A15.path cross-check reduced mode against direct mode — the
    same assembly fed with independently summed doubled thetas (tolerance
    1e-9).  Draws that hit a divisor or a degenerate denominator are
    redrawn and counted, never silently dropped.

    Samples are drawn ahead in blocks of up to _BLOCK_SAMPLES, assuming no
    redraw, with the RNG state before each sample kept, and each block is
    summed and finished at once (_block, _finish_block).  The first sample
    that would redraw or raise gets the RNG state from before it back and
    runs on its own (_one_sample, through constants_vector, f_vector,
    add_vector and add_direct), and a new block starts after it.  The rows
    of all samples are then formed at once by ResidualReport.compare_all,
    as the catalog's are.  So the rows, the redraws and the exceptions are
    bit for bit those of drawing and checking one sample at a time.
    """
    rng = make_rng(seed, "addition")
    tau_redraws = 0
    point_redraws = 0
    outputs = [np.empty((0, 3, 15), dtype=object)]
    done = 0
    while done < n_samples:
        block, state = _block(rng, min(_BLOCK_SAMPLES, n_samples - done), pol)
        outputs.append(block)
        done += len(block)
        if state is not None:
            rng.bit_generator.state = state
            out, taus, points = _one_sample(rng, pol)
            outputs.append(np.array([[f.values for f in out]], dtype=object))
            done += 1
            tau_redraws += taus
            point_redraws += points
    outputs = np.concatenate(outputs)
    reports = ResidualReport.compare_all(
        _ROW_IDS * done, np.repeat(np.arange(done), len(_ROW_IDS)).tolist(),
        outputs[:, :1], outputs[:, 1:],
        np.array([[CONSISTENCY_TOL], [PATH_TOL]]), DEFAULT_POLICY.abs_tol)
    return AdditionRun(reports, n_samples, tau_redraws, point_redraws)
