"""Declarative catalog of the quadratic theta-function identities.

Every entry states an equality between two sums of products of theta
factors.  A factor is a characteristic, an argument selector (an integer
combination of the two sample points), and a scale flag choosing base or
doubled periods.  The evaluator computes both sides by direct lattice
summation and reports absolute/relative residuals, so each catalog entry is
a machine-checkable statement, not code.

The catalog covers four layers that build on each other:

  * duplication products: theta(p1+p2)*theta(p1-p2) expanded into four
    doubled-period products (ids 2e4.*, the sector instances 2e8..2e26 and
    their G-aliases B1..B16, and the half-characteristic connectors
    2e42/2e54/2e65 = B17..B19);
  * functional relations: theta(u,v) products expressed through
    doubled-argument thetas and constants (2e5.*, 2e6.*, 2e27..2e35, C1..C28);
  * constants relations: the same at the origin (2e36..2e41, 2e51..2e53,
    2e63/2e64, 2e74/2e75, and the sign-free squared forms D1..D16);
  * root forms: the D-entries also carry the printed square-root
    expressions, checked by a per-radical sign search (match_signs).

The verifier sums the distinct reduced characteristics of each (argument,
scale) group, the tables of one KernelBatch, at windows from one
truncation_windows call per block of samples: theta_eval's values, bit for
bit.

Identity ids are catalog keys; suspected misprints in the source tables are
encoded in the mathematically coherent reading and flagged (see each
entry's `flags`), never silently patched: the numeric verification is what
validates the chosen reading.
"""

from __future__ import annotations

import cmath
import enum
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, product
from json.encoder import encode_basestring_ascii as _quoted
from typing import NamedTuple

import numpy as np

from .sampling import Draws, SampleAssignment, draw_stream
from .theta_core import (
    DEFAULT_POLICY,
    ORIGIN,
    EvalPoint,
    KernelBatch,
    NonFiniteSum,
    PeriodMatrix,
    PrecisionPolicy,
    Scale,
    ThetaCharacteristic,
    Windows,
    double_periods,
    truncation_windows,
)

ENV_CATALOG = "HYPERTHETA_CATALOG"
CATALOG_VERSION = "1"
REL_FLOOR = 1e-30


class NoConsistentSign(RuntimeError):
    """No per-radical sign assignment reproduces the directly summed constant."""


class Domain(enum.Enum):
    """What an identity quantifies over (besides the period matrix)."""

    TWO_POINT = "TwoPoint"        # both sample points (p1, p2) enter
    ONE_POINT = "OnePoint"        # only p1 enters (as (u,v))
    CONSTANTS_ONLY = "ConstantsOnly"  # origin values only


_ALLOWED_ARGS = {(1, 1), (1, -1), (2, 0), (0, 2), (1, 0), (0, 0)}


@dataclass(frozen=True)
class ArgSelector:
    """Evaluated argument = coeff1*(p1) + coeff2*(p2)."""

    coeff1: int
    coeff2: int

    def __post_init__(self) -> None:
        if (self.coeff1, self.coeff2) not in _ALLOWED_ARGS:
            raise ValueError(f"argument selector {(self.coeff1, self.coeff2)} "
                             f"outside the catalog set {sorted(_ALLOWED_ARGS)}")

    def select(self, p1: EvalPoint, p2: EvalPoint) -> EvalPoint:
        return p1.scaled(self.coeff1) + p2.scaled(self.coeff2)

    def as_json(self) -> list[int]:
        return [self.coeff1, self.coeff2]


ARG_SUM = ArgSelector(1, 1)
ARG_DIFF = ArgSelector(1, -1)
ARG_2P1 = ArgSelector(2, 0)
ARG_2P2 = ArgSelector(0, 2)
ARG_P1 = ArgSelector(1, 0)
ARG_ORIGIN = ArgSelector(0, 0)


@dataclass(frozen=True)
class ThetaFactor:
    ch: ThetaCharacteristic
    arg: ArgSelector
    scale: Scale

    def as_json(self) -> dict:
        return {"ch": self.ch.as_json(), "arg": self.arg.as_json(),
                "scale": self.scale.value}

    @classmethod
    def from_json(cls, obj) -> "ThetaFactor":
        return cls(ThetaCharacteristic.from_json(obj["ch"]),
                   ArgSelector(*obj["arg"]), Scale(obj["scale"]))


@dataclass(frozen=True)
class IdentityTerm:
    coefficient: complex
    factors: tuple[ThetaFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a term needs at least one theta factor")
        if self.coefficient == 0 or not (math.isfinite(self.coefficient.real)
                                         and math.isfinite(self.coefficient.imag)):
            raise ValueError(f"bad term coefficient {self.coefficient!r}")

    def as_json(self) -> dict:
        return {"coefficient": {"re": self.coefficient.real,
                                "im": self.coefficient.imag},
                "factors": [f.as_json() for f in self.factors]}

    @classmethod
    def from_json(cls, obj) -> "IdentityTerm":
        c = obj["coefficient"]
        return cls(complex(c["re"], c["im"]),
                   tuple(ThetaFactor.from_json(f) for f in obj["factors"]))


@dataclass(frozen=True)
class Identity:
    id: str
    lhs: tuple[IdentityTerm, ...]
    rhs: tuple[IdentityTerm, ...]
    domain: Domain
    note: str = ""
    flags: tuple[str, ...] = ()
    # Optional record of a printed square-root expression for the lhs
    # constant, consumed by match_signs (present on D1..D16 only).
    root_form: dict | None = None

    @cached_property
    def _roots(self) -> tuple[dict, dict, tuple]:
        """The root form parsed once per object: its target and its
        radicands, each a dict of characteristics keyed by _json_key, and
        per root its terms as (sign, key, key)."""
        form = self.root_form
        radicands = [c for root in form["roots"] for _, *p in root for c in p]
        return (*({_json_key(c): ThetaCharacteristic.from_json(c)
                   for c in chars} for chars in ([form["target"]], radicands)),
                tuple(tuple((sign, _json_key(a), _json_key(b))
                            for sign, a, b in root) for root in form["roots"]))

    def as_json(self) -> dict:
        obj = {"id": self.id,
               "domain": self.domain.value,
               "lhs": [t.as_json() for t in self.lhs],
               "rhs": [t.as_json() for t in self.rhs],
               "note": self.note,
               "flags": list(self.flags)}
        if self.root_form is not None:
            obj["root_form"] = self.root_form
        return obj

    @classmethod
    def from_json(cls, obj) -> "Identity":
        return cls(obj["id"],
                   tuple(IdentityTerm.from_json(t) for t in obj["lhs"]),
                   tuple(IdentityTerm.from_json(t) for t in obj["rhs"]),
                   Domain(obj["domain"]),
                   obj.get("note", ""),
                   tuple(obj.get("flags", ())),
                   obj.get("root_form"))


class ResidualReport(NamedTuple):
    """One row of a verify report: an identity (or addition quotient) at
    one sample, its two sides, their residuals and the verdict.  A named
    tuple, so rows are immutable and hashable and cheap to construct."""

    identity_id: str
    sample_index: int
    lhs_value: complex
    rhs_value: complex
    abs_residual: float
    rel_residual: float
    passed: bool
    error: str = ""

    @classmethod
    def compare(cls, identity_id: str, sample_index: int, lhs: complex,
                rhs: complex, rel_tol: float,
                abs_tol: float) -> "ResidualReport":
        """The row for lhs against rhs: it passes when the residual is below
        rel_tol relative to max(|lhs|, |rhs|, REL_FLOOR) or below abs_tol:
        compare_all's scalar reference, kept for the tests."""
        abs_res = abs(lhs - rhs)
        rel_res = abs_res / max(abs(lhs), abs(rhs), REL_FLOOR)
        return cls(identity_id, sample_index, lhs, rhs, abs_res, rel_res,
                   rel_res < rel_tol or abs_res < abs_tol)

    @classmethod
    def compare_all(cls, ids: list[str], samples: list[int], lhs: np.ndarray,
                    rhs: np.ndarray, rel_tol, abs_tol: float) -> list:
        """compare over arrays, row for row and bit for bit: lhs, rhs and
        rel_tol broadcast together, and ids and samples name the rows in
        C order.  lhs and rhs are object arrays, so each |.| is the
        values' own abs(); the float steps after it are single IEEE
        operations, which numpy rounds as Python does, and the two
        where() steps are max()'s: a later argument replaces the maximum
        only when it compares greater."""
        lhs, rhs, rel_tol = np.broadcast_arrays(lhs, rhs, rel_tol)
        with np.errstate(invalid="ignore"):  # inf / inf, as Python's nan
            abs_res = np.abs(lhs - rhs).astype(float)
            scale = np.abs(lhs).astype(float)
            other = np.abs(rhs).astype(float)
            scale = np.where(other > scale, other, scale)
            scale = np.where(REL_FLOOR > scale, REL_FLOOR, scale)
            rel_res = abs_res / scale
            passed = (rel_res < rel_tol) | (abs_res < abs_tol)
        return list(map(cls, ids, samples, lhs.ravel().tolist(),
                        rhs.ravel().tolist(), abs_res.ravel().tolist(),
                        rel_res.ravel().tolist(), passed.ravel().tolist()))

    def as_json(self) -> dict:
        def num(x: float):
            return x if math.isfinite(x) else None

        def cpx(z: complex):
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return {"re": z.real, "im": z.imag}
            return None

        return {"id": self.identity_id, "sample": self.sample_index,
                "lhs": cpx(self.lhs_value), "rhs": cpx(self.rhs_value),
                "abs_residual": num(self.abs_residual),
                "rel_residual": num(self.rel_residual),
                "pass": self.passed, "error": self.error}

    def json_line(self) -> str:
        """as_json as one line of JSON, byte for byte what
        json.dumps(as_json(), sort_keys=True, separators=(",", ":")) + "\\n"
        gives: keys sorted, no spaces, floats by float.__repr__, non-finite
        values as null, strings with ASCII escapes."""
        return (f'{{"abs_residual":{_json_float(self.abs_residual)},'
                f'"error":{_quoted(self.error)},'
                f'"id":{_quoted(self.identity_id)},'
                f'"lhs":{_json_complex(self.lhs_value)},'
                f'"pass":{"true" if self.passed else "false"},'
                f'"rel_residual":{_json_float(self.rel_residual)},'
                f'"rhs":{_json_complex(self.rhs_value)},'
                f'"sample":{self.sample_index}}}\n')


def _json_float(x: float) -> str:
    """x as json.dumps writes it (numpy's float64 too), null if not finite."""
    return float.__repr__(x) if math.isfinite(x) else "null"


def _json_complex(z: complex) -> str:
    """{"re": z.real, "im": z.imag} as json.dumps writes it with sorted
    keys, null unless both parts are finite."""
    if math.isfinite(z.real) and math.isfinite(z.imag):
        return (f'{{"im":{float.__repr__(z.imag)},'
                f'"re":{float.__repr__(z.real)}}}')
    return "null"


# --------------------------------------------------------------------------
# sums of products as object arrays (_evaluate, addition._finish_block)

def _positions(factors) -> tuple:
    """Per factor position k, as index arrays, the terms with a k-th factor
    and that factor's index; factors holds each term's indices in order."""
    return tuple(
        (np.array([p for p, f in enumerate(factors) if len(f) > k]),
         np.array([f[k] for f in factors if len(f) > k]))
        for k in range(max(map(len, factors))))


def _products(first: np.ndarray, positions: tuple,
              values: np.ndarray) -> np.ndarray:
    """Per row of values, each term's first times its factors' values, one
    factor position (_positions) at a time: ((first * v1) * v2) ..., each
    step the objects' own Python arithmetic."""
    out = np.repeat(first[None], len(values), axis=0)
    for terms, rows in positions:
        out[:, terms] = out[:, terms] * values[:, rows]
    return out


def _fold_plan(lengths: list[int]) -> tuple:
    """Where _fold puts rows of the given numbers of terms, in order: (the
    zero slot starting each row, the terms' slots, the width): row r's
    terms follow its zero slot, r + 1 slots past their index."""
    rows = np.arange(len(lengths))
    starts = np.cumsum([0, *lengths[:-1]]) + rows
    slots = np.arange(sum(lengths)) + np.repeat(rows + 1, lengths)
    return starts, slots, sum(lengths) + len(lengths)


def _fold(terms: np.ndarray, plan: tuple) -> np.ndarray:
    """Row sums of terms along the last axis, each a left fold from 0j as
    a scalar `acc = 0j; acc += term` loop: np.add.reduceat over a zero slot
    followed by the row's terms, which on object arrays adds in order."""
    starts, slots, width = plan
    buf = np.empty((*terms.shape[:-1], width), dtype=object)
    buf[..., starts] = 0j
    buf[..., slots] = terms
    return np.add.reduceat(buf, starts, axis=-1)


# --------------------------------------------------------------------------
# term-building shorthands (module-internal)

def _ch(a, c, b, d) -> ThetaCharacteristic:
    return ThetaCharacteristic.of(a, c, b, d)


H = Fraction(1, 2)  # the half step used by the connector characteristics


def _base(a, c, b, d, arg: ArgSelector) -> ThetaFactor:
    return ThetaFactor(_ch(a, c, b, d), arg, Scale.BASE)


def _dbl(a, c, b, d, arg: ArgSelector) -> ThetaFactor:
    return ThetaFactor(_ch(a, c, b, d), arg, Scale.DOUBLED)


def _konst(a, c, b, d) -> ThetaFactor:
    """A doubled-period theta constant (value at the origin)."""
    return _dbl(a, c, b, d, ARG_ORIGIN)


def _theta0(a, c, b, d) -> ThetaFactor:
    """A base-period theta constant (value at the origin)."""
    return _base(a, c, b, d, ARG_ORIGIN)


def _term(coefficient, *factors: ThetaFactor) -> IdentityTerm:
    return IdentityTerm(complex(coefficient), tuple(factors))


# Row/column order shared by every matrix-shaped relation: characteristics
# (0,0), (0,1), (1,0), (1,1) in both the upper-row and lower-row role.
_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

# The symmetric matrix M with M @ M = 4*I that interchanges squared base
# thetas and doubled-theta products (rows/columns ordered per _ORDER).
_RIEMANN = ((1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1))


# --------------------------------------------------------------------------
# generic duplication product

def general_duplication(a, c, b, d, e, g, f, h, id: str | None = None,
                        note: str = "") -> Identity:
    """The four-term product expansion

        theta[a c; b d](p1+p2) * theta[e g; f h](p1-p2)
          = sum over (i,j) in {0,1}^2 of
            Theta[(a+e)/2+i (c+g)/2+j; b+f d+h](2*p1)
            * Theta[(a-e)/2+i (c-g)/2+j; b-f d-h](2*p2)

    for integer characteristic entries.  The (i, j) shifts run in the fixed
    order (0,0), (0,1), (1,0), (1,1).  Upper rows become half-integer when
    a+e or c+g is odd; that is how [1 1;0 0] x [0 0;0 0] produces the
    [+-1/2 +-1/2] factors of the connector identities.
    """
    vals = [Fraction(v) for v in (a, c, b, d, e, g, f, h)]
    if any(v.denominator != 1 for v in vals):
        raise ValueError("generic duplication is stated for integer entries")
    a, c, b, d, e, g, f, h = vals
    lhs = (_term(1, _base(a, c, b, d, ARG_SUM), _base(e, g, f, h, ARG_DIFF)),)
    rhs = tuple(
        _term(1,
              _dbl((a + e) / 2 + i, (c + g) / 2 + j, b + f, d + h, ARG_2P1),
              _dbl((a - e) / 2 + i, (c - g) / 2 + j, b - f, d - h, ARG_2P2))
        for i, j in _ORDER)
    ident = id if id is not None else f"gd.{a}{c}{b}{d}.{e}{g}{f}{h}"
    return Identity(ident, lhs, rhs, Domain.TWO_POINT, note=note)


# --------------------------------------------------------------------------
# catalog builder

def _restated(cat: list[Identity], source: str, ident: str,
              note: str) -> Identity:
    """An equation already in the catalog under a second printed name (the
    paper states it twice): the same terms, built once."""
    entry = next(i for i in cat if i.id == source)
    return replace(entry, id=ident, note=note)


# Sector (a, c) -> ids of its duplication products at lower rows in _ORDER.
_SECTOR_IDS = {(0, 0): ("2e8", "2e9", "2e10", "2e11"),
               (0, 1): ("2e13", "2e14", "2e15", "2e16"),
               (1, 0): ("2e18", "2e19", "2e20", "2e21"),
               (1, 1): ("2e23", "2e24", "2e25", "2e26")}


def _sector_product(a, c, b, d, id: str, note: str) -> Identity:
    """theta[a c; b d](sum) * theta[a c; 0 0](diff) as the four-term
    doubled product, transcribed from the sector tables (upper rows reduced
    mod 2, a phase-free reduction)."""
    lhs = (_term(1, _base(a, c, b, d, ARG_SUM), _base(a, c, 0, 0, ARG_DIFF)),)
    rhs = tuple(
        _term(1,
              _dbl((a + i) % 2, (c + j) % 2, b, d, ARG_2P1),
              _dbl(i, j, b, d, ARG_2P2))
        for i, j in _ORDER)
    return Identity(id, lhs, rhs, Domain.TWO_POINT, note=note)


def _connector_product(upper, names, id: str, note: str) -> Identity:
    """theta[upper; 0 0](sum) * theta[0 0; 0 0](diff) = sum of like-with-like
    half-characteristic products (the B17..B19 shape)."""
    a, c = upper
    lhs = (_term(1, _base(a, c, 0, 0, ARG_SUM), _base(0, 0, 0, 0, ARG_DIFF)),)
    rhs = tuple(
        _term(1, _dbl(ua, uc, 0, 0, ARG_2P1), _dbl(ua, uc, 0, 0, ARG_2P2))
        for ua, uc in names)
    return Identity(id, lhs, rhs, Domain.TWO_POINT, note=note)


# Half-characteristic upper rows of the three connector families, in the
# printed order.  Lower rows are always (0, 0).
_D_NAMES = ((H, H), (H, -H), (-H, H), (-H, -H))          # P, Q, Q', P'
_B_NAMES = ((0, H), (0, -H), (1, H), (1, -H))            # R, R', S, S'
_C_NAMES = ((H, 0), (-H, 0), (H, 1), (-H, 1))            # T, T', U, U'

# Constants of those families: q equals the value at (1/2, -1/2) etc.; the
# primed constants coincide with the unprimed ones (evenness at the origin),
# so only the unprimed characteristics appear in constant roles.
_P, _Q = (H, H), (H, -H)
_R, _S = (0, H), (1, H)
_T, _W = (H, 0), (H, 1)

# alpha, beta / gamma, delta / xi, zeta: the doubled constants of the
# lower-row (0,1) / (1,0) / (1,1) functional relations.
_AL, _BE = (0, 0, 0, 1), (1, 0, 0, 1)
_GA, _DE = (0, 0, 1, 0), (0, 1, 1, 0)
_XI, _ZE = (0, 0, 1, 1), (1, 1, 1, 1)


def _radicands(consts) -> tuple:
    """The base-period products X = theta[cA]*theta[0 0;0 0] and
    Y = theta[cB]*theta[cB upper;0 0] of a doubled-constant pair (cA, cB),
    with (cA +- cB)^2 = X +- Y at the origin."""
    cA, cB = consts
    return (cA, (0, 0, 0, 0)), (cB, (*cB[:2], 0, 0))


# The base products the connector families are solved through, as
# (theta[chA], theta[chB]) pairs: X, Y, X', Y' of the P/Q family, and
# theta[u; b d] * theta[0 0; b d] of the R/S (u = (0, 1), lower rows
# transposed) and T/U (u = (1, 0)) families, each in the order of its four
# one-point rows (2e47-2e50, 2e59-2e62, 2e70-2e73).
_PQ_PRODUCTS = (((1, 1, 0, 0), (0, 0, 0, 0)), ((0, 1, 0, 0), (1, 0, 0, 0)),
                ((1, 1, 1, 0), (0, 0, 1, 0)), ((1, 0, 1, 0), (0, 1, 1, 0)))
_RS_PRODUCTS = tuple(((0, 1, b, d), (0, 0, b, d)) for d, b in _ORDER)
_TU_PRODUCTS = tuple(((1, 0, b, d), (0, 0, b, d)) for b, d in _ORDER)


def _pair_term(coeff, chA, chB, arg=ARG_P1, extra=None) -> IdentityTerm:
    """coeff * theta[chA](arg) * theta[chB](arg) (* extra constant factor)."""
    factors = [_base(*chA, arg), _base(*chB, arg)]
    if extra is not None:
        factors.append(extra)
    return IdentityTerm(complex(coeff), tuple(factors))


def _build_2e_series(cat: list[Identity]) -> None:
    # ---- duplication family: theta[a c;b d](sum)*theta[a c;0 0](diff)
    for a, c in _ORDER:
        for b, d in _ORDER:
            cat.append(general_duplication(
                a, c, b, d, a, c, 0, 0, id=f"2e4.{a}{c}{b}{d}",
                note="duplication product with difference anchor [a c;0 0]"))

    # ---- squared-theta expansion (doubled lower row) and its sibling with
    # the plain lower row; both are one-point statements.
    for a, c in _ORDER:
        for b, d in _ORDER:
            lhs = (_pair_term(1, (a, c, b, d), (a, c, b, d)),)
            rhs = tuple(
                _term(1, _dbl(a + i, c + j, 2 * b, 2 * d, ARG_2P1),
                      _konst(i, j, 0, 0))
                for i, j in _ORDER)
            cat.append(Identity(
                f"2e5.{a}{c}{b}{d}", lhs, rhs, Domain.ONE_POINT,
                note="squared theta as four doubled products (lower row doubled)"))

            lhs = (_pair_term(1, (a, c, b, d), (a, c, 0, 0)),)
            rhs = tuple(
                _term(1, _dbl(a + i, c + j, b, d, ARG_2P1),
                      _konst(i, j, b, d))
                for i, j in _ORDER)
            cat.append(Identity(
                f"2e6.{a}{c}{b}{d}", lhs, rhs, Domain.ONE_POINT,
                note="theta[b d]*theta[0 0] as four doubled products "
                     "(lower row kept)"))

    # ---- sector instances (restated under their G-names by _build_b_series).
    for (a, c), ids in _SECTOR_IDS.items():
        for (b, d), ident in zip(_ORDER, ids):
            cat.append(_sector_product(
                a, c, b, d, ident,
                note=f"sector ({a},{c}) duplication at lower row ({b},{d})"))

    # ---- functional relations, lower row (0,0): Goepel square family,
    # the Riemann-matrix packaging, and its inverse.
    for b, d in _ORDER:
        cat.append(_restated(cat, f"2e5.00{b}{d}", f"2e27.{b}{d}",
                             "squared [0 0;b d] as doubled products"))

    for k, (b, d) in enumerate(_ORDER):
        lhs = (_pair_term(1, (0, 0, b, d), (0, 0, b, d)),)
        rhs = tuple(
            _term(_RIEMANN[k][j], _dbl(*_ORDER[j], 0, 0, ARG_2P1),
                  _konst(*_ORDER[j], 0, 0))
            for j in range(4))
        cat.append(Identity(
            f"2e28.r{k + 1}", lhs, rhs, Domain.ONE_POINT,
            note="squared-theta vector row as signed doubled products"))

    for k, (a, c) in enumerate(_ORDER):
        lhs = (_term(1, _dbl(a, c, 0, 0, ARG_2P1), _konst(a, c, 0, 0)),)
        rhs = tuple(
            _pair_term(Fraction(_RIEMANN[k][j], 4), (0, 0, *_ORDER[j]),
                       (0, 0, *_ORDER[j]))
            for j in range(4))
        cat.append(Identity(
            f"2e29.r{k + 1}", lhs, rhs, Domain.ONE_POINT,
            note="doubled product row as quarter-sum of squared thetas"))

    # ---- functional relations, lower row (0,1): two-term family and the
    # alpha/beta matrix with its inverse.
    for a, c in _ORDER:
        lhs = (_pair_term(1, (a, c, 0, 1), (a, c, 0, 0)),)
        rhs = (_term(1, _dbl(a, c, 0, 1, ARG_2P1), _konst(*_AL)),
               _term(1, _dbl(a + 1, c, 0, 1, ARG_2P1), _konst(*_BE)))
        cat.append(Identity(
            f"2e30.{a}{c}", lhs, rhs, Domain.ONE_POINT,
            note="two-term doubled expansion at lower row (0,1); the two "
                 "odd-constant terms drop"))

    cat.extend(_forward_rows(
        "2e31", (0, 1), (_AL, _BE), (1, 0),
        note="forward alpha/beta matrix row at lower row (0,1)"))
    cat.extend(_inverse_rows(
        "2e32", (0, 1), (_AL, _BE), (1, 0), _ORDER,
        note="inverse alpha/beta row, multiplied through by "
             "alpha^2 - beta^2"))

    # ---- functional relations, lower row (1,0): only the inverse matrix is
    # tabulated; target order has the upper entries transposed.
    cat.extend(_inverse_rows(
        "2e33", (1, 0), (_GA, _DE), (0, 1), ((0, 0), (1, 0), (0, 1), (1, 1)),
        note="inverse gamma/delta row at lower row (1,0)"))

    # ---- functional relations, lower row (1,1): xi/zeta anti-diagonal
    # forward matrix and its inverse.
    cat.extend(_forward_rows(
        "2e34", (1, 1), (_XI, _ZE), (1, 1),
        note="forward xi/zeta matrix row at lower row (1,1)"))
    cat.extend(_inverse_rows(
        "2e35", (1, 1), (_XI, _ZE), (1, 1), _ORDER,
        note="inverse xi/zeta row at lower row (1,1)"))

    # ---- constants relations
    for k, (a, c) in enumerate(_ORDER):
        lhs = (_term(1, _konst(a, c, 0, 0), _konst(a, c, 0, 0)),)
        rhs = tuple(
            _term(Fraction(_RIEMANN[k][j], 4),
                  _theta0(0, 0, *_ORDER[j]), _theta0(0, 0, *_ORDER[j]))
            for j in range(4))
        cat.append(Identity(
            f"2e36.r{k + 1}", lhs, rhs, Domain.CONSTANTS_ONLY,
            note="squared doubled constant as quarter-sum of squared "
                 "base constants"))

    cat.extend(_constants_pair(
        "2e37", (_AL, _BE),
        note="component form: X = alpha^2 + beta^2, Y = 2*alpha*beta"))
    cat.extend(_pm_squares("2e38", (_AL, _BE),
                           note="(alpha +- beta)^2 = X +- Y"))
    cat.extend(_pm_squares("2e39", (_GA, _DE),
                           note="(gamma +- delta)^2 = X +- Y"))
    cat.extend(_constants_pair(
        "2e40", (_XI, _ZE),
        note="component form: X = xi^2 + zeta^2, Y = 2*xi*zeta"))
    cat.extend(_pm_squares("2e41", (_XI, _ZE),
                           note="(xi +- zeta)^2 = X +- Y"))


def _partner(u, shift) -> tuple:
    return tuple((x + s) % 2 for x, s in zip(u, shift))


def _forward_rows(family, lower, consts, shift, note) -> list[Identity]:
    """A forward matrix row pairs each upper row u with u' = u + shift
    (mod 2): theta[u; lower](u,v) * theta[u; 0 0](u,v)
    = cA * Theta[u; lower](2u,2v) + cB * Theta[u'; lower](2u,2v), rows and
    terms in _ORDER."""
    rows = []
    for k, u in enumerate(_ORDER):
        lhs = (_pair_term(1, (*u, *lower), (*u, 0, 0)),)
        rhs = tuple(_term(1, _konst(*c), _dbl(*v, *lower, ARG_2P1))
                    for v, c in sorted(((u, consts[0]),
                                        (_partner(u, shift), consts[1]))))
        rows.append(Identity(f"{family}.r{k + 1}", lhs, rhs,
                             Domain.ONE_POINT, note=note))
    return rows


def _inverse_rows(family, lower, consts, shift, uppers,
                  note) -> list[Identity]:
    """The forward rows inverted and multiplied through: row k, with target
    u = uppers[k] and P(u) = theta[u; lower](u,v) * theta[u; 0 0](u,v), reads
    (cA^2 - cB^2) * Theta[u; lower](2u,2v) = cA * P(u) - cB * P(u'), the two
    products listed with the member of {u, u'} that is 0 at the first
    shifted position first."""
    cA, cB = consts
    first = shift.index(1)
    rows = []
    for k, u in enumerate(uppers):
        partner = _partner(u, shift)
        target = _dbl(*u, *lower, ARG_2P1)
        lhs = (_term(1, _konst(*cA), _konst(*cA), target),
               _term(-1, _konst(*cB), _konst(*cB), target))
        rhs = tuple(
            _pair_term(sign, (*v, *lower), (*v, 0, 0), extra=_konst(*const))
            for sign, const, v in sorted(((1, cA, u), (-1, cB, partner)),
                                         key=lambda t: t[2][first]))
        rows.append(Identity(f"{family}.r{k + 1}", lhs, rhs,
                             Domain.ONE_POINT, note=note))
    return rows


def _constants_pair(base_id, consts, note) -> list[Identity]:
    """The two component equations X = cA^2 + cB^2 and Y = 2*cA*cB at the
    origin (X, Y the pair's _radicands)."""
    cA, cB = consts
    X, Y = _radicands(consts)
    r1 = Identity(
        f"{base_id}.r1", (_pair_term(1, *X, ARG_ORIGIN),),
        (_term(1, _konst(*cA), _konst(*cA)),
         _term(1, _konst(*cB), _konst(*cB))),
        Domain.CONSTANTS_ONLY, note=note)
    r2 = Identity(
        f"{base_id}.r2", (_pair_term(1, *Y, ARG_ORIGIN),),
        (_term(2, _konst(*cA), _konst(*cB)),),
        Domain.CONSTANTS_ONLY, note=note)
    return [r1, r2]


def _pm_squares(base_id, consts, note) -> list[Identity]:
    """(cA +- cB)^2 = X +- Y at the origin (X, Y the pair's _radicands)."""
    cA, cB = consts
    X, Y = _radicands(consts)
    out = []
    for tag, sign in (("plus", 1), ("minus", -1)):
        lhs = (_term(1, _konst(*cA), _konst(*cA)),
               _term(2 * sign, _konst(*cA), _konst(*cB)),
               _term(1, _konst(*cB), _konst(*cB)))
        rhs = (_pair_term(1, *X, ARG_ORIGIN),
               _pair_term(sign, *Y, ARG_ORIGIN))
        out.append(Identity(f"{base_id}.{tag}", lhs, rhs,
                            Domain.CONSTANTS_ONLY, note=note))
    return out


def _half_dbl(upper, arg) -> ThetaFactor:
    a, c = upper
    return ThetaFactor(_ch(a, c, 0, 0), arg, Scale.DOUBLED)


def _half_konst(upper) -> ThetaFactor:
    return _half_dbl(upper, ARG_ORIGIN)


def _connector_onepoint(ident, lhs_pair, entries, note, flags=()) -> Identity:
    """theta[..](u,v)*theta[..](u,v) = sum of coeff * Theta[half](2u,2v)
    * half-characteristic constant."""
    lhs = (_pair_term(1, *lhs_pair),)
    rhs = tuple(
        _term(coeff, _half_dbl(name, ARG_2P1), _half_konst(const))
        for coeff, name, const in entries)
    return Identity(ident, lhs, rhs, Domain.ONE_POINT, note=note, flags=flags)


def _connector_constants(ident, pair, c1, c2, sign, note,
                         flags=()) -> Identity:
    """A base product at the origin = 2*(c1^2 + sign*c2^2) in
    half-characteristic constants."""
    rhs = (_term(2, _half_konst(c1), _half_konst(c1)),
           _term(2 * sign, _half_konst(c2), _half_konst(c2)))
    return Identity(ident, (_pair_term(1, *pair, ARG_ORIGIN),), rhs,
                    Domain.CONSTANTS_ONLY, note=note, flags=flags)


def _build_connectors(cat: list[Identity]) -> None:
    P, Q, Qp, Pp = _D_NAMES
    R, Rp, S, Sp = _B_NAMES
    T, Tp, U, Up = _C_NAMES
    X, Y, Xp, Yp = _PQ_PRODUCTS
    rs, tu = _RS_PRODUCTS, _TU_PRODUCTS

    cat.append(_connector_product(
        (1, 1), _D_NAMES, "2e42",
        note="connector product [1 1;0 0] x [0 0;0 0] over the four "
             "(+-1/2, +-1/2) characteristics"))

    cat.append(_connector_onepoint(
        "2e47", X, ((1, P, _P), (1, Pp, _P), (1, Q, _Q), (1, Qp, _Q)),
        note="(P+P')p + (Q+Q')q"))
    cat.append(_connector_onepoint(
        "2e48", Y, ((1, Q, _P), (1, Qp, _P), (1, P, _Q), (1, Pp, _Q)),
        note="(Q+Q')p + (P+P')q"))
    cat.append(_connector_onepoint(
        "2e49", Xp, ((1j, P, _P), (-1j, Pp, _P), (1j, Q, _Q), (-1j, Qp, _Q)),
        note="i(P-P')p + i(Q-Q')q"))
    cat.append(_connector_onepoint(
        "2e50", Yp, ((1j, P, _Q), (-1j, Pp, _Q), (1j, Q, _P), (-1j, Qp, _P)),
        note="i(P-P')q + i(Q-Q')p"))

    cat.append(_connector_constants("2e51", X, _P, _Q, 1,
                                    note="2(p^2 + q^2)"))
    cat.append(Identity(
        "2e52", (_pair_term(1, *Y, ARG_ORIGIN),),
        (_term(4, _half_konst(_P), _half_konst(_Q)),),
        Domain.CONSTANTS_ONLY, note="4pq"))
    for tag, sign in (("plus", 1), ("minus", -1)):
        cat.append(Identity(
            f"2e53.{tag}",
            (_pair_term(1, *X, ARG_ORIGIN), _pair_term(sign, *Y, ARG_ORIGIN)),
            (_term(2, _half_konst(_P), _half_konst(_P)),
             _term(4 * sign, _half_konst(_P), _half_konst(_Q)),
             _term(2, _half_konst(_Q), _half_konst(_Q))),
            Domain.CONSTANTS_ONLY,
            note="2(p +- q)^2; the printed lhs repeats one product twice, "
                 "encoded as the sum/difference of the two distinct products",
            flags=("lhs-misprint",)))

    cat.append(_connector_product(
        (0, 1), _B_NAMES, "2e54",
        note="connector product [0 1;0 0] x [0 0;0 0] over the (0|1, +-1/2) "
             "characteristics"))
    cat.append(_connector_onepoint(
        "2e59", rs[0], ((1, R, _R), (1, Rp, _R), (1, S, _S), (1, Sp, _S)),
        note="(R+R')r + (S+S')s; second lhs factor printed at the origin, "
             "encoded at (u,v)",
        flags=("arg-misprint",)))
    cat.append(_connector_onepoint(
        "2e60", rs[1], ((1, R, _R), (1, Rp, _R), (-1, S, _S), (-1, Sp, _S)),
        note="(R+R')r - (S+S')s; same printed-origin slip as 2e59",
        flags=("arg-misprint",)))
    cat.append(_connector_onepoint(
        "2e61", rs[2],
        ((1j, R, _R), (-1j, Rp, _R), (1j, S, _S), (-1j, Sp, _S)),
        note="i(R-R')r + i(S-S')s"))
    cat.append(_connector_onepoint(
        "2e62", rs[3],
        ((1j, R, _R), (-1j, Rp, _R), (-1j, S, _S), (1j, Sp, _S)),
        note="i(R-R')r - i(S-S')s"))
    cat.append(_connector_constants("2e63", rs[0], _R, _S, 1,
                                    note="2(r^2 + s^2)"))
    cat.append(_connector_constants("2e64", rs[1], _R, _S, -1,
                                    note="2(r^2 - s^2)"))

    cat.append(_connector_product(
        (1, 0), _C_NAMES, "2e65",
        note="connector product [1 0;0 0] x [0 0;0 0] over the (+-1/2, 0|1) "
             "characteristics"))
    cat.append(_connector_onepoint(
        "2e70", tu[0], ((1, T, _T), (1, Tp, _T), (1, U, _W), (1, Up, _W)),
        note="(T+T')t + (U+U')w; second lhs factor printed at the origin, "
             "encoded at (u,v)",
        flags=("arg-misprint",)))
    cat.append(_connector_onepoint(
        "2e71", tu[1], ((1, T, _T), (1, Tp, _T), (-1, U, _W), (-1, Up, _W)),
        note="(T+T')t - (U+U')w; same printed-origin slip as 2e70",
        flags=("arg-misprint",)))
    cat.append(_connector_onepoint(
        "2e72", tu[2],
        ((1j, T, _T), (-1j, Tp, _T), (1j, U, _W), (-1j, Up, _W)),
        note="i(T-T')t + i(U-U')w"))
    cat.append(_connector_onepoint(
        "2e73", tu[3],
        ((1j, T, _T), (-1j, Tp, _T), (-1j, U, _W), (1j, Up, _W)),
        note="i(T-T')t - i(U-U')w"))
    cat.append(_connector_constants(
        "2e74", tu[0], _T, _W, 1,
        note="2(t^2 + w^2); first squared constant printed with transposed "
             "upper row, encoded as [1/2 0;0 0]",
        flags=("char-misprint",)))
    cat.append(_connector_constants("2e75", tu[1], _T, _W, -1,
                                    note="2(t^2 - w^2)"))


def _build_b_series(cat: list[Identity]) -> None:
    b_index = 1
    for (a, c), ids in _SECTOR_IDS.items():
        for (b, d), same in zip(_ORDER, ids):
            cat.append(_restated(
                cat, same, f"B{b_index}",
                f"G[{a} {c};{b} {d}] product table; same content as {same}"))
            b_index += 1
    for ident, upper, same in (("B17", "1 1", "2e42"), ("B18", "0 1", "2e54"),
                               ("B19", "1 0", "2e65")):
        cat.append(_restated(
            cat, same, ident,
            f"G1[{upper};0 0] half-characteristic product; "
            f"same content as {same}"))


def _build_c_series(cat: list[Identity]) -> None:
    # C1..C4: doubled product = quarter-sum of signed squared thetas.
    for k, (a, c) in enumerate(_ORDER):
        cat.append(_restated(
            cat, f"2e29.r{k + 1}", f"C{k + 1}",
            f"doubled [{a} {c};0 0] through squared thetas; "
            f"same content as 2e29.r{k + 1}"))

    # C5..C8 / C9..C12 / C13..C16: the multiplied-through inverse rows.
    for n, source in enumerate(
            f"{family}.r{k}" for family in ("2e32", "2e33", "2e35")
            for k in range(1, 5)):
        cat.append(_restated(cat, source, f"C{n + 5}",
                             "doubled theta solved through base products"))

    # C17..C20: the connector system solved for P, P', Q, Q'.
    P, Q, Qp, Pp = _D_NAMES
    X, Y, Xp, Yp = _PQ_PRODUCTS
    # 2*name*(p^2 - q^2) = s*(X*big - Y*small) + i_sign*i*(X'*big - Y'*small);
    # for Q and Q' the roles of p and q interchange and the base products
    # swap sign.
    for ident, name, big, small, s, i_sign, label in (
            ("C17", P, _P, _Q, 1, -1, "2P"), ("C18", Pp, _P, _Q, 1, 1, "2P'"),
            ("C19", Q, _Q, _P, -1, 1, "2Q"), ("C20", Qp, _Q, _P, -1, -1, "2Q'")):
        lhs = (_term(2, _half_dbl(name, ARG_2P1),
                     _half_konst(_P), _half_konst(_P)),
               _term(-2, _half_dbl(name, ARG_2P1),
                     _half_konst(_Q), _half_konst(_Q)))
        rhs = (_pair_term(s, *X, extra=_half_konst(big)),
               _pair_term(-s, *Y, extra=_half_konst(small)),
               _pair_term(i_sign * 1j, *Xp, extra=_half_konst(big)),
               _pair_term(-i_sign * 1j, *Yp, extra=_half_konst(small)))
        cat.append(Identity(ident, lhs, rhs, Domain.ONE_POINT,
                            note=f"{label}(p^2-q^2) solved form"))

    # C21..C24 (R-family) and C25..C28 (T-family): 4*name*const as signed
    # combinations of the four base products.
    R, Rp, S, Sp = _B_NAMES
    T, Tp, U, Up = _C_NAMES
    rs, tu = _RS_PRODUCTS, _TU_PRODUCTS

    def four_solved(ident, name, const, prods, s2, i_sign, note):
        lhs = (_term(4, _half_dbl(name, ARG_2P1), _half_konst(const)),)
        rhs = tuple(_pair_term(c, *pair) for c, pair in zip(
            (1, s2, i_sign * 1j, i_sign * s2 * 1j), prods))
        return Identity(ident, lhs, rhs, Domain.ONE_POINT, note=note)

    cat.append(four_solved("C21", R, _R, rs, +1, -1, "4Rr solved"))
    cat.append(four_solved("C22", Rp, _R, rs, +1, +1, "4R'r solved"))
    cat.append(four_solved("C23", S, _S, rs, -1, -1, "4Ss solved"))
    cat.append(four_solved("C24", Sp, _S, rs, -1, +1, "4S's solved"))
    cat.append(four_solved("C25", T, _T, tu, +1, -1, "4Tt solved"))
    cat.append(four_solved("C26", Tp, _T, tu, +1, +1, "4T't solved"))
    cat.append(four_solved("C27", U, _W, tu, -1, -1, "4Uw solved"))
    cat.append(four_solved("C28", Up, _W, tu, -1, +1, "4U'w solved"))


def _root_spec(sign, chA, chB):
    return [sign, _ch(*chA).as_json(), _ch(*chB).as_json()]


def _root_form(target, prefactor, roots, printed_signs) -> dict:
    return {"target": _ch(*target).as_json(), "prefactor": prefactor,
            "roots": roots, "printed_signs": list(printed_signs)}


def _build_d_series(cat: list[Identity]) -> None:
    # D1..D4: 4 * V^2 = signed sum of squared base constants, plus the
    # printed single-radical root form V = 1/2 * sqrt(...).
    for k, (a, c) in enumerate(_ORDER):
        V = (a, c, 0, 0)
        lhs = (_term(4, _konst(*V), _konst(*V)),)
        rhs = tuple(
            _term(_RIEMANN[k][j], _theta0(0, 0, *_ORDER[j]),
                  _theta0(0, 0, *_ORDER[j]))
            for j in range(4))
        root = [[_root_spec(_RIEMANN[k][j], (0, 0, *_ORDER[j]),
                            (0, 0, *_ORDER[j])) for j in range(4)]]
        cat.append(Identity(
            f"D{k + 1}", lhs, rhs, Domain.CONSTANTS_ONLY,
            note="squared form of the printed root expression",
            root_form=_root_form(V, "1/2", root, [1])))

    # D5..D10: nested two-radical pairs, prefactor 1/2.
    for idA, idB, consts in (("D5", "D6", (_AL, _BE)),
                             ("D7", "D8", (_GA, _DE)),
                             ("D9", "D10", (_XI, _ZE))):
        for ident, tgt, printed in ((idA, consts[0], [1, 1]),
                                    (idB, consts[1], [1, -1])):
            cat.append(_quartic(
                ident, tgt, 2, "1/2", _radicands(consts), printed,
                "sign-free quartic for a two-radical constant"))

    # D11/D12: the same with prefactor 1/(2*sqrt(2)).
    for ident, tgt, printed in (("D11", _P, [1, -1]), ("D12", _Q, [1, 1])):
        cat.append(_quartic(
            ident, (*tgt, 0, 0), 4, "1/(2*sqrt(2))", _PQ_PRODUCTS[:2],
            printed, "sign-free quartic for a half-characteristic constant"))

    # D13..D16: single radicals, 4 v^2 = X +- X'.
    for ident, tgt, prods, sign in (("D13", _R, _RS_PRODUCTS, 1),
                                    ("D14", _T, _TU_PRODUCTS, 1),
                                    ("D15", _S, _RS_PRODUCTS, -1),
                                    ("D16", _W, _TU_PRODUCTS, -1)):
        X, Xp = prods[:2]
        V = _half_konst(tgt)
        lhs = (_term(4, V, V),)
        rhs = (_pair_term(1, *X, ARG_ORIGIN),
               _pair_term(sign, *Xp, ARG_ORIGIN))
        root = [[_root_spec(1, *X), _root_spec(sign, *Xp)]]
        cat.append(Identity(
            ident, lhs, rhs, Domain.CONSTANTS_ONLY,
            note="squared form of the printed single-radical expression",
            root_form=_root_form((*tgt, 0, 0), "1/2", root, [1])))


def _quartic(ident, target, k, prefactor, radicands, printed,
             note) -> Identity:
    """The sign-free squared form of the two-radical doubled constant
    V = theta[target]: w = k*V^2 solves w^2 - 2*X*w + Y^2 = 0, encoded as
    k^2 V^4 + Y^2 = 2k X V^2; the root form is
    V = prefactor * (sqrt(X + Y) +- sqrt(X - Y))."""
    X, Y = radicands
    V = _konst(*target)
    lhs = (_term(k * k, V, V, V, V),
           _term(1, *(_theta0(*ch) for ch in Y + Y)))
    rhs = (_term(2 * k, _theta0(*X[0]), _theta0(*X[1]), V, V),)
    roots = [[_root_spec(1, *X), _root_spec(1, *Y)],
             [_root_spec(1, *X), _root_spec(-1, *Y)]]
    return Identity(ident, lhs, rhs, Domain.CONSTANTS_ONLY, note=note,
                    root_form=_root_form(target, prefactor, roots, printed))


@lru_cache(maxsize=1)
def _built_catalog() -> tuple[Identity, ...]:
    cat: list[Identity] = []
    _build_2e_series(cat)
    _build_connectors(cat)
    _build_b_series(cat)
    _build_c_series(cat)
    _build_d_series(cat)
    ids = [i.id for i in cat]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AssertionError(f"duplicate catalog ids: {dupes}")
    return tuple(cat)


def build_catalog() -> list[Identity]:
    """Construct the full identity catalog in memory (deterministic order)."""
    return list(_built_catalog())


@lru_cache(maxsize=1)
def _built_sha256() -> str:
    return _sha256([i.as_json() for i in _built_catalog()])


# --------------------------------------------------------------------------
# evaluation

def evaluate_identity(idty: Identity, s: SampleAssignment,
                      pol: PrecisionPolicy = DEFAULT_POLICY) -> ResidualReport:
    """Compute both sides by direct summation and report the residual.

    The one-pair case of verify_catalog's evaluation (_evaluate): each
    distinct factor of the sample is summed once, for lhs and rhs
    together, in one KernelBatch call; a factor's value is decided by its
    reduced characteristic (_kernel), argument selector and scale.  Of the
    factors' (argument, scale) groups, in order of first appearance, the
    first whose inputs are invalid, whose radius is exceeded or whose sum
    overflows raises its exception here, truncation_window's or
    theta_eval's class and text.  No theta value is kept between calls.
    OnePoint identities ignore p2 and ConstantsOnly identities ignore both
    points by construction (their selectors never touch the ignored point).
    """
    (row,), failed = _evaluate(_compile([idty]), [Draws.of([s])], s.seed,
                               pol)
    if failed:
        raise failed[0]
    return row


class _Program(NamedTuple):
    """Identities compiled (_compile).  A group is one distinct (argument,
    scale) of an identity's factors and a row one distinct reduced
    characteristic (_kernel) of a group, both in order of first
    appearance; groups and rows are numbered across all identities, and
    the batch has one table per group."""

    identities: tuple[Identity, ...]
    term_coeffs: np.ndarray     # (T,) the terms of each identity's lhs,
                                # then its rhs: coefficients, as objects
    term_rows: tuple            # their factors' rows (_positions)
    plan: tuple                 # the sides' fold plan (_fold_plan)
    group: np.ndarray           # (C,) the group of each row
    draw: np.ndarray            # (G,) the identity, so the draw, of a group
    coeffs: np.ndarray          # (2, G) the argument's coefficients of p1, p2
    scale: np.ndarray           # (G,) 0 for base, 1 for doubled periods
    batch: KernelBatch


# Most sample indices _evaluate takes at once, so the arrays a block holds
# (about 0.7 MB a sample at their peak) do not grow with n_samples.  In a
# run of 100 samples, blocks of 4 to 8 were the fastest; 8 raised the peak
# RSS by about 1 MB over one sample a block, and 16 by about 3 MB.
_BLOCK_SAMPLES = 8

# The last program _compile built, kept for the next call with the same
# identity objects: verify_catalog compiles its selection on every call.
_last_program: _Program | None = None


def _same_objects(a, b) -> bool:
    """Whether two sequences hold the same objects in the same order (an
    Identity holds a dict, so it is not hashable)."""
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _compile(identities: list[Identity]) -> _Program:
    """The identities' factors keyed by argument, scale and _kernel, in one
    pass: per identity its groups, each group's distinct rows, and each
    side's terms as _products and _fold read them; one KernelBatch holds
    all the rows.  The last program is returned again for the same objects
    in the same order (_same_objects), so a catalog loaded anew is compiled
    anew."""
    global _last_program
    if _last_program is not None and _same_objects(_last_program.identities,
                                                   identities):
        return _last_program
    tables: dict[tuple, dict] = {}
    rows: dict[tuple, int] = {}
    terms, lengths = [], []
    for i, idty in enumerate(identities):
        own: dict[tuple, dict] = {}
        for t in (*idty.lhs, *idty.rhs):
            for f in t.factors:
                own.setdefault((i, f.arg, f.scale), {}).setdefault(
                    f.ch._kernel, f.ch)
        for group, table in own.items():
            for kernel in table:
                rows[group, kernel] = len(rows)
        tables.update(own)
        for side in (idty.lhs, idty.rhs):
            lengths.append(len(side))
            terms += [(t.coefficient, [rows[(i, f.arg, f.scale), f.ch._kernel]
                                       for f in t.factors]) for t in side]
    batch = KernelBatch.of([table.values() for table in tables.values()])
    draw, args, scales = zip(*tables)
    coefficients, factors = zip(*terms)
    _last_program = _Program(
        tuple(identities), np.array(coefficients, dtype=object),
        _positions(factors), _fold_plan(lengths),
        np.repeat(np.arange(len(tables)), batch.sizes), np.array(draw),
        np.array([(a.coeff1, a.coeff2) for a in args], dtype=complex).T,
        np.array([s is Scale.DOUBLED for s in scales], dtype=int), batch)
    return _last_program


def _evaluate(prog: _Program, draws: list[Draws], start: int,
              pol: PrecisionPolicy) -> tuple[list, dict]:
    """The ResidualReport of each identity of prog at each draw of a block,
    samples start, start + 1, ..., sample after sample, and by row the
    exception of each failed row's first failing group.  Each group's
    argument and periods are formed as arrays for the whole block,
    windowed by one truncation_windows call and summed by one KernelBatch
    call that repeats the tables per sample, each window on its own, so
    each value is the one a block of one sample gives.  A failed window is
    not summed, and a group with a non-finite sum gets the NonFiniteSum of
    its first such characteristic.  Both sides of all rows are one
    _products and one _fold, in the catalog's order, as in the addition
    law's block, and one compare_all forms the rows; a failed row is
    compared as NaN and carries its exception's text."""
    g, c1, c2 = prog.draw, *prog.coeffs
    n, groups, width = len(draws), len(g), len(prog.group)
    d = Draws(*(np.stack(column)[:, g] for column in zip(*draws)))
    with np.errstate(over="ignore", invalid="ignore"):
        x = (c1 * d.x1 + c2 * d.x2).ravel()
        y = (c1 * d.y1 + c2 * d.y2).ravel()
        periods = [np.where(prog.scale, 2 * t, t).ravel()
                   for t in (d.tau1, d.tau2, d.tau12)]
    windows, errors = truncation_windows(
        x, y, *periods, np.tile(prog.scale, n), pol.eps_tail, pol.max_radius)
    values = prog.batch.values(windows, strict=False)
    if not cmath.isfinite(sum(values)):  # a failed window or an overflow
        for k, value in enumerate(values):
            if not cmath.isfinite(value):
                sample, row = divmod(k, width)
                errors.setdefault(
                    sample * groups + int(prog.group[row]),
                    NonFiniteSum(f"theta{prog.batch.chars[row]} "
                                 f"sum overflows to {value}"))
    ids = [idty.id for idty in prog.identities]
    failed: dict[int, Exception] = {}
    for k in sorted(errors):
        sample, group = divmod(k, groups)
        failed.setdefault(sample * len(ids) + int(g[group]), errors[k])
    values = np.array(values, dtype=object).reshape(n, width)
    # numpy reports the FP flags a failed group's inf or NaN raise in its
    # object loops, which the scalar arithmetic does not
    with np.errstate(all="ignore"):
        sides = _fold(_products(prog.term_coeffs, prog.term_rows, values),
                      prog.plan).reshape(-1, 2)
    sides[list(failed)] = complex("nan")
    rows = ResidualReport.compare_all(
        ids * n, [s for s in range(start, start + n) for _ in ids],
        sides[:, 0], sides[:, 1], pol.rel_tol, pol.abs_tol)
    for k, e in failed.items():
        rows[k] = ResidualReport(*rows[k][:4], math.inf, math.inf, False,
                                 f"{type(e).__name__}: {e}")
    return rows, failed


def verify_catalog(n_samples: int = 100, seed: int = 0,
                   pol: PrecisionPolicy = DEFAULT_POLICY,
                   catalog: list[Identity] | None = None,
                   only: set[str] | None = None) -> list[ResidualReport]:
    """Evaluate every identity at n_samples fresh draws.

    The selected identities are compiled into one program (_compile),
    which repeated runs on the same Identity objects reuse, and evaluated
    a block of up to _BLOCK_SAMPLES sample indices at a time (_evaluate):
    one KernelBatch call, one fold of the sides shared with the addition
    law (_products, _fold) and one compare_all per block, so the values
    held at once do not grow with n_samples.  Per-sample errors (e.g.
    RadiusExceeded on an extreme draw) become failed report rows instead
    of aborting the run, and leave the other rows unchanged.  Every
    window is summed on its own, so the rows do not depend on the block
    size.  Reports come out sorted by identity id then sample index, so
    the output is a pure function of (catalog, n_samples, seed, pol).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if catalog is None:
        catalog = build_catalog()
    identities = sorted((i for i in catalog if selected(i.id, only)),
                        key=lambda i: i.id)
    if not identities:
        return []
    prog = _compile(identities)
    draws = draw_stream(seed, [i.id for i in identities])
    rows = []
    for start in range(0, n_samples, _BLOCK_SAMPLES):
        block = list(islice(draws, min(_BLOCK_SAMPLES, n_samples - start)))
        rows += _evaluate(prog, block, start, pol)[0]
    return [row for i in range(len(identities))
            for row in rows[i::len(identities)]]


def base_id(ident: str) -> str:
    """Family id: text before the first dot ('2e5.0001' -> '2e5')."""
    return ident.split(".", 1)[0]


def selected(ident: str, only: set[str] | None) -> bool:
    """Whether an --only set picks row id `ident`: every id when `only` is
    None, else an id listed itself or through its family (base_id)."""
    return only is None or ident in only or base_id(ident) in only


# --------------------------------------------------------------------------
# sign resolution for the root forms

_PREFACTORS = {"1/2": 0.5, "1/(2*sqrt(2))": 1.0 / (2.0 * math.sqrt(2.0))}


def _json_key(ch) -> tuple:
    """Key of a [[num, den], ...] characteristic: ints, Fractions for halves."""
    return tuple(n if d == 1 else Fraction(n, d) for n, d in ch)


def match_signs(idty: Identity, direct: dict[tuple, complex],
                base: dict[tuple, complex]) -> tuple[complex, dict]:
    """Find the radical signs of idty's printed root expression.

    `direct` and `base` map characteristics (_json_key) to directly summed
    doubled-period and base-period theta constants, as root_constants
    gives them; the form's target, radicands and roots are read parsed
    (Identity._roots).  Each radical is taken on its principal branch;
    sign assignments are scanned (the printed one first) for one whose
    combination matches the target's constant to relative 1e-8.  Returns
    the matched value and a record of the choice; raises NoConsistentSign
    when no assignment matches.
    """
    form = idty.root_form
    (target,), _, roots = idty._roots
    prefactor = _PREFACTORS[form["prefactor"]]
    radicals = []
    for root in roots:
        content = 0j
        for sign, a, b in root:
            content += sign * base[a] * base[b]
        radicals.append(cmath.sqrt(content))

    constant = direct[target]
    printed = tuple(form["printed_signs"])
    others = product((1, -1), repeat=len(radicals))
    candidates = [printed] + [signs for signs in others if signs != printed]
    scale = max(abs(constant), REL_FLOOR)
    best = None
    for signs in candidates:
        value = prefactor * sum(s * r for s, r in zip(signs, radicals))
        err = abs(value - constant) / scale
        if best is None or err < best[0]:
            best = (err, signs, value)
        if err <= 1e-8:
            record = {"id": idty.id, "signs": list(signs),
                      "printed_signs": list(printed),
                      "matches_printed": signs == printed,
                      "rel_error": err}
            return value, record
    raise NoConsistentSign(
        f"{idty.id}: best assignment {best[1]} misses by rel {best[0]:.3e}")


def resolve_sign(d_id: str, tau: PeriodMatrix,
                 pol: PrecisionPolicy = DEFAULT_POLICY,
                 catalog: list[Identity] | None = None):
    """match_signs for one root form, its constants summed at tau as
    verify sums them (root_constants), so the record is the one verify
    gives at tau bit for bit."""
    if catalog is None:
        catalog = build_catalog()
    entry = next((i for i in catalog if i.id == d_id and i.root_form), None)
    if entry is None:
        raise KeyError(f"no root form under id {d_id!r}")
    ((direct, base),) = root_constants(catalog, [tau], pol)
    return match_signs(entry, direct, base)


def root_constants(catalog: list[Identity], taus: list[PeriodMatrix],
                   pol: PrecisionPolicy = DEFAULT_POLICY) -> list[tuple]:
    """Per tau, the distinct doubled targets and base radicands of all the
    catalog's root forms as two dicts keyed by _json_key (match_signs'
    values): the two tables of one KernelBatch without classes, summed at
    the origin in one call for all taus, so bit for bit theta_eval's
    values.  The first sum that overflows, per tau targets first, raises
    NonFiniteSum."""
    forms = [i for i in catalog if i.root_form]
    targets = {k: ch for i in forms for k, ch in i._roots[0].items()}
    radicands = {k: ch for i in forms for k, ch in i._roots[1].items()}
    batch = KernelBatch.of((targets.values(), radicands.values()))
    windows = Windows.of([(ORIGIN, p) for tau in taus
                          for p in (double_periods(tau), tau)], pol)
    values = iter(batch.values(windows))
    return [(dict(zip(targets, values)), dict(zip(radicands, values)))
            for _ in taus]


# --------------------------------------------------------------------------
# serialization

def _sha256(body: list) -> str:
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def catalog_as_json(catalog: list[Identity]) -> dict:
    body = [i.as_json() for i in catalog]
    return {"version": CATALOG_VERSION, "sha256": _sha256(body),
            "identities": body}


def identities_from_json(obj: dict) -> list[Identity]:
    """A catalog file's identities.  A hash mismatch, a missing key, a wrong
    type or a root form the sign search cannot read raises ValueError."""
    try:
        body = obj["identities"]
        if obj.get("sha256") != _sha256(body):
            raise ValueError("catalog content hash mismatch (file corrupted "
                             "or hand-edited)")
        catalog = [Identity.from_json(entry) for entry in body]
        texts = [t for i in catalog for t in (i.id, i.note, *i.flags)]
        if not all(isinstance(t, str) for t in texts):
            raise TypeError("ids, notes and flags must be text")
        for idty in (i for i in catalog if i.root_form):
            form = idty.root_form
            if form["prefactor"] not in _PREFACTORS:
                raise ValueError(f"unknown prefactor {form['prefactor']!r}")
            terms = [term for root in form["roots"] for term in root]
            signs = [*form["printed_signs"], *(sign for sign, _, _ in terms)]
            if not all(isinstance(sign, (int, float)) for sign in signs):
                raise TypeError(f"root form signs {signs} are not numbers")
            idty._roots  # parses the characteristics, kept for the search
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed catalog: {exc!r}") from exc
    return catalog


def catalog_sha256(catalog: list[Identity]) -> str:
    """catalog_as_json(catalog)["sha256"], reusing the memoized digest of
    the built-in catalog."""
    if _same_objects(_built_catalog(), catalog):
        return _built_sha256()
    return _sha256([i.as_json() for i in catalog])


def save_catalog(catalog: list[Identity], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog_as_json(catalog), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_catalog(path: str | None = None) -> list[Identity]:
    """The catalog from an explicit path or the file named by
    HYPERTHETA_CATALOG, with its content hash verified; with neither, the
    in-code builder's catalog."""
    if path is None:
        path = os.environ.get(ENV_CATALOG) or None
    if path is None:
        return build_catalog()
    with open(path, encoding="utf-8") as fh:
        return identities_from_json(json.load(fh))
