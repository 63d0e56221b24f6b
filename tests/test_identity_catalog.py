"""Catalog structure and residual tests.

The catalog's substance is validated numerically: every entry is evaluated
at fresh random (tau, p1, p2) draws and must close to near machine
precision.  Structural tests pin the shapes that downstream code relies on
(the duplication expansion, the Riemann matrix, the sign-free root forms),
and a corrupted-entry fixture proves the harness actually detects wrong
coefficients rather than passing vacuously.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertheta import (
    ORIGIN,
    ArgSelector,
    Domain,
    EvalPoint,
    Identity,
    IdentityTerm,
    InvalidPeriod,
    NoConsistentSign,
    NonFiniteSum,
    PeriodMatrix,
    PrecisionPolicy,
    RadiusExceeded,
    ResidualReport,
    SampleAssignment,
    ThetaCharacteristic,
    assignments_for,
    build_catalog,
    double_periods,
    evaluate_identity,
    general_duplication,
    load_catalog,
    resolve_sign,
    save_catalog,
    theta_eval,
    truncation_radius,
    verify_catalog,
)
from hypertheta import backends, identity_catalog, theta_core
from hypertheta.identity_catalog import (
    ENV_CATALOG,
    Scale,
    base_id,
    catalog_as_json,
    catalog_sha256,
    selected,
)
from hypertheta.theta_core import truncation_window
from hypertheta.sampling import Draws, draw_stream, make_rng, sample_tau

CAT = build_catalog()
BY_ID = {i.id: i for i in CAT}

TAU = PeriodMatrix(0.3 + 1.1j, -0.2 + 1.4j, 0.15 + 0.25j)
P1 = EvalPoint(0.21 - 0.12j, -0.34 + 0.05j)
P2 = EvalPoint(-0.17 + 0.08j, 0.29 - 0.11j)
SAMPLE = SampleAssignment(TAU, P1, P2, seed=0)


def theta(a, c, b, d, z, tau=TAU):
    return theta_eval(ThetaCharacteristic.of(a, c, b, d), z, tau)


# ---------------------------------------------------------------- structure

def test_catalog_size_and_unique_ids():
    assert len(CAT) == 200
    assert len(BY_ID) == len(CAT)


def test_expected_families_present():
    for ident in ("2e4.0000", "2e5.1011", "2e6.0101", "2e8", "2e26",
                  "2e27.00", "2e28.r1", "2e29.r4", "2e30.11", "2e31.r2",
                  "2e32.r3", "2e33.r1", "2e34.r4", "2e35.r2", "2e36.r3",
                  "2e37.r1", "2e38.minus", "2e39.plus", "2e40.r2",
                  "2e41.minus", "2e42", "2e47", "2e53.plus", "2e54", "2e59",
                  "2e64", "2e65", "2e70", "2e75", "B1", "B16", "B17", "B19",
                  "C1", "C17", "C28", "D1", "D11", "D16"):
        assert ident in BY_ID, ident


def test_domain_counts():
    counts = {d: 0 for d in Domain}
    for i in CAT:
        counts[i.domain] += 1
    assert counts[Domain.TWO_POINT] == 54
    assert counts[Domain.ONE_POINT] == 108
    assert counts[Domain.CONSTANTS_ONLY] == 38


def test_b1_shape():
    """B1: [0 0;0 0](sum)*[0 0;0 0](diff) = four like-with-like doubled
    products over the integer upper rows, all lower rows zero."""
    b1 = BY_ID["B1"]
    (lhs,) = b1.lhs
    assert lhs.coefficient == 1
    assert [f.arg.as_json() for f in lhs.factors] == [[1, 1], [1, -1]]
    assert all(f.scale is Scale.BASE for f in lhs.factors)
    assert len(b1.rhs) == 4
    uppers = []
    for term in b1.rhs:
        f1, f2 = term.factors
        assert f1.ch == f2.ch
        assert (f1.arg.as_json(), f2.arg.as_json()) == ([2, 0], [0, 2])
        assert f1.scale is Scale.DOUBLED and f2.scale is Scale.DOUBLED
        uppers.append((f1.ch.a, f1.ch.c))
    assert uppers == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_general_duplication_all_zeros_matches_b1():
    gen = general_duplication(0, 0, 0, 0, 0, 0, 0, 0)
    b1 = BY_ID["B1"]
    assert gen.lhs == b1.lhs
    assert gen.rhs == b1.rhs


def test_general_duplication_rejects_half_integers():
    with pytest.raises(ValueError):
        general_duplication("1/2", 0, 0, 0, 0, 0, 0, 0)


def test_riemann_matrix_properties():
    m = np.array(identity_catalog._RIEMANN)
    assert (m == m.T).all()
    assert (m @ m == 4 * np.eye(4, dtype=int)).all()


# ---------------------------------------------------------------- residuals

def test_full_catalog_closes_on_fixed_sample():
    """Every TwoPoint/OnePoint/ConstantsOnly entry closes at one shared
    (tau, p1, p2) draw."""
    for idty in CAT:
        rep = evaluate_identity(idty, SAMPLE)
        assert rep.passed, (idty.id, rep.rel_residual)
        assert rep.rel_residual < 1e-11, (idty.id, rep.rel_residual)


def test_verify_catalog_smoke():
    reports = verify_catalog(n_samples=2, seed=11)
    assert len(reports) == 2 * len(CAT)
    assert all(r.passed for r in reports)
    assert max(r.rel_residual for r in reports) < 1e-9


def test_verify_catalog_only_filter():
    reports = verify_catalog(n_samples=1, seed=3, only={"2e5", "C17"})
    ids = {r.identity_id for r in reports}
    assert ids == {f"2e5.{a}{c}{b}{d}"
                   for a, c in ((0, 0), (0, 1), (1, 0), (1, 1))
                   for b, d in ((0, 0), (0, 1), (1, 0), (1, 1))} | {"C17"}
    # the filtered run sees the same draws as the full run
    full = {(r.identity_id, r.sample_index): r.lhs_value
            for r in verify_catalog(n_samples=1, seed=3)}
    for r in reports:
        assert r.lhs_value == full[(r.identity_id, r.sample_index)]


def test_corrupted_coefficient_is_detected():
    good = BY_ID["2e9"]
    bad_rhs = (IdentityTerm(1.0000001 * good.rhs[0].coefficient,
                            good.rhs[0].factors),) + good.rhs[1:]
    bad = Identity("2e9-corrupt", good.lhs, bad_rhs, good.domain)
    rep = evaluate_identity(bad, SAMPLE)
    assert not rep.passed
    assert rep.rel_residual > 1e-9


# The catalog's dead terms: each holds an odd integer theta constant at the
# origin, which is identically 0, so no draw can show a misprint in the
# term's other factor, its coefficient or its presence.  Row -> right-side
# term index -> that constant; the README lists them.
DEAD_TERMS = {
    "2e6.0001": {1: "[0 1; 0 1]", 3: "[1 1; 0 1]"},
    "2e6.0010": {2: "[1 0; 1 0]", 3: "[1 1; 1 0]"},
    "2e6.0011": {1: "[0 1; 1 1]", 2: "[1 0; 1 1]"},
    "2e6.0101": {1: "[0 1; 0 1]", 3: "[1 1; 0 1]"},
    "2e6.0110": {2: "[1 0; 1 0]", 3: "[1 1; 1 0]"},
    "2e6.0111": {1: "[0 1; 1 1]", 2: "[1 0; 1 1]"},
    "2e6.1001": {1: "[0 1; 0 1]", 3: "[1 1; 0 1]"},
    "2e6.1010": {2: "[1 0; 1 0]", 3: "[1 1; 1 0]"},
    "2e6.1011": {1: "[0 1; 1 1]", 2: "[1 0; 1 1]"},
    "2e6.1101": {1: "[0 1; 0 1]", 3: "[1 1; 0 1]"},
    "2e6.1110": {2: "[1 0; 1 0]", 3: "[1 1; 1 0]"},
    "2e6.1111": {1: "[0 1; 1 1]", 2: "[1 0; 1 1]"},
}


def test_dead_terms_are_24_in_the_2e6_rows_with_a_nonzero_lower_row():
    """Exactly 24 terms of the catalog hold an odd integer theta constant
    at the origin, two on the right side of each of the 12 rows
    2e6.0001 .. 2e6.1111 whose lower row is not (0 0).  Each such
    constant sums to 0 up to rounding."""
    dead: dict[str, dict[int, str]] = {}
    for idty in CAT:
        for side, terms in (("lhs", idty.lhs), ("rhs", idty.rhs)):
            for k, term in enumerate(terms):
                for f in term.factors:
                    if (f.arg == ArgSelector(0, 0)
                            and all(e.denominator == 1 for e in f.ch.entries)
                            and (f.ch.a * f.ch.b + f.ch.c * f.ch.d) % 2):
                        assert side == "rhs" and k not in dead.get(idty.id, {})
                        dead.setdefault(idty.id, {})[k] = str(f.ch)
                        assert abs(theta_eval(f.ch, ORIGIN, TAU)) < 1e-15
    assert dead == DEAD_TERMS
    assert sum(map(len, dead.values())) == 24


def test_swap_symmetry_of_two_point_entries():
    """Both sides of every TwoPoint entry are built from even functions of
    the difference, so swapping p1 and p2 changes nothing."""
    swapped = SampleAssignment(TAU, P2, P1, seed=0)
    for idty in CAT:
        if idty.domain is not Domain.TWO_POINT:
            continue
        a = evaluate_identity(idty, SAMPLE)
        b = evaluate_identity(idty, swapped)
        scale = max(abs(a.lhs_value), 1e-30)
        assert abs(a.lhs_value - b.lhs_value) / scale < 1e-10, idty.id
        assert abs(a.rhs_value - b.rhs_value) / scale < 1e-10, idty.id


def test_one_point_entries_ignore_p2():
    moved = SampleAssignment(TAU, P1, EvalPoint(0.4 + 0.1j, -0.2j), seed=0)
    for ident in ("2e5.0000", "2e30.10", "C17", "C21"):
        a = evaluate_identity(BY_ID[ident], SAMPLE)
        b = evaluate_identity(BY_ID[ident], moved)
        assert a.lhs_value == b.lhs_value
        assert a.rhs_value == b.rhs_value


def test_sector_alias_pairs_agree():
    """B1..B16 restate 2e8..2e26; same terms, same values."""
    alias = {"B1": "2e8", "B2": "2e9", "B3": "2e10", "B4": "2e11",
             "B5": "2e13", "B6": "2e14", "B7": "2e15", "B8": "2e16",
             "B9": "2e18", "B10": "2e19", "B11": "2e20", "B12": "2e21",
             "B13": "2e23", "B14": "2e24", "B15": "2e25", "B16": "2e26"}
    for b, e in alias.items():
        assert BY_ID[b].lhs == BY_ID[e].lhs
        assert BY_ID[b].rhs == BY_ID[e].rhs
    assert BY_ID["B17"].rhs == BY_ID["2e42"].rhs
    assert BY_ID["B18"].rhs == BY_ID["2e54"].rhs
    assert BY_ID["B19"].rhs == BY_ID["2e65"].rhs


def test_duplication_family_specializes_to_sector_tables():
    """2e4 instances are generated by the generic expansion; the sector
    tables were transcribed independently.  Their sides must agree
    numerically (the generated rhs differs only by phase-free upper-row
    reduction)."""
    sector = {(0, 0): ("2e8", "2e9", "2e10", "2e11"),
              (0, 1): ("2e13", "2e14", "2e15", "2e16"),
              (1, 0): ("2e18", "2e19", "2e20", "2e21"),
              (1, 1): ("2e23", "2e24", "2e25", "2e26")}
    order = ((0, 0), (0, 1), (1, 0), (1, 1))
    for (a, c), ids in sector.items():
        for (b, d), ident in zip(order, ids):
            gen = BY_ID[f"2e4.{a}{c}{b}{d}"]
            tab = BY_ID[ident]
            ra = evaluate_identity(gen, SAMPLE)
            rb = evaluate_identity(tab, SAMPLE)
            assert abs(ra.lhs_value - rb.lhs_value) < 1e-12
            assert abs(ra.rhs_value - rb.rhs_value) < 1e-12


def test_goepel_specialization_reproduces_squared_family():
    """The generic expansion with the second factor carrying the same
    characteristic, evaluated at p2 = 0, is the squared-theta family."""
    for a, c, b, d in ((0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 0)):
        gen = general_duplication(a, c, b, d, a, c, b, d)
        pinned = SampleAssignment(TAU, P1, ORIGIN, seed=0)
        ra = evaluate_identity(gen, pinned)
        rb = evaluate_identity(BY_ID[f"2e5.{a}{c}{b}{d}"], pinned)
        assert ra.passed and rb.passed
        assert abs(ra.lhs_value - rb.lhs_value) < 1e-12
        assert abs(ra.rhs_value - rb.rhs_value) < 1e-12


def test_squared_family_specializes_lower_zero_row():
    """2e27 instances are 2e5 at upper row (0,0)."""
    for b, d in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ra = evaluate_identity(BY_ID[f"2e5.00{b}{d}"], SAMPLE)
        rb = evaluate_identity(BY_ID[f"2e27.{b}{d}"], SAMPLE)
        assert ra.lhs_value == rb.lhs_value
        assert abs(ra.rhs_value - rb.rhs_value) < 1e-12


@settings(max_examples=25, deadline=None)
@given(entries=st.lists(st.integers(min_value=-1, max_value=2),
                        min_size=8, max_size=8))
def test_generic_duplication_closes(entries):
    idty = general_duplication(*entries)
    rep = evaluate_identity(idty, SAMPLE)
    assert rep.passed, (entries, rep.rel_residual)


# ---------------------------------------------------------------- constants

def test_alpha_beta_component_equations():
    """X = alpha^2 + beta^2 and Y = 2 alpha beta, checked against directly
    summed constants rather than through the catalog plumbing."""
    dbl = double_periods(TAU)
    alpha = theta(0, 0, 0, 1, ORIGIN, dbl)
    beta = theta(1, 0, 0, 1, ORIGIN, dbl)
    X = theta(0, 0, 0, 1, ORIGIN) * theta(0, 0, 0, 0, ORIGIN)
    Y = theta(1, 0, 0, 1, ORIGIN) * theta(1, 0, 0, 0, ORIGIN)
    assert abs(X - (alpha**2 + beta**2)) / abs(X) < 1e-10
    assert abs(Y - 2 * alpha * beta) / abs(Y) < 1e-10


def test_xi_zeta_component_equations():
    dbl = double_periods(TAU)
    xi = theta(0, 0, 1, 1, ORIGIN, dbl)
    zeta = theta(1, 1, 1, 1, ORIGIN, dbl)
    X = theta(0, 0, 1, 1, ORIGIN) * theta(0, 0, 0, 0, ORIGIN)
    Y = theta(1, 1, 1, 1, ORIGIN) * theta(1, 1, 0, 0, ORIGIN)
    assert abs(X - (xi**2 + zeta**2)) / abs(X) < 1e-10
    assert abs(Y - 2 * xi * zeta) / abs(Y) < 1e-10


def test_constants_only_entries_close_on_many_taus():
    rng = make_rng(99, "constants")
    for _ in range(5):
        tau = sample_tau(rng)
        s = SampleAssignment(tau, ORIGIN, ORIGIN, seed=0)
        for ident in ("2e36.r1", "2e36.r4", "2e51", "2e52", "2e63",
                      "2e74", "D1", "D11", "D13"):
            rep = evaluate_identity(BY_ID[ident], s)
            assert rep.passed, (ident, rep.rel_residual)


# ---------------------------------------------------------------- root forms

def test_every_root_form_resolves():
    d_ids = [i.id for i in CAT if i.root_form is not None]
    assert d_ids == [f"D{k}" for k in range(1, 17)]
    rng = make_rng(42, "roots")
    for trial in range(4):
        tau = sample_tau(rng)
        dbl = double_periods(tau)
        for d in d_ids:
            value, record = resolve_sign(d, tau, catalog=CAT)
            target = ThetaCharacteristic.from_json(BY_ID[d].root_form["target"])
            direct = theta_eval(target, ORIGIN, dbl)
            assert abs(value - direct) / max(abs(direct), 1e-30) < 1e-8
            assert record["rel_error"] < 1e-8
            assert isinstance(record["matches_printed"], bool)


def test_root_constants_of_a_catalog_loaded_anew():
    """A catalog loaded anew gives the same root-form constants."""
    copy = identity_catalog.identities_from_json(catalog_as_json(CAT))
    assert identity_catalog.root_constants(copy, [TAU]) == (
        identity_catalog.root_constants(CAT, [TAU]))


def test_sign_search_parses_no_characteristic_again(monkeypatch):
    """match_signs reads the root forms as Identity._roots parsed them
    once per object: a second search, with _json_key failing, gives the
    same record."""
    want = resolve_sign("D11", TAU, catalog=CAT)

    def boom(ch):
        raise AssertionError(f"{ch} parsed again")

    monkeypatch.setattr(identity_catalog, "_json_key", boom)
    assert resolve_sign("D11", TAU, catalog=CAT) == want


def test_resolve_sign_reports_branch_choice():
    value, record = resolve_sign("D5", TAU, catalog=CAT)
    assert record["printed_signs"] == [1, 1]
    assert set(record["signs"]) <= {1, -1}
    assert len(record["signs"]) == 2


def test_resolve_sign_rejects_unknown_id():
    with pytest.raises(KeyError):
        resolve_sign("C17", TAU, catalog=CAT)  # no root form on C entries


def test_resolve_sign_raises_on_wrong_radicand():
    broken = BY_ID["D13"].root_form.copy()
    broken["roots"] = [[[1, [[0, 1], [1, 1], [0, 1], [0, 1]],
                         [[0, 1], [0, 1], [0, 1], [0, 1]]]]]  # wrong product
    fake = Identity("D13x", BY_ID["D13"].lhs, BY_ID["D13"].rhs,
                    Domain.CONSTANTS_ONLY, root_form=broken)
    with pytest.raises(NoConsistentSign):
        resolve_sign("D13x", TAU, catalog=[fake])


# ------------------------------------------------------------- determinism

def test_verify_catalog_deterministic():
    a = verify_catalog(n_samples=2, seed=5, only={"2e30", "D11", "B17"})
    b = verify_catalog(n_samples=2, seed=5, only={"2e30", "D11", "B17"})
    assert [r.as_json() for r in a] == [r.as_json() for r in b]
    c = verify_catalog(n_samples=2, seed=6, only={"2e30", "D11", "B17"})
    assert [r.as_json() for r in a] != [r.as_json() for r in c]


def test_each_distinct_factor_summed_once_per_sample(monkeypatch):
    """A factor repeated within one identity at one sample is summed once.
    A block of up to _BLOCK_SAMPLES sample indices of all identities is
    one KernelBatch.values call (two samples: one block), which makes one
    kernel call per truncation radius among its windows, and each kernel
    call sums its rows one GRID_POINTS slice at a time."""
    expected = [r.as_json() for r in verify_catalog(2, 0)]
    counts = {"characteristics": 0, "blocks": 0, "radius_classes": 0,
              "lattice_sum": 0, "window_sums": 0}
    values = theta_core.KernelBatch.values
    kernel, window = theta_core.lattice_sum, backends._window_sums

    def counted_values(self, windows, **kwargs):
        counts["blocks"] += 1
        counts["radius_classes"] += len(set(windows.radius.tolist()))
        return values(self, windows, **kwargs)

    def counted_kernel(a2, *args, **kwargs):
        counts["lattice_sum"] += 1
        counts["characteristics"] += len(a2)
        return kernel(a2, *args, **kwargs)

    def counted_window(*args, **kwargs):
        counts["window_sums"] += 1
        return window(*args, **kwargs)

    monkeypatch.setattr(theta_core.KernelBatch, "values", counted_values)
    monkeypatch.setattr(theta_core, "lattice_sum", counted_kernel)
    monkeypatch.setattr(backends, "_window_sums", counted_window)
    rows = verify_catalog(2, 0)
    assert counts == {"characteristics": 3216, "blocks": 1,
                      "radius_classes": 17, "lattice_sum": 17,
                      "window_sums": 63}
    assert [r.as_json() for r in rows] == expected


@pytest.fixture(scope="module")
def rows_of_17_samples():
    """The rows of 17 samples summed one sample per block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity_catalog, "_BLOCK_SAMPLES", 1)
        return [r.json_line() for r in verify_catalog(17, 4)]


@pytest.mark.parametrize("n", [7, 8, 9, 17])
def test_blocks_do_not_move_a_row(n, rows_of_17_samples):
    """verify_catalog sums _BLOCK_SAMPLES (8) samples per block, each
    window on its own: the rows of n samples, whole blocks or not, are
    the first n samples' rows of a 17-sample run, bit for bit, as one
    sample per block gives them."""
    assert identity_catalog._BLOCK_SAMPLES == 8
    assert [r.json_line() for r in verify_catalog(n, 4)] == [
        line for line in rows_of_17_samples
        if json.loads(line)["sample"] < n]


def test_an_overflow_inside_a_block_errors_only_its_row(monkeypatch):
    """Sample 5 of 2e5.0000 (inside the first block) and sample 8 of B1
    (the first of the second) are drawn at tau = diag(i, i) with p1 = (0,
    20i) and p2 = 0, where their sums overflow: those two rows error with
    NonFiniteSum, without numpy's warnings, and every other row is the
    unforced run's, bit for bit."""
    catalog = [BY_ID[i] for i in ("2e5.0000", "B1", "C17", "D5")]
    want = verify_catalog(10, 3, catalog=catalog)
    bad = Draws.of([SampleAssignment(PeriodMatrix(1j, 1j, 0j),
                                     EvalPoint(0, 20j), ORIGIN, seed=0)])
    forced = {(5, "2e5.0000"), (8, "B1")}

    def stream(seed, labels):
        for index, draws in enumerate(draw_stream(seed, labels)):
            columns = [column.copy() for column in draws]
            for k, label in enumerate(labels):
                if (index, label) in forced:
                    for column, value in zip(columns, bad):
                        column[k] = value[0]
            yield Draws(*columns)

    monkeypatch.setattr(identity_catalog, "draw_stream", stream)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = verify_catalog(10, 3, catalog=catalog)
    assert len(rows) == len(want) == 40
    for row, unforced in zip(rows, want):
        if (row.sample_index, row.identity_id) in forced:
            assert row.error.startswith("NonFiniteSum: ") and not row.passed
        else:
            assert row.json_line() == unforced.json_line()


def test_each_selection_gets_its_own_program_and_the_built_in_rows():
    """A copy of the catalog (new objects, same ids) and an --only subset
    of it are each compiled into a program of their own, and give the rows
    of the built-in catalog; so does evaluate_identity on the copy.  An
    --only set that selects nothing gives no rows."""
    want = [r.as_json() for r in verify_catalog(1, 5)]
    built = identity_catalog._last_program
    copy = identity_catalog.identities_from_json(catalog_as_json(CAT))
    assert [r.as_json() for r in verify_catalog(1, 5, catalog=copy)] == want
    whole = identity_catalog._last_program
    assert whole is not built
    assert set(map(id, whole.identities)) == set(map(id, copy))
    only = {"2e5", "C17"}
    assert [r.as_json() for r in verify_catalog(
        1, 5, catalog=copy, only=only)] == [
            row for row in want if selected(row["id"], only)]
    assert identity_catalog._last_program is not whole
    assert [i.id for i in identity_catalog._last_program.identities] == [
        i.id for i in copy if selected(i.id, only)]
    assert evaluate_identity(copy[0], SAMPLE).as_json() == evaluate_identity(
        CAT[0], SAMPLE).as_json()
    assert verify_catalog(1, 5, catalog=copy, only={"none"}) == []


def test_the_last_program_is_kept(monkeypatch):
    """verify_catalog compiles its selection into a program once per list of
    identity objects: a second call with the same objects reuses the last
    program, and a list with the same ids but new objects, or another
    selection, is compiled anew; the rows do not change."""
    programs = []
    compile_ = identity_catalog._compile

    def recorded(identities):
        programs.append(compile_(identities))
        return programs[-1]

    monkeypatch.setattr(identity_catalog, "_compile", recorded)
    want = [r.as_json() for r in verify_catalog(1, 3)]
    assert [r.as_json() for r in verify_catalog(1, 3)] == want
    assert programs[1] is programs[0]
    copy = identity_catalog.identities_from_json(catalog_as_json(CAT))
    assert [r.as_json() for r in verify_catalog(1, 3, catalog=copy)] == want
    assert programs[2] is not programs[1]
    assert [i.id for i in programs[2].identities] == [
        i.id for i in programs[1].identities]
    assert all(a is not b for a, b in zip(programs[2].identities,
                                          programs[1].identities))
    verify_catalog(1, 3, catalog=copy, only={"2e5"})
    assert programs[3] is not programs[2]
    assert verify_catalog(1, 3, catalog=copy)[0].as_json() == want[0]
    assert programs[4] is not programs[3]


def test_evaluate_identity_rows_are_pinned():
    """evaluate_identity of every identity at its own seeded draw keeps
    its bytes: it runs a program of that identity alone."""
    lines = [json.dumps(evaluate_identity(idty, assignments_for(
        7, idty.id, 1)[0]).as_json(), sort_keys=True, separators=(",", ":"))
        + "\n" for idty in CAT]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "8d8578d5c094b208051e6326ff0aabc28e87e60d8ab1fd08c4e37af6f530d5c4")


def _catalog_windows(monkeypatch, prog, draws) -> tuple:
    """The windows and window errors of each group of prog at draws, as
    the catalog's one truncation_windows call gives them."""
    seen = []

    def windowed(*args):
        seen.append(theta_core.truncation_windows(*args))
        return seen[-1]

    monkeypatch.setattr(identity_catalog, "truncation_windows", windowed)
    identity_catalog._evaluate(prog, [draws], 0, PrecisionPolicy())
    (windows_and_errors,) = seen
    return windows_and_errors


@pytest.mark.parametrize("seed", range(3))
def test_block_radii_equal_truncation_radius(seed, monkeypatch):
    """Every (argument, scale) group of a sample, over all identities, gets
    what the scalar path gives its draw: the argument of
    ArgSelector.select (by repr), tau or double_periods(tau), and the
    radius and drop floor truncation_window(z, tau)."""
    ids = sorted(BY_ID)
    prog = identity_catalog._compile([BY_ID[i] for i in ids])
    block, errors = _catalog_windows(monkeypatch, prog,
                                     next(draw_stream(seed, ids)))
    assert not errors
    samples = [assignments_for(seed, i, 1)[0] for i in ids]
    coeffs = prog.coeffs.real.astype(int).T.tolist()
    for g, (i, (c1, c2), doubled) in enumerate(zip(
            prog.draw.tolist(), coeffs, prog.scale.tolist())):
        s = samples[i]
        z = ArgSelector(c1, c2).select(s.p1, s.p2)
        tau = double_periods(s.tau) if doubled else s.tau
        assert (repr([complex(block.x[g]), complex(block.y[g])])
                == repr([z.x, z.y]))
        assert ([complex(t[g]) for t in (block.tau1, block.tau2, block.tau12)]
                == [tau.tau1, tau.tau2, tau.tau12])
        assert (block.radius[g], block.floor[g]) == truncation_window(z, tau)


def _factor_by_factor(idty, s: SampleAssignment):
    """The row of (idty, s) with every factor summed by its own theta_eval
    call, the sides assembled in the catalog's order."""
    taus = {Scale.BASE: s.tau, Scale.DOUBLED: double_periods(s.tau)}

    def side(terms) -> complex:
        total = 0j
        for t in terms:
            prod = t.coefficient
            for f in t.factors:
                prod *= theta_eval(f.ch, f.arg.select(s.p1, s.p2),
                                   taus[f.scale])
            total += prod
        return total

    pol = PrecisionPolicy()
    return ResidualReport.compare(idty.id, s.seed, side(idty.lhs),
                                  side(idty.rhs), pol.rel_tol, pol.abs_tol)


def test_every_built_in_row_equals_factor_by_factor():
    """All built-in identities at seed 0, samples 0 and 1 (one block):
    each verify_catalog row is byte for byte the row of a factor-by-factor
    theta_eval evaluation, so a value that moves names its row."""
    rows = verify_catalog(2, 0, catalog=CAT)
    assert len(rows) == 2 * len(CAT) == 400
    for row in rows:
        idty = BY_ID[row.identity_id]
        s = assignments_for(0, idty.id, 2)[row.sample_index]
        assert row.json_line() == _factor_by_factor(idty, s).json_line()


def test_failures_inside_a_block_stay_with_their_sample(monkeypatch):
    """One verify_catalog block holds five hand-built samples: C1's on a
    lattice so thin that no radius up to 60 meets the tail target, 2e8's
    with |Im z| = 20 at p1 + p2, whose sum overflows, D1's on a thin
    lattice whose base constants share that overflowing group's radius and
    so its kernel call, 2e4.0000's with a non-finite p1, and 2e5.0000's
    with Im tau = diag(-2, 0), whose lambda_min formula would divide 0 by
    0.  The failed rows carry evaluate_identity's error text, the
    non-finite point's as the scalar point check words it; every other row
    equals a factor-by-factor evaluation byte for byte."""
    far = (EvalPoint(0.1 + 10j, -0.2 + 0.05j),
           EvalPoint(-0.3 + 10j, 0.1 - 0.05j))
    partner = PeriodMatrix(0.1 + 0.0047j, -0.2 + 2j, 0.05 + 0j)
    broken = EvalPoint(complex(math.inf, 0.1), 0.2j)
    hand_built = {
        "C1": SampleAssignment(PeriodMatrix(0.1 + 0.003j, -0.2 + 2j, 0j),
                               P1, P2, seed=0),
        "2e8": SampleAssignment(TAU, *far, seed=0),
        "D1": SampleAssignment(partner, P1, P2, seed=0),
        "2e4.0000": SampleAssignment(TAU, broken, P2, seed=0),
        "2e5.0000": SampleAssignment(PeriodMatrix(-2j, 0j, 0j), P1, P2,
                                     seed=0),
    }
    ch = ThetaCharacteristic.of(0, 0, 0, 0)
    assert truncation_radius(ch, far[0] + far[1], TAU) == 51
    assert truncation_radius(ch, ORIGIN, partner) == 51

    def stream(seed, labels):
        yield Draws.of([hand_built.get(label)
                        or assignments_for(seed, label, 1)[0]
                        for label in labels])

    monkeypatch.setattr(identity_catalog, "draw_stream", stream)
    ids = ["2e36.r1", "2e4.0000", "2e5.0000", "2e8", "B1", "C1", "C5", "D1",
           "D5"]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = verify_catalog(1, 0, catalog=[BY_ID[i] for i in ids])
        assert [r.identity_id for r in rows] == ids
        for row in rows:
            idty = BY_ID[row.identity_id]
            s = hand_built.get(idty.id) or assignments_for(0, idty.id, 1)[0]
            if not row.error:
                assert (json.dumps(row.as_json())
                        == json.dumps(_factor_by_factor(idty, s).as_json()))
                continue
            with pytest.raises((RadiusExceeded, NonFiniteSum,
                                ValueError)) as info:
                evaluate_identity(idty, s)
            assert row.error == f"{type(info.value).__name__}: {info.value}"
            assert repr(row) == repr(ResidualReport(
                idty.id, 0, complex("nan"), complex("nan"), math.inf,
                math.inf, False, row.error))
    assert {r.identity_id: r.error.split(":")[0] for r in rows if r.error} \
        == {"2e8": "NonFiniteSum", "C1": "RadiusExceeded",
            "2e4.0000": "ValueError", "2e5.0000": "InvalidPeriod"}
    assert rows[2].error == ("InvalidPeriod: Im part not positive definite: "
                             "Im tau1=-2.0, Im tau2=0.0, Im tau12=0.0")
    assert rows[1].error == (
        "ValueError: non-finite evaluation point "
        f"{ArgSelector(1, 1).select(broken, P2)}")
    assert rows[1].error.endswith("EvalPoint(x=(inf+nanj), "
                                  "y=(0.29+0.09000000000000001j))")


def test_an_overflowing_identity_raises_without_warnings(monkeypatch):
    """At tau = diag(i, i) and p1 = (0, 20i) the sums of 2e5.0000
    overflow.  evaluate_identity raises NonFiniteSum, and verify_catalog
    reports it as the row's error, without numpy's warnings (raised here
    as errors), which would only repeat it."""
    s = SampleAssignment(PeriodMatrix(1j, 1j, 0j), EvalPoint(0, 20j), ORIGIN,
                         seed=0)
    monkeypatch.setattr(identity_catalog, "draw_stream",
                        lambda seed, labels: iter([Draws.of([s])]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteSum, match=r"theta\[0 0; 0 0\] sum "
                           r"overflows to \(inf\+0j\)") as info:
            evaluate_identity(BY_ID["2e5.0000"], s)
        (row,) = verify_catalog(1, 0, catalog=[BY_ID["2e5.0000"]])
    assert row.error == f"NonFiniteSum: {info.value}" and not row.passed


def test_report_json_schema():
    rep = evaluate_identity(BY_ID["2e8"], SAMPLE)
    obj = rep.as_json()
    assert set(obj) == {"id", "sample", "lhs", "rhs", "abs_residual",
                        "rel_residual", "pass", "error"}
    assert obj["pass"] is True
    assert obj["error"] == ""
    json.dumps(obj)  # must be serializable as-is


def test_radius_errors_become_failed_reports():
    tight = PrecisionPolicy(eps_tail=1e-14, max_radius=1)
    reports = verify_catalog(n_samples=1, seed=0, pol=tight, only={"2e8"})
    assert len(reports) == 1
    assert not reports[0].passed
    assert "RadiusExceeded" in reports[0].error
    assert reports[0].as_json()["abs_residual"] is None


@pytest.mark.parametrize("tau", [PeriodMatrix(-2j, 0j, 0j),
                                 PeriodMatrix(0j, 0j, 0j)],
                         ids=["diag(-2,0)", "zero"])
def test_singular_im_tau_is_an_invalid_period(tau):
    """Periods whose Im part has no positive eigenvalue, where the
    eigenvalue formula's denominator is 0, fail the validity test before
    any lambda_min is formed: InvalidPeriod with the scalar text."""
    with pytest.raises(InvalidPeriod) as info:
        evaluate_identity(CAT[0], SampleAssignment(tau, P1, P2, seed=0))
    i1, i2, i12 = tau.tau1.imag, tau.tau2.imag, tau.tau12.imag
    assert str(info.value) == ("Im part not positive definite: "
                               f"Im tau1={i1}, Im tau2={i2}, Im tau12={i12}")


# ------------------------------------------------------------ serialization

# Content hash of the builder's catalog.  Any edit to an entry (a term, a
# note, a flag, the order) moves it; change it only with the catalog.
CATALOG_SHA256 = \
    "8c993382f543b0596ad883302e3b595b27b2453ec1ac049d00ee5dc09a2bde7d"


def test_shipped_catalog_matches_builder():
    assert catalog_as_json(build_catalog())["sha256"] == CATALOG_SHA256
    assert [i.as_json() for i in load_catalog()] == [i.as_json() for i in CAT]


def test_catalog_sha256_matches_serialised_hash(tmp_path):
    assert catalog_sha256(build_catalog()) == CATALOG_SHA256
    path = tmp_path / "cat.json"
    save_catalog(CAT[:5], str(path))
    loaded = load_catalog(str(path))
    assert catalog_sha256(loaded) == catalog_as_json(CAT[:5])["sha256"]
    for other in (CAT[:4], loaded[:4], CAT[1:] + CAT[:1], []):
        assert catalog_sha256(other) == catalog_as_json(other)["sha256"]


def test_catalog_hash_guard(tmp_path):
    path = tmp_path / "cat.json"
    save_catalog(CAT, str(path))
    blob = json.loads(path.read_text())
    blob["identities"][0]["note"] = "tampered"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="hash"):
        load_catalog(str(path))


def test_env_override(tmp_path, monkeypatch):
    path = tmp_path / "mini.json"
    save_catalog([BY_ID["2e8"]], str(path))
    monkeypatch.setenv(ENV_CATALOG, str(path))
    loaded = load_catalog()
    assert [i.id for i in loaded] == ["2e8"]


def test_base_id_helper():
    assert base_id("2e5.0001") == "2e5"
    assert base_id("C17") == "C17"
    assert base_id("2e53.plus") == "2e53"
