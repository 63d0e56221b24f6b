"""Catalog structure and residual tests.

The catalog's substance is validated numerically: every entry is evaluated
at fresh random (tau, p1, p2) draws and must close to near machine
precision.  Structural tests pin the shapes that downstream code relies on
(the duplication expansion, the Riemann matrix, the sign-free root forms),
and a corrupted-entry fixture proves the harness actually detects wrong
coefficients rather than passing vacuously.
"""

from __future__ import annotations

import json
import math

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
    riemann_matrix,
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
    m = riemann_matrix()
    assert m.dtype == np.dtype(int)
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
    Each sample index of all identities is one sums_by_radius call, which
    makes one kernel call per truncation radius among its rows, and each
    kernel call sums its rows one GRID_POINTS slice at a time."""
    expected = [r.as_json() for r in verify_catalog(2, 0)]
    counts = {"characteristics": 0, "blocks": 0, "radius_classes": 0,
              "lattice_sum": 0, "window_sums": 0}
    by_radius = identity_catalog.sums_by_radius
    kernel, window = theta_core.lattice_sum, backends._window_sums

    def counted_by_radius(*args, **kwargs):
        counts["blocks"] += 1
        counts["radius_classes"] += len(set(args[-1].tolist()))
        return by_radius(*args, **kwargs)

    def counted_kernel(a2, *args, **kwargs):
        counts["lattice_sum"] += 1
        counts["characteristics"] += len(a2)
        return kernel(a2, *args, **kwargs)

    def counted_window(*args):
        counts["window_sums"] += 1
        return window(*args)

    monkeypatch.setattr(identity_catalog, "sums_by_radius", counted_by_radius)
    monkeypatch.setattr(theta_core, "lattice_sum", counted_kernel)
    monkeypatch.setattr(backends, "_window_sums", counted_window)
    rows = verify_catalog(2, 0)
    assert counts == {"characteristics": 3216, "blocks": 2,
                      "radius_classes": 31, "lattice_sum": 31,
                      "window_sums": 73}
    assert [r.as_json() for r in rows] == expected


@pytest.mark.parametrize("seed", range(3))
def test_block_radii_equal_truncation_radius(seed):
    """Every (argument, scale) group of a block, over all identities, gets
    what the scalar path gives its draw: the argument of
    ArgSelector.select (by repr), tau or double_periods(tau), and the
    radius and drop floor truncation_window(z, tau)."""
    ids = sorted(BY_ID)
    prog = identity_catalog._compile([BY_ID[i] for i in ids])
    block = identity_catalog._block(prog, next(draw_stream(seed, ids)),
                                    PrecisionPolicy())
    assert not block.errors
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
            assert not row.passed
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
