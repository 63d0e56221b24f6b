"""Addition-law tests.

Reduced-mode composition (add_vector) is validated against
direct summation at the sum point and against direct mode (add_direct,
which sums every doubled theta from scratch); its algebraic properties
(identity element, commutativity, associativity, degree-2 homogeneity of
the doubling core) are checked at random draws.  Divisor handling is
exercised at a known zero of the normalizing theta: for a diagonal period
matrix the genus-2 series factorizes, and the factor vanishes at
x = (1 + tau1)/2.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from hypertheta import (
    ORIGIN,
    EvalPoint,
    PeriodMatrix,
    ThetaCharacteristic,
    double_periods,
    theta_eval,
)
from hypertheta.addition import (
    A_LABELS,
    A_ORDER,
    AdditionRun,
    DegenerateDenominator,
    DivisorHit,
    FVector,
    add_direct,
    add_vector,
    constant_chars,
    constants_vector,
    doubled_values,
    doubled_values_direct,
    f_eval,
    f_vector,
    verify_addition,
)
from hypertheta import addition, identity_catalog, theta_core
from hypertheta.backends import lattice_sum
from hypertheta.identity_catalog import (
    IdentityTerm,
    ResidualReport,
    verify_catalog,
)
from hypertheta.sampling import make_rng, sample_point, sample_tau
from hypertheta.theta_core import DEFAULT_POLICY, PrecisionPolicy

TAU = PeriodMatrix(0.3 + 1.1j, -0.2 + 1.4j, 0.15 + 0.25j)
Z1 = EvalPoint(0.21 - 0.12j, -0.34 + 0.05j)
Z2 = EvalPoint(-0.17 + 0.08j, 0.29 - 0.11j)
Z3 = EvalPoint(0.05 + 0.11j, 0.13 - 0.07j)


@pytest.fixture(scope="module")
def k():
    return constants_vector(TAU)


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def worst(got: FVector, want: FVector) -> float:
    return max(rel(a, b) for a, b in zip(got.values, want.values))


# ------------------------------------------------------------------ basics

def test_a_order_covers_all_nonbase_characteristics():
    assert len(A_ORDER) == 15
    assert (0, 0, 0, 0) not in A_ORDER
    assert len(set(A_ORDER)) == 15
    assert A_LABELS["A1"] == (0, 0, 0, 1)
    assert A_LABELS["A15"] == (1, 1, 1, 1)


def test_f_eval_matches_ratio_of_sums():
    ch = ThetaCharacteristic.of(1, 0, 1, 1)
    got = f_eval(ch, Z1, TAU)
    num = theta_eval(ch, Z1, TAU)
    den = theta_eval(ThetaCharacteristic.of(0, 0, 0, 0), Z1, TAU)
    assert rel(got, num / den) < 1e-14


# (m1, m2, n1, n2): z moves by m + tau n, out of the sampling window
_PERIODS = ((1, 0, 0, 0), (0, 1, 0, 0), (-2, 1, 0, 0), (0, 0, 1, 0),
            (0, 0, 0, 1), (0, 0, -1, 0), (1, 1, 1, -1), (0, 0, 1, 1))


def test_quotients_are_quasi_periodic_outside_the_window():
    """F[a c; b d](z + m + tau n) = (-1)**(a m1 + c m2 - b n1 - d n2) *
    F[a c; b d](z) for the fifteen quotients at five sampling draws, and
    the opposite sign misses, so a slip in the convention fails.  A shift
    whose window exceeds the radius cap is skipped: one shift of one draw
    here.  The worst error here is 7.8e-14."""
    rng = make_rng(0, "quasi-periodic")
    checked = skipped = 0
    for _ in range(5):
        tau, z = sample_tau(rng), sample_point(rng)
        at_z = [f_eval(ch, z, tau) for ch in A_ORDER]
        for m1, m2, n1, n2 in _PERIODS:
            moved = EvalPoint(z.x + m1 + tau.tau1 * n1 + tau.tau12 * n2,
                              z.y + m2 + tau.tau12 * n1 + tau.tau2 * n2)
            for (a, c, b, d), f in zip(A_ORDER, at_z):
                try:
                    got = f_eval((a, c, b, d), moved, tau)
                except theta_core.RadiusExceeded:
                    skipped += 1
                    continue
                want = (-1) ** (a * m1 + c * m2 - b * n1 - d * n2) * f
                assert rel(got, want) < 1e-12, ((a, c, b, d), (m1, m2, n1, n2))
                assert rel(got, -want) > 1
                checked += 1
    assert skipped <= len(A_ORDER) and checked + skipped == 5 * 8 * 15


def test_f_vector_indexing():
    f = f_vector(Z1, TAU)
    assert f[(0, 0, 0, 0)] == 1.0 + 0j
    assert f[ThetaCharacteristic.of(0, 1, 1, 0)] == f.values[
        A_ORDER.index((0, 1, 1, 0))]
    assert [f[ch] for ch in ((0, 0, 0, 0),) + A_ORDER] == [1.0 + 0j,
                                                          *f.values]


def test_fvector_rejects_wrong_length():
    with pytest.raises(ValueError):
        FVector((1 + 0j,) * 14)


# --------------------------------------------------------------- constants

def _root_form_targets() -> dict[str, ThetaCharacteristic]:
    """Row id -> target characteristic of each built-in row with a root
    form (D1..D16)."""
    return {i.id: ThetaCharacteristic.from_json(i.root_form["target"])
            for i in identity_catalog.build_catalog()
            if i.root_form is not None}


def test_constants_direct_vs_resolved(k):
    """The law reads the summed constants; their root forms resolve, at the
    same tau, in identity_catalog's sign search."""
    assert k.near_singular() == ()
    d_ids = list(_root_form_targets())
    assert d_ids == [f"D{n}" for n in range(1, 17)]
    for d_id in d_ids:
        _, record = identity_catalog.resolve_sign(d_id, TAU)
        assert record["rel_error"] < 1e-10


def _counted_kernel(monkeypatch, *modules) -> dict:
    """Record the characteristics passed to theta_values through `modules`,
    one tuple per call, and count the lattice_sum calls."""
    seen = {"theta_values": [], "lattice_sum": 0}

    def values(chars, *args):
        chars = tuple(chars)
        seen["theta_values"].append(chars)
        return theta_core.theta_values(chars, *args)

    def kernel(*args, **kwargs):
        seen["lattice_sum"] += 1
        return lattice_sum(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "theta_values", values)
    monkeypatch.setattr(theta_core, "lattice_sum", kernel)
    return seen


def test_constants_sum_each_constant_once(monkeypatch):
    """The 14 doubled constants the solved rows read, each summed once in
    one kernel call, and no sign search.  They are the targets of the
    D1..D16 root forms but [0 0;1 1] and [1 1;1 1], which only C13..C16
    read, though the law reads none of those rows."""
    def boom(*args, **kwargs):
        raise AssertionError("match_signs on the constants path")

    seen = _counted_kernel(monkeypatch, addition)
    monkeypatch.setattr(identity_catalog, "match_signs", boom)
    kv = constants_vector(TAU)
    (chars,) = seen["theta_values"]
    assert chars == constant_chars()
    assert len(chars) == len(set(chars)) == 14
    assert set(_root_form_targets().values()) - set(chars) == {
        ThetaCharacteristic.of(0, 0, 1, 1), ThetaCharacteristic.of(1, 1, 1, 1)}
    assert seen["lattice_sum"] == 1
    assert len(kv.values) == 14
    for ch, value in zip(chars, kv.values):
        assert kv[ch] == value


def test_f_vector_divisor_hit_sums_no_numerator(monkeypatch):
    """At a zero of the normalizer, f_vector raises after the one kernel
    call that sums it."""
    seen = _counted_kernel(monkeypatch, addition)
    tau = PeriodMatrix(1.1j, 1.3j, 0j)
    with pytest.raises(DivisorHit):
        f_vector(EvalPoint((1 + tau.tau1) / 2, 0.07 + 0.02j), tau)
    assert seen == {"theta_values": [], "lattice_sum": 1}


def test_verify_addition_sums_a_block_in_one_kernel_batch(monkeypatch):
    """Ten samples without a redraw: 30 normalizer theta_eval calls (three
    per sample) and one KernelBatch.values call of 107 rows per sample, so
    the lattice_sum calls are 30 plus the block's distinct radii."""
    seen = _counted_kernel(monkeypatch, addition)
    normalizers = []
    batches = []
    values = theta_core.KernelBatch.values

    def normalizer(ch, *args):
        normalizers.append(ch)
        return theta_core.theta_eval(ch, *args)

    def batch(self, windows, **kwargs):
        out = values(self, windows, **kwargs)
        batches.append((windows.radius, len(out)))
        return out

    monkeypatch.setattr(addition, "theta_eval", normalizer)
    monkeypatch.setattr(theta_core.KernelBatch, "values", batch)
    run = verify_addition(10, 7208)
    assert (run.tau_redraws, run.point_redraws) == (0, 0)
    assert normalizers == [ThetaCharacteristic.of(0, 0, 0, 0)] * 30
    ((radii, rows),) = batches
    assert rows == 1070
    assert seen["theta_values"] == []
    assert seen["lattice_sum"] == 30 + len(set(radii.tolist()))


def test_constants_at_diagonal_tau_do_not_warn():
    """At diag(1.1i, 1.3i) zeta = Theta[1 1;1 1] vanishes and the D10-D12
    root forms miss their 1e-8 match; the constants the law reads, which
    no longer include zeta, are still plain sums."""
    tau = PeriodMatrix(1.1j, 1.3j, 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kv = constants_vector(tau)
    assert ThetaCharacteristic.of(1, 1, 1, 1) not in constant_chars()
    for ch in ((0, 0, 0, 0), (1, 1, 0, 0)):
        assert kv[ch] == theta_eval(ThetaCharacteristic.of(*ch), ORIGIN,
                                    double_periods(tau))


def test_theta_eval_and_law_never_call_reduce(monkeypatch):
    """theta_eval reads each characteristic's integer reduction, so neither
    it nor the addition law goes through the rational reduce()."""
    def boom(self):
        raise AssertionError("reduce() on the evaluation path")

    monkeypatch.setattr(ThetaCharacteristic, "reduce", boom)
    chars = {f.ch for idty in identity_catalog.build_catalog()
             for term in (*idty.lhs, *idty.rhs) for f in term.factors}
    for ch in chars:
        fresh = ThetaCharacteristic(*ch.entries)  # nothing cached yet
        theta_eval(fresh, Z1, TAU)
        theta_eval(fresh, Z1.scaled(2), double_periods(TAU))
    assert verify_addition(1, 0).all_passed


@pytest.mark.parametrize("seed", [3, 361])
def test_fragile_benchmark_draws_pass(seed):
    """addition-law sub-seeds of the benchmark whose path rows sit nearest
    the 1e-9 tolerance: sample 6 of seed 3 (A3.path 2.9e-10) and sample 3
    of seed 361 (A3.path 1.3e-10).  Value moves of the kernel must not
    push them over."""
    assert verify_addition(10, seed).all_passed


def test_benchmark_draw_7177_passes():
    """Sample 5 of sub-seed 7177 (addition-law, bench seed 897) failed the
    path rows of A3, A7, A11 and A15 (A11.path 5.6e-9) while the law read
    them through C13..C16."""
    run = verify_addition(10, 7177)
    assert all(r.passed for r in run.reports if r.sample_index == 5)


@pytest.mark.parametrize("n_samples, seed", [(1, 400858), (1, 11256),
                                             (10, 4878)])
def test_known_failing_draws_pass(n_samples, seed):
    """Draws on which the addition law missed its tolerances while it read
    the lower-row (1 1) quotients through C13..C16, whose rhs cancels
    about 2e5-fold there: 400858 at 1.2e-7 to 4.4e-7 (A3, A7, A11, A15 and
    their path rows), 11256 at 3.6e-9 (A7.path, A11.path), sample 1 of
    4878 at 3.5e-9 (A7.path) and 2.8e-9 (A11.path)."""
    run = verify_addition(n_samples, seed)
    assert run.all_passed


def test_constants_match_doubled_thetas(k):
    dbl = double_periods(TAU)
    m11 = theta_eval(ThetaCharacteristic.of(1, 1, 0, 0), ORIGIN, dbl)
    assert rel(k[(1, 1, 0, 0)], m11) < 1e-14
    half = ThetaCharacteristic.of("1/2", "1/2", 0, 0)
    pp = theta_eval(half, ORIGIN, dbl)
    assert rel(k[half], pp) < 1e-14


# ------------------------------------------------------------ doubling core

def test_doubling_core_reproduces_doubled_thetas(k):
    """With raw theta values in, the solved rows give the honest doubled
    values (the direct-mode kernel): this is the licence for feeding
    quotients instead."""
    raw = {ch: theta_eval(ThetaCharacteristic.of(*ch), Z1, TAU)
           for ch in ((0, 0, 0, 0),) + A_ORDER}
    dv = doubled_values(raw, k)
    direct = doubled_values_direct(Z1, TAU)
    assert len(dv) == len(direct) == 24
    for ch, got in dv.items():
        assert rel(got, direct[ch]) < 1e-9, ch


def test_doubling_core_is_degree_two_homogeneous(k):
    raw = {ch: theta_eval(ThetaCharacteristic.of(*ch), Z1, TAU)
           for ch in ((0, 0, 0, 0),) + A_ORDER}
    base = doubled_values(raw, k)
    for lam in (2.0 + 0j, 0.3 - 1.2j, -0.7 + 0.4j):
        scaled = doubled_values({c: lam * v for c, v in raw.items()}, k)
        for ch in base:
            assert rel(scaled[ch], lam ** 2 * base[ch]) < 1e-12, (lam, ch)


# ------------------------------------------------------------- the law

def test_addition_matches_direct_summation(k):
    f1, f2 = f_vector(Z1, TAU), f_vector(Z2, TAU)
    alg = add_vector(f1, f2, k)
    direct = f_vector(Z1 + Z2, TAU)
    assert worst(alg, direct) < 1e-8


def test_addition_matches_direct_on_random_draws():
    rng = make_rng(17, "addition-unit")
    for _ in range(3):
        tau = sample_tau(rng)
        kv = constants_vector(tau)
        if kv.near_singular():
            continue
        z1, z2 = sample_point(rng), sample_point(rng)
        alg = add_vector(f_vector(z1, tau), f_vector(z2, tau), kv)
        direct = f_vector(z1 + z2, tau)
        assert worst(alg, direct) < 1e-8


def test_law_reads_no_doubled_theta_with_lower_row_11():
    """The law's solved rows are C1..C12 and C17..C28, and its pairings
    B1..B19 but B4, B8, B12, B16, and the route's eight: no pairing reads
    a solved target with lower row (1 1), which only C13..C16 solve."""
    law = addition._law_tables()
    assert [ident for ident, _, _ in law.solved] == [
        f"C{n}" for n in (*range(1, 13), *range(17, 29))]
    assert len(law.targets) == 24 and len(law.pairings) == 15 + 8
    assert all(key[2:] != (1, 1) for key in law.targets)
    assert {pair for pair, _ in law.pairings[15:]} == {
        pair for u in ((0, 0), (0, 1), (1, 0), (1, 1))
        for pair in (((*u, 1, 1), (*u, 1, 1)), ((*u, 0, 1), (*u, 1, 1)))}


def test_route_pairings_match_direct_products():
    """The route's pairings, fed with directly summed doubled thetas, give
    theta[s](z1+z2) * theta[s](z1-z2) and theta[e](z1+z2) * theta[s](z1-z2)
    for s = [u; 1 1] and e = [u; 0 1], as direct sums at z1 + z2 and
    z1 - z2 give them."""
    d1 = list(doubled_values_direct(Z1, TAU).values())
    d2 = list(doubled_values_direct(Z2, TAU).values())
    G = addition._pairings(d1, d2)
    diff = EvalPoint(Z1.x - Z2.x, Z1.y - Z2.y)
    for u in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s, e = (*u, 1, 1), (*u, 0, 1)
        below = theta_eval(ThetaCharacteristic.of(*s), diff, TAU)
        for sum_ch in (s, e):
            want = theta_eval(ThetaCharacteristic.of(*sum_ch), Z1 + Z2,
                              TAU) * below
            assert rel(G[(sum_ch, s)], want) < 1e-12, (sum_ch, s)


def test_identity_element(k):
    f1 = f_vector(Z1, TAU)
    f0 = f_vector(ORIGIN, TAU)
    assert worst(add_vector(f1, f0, k), f1) < 1e-9
    assert worst(add_vector(f0, f1, k), f1) < 1e-9


def test_commutativity(k):
    f1, f2 = f_vector(Z1, TAU), f_vector(Z2, TAU)
    assert worst(add_vector(f1, f2, k), add_vector(f2, f1, k)) < 1e-10


def test_path_independence_reduced_vs_direct_mode(k):
    f1, f2 = f_vector(Z1, TAU), f_vector(Z2, TAU)
    reduced = add_vector(f1, f2, k)
    direct_mode = add_direct(Z1, Z2, TAU)
    assert worst(reduced, direct_mode) < 1e-9
    assert worst(direct_mode, f_vector(Z1 + Z2, TAU)) < 1e-8


def test_associativity(k):
    f1, f2, f3 = (f_vector(z, TAU) for z in (Z1, Z2, Z3))
    left = add_vector(add_vector(f1, f2, k), f3, k)
    right = add_vector(f1, add_vector(f2, f3, k), k)
    assert worst(left, right) < 1e-9
    # both paths land on the directly summed triple point
    direct = f_vector(Z1 + Z2 + Z3, TAU)
    assert worst(left, direct) < 1e-8


# ---------------------------------------------------------------- divisors

def test_divisor_hit_at_known_zero():
    tau = PeriodMatrix(1.1j, 1.3j, 0j)
    z = EvalPoint((1 + tau.tau1) / 2, 0.07 + 0.02j)
    with pytest.raises(DivisorHit):
        f_vector(z, tau)
    with pytest.raises(DivisorHit):
        f_eval((0, 1, 0, 1), z, tau)


def test_degenerate_denominator_when_sum_hits_divisor():
    tau = PeriodMatrix(1.1j, 1.3j, 0j)
    kv = constants_vector(tau)
    half = (1 + tau.tau1) / 2
    z1 = EvalPoint(half / 2, 0.07 + 0.02j)
    z2 = EvalPoint(half / 2, -0.03 + 0.05j)
    f1, f2 = f_vector(z1, tau), f_vector(z2, tau)  # the points themselves are fine
    with pytest.raises(DegenerateDenominator):
        add_vector(f1, f2, kv)


def test_near_singular_names_the_row_add_vector_refuses():
    """With the [0 0;0 0] constant set to 0, C1's lhs coefficient vanishes:
    the guard names that row alone, and add_vector refuses that row."""
    tau = sample_tau(make_rng(3, "addition-unit"))
    kv = constants_vector(tau)
    assert kv.near_singular() == ()
    values = list(kv.values)
    values[constant_chars().index(ThetaCharacteristic.of(0, 0, 0, 0))] = 0j
    zeroed = dataclasses.replace(kv, values=tuple(values))
    assert zeroed.near_singular() == ("C1",)
    f1, f2 = f_vector(Z1, tau), f_vector(Z2, tau)
    add_vector(f1, f2, kv)
    with pytest.raises(DegenerateDenominator, match=r"of C1 = "):
        add_vector(f1, f2, zeroed)


# ---------------------------------------------------------------- verifier

def test_verify_addition_structure_and_determinism():
    run = verify_addition(n_samples=3, seed=21)
    assert isinstance(run, AdditionRun)
    assert run.samples == 3
    assert len(run.reports) == 3 * 30
    labels = {r.identity_id for r in run.reports}
    assert "A1" in labels and "A15.path" in labels
    assert run.all_passed

    again = verify_addition(n_samples=3, seed=21)
    assert [r.as_json() for r in again.reports] == [
        r.as_json() for r in run.reports]

    other = verify_addition(n_samples=3, seed=22)
    assert [r.as_json() for r in other.reports] != [
        r.as_json() for r in run.reports]


def _one_at_a_time(n_samples: int, seed: int,
                   pol: PrecisionPolicy = DEFAULT_POLICY) -> AdditionRun:
    """The verifier drawing and checking one sample at a time through the
    public per-point functions: the oracle of the block."""
    rng = make_rng(seed, "addition")
    reports, tau_redraws, point_redraws = [], 0, 0
    for idx in range(n_samples):
        while True:
            tau = sample_tau(rng)
            kv = constants_vector(tau, pol)
            if not kv.near_singular():
                break
            tau_redraws += 1
        while True:
            z1, z2 = sample_point(rng), sample_point(rng)
            try:
                f1, f2 = f_vector(z1, tau, pol), f_vector(z2, tau, pol)
                direct12 = f_vector(z1 + z2, tau, pol)
                reduced = add_vector(f1, f2, kv)
                direct_mode = add_direct(z1, z2, tau, pol)
            except (DivisorHit, DegenerateDenominator):
                point_redraws += 1
                continue
            break
        for suffix, want, tol in (("", direct12, addition.CONSISTENCY_TOL),
                                  (".path", direct_mode, addition.PATH_TOL)):
            reports.extend(
                ResidualReport.compare(f"A{k + 1}{suffix}", idx, a, b, tol,
                                       DEFAULT_POLICY.abs_tol)
                for k, (a, b) in enumerate(zip(reduced.values,
                                               want.values)))
    return AdditionRun(reports, n_samples, tau_redraws, point_redraws)


def _outputs(run: AdditionRun) -> tuple:
    return ([r.as_json() for r in run.reports], run.tau_redraws,
            run.point_redraws)


def _dump(cases) -> str:
    """sha256 of the rows and redraws of verify_addition(n, seed) per case."""
    out = []
    for n_samples, seed in cases:
        rows, tau_redraws, point_redraws = _outputs(
            verify_addition(n_samples, seed))
        out.append({"seed": seed, "rows": rows, "tau_redraws": tau_redraws,
                    "point_redraws": point_redraws})
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(7208, 7216))
def test_block_equals_one_sample_at_a_time(seed):
    """The items of the benchmark's addition-law workload at seed 901."""
    assert _outputs(verify_addition(10, seed)) == _outputs(
        _one_at_a_time(10, seed))


def test_block_replays_redraws_one_sample_at_a_time(monkeypatch):
    """At a divisor threshold of 0.05, seed 3 redraws 10 taus and 3 point
    pairs inside its blocks: each such sample is replayed from the RNG
    state before it, and the rows and redraws stay those of the oracle."""
    monkeypatch.setattr(addition, "DIVISOR_THRESHOLD", 0.05)
    run = verify_addition(20, 3)
    assert (run.tau_redraws, run.point_redraws) == (10, 3)
    assert _outputs(run) == _outputs(_one_at_a_time(20, 3))


def test_full_and_spanning_blocks_equal_one_sample_at_a_time(monkeypatch):
    """70 samples at a seed outside the pinned sets: a full block of
    _BLOCK_SAMPLES, then a block of the 6 left, bit for bit the oracle's."""
    sizes = []
    block = addition._block

    def counted(rng, count, pol):
        out, state = block(rng, count, pol)
        sizes.append((count, len(out)))
        return out, state

    monkeypatch.setattr(addition, "_block", counted)
    run = verify_addition(70, 1234)
    assert sizes == [(addition._BLOCK_SAMPLES,) * 2, (6, 6)]
    assert _outputs(run) == _outputs(_one_at_a_time(70, 1234))


def test_block_replays_a_divisor_hit_one_sample_at_a_time(monkeypatch):
    """At a divisor threshold of 0.15, seed 2's fourth block (7 samples
    drawn ahead) is cut at its sample 1, whose constants are not
    near-singular but whose normalizer at z1+z2 is below the threshold
    (DivisorHit): the block's only cut by that guard.  That sample is
    replayed from the RNG state before it, and the rows and redraws stay
    those of the oracle."""
    monkeypatch.setattr(addition, "DIVISOR_THRESHOLD", 0.15)
    cuts = []
    finish = addition._finish_block

    def finished(values, draws, pol):
        out = finish(values, draws, pol)
        if len(out) < len(draws):
            tau, z1, z2 = draws[len(out)]
            cuts.append((len(draws), len(out),
                         constants_vector(tau, pol).near_singular() != (),
                         [abs(theta_eval(ThetaCharacteristic.of(0, 0, 0, 0),
                                         z, tau, pol)) < 0.15
                          for z in (z1, z2, z1 + z2)]))
        return out

    monkeypatch.setattr(addition, "_finish_block", finished)
    run = verify_addition(10, 2)
    assert (run.tau_redraws, run.point_redraws) == (19, 8)
    assert [cut for cut in cuts if any(cut[3])] == [
        (7, 1, False, [False, False, True])]
    assert _outputs(run) == _outputs(_one_at_a_time(10, 2))


def _dispatched_simd() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU above its baseline,
    or none where numpy does not say."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return []
    features = getattr(umath, "__cpu_features__", {})
    return [t for t in getattr(umath, "__cpu_dispatch__", ())
            if features.get(t)]


_SIMD_ROWS = """
import hashlib
from numpy._core import _multiarray_umath as umath
from hypertheta.addition import verify_addition
print(sorted(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]))
print(hashlib.sha256("".join(
    r.json_line() for seed in range(7208, 7216)
    for r in verify_addition(10, seed).reports).encode()).hexdigest())
"""


def test_addition_rows_do_not_depend_on_numpy_simd_level():
    """The benchmark items' rows with every dispatched SIMD target switched
    off (NPY_DISABLE_CPU_FEATURES) equal those of the default process: the
    law runs on object arrays, CPython's own arithmetic, not complex128,
    whose multiply contracts to FMA under x86-64-v3 dispatch."""
    targets = _dispatched_simd()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target above its baseline")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    proc = subprocess.run([sys.executable, "-c", _SIMD_ROWS], env=env,
                          capture_output=True, text=True, check=True)
    enabled, digest = proc.stdout.split("\n")[:2]
    assert enabled == "[]"
    assert digest == hashlib.sha256("".join(
        r.json_line() for seed in range(7208, 7216)
        for r in verify_addition(10, seed).reports).encode()).hexdigest()


def test_block_raises_what_one_sample_at_a_time_raises(monkeypatch):
    """max_radius 6 fails at a sample after the first of seed 0: the
    block's windowing refuses a window of sample 1, and the same exception,
    with the same text, as the oracle's is raised; both are pinned."""
    pol = PrecisionPolicy(max_radius=6)
    assert verify_addition(1, 0, pol).all_passed
    with pytest.raises(theta_core.RadiusExceeded) as oracle:
        _one_at_a_time(10, 0, pol)
    refused = []

    def windowed(*args):
        out = theta_core.truncation_windows(*args)
        refused.append(min(out[1]) // 6)
        return out

    monkeypatch.setattr(addition, "truncation_windows", windowed)
    with pytest.raises(theta_core.RadiusExceeded) as got:
        verify_addition(10, 0, pol)
    assert refused == [1]
    assert type(got.value) is type(oracle.value)
    assert str(got.value) == str(oracle.value) == (
        "tail target 1e-14 unreachable within radius 6 "
        "(lambda_min=0.387, rho=0.279)")


def test_addition_outputs_are_pinned(monkeypatch):
    """Rows and redraws of the addition suite, pinned: seeds 0-79, the
    benchmark items of seed 901, and the 0.05-threshold redraw case."""
    assert _dump([(10, s) for s in range(80)]) == (
        "4397efb3a0976c737d58172bcda75a4099a6776ebb9db84caae4a811ed6a1c8d")
    assert _dump([(10, s) for s in range(7208, 7216)]) == (
        "30e70c2a2940ad776533d6523bea4c3d6cd1084e675f153fc36ad075547a64ae")
    monkeypatch.setattr(addition, "DIVISOR_THRESHOLD", 0.05)
    assert _dump([(20, 3)]) == (
        "ac0635a57cbed87145796775a89d7afc7f60e8ee8ce9ef5ebf87d1d94f976994")


def test_wrong_sign_in_a_solved_row_fails_catalog_and_law(monkeypatch):
    """The law runs the catalog's own rows.  Flipping the sign of one
    coefficient of C7 (which solves Theta[1 0;0 1]) fails C7 in the catalog
    suite, and fails both comparisons of every quotient whose pairing reads
    a doubled theta with lower row (0,1): those with lower row (0,1), and
    those with lower row (1,1), which carry F[a c;0 1] over."""
    catalog = []
    for idty in identity_catalog.build_catalog():
        if idty.id == "C7":
            first = idty.rhs[0]
            idty = dataclasses.replace(idty, rhs=(
                IdentityTerm(-first.coefficient, first.factors),
                *idty.rhs[1:]))
        catalog.append(idty)
    monkeypatch.setattr(identity_catalog, "_built_catalog",
                        lambda: tuple(catalog))
    addition._law_tables.cache_clear()
    try:
        reports = verify_catalog(n_samples=1, seed=0, only={"C6", "C7"})
        run = verify_addition(n_samples=1, seed=0)
    finally:
        addition._law_tables.cache_clear()
    assert [(r.identity_id, r.passed) for r in reports] == [
        ("C6", True), ("C7", False)]
    reads_01 = {label for label, ch in A_LABELS.items()
                if ch[2:] in ((0, 1), (1, 1))}
    assert {r.identity_id for r in run.reports if not r.passed} == \
        reads_01 | {f"{label}.path" for label in reads_01}


def test_clearing_the_law_tables_recompiles_the_block(monkeypatch):
    """One _law_tables.cache_clear() recompiles everything the block
    reads.  After a run, a catalog whose C5 lists its two lhs terms the
    other way round (the same equation, whose constants constant_chars()
    then lists in another order) gives the block the oracle's rows."""
    verify_addition(1, 0)
    before = constant_chars()
    catalog = [dataclasses.replace(idty, lhs=idty.lhs[::-1])
               if idty.id == "C5" else idty
               for idty in identity_catalog.build_catalog()]
    monkeypatch.setattr(identity_catalog, "_built_catalog",
                        lambda: tuple(catalog))
    addition._law_tables.cache_clear()
    try:
        assert constant_chars() != before
        assert set(constant_chars()) == set(before)
        assert _outputs(verify_addition(3, 0)) == _outputs(
            _one_at_a_time(3, 0))
    finally:
        addition._law_tables.cache_clear()
