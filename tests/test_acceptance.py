"""Acceptance gate: one test (one pass/fail line under pytest -v) per
primary criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
extremes next to each bound.  The heavy 100-sample sweeps are shared
through module-scoped fixtures so the whole gate stays desk-scale.
"""

from __future__ import annotations

import cmath
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from hypertheta import (
    ORIGIN,
    EvalPoint,
    PeriodMatrix,
    ThetaCharacteristic,
    add_vector,
    component_residuals,
    constants_vector,
    double_periods,
    euler_lhs,
    euler_rhs,
    f_vector,
    jacobi_eval,
    theta_eval,
    truncation_radius,
    verify_addition,
    verify_catalog,
)
from hypertheta.backends import lattice_sum
from hypertheta.identity_catalog import _RIEMANN
from hypertheta.sampling import make_rng, sample_point, sample_tau
from hypertheta.theta_core import DEFAULT_POLICY

EPS = DEFAULT_POLICY.eps_tail

TAU_G = PeriodMatrix(0.3 + 1.1j, -0.2 + 1.4j, 0.15 + 0.25j)
Z_G = EvalPoint(0.21 - 0.12j, -0.34 + 0.05j)

_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def _max_rel(reports) -> float:
    return max(r.rel_residual for r in reports)


@pytest.fixture(scope="module")
def addition_run():
    return verify_addition(n_samples=100, seed=0)


def test_primary_identity_suite():
    """Every catalog identity, 100 samples, relative residual < 1e-9, < 60 s."""
    started = time.monotonic()
    reports = verify_catalog(n_samples=100, seed=0)
    elapsed = time.monotonic() - started
    assert len(reports) == 200 * 100
    failed = [r for r in reports if not r.passed]
    assert failed == [], sorted({r.identity_id for r in failed})
    worst = _max_rel(reports)
    assert worst < 1e-9
    assert elapsed < 60.0
    print(f"\nPASS identity suite: 200 identities x 100 samples, "
          f"max rel {worst:.2e} < 1e-9, {elapsed:.1f} s < 60 s")


def test_primary_addition_law(addition_run):
    """add_vector vs direct summation 1e-8; identity 1e-9; commutativity 1e-10."""
    main_rows = [r for r in addition_run.reports
                 if not r.identity_id.endswith(".path")]
    assert len(main_rows) == 15 * 100
    assert all(r.passed for r in main_rows)
    worst = _max_rel(main_rows)
    assert worst < 1e-8

    rng = make_rng(0, "acceptance-addition-props")
    worst_id, worst_comm = 0.0, 0.0
    for _ in range(10):
        tau = sample_tau(rng)
        k = constants_vector(tau)
        if k.near_singular():
            continue
        f1 = f_vector(sample_point(rng), tau)
        f2 = f_vector(sample_point(rng), tau)
        f0 = f_vector(ORIGIN, tau)
        for got, want in ((add_vector(f1, f0, k), f1),
                          (add_vector(f0, f1, k), f1)):
            worst_id = max(worst_id, max(
                abs(a - b) / max(abs(a), abs(b), 1e-30)
                for a, b in zip(got.values, want.values)))
        ab, ba = add_vector(f1, f2, k), add_vector(f2, f1, k)
        worst_comm = max(worst_comm, max(
            abs(a - b) / max(abs(a), abs(b), 1e-30)
            for a, b in zip(ab.values, ba.values)))
    assert worst_id < 1e-9
    assert worst_comm < 1e-10
    print(f"\nPASS addition law: max rel {worst:.2e} < 1e-8; "
          f"identity {worst_id:.2e} < 1e-9; "
          f"commutativity {worst_comm:.2e} < 1e-10")


def test_primary_path_independence(addition_run):
    """Reduced mode equals direct mode to 1e-9 on the same samples."""
    path_rows = [r for r in addition_run.reports
                 if r.identity_id.endswith(".path")]
    assert len(path_rows) == 15 * 100
    assert all(r.passed for r in path_rows)
    worst = _max_rel(path_rows)
    assert worst < 1e-9
    print(f"\nPASS path independence: reduced vs direct mode, "
          f"max rel {worst:.2e} < 1e-9 on 100 samples")


def _theta_1d(a: int, b: int, x: complex, tau: complex,
              radius: int = 30) -> complex:
    total = 0j
    for m in range(-radius, radius + 1):
        f = m + a / 2
        total += cmath.exp(cmath.pi * 1j * tau * f * f
                           + 2 * cmath.pi * 1j * f * (x + b / 2))
    return total


def test_primary_theta_core_oracles():
    """Odd vanishing, block-diagonal factorization, radius stability,
    reduction phase law."""
    # 1. the six odd characteristics (a*b + c*d odd) vanish at the origin
    odd = [ThetaCharacteristic.of(a, c, b, d) for a, c in _ORDER
           for b, d in _ORDER if (a * b + c * d) % 2]
    assert len(odd) == 6
    worst_odd = max(abs(theta_eval(ch, ORIGIN, TAU_G)) for ch in odd)
    assert worst_odd < 10 * EPS

    # 2. tau12 = 0 splits the double sum into two one-variable sums
    tau_block = PeriodMatrix(TAU_G.tau1, TAU_G.tau2, 0j)
    worst_fact = 0.0
    for a, c, b, d in ((0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)):
        got = theta_eval(ThetaCharacteristic.of(a, c, b, d), Z_G, tau_block)
        want = (_theta_1d(a, b, Z_G.x, tau_block.tau1)
                * _theta_1d(c, d, Z_G.y, tau_block.tau2))
        worst_fact = max(worst_fact, abs(got - want) / max(1.0, abs(want)))
    assert worst_fact < 4 * EPS

    # 3. widening the truncation window by 10 does not move the value
    worst_rad = 0.0
    for ch in (ThetaCharacteristic.of(1, 0, 0, 1),
               ThetaCharacteristic.of("1/2", "1/2", 0, 0)):
        base = theta_eval(ch, Z_G, TAU_G)
        reduced, phase = ch.reduce()
        r = truncation_radius(reduced, Z_G, TAU_G)
        bigger = phase * lattice_sum(
            float(reduced.a) / 2, float(reduced.c) / 2,
            Z_G.x + float(reduced.b) / 2, Z_G.y + float(reduced.d) / 2,
            TAU_G.tau1, TAU_G.tau2, TAU_G.tau12, r + 10)
        worst_rad = max(worst_rad, abs(base - bigger) / max(1.0, abs(base)))
    assert worst_rad < 2 * EPS

    # 4. entry shifts by 2 produce exactly the stated unit phase
    worst_phase = 0.0
    for entries in ((2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 2, 0), (0, 1, 0, 2),
                    (3, -1, 2, 4), ("5/2", 0, "-3/2", 1)):
        ch = ThetaCharacteristic.of(*entries)
        reduced, phase = ch.reduce()
        raw = lattice_sum(
            float(ch.a) / 2, float(ch.c) / 2,
            Z_G.x + float(ch.b) / 2, Z_G.y + float(ch.d) / 2,
            TAU_G.tau1, TAU_G.tau2, TAU_G.tau12, 24)
        folded = phase * theta_eval(reduced, Z_G, TAU_G)
        worst_phase = max(worst_phase, abs(raw - folded))
    assert worst_phase < 1e-12
    print(f"\nPASS theta-core oracles: odd {worst_odd:.1e} < {10 * EPS:.0e}; "
          f"factorization {worst_fact:.1e} < {4 * EPS:.0e}; "
          f"radius {worst_rad:.1e} < {2 * EPS:.0e}; "
          f"phase {worst_phase:.1e} < 1e-12")


def test_primary_riemann_matrix():
    """M symmetric, M^2 = 4I, round trip exact and < 1e-10 through thetas."""
    M = np.array(_RIEMANN)
    assert np.array_equal(M, M.T)
    assert np.array_equal(M @ M, 4 * np.eye(4, dtype=int))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(M @ (M @ v) / 4.0, v, rtol=0, atol=1e-14)

    # through thetas: forward rows produce the doubled constants-weighted
    # squares; applying M again (its own inverse up to 1/4) recovers the
    # base squares.
    v_sq = np.array([theta_eval(ThetaCharacteristic.of(0, 0, *bd), Z_G, TAU_G) ** 2
                     for bd in _ORDER])
    k = constants_vector(TAU_G)
    dbl = double_periods(TAU_G)
    twice = Z_G.scaled(2)
    forward = M @ v_sq
    worst = 0.0
    for idx, (a, c) in enumerate(_ORDER):
        direct = (4 * k[(a, c, 0, 0)]
                  * theta_eval(ThetaCharacteristic.of(a, c, 0, 0), twice, dbl))
        worst = max(worst, abs(forward[idx] - direct) / abs(direct))
    directs = np.array(
        [4 * k[(a, c, 0, 0)]
         * theta_eval(ThetaCharacteristic.of(a, c, 0, 0), twice, dbl)
         for a, c in _ORDER])
    recovered = M @ directs / 4.0
    worst = max(worst, max(abs(recovered - v_sq) / abs(v_sq)))
    assert worst < 1e-10
    print(f"\nPASS riemann matrix: symmetric, M^2 = 4I exact, "
          f"theta round trip {worst:.2e} < 1e-10")


def _matrix_gap(u1: float, u3: float, k: float) -> float:
    """Largest entry of lhs - rhs of the matrix identity."""
    return float(np.abs(euler_lhs(u1, u3, k) - euler_rhs(u1, u3, k)).max())


def test_primary_elliptic_identity():
    """Matrix identity and six components < 1e-10 over 100 draws;
    k = 0, 1 degenerations to 1e-12."""
    rng = make_rng(0, "acceptance-elliptic")
    worst_m, worst_c = 0.0, 0.0
    for _ in range(100):
        u1, u3 = (float(x) for x in rng.uniform(-3.0, 3.0, size=2))
        k = float(rng.uniform(0.0, 1.0))
        worst_m = max(worst_m, _matrix_gap(u1, u3, k))
        worst_c = max(worst_c, max(
            abs(v) for v in component_residuals(u1, u3, k).values()))
    assert worst_m < 1e-10
    assert worst_c < 1e-10

    worst_d = 0.0
    for u in np.linspace(-2.5, 2.5, 11):
        sn0, cn0, dn0 = jacobi_eval(float(u), 0.0).as_tuple()
        worst_d = max(worst_d, abs(sn0 - np.sin(u)), abs(cn0 - np.cos(u)),
                      abs(dn0 - 1.0))
        sn1, cn1, dn1 = jacobi_eval(float(u), 1.0).as_tuple()
        worst_d = max(worst_d, abs(sn1 - np.tanh(u)),
                      abs(cn1 - 1 / np.cosh(u)), abs(dn1 - 1 / np.cosh(u)))
        worst_d = max(worst_d, _matrix_gap(float(u), 0.4, 0.0),
                      _matrix_gap(float(u), 0.4, 1.0))
    assert worst_d < 1e-12
    print(f"\nPASS elliptic identity: matrix {worst_m:.2e}, "
          f"components {worst_c:.2e} < 1e-10 over 100 draws; "
          f"degenerations {worst_d:.2e} < 1e-12")


def test_primary_determinism(tmp_path):
    """Two runs with identical seed/config give byte-identical reports."""
    rows = tmp_path / "rows.jsonl"
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "hypertheta.cli", "verify",
             "--samples", "3", "--seed", "0", "--out", str(rows)],
            capture_output=True, text=True, check=True)
        outputs.append((rows.read_bytes(), json.loads(proc.stdout)))
    (rows_a, rep_a), (rows_b, rep_b) = outputs
    assert rows_a == rows_b
    assert rep_a["determinism_hash"] == rep_b["determinism_hash"]
    rep_a.pop("wall_time_s"), rep_b.pop("wall_time_s")
    assert rep_a == rep_b  # everything but wall time is reproduced
    print(f"\nPASS determinism: {len(rows_a)} report bytes identical across "
          f"two seeded runs; hash {rep_a['determinism_hash'][:12]}")
