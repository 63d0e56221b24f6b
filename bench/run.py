"""Layered benchmark for hypertheta.

    python3 bench/run.py --workload verify-full --seed 0 --seconds 25 --trace 0

Run from a checkout root: the package is imported from ./src, and scratch
files go to ./.bench_build/bench.  Workloads (why each exists: NOTES.md):

  verify-full   in-process ``hypertheta verify --seed s --samples 2``
  addition-law  ``verify_addition(10, s)``
  theta-eval    500 ``theta_eval`` calls on fresh inputs drawn from (S, item)

(one repetition each).  A pass runs every item of the workload once: the
row workloads' items are the sub-seeds s = S*K .. S*K+K-1, theta-eval's are
K chunks of inputs.  With ``--trace 0`` the run makes passes_for(--seconds)
passes, a number fixed by the workload and ``--seconds`` alone, so that a
seed always gives the same ops and the same failed ops; every pass of an
item must give the same outputs, and times are scaled to the reference
machine speed by calibrate().  With ``--trace 1`` it runs a
fixed number of items once untraced and once under the span tracer
(bench/tracing.py) and prints the per-layer metrics.  Every repetition
starts from a cold theta cache.  Outputs are checked outside the timed
calls.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3
CAL_REF_S = 0.0035      # calibrate() on the reference machine in a quiet spell

# theta-eval input family: lambda_min >= 0.15 and |Im z| <= 2 give radii
# 3..33; one input in BAND_EVERY has |Im z| in BAND_IM_Z, where today's code
# raises (RadiusExceeded, OverflowError) or returns non-finite values
LAMBDA_FLOOR = 0.15
IM_Z = (0.0, 2.0)
BAND_IM_Z = (8.0, 20.0)
BAND_EVERY = 20
REF_MARGIN = 2          # reference radius = certified radius + REF_MARGIN
REF_TOL = 1e-12         # relative to the sum of term magnitudes
REF_TERMS = 8192        # lattice terms per vectorised reference call


def program(name: str):
    """A hypertheta module.  Callers look functions up on it at call time,
    so the tracer's wrappers apply."""
    return importlib.import_module(f"hypertheta.{name}")


@dataclass
class Raw:
    """One repetition as run: timed seconds, latency samples (s) of its ops
    or of its call, ops attempted, and what the check needs."""

    wall: float
    latencies: list[float]
    ops: int
    payload: object


@dataclass
class Checked:
    """One repetition after checking: failed ops, problems, and a digest of
    its outputs (rows file, or theta values)."""

    failed: int
    problems: list[str]
    digest: str = ""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_CAL_M = (np.arange(-5, 6) + 0.25)[:, None]


def calibrate() -> float:
    """Seconds for a fixed mix of small-Fraction arithmetic and small numpy
    exponential sums, the two kinds of work hypertheta does; no program code
    runs.  On a shared host the same call runs up to 1.8x slower for
    minutes at a time, and this loop slows with it, so end-to-end times are
    scaled by CAL_REF_S / calibrate(), measured around each timed call."""
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(600):
        total += Fraction(i % 9 - 4, 2) % 2 - Fraction(1, 2)
    for k in range(60):
        np.exp(1j * np.pi * (0.3 + 1.1j) * _CAL_M * _CAL_M.T + 0.01 * k).sum()
    return time.perf_counter() - started


def hash_problems(item_digests) -> list[str]:
    """Problems for (item, output digest) pairs whose item has several."""
    seen: dict[int, set[str]] = {}
    for item, digest in item_digests:
        seen.setdefault(item, set()).add(digest)
    return [f"{len(d)} different output hashes for repetitions of item {i}"
            for i, d in seen.items() if len(d) > 1]


def outputs_hash(item_digests) -> str:
    """One sha256 over the items' output digests in item order."""
    return _digest("".join(d for _, d in sorted(dict(item_digests).items()))
                   .encode())


def sub_seeds(seed: int, count: int) -> list[int]:
    return [seed * count + j for j in range(count)]


def passes_for(workload, seconds: float) -> int:
    """Passes of an untraced run: about ``seconds`` of timed calls on the
    reference machine, at least MIN_PASSES.  A count, not a deadline: with
    a deadline the number of passes, and so ops and failed ops, would
    change with the machine's load."""
    return max(MIN_PASSES, round(seconds / workload.pass_s))


# --------------------------------------------------------------------------
# workloads

class VerifyFull:
    """``hypertheta verify --seed s --samples 2 --jobs 1 --out F`` in
    process; item i is sub-seed s = seeds[i]."""

    name = "verify-full"
    samples = 2
    rows_per_sample = 237
    cycle = 16
    pass_s = 8.5            # timed seconds of one pass, reference machine
    trace_reps = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seeds = sub_seeds(seed, self.cycle)
        self.out = OUT_DIR / "verify-full-rows.jsonl"

    def _verify(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = program("cli").main(argv)
        return code, buf.getvalue()

    def warm_up(self) -> None:
        self._verify(["verify", "--only", "2e5.0000", "--samples", "1",
                      "--out", str(self.out)])

    def inputs(self, item: int) -> list[str]:
        return ["verify", "--seed", str(self.seeds[item]),
                "--samples", str(self.samples), "--jobs", "1",
                "--out", str(self.out)]

    def run(self, argv: list[str]) -> Raw:
        program("theta_core").clear_theta_cache()
        started = time.perf_counter()
        code, report = self._verify(argv)
        wall = time.perf_counter() - started
        rows = self.out.read_bytes()
        n = rows.count(b"\n")
        return Raw(wall, [wall / max(n, 1)], n, (code, report, rows))

    def check(self, raw: Raw, first: bool = True) -> Checked:
        code, report, rows = raw.payload
        lines = rows.splitlines()
        bad = [f"{r['id']}#{r['sample']}" for r in map(json.loads, lines)
               if not r["pass"]]
        problems = []
        want = self.rows_per_sample * self.samples
        if len(lines) != want:
            problems.append(f"{len(lines)} rows, expected {want}")
        if json.loads(report.strip().splitlines()[-1])["total_rows"] != len(lines):
            problems.append("report total_rows disagrees with the rows file")
        if code != 0 or bad:
            problems.append(f"exit code {code}; failed rows {bad[:8]}")
        return Checked(len(bad), problems, _digest(rows))


class AdditionLaw:
    """``verify_addition(10, s)``: per sample one constants_vector with its
    sign searches, three f_vector, one add_vector and one add_direct;
    item i is sub-seed s = seeds[i]."""

    name = "addition-law"
    samples = 10
    rows_per_sample = 30
    cycle = 8
    pass_s = 2.8
    trace_reps = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seeds = sub_seeds(seed, self.cycle)

    def warm_up(self) -> None:
        program("addition").verify_addition(1, self.seed)

    def inputs(self, item: int) -> int:
        return self.seeds[item]

    def run(self, seed: int) -> Raw:
        program("theta_core").clear_theta_cache()
        started = time.perf_counter()
        reports = program("addition").verify_addition(self.samples, seed).reports
        wall = time.perf_counter() - started
        return Raw(wall, [wall / max(len(reports), 1)], len(reports), reports)

    def check(self, raw: Raw, first: bool = True) -> Checked:
        reports = raw.payload
        bad = [f"{r.identity_id}#{r.sample_index}" for r in reports
               if not r.passed]
        problems = []
        want = self.rows_per_sample * self.samples
        if len(reports) != want:
            problems.append(f"{len(reports)} rows, expected {want}")
        if bad:
            problems.append(f"failed rows {bad[:8]}")
        body = "".join(json.dumps(r.as_json(), sort_keys=True) + "\n"
                       for r in reports)
        return Checked(len(bad), problems, _digest(body.encode("utf-8")))


def draw_theta_inputs(seed: int, item: int, count: int):
    """count inputs as arrays: ks (count, 4), z (count, 2), tau (count, 3).

    The characteristic is [k/2] with each k in [-3, 4], so unreduced and
    half-integer entries and their phases occur.  Im tau is drawn with
    lambda_min >= LAMBDA_FLOOR by rejection.  Each |Im z| coordinate is
    uniform in IM_Z with a random sign, except at count // BAND_EVERY
    random positions, where it is uniform in BAND_IM_Z."""
    rng = np.random.default_rng([seed, item])
    taus = np.empty((0, 3), dtype=complex)
    while len(taus) < count:
        im1, im2 = rng.uniform(0.3, 2.0, size=(2, count))
        im12 = rng.uniform(-0.95, 0.95, size=count) * np.sqrt(im1 * im2)
        lam = 0.5 * (im1 + im2) - np.hypot(0.5 * (im1 - im2), im12)
        re = rng.uniform(-0.5, 0.5, size=(3, count))
        batch = np.stack([re[0] + 1j * im1, re[1] + 1j * im2,
                          re[2] + 1j * im12], axis=1)
        taus = np.concatenate([taus, batch[lam >= LAMBDA_FLOOR]])
    ks = rng.integers(-3, 5, size=(count, 4))
    band = rng.permutation(count) < count // BAND_EVERY
    im = np.where(band[:, None], rng.uniform(*BAND_IM_Z, size=(count, 2)),
                  rng.uniform(*IM_Z, size=(count, 2)))
    im *= rng.choice((-1.0, 1.0), size=(count, 2))
    zs = rng.uniform(-0.5, 0.5, size=(count, 2)) + 1j * im
    return ks, zs, taus[:count]


def reference_sums(ks, zs, taus, radius: int):
    """Lattice sums with the unreduced characteristics [k/2] at one radius,
    scaled by exp(-shift) so that no term overflows: returns the scaled
    sums, the scaled sums of term magnitudes, and shift (the largest log
    term magnitude of each input).  Each window is the coset a/2 + Z
    (c/2 + Z) around 0; rows of the arguments are independent inputs."""
    a, c, b, d = (ks.T / 2.0)
    steps = np.arange(-radius, radius + 1)
    m = steps[None, :] + (a / 2 - np.floor(a / 2))[:, None]
    n = steps[None, :] + (c / 2 - np.floor(c / 2))[:, None]
    t1, t2, t12 = (taus[:, i, None] for i in range(3))
    row = 1j * np.pi * t1 * m * m + 2j * np.pi * m * (zs[:, 0, None] + b[:, None] / 2)
    col = 1j * np.pi * t2 * n * n + 2j * np.pi * n * (zs[:, 1, None] + d[:, None] / 2)
    logs = (row[:, :, None] + col[:, None, :]
            + 2j * np.pi * t12[:, :, None] * m[:, :, None] * n[:, None, :])
    shift = logs.real.max(axis=(1, 2))
    terms = np.exp(logs - shift[:, None, None])
    return terms.sum(axis=(1, 2)), np.abs(terms).sum(axis=(1, 2)), shift


def scale_down(values, shift):
    """values * exp(-shift) without overflow: the power of two is applied
    to the real and imaginary parts apart."""
    twos = np.floor(shift / math.log(2.0))
    rest = np.exp(-(shift - twos * math.log(2.0)))
    return (np.ldexp(values.real, -twos.astype(int))
            + 1j * np.ldexp(values.imag, -twos.astype(int))) * rest


class ThetaEval:
    """One ``theta_eval`` per op over fresh inputs; item i is ``chunk`` ops
    drawn from (seed, i), built anew for every repetition.  Ops that raise
    or return a non-finite value are failed ops and stay in the timed
    stream."""

    name = "theta-eval"
    chunk = 500
    cycle = 80
    pass_s = 5.0
    trace_reps = 40

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        core = program("theta_core")
        core.theta_eval(core.ThetaCharacteristic.of(0, 0, 0, 0),
                        core.EvalPoint(0.1 + 0.2j, 0.05j),
                        core.PeriodMatrix(1.1j, 1.4j, 0.2j))

    def inputs(self, item: int):
        """Drawn arrays plus the program's argument objects, one per op."""
        core = program("theta_core")
        ks, zs, taus = draw_theta_inputs(self.seed, item, self.chunk)
        args = [(core.ThetaCharacteristic.of(*(Fraction(int(k), 2) for k in ks[i])),
                 core.EvalPoint(complex(zs[i, 0]), complex(zs[i, 1])),
                 core.PeriodMatrix(*(complex(t) for t in taus[i])))
                for i in range(len(ks))]
        return (ks, zs, taus), args

    def run(self, inputs) -> Raw:
        _, args = inputs
        core = program("theta_core")
        clock = time.perf_counter
        latencies, values = [], []
        core.clear_theta_cache()
        for ch, z, tau in args:
            started = clock()
            try:
                value = core.theta_eval(ch, z, tau)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                value = exc
            latencies.append(clock() - started)
            if isinstance(value, Exception):
                # its traceback's frames would keep the call's arrays alive
                # and put several MB of them into peak_rss_mb
                value = value.with_traceback(None)
            values.append(value)
        return Raw(sum(latencies), latencies, len(args), (inputs, values))

    def check(self, raw: Raw, first: bool = True) -> Checked:
        """On an item's first repetition every finite value against
        reference_sums at the certified radius plus REF_MARGIN, grouped by
        radius in calls of at most REF_TERMS terms per input array; later
        repetitions must repeat its values (digest).  Exceptions and
        non-finite values are failed ops."""
        ((ks, zs, taus), args), values = raw.payload
        core = program("theta_core")
        digest = _digest(repr(values).encode())
        failed, by_radius = 0, {}
        for i, ((ch, z, tau), value) in enumerate(zip(args, values)):
            if isinstance(value, Exception) or not _finite(value):
                failed += 1
            elif first:
                radius = core.truncation_radius(ch, z, tau) + REF_MARGIN
                by_radius.setdefault(radius, []).append(i)
        problems = []
        for radius, idx in sorted(by_radius.items()):
            batch = max(1, REF_TERMS // (2 * radius + 1) ** 2)
            for lo in range(0, len(idx), batch):
                part = np.array(idx[lo:lo + batch])
                ref, magnitude, shift = reference_sums(
                    ks[part], zs[part], taus[part], radius)
                got = scale_down(np.array([values[i] for i in part]), shift)
                for j in np.flatnonzero(~(np.abs(got - ref)
                                          <= REF_TOL * magnitude)):
                    i = part[j]
                    problems.append(
                        f"theta[k/2 for k in {ks[i].tolist()}] at z={zs[i]}, "
                        f"tau={taus[i]}: {values[i]!r} vs reference "
                        f"{ref[j]!r} * exp({shift[j]!r})")
        return Checked(failed, problems, digest)


def _finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


WORKLOADS = {w.name: w for w in (VerifyFull, AdditionLaw, ThetaEval)}


# --------------------------------------------------------------------------
# end-to-end (untraced) run

def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import, load and build the catalog, one op."""
    importlib.import_module("hypertheta")
    catalog = program("identity_catalog")
    catalog.load_catalog()
    catalog.build_catalog()
    WORKLOADS[workload](seed).warm_up()
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def end_to_end(workload, seconds: float, setup_runs: int = SETUP_RUNS) -> dict:
    """passes_for(workload, seconds) passes over the workload's items.
    The setup_runs set-up probes are spread between items over the first MIN_PASSES
    passes.  Every timed call and set-up probe is scaled by CAL_REF_S over
    the mean of the calibrate() times just before and after it.  A latency
    sample is the median over the passes of one op's time (theta-eval) or of
    one item's time over its rows (row workloads): a single call still
    varies by up to 50 % after scaling, and the tail should show slow work,
    not the one call that met a busy instant."""
    workload.warm_up()
    setup: list[float] = []
    probe_at = {j * MIN_PASSES * workload.cycle // setup_runs
                for j in range(setup_runs)}
    latencies: dict[int, list[np.ndarray]] = {}   # per item, one array a pass
    timed_s = scaled_s = 0.0
    attempted = failed = 0
    passes = passes_for(workload, seconds)
    problems: list[str] = []
    digests: list[tuple[int, str]] = []
    scales: list[float] = []
    before = calibrate()

    def scale() -> float:
        nonlocal before
        after = calibrate()
        factor = 2.0 * CAL_REF_S / (before + after)
        before = after
        scales.append(factor)
        return factor

    for done in range(passes):
        for item in range(workload.cycle):
            if done * workload.cycle + item in probe_at:
                probe_s = measure_setup(workload.name, workload.seed)
                setup.append(probe_s * scale())
            raw = workload.run(workload.inputs(item))
            factor = scale()
            checked = workload.check(raw, first=done == 0)
            timed_s += raw.wall
            scaled_s += raw.wall * factor
            latencies.setdefault(item, []).append(
                np.asarray(raw.latencies) * factor)
            attempted += raw.ops
            failed += checked.failed
            problems.extend(p for p in checked.problems if p not in problems)
            digests.append((item, checked.digest))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems.extend(hash_problems(digests))
    us = np.concatenate([np.median(np.stack(passes_of_item), axis=0)
                         for passes_of_item in latencies.values()]) * 1e6
    info = {"passes": passes, "items": workload.cycle,
            "latency_samples": len(us), "timed_s": timed_s,
            "unscaled_ops_per_s": attempted / timed_s,
            "scale_p50": statistics.median(scales),
            "scale_min_max": [min(scales), max(scales)],
            "setup_samples_scaled_s": setup,
            "outputs_sha256": outputs_hash(digests)}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (attempted / scaled_s, "1/s"),
        "op_us.p50": (float(np.median(us)), "us"),
        "op_us.p99": (float(np.percentile(us, 99)), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


# --------------------------------------------------------------------------
# traced run

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced pass; a layer the workload never
    calls reads 0.  ``.s`` is the median inclusive time of one call."""
    spans = tracer.summary()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def one_call_s(name: str) -> float:
        return _median(spans.get(name, {}).get("durations", []))

    radii = tracer.notes.get("theta_core.truncation_radius", [])
    points = sum((2 * r + 1) ** 2
                 for r in tracer.notes.get("backends.lattice_sum", []))
    kernel_s = self_s("backends.lattice_sum")
    evals = calls("theta_core.theta_eval")
    f_call = one_call_s("addition.f_vector")
    out = {
        "backends.lattice_sum.calls": (calls("backends.lattice_sum"), "count"),
        "backends.lattice_sum.self_s": (kernel_s, "s"),
        "backends.lattice_points": (points, "count"),
        "backends.points_per_s": (points / kernel_s if kernel_s else 0.0, "1/s"),
    }
    for name in ("theta_eval", "reduce", "truncation_radius"):
        out[f"theta_core.{name}.calls"] = (calls(f"theta_core.{name}"), "count")
        out[f"theta_core.{name}.self_s"] = (self_s(f"theta_core.{name}"), "s")
    out.update({
        "theta_core.radius.p50": (_median(radii), "count"),
        "theta_core.radius.max": (max(radii, default=0), "count"),
        "theta_core.cache_hit_ratio": (
            1.0 - calls("backends.lattice_sum") / evals if evals else 0.0,
            "ratio"),
        "identity_catalog.load_catalog.s": (
            one_call_s("identity_catalog.load_catalog"), "s"),
        "identity_catalog.verify_catalog.s": (
            one_call_s("identity_catalog.verify_catalog"), "s"),
    })
    for name in ("identity_catalog.evaluate_identity",
                 "identity_catalog.resolve_sign", "addition.constants_vector",
                 "addition.f_vector", "addition.add_vector", "elliptic_so3"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out.update({
        "sampling.assignments_for.self_s": (
            self_s("sampling.assignments_for"), "s"),
        "addition.add_direct.self_s": (self_s("addition.add_direct"), "s"),
        "addition.verify_addition.s": (
            one_call_s("addition.verify_addition"), "s"),
        "addition.add_vector_over_f_vector": (
            one_call_s("addition.add_vector") / f_call if f_call else 0.0,
            "ratio"),
        "cli.verify.self_s": (self_s("cli.verify"), "s"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
    })
    return out


def traced_run(workload) -> dict:
    """The workload's trace_reps repetitions, each run untraced and then
    traced, so both passes see the same machine load."""
    workload.warm_up()
    tracer = Tracer()
    plain, raws = [], []
    plain_s = traced_s = 0.0
    for rep in range(workload.trace_reps):
        item = workload.inputs(rep % workload.cycle)
        started = time.perf_counter()
        if rep == 0:
            program("identity_catalog").load_catalog()
        plain.append(workload.run(item))
        plain_s += time.perf_counter() - started
        tracer.install()
        try:
            started = time.perf_counter()
            with tracer.root("trace.root"):
                if rep == 0:
                    program("identity_catalog").load_catalog()
                raws.append(workload.run(item))
            traced_s += time.perf_counter() - started
        finally:
            tracer.uninstall()

    checked = [workload.check(raw) for raw in plain + raws]
    problems = list(dict.fromkeys(p for c in checked for p in c.problems))
    problems.extend(hash_problems(   # untraced and traced outputs agree
        (i % len(plain), c.digest) for i, c in enumerate(checked)))
    spans_path = OUT_DIR / f"spans-{workload.name}-{workload.seed}.tsv"
    tracer.write(str(spans_path))
    self_total = sum(s["self_s"] for s in tracer.summary().values())
    return {
        "metrics": layer_metrics(tracer, plain_s, traced_s),
        "attempted": sum(raw.ops for raw in raws),
        "failed": sum(c.failed for c in checked[len(plain):]),
        "problems": problems,
        "info": {"repetitions": workload.trace_reps, "spans": len(tracer.names),
                 "spans_file": str(spans_path.relative_to(ROOT)),
                 "untraced_s": plain_s, "traced_s": traced_s,
                 "self_s_sum": self_total,
                 "self_s_closure": abs(self_total - traced_s) / traced_s},
    }


# --------------------------------------------------------------------------

def metadata(workload) -> dict:
    """Machine and code size, recorded with every run and never gated."""
    package = importlib.import_module("hypertheta")
    files = [p for p in SRC.rglob("*") if p.is_file()
             and "__pycache__" not in p.parts]
    return {
        "workload": workload.name, "seed": workload.seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "backend": package.BACKEND_NAME,
        "src_py_lines": sum(len(p.read_bytes().splitlines())
                            for p in files if p.suffix == ".py"),
        "data_bytes": sum(p.stat().st_size for p in files if p.suffix != ".py"),
    }


def _size(workload) -> str:
    if isinstance(workload, ThetaEval):
        per_item = f"{workload.chunk} inputs, one theta_eval per op"
    else:
        rows = workload.rows_per_sample * workload.samples
        per_item = f"{workload.samples} samples ({rows} rows) in one call"
    return f"{workload.cycle} items of {per_item}"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs are a function of this seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="sizes an untraced run: about this many "
                        "timed seconds on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run of fixed size, per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (SRC / "hypertheta" / "__init__.py").is_file():
        print(f"error: no hypertheta package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workload = WORKLOADS[args.workload](args.seed)
    result = traced_run(workload) if args.trace else end_to_end(workload, args.seconds)
    correct = not result["problems"]
    print(f"workload {workload.name}  seed {workload.seed}  trace {args.trace}"
          f"  size: {_size(workload)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(f"{'ops_failed / ops_total':42s} {result['failed']} / {result['attempted']}")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    print("info " + json.dumps(result["info"], sort_keys=True))
    print("meta " + json.dumps(metadata(workload), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
