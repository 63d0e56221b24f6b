"""The benchmark (bench/) reaches hypertheta in two ways: its span tracer
(bench/tracing.py) wraps public names by attribute and raises when one is
gone, and bench/run.py calls some names directly.  The benchmark's own
tests are not collected here, so these guards run the tracer's
install/uninstall cycle, and each direct call in the form run.py makes it,
against the package as it stands."""

import contextlib
import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import hypertheta
from hypertheta import addition, cli, identity_catalog, theta_core

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@contextlib.contextmanager
def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve it by name
    try:
        spec.loader.exec_module(tracing)
        yield tracing
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_exists_and_is_restored():
    with _tracing() as tracing:
        originals = (addition.constants_vector, identity_catalog.resolve_sign)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert addition.constants_vector.__wrapped__ is originals[0]
            assert identity_catalog.resolve_sign.__wrapped__ is originals[1]
        finally:
            tracer.uninstall()
        assert (addition.constants_vector,
                identity_catalog.resolve_sign) == originals


def test_the_addition_law_reaches_theta_eval():
    """The benchmark's traced verify-full and addition-law runs require
    theta_core.theta_eval calls > 0 (bench/test_bench.py); on both, only
    the addition law's normalizers make them: three per sample of
    verify_addition's block (theta[0 0;0 0] at z1, z2 and z1+z2), and
    f_vector's and f_eval's where a sample is replayed on its own."""
    with _tracing() as tracing:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            addition.verify_addition(1, 0)
        finally:
            tracer.uninstall()
        assert tracer.summary()["theta_core.theta_eval"]["calls"] > 0


def test_every_name_the_benchmark_calls_directly_exists(tmp_path, capsys):
    """bench/run.py's direct calls, with its argument forms: theta-eval's
    inputs, op and reference radius, the row workloads' calls and the
    set-up probe."""
    theta_core.clear_theta_cache()
    ch = theta_core.ThetaCharacteristic.of(*(Fraction(k, 2) for k in
                                             (-3, 1, 4, 0)))
    z = theta_core.EvalPoint(complex(0.1, 0.2), complex(0.0, 0.05))
    tau = theta_core.PeriodMatrix(*(complex(t) for t in (1.1j, 1.4j, 0.2j)))
    assert math.isfinite(abs(theta_core.theta_eval(ch, z, tau)))
    assert theta_core.truncation_radius(ch, z, tau) >= 2
    assert len(addition.verify_addition(1, 0).reports) == 30
    assert (len(identity_catalog.load_catalog())
            == len(identity_catalog.build_catalog()) == 200)
    out = tmp_path / "rows.jsonl"
    assert cli.main(["verify", "--seed", "0", "--samples", "1", "--jobs",
                     "1", "--only", "2e5.0000", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["total_rows"] == out.read_bytes().count(b"\n") >= 1
    assert isinstance(hypertheta.BACKEND_NAME, str)
