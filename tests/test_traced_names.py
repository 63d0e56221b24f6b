"""The benchmark's span tracer (bench/tracing.py) wraps public hypertheta
names by attribute and raises when one is gone.  The benchmark's own tests
are not collected here, so this guard runs its install/uninstall cycle
against the package as it stands."""

import importlib.util
import sys
from pathlib import Path

from hypertheta import addition, identity_catalog

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_exists_and_is_restored():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve it by name
    try:
        spec.loader.exec_module(tracing)
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
    finally:
        del sys.modules[spec.name]
