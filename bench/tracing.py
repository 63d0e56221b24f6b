"""Span tracing of hypertheta from outside the package.

A Tracer replaces public functions with timing wrappers in every hypertheta
module namespace that bound them (by definition or through ``from ...
import``), records one span (name, start, end, parent) per call in memory,
and restores the originals on ``uninstall``.  Nothing under ``src/`` is
edited.  Self time of a span is its duration minus the durations of its
direct child spans; because wrapped calls nest, the self times of all spans
under one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass


def _radius_arg(args, kwargs, result):
    return kwargs["radius"] if "radius" in kwargs else args[-1]


def _radius_result(args, kwargs, result):
    return result


@dataclass(frozen=True)
class Target:
    """One traced name: ``attr`` may be ``Class.method``."""

    module: str
    attr: str
    span: str
    note: object = None   # (args, kwargs, result) -> number kept per call


TARGETS = (
    Target("hypertheta.backends", "lattice_sum", "backends.lattice_sum",
           _radius_arg),
    Target("hypertheta.theta_core", "theta_eval", "theta_core.theta_eval"),
    Target("hypertheta.theta_core", "ThetaCharacteristic.reduce",
           "theta_core.reduce"),
    Target("hypertheta.theta_core", "truncation_radius",
           "theta_core.truncation_radius", _radius_result),
    Target("hypertheta.identity_catalog", "load_catalog",
           "identity_catalog.load_catalog"),
    Target("hypertheta.identity_catalog", "verify_catalog",
           "identity_catalog.verify_catalog"),
    Target("hypertheta.identity_catalog", "evaluate_identity",
           "identity_catalog.evaluate_identity"),
    Target("hypertheta.identity_catalog", "resolve_sign",
           "identity_catalog.resolve_sign"),
    Target("hypertheta.sampling", "assignments_for",
           "sampling.assignments_for"),
    Target("hypertheta.addition", "verify_addition", "addition.verify_addition"),
    Target("hypertheta.addition", "constants_vector",
           "addition.constants_vector"),
    Target("hypertheta.addition", "f_vector", "addition.f_vector"),
    Target("hypertheta.addition", "add_vector", "addition.add_vector"),
    Target("hypertheta.addition", "add_direct", "addition.add_direct"),
    Target("hypertheta.elliptic_so3", "euler_lhs", "elliptic_so3"),
    Target("hypertheta.elliptic_so3", "euler_rhs", "elliptic_so3"),
    Target("hypertheta.elliptic_so3", "component_residuals", "elliptic_so3"),
    Target("hypertheta.cli", "cmd_verify", "cli.verify"),
)


class Tracer:
    """In-memory span recorder; install, run the work, uninstall, summarise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[str, list] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        tracer = self
        keep = self.notes.setdefault(target.span, []) if target.note else None

        def traced(*args, **kwargs):
            idx = tracer._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if keep is not None:
                keep.append(target.note(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap each target wherever a hypertheta module bound it.  A target
        the package no longer defines raises AttributeError."""
        for target in targets:
            owner_name, _, method = target.attr.rpartition(".")
            owner = importlib.import_module(target.module)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, method)
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if (name.split(".")[0] == "hypertheta"
                        and getattr(mod, method, None) is original):
                    self._patch(mod, method, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds and
        the list of single-call durations."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            slot = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "durations": []})
            slot["calls"] += 1
            slot["total_s"] += durations[i]
            slot["self_s"] += durations[i] - child[i]
            slot["durations"].append(durations[i])
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}"
                         f"\t{self.parents[i]}\n")
