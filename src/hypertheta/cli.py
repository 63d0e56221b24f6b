"""Command-line front end: eval / verify / list.

    hypertheta eval   --char 0,1,0,1 --z 0,0 --tau i,i,0
    hypertheta verify --samples 100 --seed 0 --out reports.jsonl
    hypertheta list   --format json

`verify` drives all three suites — the identity catalog, the algebraic
addition law, and the elliptic rotation identity — and emits one
ResidualReport row per (id, sample) as JSON-lines or CSV, followed by a
RunReport summary on stdout.  Reports are a pure function of the
configuration: rows are sorted by id then sample index (so worker
parallelism never reorders output), and the RunReport carries a
determinism hash over everything except wall time, `stats` (the Python,
numpy and kernel names), the output path and the worker count.

Exit codes: 0 all pass; 2 numeric failures; 3 configuration/parse errors,
a malformed catalog file, a non-finite `--z`, a negative seed or a bad
tolerance.  `eval` additionally distinguishes InvalidPeriod (4),
RadiusExceeded (5), DivisorHit (6) and NonFiniteSum (7).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .addition import A_LABELS, DivisorHit, f_eval, verify_addition
from .backends import BACKEND_NAME
from .elliptic_so3 import component_residuals, euler_lhs, euler_rhs
from .identity_catalog import (
    Domain,
    Identity,
    NoConsistentSign,
    ResidualReport,
    base_id,
    catalog_as_json,
    catalog_sha256,
    load_catalog,
    match_signs,
    root_constants,
    selected,
    verify_catalog,
)
from .sampling import (
    POINT_IM,
    POINT_RE,
    TAU_DET_FLOOR,
    TAU_IM_DIAG,
    TAU_RE,
    make_rng,
    sample_tau,
)
from .theta_core import (
    DEFAULT_POLICY,
    EvalPoint,
    InvalidPeriod,
    NonFiniteSum,
    PeriodMatrix,
    PrecisionPolicy,
    RadiusExceeded,
    Scale,
    ThetaCharacteristic,
    theta_eval,
    truncation_radius,
)

EXIT_OK = 0
EXIT_FAILED = 2
EXIT_CONFIG = 3
EXIT_INVALID_PERIOD = 4
EXIT_RADIUS = 5
EXIT_DIVISOR = 6
EXIT_NONFINITE = 7

ELLIPTIC_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for numeric
    failures, so parser errors are remapped to the config exit code."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# --------------------------------------------------------------------------
# flag parsing helpers

def _parse_complex(token: str) -> complex:
    """Complex scalar; accepts 'i' notation ('i', '-i', '1+2i', '0.3i')."""
    text = token.strip().replace("I", "i")
    if not text:
        raise ValueError("empty number")
    text = text.replace("i", "j")
    if text in ("j", "+j"):
        text = "1j"
    elif text == "-j":
        text = "-1j"
    else:
        text = text.replace("+j", "+1j").replace("-j", "-1j")
    return complex(text)


def _parse_char(text: str) -> ThetaCharacteristic:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--char wants 4 entries, got {len(parts)}")
    return ThetaCharacteristic.of(*(Fraction(p) for p in parts))


def _parse_complexes(text: str, n: int, flag: str) -> list[complex]:
    """n complex tokens, or 2n reals read as (re, im) pairs."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == n:
        return [_parse_complex(p) for p in parts]
    if len(parts) == 2 * n:
        re = [float(p) for p in parts]
        return [complex(r, i) for r, i in zip(re[::2], re[1::2])]
    raise ValueError(f"{flag} wants {n} complex or {2 * n} real entries, "
                     f"got {len(parts)}")


def _parse_only(text: str) -> tuple[str, ...] | None:
    """--only as comma-separated ids; None (no override) when it names none."""
    return tuple(s.strip() for s in text.split(",") if s.strip()) or None


def _tau_family() -> dict:
    return {"im_diag": list(TAU_IM_DIAG), "re": list(TAU_RE),
            "det_floor": TAU_DET_FLOOR,
            "point_re": list(POINT_RE), "point_im": list(POINT_IM)}


@dataclass
class VerificationConfig:
    """verify's settings: the keys of a --config file and, under the same
    names, the dests of the flags that override them."""

    seed: int = 0
    n_samples: int = 100
    eps_tail: float = DEFAULT_POLICY.eps_tail
    rel_tol: float = DEFAULT_POLICY.rel_tol
    abs_tol: float = DEFAULT_POLICY.abs_tol
    only: tuple[str, ...] = ()
    output_path: str = ""
    output_format: str = "json-lines"
    jobs: int = 1

    def validate(self) -> None:
        if not (isinstance(self.only, tuple)
                and all(isinstance(o, str) for o in self.only)):
            raise ValueError("config field 'only' must be a list of strings, "
                             f"got {self.only!r}")
        for f in fields(self):  # each field has its default's type
            value, want = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(
                    value, (float, int) if want is float else want):
                raise ValueError(f"config field {f.name!r} must be "
                                 f"{want.__name__}, got {value!r}")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")
        if self.n_samples < 1:
            raise ValueError("--samples must be >= 1")
        self.policy()  # raises on a tolerance not positive and finite
        if self.output_format not in ("json-lines", "csv"):
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")

    def policy(self) -> PrecisionPolicy:
        return PrecisionPolicy(eps_tail=self.eps_tail, rel_tol=self.rel_tol,
                               abs_tol=self.abs_tol)

    def as_json(self) -> dict:
        return {**asdict(self), "tau_family": _tau_family()}

    @classmethod
    def from_args(cls, args) -> "VerificationConfig":
        base: dict = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                base = json.load(fh)
            if not isinstance(base, dict):
                raise ValueError(f"config file {args.config} must hold a "
                                 "JSON object")
        names = [f.name for f in fields(cls)]
        cfg = cls(**{k: v for k, v in base.items() if k in names})
        for name in names:  # flags win over the config file
            if getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        if isinstance(cfg.only, list):
            cfg.only = tuple(cfg.only)
        return cfg


# --------------------------------------------------------------------------
# eval

# eval's failures and their exit codes, most specific first (InvalidPeriod
# is a ValueError).
_EVAL_EXIT_CODES = {InvalidPeriod: EXIT_INVALID_PERIOD,
                    RadiusExceeded: EXIT_RADIUS, DivisorHit: EXIT_DIVISOR,
                    NonFiniteSum: EXIT_NONFINITE, ValueError: EXIT_CONFIG,
                    ZeroDivisionError: EXIT_CONFIG}


def cmd_eval(args) -> int:
    try:
        ch = _parse_char(args.char)
        z = EvalPoint(*_parse_complexes(args.z, 2, "--z"))
        tau = PeriodMatrix(*_parse_complexes(args.tau, 3, "--tau"))
        pol = PrecisionPolicy(eps_tail=args.eps_tail)
        radius = truncation_radius(ch, z, tau, pol.eps_tail, pol.max_radius)
        if args.ratio:
            value = f_eval(ch, z, tau, pol)
            label = f"F{ch}"
        else:
            value = theta_eval(ch, z, tau, pol)
            label = f"theta{ch}"
    except tuple(_EVAL_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EVAL_EXIT_CODES.items()
                    if isinstance(exc, kind))
    print(f"{label}({z.x}, {z.y}) = "
          f"{value.real:+.17e}{value.imag:+.17e}j   [radius {radius}]")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _catalog_chunk(payload) -> list[ResidualReport]:
    """Worker entry point: verify a slice of the loaded catalog (process
    pool), so workers check the same identities as a serial run."""
    identities, n_samples, seed, pol = payload
    return verify_catalog(n_samples, seed, pol, catalog=identities)


def _verify_catalog_rows(cfg: VerificationConfig, catalog: list[Identity],
                         only: set[str] | None) -> list[ResidualReport]:
    pol = cfg.policy()
    catalog = [i for i in catalog if selected(i.id, only)]
    if cfg.jobs <= 1 or len(catalog) < 2:
        return verify_catalog(cfg.n_samples, cfg.seed, pol, catalog=catalog)
    # imported here, so eval, list and a serial verify load no pool
    from concurrent.futures import ProcessPoolExecutor
    ordered = sorted(catalog, key=lambda i: i.id)
    chunks = [c for c in (ordered[k::cfg.jobs] for k in range(cfg.jobs)) if c]
    # At most one worker per chunk and per CPU: --jobs 1000 would otherwise
    # start a process per identity.  The chunks stay those of --jobs.
    workers = min(cfg.jobs, os.cpu_count() or 1, len(chunks))
    rows: list[ResidualReport] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_catalog_chunk,
                             [(c, cfg.n_samples, cfg.seed, pol)
                              for c in chunks]):
            rows.extend(part)
    return rows


# The elliptic rows: id -> (matrix entry the row compares, None for the
# whole matrix; the relation it checks).  verify, list and the --only check
# all read this one table.
_ELLIPTIC_ROWS = {
    "E.matrix": (None, "X(u3)Z(u1+u3)X(u1) = Z(u1)X(u1+u3)Z(u3)"),
    "E.11": ((0, 0), "cn(u2) - cn(u1)cn(u3) + dn(u2)sn(u1)sn(u3) = 0"),
    "E.12": ((0, 1), "dn(u1)sn(u2) - cn(u1)sn(u3) - dn(u2)sn(u1)cn(u3) = 0"),
    "E.13": ((0, 2), "k(sn(u2)sn(u1) - sn(u1)sn(u2)) = 0 (structural)"),
    "E.22": ((1, 1), "cn(u2)dn(u1)dn(u3) - k^2 sn(u1)sn(u3) + sn(u1)sn(u3)"
                     " - cn(u1)cn(u3)dn(u2) = 0"),
    "E.23": ((1, 2), "-cn(u1)k sn(u2) + dn(u1)k sn(u3)"
                     " + dn(u3)k sn(u1)cn(u2) = 0"),
    "E.33": ((2, 2), "-dn(u2) + dn(u1)dn(u3) - cn(u2)k^2 sn(u1)sn(u3) = 0"),
}


def _verify_elliptic_rows(n_samples: int, seed: int) -> list[ResidualReport]:
    """Matrix identity and component rows at uniform (u1, u3, k) draws."""
    rng = make_rng(seed, "elliptic")
    rows = []
    for idx in range(n_samples):
        u1, u3 = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        k = float(rng.uniform(0.0, 1.0))
        lhs = euler_lhs(u1, u3, k)
        rhs = euler_rhs(u1, u3, k)
        comp = component_residuals(u1, u3, k)
        for key, (entry, _) in _ELLIPTIC_ROWS.items():
            if entry is None:
                gap = float(abs(lhs - rhs).max())
                rows.append(ResidualReport(key, idx, 0j, 0j, gap, gap,
                                           gap < ELLIPTIC_TOL))
                continue
            a, b = complex(lhs[entry]), complex(rhs[entry])
            res = abs(comp[key.split(".")[1]])
            rows.append(ResidualReport(key, idx, a, b, res,
                                       res / max(abs(a), abs(b), 1.0),
                                       bool(res < ELLIPTIC_TOL)))
    return rows


def _sign_resolution_details(d_ids: list[str], seed: int,
                             pol: PrecisionPolicy,
                             catalog: list[Identity]) -> list[dict]:
    """match_signs records for the selected ids' root forms in `catalog` at
    3 tau draws, each distinct constant of the catalog's root forms summed
    once per draw (root_constants); a failed sign search is recorded with
    its error."""
    entries = {i.id: i for i in catalog if i.id in d_ids and i.root_form}
    rng = make_rng(seed, "sign-resolution")
    taus = [sample_tau(rng) for _ in range(3)]
    details = []
    for trial, (direct, base) in enumerate(
            root_constants(catalog, taus, pol)):
        for d_id in sorted(d_ids):
            try:
                value, record = match_signs(entries[d_id], direct, base)
            except NoConsistentSign as exc:
                details.append({"trial": trial, "id": d_id, "error": str(exc)})
                continue
            details.append({"trial": trial, **record,
                            "value": {"re": value.real, "im": value.imag}})
    return details


def _rows_to_text(rows: list[ResidualReport], fmt: str) -> str:
    if fmt == "json-lines":
        return "".join(map(ResidualReport.json_line, rows))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "sample", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                     "abs_residual", "rel_residual", "pass", "error"])
    for r in rows:
        obj = r.as_json()
        lhs = obj["lhs"] or {"re": "", "im": ""}
        rhs = obj["rhs"] or {"re": "", "im": ""}
        writer.writerow([obj["id"], obj["sample"], lhs["re"], lhs["im"],
                         rhs["re"], rhs["im"],
                         "" if obj["abs_residual"] is None else obj["abs_residual"],
                         "" if obj["rel_residual"] is None else obj["rel_residual"],
                         obj["pass"], obj["error"]])
    return buf.getvalue()


def _json_object(parts: dict[str, str]) -> str:
    """json.dumps(obj, sort_keys=True) of a dict obj with str keys, given
    each value's json.dumps(value, sort_keys=True) by its key: keys sorted,
    ", " and ": " between, as at every level of json.dumps' output."""
    return "{" + ", ".join(f"{json.dumps(key)}: {parts[key]}"
                           for key in sorted(parts)) + "}"


_ADDITION_IDS = frozenset(A_LABELS) | {f"{a}.path" for a in A_LABELS}


def cmd_verify(args) -> int:
    try:
        cfg = VerificationConfig.from_args(args)
        cfg.validate()
        catalog = load_catalog()
        row_ids = {i.id for i in catalog} | _ADDITION_IDS | set(_ELLIPTIC_ROWS)
        unknown = sorted(set(cfg.only) - row_ids
                         - {base_id(r) for r in row_ids})
        if unknown:
            raise ValueError("--only entries select no row: "
                             + ", ".join(unknown))
        # opened before any suite runs: a path that cannot be written is a
        # configuration error, not a traceback after the whole run
        out = (open(cfg.output_path, "w", encoding="utf-8")
               if cfg.output_path else contextlib.nullcontext(sys.stdout))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with out as fh:
        return _run_verify(cfg, catalog, fh)


def _run_verify(cfg: VerificationConfig, catalog: list[Identity],
                fh) -> int:
    """The suites cfg selects, their rows written to fh and the report
    line printed; EXIT_FAILED when a row or a sign search fails."""
    only = set(cfg.only) or None
    started = time.monotonic()

    run_catalog = any(selected(i.id, only) for i in catalog)
    run_addition = any(selected(a, only) for a in _ADDITION_IDS)
    run_elliptic = any(selected(e, only) for e in _ELLIPTIC_ROWS)

    rows: list[ResidualReport] = []
    redraws = {"tau": 0, "points": 0}
    if run_catalog:
        rows.extend(_verify_catalog_rows(cfg, catalog, only))
    if run_addition:
        run = verify_addition(cfg.n_samples, cfg.seed, cfg.policy())
        rows.extend(r for r in run.reports if selected(r.identity_id, only))
        redraws = {"tau": run.tau_redraws, "points": run.point_redraws}
    if run_elliptic:
        rows.extend(r for r in _verify_elliptic_rows(cfg.n_samples, cfg.seed)
                    if selected(r.identity_id, only))
    # the one sort of the rows: each suite returns them in its own order
    rows.sort(key=lambda r: (r.identity_id, r.sample_index))

    per_identity: dict[str, dict] = {}
    for r in rows:
        slot = per_identity.setdefault(
            r.identity_id, {"max_rel_residual": 0.0, "passed": 0, "samples": 0})
        # An errored row's residual is inf, which JSON cannot write: its id
        # reports null rather than the maximum of its other rows.
        if slot["max_rel_residual"] is not None:
            slot["max_rel_residual"] = (
                max(slot["max_rel_residual"], r.rel_residual)
                if math.isfinite(r.rel_residual) else None)
        slot["samples"] += 1
        slot["passed"] += int(r.passed)
    failing = sorted({r.identity_id for r in rows if not r.passed})

    sign_details: list[dict] = []
    selected_d = sorted(i.id for i in catalog
                        if i.root_form and selected(i.id, only))
    if selected_d:
        sign_details = _sign_resolution_details(selected_d, cfg.seed,
                                                cfg.policy(), catalog)
        failing = sorted({*failing, *(d["id"] for d in sign_details
                                      if "error" in d)})

    body = _rows_to_text(rows, cfg.output_format)
    fh.write(body)

    report = {
        "config": cfg.as_json(),
        "suites": {"catalog": run_catalog, "addition": run_addition,
                   "elliptic": run_elliptic},
        "total_rows": len(rows),
        "passed_rows": sum(r.passed for r in rows),
        "failing_ids": failing,
        "per_identity": per_identity,
        "redraws": redraws,
        "sign_resolutions": sign_details,
        "versions": {"hypertheta": __version__},
        "catalog_sha256": catalog_sha256(catalog),
    }
    # Where rows go and how many workers made them decide no result, so
    # the hash leaves them out: equal hashes then prove --jobs invariance.
    # Each value is serialized once; the hashed text and the printed line
    # are assembled from the same parts.
    parts = {key: json.dumps(value, sort_keys=True)
             for key, value in report.items()}
    hashed = {**parts, "config": json.dumps({
        k: v for k, v in report["config"].items()
        if k not in ("output_path", "jobs")}, sort_keys=True)}
    digest = hashlib.sha256()
    digest.update(_json_object(hashed).encode("utf-8"))
    digest.update(body.encode("utf-8"))
    parts["determinism_hash"] = json.dumps(digest.hexdigest())
    parts["wall_time_s"] = json.dumps(round(time.monotonic() - started, 3))
    # Unhashed, as wall time: the draws are numpy's bit streams and the
    # sums numpy's arithmetic, so a pin that fails on another host is
    # first compared by these.
    parts["stats"] = json.dumps({"python": platform.python_version(),
                                 "numpy": np.__version__,
                                 "kernel": BACKEND_NAME}, sort_keys=True)
    print(_json_object(parts))

    if failing:
        print("failing ids: " + ", ".join(failing), file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


# --------------------------------------------------------------------------
# list

_ARG_NAMES = {(1, 1): "(z1+z2)", (1, -1): "(z1-z2)", (2, 0): "(2z1)",
              (0, 2): "(2z2)", (1, 0): "(z)", (0, 0): "(0)"}


def _fmt_coeff(c: complex) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    if c == 1j:
        return "i*"
    if c == -1j:
        return "-i*"
    if c.imag == 0:
        f = Fraction(c.real).limit_denominator(64)
        return f"{f}*"
    if c.real == 0:
        f = Fraction(c.imag).limit_denominator(64)
        return f"{f}i*"
    return f"({c.real:g}{c.imag:+g}i)*"


def _fmt_term(term) -> str:
    factors = "*".join(
        ("T" if f.scale is Scale.DOUBLED else "t")
        + str(f.ch) + _ARG_NAMES[(f.arg.coeff1, f.arg.coeff2)]
        for f in term.factors)
    return _fmt_coeff(term.coefficient) + factors


def format_identity(idty: Identity) -> str:
    def side(terms) -> str:
        parts = [_fmt_term(t) for t in terms]
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    return f"{side(idty.lhs)} = {side(idty.rhs)}"


_ADDITION_LISTING = [
    (label, f"quotient F{ThetaCharacteristic.of(*ch)}(z1+z2) from the "
            "algebraic addition law vs direct summation")
    for label, ch in sorted(A_LABELS.items(),
                            key=lambda kv: int(kv[0][1:]))]

def cmd_list(args) -> int:
    try:
        catalog = load_catalog()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.format == "json":
        print(json.dumps(catalog_as_json(catalog), indent=1, sort_keys=True))
        return EXIT_OK
    for idty in catalog:
        flags = ",".join(idty.flags) if idty.flags else "-"
        print(f"{idty.id:10s} {idty.domain.value:13s} {flags:14s} "
              f"{format_identity(idty)}")
        if idty.note:
            print(f"{'':10s} {'':13s} {'':14s} # {idty.note}")
    for label, desc in _ADDITION_LISTING:
        print(f"{label:10s} {'Addition':13s} {'-':14s} {desc}")
    for label, (_, desc) in _ELLIPTIC_ROWS.items():
        print(f"{label:10s} {'Elliptic':13s} {'-':14s} {desc}")
    two_point = sum(i.domain is Domain.TWO_POINT for i in catalog)
    print(f"# {len(catalog)} catalog identities "
          f"({two_point} TwoPoint), 15 addition rows, "
          f"{len(_ELLIPTIC_ROWS)} elliptic rows")
    return EXIT_OK


# --------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The command line's parser, built on first use and kept for the
    process: parse_args leaves it unchanged."""
    parser = _Parser(prog="hypertheta",
                     description="genus-2 theta identity harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one theta value")
    p_eval.add_argument("--char", required=True,
                        help="a,c,b,d (rationals like 1/2 allowed)")
    p_eval.add_argument("--z", required=True,
                        help="x,y complex or x_re,x_im,y_re,y_im")
    p_eval.add_argument("--tau", required=True,
                        help="t1,t2,t12 complex or six reals")
    p_eval.add_argument("--ratio", action="store_true",
                        help="print the quotient by theta[0 0;0 0] instead")
    p_eval.add_argument("--eps-tail", type=float,
                        default=DEFAULT_POLICY.eps_tail)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--config", default="",
                          help="JSON config file (flags win)")
    # dest = the VerificationConfig field each flag overrides
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", dest="n_samples", type=int,
                          default=None)
    p_verify.add_argument("--eps-tail", type=float, default=None)
    p_verify.add_argument("--rel-tol", type=float, default=None,
                          help="relative tolerance of the catalog rows; "
                          "A, .path and E rows keep fixed tolerances")
    p_verify.add_argument("--abs-tol", type=float, default=None,
                          help="absolute tolerance of the catalog rows; "
                          "A, .path and E rows keep fixed tolerances")
    p_verify.add_argument("--only", type=_parse_only, default=None,
                          help="comma-separated ids or id families")
    p_verify.add_argument("--format", dest="output_format",
                          choices=("json-lines", "csv"), default=None)
    p_verify.add_argument("--out", dest="output_path", default=None,
                          help="write rows here instead of stdout")
    p_verify.add_argument("--jobs", type=int, default=None,
                          help="parallel workers for the catalog suite")

    p_list = sub.add_parser("list", help="print the identity inventory")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_list(args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. `hypertheta list | head`)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
