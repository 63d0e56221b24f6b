"""End-to-end checks of the command-line harness (eval / verify / list)."""

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import platform
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypertheta import cli, identity_catalog, theta_core
from hypertheta.cli import (
    EXIT_CONFIG,
    EXIT_DIVISOR,
    EXIT_FAILED,
    EXIT_INVALID_PERIOD,
    EXIT_NONFINITE,
    EXIT_OK,
    EXIT_RADIUS,
    main,
)
from hypertheta.identity_catalog import (
    ENV_CATALOG,
    Domain,
    IdentityTerm,
    ResidualReport,
    build_catalog,
    catalog_as_json,
    load_catalog,
    resolve_sign,
    save_catalog,
    selected,
    verify_catalog,
)
from hypertheta.sampling import (
    Draws,
    SampleAssignment,
    assignments_for,
    make_rng,
    sample_tau,
)
from hypertheta.theta_core import (
    DEFAULT_POLICY,
    EvalPoint,
    PeriodMatrix,
    PrecisionPolicy,
    ThetaCharacteristic,
    double_periods,
    theta_eval,
)
from hypertheta.addition import f_eval, verify_addition
from hypertheta.backends import lattice_sum


def _printed_value(line: str) -> complex:
    # "theta[...](x, y) = <re><im>j   [radius N]"
    payload = line.split("=", 1)[1].split("[", 1)[0].strip()
    return complex(payload)


def test_eval_odd_characteristic_is_zero(capsys):
    assert main(["eval", "--char", "0,1,0,1", "--z", "0,0",
                 "--tau", "i,i,0"]) == 0
    out = capsys.readouterr().out
    assert abs(_printed_value(out)) < 1e-13
    assert "[radius" in out


def test_eval_matches_direct_summation(capsys):
    assert main(["eval", "--char", "0,0,0,0", "--z", "0,0",
                 "--tau", "i,i,0"]) == 0
    value = _printed_value(capsys.readouterr().out)
    direct = theta_eval(ThetaCharacteristic.of(0, 0, 0, 0), EvalPoint(0, 0),
                        PeriodMatrix(1j, 1j, 0))
    assert value == pytest.approx(direct, rel=1e-15)


def test_eval_half_integer_characteristic(capsys):
    assert main(["eval", "--char", "1/2,1/2,0,0", "--z", "0.1,0.2",
                 "--tau", "i,i,0.1i"]) == 0
    value = _printed_value(capsys.readouterr().out)
    direct = theta_eval(ThetaCharacteristic.of("1/2", "1/2", 0, 0),
                        EvalPoint(0.1, 0.2), PeriodMatrix(1j, 1j, 0.1j))
    assert value == pytest.approx(direct, rel=1e-15)


def test_eval_real_component_flag_forms_agree(capsys):
    argv_complex = ["eval", "--char", "1,0,1,0",
                    "--z", "0.21-0.12i,-0.34+0.05i",
                    "--tau", "0.3+1.1i,-0.2+1.4i,0.15+0.25i"]
    argv_reals = ["eval", "--char", "1,0,1,0",
                  "--z", "0.21,-0.12,-0.34,0.05",
                  "--tau", "0.3,1.1,-0.2,1.4,0.15,0.25"]
    assert main(argv_complex) == 0
    first = _printed_value(capsys.readouterr().out)
    assert main(argv_reals) == 0
    second = _printed_value(capsys.readouterr().out)
    assert first == second


@pytest.mark.parametrize("z, tau", [
    ("0.21,-0.12,-0.34,0.05", "0.3+1.1i,-0.2+1.4i,0.15+0.25i"),
    ("0.21-0.12i,-0.34+0.05i", "0.3,1.1,-0.2,1.4,0.15,0.25"),
])
def test_eval_real_forms_print_the_complex_forms_line(z, tau, capsys):
    """Four reals for --z and six for --tau are (re, im) pairs: each mix
    of the real and complex forms prints the complex forms' line."""
    argv = ["eval", "--char", "1,0,1,0", "--z", "0.21-0.12i,-0.34+0.05i",
            "--tau", "0.3+1.1i,-0.2+1.4i,0.15+0.25i"]
    assert main(argv) == EXIT_OK
    want = capsys.readouterr().out
    assert main([*argv[:3], "--z", z, "--tau", tau]) == EXIT_OK
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("z, tau, message", [
    ("0", "i,i,0", "--z wants 2 complex or 4 real entries, got 1"),
    ("0,0,0", "i,i,0", "--z wants 2 complex or 4 real entries, got 3"),
    ("0,0", "i,i", "--tau wants 3 complex or 6 real entries, got 2"),
    ("0,0", "i,i,0,0,0", "--tau wants 3 complex or 6 real entries, got 5"),
])
def test_eval_wrong_entry_counts_name_both_forms(z, tau, message, capsys):
    assert main(["eval", "--char", "0,0,0,0", "--z", z,
                 "--tau", tau]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_eval_ratio_prints_quotient(capsys):
    tau = PeriodMatrix(1.1j, 1.3j, 0)
    z = EvalPoint(0.21 - 0.12j, 0.1)
    assert main(["eval", "--ratio", "--char", "1,0,1,0",
                 "--z", "0.21-0.12i,0.1", "--tau", "1.1i,1.3i,0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("F[1 0; 1 0]")
    assert _printed_value(out) == pytest.approx(
        f_eval((1, 0, 1, 0), z, tau), rel=1e-15)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_as_documented(capsys):
    """Each `$ hypertheta eval` example in README.md prints the line shown
    under it, and the Python quick start runs."""
    text = README.read_text()
    lines = text.splitlines()
    examples = [(line.removeprefix("$ hypertheta "), lines[n + 1])
                for n, line in enumerate(lines)
                if line.startswith("$ hypertheta eval ")]
    assert len(examples) == 2
    for argv, shown in examples:
        assert main(shlex.split(argv)) == 0
        assert capsys.readouterr().out == shown + "\n"
    (quick_start,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace: dict = {}
    exec(quick_start, namespace)
    assert len(namespace["f12"].values) == 15


def test_readme_row_example_is_a_verify_row():
    """The row shown under README.md's "Output formats" is B1, sample 0 of
    verify --seed 0, byte for byte."""
    (shown,) = re.findall(r"```json\n(.*?)\n```", README.read_text())
    (row,) = verify_catalog(1, 0, only={"B1"})
    assert row.json_line() == shown + "\n"


@pytest.mark.parametrize("argv,code", [
    (["eval", "--char", "0,x,0,1", "--z", "0,0", "--tau", "i,i,0"],
     EXIT_CONFIG),
    (["eval", "--char", "0,0,0", "--z", "0,0", "--tau", "i,i,0"],
     EXIT_CONFIG),
    (["eval", "--char", "0,0,0,0", "--z", "0,0,0", "--tau", "i,i,0"],
     EXIT_CONFIG),
    (["eval", "--char", "0,0,0,0", "--z", "0,0", "--tau=-i,i,0"],
     EXIT_INVALID_PERIOD),
    (["eval", "--char", "0,0,0,0", "--z", "0,100i", "--tau", "i,i,0"],
     EXIT_RADIUS),
    (["eval", "--ratio", "--char", "1,0,1,0",
      "--z", "0.5+0.55i,0.07+0.02i", "--tau", "1.1i,1.3i,0"],
     EXIT_DIVISOR),
    (["eval", "--char", "0,0,0,0", "--z", "nan,0", "--tau", "i,i,0"],
     EXIT_CONFIG),
    (["eval", "--char", "0,0,0,0", "--z", "0,0", "--tau", "i,i,0",
      "--eps-tail", "inf"], EXIT_CONFIG),
    (["eval", "--char", "0,0,0,0", "--z", "0,0", "--tau", "1e300i,1e-300i,0"],
     EXIT_RADIUS),
    # det Im tau overflows unless Im tau is scaled: singular, then definite
    (["eval", "--char", "0,0,0,0", "--z", "0,0",
      "--tau", "1e200i,1e200i,1e200i"], EXIT_INVALID_PERIOD),
    (["eval", "--char", "0,0,0,0", "--z", "0,0",
      "--tau", "1e200i,1e200i,0.99e200i"], EXIT_OK),
    # a peak far off the origin: a finite value at radius 29, then peaks
    # whose log-modulus (1,963 and 1,119) passes that of the largest float
    (["eval", "--char", "0,0,0,0", "--z", "0.1,5i", "--tau", "1i,1i,0.8i"],
     EXIT_OK),
    (["eval", "--char", "0,0,0,0", "--z", "0,25i", "--tau", "i,i,0"],
     EXIT_NONFINITE),
    (["eval", "--char", "0,0,0,0", "--z", "0.1,18i", "--tau", "1i,1i,0.3i"],
     EXIT_NONFINITE),
])
def test_eval_exit_codes(argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ") == (code != EXIT_OK)


@pytest.mark.parametrize("huge", ["1e20i,i,0", "i,1e20i,0"],
                         ids=["first", "second"])
def test_eval_a_huge_axis_leaves_the_radius_to_the_other(huge, capsys):
    """At Im tau = diag(1e20, 1) only the second axis of window_for's bound
    in the metric of Im tau binds (mu1 = 1e20), and at diag(1, 1e20) only
    the first: eval prints the radius of diag(1, 1) at the same point."""
    radii = []
    for tau in (huge, "i,i,0"):
        assert main(["eval", "--char", "0,0,0,0", "--z", "0.3+0.2i,0.1-0.25i",
                     "--tau", tau]) == 0
        radii.append(capsys.readouterr().out.rsplit("[radius", 1)[1])
    assert radii[0] == radii[1]


@pytest.mark.parametrize("ratio", [[], ["--ratio"]])
def test_eval_never_prints_nan(ratio, capsys):
    """An overflowing sum exits 7 with one error line: no NaN, and numpy's
    overflow warnings (raised here as errors) are not emitted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["eval", *ratio, "--char", "0,0,0,0", "--z", "0.2+20i,0",
                     "--tau", "0.3+1.1i,-0.2+1.4i,0.15+0.25i"])
    assert code == EXIT_NONFINITE
    captured = capsys.readouterr()
    assert "nan" not in captured.out.lower()
    assert "overflows" in captured.err


def _run_verify(tmp_path, capsys, *extra):
    out = tmp_path / "rows.jsonl"
    code = main(["verify", "--samples", "2", "--out", str(out), *extra])
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in
            out.read_text().splitlines()] if out.exists() else []
    report = json.loads(captured.out.strip().splitlines()[-1])
    return code, rows, report, captured.err


def test_verify_smoke(tmp_path, capsys):
    code, rows, report, _ = _run_verify(tmp_path, capsys)
    assert code == 0
    assert report["total_rows"] == len(rows)
    assert report["passed_rows"] == report["total_rows"]
    assert report["failing_ids"] == []
    assert report["suites"] == {"catalog": True, "addition": True,
                                "elliptic": True}
    # 200 catalog ids + 15 quotients + 15 path rows + 7 elliptic rows
    assert len({r["id"] for r in rows}) == 200 + 30 + 7
    for key in ("config", "per_identity", "redraws", "versions",
                "catalog_sha256", "determinism_hash", "wall_time_s", "stats"):
        assert key in report
    assert report["stats"] == {"python": platform.python_version(),
                               "numpy": np.__version__, "kernel": "numpy"}
    per = report["per_identity"]["B1"]
    assert per["passed"] == per["samples"] == 2
    assert rows == sorted(rows, key=lambda r: (r["id"], r["sample"]))


def test_verify_small_run_is_byte_pinned(tmp_path, capsys):
    """Rows and report hash of a small run, pinned so that a change to the
    evaluation path has to keep every byte (the hash covers the sign
    resolutions too)."""
    out = tmp_path / "rows.jsonl"
    code = main(["verify", "--seed", "0", "--samples", "2", "--jobs", "1",
                 "--out", str(out)])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert report["total_rows"] == report["passed_rows"] == 474
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b36f591c7393766d0653be3b44462b27a9bb7f63036e943be4f40b6af5a7f066")
    assert report["determinism_hash"] == (
        "f91536030a364587517f5438f9a77015b59d8d5497328d9d91fc32d423efa4b3")


def test_verify_three_word_seed_is_byte_pinned(tmp_path, capsys):
    """A root seed of 2^64 + 5 is three uint32 words, so with a label's two
    the entropy is longer than SeedSequence's pool of four: rows and hash
    pinned as numpy's own generators drew them."""
    out = tmp_path / "rows.jsonl"
    code = main(["verify", "--seed", "18446744073709551621", "--samples",
                 "2", "--only", "2e5,B1,C17", "--out", str(out)])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert report["total_rows"] == report["passed_rows"] == 36
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "64997b8b25041d9636225a11033d35556f5af16857142003a5783cc4488e566f")
    assert report["determinism_hash"] == (
        "630f1155c01730026d740de0b500dc5e78944011f06836e5cce22d39d46c6319")


def test_verify_reports_null_max_residual_for_an_errored_id(
        tmp_path, monkeypatch, capsys):
    """At tau = diag(i, i) and p1 = (0, 20i) the sums of 2e5.0000 overflow
    and its row errors with residual inf.  The report gives that id's
    max_rel_residual as null, not the 0.0 of no finite row, and B1, drawn
    as usual, its finite maximum."""
    bad = SampleAssignment(PeriodMatrix(1j, 1j, 0j), EvalPoint(0, 20j),
                           EvalPoint(0j, 0j), seed=0)
    monkeypatch.setattr(identity_catalog, "draw_stream", lambda seed, labels:
                        itertools.repeat(Draws.of([
                            bad if label == "2e5.0000"
                            else assignments_for(seed, label, 1)[0]
                            for label in labels])))
    code, rows, report, err = _run_verify(
        tmp_path, capsys, "--only", "2e5.0000,B1", "--jobs", "1")
    assert code == EXIT_FAILED and "2e5.0000" in err
    assert [r["error"].split(":")[0] for r in rows
            if r["id"] == "2e5.0000"] == ["NonFiniteSum"] * 2
    assert report["failing_ids"] == ["2e5.0000"]
    assert report["per_identity"]["2e5.0000"] == {
        "max_rel_residual": None, "passed": 0, "samples": 2}
    b1 = [r["rel_residual"] for r in rows if r["id"] == "B1"]
    assert report["per_identity"]["B1"]["max_rel_residual"] == max(b1) > 0


def test_sign_details_sum_each_constant_once_per_draw(monkeypatch):
    """A default verify's sign resolutions sum the 16 targets and 10 base
    constants once per draw, the three draws' 78 sums in one
    KernelBatch.values call (384 through resolve_sign), and give the
    records resolve_sign gives."""
    calls = []
    values = theta_core.KernelBatch.values

    def counted(*args, **kwargs):
        calls.append(values(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(theta_core.KernelBatch, "values", counted)
    catalog = build_catalog()
    d_ids = sorted(i.id for i in catalog if i.root_form)
    details = cli._sign_resolution_details(d_ids, 0, DEFAULT_POLICY, catalog)
    (call,) = calls
    assert len(call) == 3 * (16 + 10)
    monkeypatch.setattr(theta_core.KernelBatch, "values", values)
    rng = make_rng(0, "sign-resolution")
    want = []
    for trial in range(3):
        tau = sample_tau(rng)
        for d_id in d_ids:
            value, record = resolve_sign(d_id, tau, catalog=catalog)
            want.append({"trial": trial, **record,
                         "value": {"re": value.real, "im": value.imag}})
    assert details == want


def _per_trial_sign_details(d_ids, seed, catalog):
    """The sign records as one theta_eval per trial and constant gives
    them: the doubled targets, then the base radicands, each parsed from
    its JSON, then match_signs per id."""
    entries = {i.id: i for i in catalog if i.id in d_ids and i.root_form}
    forms = {d_id: i.root_form for d_id, i in entries.items()}
    key = identity_catalog._json_key
    rng = make_rng(seed, "sign-resolution")
    details = []
    for trial in range(3):
        tau = sample_tau(rng)
        targets = {key(f["target"]): f["target"] for f in forms.values()}
        radicands = {key(ch): ch for f in forms.values()
                     for root in f["roots"] for _, *pair in root
                     for ch in pair}
        direct, base = ({k: theta_eval(ThetaCharacteristic.from_json(ch),
                                       EvalPoint(), periods)
                         for k, ch in chars.items()}
                        for chars, periods in (
                            (targets, double_periods(tau)), (radicands, tau)))
        for d_id in sorted(d_ids):
            try:
                value, record = identity_catalog.match_signs(
                    entries[d_id], direct, base)
            except identity_catalog.NoConsistentSign as exc:
                details.append({"trial": trial, "id": d_id, "error": str(exc)})
                continue
            details.append({"trial": trial, **record,
                            "value": {"re": value.real, "im": value.imag}})
    return details


def test_sign_details_equal_the_per_trial_path():
    """One kernel batch for the three trials gives, bit for bit, the
    records of summing each trial's constants on their own, seeds 0-49."""
    catalog = build_catalog()
    d_ids = sorted(i.id for i in catalog if i.root_form)
    for seed in range(50):
        assert (cli._sign_resolution_details(d_ids, seed, DEFAULT_POLICY,
                                             catalog)
                == _per_trial_sign_details(d_ids, seed, catalog)), seed


def test_verify_sums_the_sign_trials_in_one_kernel_batch(tmp_path,
                                                         monkeypatch, capsys):
    """A whole verify run makes one KernelBatch.values call for the sign
    search, whatever its catalog and addition blocks make."""
    callers = []
    values = theta_core.KernelBatch.values

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return values(*args, **kwargs)

    monkeypatch.setattr(theta_core.KernelBatch, "values", counted)
    code, _, report, _ = _run_verify(tmp_path, capsys)
    assert code == 0
    assert callers.count("root_constants") == 1
    assert [d["trial"] for d in report["sign_resolutions"]] == (
        [0] * 16 + [1] * 16 + [2] * 16)


def test_sign_search_overflow_names_the_per_trial_characteristic(
        monkeypatch):
    """A sum forced non-finite in trial 1 raises NonFiniteSum naming the
    characteristic that summing each trial on its own names: its first
    base radicand with upper entry a = 1."""
    rng = make_rng(0, "sign-resolution")
    bad = [sample_tau(rng) for _ in range(2)][1].tau1

    def poisoned(a2, c2, xs, ys, tau1, *args, split=None, **kwargs):
        out = lattice_sum(a2, c2, xs, ys, tau1, *args, split=split, **kwargs)
        if not isinstance(out, (tuple, np.ndarray)):  # one theta_eval sum
            return complex("inf") if (tau1, a2) == (bad, 0.5) else out
        sums = out if split is None else out[0]
        sums[(tau1 == bad) & (a2 == 0.5)] = complex("inf")
        return out

    monkeypatch.setattr(theta_core, "lattice_sum", poisoned)
    catalog = build_catalog()
    d_ids = sorted(i.id for i in catalog if i.root_form)
    with pytest.raises(theta_core.NonFiniteSum) as want:
        _per_trial_sign_details(d_ids, 0, catalog)
    with pytest.raises(theta_core.NonFiniteSum) as got:
        cli._sign_resolution_details(d_ids, 0, DEFAULT_POLICY, catalog)
    assert str(got.value) == str(want.value)
    assert str(want.value) == "theta[1 0; 0 1] sum overflows to (inf+0j)"


def test_verify_reports_are_deterministic(tmp_path, capsys):
    code1, rows1, rep1, _ = _run_verify(tmp_path, capsys)
    code2, rows2, rep2, _ = _run_verify(tmp_path, capsys)
    assert code1 == code2 == 0
    assert rows1 == rows2
    assert rep1["determinism_hash"] == rep2["determinism_hash"]
    rep1.pop("wall_time_s"), rep2.pop("wall_time_s")
    assert rep1 == rep2
    code3, _, rep3, _ = _run_verify(tmp_path, capsys, "--seed", "1")
    assert code3 == 0
    assert rep3["determinism_hash"] != rep1["determinism_hash"]


def test_verify_only_root_form_adds_sign_details(tmp_path, capsys):
    code, rows, report, _ = _run_verify(tmp_path, capsys, "--only", "D5")
    assert code == 0
    assert {r["id"] for r in rows} == {"D5"}
    assert report["suites"] == {"catalog": True, "addition": False,
                                "elliptic": False}
    details = report["sign_resolutions"]
    assert details and all(d["id"] == "D5" for d in details)
    assert all("signs" in d and "matches_printed" in d for d in details)


def test_verify_only_spans_all_suites(tmp_path, capsys):
    code, rows, report, _ = _run_verify(tmp_path, capsys,
                                        "--only", "A3,E.matrix,2e37")
    assert code == 0
    assert {r["id"] for r in rows} == {"A3", "A3.path", "E.matrix",
                                       "2e37.r1", "2e37.r2"}
    assert report["suites"] == {"catalog": True, "addition": True,
                                "elliptic": True}
    assert report["sign_resolutions"] == []


@pytest.mark.parametrize("extra", [
    (), ("--only", "B1,A3", "--rel-tol", "1e-17", "--abs-tol", "1e-19"),
    ("--format", "csv")])
def test_verify_report_is_json_dumps_and_hashes_its_part(tmp_path, capsys,
                                                         extra):
    """The printed report is json.dumps(report, sort_keys=True) byte for
    byte, and its determinism_hash the sha256 of json.dumps(hashed,
    sort_keys=True) followed by the rows body, hashed being the report
    without the hash, wall time and stats, and its config without the
    output path and the worker count: with failing ids, without, and
    with CSV rows."""
    out = tmp_path / "rows"
    code = main(["verify", "--samples", "1", "--out", str(out), *extra])
    line = capsys.readouterr().out.strip().splitlines()[-1]
    report = json.loads(line)
    assert line == json.dumps(report, sort_keys=True)
    assert (code == EXIT_FAILED) == bool(report["failing_ids"]) == bool(
        extra[:1] == ("--only",))
    hashed = {key: value for key, value in report.items()
              if key not in ("determinism_hash", "wall_time_s", "stats")}
    hashed["config"] = {key: value for key, value in report["config"].items()
                        if key not in ("output_path", "jobs")}
    assert report["determinism_hash"] == hashlib.sha256(
        json.dumps(hashed, sort_keys=True).encode("utf-8")
        + out.read_bytes()).hexdigest()


def test_every_elliptic_row_is_listed_and_selectable(tmp_path, capsys):
    """The elliptic ids of a full run are the ones `list` prints, and
    --only with one of them runs exactly that row."""
    code, rows, _, _ = _run_verify(tmp_path, capsys, "--samples", "1")
    assert code == 0
    ran = {r["id"] for r in rows if r["id"].startswith("E")}
    assert main(["list"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.split()[1:2] == ["Elliptic"]}
    assert ran == listed and len(ran) == 7
    for ident in sorted(ran):
        code, rows, report, _ = _run_verify(tmp_path, capsys, "--only", ident)
        assert code == 0
        assert {r["id"] for r in rows} == {ident}
        assert report["suites"] == {"catalog": False, "addition": False,
                                    "elliptic": True}


def test_verify_failure_exit_code_lists_ids(tmp_path, capsys):
    code, rows, report, err = _run_verify(
        tmp_path, capsys, "--only", "B1",
        "--rel-tol", "1e-17", "--abs-tol", "1e-19")
    assert code == EXIT_FAILED
    assert report["failing_ids"] == ["B1"]
    assert "B1" in err
    assert not all(r["pass"] for r in rows)


def test_verify_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "n_samples": 5,
                               "rel_tol": 1e-8}))
    code, _, report, _ = _run_verify(tmp_path, capsys, "--only", "B2",
                                     "--config", str(cfg))
    assert code == 0
    echo = report["config"]
    assert echo["seed"] == 7           # from the file
    assert echo["rel_tol"] == 1e-8     # from the file
    assert echo["n_samples"] == 2      # --samples flag wins


def test_verify_config_ignores_tau_family(tmp_path, capsys):
    """Sampling has one fixed family, so a tau_family setting is not a
    setting: it changes neither the config echo nor the hash."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_family": {"im_diag": [5.0, 6.0]}}))
    _, rows, plain, _ = _run_verify(tmp_path, capsys, "--only", "B2,D5")
    _, rows_cfg, with_cfg, _ = _run_verify(tmp_path, capsys, "--only",
                                           "B2,D5", "--config", str(cfg))
    assert rows_cfg == rows
    assert with_cfg["config"] == plain["config"]
    assert with_cfg["config"]["tau_family"]["im_diag"] != [5.0, 6.0]
    assert with_cfg["determinism_hash"] == plain["determinism_hash"]


def test_verify_csv_format(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["verify", "--samples", "1", "--only", "C17",
                 "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("id,sample,lhs_re")
    assert lines[1].startswith("C17,0,")


def test_json_line_is_json_dumps_byte_for_byte():
    """verify's JSON-lines writer gives json.dumps' bytes for every kind of
    row: passing, failing, error (every value null), partly finite,
    elliptic, addition, numpy scalars, and text that needs escapes."""
    catalog = build_catalog()[:1]
    strict = PrecisionPolicy(rel_tol=1e-30, abs_tol=1e-30)
    rows = [
        *verify_catalog(1, 0, catalog=catalog),
        *verify_catalog(1, 0, strict, catalog=catalog),
        ResidualReport(catalog[0].id, 3, complex("nan"), complex("nan"),
                       math.inf, math.inf, False,
                       error="RadiusExceeded: radius 41 > 40"),
        ResidualReport("E.11", 0, complex(1.5, math.inf), complex(-0.0, 1e300),
                       0.0, 5e-324, True),
        *cli._verify_elliptic_rows(1, 0),
        *verify_addition(1, 0).reports,
        ResidualReport("E.11", 1, np.complex128(0.5 - 0.25j),
                       np.complex128(0.5), np.float64(1e-17),
                       np.float64(2.5e-17), True),
        ResidualReport('D3 "\\ θé', 1, 1j, -1j, 2.0, 1.0, False,
                       error='NonFiniteSum: theta "[1 0]" \\ θ é\n\tend'),
    ]
    assert [r.passed for r in rows[:3]] == [True, False, False]
    for row in rows:
        assert row.json_line() == json.dumps(
            row.as_json(), sort_keys=True, separators=(",", ":")) + "\n", row


def test_verify_rejects_bad_config(capsys):
    assert main(["verify", "--samples", "0"]) == EXIT_CONFIG
    assert "samples" in capsys.readouterr().err
    assert main(["verify", "--rel-tol", "-1"]) == EXIT_CONFIG
    assert "tolerances" in capsys.readouterr().err
    assert main(["verify", "--rel-tol", "inf"]) == EXIT_CONFIG
    assert "tolerances" in capsys.readouterr().err
    assert main(["verify", "--seed=-1"]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("body, named", [
    ([{"seed": 7}], "JSON object"),
    ({"n_samples": "2"}, "n_samples"),
    ({"only": "2e5.0000"}, "only"),
    ({"rel_tol": float("nan")}, "tolerances"),
])
def test_verify_rejects_malformed_config_file(body, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    out = tmp_path / "rows.jsonl"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("only, unknown", [
    ("D99", "D99"), ("2e5,D99", "D99"), ("Exx", "Exx")])
def test_verify_rejects_only_entry_that_selects_no_row(only, unknown,
                                                      tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    assert main(["verify", "--samples", "1", "--only", only,
                 "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert unknown in captured.err and "2e5" not in captured.err
    assert captured.out == "" and not out.exists()


def test_verify_out_that_cannot_be_opened_is_a_config_error(
        tmp_path, monkeypatch, capsys):
    """--out is opened before any suite runs: a path in a missing folder
    exits EXIT_CONFIG with an error line, and no suite is called."""
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before --out was opened")

    for suite in ("verify_catalog", "verify_addition",
                  "_verify_elliptic_rows"):
        monkeypatch.setattr(cli, suite, no_suite)
    out = tmp_path / "missing" / "rows.jsonl"
    assert main(["verify", "--samples", "1", "--out", str(out)]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == "" and not out.exists()


def test_verify_parallel_jobs_match_serial(tmp_path, capsys):
    """--jobs and --out change no row and, so that the hash can prove it,
    not the determinism hash either; the config echo still shows both."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(["verify", "--samples", "1", "--only", "2e5",
                 "--out", str(serial)]) == 0
    rep_serial = json.loads(capsys.readouterr().out)
    assert main(["verify", "--samples", "1", "--only", "2e5",
                 "--jobs", "2", "--out", str(parallel)]) == 0
    rep_parallel = json.loads(capsys.readouterr().out)
    assert serial.read_text() == parallel.read_text()
    assert rep_serial["determinism_hash"] == rep_parallel["determinism_hash"]
    assert (rep_serial["config"]["jobs"], rep_parallel["config"]["jobs"]) \
        == (1, 2)
    assert rep_parallel["config"]["output_path"] == str(parallel)


@pytest.mark.parametrize("cpus", [2, 64])
def test_verify_jobs_pool_is_capped(cpus, tmp_path, monkeypatch, capsys):
    """--jobs 1000 starts at most one worker per CPU and per non-empty
    chunk, and gives the --jobs 1 rows and determinism hash.  The pool is
    a stub that records its size and maps in this process, so no process
    starts."""
    workers = []

    class InProcess:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    runs = []
    for jobs in ("1", "1000"):
        out = tmp_path / f"rows{jobs}.jsonl"
        assert main(["verify", "--samples", "1", "--only", "2e5,B1",
                     "--jobs", jobs, "--out", str(out)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        runs.append((out.read_text(), report["determinism_hash"]))
    identities = sum(selected(i.id, {"2e5", "B1"}) for i in build_catalog())
    assert workers == [min(cpus, identities)]
    assert runs[0] == runs[1]


def test_importing_the_cli_loads_no_process_pool():
    """The process pool is imported by a parallel verify only, so eval,
    list and a serial verify do not load multiprocessing."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hypertheta.cli; print(sorted("
         "{'multiprocessing', 'concurrent.futures.process'} & "
         "set(sys.modules)))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_catalog_file_with_the_same_ids_is_compiled_anew(tmp_path,
                                                       monkeypatch, capsys):
    """A HYPERTHETA_CATALOG file that keeps every id but changes one
    coefficient of 2e9 gives its own rows, though the built-in 2e9 was
    compiled first in the same process; the built-in catalog then gives
    its first bytes again."""
    def rows() -> tuple[int, bytes]:
        out = tmp_path / "rows.jsonl"
        code = main(["verify", "--samples", "2", "--only", "2e9",
                     "--out", str(out)])
        capsys.readouterr()
        return code, out.read_bytes()

    first = rows()
    catalog = []
    for idty in build_catalog():
        if idty.id == "2e9":
            term = idty.rhs[0]
            idty = dataclasses.replace(idty, rhs=(
                IdentityTerm(1.0000001 * term.coefficient, term.factors),
                *idty.rhs[1:]))
        catalog.append(idty)
    path = tmp_path / "changed.json"
    save_catalog(catalog, str(path))
    monkeypatch.setenv(ENV_CATALOG, str(path))
    code, changed = rows()
    monkeypatch.delenv(ENV_CATALOG)
    assert first[0] == EXIT_OK and code == EXIT_FAILED
    assert changed != first[1]
    assert rows() == first


def test_verify_only_subset_rows_are_pinned(tmp_path, capsys):
    """A subset of catalog rows (two families, a C row, a root-form row)
    keeps its bytes: its program is assembled from the compiled
    identities of the subset alone."""
    out = tmp_path / "rows.jsonl"
    assert main(["verify", "--seed", "4", "--samples", "2",
                 "--only", "2e5,C17,D3,B1", "--out", str(out)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["total_rows"] == 38
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ddb10e829b1724912e9dc6c04be5037ed4f013b052754792ddc91c8321425364")
    assert report["determinism_hash"] == (
        "eece43183c1777dcd7eff2d0714798528d1d21e1f47ed7a696d05c017bace714")


def test_verify_known_failing_addition_draw_passes(tmp_path, capsys):
    """verify --seed 1050000775 --samples 1 --only A3 exited 2 while the
    law read A3 through C13..C16: A3 missed its 1e-8 tolerance and A3.path
    its 1e-9, both at 1.1e-8."""
    code, rows, report, _ = _run_verify(tmp_path, capsys, "--seed",
                                        "1050000775", "--samples", "1",
                                        "--only", "A3")
    assert len(rows) == 2
    assert code == EXIT_OK


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_honours_catalog_override_in_workers(jobs, tmp_path,
                                                    monkeypatch, capsys):
    """An override whose hash is valid but whose B1 has one coefficient
    sign flipped must fail, whether or not the catalog suite runs in
    worker processes."""
    catalog = []
    for idty in build_catalog():
        if idty.id == "B1":
            first = idty.rhs[0]
            idty = dataclasses.replace(idty, rhs=(
                IdentityTerm(-first.coefficient, first.factors),
                *idty.rhs[1:]))
        catalog.append(idty)
    path = tmp_path / "corrupt.json"
    save_catalog(catalog, str(path))
    monkeypatch.setenv(ENV_CATALOG, str(path))
    code, rows, report, err = _run_verify(tmp_path, capsys, "--only",
                                          "B1,B2", "--jobs", jobs)
    assert code == EXIT_FAILED
    assert report["failing_ids"] == ["B1"]
    assert {r["id"] for r in rows} == {"B1", "B2"}


def test_verify_sign_resolutions_follow_catalog_override(tmp_path,
                                                        monkeypatch, capsys):
    catalog = [dataclasses.replace(i, root_form={**i.root_form,
                                                 "printed_signs": [1, -1]})
               if i.id == "D5" else i for i in build_catalog()]
    path = tmp_path / "d5.json"
    save_catalog(catalog, str(path))
    monkeypatch.setenv(ENV_CATALOG, str(path))
    code, _, report, _ = _run_verify(tmp_path, capsys, "--only", "D5")
    assert code == 0
    details = report["sign_resolutions"]
    assert [d["trial"] for d in details] == [0, 1, 2]
    assert all(d["printed_signs"] == [1, -1] for d in details)
    assert not any(d["matches_printed"] for d in details)
    assert report["catalog_sha256"] == catalog_as_json(catalog)["sha256"]


def test_verify_reports_failed_sign_search_of_override(tmp_path,
                                                      monkeypatch, capsys):
    """A root form whose radicand no sign assignment can match fails its
    id instead of aborting the run."""
    wrong = [[[1, [[0, 1], [1, 1], [0, 1], [0, 1]],
               [[0, 1], [0, 1], [0, 1], [0, 1]]]]]
    catalog = [dataclasses.replace(i, root_form={**i.root_form,
                                                 "roots": wrong})
               if i.id == "D13" else i for i in build_catalog()]
    path = tmp_path / "d13.json"
    save_catalog(catalog, str(path))
    monkeypatch.setenv(ENV_CATALOG, str(path))
    code, rows, report, err = _run_verify(tmp_path, capsys, "--only",
                                          "D13,D14")
    assert code == EXIT_FAILED
    assert all(r["pass"] for r in rows)  # the squared forms still close
    assert report["failing_ids"] == ["D13"]
    errors = [d for d in report["sign_resolutions"] if "error" in d]
    assert [d["id"] for d in errors] == ["D13"] * 3
    assert "D13" in err


def _d1_form(**changes):
    """An edit of D1 that replaces those keys of its root form."""
    return lambda i: dataclasses.replace(
        i, root_form={**i.root_form, **changes})


_ZERO = [[0, 1]] * 4
_MALFORMED_D1 = {
    "unknown prefactor": _d1_form(prefactor="1/3"),
    "no roots": lambda i: dataclasses.replace(i, root_form={
        k: v for k, v in i.root_form.items() if k != "roots"}),
    "text sign": _d1_form(roots=[[["1", _ZERO, _ZERO]]]),
    "unparsed radicand": _d1_form(roots=[[[1, _ZERO[:3], _ZERO]]]),
    "zero denominator": _d1_form(target=[[1, 0]] * 4),
    "number id": lambda i: dataclasses.replace(i, id=1),
}


@pytest.mark.parametrize("kind", ["no identities", *_MALFORMED_D1])
@pytest.mark.parametrize("argv", [
    ["list"], ["verify", "--samples", "1", "--only", "D1"]],
    ids=["list", "verify"])
def test_malformed_catalog_file_exits_with_config_code(kind, argv, tmp_path,
                                                       monkeypatch, capsys):
    """A catalog file without identities, or hashed correctly but with a
    value of the wrong type or a root form the sign search cannot read, is
    rejected at load by every command: exit 3 and one error line, before
    any row or report."""
    path = tmp_path / "catalog.json"
    if kind == "no identities":
        path.write_text(json.dumps({"version": "1", "sha256": "x"}))
    else:
        save_catalog([_MALFORMED_D1[kind](i) if i.id == "D1" else i
                      for i in build_catalog()], str(path))
    monkeypatch.setenv(ENV_CATALOG, str(path))
    out = tmp_path / "rows.jsonl"
    extra = ["--out", str(out)] if argv[0] == "verify" else []
    assert main([*argv, *extra]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_list_text_inventory(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for ident in ("2e8", "2e26", "2e42", "2e75", "B1", "B19", "C1", "C28",
                  "D1", "D16", "A1", "A15", "E.matrix", "E.33"):
        assert f"\n{ident} " in out or out.startswith(f"{ident} ")
    # equation rendering and typo flags surface in the listing
    assert "t[0 0; 0 0](z1+z2)" in out
    assert "lhs-misprint" in out and "char-misprint" in out
    catalog = load_catalog()
    two_point = sum(i.domain is Domain.TWO_POINT for i in catalog)
    b_series = sum(i.domain is Domain.TWO_POINT and i.id.startswith("B")
                   for i in catalog)
    sector = sum(i.domain is Domain.TWO_POINT and i.id.startswith("2e")
                 for i in catalog)
    assert two_point == b_series + sector
    assert f"({two_point} TwoPoint)" in out


def test_list_json_is_catalog_file_verbatim(tmp_path, capsys):
    """`list --format json` prints the builder's catalog exactly as
    save_catalog writes it, and those bytes are pinned."""
    assert main(["list", "--format", "json"]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "catalog.json"
    save_catalog(build_catalog(), str(path))
    assert out == path.read_text()
    assert json.loads(out)["sha256"] == catalog_as_json(build_catalog())["sha256"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5b72f246308aaa2f22884afea20dfdba790c14f21e9e4d6908cbd4dd899ea564")


def test_unknown_flag_exits_with_config_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--does-not-exist"])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()
