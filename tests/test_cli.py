"""CLI surface: exit codes, file round trips, the repro table."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from minicode.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, REPRO_CASES, main
from minicode.code import defining_set, weight_distribution
from minicode.families import TheoremId, get_preset, write_function
from minicode.minimality import read_certificate, verify_certificate
from minicode.witness import witness_certificate


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_build_writes_both_files(tmp_path):
    prefix = str(tmp_path / "c")
    code, out, _ = run_cli("build", "sec4_f1", "--out", prefix)
    assert code == EXIT_OK
    assert out.strip() == "n=80 k=5"
    dset = (tmp_path / "c.dset.txt").read_text()
    gen = (tmp_path / "c.gen.txt").read_text()
    assert dset.splitlines()[0] == "3 5 80"
    assert gen.splitlines()[0] == "3 80 5"


def test_build_sec6_q2_params(tmp_path):
    code, out, _ = run_cli("build", "sec6_q2", "--out", str(tmp_path / "c"))
    assert code == EXIT_OK and out.strip() == "n=127 k=8"


def test_build_refuses_linear_function(tmp_path):
    fn = tmp_path / "linear.fn"
    fn.write_text("3 2 table\n0 1 2 1 2 0 2 0 1\n")  # f(x) = x1 + x2
    code, _, err = run_cli("build", str(fn), "--out", str(tmp_path / "c"))
    assert code == EXIT_ERROR
    assert "omega = 1 1" in err


def test_wdist_round_trip_bytes(tmp_path):
    prefix = str(tmp_path / "c")
    run_cli("build", "sec5_f2", "--out", prefix)
    code, out_file, _ = run_cli("wdist", prefix + ".dset.txt")
    code2, out_mem, _ = run_cli("wdist", "sec5_f2")
    assert code == code2 == EXIT_OK
    assert out_file == out_mem
    assert out_file.splitlines()[0] == (
        "1 + 1 z^6 + 5 z^12 + 5 z^14 + 41 z^16 + 10 z^18 + 1 z^20"
    )


def test_wdist_json_document(tmp_path):
    path = tmp_path / "w.json"
    code, _, _ = run_cli("wdist", "sec5_f1", "--json", str(path))
    assert code == EXIT_OK
    record = json.loads(path.read_text())
    assert record == {
        "q": 2, "n": 31, "k": 6,
        "counts": {"0": 1, "10": 6, "16": 47, "18": 10},
    }


def test_wdist_function_file_input(tmp_path):
    fn = tmp_path / "f.fn"
    with open(fn, "w") as fh:
        write_function(fh, get_preset("sec5_f3").function)
    code, out, _ = run_cli("wdist", str(fn))
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("1 + 3 z^10")


def test_check_exit_codes(tmp_path):
    code, out, _ = run_cli("check", "sec4_f1", "--criterion", "rank")
    assert code == EXIT_OK and out.strip() == "minimal"
    code, out, _ = run_cli("check", "sec4_f1", "--criterion", "ab")
    assert code == EXIT_OK and "inconclusive" in out and "32/65" in out
    # a toy non-minimal defining set
    dset = tmp_path / "toy.txt"
    dset.write_text("2 2 3\n1 0\n1 0\n0 1\n")
    code, out, _ = run_cli("check", str(dset), "--criterion", "definition")
    assert code == EXIT_NEGATIVE
    assert "CoverViolation" in out
    code, out, _ = run_cli("check", str(dset), "--criterion", "dhz")
    assert code == EXIT_NEGATIVE
    code, out, _ = run_cli("check", str(dset), "--criterion", "rank")
    assert code == EXIT_NEGATIVE


def test_check_budget_exceeded_is_distinct_exit(tmp_path):
    code, _, err = run_cli("check", "sec4_f1", "--criterion", "rank",
                           "--budget", "10")
    assert code == EXIT_ERROR
    assert "budget" in err
    # distinct from the not-minimal exit
    dset = tmp_path / "toy.txt"
    dset.write_text("2 2 3\n1 0\n1 0\n0 1\n")
    code2, _, _ = run_cli("check", str(dset), "--criterion", "rank")
    assert code2 == EXIT_NEGATIVE


@pytest.mark.parametrize("flag, env, name", [
    ((), "1e10", "MINICODE_BUDGET"),
    ((), "-3", "MINICODE_BUDGET"),
    (("--budget", "-1"), None, "--budget"),
])
def test_check_refuses_a_malformed_budget(monkeypatch, flag, env, name):
    # a budget that is no non-negative integer is an input error naming its
    # source, before any scan; a valid one still decides
    if env is None:
        monkeypatch.delenv("MINICODE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("MINICODE_BUDGET", env)
    code, out, err = run_cli("check", "sec5_f1", "--criterion", "rank", *flag)
    assert code == EXIT_ERROR and not out
    assert name in err and "non-negative integer" in err and "exceed" not in err


def test_budget_help_default_is_accepted_by_the_flag(monkeypatch):
    from minicode.minimality import DEFAULT_BUDGET

    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        main(["check", "--help"])
    assert f"(default {DEFAULT_BUDGET};" in " ".join(out.getvalue().split())
    monkeypatch.delenv("MINICODE_BUDGET", raising=False)
    code, out, _ = run_cli("check", "sec5_f1", "--criterion", "rank",
                           "--budget", str(DEFAULT_BUDGET))
    assert code == EXIT_OK and out.strip() == "minimal"


def test_check_writes_certificate(tmp_path):
    cert_path = tmp_path / "c.cert"
    code, _, _ = run_cli("check", "sec5_f1", "--criterion", "rank",
                         "--certificate", str(cert_path))
    assert code == EXIT_OK
    cert = read_certificate(str(cert_path))
    D = defining_set(get_preset("sec5_f1").function)
    assert verify_certificate(D, cert)


def test_check_certificate_at_mm_scale(tmp_path):
    # 3280 classes over [2186, 8]: write, re-read, verify
    cert_path = tmp_path / "big.cert"
    code, _, _ = run_cli("check", "sec6_q3", "--criterion", "rank",
                         "--certificate", str(cert_path))
    assert code == EXIT_OK
    cert = read_certificate(str(cert_path))
    assert len(cert.classes) == (3**8 - 1) // 2
    D = defining_set(get_preset("sec6_q3").function)
    assert verify_certificate(D, cert)


def test_check_witness_criterion(tmp_path):
    cert_path = tmp_path / "w.cert"
    code, out, _ = run_cli("check", "sec4_f2", "--criterion", "witness:A1",
                           "--certificate", str(cert_path))
    assert code == EXIT_OK and "121 classes" in out
    cert = read_certificate(str(cert_path))
    assert cert.mode == "vectors"
    D = defining_set(get_preset("sec4_f2").function)
    assert verify_certificate(D, cert)
    # theorem hypotheses that fail are a usage-class error
    code, _, err = run_cli("check", "sec6_q2", "--criterion", "witness:C2")
    assert code == EXIT_ERROR and "phi" in err
    with pytest.raises(ValueError) as raised:
        witness_certificate(TheoremId.C2, get_preset("sec6_q2").function)
    assert err == f"error: {raised.value}\n"
    code, _, err = run_cli("check", "sec4_f1", "--criterion", "witness:Z9")
    assert code == EXIT_ERROR


def test_blank_first_line_is_skipped(tmp_path):
    # a blank line before the header: the same stdout and exit code as without it
    prefix = str(tmp_path / "c")
    assert run_cli("build", "sec5_f1", "--out", prefix)[0] == EXIT_OK
    fn = tmp_path / "f.fn"
    write_function(str(fn), get_preset("sec5_f1").function)
    for path, command, options in ((tmp_path / "c.dset.txt", "check", ("--criterion", "rank")),
                                   (fn, "wdist", ())):
        code, out, _ = run_cli(command, str(path), *options)
        assert code == EXIT_OK
        blank = tmp_path / f"blank-{path.name}"
        blank.write_text("\n" + path.read_text())
        assert run_cli(command, str(blank), *options)[:2] == (code, out)


def test_check_unknown_criterion():
    code, _, err = run_cli("check", "sec4_f1", "--criterion", "nope")
    assert code == EXIT_ERROR


def test_unknown_source():
    code, _, err = run_cli("wdist", "not_a_preset_or_file")
    assert code == EXIT_ERROR
    assert "preset" in err


def test_repro_filter_counts():
    code, out, _ = run_cli("repro", "--filter", "sec5_*")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith("sec5_")]
    assert len(lines) == 3
    assert all("PASS" in ln for ln in lines)


def test_repro_runs_every_case():
    code, out, _ = run_cli("repro")
    assert code == EXIT_OK
    assert "SKIP" not in out
    assert out.splitlines()[-1] == f"{len(REPRO_CASES)} cases: 8 pass, 4 annotated, 0 failed"
    assert "XFAIL" in out  # the annotated paper discrepancies are visible
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["repro", "--heavy"])  # the retired flag is a usage error
    assert exc.value.code == EXIT_ERROR


def test_repro_embedded_counts_sum():
    for case in REPRO_CASES:
        if case.counts is not None:
            assert sum(case.counts.values()) == case.q**case.k


def test_repro_detects_corrupted_expectation(monkeypatch):
    import dataclasses

    import minicode.cli as cli

    bad = [dataclasses.replace(c, counts=dict(c.counts), d=11)
           if c.name == "sec5_f1" else c for c in cli.REPRO_CASES]
    monkeypatch.setattr(cli, "REPRO_CASES", tuple(bad))
    code, out, _ = run_cli("repro", "--filter", "sec5_f1")
    assert code == EXIT_NEGATIVE
    assert "FAIL" in out and "d 10 != 11" in out


def test_repro_rejects_empty_filter():
    code, _, err = run_cli("repro", "--filter", "zzz*")
    assert code == EXIT_ERROR


def test_function_file_with_empty_body_is_an_input_error(tmp_path):
    fn = tmp_path / "f.fn"
    for kind in ("weight_threshold", "complement_threshold",
                 "maiorana_mcfarland", "monomial_sum"):
        fn.write_text(f"3 2 {kind}\n")
        code, _, err = run_cli("check", str(fn), "--criterion", "rank")
        assert code == EXIT_ERROR
        assert err.startswith("error:") and kind in err


def test_function_file_with_trailing_tokens_is_an_input_error(tmp_path):
    fn = tmp_path / "f.fn"
    for bad, good in (("weight_threshold\n1 1 5 6", "weight_threshold\n1 1"),
                      ("complement_threshold\n1 2", "complement_threshold\n1")):
        fn.write_text(f"3 2 {bad}\n")
        code, _, err = run_cli("check", str(fn), "--criterion", "rank")
        assert code == EXIT_ERROR
        assert "expected" in err
        fn.write_text(f"3 2 {good}\n")
        assert run_cli("check", str(fn), "--criterion", "rank")[0] == EXIT_NEGATIVE


@pytest.mark.parametrize("command", [("wdist",), ("check", "--criterion", "witness:A1")])
def test_huge_arity_function_refused_before_f_is_evaluated(tmp_path, command):
    # valid specs of arity m = 2*10^6: evaluating f at the m unit vectors, or
    # computing 3^m, would stall; the guard refuses them from m alone
    m = 2 * 10**6
    bodies = {"weight_threshold": "1 1", "complement_threshold": "1",
              "monomial_sum": "1\n1 1" + " 0" * (m - 1)}
    fn = tmp_path / "f.fn"
    for kind, body in bodies.items():
        fn.write_text(f"3 {m} {kind}\n{body}\n")
        start = time.perf_counter()
        code, out, err = run_cli(command[0], str(fn), *command[1:])
        # reading the monomial file's 2*10^6 exponents takes most of its time
        assert time.perf_counter() - start < (3.0 if kind == "monomial_sum" else 1.0), kind
        assert code == EXIT_ERROR and not out
        assert err == f"error: q^m = 3^{m} exceeds the enumeration guard\n", kind
