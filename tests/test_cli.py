"""The command-line shell: dispatch, documents, determinism, exit codes."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from chowstab.cli import COMMANDS, build_parser, main, read_poly_file, run
from chowstab.discriminants import ExtensionField
from chowstab import FP, ParseError, parse_poly


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _json_result(capsys, argv):
    code, out, err = _capture(capsys, ["--json"] + argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    return doc


def test_mu_example(capsys):
    doc = _json_result(capsys, ["mu", "--nvars", "3", "--field", "q",
                                "--poly", "x0^3+x1^3+x2^3", "--r", "-1,0,1"])
    assert doc["result"]["mu"] == -3
    assert doc["command"] == "mu"
    assert doc["timing_ms"] == 0


def test_certify_torus_example(capsys):
    doc = _json_result(capsys, ["certify-torus", "--nvars", "3",
                                "--field", "q", "--poly", "x0*x1*x2"])
    assert doc["result"]["verdict"] == "strictly_semistable_torus"


def test_quartic_st_mod2(capsys):
    doc = _json_result(capsys, ["quartic-st", "--coeffs", "1,1,1,1,1",
                                "--field", "fp:2"])
    result = doc["result"]
    assert result["D"] == (result["T"] * result["T"]) % 2
    assert result["T"] == 1  # a0*a3^2 + a1*a2*a3 + a1^2*a4 = 3 = 1 mod 2


def test_mu_bracket(capsys):
    doc = _json_result(capsys, ["mu-bracket", "--n", "3", "--cycle-dim", "1",
                                "--d", "2", "--tuples", "{0,1},{0,1}",
                                "--r", "-1,-1,1,1"])
    assert doc["result"]["mu"] == -4


def test_lee_ratio_and_identity(capsys):
    doc = _json_result(capsys, ["lee-ratio", "--nvars", "3", "--field", "q",
                                "--poly", "x2^3", "--r", "-1,-1,2"])
    assert doc["result"] == {"w_f": 9, "sum_wxI": 3, "ratio": "3"}
    ratio = doc["result"]
    doc = _json_result(capsys, ["mu", "--nvars", "3", "--field", "q",
                                "--poly", "x2^3", "--r", "-1,-1,2"])
    # d*sum w(x_I) - (n+1)*w(f) == -(n+1)*mu, with d = n+1 = 3
    assert 3 * ratio["sum_wxI"] - 3 * ratio["w_f"] == -3 * doc["result"]["mu"]


def test_search_destab_deterministic_json(capsys):
    argv = ["--json", "search-destab", "--nvars", "3", "--field", "fp:2",
            "--poly", "x0^3*x1+x1^3*x2+x2^3*x0", "--seed", "5",
            "--max-candidates", "40", "--depth", "1"]
    code1, out1, _ = _capture(capsys, argv)
    code2, out2, _ = _capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical documents
    doc = json.loads(out1)
    assert doc["result"]["verdict"] == "unknown_after_search"
    assert "not a stability proof" in doc["result"]["note"]


def test_search_destab_one_variable(capsys):
    doc = _json_result(capsys, ["search-destab", "--nvars", "1",
                                "--poly", "x0^2", "--seed", "1"])
    assert doc["result"]["verdict"] == "unknown_after_search"
    assert doc["result"]["search_budget_used"] == {
        "candidates_enumerated": 2001, "candidates_tested": 1, "lp_calls": 1}


def test_singular_points_ext2_prints_points_without_a_field(capsys,
                                                            monkeypatch):
    moduli = []
    find = ExtensionField._find_modulus

    def counted(p, e):
        moduli.append((p, e))
        return find(p, e)

    monkeypatch.setattr(ExtensionField, "_find_modulus",
                        staticmethod(counted))
    # every partial vanishes in characteristic 2: all of P^1(F_4) is listed
    doc = _json_result(capsys, ["singular-points", "--nvars", "2",
                                "--field", "fp:2", "--poly", "x0^2+x1^2",
                                "--ext", "2"])
    assert doc["result"]["points"] == ["(1 : 0)", "(1 : t)", "(1 : 1)",
                                       "(1 : 1 + t)", "(0 : 1)"]
    assert moduli == [(2, 2)]  # the enumeration's field, none per point


def test_sum_and_power(capsys):
    doc = _json_result(capsys, ["sum", "--nvars", "3", "--field", "q",
                                "--poly", "x0", "--poly2", "x1"])
    assert doc["result"]["poly"] == "x0*x1"
    doc = _json_result(capsys, ["power", "--nvars", "2", "--field", "fp:2",
                                "--poly", "x0+x1", "-m", "2"])
    assert doc["result"]["poly"] == "x0^2 + x1^2"


def test_threshold_commands(capsys):
    doc = _json_result(capsys, ["lct-bound", "--nvars", "2", "--field", "q",
                                "--poly", "x0^2+x1^3", "--w", "3,2"])
    assert doc["result"]["bound"] == "5/6"
    doc = _json_result(capsys, ["lct-optimize", "--nvars", "2", "--field",
                                "q", "--poly", "x0^2+x1^3",
                                "--max-weight", "6"])
    assert doc["result"]["best_bound"] == "5/6"
    assert doc["result"]["best_w"] == [3, 2]
    doc = _json_result(capsys, ["blowup-a", "--nvars", "2", "--field", "q",
                                "--poly", "x0^2+x1^3", "--w", "3,2",
                                "--c", "5/6"])
    assert doc["result"]["discrepancy"] == "-1"
    doc = _json_result(capsys, ["fpt", "--nvars", "1", "--field", "fp:3",
                                "--poly", "x0^2", "--emax", "2"])
    assert doc["result"]["lower"] == "4/9"
    assert doc["result"]["upper"] == "5/9"


def test_lct_bound_with_points(capsys):
    doc = _json_result(capsys, ["lct-bound", "--nvars", "2", "--field", "q",
                                "--poly", "x0*x1", "--w", "1,1",
                                "--points", "0,0;1,1"])
    per_point = doc["result"]["per_point"]
    assert per_point[0]["bound"] == "1"
    assert per_point[1]["bound"] == "inf"  # (1,1) is off the divisor
    assert doc["result"]["min_bound"] == "1"


def test_fpt_with_points(capsys):
    doc = _json_result(capsys, ["fpt", "--nvars", "2", "--field", "fp:3",
                                "--poly", "x0^2 + x1^2", "--emax", "1",
                                "--points", "0,0"])
    assert doc["result"]["per_point"][0]["lower"] == doc["result"]["min_lower"]
    # a chart origin off the divisor violates the precondition
    code, _, err = _capture(capsys, ["fpt", "--nvars", "2", "--field", "fp:3",
                                     "--poly", "x0^2 + x1^2", "--emax", "1",
                                     "--points", "1,0"])
    assert code == 3


def test_lee_verdict_command(capsys):
    doc = _json_result(capsys, ["lee-verdict", "--n", "2", "--d", "4",
                                "--bound", "1"])
    assert doc["result"]["verdict"] == "stable"
    doc = _json_result(capsys, ["lee-verdict", "--n", "3", "--d", "6",
                                "--bound", "1/2"])
    assert doc["result"]["verdict"] == "inconclusive"


def test_resultant_and_disc(capsys):
    doc = _json_result(capsys, ["resultant", "--p", "x0", "--q", "x0+1",
                                "--field", "q"])
    assert doc["result"]["resultant"] == "1"
    # two constants: the empty Sylvester matrix, whose determinant is 1
    doc = _json_result(capsys, ["resultant", "--p", "2", "--q", "3"])
    assert doc["result"]["resultant"] == "1"
    doc = _json_result(capsys, ["disc", "--d", "2"])
    assert doc["result"]["discriminant"] == "4*a0*a2 - a1^2"
    doc = _json_result(capsys, ["disc", "--d", "4", "--mode", "numeric",
                                "--poly", "x0^4+x1^4"])
    assert doc["result"]["discriminant"] == "4096"


def test_smooth_binary_and_singular_points(capsys):
    doc = _json_result(capsys, ["smooth-binary", "--nvars", "2",
                                "--field", "fp:2", "--poly", "x0^4+x1^4"])
    assert doc["result"]["smooth"] is False
    doc = _json_result(capsys, ["singular-points", "--nvars", "4",
                                "--field", "fp:2", "--poly", "x0*x1+x2*x3",
                                "--ext", "2"])
    assert doc["result"]["count"] == 0
    assert doc["result"]["semi_decision"] is True


def test_cyclic_exponent_command(capsys):
    doc = _json_result(capsys, ["cyclic-exponent", "--n", "2", "--d", "3"])
    assert doc["result"]["exponent"] == 9
    doc = _json_result(capsys, ["cyclic-exponent", "--n", "1", "--d", "2"])
    assert doc["result"]["degenerate"] is True


def test_exit_code_parse_error(capsys):
    code, _, err = _capture(capsys, ["mu", "--nvars", "3", "--field", "q",
                                     "--poly", "x0 + x9", "--r", "-1,0,1"])
    assert code == 2
    assert "out of range" in err


def test_exit_code_precondition(capsys):
    code, _, err = _capture(capsys, ["certify-torus", "--nvars", "2",
                                     "--field", "q", "--poly", "x0 - x0"])
    assert code == 3


def test_exit_code_usage(capsys):
    assert run(["mu", "--nvars", "3"]) == 2  # missing --r


def test_infinite_rational_is_a_parse_error(capsys):
    # only a threshold bound may be inf; elsewhere it used to reach
    # Fraction(inf) and die with an OverflowError traceback
    code, out, err = _capture(capsys, ["blowup-a", "--nvars", "2", "--poly",
                                       "x0^2+x1^3", "--w", "3,2", "--c",
                                       "inf"])
    assert code == 2
    assert err.startswith("chowstab: parse error:")
    assert "Traceback" not in err
    assert out == ""
    doc = _json_result(capsys, ["lee-verdict", "--n", "2", "--d", "3",
                                "--bound", "inf"])
    assert doc["inputs"]["bound"] == "inf"


def test_retired_commands_and_options_are_usage_errors(capsys):
    for argv in (["identity-check", "--nvars", "2", "--poly", "x0",
                  "--r", "-1,1"],
                 ["lift-check", "--nvars", "2", "--field", "fp:3",
                  "--poly", "x0", "--seed", "1"]):
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (2, "")
        assert f"invalid choice: '{argv[0]}'" in err
    code, out, err = _capture(capsys, ["quartic-st", "--coeffs", "1,1,1,1,1",
                                       "--mod", "2"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --mod 2" in err


def test_oversized_integer_is_a_precondition_error(capsys):
    # CPython refuses to print an int of more than 4300 digits; the document
    # is rendered before anything is printed, so that is exit 3, not a
    # traceback, and stdout stays empty
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (["cyclic-exponent", "--n", "6000", "--d", "7"],
                     ["power", "--nvars", "1", "--poly", "2*x0",
                      "-m", "20000"]):
            for mode in ([], ["--json"]):
                code, out, err = _capture(capsys, mode + argv)
                assert (code, out) == (3, ""), (mode + argv, err)
                assert err.startswith("chowstab: error: Exceeds the limit "
                                      "(4300 digits)"), err
    finally:
        sys.set_int_max_str_digits(limit)


def test_signed_flag_does_not_take_an_option_as_value(capsys):
    code, out, err = _capture(capsys, ["certify-torus", "--nvars", "2",
                                       "--poly", "--json"])
    assert code == 2
    assert "argument --poly: expected one argument" in err
    assert out == ""
    # a value that only starts with '-' is still a value
    doc = _json_result(capsys, ["certify-torus", "--nvars", "2",
                                "--poly", "-x0^2-x1^2"])
    assert doc["inputs"]["poly"] == "-x0^2 - x1^2"


def test_human_output(capsys):
    code, out, _ = _capture(capsys, ["mu", "--nvars", "3", "--field", "q",
                                     "--poly", "x0^3+x1^3+x2^3",
                                     "--r", "-1,0,1"])
    assert code == 0
    assert "command: mu" in out
    assert "mu: -3" in out


def test_timing_goes_to_stderr_only(capsys):
    argv = ["certify-torus", "--nvars", "3", "--poly", "x0*x1*x2"]
    code, out, err = _capture(capsys, argv)
    timed_code, timed_out, timed_err = _capture(capsys, ["--timing"] + argv)
    assert code == timed_code == 0
    assert timed_out == out
    assert err == ""
    assert re.fullmatch(r"timing_ms: \d+\n", timed_err)


def test_module_entry_point_matches_run(capsys, monkeypatch):
    # python -m chowstab runs __main__ and cli.main: the same output and exit
    # code as an in-process run, for a success (0), a parse error (2) and a
    # precondition error (3)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, expected in (
            (["--json", "certify-torus", "--nvars", "3", "--poly",
              "x0*x1*x2"], 0),
            (["mu", "--nvars", "3", "--poly", "x0 + x9", "--r", "-1,0,1"], 2),
            (["certify-torus", "--nvars", "2", "--poly", "x0 - x0"], 3)):
        proc = subprocess.run([sys.executable, "-m", "chowstab", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (expected, *_capture(capsys, argv)[1:])
        monkeypatch.setattr(sys, "argv", ["chowstab", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        capsys.readouterr()
        assert exc.value.code == expected


# -- README ------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_line_matches_the_cli(capsys):
    section = README.read_text(encoding="utf-8") \
        .split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)
                for line in block.replace("\\\n", " ").splitlines()]
    assert len(examples) == 8
    for argv in examples:
        assert argv[0] == "chowstab"
        code, _, err = _capture(capsys, argv[1:])
        assert code == 0, (argv, err)
    listed = re.search(r"^Subcommands: (.*?)\.$", section, re.M | re.S)
    assert re.findall(r"`([^`]+)`", listed.group(1)) == \
        [cmd.name for cmd in COMMANDS]


# -- polynomial files --------------------------------------------------------------

def test_read_poly_file(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("vars=3 field=fp:2\nx0*x1 + x2^2\n")
    poly, domain = read_poly_file(str(path))
    assert domain == FP(2)
    assert poly == parse_poly("x0*x1 + x2^2", 3, FP(2))


def test_read_poly_file_rational(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("vars=2 field=q\n1/2*x0^2\n")
    poly, _ = read_poly_file(str(path))
    assert poly.to_string() == "1/2*x0^2"


def test_read_poly_file_bad_prime(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("vars=2 field=fp:4\nx0\n")
    with pytest.raises(Exception):
        read_poly_file(str(path))


def test_read_poly_file_missing_header(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("x0 + x1\n")
    with pytest.raises(ParseError):
        read_poly_file(str(path))


def test_read_poly_file_error_position(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    for text, message in (
            # the message keeps its own parentheses; only the position is
            # replaced
            ("vars=2 field=q\nx0 +\nx7\n",
             "variable index 7 out of range (nvars=2) (line 3, col 2)"),
            ("", "empty polynomial file (line 1, col 1)"),
            ("vars=2 field=q\n", "missing polynomial body (line 2, col 1)")):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_poly_file(str(path))
        assert str(err.value) == message
        assert _capture(capsys, ["certify-torus", "--in", str(path)]) == \
            (2, "", f"chowstab: parse error: {message}\n")


def test_cli_reads_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("vars=3 field=q\nx0^3 + x1^3 + x2^3\n")
    doc = _json_result(capsys, ["mu", "--in", str(path), "--r", "-1,0,1"])
    assert doc["result"]["mu"] == -3


# -- golden corpus -----------------------------------------------------------------
#
# tests/golden/*.json each hold one argv and the exact stdout, stderr and exit
# code the CLI produced for it when the corpus was recorded.  Recorded output
# is never regenerated: a new case gets a new file, recorded from the CLI
# before the change it is meant to guard.  Cases marked with "python" are
# rendered by argparse alone (usage errors, --help) and are compared only on
# that Python version.

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = sorted(GOLDEN.glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_CASES, ids=lambda p: p.stem)
def test_golden_output(path, capsys, monkeypatch):
    case = json.loads(path.read_text(encoding="utf-8"))
    pinned = case.get("python")
    if pinned is not None and pinned != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"argparse text recorded with Python {pinned}")
    monkeypatch.chdir(GOLDEN)  # --in paths are relative to the corpus
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    code, out, err = _capture(capsys, case["argv"])
    assert out == case["stdout"]
    assert err == case["stderr"]
    assert code == case["exit"]


def test_golden_corpus_covers_every_command():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    argvs = [json.loads(p.read_text(encoding="utf-8"))["argv"]
             for p in GOLDEN_CASES]
    for name in subparsers.choices:
        runs = [argv for argv in argvs if name in argv and "--help" not in argv]
        assert any("--json" in argv for argv in runs), name
        assert any("--json" not in argv for argv in runs), name
        assert [name, "--help"] in argvs, name
