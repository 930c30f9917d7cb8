"""Process-level CLI tests: byte-exact output, exit codes, formats."""

import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fresh_python
from polybern import cli, families, identities


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polybern", *args],
        capture_output=True, text=True, timeout=300,
    )


# -- byte-exact text examples ---------------------------------------------------


def test_table_daehee_text():
    proc = run_cli("table", "daehee", "--n", "4")
    assert proc.returncode == 0
    assert proc.stdout == (
        "n  value\n"
        "0  1\n"
        "1  -1/2\n"
        "2  2/3\n"
        "3  -3/2\n"
    )


def test_table_dpb_k0_text():
    proc = run_cli("table", "dpb", "--k", "0", "--n", "6")
    assert proc.returncode == 0
    assert proc.stdout == (
        "n  value\n"
        "0  1\n"
        "1  0\n"
        "2  0\n"
        "3  0\n"
        "4  0\n"
        "5  0\n"
    )


def test_table_carlitz_lambda0_text():
    proc = run_cli("table", "carlitz", "--n", "3", "--lambda", "0")
    assert proc.returncode == 0
    assert proc.stdout == (
        "n  value\n"
        "0  1\n"
        "1  -1/2\n"
        "2  1/6\n"
    )


def test_eval_carlitz_text():
    proc = run_cli("eval", "t/(elam(1)-1)", "--order", "3")
    assert proc.returncode == 0
    assert proc.stdout == (
        "n  coefficient            sequence\n"
        "0  1                      1\n"
        "1  1/2*lambda - 1/2       1/2*lambda - 1/2\n"
        "2  -1/12*lambda^2 + 1/12  -1/6*lambda^2 + 1/6\n"
    )


def test_eval_one_text():
    proc = run_cli("eval", "1", "--order", "3")
    assert proc.returncode == 0
    assert proc.stdout == (
        "n  coefficient  sequence\n"
        "0  1            1\n"
        "1  0            0\n"
        "2  0            0\n"
    )


def test_eval_reciprocal_text():
    proc = run_cli("eval", "elam(1)*elam(-1)", "--order", "6")
    assert proc.returncode == 0
    assert proc.stdout == (
        "n  coefficient  sequence\n"
        "0  1            1\n"
        "1  0            0\n"
        "2  0            0\n"
        "3  0            0\n"
        "4  0            0\n"
        "5  0            0\n"
    )


# -- exit code semantics ----------------------------------------------------------


def test_verify_pass_exits_zero():
    proc = run_cli("verify", "remark", "--k", "2", "--r", "3", "--n", "10")
    assert proc.returncode == 0
    assert proc.stdout == "remark: pass\n"


def test_verify_equation_pass():
    proc = run_cli("verify", "li(1, 1-elam(-1)) == log(1+lambda*t)/lambda",
                   "--order", "12")
    assert proc.returncode == 0


def test_verify_fail_exits_one_with_witness():
    proc = run_cli("verify", "t == t + 1", "--order", "4")
    assert proc.returncode == 1
    assert proc.stdout == (
        "t == t + 1: fail at n=0\n"
        "  lhs = 0\n"
        "  rhs = 1\n"
    )


def test_order_below_one_is_refused_as_order(capsys):
    for argv in (["eval", "li(2,t)", "--order", "0"], ["verify", "t==t", "--order", "0"],
                 ["eval", "t", "--order", "-3"], ["verify", "eq5", "--order", "0"],
                 ["verify", "eq5", "--order", "-4"]):
        assert cli.main(argv) == 2, argv
        order = argv[-1]
        assert capsys.readouterr() == ("", f"polybern: error: order must be >= 1, got {order}\n")


@pytest.mark.parametrize("flags, message", [
    (["--k", "999"], "polylog order k must satisfy |k| <= 100, got 999"),
    (["--r", "-5", "--k", "999"], "polylog order k must satisfy |k| <= 100, got 999"),
    (["--r", "-5"], "order r must be >= 1, got -5"),
    (["--r", "0"], "order r must be >= 1, got 0"),
    (["--r", "41"], "order r must satisfy r <= 40, got 41"),
])
def test_every_subcommand_refuses_an_unread_k_or_r_out_of_range(capsys, flags, message):
    for argv in (["eval", "t", "--order", "2"], ["verify", "t == t", "--order", "2"],
                 ["table", "daehee", "--n", "2"], ["poly", "carlitz", "--n", "2"]):
        assert cli.main(argv + flags) == 2, argv + flags
        assert capsys.readouterr() == ("", f"polybern: error: {message}\n")


def test_unknown_identity_exits_two():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown identity" in proc.stderr


def test_syntax_error_exits_two():
    proc = run_cli("eval", "t +")
    assert proc.returncode == 2
    assert "offset 3" in proc.stderr


def test_eval_error_is_span_tagged():
    proc = run_cli("eval", "t + log(t)")
    assert proc.returncode == 2
    assert "offset 4..10" in proc.stderr
    proc = run_cli("eval", "1/λ", "--order", "3")  # λ is one character
    assert proc.returncode == 2
    assert "at offset 0..3:" in proc.stderr
    # more nested divisions than the bound, refused before any evaluation
    proc = run_cli("eval", "li(2,1-elam(-1))" + "/elam(1)" * 100, "--order", "128")
    assert proc.returncode == 2
    assert "at offset 0..88: more than 8 divisions" in proc.stderr
    # a divisor with no t and no elam counts toward no bound
    proc = run_cli("eval", "t" + " / 1" * 9)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run_cli("eval", "t").stdout, "")


@pytest.mark.parametrize("argv, message", [
    # the right side of an equation counts from the start of the target
    (["verify", "t == log(t)"], "at offset 5..11: log needs constant term 1, got 0"),
    (["verify", "t + t == t + t +"], "unexpected end of input at offset 16 "),
    # a parenthesised group's span holds its parentheses
    (["eval", "(t+lambda)^-2", "--order", "3"],
     "at offset 0..13: coefficient 1 is not divisible by lambda^2"),
    (["eval", "(lambda+t)/lambda", "--order", "2"],
     "at offset 0..17: coefficient 1 is not divisible by lambda"),
    # a divisor with no t and no elam is a constant series: its zero is exact at every order
    (["eval", "t/0", "--order", "1"], "at offset 0..3: divisor constant term 0 is not invertible"),
    (["eval", "t/(lambda-lambda)", "--order", "1"],
     "at offset 0..17: divisor constant term 0 is not invertible"),
])
def test_error_offsets_and_messages(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_a_constant_non_unit_divisor_still_divides_at_order_one(capsys):
    assert cli.main(["eval", "(lambda+t)/lambda", "--order", "1"]) == 0
    assert capsys.readouterr().out == "n  coefficient  sequence\n0  1            1\n"


def test_readme_command_line_transcripts():
    """Each ``$ polybern ...`` transcript of README's "Command line" section,
    run in-process, prints what README shows and exits 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    transcripts = re.findall(r"^\$ polybern (.*)\n((?:(?!```).+\n)*)", section, re.M)
    assert transcripts and len(transcripts) == section.count("$ polybern ")
    for command, expected in transcripts:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(shlex.split(command)) == 0, command
        assert out.getvalue() == expected, command


def test_bad_usage_exits_two():
    assert run_cli("table", "fibonacci", "--n", "3").returncode == 2
    assert run_cli("table", "dpb", "--n", "3").returncode == 2  # missing --k
    assert run_cli("table", "daehee").returncode == 2  # missing --n
    assert run_cli("poly", "daehee", "--n", "2").returncode == 2
    assert run_cli("table", "daehee", "--n", "40", "--order", "8").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("eval", "0/0").returncode == 2
    assert run_cli("eval", "elam(1/0)").returncode == 2
    assert run_cli("eval", "li(2,t)", "--order", "0").returncode == 2
    assert run_cli("verify", "t==t", "--order", "0").returncode == 2
    assert run_cli("verify", "thm1", "--n", "-1").returncode == 2
    assert run_cli("verify", "lambda0", "--order", "1").returncode == 2
    assert run_cli("verify", "lambda0", "--n", "5", "--order", "3").returncode == 2
    assert run_cli("eval", "²").returncode == 2
    assert run_cli("table", "poly-bernoulli", "--k", "99999999", "--n", "3").returncode == 2
    assert run_cli("eval", "li(99999999, t)", "--order", "4").returncode == 2
    assert run_cli("verify", "remark", "--r", "1000000000", "--n", "4").returncode == 2
    assert run_cli("eval", "exp(t)", "--order", "100000000").returncode == 2
    assert run_cli("verify", "t==t", "--order", "100000000").returncode == 2
    assert run_cli("table", "daehee", "--n", "129", "--order", "129").returncode == 2
    assert run_cli("eval", "9" * 5000, "--order", "2").returncode == 2


@pytest.mark.parametrize("text", [
    "9" * 5000,
    "(" * 3000 + "t" + ")" * 3000,
    "log(1+" * 3000 + "t" + ")" * 3000,
    "+".join(["t"] * 3000),
    "t*(1+t)^" + "9" * 200,
], ids=["literal", "parens", "calls", "terms", "exponent"])
def test_oversized_expression_exits_two_without_traceback(text):
    proc = run_cli("eval", text, "--order", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("polybern: error") and "Traceback" not in proc.stderr


def _expressions(depth):
    """Expression text from the grammar, nested at most ``depth`` deep, with
    its malformed neighbours. Exponents stay small: powers of powers compound,
    and the test checks exit codes, not cost."""
    atoms = st.one_of(
        st.integers(0, 99).map(str),
        st.sampled_from(["1/2", "9" * 1000, "lambda", "λ", "t", "elam(1)", "elam(-2/3)"]),
    )
    if depth == 0:
        return atoms
    inner = _expressions(depth - 1)
    return st.one_of(
        atoms,
        st.sampled_from(["0/0", "3/0", "9" * 1001, "²", "x", "@", "", "elam(1/0)", "elam(t)"]),
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " / ", ","]), inner).map("".join),
        inner.map("({})".format),
        inner.map("(-{})".format),
        st.tuples(st.sampled_from(["log", "exp", "elam"]), inner).map("{0[0]}({0[1]})".format),
        st.tuples(st.sampled_from([-101, -3, 0, 1, 2, 100]), inner).map("li({0[0]}, {0[1]})".format),
        st.tuples(inner, st.sampled_from(["-2", "-1", "0", "2", "3", "1001", "1/2", "t"])).map(
            "{0[0]}^{0[1]}".format),
    )


_EXPRESSIONS = st.one_of(
    _expressions(4),
    st.integers(45, 60).map(lambda d: "(" * d + "t" + ")" * d),
    st.integers(195, 205).map(lambda m: "+".join(["t"] * m)),
)

# Option values; the last of --k, --r, --lambda and --format, and --bogus,
# are refused by argparse.
_FLAGS = {
    "--k": ["-3", "0", "1", "2", "100", "-101", "99999999", "x"],
    "--r": ["-1", "0", "1", "2", "3", "40", "41", "1.5"],
    "--n": ["-1", "0", "1", "3", "6", "8"],
    "--lambda": ["symbolic", "0", "1/2", "-3", "1/0"],
    "--format": ["text", "json", "csv", "xml"],
    "--seed": ["0", "3", "-1"],
    "--bogus": ["1"],
}
_OPTIONS = st.lists(
    st.sampled_from([(flag, value) for flag, values in _FLAGS.items() for value in values]),
    max_size=6, unique_by=lambda pair: pair[0],
).map(lambda pairs: [token for pair in pairs for token in pair])

_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["table", "poly", "frobnicate"]),
              st.sampled_from(families.FAMILY_IDS + ("fibonacci",))),
    st.tuples(st.just("verify"), st.sampled_from(identities.CATALOG_IDS + ("nosuch",))),
    st.tuples(st.just("verify"), st.tuples(_EXPRESSIONS, _EXPRESSIONS).map(" == ".join)),
    st.tuples(st.just("eval"), _EXPRESSIONS),
)


@settings(max_examples=300, deadline=None)
@given(_COMMANDS, _OPTIONS, st.integers(0, 6))
@example(("eval", "1/λ"), [], 3)  # an error span that ends at a λ
def test_main_exits_zero_one_or_two_on_any_input(command, options, order):
    name, target = command
    argv = [name, *options, "--order", str(order), "--", target]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the usage
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    assert code != 1 or name == "verify", argv
    if code == 2:
        assert err.getvalue().startswith("polybern: error"), argv
        if name in ("eval", "verify"):  # a span lies inside the expression text
            for a, b in re.findall(r"at offset (\d+)\.\.(\d+)", err.getvalue()):
                assert 0 <= int(a) <= int(b) <= len(target), argv
    else:
        assert err.getvalue() == "", argv


def test_cli_imports_no_dataclasses_or_inspect():
    proc = fresh_python("import polybern.cli; "
                        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_LIGHT = {"polybern", "polybern.cli", "polybern.errors", "polybern.families",
          "polybern.polynomials", "polybern.ring", "polybern.series"}


@pytest.mark.parametrize("argv, modules, loads_json", [
    (None, {"polybern"}, False),
    (["table", "daehee", "--n", "4"], _LIGHT, False),
    (["poly", "dpb", "--k", "2", "--n", "1"], _LIGHT, False),
    (["eval", "t/(elam(1)-1)", "--order", "3"], _LIGHT | {"polybern.parser"}, False),
    (["verify", "remark", "--k", "2", "--r", "3", "--n", "10"],
     _LIGHT | {"polybern.identities", "polybern.umbral"}, False),
    (["table", "daehee", "--n", "4", "--format", "json"], _LIGHT, True),
], ids=["import", "table", "poly", "eval", "verify", "json"])
def test_each_subcommand_imports_only_what_it_runs(argv, modules, loads_json):
    run = "import polybern; code = 0" if argv is None else (
        f"from polybern import cli; code = cli.main({argv!r})")
    proc = fresh_python(run + "\nprint(code, sorted(m for m in sys.modules if "
                        "m.startswith('polybern')), 'json' in sys.modules, "
                        "'csv' in sys.modules, file=sys.stderr)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"0 {sorted(modules)} {loads_json} False\n"


def test_entries_past_the_int_str_digit_limit_render(capsys):
    limit = sys.get_int_max_str_digits()
    assert cli.main(["table", "poly-bernoulli", "--k", "100", "--n", "128",
                     "--order", "128"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert max(len(line) for line in capsys.readouterr().out.splitlines()) > 4300


# -- poly -------------------------------------------------------------------------


def test_poly_examples():
    assert run_cli("poly", "dpb", "--k", "0", "--n", "5").stdout == "x^5\n"
    assert run_cli("poly", "dpb", "--k", "2", "--n", "1").stdout == "x - 3/4\n"
    assert run_cli("poly", "dpb", "--k", "1", "--n", "0").stdout == "1\n"


def test_poly_carlitz_uses_degenerate_basis():
    proc = run_cli("poly", "carlitz", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == "x^2 - x + (-1/6*lambda^2 + 1/6)\n"
    proc = run_cli("poly", "carlitz", "--n", "2", "--lambda", "0")
    assert proc.stdout == "x^2 - x + 1/6\n"


def test_verify_with_numeric_lambda():
    proc = run_cli("verify", "eq5", "--lambda", "1/3", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["lambda"] == "1/3"


def test_poly_json_and_csv():
    proc = run_cli("poly", "dpb", "--k", "2", "--n", "1", "--format", "json")
    d = json.loads(proc.stdout)
    assert d == {"family": "dpb", "k": 2, "r": 1, "n": 1,
                 "lambda": "symbolic", "poly": "x - 3/4"}
    proc = run_cli("poly", "dpb", "--k", "2", "--n", "1", "--format", "csv")
    assert proc.stdout == "degree,coefficient\n0,-3/4\n1,1\n"
    # k and r are reported as the family reads them, as table reports them
    proc = run_cli("poly", "carlitz", "--n", "2", "--k", "5", "--r", "3", "--format", "json")
    assert json.loads(proc.stdout) == {"family": "carlitz", "k": None, "r": 1, "n": 2,
                                       "lambda": "symbolic",
                                       "poly": "x^2 - x + (-1/6*lambda^2 + 1/6)"}
    for family, r in (("dpb", 1), ("dpb-higher", 2)):
        proc = run_cli("poly", family, "--k", "2", "--n", "2", "--r", "2", "--format", "json")
        assert (json.loads(proc.stdout)["k"], json.loads(proc.stdout)["r"]) == (2, r)


# -- structured formats -------------------------------------------------------------


def test_table_json_round_trip():
    proc = run_cli("table", "daehee", "--n", "4", "--format", "json")
    d = json.loads(proc.stdout)
    assert d == {"family": "daehee", "expr": None, "k": None, "r": 1, "lambda": "symbolic",
                 "rows": [[0, "1"], [1, "-1/2"], [2, "2/3"], [3, "-3/2"]]}


def test_eval_json_round_trip():
    proc = run_cli("eval", "t", "--order", "2", "--format", "json")
    d = json.loads(proc.stdout)
    assert d["expr"] == "t"
    assert d["rows"] == [[0, "0", "0"], [1, "1", "1"]]


def test_eval_json_reports_k_and_r_as_unread():
    # an expression reads neither --k nor --r, as daehee's table does not
    proc = run_cli("eval", "t", "--order", "2", "--k", "5", "--r", "7", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == ('{"family": null, "expr": "t", "k": null, "r": 1, '
                           '"lambda": "symbolic", "rows": [[0, "0", "0"], [1, "1", "1"]]}\n')


def test_verify_json_schema():
    proc = run_cli("verify", "eq5", "--format", "json")
    d = json.loads(proc.stdout)
    assert d["id"] == "eq5"
    assert d["status"] == "pass"
    assert d["witness"] is None
    assert d == {"id": "eq5", "params": {"lambda": "symbolic", "k": 1, "nmax": 8},
                 "status": "pass", "witness": None}
    proc = run_cli("verify", "t == t + 1", "--order", "2", "--format", "json")
    d = json.loads(proc.stdout)
    assert d["status"] == "fail"
    assert d["witness"] == {"n": 0, "lhs": "0", "rhs": "1"}


def test_table_csv():
    proc = run_cli("table", "daehee", "--n", "4", "--format", "csv")
    assert proc.stdout == "n,value\n0,1\n1,-1/2\n2,2/3\n3,-3/2\n"


def test_eval_csv_header():
    proc = run_cli("eval", "t", "--order", "2", "--format", "csv")
    assert proc.stdout == "n,coefficient,sequence\n0,0,0\n1,1,1\n"


# -- cross-command consistency --------------------------------------------------------


@pytest.mark.parametrize("family,k,r", [
    ("bernoulli", None, 1),
    ("daehee", None, 1),
    ("carlitz", None, 1),
    ("dpb", 2, 1),
    ("dpb-higher", -1, 2),
])
def test_table_matches_eval_of_canonical_expression(family, k, r):
    n = 12
    args = ["table", family, "--n", str(n), "--format", "json"]
    if k is not None:
        args += ["--k", str(k)]
    if r != 1:
        args += ["--r", str(r)]
    table_rows = json.loads(run_cli(*args).stdout)["rows"]
    expr = families.canonical_expression(family, k=k, r=r)
    eval_rows = json.loads(
        run_cli("eval", expr, "--order", str(n), "--format", "json").stdout)["rows"]
    for (tn, tv), (en, _, seq) in zip(table_rows, eval_rows):
        assert tn == en and tv == seq


def test_eval_default_order_is_32():
    proc = run_cli("eval", "t", "--format", "csv")
    assert len(proc.stdout.splitlines()) == 33  # header + 32 rows


def test_lambda_specialization_flag():
    proc = run_cli("eval", "elam(1)", "--lambda", "0", "--order", "5",
                   "--format", "csv")
    rows = proc.stdout.splitlines()[1:]
    for n, line in enumerate(rows):
        assert line == f"{n},{Fraction(1, factorial(n))},1"


def test_verify_is_deterministic_for_fixed_seed():
    a = run_cli("verify", "eq18", "--format", "json", "--seed", "3")
    b = run_cli("verify", "eq18", "--format", "json", "--seed", "3")
    c = run_cli("verify", "eq18", "--format", "json", "--seed", "4")
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["params"]["ys"][3] != json.loads(c.stdout)["params"]["ys"][3]
