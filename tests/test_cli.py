import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ellcover import cli
from ellcover import invariants as inv
from ellcover.cli import _csv_rows, _flat_value, _json_rows, _json_value
from ellcover.invariants import Placement, Verdict
from test_golden import COMMANDS as GOLDEN_COMMANDS, GOLDEN

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "ellcover", *args],
        capture_output=True,
        env=env,
        **kwargs,
    )


def test_legendre_defect_below_threshold():
    res = run_cli("legendre", "--omega1", "0.5", "--omega2", "0.5i")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert len(rows) == 1
    assert rows[0]["derived"]["defect"] < 1e-10
    assert rows[0]["verdicts"][0]["clause"] == "4.4 Legendre relation"
    assert abs(rows[0]["derived"]["eta1"]["re"] - 3.14159265359) < 1e-9


@pytest.mark.parametrize("im_tau", [3e4, 1e5, 1e6])
def test_legendre_on_a_tall_lattice_meets_its_rounding_floor(im_tau, capsys):
    # eta1*2*omega2 and eta2*2*omega1 are each near 3.3*Im(tau) and cancel to
    # 2*pi*i, so their rounding alone grows with Im(tau): the bound passes
    # 10*precision, and at 1e6 the defect does too.  The defect moves in steps:
    # 4.30e-12 at 3e4, 1.03e-11 from 5.6e4 through 5.6e5, 2.2e-10 to 2.4e-10
    # from 1e6 through 1e7
    assert cli.run(["legendre", "--omega1", "1", "--omega2", f"{im_tau}i"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    (verdict,) = row["verdicts"]
    defect = row["derived"]["defect"]
    assert verdict["ok"] and defect <= verdict["rhs"] and verdict["rhs"] > 1e-11
    assert defect > 1e-11 or im_tau < 1e6
    lat = cli.Lattice(1, im_tau * 1j)
    assert verdict["rhs"] == float(cli._fmt_float(cli.legendre_bound(lat)))


@pytest.mark.parametrize("omega2", [0.5j, 0.3 + 0.85j, 800j])
def test_legendre_bound_is_ten_times_precision_below_its_floor(omega2):
    lat = cli.Lattice(1, omega2)
    assert cli.legendre_bound(lat) == 10.0 * lat.tolerance


def test_enumerate_types_rows():
    res = run_cli("enumerate-types", "--n", "3", "--d", "1")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert [r["derived"]["gamma"] for r in rows] == [[2, 1, 1, 1]]
    assert rows[0]["derived"]["g"] == 2
    assert rows[0]["derived"]["admissible"] is True
    clauses = [v["clause"] for v in rows[0]["verdicts"]]
    assert "5.4(5) parity" in clauses


def test_check_cover_admissible_and_violation_exit_codes():
    ok = run_cli("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "2",
                 "--rho", "1", "--m", "1", "--gamma", "2,1,1,1")
    assert ok.returncode == 0
    bad = run_cli("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "3",
                  "--rho", "1", "--m", "1", "--gamma", "2,1,1,1")
    assert bad.returncode == 1
    rows = json.loads(bad.stdout)
    violated = [v for v in rows[0]["verdicts"] if not v["ok"]]
    assert violated and violated[0]["clause"].startswith("5.5(1)")


def test_check_cover_nls_and_sg():
    res = run_cli("check-cover", "--case", "nls", "--n", "4", "--g", "2",
                  "--gamma", "2,2,2,2", "--placement", "distinct-generic")
    assert res.returncode == 0
    res = run_cli("check-cover", "--case", "sg", "--n", "4", "--g", "3",
                  "--gamma", "2,2,1,1", "--placement", "distinct-half-periods")
    assert res.returncode == 0


def test_check_cover_sg_without_placement_names_the_flag(capsys):
    # the default distinct-generic is nls's: sg never takes it
    argv = ["check-cover", "--case", "sg", "--n", "4", "--g", "3", "--gamma", "2,2,1,1"]
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", "error: --placement: --case sg needs same-projection "
                                       "or distinct-half-periods\n")
    assert cli.run([*argv, "--placement", "distinct-generic"]) == 2
    assert capsys.readouterr().err.startswith("error: involution-fixed marked points")


@pytest.mark.parametrize("args", [
    ("--case", "nls", "--n", "0", "--g", "-1", "--gamma", "0,0,0,0"),
    ("--case", "sg", "--n", "-3", "--g", "0", "--gamma", "1,1,1,1",
     "--placement", "same-projection"),
    ("--case", "nls", "--n", "4", "--g", "-1", "--gamma", "2,2,2,2"),
], ids=["nls-n-0", "sg-n-neg", "nls-g-neg"])
def test_check_cover_two_point_degree_and_genus_floors_are_usage_errors(args):
    res = run_cli("check-cover", *args)
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: ")


@pytest.mark.parametrize("args,name", [
    (("check-cover", "--case", "nls", "--n", "0", "--g", "-1", "--gamma", "0,0,0,0"), b"n"),
    (("check-cover", "--case", "sg", "--n", "0", "--g", "1", "--gamma", "0,0,0,0",
      "--placement", "same-projection"), b"n"),
    (("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "2", "--gamma", "2,1,1,-1"),
     b"gamma"),
    (("enumerate-types", "--n", "0", "--d", "1"), b"n, d"),
    (("construct-68", "--d", "2", "--k", "0", "--mu", "0,1,1,-1"), b"mu"),
    (("construct-68", "--d", "1", "--k", "0", "--mu", "0,1,1,1"), b"d"),
    (("family", "--theorem", "6.13", "--alpha", "0,0,0,-1"), b"alpha"),
], ids=["nls-n-g", "sg-n", "kdv-gamma", "enumerate-n-d", "construct-mu", "construct-d",
        "family-alpha"])
def test_integer_floor_errors_name_their_input(args, name):
    res = run_cli(*args)
    assert res.returncode == 2 and res.stdout == b""
    assert res.stderr.startswith(b"error: " + name + b": ")


def test_construct_68_table():
    res = run_cli("construct-68", "--d", "2", "--k", "0", "--mu", "0,1,1,1")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    derived = {(tuple(r["derived"]["gamma"])): (r["derived"]["n"], r["derived"]["g"]) for r in rows}
    assert derived[(0, 5, 5, 5)] == (13, 7)
    assert all(v["ok"] for r in rows for v in r["verdicts"])


def test_family_map():
    res = run_cli("family", "--theorem", "6.13", "--alpha", "0,0,0,0")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert rows[0]["derived"] == {"g": 1, "n": 1}


def test_family_parity_violation_is_usage_error():
    res = run_cli("family", "--theorem", "6.14", "--alpha", "0,0,0,0")
    assert res.returncode == 2
    assert b"error:" in res.stderr


@pytest.mark.parametrize("args", [
    ("--theorem", "6.18", "--alpha", "0,0,0,0", "--at-half-period"),
    ("--theorem", "6.13", "--alpha", "0,0,0,0", "--j0", "2"),
])
def test_family_flag_outside_its_cases_is_usage_error(args):
    res = run_cli("family", *args)
    assert res.returncode == 2
    assert b"error:" in res.stderr
    assert res.stdout == b""


def test_picard_genus_row():
    res = run_cli("picard-genus", "--class", "3,1,-1,0,0,0,-2,-1,-1,-1")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    d = rows[0]["derived"]
    assert d["self_intersection"] == -2
    assert d["adjunction_genus"] == 2
    assert d["tilde_genus"] == 0


def test_picard_genus_parity_blocked():
    res = run_cli("picard-genus", "--class", "3,1,-1,0,0,0,-1,-1,-1,-1")
    assert res.returncode == 1
    rows = json.loads(res.stdout)
    assert rows[0]["derived"]["tilde_genus"] is None


def test_verify_kdv_row():
    res = run_cli("verify-kdv", "--omega1", "3.141592653589793",
                  "--omega2", "3.141592653589793i", "--lambda", "2")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    d = rows[0]["derived"]
    assert d["residual_stencil"] < 1e-6
    assert d["periodicity_defect"] < 1e-10
    assert d["monodromy_defect"] < 1e-8


@pytest.mark.parametrize("im_tau, code", [(300, 0), (1000, 2)])
def test_verify_kdv_monodromy_out_of_float_range_is_numeric_error(im_tau, code):
    # |M_2(z0)| is 1.1e221 at Im(tau) = 300 and overflows from about 420, where an
    # inf factor would make the ratio NaN, which max() would fold into "ok"
    res = run_cli("verify-kdv", "--omega1", "1", "--omega2", f"{im_tau}i",
                  "--residual-tol", "1", "--grid", "40,8")
    assert res.returncode == code
    if code == 0:
        assert res.stderr == b"" and b'"4.5 monodromy", "ok": true' in res.stdout
    else:
        assert res.stdout == b""
        assert res.stderr == (b"error: out of floating-point range "
                              b"(FloatingPointError: overflow encountered in exp)\n")


def test_malformed_vector_is_usage_error():
    res = run_cli("check-cover", "--case", "kdv", "--n", "3", "--g", "2",
                  "--gamma", "2,1,1")
    assert res.returncode == 2


def test_pole_proximity_is_numeric_error():
    res = run_cli("verify-kdv", "--omega1", "3.141592653589793",
                  "--omega2", "3.141592653589793i", "--x0", "-3.141592653589793")
    assert res.returncode == 2
    assert b"error:" in res.stderr


@pytest.mark.parametrize(
    "command",
    [
        ("verify-kdv", "--omega1", "3.141592653589793", "--omega2", "3.141592653589793i",
         "--lambda", "nan"),
        ("verify-kdv", "--omega1", "3.141592653589793", "--omega2", "3.141592653589793i",
         "--x0", "nan"),
        ("legendre", "--omega1", "0.5", "--omega2", "0.5i", "--precision", "inf"),
        ("legendre", "--omega1", "inf", "--omega2", "0.5i"),
        ("legendre", "--omega1", "0.5", "--omega2", "0.5+infi"),
        ("verify-kdv", "--omega1", "3.141592653589793", "--omega2", "3.141592653589793i",
         "--lambda=-inf"),
        ("verify-kdv", "--omega1", "3.141592653589793", "--omega2", "3.141592653589793i",
         "--x0", "infinity"),
        *[("verify-kdv", "--omega1", "3.141592653589793", "--omega2", "3.141592653589793i",
           f"{flag}={value}")
          for flag in ("--residual-tol", "--monodromy-tol") for value in ("nan", "inf", "-1")],
    ],
    ids=["lambda-nan", "x0-nan", "precision-inf", "omega1-inf", "omega2-imag-inf",
         "lambda-neg-inf", "x0-infinity",
         *[f"{flag}-{value}" for flag in ("residual-tol", "monodromy-tol")
           for value in ("nan", "inf", "neg")]],
)
def test_non_finite_input_is_usage_error(command):
    res = run_cli(*command)
    assert res.returncode == 2
    assert b"finite" in res.stderr
    assert res.stdout == b""


@pytest.mark.parametrize("flag, value", [
    ("--lambda", "inf"), ("--lambda", "nan"), ("--lambda", "-inf"), ("--lambda", "1+infi"),
    ("--x0", "nan"), ("--x0", "infinity"), ("--x0", "-infi"),
    ("--omega1", "inf"), ("--omega1", "nan"), ("--omega2", "infi"), ("--omega2", "1-nani"),
    ("--precision", "inf"), ("--precision", "nan"), ("--precision", "-1e-12"),
])
def test_non_finite_wave_parameter_names_its_flag(flag, value):
    reason = ("tolerance must be finite and >= 0" if flag == "--precision"
              else "need a finite number")
    commands = ("verify-kdv",) if flag in ("--lambda", "--x0") else ("verify-kdv", "legendre")
    for command in commands:
        args = {"--omega1": "3.141592653589793", "--omega2": "3.141592653589793i", flag: value}
        res = run_cli(command, *(f"{k}={v}" for k, v in args.items()))
        assert res.returncode == 2 and res.stdout == b""
        errors = [line for line in res.stderr.decode().splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].endswith(f"error: argument {flag}: {reason}, got {value!r}")
        assert b"Warning" not in res.stderr and b"Traceback" not in res.stderr


def test_zero_precision_is_a_usage_error_naming_its_flag():
    for command in ("legendre", "verify-kdv"):
        res = run_cli(command, "--omega1", "0.5", "--omega2", "0.5i", "--precision", "0")
        assert res.returncode == 2 and res.stdout == b""
        assert res.stderr.decode().splitlines()[-1] == (
            f"ellcover {command}: error: argument --precision: precision must be positive, got '0'")
    with pytest.raises(ValueError, match="^precision must be positive$"):
        cli.Lattice(0.5, 0.5j, 0.0)  # the library's own check stays


@pytest.mark.parametrize("text,value", [
    ("0.5", 0.5), ("-3", -3), ("2.5i", 2.5j), ("0.1+0.9i", 0.1 + 0.9j),
    ("(0.1+0.9i)", 0.1 + 0.9j), (" 1 - 2i ", 1 - 2j), ("i", 1j), ("-i", -1j),
    ("-2.5e-3i", -2.5e-3j), ("1j", 1j), ("inf", complex("inf")), ("-infi", complex("-infj")),
])
def test_complex_spellings_keep_their_value(text, value):
    # only a trailing imaginary unit is translated, so inf reaches the finiteness check
    assert cli._parse_complex(text) == value


@pytest.mark.parametrize("argv", [
    ["legendre", "--omega1", "-5e-1", "--omega2", "-0.5i"],
    ["legendre", "--omega1", "-0.5+0.1i", "--omega2", "-0.5i"],
    ["legendre", "--omega1", "-.5", "--omega2", "-.5i"],
    ["verify-kdv", "--omega1", "3.14", "--omega2", "3.14i", "--lambda", "-2e0", "--x0", "-1e-3",
     "--grid", "40,8"],
], ids=["exponent", "complex", "leading-dot", "verify-kdv"])
def test_a_value_may_start_with_minus_and_a_digit(argv, capsys):
    # argparse alone takes only -1 and -1.5 as values; "--flag=value" takes any
    assert cli.run(argv) == 0
    spaced = capsys.readouterr()
    assert cli.run([argv[0], *(f"{f}={v}" for f, v in zip(argv[1::2], argv[2::2]))]) == 0
    assert capsys.readouterr() == spaced


def test_a_flag_like_value_is_still_a_usage_error(capsys):
    assert cli.run(["legendre", "--omega1", "-x", "--omega2", "0.5i"]) == 2
    assert "argument --omega1: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("legendre", "--omega1", "1e-300", "--omega2", "1e-300i"),  # ZeroDivisionError
    ("legendre", "--omega1", "1e-100", "--omega2", "1e-100i"),  # OverflowError
    ("legendre", "--omega1", "1e155", "--omega2", "1e155i"),  # OverflowError
    ("verify-kdv", "--omega1", "3e120", "--omega2", "3.6e120i"),  # OverflowError
], ids=["legendre-1e-300", "legendre-1e-100", "legendre-1e155", "verify-kdv-3e120"])
def test_float_range_error_is_numeric_error(command):
    res = run_cli(*command)
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: out of floating-point range (")
    assert res.stderr.count(b"\n") == 1 and b"Traceback" not in res.stderr


def test_csv_format():
    res = run_cli("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "2",
                  "--rho", "1", "--m", "1", "--gamma", "2,1,1,1", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.decode().splitlines()
    assert lines[0].startswith("inputs.case,inputs.n")
    assert "5.4(5) parity:ok" in lines[1]


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    res = run_cli("family", "--theorem", "6.18", "--alpha", "0,0,0,0",
                  "--output", str(target))
    assert res.returncode == 0
    assert res.stdout == b""
    rows = json.loads(target.read_text())
    assert rows[0]["derived"] == {"g": 2, "n": 3}


def test_bad_input_writes_no_bytes(tmp_path):
    target = tmp_path / "out.json"
    assert cli.run(["enumerate-types", "--n", "0", "--d", "1", "--output", str(target)]) == 2
    assert not target.exists()


def test_unwritable_output_is_usage_error(tmp_path):
    res = run_cli("enumerate-types", "--n", "5", "--d", "2",
                  "--output", str(tmp_path / "missing" / "x.json"))
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: ") and b"Traceback" not in res.stderr


@pytest.mark.parametrize("text", ["x\ny", "a\tb\r", "\x01\x1f", 'say "hi"', "back\\slash",
                                  "caf\u00e9, \u65e5\u672c, \u2028", "\x7f", ""])
def test_json_strings_are_escaped(text):
    assert json.loads(_json_value({text: [text]})) == {text: [text]}


class Count(int):
    pass


# value of a type the handlers emit -> its JSON text
SERIALIZED = [
    (True, "true"),
    (False, "false"),
    (None, "null"),
    (-7, "-7"),
    (2**70, "1180591620717411303424"),
    (0.1, "0.1"),
    (123456789.123456789, "123456789.123"),
    (0.0, "0"),
    (1e20, "1e+20"),
    (2.5e-7, "2.5e-07"),
    (Verdict("c", False, 3, 2), '{"clause": "c", "ok": false, "lhs": 3, "rhs": 2}'),
    (Verdict("i", False, 2, 1, True),
     '{"clause": "i", "ok": false, "lhs": 2, "rhs": 1, "informational": true}'),
    ("-1/2", '"-1/2"'),
    (1.5 - 2j, '{"re": 1.5, "im": -2}'),
    (complex(0, -0.0), '{"re": 0, "im": 0}'),
    ("5.5(4) genus square bound", '"5.5(4) genus square bound"'),
    (((1, (2, True)), [None, "s"]), '[[1, [2, true]], [null, "s"]]'),
    ({"a": (1, 2), "b": {"c": ["1/3"]}}, '{"a": [1, 2], "b": {"c": ["1/3"]}}'),
    ({True: None}, '{"True": null}'),
    ({1.0: None}, '{"1.0": null}'),
]


@pytest.mark.parametrize("value,text", SERIALIZED)
def test_json_value_by_type(value, text):
    assert _json_value(value) == text


# a subclass of an emitted type is rejected too: the lookup is by exact type
UNKNOWN = [np.int64(3), Placement.SAME_PROJECTION, {1, 2}, Count(5), np.float64(0.1),
           Fraction(1, 2)]


@pytest.mark.parametrize("value", UNKNOWN)
def test_json_value_rejects_unknown_types(value):
    with pytest.raises(TypeError):
        _json_value(value)


@pytest.mark.parametrize(
    "args",
    [
        ("legendre", "--omega1", "0.5", "--omega2", "0.5i"),
        ("legendre", "--omega1", "0.7", "--omega2", "0.21+0.91i"),
        ("enumerate-types", "--n", "5", "--d", "2"),
        ("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "2",
         "--rho", "1", "--m", "1", "--gamma", "2,1,1,1"),
        ("construct-68", "--d", "3", "--k", "1", "--mu", "0,1,1,1"),
        ("family", "--theorem", "6.17", "--alpha", "1,0,1,1", "--j0", "1"),
        ("picard-genus", "--class", "3,1,-1,0,0,0,-2,-1,-1,-1"),
        ("verify-kdv", "--omega1", "3.141592653589793",
         "--omega2", "3.141592653589793i", "--lambda", "1"),
    ],
)
def test_byte_identical_reruns(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


PI = "3.141592653589793"
# every golden command, the numeric subcommands, and a violated table for each subcommand that
# can exit 1.  Each case's id is fixed, so adding a case renames none: the cases below keep the
# positional ids they were first printed with, and a new golden takes its golden name.
FIRST_IDS = {  # golden name -> id
    "check-cover-kdv": "0-argv0", "check-cover-kdv-rho3": "0-argv1",
    "check-cover-nls-same-even": "0-argv2", "check-cover-nls": "0-argv3",
    "check-cover-nls-same-odd": "0-argv4", "check-cover-sg": "0-argv5",
    "check-cover-sg-same-even": "0-argv6", "check-cover-sg-same-odd": "0-argv7",
    "construct-68": "0-argv8", "enumerate-types-n40-d3": "0-argv9",
    "enumerate-types-n6-d2": "0-argv10", "family-6.13-half-period": "0-argv11",
    "family-6.14-half-period": "0-argv12", "family-6.14": "0-argv13", "family-6.15": "0-argv14",
    "family-6.16": "0-argv15", "family-6.17": "0-argv16", "family-6.18": "0-argv17",
    "picard-genus": "0-argv18", "check-cover-sg-half-periods-violated": "1-argv19",
    "picard-genus-half": "0-argv25",
}
EXIT_CODES = [pytest.param(*command, id=FIRST_IDS.get(name, name))
              for name, command in GOLDEN_COMMANDS.items()]
EXIT_CODES += [
    pytest.param(0, ("legendre", "--omega1", "0.7", "--omega2", "0.21+0.91i"), id="0-argv20"),
    pytest.param(0, ("verify-kdv", "--omega1", PI, "--omega2", PI + "i", "--grid", "40,8"),
                 id="0-argv21"),
    pytest.param(1, ("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "3",
                     "--gamma", "2,1,1,1"), id="1-argv22"),
    pytest.param(1, ("picard-genus", "--class", "3,1,-1,0,0,0,-1,-1,-1,-1"), id="1-argv23"),
    pytest.param(1, ("verify-kdv", "--omega1", PI, "--omega2", PI + "i", "--grid", "40,8",
                     "--residual-tol", "0"), id="1-argv24"),
]


@pytest.mark.parametrize("code,argv", EXIT_CODES)
def test_exit_code_is_derived_from_the_verdicts(code, argv):
    args = cli._build_parser().parse_args(argv)
    rows = list(args.handler(args))  # a handler returns its rows and nothing else
    assert all(type(row) is dict for row in rows)
    expected = 0 if all(v.ok or v.informational for row in rows for v in row["verdicts"]) else 1
    assert expected == code
    for fmt in ("json", "csv"):
        assert cli.run(["--format", fmt, *argv]) == expected


_HOLDS, _VIOLATED = Verdict("c", True, 1, 1), Verdict("c", False, 2, 1)
_INFORMATIONAL, _REUSED = Verdict("i", False, 2, 1, True), [_HOLDS, Verdict("c", False, 3, 1)]
WRITER_JUDGEMENTS = {
    "shared-violated": [{"inputs": {"k": k}, "verdicts": [_HOLDS, _VIOLATED]} for k in range(3)],
    "shared-then-violated": [{"inputs": {"k": 0}, "verdicts": [_HOLDS]},
                             {"inputs": {"k": 1}, "verdicts": (_HOLDS, _VIOLATED)}],
    "previous-row-verdicts": [{"inputs": {"k": k}, "verdicts": _REUSED} for k in range(2)],
    "previous-row-verdicts-hold": [{"inputs": {"k": k}, "verdicts": _REUSED[:1]}
                                   for k in range(2)],
    "informational": [{"inputs": {"k": 0}, "derived": {"x": 1.5},
                       "verdicts": [_HOLDS, _INFORMATIONAL]}],
    "empty": [],
}


@pytest.mark.parametrize("write_rows", [_json_rows, _csv_rows])
@pytest.mark.parametrize("case", sorted(WRITER_JUDGEMENTS))
def test_writers_return_the_exit_code_judgement(case, write_rows):
    # each distinct verdict object is judged once, as the writer first encodes it; the
    # answer is admissible() over every row, whether a verdict object recurs in later
    # rows or a row's whole verdicts object is the previous row's
    rows = WRITER_JUDGEMENTS[case]
    expected = all(inv.admissible(row["verdicts"]) for row in rows)
    assert expected is (case not in ("shared-violated", "shared-then-violated",
                                     "previous-row-verdicts"))
    text = []
    assert write_rows(iter(rows), text.append) is expected


MISPLACED_FLAGS = [
    *((flag, case, placement) for case, placement in (("nls", "distinct-generic"),
                                                      ("sg", "distinct-half-periods"))
      for flag in ("--d", "--rho", "--m")),
    # and the converse: --placement is for the two-point cases only
    ("--placement", "kdv", "same-projection"),
]


@pytest.mark.parametrize("flag,case,placement", MISPLACED_FLAGS,
                         ids=["-".join(p) for p in MISPLACED_FLAGS])
def test_check_cover_kdv_only_flags_rejected_for_two_point_cases(flag, case, placement):
    extra = () if flag == "--placement" else (flag, "1")
    res = run_cli("check-cover", "--case", case, "--n", "4", "--g", "2", "--gamma", "2,2,2,2",
                  "--placement", placement, *extra)
    assert res.returncode == 2
    assert flag.encode() in res.stderr
    assert res.stdout == b""


def test_check_cover_kdv_defaults_are_one():
    explicit = run_cli("check-cover", "--n", "3", "--d", "1", "--g", "2", "--rho", "1",
                       "--m", "1", "--gamma", "2,1,1,1")
    implicit = run_cli("check-cover", "--n", "3", "--g", "2", "--gamma", "2,1,1,1")
    assert implicit.returncode == explicit.returncode == 0
    assert implicit.stdout == explicit.stdout


@pytest.mark.parametrize("flag, value, low", [
    ("--n", "0", 1), ("--d", "0", 1), ("--g", "-1", 0), ("--m", "0", 1),
])
def test_check_cover_kdv_floors_read_like_the_two_point_ones(flag, value, low, capsys):
    given = {"--n": "3", "--d": "1", "--g": "2", "--m": "1", flag: value}
    argv = [x for item in given.items() for x in item]
    assert cli.run(["check-cover", "--case", "kdv", *argv, "--gamma", "2,1,1,1"]) == 2
    kdv = capsys.readouterr()
    assert kdv.out == ""
    assert kdv.err == f"error: {flag[2:]}: need an integer >= {low}, got {value}\n"
    if flag in ("--n", "--g"):
        two_point = {"--n": "3", "--g": "2", flag: value}
        argv = [x for item in two_point.items() for x in item]
        for case, placement in (("nls", []), ("sg", ["--placement", "same-projection"])):
            assert cli.run(["check-cover", "--case", case, *argv, "--gamma", "2,1,1,1",
                            *placement]) == 2
            assert capsys.readouterr() == ("", kdv.err)


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser

    def stdout_of(argv):  # exit code and stdout of an in-process run
        capsys.readouterr()
        code = cli.run(argv)
        return code, capsys.readouterr().out.encode()

    table = tmp_path / "kdv.csv"
    assert cli.run(["--format", "csv", "--output", str(table), "verify-kdv", "--omega1", PI,
                    "--omega2", PI + "i", "--grid", "40,8"]) == 0
    assert table.read_text().startswith("inputs.omega1,")
    legendre = ["legendre", "--omega1", "0.7", "--omega2", "0.21+0.91i"]
    assert stdout_of(legendre) == (0, run_cli(*legendre).stdout)  # JSON, to stdout

    assert cli.run(["check-cover", "--n", "x", "--g", "2", "--gamma", "2,1,1,1"]) == 2
    family = ["family", "--theorem", "6.18", "--alpha", "0,0,0,0"]
    assert stdout_of(family) == (0, run_cli(*family).stdout)

    assert cli.run(["check-cover", "--case", "sg", "--n", "5", "--g", "1", "--gamma", "1,1,1,1",
                    "--placement", "same-projection", "--format", "csv"]) in (0, 1)
    enumerate_types = ["enumerate-types", "--n", "6", "--d", "2"]
    assert vars(parser.parse_args(enumerate_types)) == {
        "command": "enumerate-types", "n": 6, "d": 2, "handler": cli._cmd_enumerate_types}
    assert stdout_of(enumerate_types) == (0, run_cli(*enumerate_types).stdout)

    fresh = cli._build_parser.__wrapped__()
    assert fresh is not parser and fresh.format_help() == parser.format_help()
    assert fresh.format_usage() == parser.format_usage()
    for name in ("verify-kdv", "check-cover"):
        assert stdout_of([name, "--help"]) == (0, run_cli(name, "--help").stdout)


INTEGER_COMMANDS = [
    ["enumerate-types", "--n", "6", "--d", "2"],
    ["check-cover", "--n", "3", "--g", "2", "--gamma", "2,1,1,1"],
    ["construct-68", "--d", "2", "--k", "0", "--mu", "0,1,1,1"],
    ["family", "--theorem", "6.18", "--alpha", "0,0,0,0"],
    ["picard-genus", "--class", "3,1,-1,0,0,0,-2,-1,-1,-1"],
]


def test_integer_subcommands_do_not_import_numpy():
    script = (
        "import contextlib, io, json, sys\n"
        "from ellcover import cli\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(argv)\n"
        "    out.append([argv[0], code, 'numpy' in sys.modules])\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", script, json.dumps(INTEGER_COMMANDS)],
                         capture_output=True, env=env, check=True)
    assert json.loads(res.stdout) == [[argv[0], 0, False] for argv in INTEGER_COMMANDS]


def test_integer_and_legendre_children_do_not_import_typing():
    # -S: without site, no .pth file in site-packages can load typing first
    legendre = ["legendre", "--omega1", "3.14159", "--omega2", "1+3.4i"]
    script = (
        "import contextlib, io, json, sys\n"
        "out = [['start', None, None, 'typing' in sys.modules]]\n"
        "from ellcover import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    for fmt in ('json', 'csv'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            code = cli.run([*argv, '--format', fmt])\n"
        "        out.append([argv[0], fmt, code, 'typing' in sys.modules])\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    commands = INTEGER_COMMANDS + [legendre]
    res = subprocess.run([sys.executable, "-S", "-c", script, json.dumps(commands)],
                         capture_output=True, env=env, check=True)
    assert json.loads(res.stdout) == [["start", None, None, False]] + [
        [argv[0], fmt, 0, False] for argv in commands for fmt in ("json", "csv")]


def test_only_picard_genus_imports_picard():
    script = (
        "import contextlib, io, json, sys\n"
        "from ellcover import cli\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(argv)\n"
        "    out.append([argv[0], code, 'ellcover.picard' in sys.modules])\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", script, json.dumps(INTEGER_COMMANDS)],
                         capture_output=True, env=env, check=True)
    assert [argv[0] for argv in INTEGER_COMMANDS][-1] == "picard-genus"
    assert json.loads(res.stdout) == [[argv[0], 0, argv[0] == "picard-genus"]
                                      for argv in INTEGER_COMMANDS]


def _modules_added(*argv) -> set:
    """The modules a fresh child has after `cli.run(argv)` (table to the null
    device) that a bare interpreter started with the same environment lacks;
    with no argv, after `import ellcover.picard`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    body = ("from ellcover import cli; assert cli.run([*sys.argv[1:], '--output', os.devnull]) == 0"
            if argv else "import ellcover.picard")

    def modules(code, *args):
        res = subprocess.run([sys.executable, "-c", f"import os, sys\n{code}\n"
                              "print(*sorted(sys.modules))", *args],
                             capture_output=True, env=env, check=True, text=True)
        return set(res.stdout.split())

    return modules(body, *argv) - modules("")


# what an integer child need not load: records without dataclasses (and so no
# inspect), csv never (the CSV writer quotes its own cells), fractions only with picard
NOT_ON_THE_INTEGER_PATH = {"dataclasses", "inspect", "csv", "fractions"}


def test_integer_subcommands_import_only_what_they_use():
    for argv in INTEGER_COMMANDS:
        for fmt in ("json", "csv"):
            added = _modules_added(*argv, "--format", fmt) & NOT_ON_THE_INTEGER_PATH
            # picard's records are slotted too: it brings only fractions, for its exact genus
            expected = {"fractions"} if argv[0] == "picard-genus" else set()
            assert added == expected, (argv[0], fmt, added)
    assert _modules_added() & NOT_ON_THE_INTEGER_PATH == {"fractions"}


def test_legendre_loads_neither_numpy_nor_kdv():
    # eta comes in closed form, so legendre binds only the elliptic names and
    # never reaches the kernel; verify-kdv shows that the probe sees both.  The
    # numeric records are slotted too, so neither child loads dataclasses, and
    # legendre no inspect either (numpy brings its own)
    lattice = ("--omega1", "3.14159", "--omega2", "1+3.4i")
    numeric = {"numpy", "ellcover.kdv"}
    assert _modules_added("legendre", *lattice) & (numeric | {"dataclasses", "inspect"}) == set()
    added = _modules_added("verify-kdv", *lattice, "--grid", "40,8")
    assert added & numeric == numeric and "dataclasses" not in added


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fraction_in_a_fresh_child_matches_in_process(fmt, capsys):
    # tilde genus 1/2: JSON quotes it as "1/2", in a child where cli never imported fractions
    argv = ["picard-genus", "--class", "1,1,1,1,0,0,0,0,0,0", "--format", fmt]
    res = run_cli(*argv)
    assert cli.run(argv) == res.returncode == 0
    assert capsys.readouterr().out.encode() == res.stdout
    assert (b'"tilde_genus": "1/2"' if fmt == "json" else b",1/2,") in res.stdout


def test_numeric_names_still_resolve():
    import ellcover
    import ellcover.cli
    import ellcover.elliptic
    import ellcover.kdv
    from ellcover import Lattice

    assert Lattice is ellcover.elliptic.Lattice
    assert ellcover.wp is ellcover.elliptic.wp
    assert ellcover.kdv_residual is ellcover.kdv.kdv_residual
    assert ellcover.cli.Lattice is ellcover.elliptic.Lattice
    assert ellcover.cli.monodromy_factor is ellcover.kdv.monodromy_factor
    assert {"wp", "Lattice", "Grid", "enumerate_types"} <= set(dir(ellcover))
    namespace = {}
    exec("from ellcover import *", namespace)
    assert {"wp", "zeta", "TravelingWave", "DivisorClass"} <= set(namespace)
    with pytest.raises(AttributeError):
        ellcover.no_such_name
    with pytest.raises(AttributeError):
        ellcover.cli.no_such_name


def test_numeric_handlers_use_names_bound_from_outside(monkeypatch):
    from ellcover import cli

    calls = []
    original = cli.kdv_residual

    def wrapped(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "kdv_residual", wrapped)
    assert cli.run(["verify-kdv", "--omega1", "3.141592653589793",
                    "--omega2", "3.141592653589793i", "--grid", "40,8"]) in (0, 1)
    assert calls == [("stencil", "chain")]
    assert cli.kdv_residual is wrapped


# value of a type the handlers emit -> its CSV cell text
FLATTENED = [
    (None, ""),
    (True, "true"),
    (False, "false"),
    (-7, "-7"),
    (2**70, "1180591620717411303424"),
    (0.1, "0.1"),
    (123456789.123456789, "123456789.123"),
    (0.0, "0"),
    (1e20, "1e+20"),
    (2.5e-7, "2.5e-07"),
    (Verdict("c", True, 1, 1), "c:ok"),
    (Verdict("c", False, 3, 2), "c:violated[lhs=3 rhs=2]"),
    ("-1/2", "-1/2"),
    (1.5 - 2j, "1.5-2i"),
    (complex(0.25, 3), "0.25+3i"),
    (complex(0, -0.0), "0+0i"),
    ("5.5(4) genus square bound", "5.5(4) genus square bound"),
    ('a,b"c', 'a,b"c'),
    (((1, (2, True)), [None, "s"]), "((1;(2;true));(;s))"),
    ([], "()"),
]


@pytest.mark.parametrize("value,text", FLATTENED)
def test_flat_value_by_type(value, text):
    assert _flat_value(value) == text


@pytest.mark.parametrize("value", UNKNOWN)
def test_flat_value_rejects_unknown_types(value):
    with pytest.raises(TypeError):
        _flat_value(value)


def test_verdicts_memoised_by_identity_not_equality():
    one, true = Verdict("c", True, 1, 1), Verdict("c", True, True, 1)
    low, low_true = Verdict("c", False, 1, 0), Verdict("c", False, True, 0)
    info = Verdict("i", False, 2, 1, True)
    assert one == true and low == low_true
    rows = [{"inputs": {"k": 0}, "verdicts": [one, true, low, low_true, info]},
            {"inputs": {"k": 1}, "verdicts": (low_true, low, true, one, info)}]
    json_text, csv_text = [], []
    _json_rows(rows, json_text.append)
    _csv_rows(rows, csv_text.append)
    a = '{"clause": "c", "ok": true, "lhs": 1, "rhs": 1}'
    b = '{"clause": "c", "ok": true, "lhs": true, "rhs": 1}'
    c = '{"clause": "c", "ok": false, "lhs": 1, "rhs": 0}'
    d = '{"clause": "c", "ok": false, "lhs": true, "rhs": 0}'
    i = '{"clause": "i", "ok": false, "lhs": 2, "rhs": 1, "informational": true}'
    assert "".join(json_text) == (
        "[\n"
        '  {\n    "inputs": {"k": 0},\n'
        f'    "verdicts": [{a}, {b}, {c}, {d}, {i}]\n  }},\n'
        '  {\n    "inputs": {"k": 1},\n'
        f'    "verdicts": [{d}, {c}, {b}, {a}, {i}]\n  }}\n'
        "]\n"
    )
    assert "".join(csv_text) == (
        "inputs.k,verdicts\n"
        "0,c:ok; c:ok; c:violated[lhs=1 rhs=0]; c:violated[lhs=true rhs=0]; "
        "i:violated[lhs=2 rhs=1]\n"
        "1,c:violated[lhs=true rhs=0]; c:violated[lhs=1 rhs=0]; c:ok; c:ok; "
        "i:violated[lhs=2 rhs=1]\n"
    )


def test_streamed_verdicts_are_encoded_after_their_row_is_dropped():
    # equal verdicts that encode differently, each alive only while its row
    # is written: a memo keyed by the id of a dead object would hand a later
    # verdict, allocated at the same address, an earlier one's text
    lhs = [True if k % 3 == 0 else 1 for k in range(64)]

    def rows():
        for k, x in enumerate(lhs):
            yield {"inputs": {"k": k}, "verdicts": [Verdict("c", True, x, 1), Verdict("c", False, x, 0)]}

    json_text, csv_text = [], []
    _json_rows(rows(), json_text.append)
    _csv_rows(rows(), csv_text.append)
    text = ["true" if x is True else "1" for x in lhs]
    assert "".join(json_text) == "[" + ",".join(
        f'\n  {{\n    "inputs": {{"k": {k}}},\n    "verdicts": '
        f'[{{"clause": "c", "ok": true, "lhs": {x}, "rhs": 1}}, '
        f'{{"clause": "c", "ok": false, "lhs": {x}, "rhs": 0}}]\n  }}'
        for k, x in enumerate(text)) + "\n]\n"
    assert "".join(csv_text) == "inputs.k,verdicts\n" + "".join(
        f"{k},c:ok; c:violated[lhs={x} rhs=0]\n" for k, x in enumerate(text))


@pytest.mark.parametrize("write_rows", [_json_rows, _csv_rows])
def test_a_generator_of_rows_gives_the_bytes_of_the_list(write_rows):
    args = cli._build_parser().parse_args(["enumerate-types", "--n", "200", "--d", "3"])
    rows = list(args.handler(args))
    from_list, from_generator = [], []
    write_rows(rows, from_list.append)
    write_rows((row for row in rows), from_generator.append)
    assert "".join(from_generator) == "".join(from_list) != ""
    text = []
    write_rows((row for row in ()), text.append)
    assert "".join(text) == ("[]\n" if write_rows is _json_rows else "")


class CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_file_equals_stdout_written_in_chunks(fmt, tmp_path, monkeypatch):
    argv = ["--format", fmt, "enumerate-types", "--n", "500", "--d", "20"]
    assert cli.run([*argv, "--output", str(tmp_path / "table")]) == 0
    monkeypatch.setattr(sys, "stdout", CountingStdout())
    assert cli.run(argv) == 0
    assert sys.stdout.getvalue().encode() == (tmp_path / "table").read_bytes()
    assert sys.stdout.writes > 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_write_failure_is_usage_error():
    res = run_cli("enumerate-types", "--n", "500", "--d", "20", "--output", "/dev/full")
    assert res.returncode == 2
    assert res.stderr.startswith(b"error: ") and b"Traceback" not in res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_buffered_stdout_failure_is_usage_error():
    # a small table stays in the block buffer until exit, when the write fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "ellcover", "family", "--theorem", "6.18", "--alpha", "0,0,0,0"],
            stdout=full, stderr=subprocess.PIPE, env=env,
        )
    assert res.returncode == 2
    assert res.stderr.startswith(b"error: ") and b"Exception ignored" not in res.stderr


def _golden_text(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


class _RecordingStdout(io.StringIO):
    """A stdout whose flush is logged in `events` and raises `failure`, if given;
    `fd` is where `main` puts the null device after a failed flush."""

    def __init__(self, events, fd, failure=None):
        super().__init__()
        self.events, self.fd, self.failure = events, fd, failure

    def flush(self):
        self.events.append("flush")
        if self.failure is not None:
            raise self.failure

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failure, code", [(None, 0), (OSError(28, "No space left on device"), 2)],
                         ids=["table", "failed-flush"])
def test_main_freezes_the_heap_after_the_flush_and_then_exits(failure, code, monkeypatch,
                                                              capsys, tmp_path):
    events, run = [], cli.run
    monkeypatch.setattr(cli, "run", lambda: events.append("run") or run(
        ["family", "--theorem", "6.18", "--alpha", "0,0,0,0"]))
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli.sys, "exit", lambda status: events.append(("exit", status)))
    # an os._exit would end this test process with status 0 instead of failing the test
    monkeypatch.setattr(cli.os, "_exit", lambda status: events.append(("os._exit", status)))
    with open(tmp_path / "stdout", "w") as target:
        stdout = _RecordingStdout(events, target.fileno(), failure)
        monkeypatch.setattr(cli.sys, "stdout", stdout)
        cli.main()
    assert events == ["run", "flush", "freeze", ("exit", code)]
    assert stdout.getvalue() == _golden_text("family-6.18.json")
    assert capsys.readouterr().err == ("" if failure is None else f"error: {failure}\n")


def test_main_keeps_atexit_handlers_and_the_exit_code():
    # os._exit would drop the handler's line; main must end through sys.exit
    argv = GOLDEN_COMMANDS["check-cover-sg-half-periods-violated"][1]
    script = ("import atexit, sys\n"
              "atexit.register(lambda: print('atexit handler ran', file=sys.stderr))\n"
              "from ellcover.cli import main\n"
              "main()\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         env=env)
    assert (res.returncode, res.stderr) == (1, b"atexit handler ran\n")
    assert res.stdout == run_cli(*argv).stdout


def test_main_under_cprofile_prints_its_stats():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-m", "cProfile", "-m", "ellcover", "family",
                          "--theorem", "6.18", "--alpha", "0,0,0,0"], capture_output=True, env=env)
    table = _golden_text("family-6.18.json").encode()
    assert res.returncode == 0 and res.stdout.startswith(table)
    stats = res.stdout[len(table):]
    assert b" function calls " in stats and b"Ordered by: " in stats


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 149. GiB for an array")


OUT_OF_MEMORY = "error: out of memory (MemoryError: Unable to allocate 149. GiB for an array)\n"


def test_out_of_memory_in_a_handler_is_numeric_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "kdv_residual", _out_of_memory)
    assert cli.run(["verify-kdv", "--omega1", "3.141592653589793",
                    "--omega2", "3.141592653589793i", "--grid", "40,8"]) == 2
    assert capsys.readouterr() == ("", OUT_OF_MEMORY)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_of_memory_while_rows_are_written_is_numeric_error(fmt, monkeypatch, capsys):
    admissible, calls = cli.inv.admissible, []

    def admissible_until_row_1000(verdicts):  # by the row generator, per row
        calls.append(None)
        return _out_of_memory() if len(calls) > 1000 else admissible(verdicts)

    monkeypatch.setattr(cli.inv, "admissible", admissible_until_row_1000)
    assert cli.run(["--format", fmt, "enumerate-types", "--n", "500", "--d", "20"]) == 2
    out, err = capsys.readouterr()
    assert out != "" and err == OUT_OF_MEMORY  # the chunks written before it stay written


def test_empty_table():
    json_text, csv_text = [], []
    _json_rows([], json_text.append)
    _csv_rows([], csv_text.append)
    assert "".join(json_text) == "[]\n"
    assert "".join(csv_text) == ""


@pytest.mark.parametrize("n,d", [(3, 1), (6, 2), (37, 4), (200, 3), (201, 20)])
def test_enumerated_admissible_is_the_judgement_of_the_row_verdicts(n, d):
    args = cli._build_parser().parse_args(["enumerate-types", "--n", str(n), "--d", str(d)])
    rows = list(args.handler(args))
    assert rows and all(row["derived"]["admissible"] is inv.admissible(row["verdicts"])
                        for row in rows)


def test_enumerated_admissible_judges_shared_and_own_verdicts(monkeypatch):
    # rows of one genus share every verdict but the second (their own 5.4(4)), as in
    # a real table; every real table is admissible, so these rows are made up
    ok, low = Verdict("a", True, 1, 1), Verdict("b", False, 2, 1)
    own = [Verdict("5.4(4)", True, 0, 0), Verdict("5.4(4)", False, 1, 0),
           Verdict("5.4(4)", True, 0, 0), Verdict("5.4(4)", True, 0, 0)]
    items = [(inv.TypeVector((1, 1, 1, 0)), 1, (ok, own[0], ok)),
             (inv.TypeVector((1, 1, 0, 1)), 1, (ok, own[1], ok)),
             (inv.TypeVector((3, 1, 1, 0)), 2, (ok, own[2], low)),
             (inv.TypeVector((3, 1, 0, 1)), 2, (ok, own[3], low))]
    monkeypatch.setattr(cli.inv, "enumerate_types", lambda n, d: iter(items))
    args = cli._build_parser().parse_args(["enumerate-types", "--n", "1", "--d", "1"])
    rows = list(args.handler(args))
    assert [row["derived"]["admissible"] for row in rows] == [True, False, False, False]
    assert [inv.admissible(row["verdicts"]) for row in rows] == [True, False, False, False]


def _csv_writer_text(rows) -> str:
    """What csv.writer writes for the header and flattened cells of `rows`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{s}.{k}" for s in ("inputs", "derived") for k in rows[0].get(s, {})]
                    + ["verdicts"])
    for row in rows:
        writer.writerow([_flat_value(x) for s in ("inputs", "derived")
                         for x in row.get(s, {}).values()]
                        + ["; ".join(map(_flat_value, row["verdicts"]))])
    return buf.getvalue()


_CSV_TEXT = st.text(st.sampled_from(',"\n\r x;'), max_size=6)
_CSV_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.complex_numbers() | _CSV_TEXT)
_CSV_VALUES = st.recursive(_CSV_SCALARS, lambda inner: st.lists(inner, max_size=2), max_leaves=4)
_CSV_VERDICTS = st.builds(Verdict, _CSV_TEXT, st.booleans(), _CSV_VALUES, _CSV_VALUES,
                          st.booleans())


@st.composite
def _csv_tables(draw):
    inputs, derived = (draw(st.lists(_CSV_TEXT, max_size=2, unique=True)) for _ in range(2))
    shared = draw(st.booleans())  # one inputs object on every row, as enumerate-types has
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = {"inputs": {k: draw(_CSV_VALUES) for k in inputs},
               "derived": {k: draw(_CSV_VALUES) for k in derived},
               "verdicts": draw(st.lists(_CSV_VERDICTS, max_size=2))}
        if shared and rows:
            row["inputs"] = rows[0]["inputs"]
        rows.append(row)
    return rows


@given(_csv_tables())
@example([{"verdicts": []}])  # a row whose only field is empty
@example([{"inputs": {"": ""}, "verdicts": [Verdict('a,"b"\n\r', False, ["\r", ","], None)]}])
def test_csv_rows_write_what_csv_writer_writes(rows):
    text = []
    _csv_rows(rows, text.append)
    assert "".join(text) == _csv_writer_text(rows)
