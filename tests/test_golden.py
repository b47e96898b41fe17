"""Committed stdout bytes for the integer subcommands.

The files under tests/golden/ were written once by the CLI and are
compared byte for byte, in JSON and CSV.  Float output is not pinned here,
since its last digits may differ across platforms."""

import os

import pytest

from ellcover import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

COMMANDS = {
    "enumerate-types-n6-d2": ("enumerate-types", "--n", "6", "--d", "2"),
    "enumerate-types-n40-d3": ("enumerate-types", "--n", "40", "--d", "3"),
    "check-cover-kdv": ("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "2",
                        "--rho", "1", "--m", "1", "--gamma", "2,1,1,1"),
    "check-cover-nls": ("check-cover", "--case", "nls", "--n", "4", "--g", "2",
                        "--gamma", "2,2,2,2", "--placement", "distinct-generic"),
    "check-cover-sg": ("check-cover", "--case", "sg", "--n", "4", "--g", "3",
                       "--gamma", "2,2,1,1", "--placement", "distinct-half-periods"),
    "construct-68": ("construct-68", "--d", "2", "--k", "0", "--mu", "0,1,1,1"),
    "family-6.18": ("family", "--theorem", "6.18", "--alpha", "0,0,0,0"),
    "picard-genus": ("picard-genus", "--class", "3,1,-1,0,0,0,-2,-1,-1,-1"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_bytes(name, fmt, capsys):
    assert cli.run(["--format", fmt, *COMMANDS[name]]) == 0
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode() == expected
