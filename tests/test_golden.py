"""Committed stdout bytes for the integer subcommands.

The files under tests/golden/ were written once by the CLI and are
compared byte for byte, in JSON and CSV, together with the exit code.
Float output is not pinned here, since its last digits may differ across
platforms.  Tables too large to commit are pinned by the sha256 of their
bytes instead."""

import hashlib
import os

import pytest

from ellcover import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# name -> (expected exit code, argv)
COMMANDS = {
    "enumerate-types-n6-d2": (0, ("enumerate-types", "--n", "6", "--d", "2")),
    "enumerate-types-n40-d3": (0, ("enumerate-types", "--n", "40", "--d", "3")),
    "check-cover-kdv": (0, ("check-cover", "--case", "kdv", "--n", "3", "--d", "1", "--g", "2",
                            "--rho", "1", "--m", "1", "--gamma", "2,1,1,1")),
    "check-cover-kdv-rho3": (0, ("check-cover", "--case", "kdv", "--n", "5", "--d", "2",
                                 "--g", "1", "--rho", "3", "--gamma", "0,3,1,1")),
    "check-cover-nls": (0, ("check-cover", "--case", "nls", "--n", "4", "--g", "2",
                            "--gamma", "2,2,2,2", "--placement", "distinct-generic")),
    "check-cover-nls-same-even": (0, ("check-cover", "--case", "nls", "--n", "4", "--g", "2",
                                      "--gamma", "2,2,2,0", "--placement", "same-projection")),
    "check-cover-nls-same-odd": (0, ("check-cover", "--case", "nls", "--n", "5", "--g", "2",
                                     "--gamma", "1,1,1,3", "--placement", "same-projection")),
    "check-cover-sg": (0, ("check-cover", "--case", "sg", "--n", "4", "--g", "3",
                           "--gamma", "2,2,1,1", "--placement", "distinct-half-periods")),
    "check-cover-sg-half-periods-violated": (1, ("check-cover", "--case", "sg", "--n", "4",
                                                 "--g", "3", "--gamma", "2,2,2,2",
                                                 "--placement", "distinct-half-periods")),
    "check-cover-sg-same-even": (0, ("check-cover", "--case", "sg", "--n", "4", "--g", "3",
                                     "--gamma", "2,2,2,0", "--placement", "same-projection")),
    "check-cover-sg-same-odd": (0, ("check-cover", "--case", "sg", "--n", "5", "--g", "3",
                                    "--gamma", "1,1,1,3", "--placement", "same-projection")),
    "construct-68": (0, ("construct-68", "--d", "2", "--k", "0", "--mu", "0,1,1,1")),
    "family-6.13-half-period": (0, ("family", "--theorem", "6.13", "--alpha", "0,0,0,0",
                                    "--at-half-period")),
    "family-6.14": (0, ("family", "--theorem", "6.14", "--alpha", "1,1,0,0")),
    "family-6.14-half-period": (0, ("family", "--theorem", "6.14", "--alpha", "1,0,0,0",
                                    "--at-half-period")),
    "family-6.15": (0, ("family", "--theorem", "6.15", "--alpha", "0,1,0,1")),
    "family-6.16": (0, ("family", "--theorem", "6.16", "--alpha", "1,1,0,2")),
    "family-6.17": (0, ("family", "--theorem", "6.17", "--alpha", "1,0,1,1", "--j0", "1")),
    "family-6.18": (0, ("family", "--theorem", "6.18", "--alpha", "0,0,0,0")),
    "picard-genus": (0, ("picard-genus", "--class", "3,1,-1,0,0,0,-2,-1,-1,-1")),
    "picard-genus-half": (0, ("picard-genus", "--class", "0,1,0,0,0,0,-2,0,0,0")),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_bytes(name, fmt, capsys):
    code, argv = COMMANDS[name]
    assert cli.run(["--format", fmt, *argv]) == code
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode() == expected


# (n, d) -> sha256 of stdout per format; 2,437 and 8,988 rows, exit code 0
LARGE_TABLES = {
    (1000, 4): {
        "json": "e2eadc2c9483e947fc1c136a43504387c33c8fcdcae9b7c531d24193654711b0",
        "csv": "0e24cb6cb3a80ed5e0879fac84cfd8f62a6d1da5ad13ed986f14d67d76d0781d",
    },
    (500, 20): {
        "json": "a621fc116b473d1952fccf4578c9e07980a0f22f68d862beb79189d920081a31",
        "csv": "9af80cef90e76737fc70a31de74905ad89ec0efb5a71e28d943a653dca456fc8",
    },
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n,d", sorted(LARGE_TABLES))
def test_large_enumeration_matches_golden_digest(n, d, fmt, capsys):
    argv = ["--format", fmt, "enumerate-types", "--n", str(n), "--d", str(d)]
    assert cli.run(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == LARGE_TABLES[(n, d)][fmt]
