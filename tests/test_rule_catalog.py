"""The README "Rule catalog" table lists exactly the clauses the program
emits, over every branch: kdv with rho = m = 1 and otherwise, both
two-point families by placement and parity of n, all six family maps, and
the handlers of legendre, picard-genus and verify-kdv.  The Picard lattice
is an independent oracle for the catalog's type square bounds and for the
genus of enumerated types."""

import os
import re
from itertools import combinations_with_replacement, product

from ellcover import cli
from ellcover.errors import InvalidInvariants
from ellcover.invariants import (
    FAMILY_CASES,
    CoverInvariants,
    FamilySpec,
    Placement,
    enumerate_types,
    evaluate_kdv,
    evaluate_nls_toda,
    evaluate_sine_gordon,
    family_params,
)
from ellcover.picard import adjunction_genus, cover_class, nls_sg_class, tilde_genus

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _table_clauses() -> set[str]:
    with open(README) as fh:
        section = fh.read().split("## Rule catalog", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {c for row in rows for c in re.findall(r"`([^`]+)`", row.split("|")[1])}


def _emitted_clauses() -> set[str]:
    verdicts = []
    for rho in (1, 3):
        verdicts += evaluate_kdv(CoverInvariants(5, 2, 1, rho, 1, (0, 3, 1, 1)))
    for n in (4, 5):
        for placement in (Placement.DISTINCT_GENERIC, Placement.SAME_PROJECTION):
            verdicts += evaluate_nls_toda(n, 1, (0, 0, 0, 0), placement)
        verdicts += evaluate_sine_gordon(n, 1, (0, 0, 0, 0), Placement.SAME_PROJECTION)
        verdicts += evaluate_sine_gordon(n, 1, (1, 1, 0, 0), Placement.DISTINCT_HALF_PERIODS)
        verdicts += evaluate_sine_gordon(n, 1, (1, 1, 0, 0), Placement.DISTINCT_HALF_PERIODS,
                                         (2, 3))
    for case, alpha in product(FAMILY_CASES, product(range(3), repeat=4)):
        for at_half_period, j0 in product((False, True), (None, 1, 2, 3)):
            try:
                spec = FamilySpec(case, alpha, at_half_period=at_half_period, j0=j0)
            except InvalidInvariants:
                continue
            verdicts += family_params(spec).verdicts
    # the clauses only a CLI handler emits, from one in-process run of each
    for argv in (["legendre", "--omega1", "0.5", "--omega2", "0.5i"],
                 ["picard-genus", "--class", "3,1,-1,0,0,0,-2,-1,-1,-1"],
                 ["verify-kdv", "--omega1", "3.14", "--omega2", "3.14i", "--grid", "40,8"]):
        args = cli._build_parser().parse_args(argv)
        verdicts += [v for row in args.handler(args) for v in row["verdicts"]]
    return {v.clause for v in verdicts}


def test_readme_rule_table_matches_the_catalog():
    emitted = _emitted_clauses()
    # every branch of the two-point bound table and all family restrictions
    numbers = {c.split(" ")[0] for c in emitted}
    assert {f"{t}({k})" for t in ("5.7", "5.8") for k in (2, 3, 4)} <= numbers
    assert {f"{t}({k})" for t in ("6.11", "6.12") for k in (1, 2, 3)} <= numbers
    table = _table_clauses()
    assert sorted(emitted - table) == []
    assert sorted(table - emitted) == []


def test_type_square_bounds_hold_exactly_when_the_descended_genus_is_nonnegative():
    """On parity-admissible inputs up to n = 12 (criterion 5 stops at 10),
    each type square bound holds iff tilde_genus of the matching class is
    >= 0.  Parity is decided here, not by `invariants.flipped_indices`,
    which picard and the evaluators share."""
    same, generic, halves = (Placement.SAME_PROJECTION, Placement.DISTINCT_GENERIC,
                             Placement.DISTINCT_HALF_PERIODS)
    outcomes = {}  # clause -> the verdict values seen
    for n in range(1, 13):
        # 5.5(3) at m = 1; the bound and D^2 are symmetric in gamma_1..3, taken ascending
        for d in range(1, 5):
            for rho in range(1, 2 * d, 2):
                for g0, tail in product(range(7), combinations_with_replacement(range(7), 3)):
                    gamma = (g0, *tail)
                    if sum(gamma) % 2 == 0:  # D^2 = 2n(2d-1) - rho^2 - gamma^(2) is odd
                        continue
                    verdict = evaluate_kdv(CoverInvariants(n, d, 0, rho, 1, gamma))[5]
                    pairs = [(verdict, cover_class(n, d, rho, gamma))]
                    _compare(pairs, outcomes, (n, d, rho, gamma))
        # 5.7(2-4) and 5.8(2-4): the indices i with gamma_i != n (mod 2) pick the placements
        for gamma in product(range(8), repeat=4):
            flipped = tuple(i for i in range(4) if (gamma[i] - n) % 2)
            if not flipped:
                pairs = [(evaluate_nls_toda(n, 0, gamma, generic)[2], nls_sg_class(n, generic, gamma))]
                verdicts = (evaluate_nls_toda(n, 0, gamma, same)[2],
                            evaluate_sine_gordon(n, 0, gamma, same)[2])
                for i in range(4):
                    cls = nls_sg_class(n, same, gamma, (i,))
                    pairs += [(verdict, cls) for verdict in verdicts]
            elif len(flipped) == 2:
                pairs = [(evaluate_sine_gordon(n, 0, gamma, halves, flipped)[2],
                          nls_sg_class(n, halves, gamma, flipped))]
            else:
                continue
            _compare(pairs, outcomes, (n, gamma))
    clauses = {"5.5(3)"} | {f"{t}({k})" for t in ("5.7", "5.8") for k in (2, 3, 4)}
    assert outcomes == {f"{c} type square bound": {True, False} for c in clauses}


def _compare(pairs, outcomes, inputs):
    for verdict, cls in pairs:
        assert verdict.ok == (tilde_genus(cls) >= 0), (verdict, inputs)
        outcomes.setdefault(verdict.clause, set()).add(verdict.ok)


def test_enumerated_genus_is_the_adjunction_genus():
    for n, d in ((10_000, 1), (10_000, 2), (1000, 20)):
        rows = enumerate_types(n, d)
        assert rows
        for row in rows:
            assert adjunction_genus(cover_class(n, d, 1, row.gamma.gamma)) == row.g
