"""The README "Rule catalog" table lists exactly the clauses the
evaluators emit, over every branch: kdv with rho = m = 1 and otherwise,
both two-point families by placement and parity of n, and all six family
maps."""

import os
import re
from itertools import product

from ellcover.errors import InvalidInvariants
from ellcover.invariants import (
    FAMILY_CASES,
    CoverInvariants,
    FamilySpec,
    Placement,
    evaluate_kdv,
    evaluate_nls_toda,
    evaluate_sine_gordon,
    family_params,
)

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
