"""Example battery: each worked example and supporting statement runs at its
full stated range with exact equality and prints one pass/fail line (use
``pytest -s`` to see them).

Budgets are several times the serial time of a check on a 2-core x86-64 VM
(E09 ~3 s, E03 ~2 s, every other check under 1 s).
"""

import pytest

from tubelat.verify import EXAMPLE_CHECKS, _run_one

BUDGETS = {"E03": 30.0, "E09": 60.0}  # seconds; every other check gets 10


@pytest.mark.parametrize("item", EXAMPLE_CHECKS, ids=[name[:3] for name, _ in EXAMPLE_CHECKS])
def test_example_check(item):
    result = _run_one(item, max_n=None)
    print(result.line())
    assert result.ok, f"{result.name}: {result.detail}"
    budget = BUDGETS.get(result.name[:3], 10.0)
    assert result.seconds < budget, f"{result.name} took {result.seconds:.1f}s, budget {budget}s"
