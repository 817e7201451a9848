"""Acceptance battery: every criterion at its full size, one line each.

The battery is `witrees verify --suite all --max-size 8`: one call of
`run_suites(None, max_size=8, max_nodes=10)`, made once for the module,
whose sized checks share one enumeration pass over all multisets with
p <= 8 (about two million trees).  Each criterion asserts that its own
lines PASS.  Run with `pytest -s tests/test_acceptance.py` to see the
lines and the pass's total time; it takes a few minutes of pure-Python
time, so the module is marked `slow` (`pytest -m "not slow"` skips it).
"""

import time

import pytest

from witrees.census import schett_of
from witrees.enumeration import enumerate_trees, iter_trees
from witrees.gamma import gamma_expand, reduced_table
from witrees.jacobi import euler_numbers
from witrees.multiset import count_trees, parse_multiset
from witrees.verify import run_suites, suite_checks

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def battery():
    """suite name -> its results in the one fused run at p <= 8."""
    t0 = time.perf_counter()
    results = run_suites(None, max_size=8, max_nodes=10)
    print(f"\nverify --suite all --max-size 8: {len(results)} checks in {time.perf_counter() - t0:.1f}s")
    by_suite: dict = {}
    names = [name for name, jobs in suite_checks().items() for _ in jobs]
    for name, result in zip(names, results, strict=True):
        by_suite.setdefault(name, []).append(result)
    return by_suite


def _report(number: int, title: str, result) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if result.passed else 'FAIL'}  {title}: {result.detail}")
    assert result.passed, f"criterion {number} ({title}): {result.detail}"


def test_criterion_01_counting(battery):
    m = parse_multiset("1:2,2:2")
    pairs = enumerate_trees(m)
    assert count_trees(m) == 18 and len(pairs) == len({text for text, _ in pairs}) == 18
    _report(1, "counting, p <= 8", battery["counting"][0])
    _report(1, "statistic identities, p <= 6", battery["stats"][0])


def test_criterion_02_schett_polynomials(battery):
    _report(2, "Schett polynomials (displays, n!, dual path)", battery["schett"][0])


def test_criterion_03_symmetry_and_tilde(battery):
    _report(3, "refined symmetries, p <= 8", battery["symmetry"][0])
    _report(3, "tilde involution with transport, p <= 8", battery["tilde"][0])
    _report(3, "psi/theta root-excluded transports, p <= 6", battery["psi-theta"][0])


def test_criterion_04_hat_bijection(battery):
    _report(4, "hat bijection transport, p <= 8", battery["hat"][0])
    _report(4, "full-degree doubling, p <= 8", battery["full-degree"][0])


def test_criterion_05_gamma_expansion(battery):
    reduced = reduced_table(schett_of(iter_trees(parse_multiset("1:2,2:2"))), 4)
    assert gamma_expand(reduced, 4) == {(1, 0): 3, (0, 0): 1, (0, 1): 8}
    _report(5, "gamma tables vs active-node counts, p <= 8", battery["gamma"][0])


def test_criterion_06_group_action(battery):
    _report(6, "branch-swap action and orbits, p <= 8", battery["action"][0])
    _report(6, "binary correspondence and bookkeeping, p <= 6", battery["binary"][0])


def test_criterion_07_generating_functions(battery):
    _report(7, "generating function displays and residuals, t^8", battery["series"][0])


def test_criterion_08_closed_forms(battery):
    _report(8, "closed forms vs enumeration (9 edges), ternary n <= 20", battery["closed-forms"][0])


def test_criterion_09_jacobi_coefficients(battery):
    _report(9, "elliptic coefficient tables through u^9", battery["jacobi"][0])


def test_criterion_10_euler_numbers(battery):
    assert euler_numbers(8)[8] == 1385  # read off the elliptic tables at m = 1, not hardcoded
    _report(10, "Euler-number tree counts, n <= 8", battery["euler"][0])


def test_criterion_11_real_rootedness(battery):
    _report(11, "real-rootedness scan, nodes <= 10", battery["conjecture"][0])
    _report(11, "real-rootedness of every multiset's slices, p <= 8", battery["conjecture"][1])


def test_criterion_12_st_relations(battery):
    _report(12, "s/t table relations, m <= 4", battery["schett"][1])
