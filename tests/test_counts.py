from collections import Counter
from math import comb

import pytest

from _oracles import parity_counts
from witrees.counts import (
    fish_count,
    jaco2_count,
    plane_tree_count,
    six_term_count,
    ternary_identity,
)
from witrees.enumeration import iter_trees
from witrees.multiset import uniform_multiset

MAX_EDGES = 7


def _histogram(max_edges):
    hist = Counter()
    for k in range(max_edges + 1):
        for t in iter_trees(uniform_multiset(k)):
            ee, oe, odd, oo, _, _ = parity_counts(t)
            hist[(oe, ee, oo, odd - oo)] += 1
    return hist


def test_counts_match_enumeration():
    hist = _histogram(MAX_EDGES)
    top = MAX_EDGES + 1
    for i in range(top + 1):
        for j in range(top + 1):
            for k in range(top + 1):
                for l in range(top + 1):
                    if not 0 < i + j + k + l <= top:
                        continue
                    want = hist.get((i, j, k, l), 0)
                    assert plane_tree_count(i, j, k, l) == want, (i, j, k, l)
                    assert six_term_count(i, j, k, l) == want, (i, j, k, l)


def test_root_only_tree():
    assert plane_tree_count(0, 1, 0, 0) == 1
    assert six_term_count(0, 1, 0, 0) == 1


def test_one_edge_tree():
    assert plane_tree_count(1, 0, 0, 1) == 1


def test_total_is_catalan():
    for n in range(10):
        total = 0
        for i in range(n + 2):
            for j in range(n + 2):
                for k in range(n + 2):
                    l = n + 1 - i - j - k
                    if l >= 0:
                        total += plane_tree_count(i, j, k, l)
        assert total == comb(2 * n, n) // (n + 1), n


def test_zero_odd_counts():
    hist = _histogram(MAX_EDGES)
    assert jaco2_count(0, 0) == 1
    for i in range(4):
        for j in range(4):
            if 2 * (i + j) > MAX_EDGES:
                continue
            want = sum(
                c for (oe, ee, oo, eo), c in hist.items()
                if oo + eo == 0 and oe == 2 * i and ee == 2 * j + 1
            )
            assert jaco2_count(i, j) == want, (i, j)


def test_zero_ee_counts_and_symmetry():
    hist = _histogram(MAX_EDGES)
    assert fish_count(0, 0) == 1
    for i in range(4):
        for j in range(4):
            assert fish_count(i, j) == fish_count(j, i)
            if 2 * (i + j) + 2 > MAX_EDGES:
                continue
            want = sum(
                c for (oe, ee, oo, eo), c in hist.items()
                if ee == 0 and oe == 2 * i + 1 and oo + eo == 2 * j + 1
            )
            assert fish_count(i, j) == want, (i, j)


def test_ternary_identity():
    for n in range(1, 21):
        lhs, rhs = ternary_identity(n)
        assert lhs == rhs, n
    # left side is the ternary-tree count
    assert ternary_identity(3)[0] == 12
    with pytest.raises(ValueError):
        ternary_identity(0)


def test_impossible_classes_are_zero():
    assert plane_tree_count(0, 0, 0, 0) == 0
    assert plane_tree_count(0, 3, 0, 0) == 0  # extra even-level ee nodes need edges
    assert plane_tree_count(1, 1, 1, 0) == 0  # fails the half-integrality
