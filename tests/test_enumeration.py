import gc

import pytest

from _oracles import oracle_tree_texts
from witrees.binary import rho_all
from witrees.enumeration import enumerate_trees, iter_multisets, iter_trees
from witrees.multiset import Multiset, count_trees, parse_multiset, set_multiset, uniform_multiset
from witrees.trees import format_tree, format_trees


def _texts(m):
    """The texts of `enumerate_trees(m)`, each checked to be its tree's."""
    pairs = enumerate_trees(m)
    assert all(text == format_tree(t) for text, t in pairs), str(m)
    return [text for text, _ in pairs]


def test_against_independent_oracle():
    for m in iter_multisets(5):
        assert set(_texts(m)) == oracle_tree_texts(m.multiplicities), str(m)


def test_texts_of_heavily_shared_subtrees():
    """[7] has 40,320 tree nodes in 7,412 distinct node objects; {1^10} shares
    its subtrees as much.  Each text is its tree's, in sorted order."""
    for m, count in ((set_multiset(7), 5040), (uniform_multiset(10), 16796)):
        texts = _texts(m)
        assert texts == sorted(texts)
        assert len(set(texts)) == count, str(m)


def test_small_exact_lists():
    assert _texts(set_multiset(2)) == ["0(1(2))", "0(1,2)"]
    assert _texts(uniform_multiset(1)) == ["0(1)"]
    assert _texts(Multiset(())) == ["0"]


def test_counts_match_formula():
    for m in iter_multisets(7):
        assert len(list(iter_trees(m))) == count_trees(m), str(m)


def test_sorted_order_contract():
    texts = _texts(parse_multiset("1:2,2:2"))
    assert texts == sorted(texts)
    assert len(texts) == len(set(texts)) == 18


def test_no_duplicates():
    for m in iter_multisets(6):
        trees = list(iter_trees(m))
        assert len(set(trees)) == len(trees)


@pytest.mark.parametrize("call", ["iter_trees", "format_trees", "rho_all"])
def test_per_call_memos_leave_no_reference_cycle(call):
    """A per-call memo goes with the call, not at the next cyclic
    collection: with the collector off, a collection right after the call
    finds nothing."""
    m = parse_multiset("1:2,2:2,3:2")
    trees = list(iter_trees(m))
    run = {
        "iter_trees": lambda: list(iter_trees(m)),
        "format_trees": lambda: format_trees(trees),
        "rho_all": lambda: rho_all(trees),
    }[call]
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
