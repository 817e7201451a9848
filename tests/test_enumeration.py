from _oracles import oracle_tree_texts
from witrees.enumeration import enumerate_trees, iter_multisets, iter_trees
from witrees.multiset import Multiset, count_trees, parse_multiset, set_multiset, uniform_multiset
from witrees.trees import format_tree


def test_against_independent_oracle():
    for m in iter_multisets(5):
        got = {format_tree(t) for t in enumerate_trees(m)}
        assert got == oracle_tree_texts(m.multiplicities), str(m)


def test_small_exact_lists():
    assert [format_tree(t) for t in enumerate_trees(set_multiset(2))] == ["0(1(2))", "0(1,2)"]
    assert [format_tree(t) for t in enumerate_trees(uniform_multiset(1))] == ["0(1)"]
    assert [format_tree(t) for t in enumerate_trees(Multiset(()))] == ["0"]


def test_counts_match_formula():
    for m in iter_multisets(7):
        assert len(list(iter_trees(m))) == count_trees(m), str(m)


def test_sorted_order_contract():
    texts = [format_tree(t) for t in enumerate_trees(parse_multiset("1:2,2:2"))]
    assert texts == sorted(texts)
    assert len(texts) == len(set(texts)) == 18


def test_no_duplicates():
    for m in iter_multisets(6):
        trees = list(iter_trees(m))
        assert len(set(trees)) == len(trees)
