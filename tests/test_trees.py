from itertools import product

import pytest

from _oracles import oracle_parse_tree, parity_counts, plane_shapes
from _strategies import corrupted_texts, parse_outcome
from witrees.enumeration import iter_multisets, iter_trees
from witrees.trees import (
    InvalidTreeError,
    TreeSyntaxError,
    WTree,
    format_tree,
    parse_tree,
    stats,
)


def test_parse_format_round_trip():
    for text in ["0", "0(1)", "0(1(2),1)", "0(1,1,2(3,3))", "0(1(1(1)))"]:
        assert format_tree(parse_tree(text)) == text


def test_parse_examples():
    t = parse_tree("0(1(2),1)")
    assert t.label == 0
    assert [c.label for c in t.children] == [1, 1]
    assert t.children[0].children[0].label == 2
    assert parse_tree("0") == WTree(0, ())


def test_parse_rejects_sibling_disorder():
    with pytest.raises(InvalidTreeError, match="weakly increase left to right"):
        parse_tree("0(2,1)")
    # of two violations, the one `validate_tree` meets first: the sibling
    # order under the root, not the path below 1
    with pytest.raises(InvalidTreeError) as err:
        parse_tree("0(2,1(0))")
    assert str(err.value) == "children labels must weakly increase left to right: 2 precedes 1 under node 0"


def test_parse_rejects_decreasing_path():
    with pytest.raises(InvalidTreeError, match="root-to-leaf"):
        parse_tree("0(2(1))")


def test_parse_rejects_bad_root():
    with pytest.raises(InvalidTreeError, match="root"):
        parse_tree("1(2)")


def test_syntax_errors_carry_position():
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree("0(1,")
    assert err.value.position == 4
    with pytest.raises(TreeSyntaxError):
        parse_tree("0(1))")
    with pytest.raises(TreeSyntaxError):
        parse_tree("(1)")
    with pytest.raises(TreeSyntaxError, match="expected a label") as err:
        parse_tree("0(²)")  # a digit to str.isdigit, not to int()
    assert err.value.position == 2
    with pytest.raises(TreeSyntaxError, match="label of 5000 digits is too long") as err:
        parse_tree("0(" + "1" * 5000 + ")")  # past int()'s digit limit
    assert err.value.position == 2


def _labelled_trees(n, labels):
    """Every plane tree with n nodes, each node carrying any of `labels`."""
    def build(shape, word):  # labels in preorder
        return WTree(next(word), tuple(build(c, word) for c in shape))

    for shape in plane_shapes(n):
        for word in product(labels, repeat=n):
            yield build(shape, iter(word))


def test_parse_agrees_with_the_recursive_descent_oracle():
    """The one-pass parser returns the same tree, or raises the same class
    with the same message and position, as the earlier parser that
    validated in a second walk: over every tree text with p <= 6, every
    labelled tree with at most 5 nodes and labels 0..3 (valid or not), and
    a seeded corpus of corrupted texts."""
    valid = [format_tree(t) for m in iter_multisets(6) for t in iter_trees(m)]
    labelled = [format_tree(t) for n in range(1, 6) for t in _labelled_trees(n, range(4))]
    corrupted = corrupted_texts(valid, "0123456789(), ²٣", 20000, seed=33)
    assert len(valid) == 13748 and len(labelled) == 15764
    for text in valid + labelled + corrupted + ["0(2,1(0))"]:
        assert parse_outcome(parse_tree, text) == parse_outcome(oracle_parse_tree, text), text


def test_single_node_stats():
    sv = stats(parse_tree("0"))
    assert (sv.leaf, sv.el, sv.ee, sv.odd, sv.oe, sv.act) == (1, 1, 1, 0, 0, 0)
    assert sv.deg == {0: 1} and sv.od == {}


def test_one_edge_stats():
    sv = stats(parse_tree("0(1)"))
    assert (sv.odd, sv.oe, sv.ee, sv.leaf, sv.el) == (1, 1, 0, 1, 1)
    assert sv.oddf == 2  # both nodes have full-degree 1


def test_stat_identities_small():
    for m in iter_multisets(5):
        p = m.size
        for t in iter_trees(m):
            sv = stats(t)
            root_deg = len(t.children)
            assert sv.ee + sv.oe + sv.odd == p + 1
            assert (p + 1 - sv.ee) % 2 == 0
            assert sv.odd == sum(c for q, c in sv.deg.items() if q % 2 == 1)
            assert sv.oe == sum(c for q, c in sv.od.items() if q % 2 == 0)
            assert sv.oe_star == sv.oe
            assert sv.act == sv.eact + sv.oact
            assert sum(q * c for q, c in sv.deg.items()) == p
            assert sv.oddf == sv.oe + sv.ee_star + (root_deg % 2)
            ee, oe, odd, oo, leaf, rd = parity_counts(t)
            assert (ee, oe, odd) == (sv.ee, sv.oe, sv.odd)
            assert oo == sv.oo and leaf == sv.leaf and rd == root_deg


def test_stats_as_dict_is_json_ready():
    d = stats(parse_tree("0(1(2),1)")).as_dict()
    assert d["deg"] == {"0": 2, "1": 1, "2": 1}
    assert set(d) >= {"leaf", "el", "odd", "oe", "ee", "act", "deg", "od"}


def test_stats_key_is_equal_exactly_when_the_vectors_are():
    """Over every tree with p <= 5, each vector equals the first one seen
    with its key, and there are as many keys as distinct vectors."""
    by_key = {}
    distinct = []
    for m in iter_multisets(5):
        for t in iter_trees(m):
            sv = stats(t)
            assert by_key.setdefault(sv.key(), sv) == sv
            if sv not in distinct:
                distinct.append(sv)
    assert len(by_key) == len(distinct)
