import pytest

from _oracles import parity_counts
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
