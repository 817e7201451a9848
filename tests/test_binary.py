import pytest
from hypothesis import given, settings

import witrees.binary
from _oracles import (
    oracle_annotation,
    oracle_bstats,
    oracle_btree_valid,
    oracle_orbit,
    oracle_parse_btree,
    subtree_at,
)
from _strategies import corrupted_texts, parse_outcome, weakly_increasing_trees
from witrees.binary import (
    WBTree,
    annotate,
    format_btree,
    modified_preorder,
    orbit,
    parse_btree,
    rho,
    rho_inv,
    swap_branches,
)
from witrees.enumeration import iter_multisets, iter_trees
from witrees.errors import InvalidTreeError, TreeSyntaxError
from witrees.trees import parse_tree, stats


def test_parse_format_round_trip():
    for text in ["0[_|_]", "0[1[_|_]|_]", "0[1[_|2[_|_]]|_]", "0[1[1[_|_]|2[_|2[_|_]]]|_]"]:
        assert format_btree(parse_btree(text)) == text


def test_parse_rejects_invalid():
    with pytest.raises(InvalidTreeError, match="node 0 of a weakly increasing binary tree has no right child"):
        parse_btree("0[1[_|_]|2[_|_]]")  # right child at the root
    with pytest.raises(InvalidTreeError):
        parse_btree("1[2[_|_]|_]")  # root not 0
    with pytest.raises(InvalidTreeError):
        parse_btree("0[2[1[_|_]|_]|_]")  # decreasing path
    with pytest.raises(InvalidTreeError, match="2 precedes 1 under node 0"):
        parse_btree("0[2[_|1[_|_]]|_]")  # right sibling below its left one
    with pytest.raises(TreeSyntaxError):
        parse_btree("0[1[_|_]")
    with pytest.raises(TreeSyntaxError):
        parse_btree("_")
    with pytest.raises(TreeSyntaxError, match="expected a label or '_'") as err:
        parse_btree("0[²[_|_]|_]")  # a digit to str.isdigit, not to int()
    assert err.value.position == 2
    with pytest.raises(TreeSyntaxError, match="label of 5000 digits is too long") as err:
        parse_btree("0[" + "1" * 5000 + "[_|_]|_]")  # past int()'s digit limit
    assert err.value.position == 2
    with pytest.raises(TreeSyntaxError, match="expected a label or '_'") as err:
        parse_btree("")
    assert err.value.position == 0


def _labelled_btrees(n, labels):
    """Every binary tree with n nodes, each node carrying any of `labels`."""
    if n == 0:
        yield None
        return
    for k in range(n):
        for left in _labelled_btrees(k, labels):
            for right in _labelled_btrees(n - 1 - k, labels):
                for label in labels:
                    yield WBTree(label, left, right)


def test_parse_validates_like_the_binary_oracle():
    """Validation through the plane tree accepts exactly the trees that the
    binary invariants accept, over every labelled binary tree with at most
    5 nodes and labels 0..3."""
    trees = [b for n in range(1, 6) for b in _labelled_btrees(n, range(4))]
    assert len(trees) == 46948
    for b in trees:
        try:
            accepted = parse_btree(format_btree(b)) == b
        except InvalidTreeError:
            accepted = False
        assert accepted == oracle_btree_valid(b), format_btree(b)


def test_single_edge_stats():
    v = annotate(rho(parse_tree("0(1)"))).stats
    assert v.ell == 1  # only the root sits on an even left-level
    # the root has right-degree 1 (= its plane degree), node 1 has 0 on an
    # odd left-level; matches (odd, oe, ee) = (1, 1, 0) of the plane tree
    assert v.oler == 1 and v.eler == 0 and v.ord == 1
    assert v.rdeg == {0: 1, 1: 1}


def test_parse_agrees_with_the_earlier_parser():
    """`parse_btree` returns the same tree, or raises the same class with
    the same message and position, as the earlier parser over every binary
    tree text with p <= 6, every labelled binary tree with at most 4 nodes
    and labels 0..3, and a seeded corpus of corrupted texts."""
    valid = [format_btree(rho(t)) for m in iter_multisets(6) for t in iter_trees(m)]
    labelled = [format_btree(b) for n in range(1, 5) for b in _labelled_btrees(n, range(4))]
    corrupted = corrupted_texts(valid, "0123456789[]|_ ²٣", 20000, seed=33)
    assert len(valid) == 13748 and len(labelled) == 3940
    for text in valid + labelled + corrupted:
        assert parse_outcome(parse_btree, text) == parse_outcome(oracle_parse_btree, text), text


def test_parse_of_a_valid_text_makes_no_plane_tree(monkeypatch):
    """A text that breaks no rule as it is read never reaches `rho_inv`: no
    valid binary tree with p <= 6 is converted to validate it."""
    texts = [format_btree(rho(t)) for m in iter_multisets(6) for t in iter_trees(m)]
    calls = []
    monkeypatch.setattr(witrees.binary, "rho_inv", lambda b: calls.append(b) or rho_inv(b))
    assert [format_btree(parse_btree(text)) for text in texts] == texts
    assert len(texts) == 13748 and calls == []


def test_right_degree_matches_plane_degree():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            sv, bv = stats(t), annotate(rho(t)).stats
            assert sv.deg == bv.rdeg and sv.od == bv.rol
            assert (sv.el, sv.odd, sv.oe, sv.ee) == (bv.ell, bv.ord, bv.oler, bv.eler)
            assert (sv.act, sv.eact, sv.oact) == (bv.act, bv.eact, bv.oact)


def test_dynamic_bookkeeping():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            v = annotate(rho(t)).stats
            assert v.dme == 2 * v.eact and v.dmo == 2 * v.oact
            assert v.dme + v.ndoler == v.oler and v.dmo + v.ndord == v.ord
            assert v.ndoler == v.ndord
            assert m.size + 1 == v.oler + v.ord + v.eler


def test_modified_preorder_base_cases():
    assert modified_preorder(annotate(parse_btree("0[_|_]"))) == [()]
    # a pure left chain with no active nodes is plain preorder
    chain = parse_btree("0[1[2[_|_]|_]|_]")
    assert modified_preorder(annotate(chain)) == [(), (0,), (0, 0)]


def test_preorder_all_nodes_once():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            b = rho(t)
            order = modified_preorder(annotate(b))
            assert order[0] == ()
            assert len(order) == m.size + 1
            assert len(set(order)) == len(order)
            for path in order:
                subtree_at(b, path)  # path is realisable


def test_swap_identity_on_inactive():
    b = rho(parse_tree("0(1(2))"))
    ann = annotate(b)
    for i in range(1, 3):
        if not ann.active[i]:
            assert swap_branches(ann, i) is b


def test_swap_involution_small():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            b = rho(t)
            ann = annotate(b)
            for i in range(1, m.size + 1):
                assert swap_branches(annotate(swap_branches(ann, i)), i) == b


def test_swap_index_range():
    ann = annotate(rho(parse_tree("0(1)")))
    with pytest.raises(IndexError):
        swap_branches(ann, 0)
    with pytest.raises(IndexError):
        swap_branches(ann, 2)


def test_orbit_sizes_are_powers_of_two():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            b = rho(t)
            orb = orbit(b)
            assert len(orb) & (len(orb) - 1) == 0
            reps = [member.ann.stats for member in orb if member.ann.stats.eact == 0]
            assert len(reps) == 1
            assert len(orb) == 2 ** reps[0].act


def test_inactive_tree_orbit_is_singleton():
    b = rho(parse_tree("0(1(2))"))
    if annotate(b).stats.act == 0:
        assert [member.ann.nodes[0] for member in orbit(b)] == [b]


def test_orbit_swaps_index_the_member_they_reach():
    """Member swaps[i-1] holds the swap at position i of every member,
    and the members come in the discovery order of the tree-keyed
    closure, with b first."""
    for m in iter_multisets(6):
        for t in iter_trees(m):
            b = rho(t)
            orb = orbit(b)
            trees = [member.ann.nodes[0] for member in orb]
            want = oracle_orbit(b)
            assert trees[0] is b
            assert trees == list(want), format_btree(b)
            for tree, (ann, swaps) in zip(trees, orb):
                assert len(swaps) == len(ann.nodes) - 1
                for i, k in enumerate(swaps, start=1):
                    assert trees[k] == swap_branches(ann, i) == want[tree][1][i - 1], (format_btree(tree), i)


def test_wbtree_str():
    assert str(WBTree(0, WBTree(1), None)) == "0[1[_|_]|_]"


def test_annotation_matches_path_keyed_oracle():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            b = rho(t)
            ann = annotate(b)
            want = oracle_annotation(b)
            assert hash(ann) == hash(b)
            paths = modified_preorder(ann)
            assert paths == want["order"], format_btree(b)
            assert [subtree_at(b, q) for q in paths] == ann.nodes
            assert ann.rdeg == [want["rdeg"][q] for q in paths]
            assert ann.active == [want["active"][q] for q in paths]
            assert [paths[a] if a >= 0 else None for a in ann.ancestor] == [want["ancestor"][q] for q in paths]
            for k in range(1, len(paths)):
                par = ann.parent[k]
                assert paths[k][:-1] == paths[par]
                assert k == (ann.left[par] if paths[k][-1] == 0 else ann.right[par])
            assert {paths[k] for k in ann.dyn_even} == want["dyn_even"]
            assert {paths[k] for k in ann.dyn_odd} == want["dyn_odd"]


def test_stats_match_two_pass_oracle():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            b = rho(t)
            ann = annotate(b)
            assert ann.stats == oracle_bstats(ann), format_btree(b)
            for member in orbit(b):
                assert member.ann.stats == oracle_bstats(member.ann), format_btree(member.ann.nodes[0])


def _bookkeeping_holds(ann, p: int) -> bool:
    v = ann.stats
    return (
        v.dme == 2 * v.eact
        and v.dmo == 2 * v.oact
        and v.dme + v.ndoler == v.oler
        and v.dmo + v.ndord == v.ord
        and v.ndoler == v.ndord
        and p + 1 == v.oler + v.ord + v.eler
    )


@settings(max_examples=150, deadline=None)
@given(weakly_increasing_trees())
def test_swap_laws_past_exhaustive_bound(t):
    b = rho(t)
    ann = annotate(b)
    p = len(ann.nodes) - 1
    labels = [node.label for node in ann.nodes]
    assert _bookkeeping_holds(ann, p)
    swapped = {}
    for i in range(1, p + 1):
        nb = swap_branches(ann, i)
        if not ann.active[i]:
            assert nb is b
            continue
        nann = annotate(nb)
        assert swap_branches(nann, i) == b
        assert [node.label for node in nann.nodes] == labels
        assert nann.active == ann.active
        assert (nann.rdeg[i] - ann.rdeg[i]) % 2 == 1
        assert _bookkeeping_holds(nann, p)
        swapped[i] = nann
    for member in orbit(b):
        assert member.ann.stats == oracle_bstats(member.ann)
    active = list(swapped)
    for a, i in enumerate(active):
        for j in active[a + 1:]:
            assert swap_branches(swapped[i], j) == swap_branches(swapped[j], i)
