import pytest
from hypothesis import given, settings

from _oracles import oracle_annotation, subtree_at
from _strategies import weakly_increasing_trees
from witrees.binary import (
    BTreeSyntaxError,
    InvalidBTreeError,
    WBTree,
    annotate,
    bstats,
    dynamic_sets,
    format_btree,
    modified_preorder,
    orbit,
    parse_btree,
    swap_branches,
)
from witrees.enumeration import iter_multisets, iter_trees
from witrees.transforms import rho
from witrees.trees import parse_tree, stats


def test_parse_format_round_trip():
    for text in ["0[_|_]", "0[1[_|_]|_]", "0[1[_|2[_|_]]|_]", "0[1[1[_|_]|2[_|2[_|_]]]|_]"]:
        assert format_btree(parse_btree(text)) == text


def test_parse_rejects_invalid():
    with pytest.raises(InvalidBTreeError):
        parse_btree("0[1[_|_]|2[_|_]]")  # right child at the root
    with pytest.raises(InvalidBTreeError):
        parse_btree("1[2[_|_]|_]")  # root not 0
    with pytest.raises(InvalidBTreeError):
        parse_btree("0[2[1[_|_]|_]|_]")  # decreasing path
    with pytest.raises(BTreeSyntaxError):
        parse_btree("0[1[_|_]")
    with pytest.raises(BTreeSyntaxError):
        parse_btree("_")


def test_single_edge_stats():
    b = rho(parse_tree("0(1)"))
    v = bstats(b)
    assert v.ell == 1  # only the root sits on an even left-level
    # the root has right-degree 1 (= its plane degree), node 1 has 0 on an
    # odd left-level; matches (odd, oe, ee) = (1, 1, 0) of the plane tree
    assert v.oler == 1 and v.eler == 0 and v.ord == 1
    assert v.rdeg == {0: 1, 1: 1}


def test_right_degree_matches_plane_degree():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            sv, bv = stats(t), bstats(rho(t))
            assert sv.deg == bv.rdeg and sv.od == bv.rol
            assert (sv.el, sv.odd, sv.oe, sv.ee) == (bv.ell, bv.ord, bv.oler, bv.eler)
            assert (sv.act, sv.eact, sv.oact) == (bv.act, bv.eact, bv.oact)


def test_dynamic_bookkeeping():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            v = bstats(rho(t))
            assert v.dme == 2 * v.eact and v.dmo == 2 * v.oact
            assert v.dme + v.ndoler == v.oler and v.dmo + v.ndord == v.ord
            assert v.ndoler == v.ndord
            assert m.size + 1 == v.oler + v.ord + v.eler


def test_modified_preorder_base_cases():
    assert modified_preorder(parse_btree("0[_|_]")) == [()]
    # a pure left chain with no active nodes is plain preorder
    chain = parse_btree("0[1[2[_|_]|_]|_]")
    assert modified_preorder(chain) == [(), (0,), (0, 0)]


def test_preorder_all_nodes_once():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            b = rho(t)
            order = modified_preorder(b)
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
            assert swap_branches(b, i) == b


def test_swap_involution_small():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            b = rho(t)
            for i in range(1, m.size + 1):
                assert swap_branches(swap_branches(b, i), i) == b


def test_swap_index_range():
    b = rho(parse_tree("0(1)"))
    with pytest.raises(IndexError):
        swap_branches(b, 0)
    with pytest.raises(IndexError):
        swap_branches(b, 2)


def test_orbit_sizes_are_powers_of_two():
    for m in iter_multisets(5):
        for t in iter_trees(m):
            b = rho(t)
            orb = orbit(b)
            assert len(orb) & (len(orb) - 1) == 0
            reps = [x for x in orb if bstats(x).eact == 0]
            assert len(reps) == 1
            assert len(orb) == 2 ** bstats(reps[0]).act


def test_inactive_tree_orbit_is_singleton():
    b = rho(parse_tree("0(1(2))"))
    if bstats(b).act == 0:
        assert set(orbit(b)) == {b}


def test_wbtree_str():
    assert str(WBTree(0, WBTree(1), None)) == "0[1[_|_]|_]"


def test_annotation_matches_path_keyed_oracle():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            b = rho(t)
            ann = annotate(b)
            want = oracle_annotation(b)
            paths = modified_preorder(b, ann)
            assert paths == want["order"], format_btree(b)
            assert [subtree_at(b, q) for q in paths] == ann.nodes
            assert ann.left_level == [want["left_level"][q] for q in paths]
            assert ann.rdeg == [want["rdeg"][q] for q in paths]
            assert ann.active == [want["active"][q] for q in paths]
            assert [paths[a] if a >= 0 else None for a in ann.ancestor] == [want["ancestor"][q] for q in paths]
            for k in range(1, len(paths)):
                par = ann.parent[k]
                assert paths[k][:-1] == paths[par]
                assert k == (ann.left[par] if paths[k][-1] == 0 else ann.right[par])
            dyn_even, dyn_odd = dynamic_sets(ann)
            assert {paths[k] for k in dyn_even} == want["dyn_even"]
            assert {paths[k] for k in dyn_odd} == want["dyn_odd"]


def _bookkeeping_holds(b: WBTree, p: int) -> bool:
    v = bstats(b)
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
    assert _bookkeeping_holds(b, p)
    swapped = {}
    for i in range(1, p + 1):
        nb = swap_branches(b, i, ann)
        if not ann.active[i]:
            assert nb == b
            continue
        nann = annotate(nb)
        assert swap_branches(nb, i, nann) == b
        assert [node.label for node in nann.nodes] == labels
        assert nann.active == ann.active
        assert (nann.rdeg[i] - ann.rdeg[i]) % 2 == 1
        assert _bookkeeping_holds(nb, p)
        swapped[i] = (nb, nann)
    active = list(swapped)
    for a, i in enumerate(active):
        for j in active[a + 1:]:
            (bi, ai), (bj, aj) = swapped[i], swapped[j]
            assert swap_branches(bi, j, ai) == swap_branches(bj, i, aj)
