import pytest
from hypothesis import given, settings

from _oracles import oracle_tilde
from _strategies import weakly_increasing_trees
from witrees.binary import format_btree, rho, rho_all, rho_inv
from witrees.enumeration import iter_multisets, iter_trees
from witrees.multiset import set_multiset
from witrees.transforms import hat, psi, theta, tilde
from witrees.trees import format_tree, parse_tree, stats


def _deg_od_el(sv):
    return sv.deg, sv.od, sv.el


def test_hat_fixed_points():
    assert format_tree(hat(parse_tree("0"))) == "0"
    assert format_tree(hat(parse_tree("0(1)"))) == "0(1)"


def test_hat_transport_exhaustive():
    for m in iter_multisets(6):
        trees = list(iter_trees(m))
        images = [hat(t) for t in trees]
        assert set(images) == set(trees), str(m)  # bijection on T_M
        for t, h in zip(trees, images):
            a, b = stats(t), stats(h)
            assert a.deg.get(0, 0) == b.el
            for q in range(1, m.size + 2):
                assert a.deg.get(q, 0) == b.od.get(q - 1, 0), (format_tree(t), q)
            # consequence: odd -> oe
            assert a.odd == b.oe


def test_tilde_base_table():
    assert format_tree(tilde(parse_tree("0(1(2))"))) == "0(1,2)"
    assert format_tree(tilde(parse_tree("0(1,2)"))) == "0(1(2))"
    assert format_tree(tilde(parse_tree("0(1(1))"))) == "0(1,1)"
    assert format_tree(tilde(parse_tree("0(1,1)"))) == "0(1(1))"
    assert format_tree(tilde(parse_tree("0(1)"))) == "0(1)"
    assert format_tree(tilde(parse_tree("0"))) == "0"


def test_tilde_matches_the_whole_tree_recursion():
    """The child-tuple recursion gives the images of the recursion on whole
    trees, on every tree with p <= 7."""
    for m in iter_multisets(7):
        for t in iter_trees(m):
            assert tilde(t) == oracle_tilde(t), format_tree(t)


def test_tilde_involution_and_transport():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            tt = tilde(t)
            assert tilde(tt) == t, format_tree(t)
            a, b = stats(t), stats(tt)
            assert (a.odd, a.oe, a.ee) == (b.oe, b.odd, b.ee), format_tree(t)


def test_psi_structure_on_two_elements():
    # psi rebuilds the root with the involution applied to each subtree
    for text in ["0(1(2))", "0(1,2)", "0(1,1)", "0(1(1))"]:
        t = parse_tree(text)
        expected = t.__class__(0, tuple(tilde(c) for c in t.children))
        assert psi(t) == expected


def test_psi_contract():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            pt = psi(t)
            assert psi(pt) == t
            a, b = stats(t), stats(pt)
            assert (a.odd_star, a.oe_star, a.ee_star) == (b.ee_star, b.oe_star, b.odd_star)


def test_theta_contract():
    assert format_tree(theta(parse_tree("0"))) == "0"
    assert format_tree(theta(parse_tree("0(1)"))) == "0(1)"
    for m in iter_multisets(6):
        trees = list(iter_trees(m))
        images = [theta(t) for t in trees]
        assert set(images) == set(trees), str(m)
        for t, th in zip(trees, images):
            a, c = stats(t), stats(th)
            root_deg_img = len(th.children)
            for d in range(m.size // 2 + 1):
                ed_star = c.deg.get(2 * d, 0) - c.od.get(2 * d, 0) - (
                    1 if root_deg_img == 2 * d else 0
                )
                assert a.deg.get(2 * d + 1, 0) == ed_star + (1 if root_deg_img == 2 * d + 1 else 0)


def test_memos_give_the_memo_less_images():
    """With one hat memo shared by hat and theta and a tilde memo for psi,
    one per multiset as the battery keeps them, every tree on every
    multiset with p <= 6 maps as without a memo.  Every entry holds its key
    object, and the hat memo holds no whole tree."""
    for m in iter_multisets(6):
        trees = list(iter_trees(m))
        hat_memo, tilde_memo = {}, {}
        for t in trees:
            assert hat(t, hat_memo) == hat(t)
            assert theta(t, hat_memo) == theta(t)
            assert psi(t, tilde_memo) == psi(t)
        for memo in (hat_memo, tilde_memo):
            assert all(key == id(source) for key, (source, _) in memo.items()), str(m)
        whole = {id(t) for t in trees}
        assert all(source.label and key not in whole for key, (source, _) in hat_memo.items()), str(m)


def test_rho_examples():
    b = rho(parse_tree("0(1,2)"))
    assert format_btree(b) == "0[1[_|2[_|_]]|_]"
    assert rho_inv(b) == parse_tree("0(1,2)")


def test_rho_round_trip():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            assert rho_inv(rho(t)) == t


def test_rho_all_shares_chains_and_maps_each_tree():
    """One multiset's trees share subtrees, and so do their images; trees
    parsed one by one share nothing and map the same."""
    for m in iter_multisets(5):
        trees = list(iter_trees(m))
        images = rho_all(trees)
        assert images == [rho(t) for t in trees]
        assert [rho_inv(b) for b in images] == trees
        assert rho_all([parse_tree(format_tree(t)) for t in trees]) == images
    trees = list(iter_trees(set_multiset(5)))
    nodes, stack = [], rho_all(trees)
    while stack:
        b = stack.pop()
        nodes.append(b)
        stack.extend(c for c in (b.left, b.right) if c is not None)
    assert len(nodes) == 6 * len(trees) > len({id(b) for b in nodes})


def test_rho_inv_rejects_right_child_at_root():
    from witrees.binary import WBTree

    bad = WBTree(0, WBTree(1), WBTree(1))
    with pytest.raises(ValueError, match="right child"):
        rho_inv(bad)


# the same laws on random trees past the exhaustive bound, 9 <= p <= 40

LARGE = weakly_increasing_trees(9, 40)


@settings(max_examples=100, deadline=None)
@given(LARGE)
def test_tilde_and_psi_laws_past_exhaustive_bound(t):
    tt, pt = tilde(t), psi(t)
    assert tt == oracle_tilde(t)
    assert tilde(tt) == t and psi(pt) == t
    a, b, c = stats(t), stats(tt), stats(pt)
    assert (a.odd, a.oe, a.ee) == (b.oe, b.odd, b.ee)
    assert (a.odd_star, a.oe_star, a.ee_star) == (c.ee_star, c.oe_star, c.odd_star)


@settings(max_examples=100, deadline=None)
@given(LARGE)
def test_hat_and_theta_transport_past_exhaustive_bound(t):
    a, b = stats(t), stats(hat(t))
    p = sum(a.deg.values()) - 1
    assert a.deg.get(0, 0) == a.leaf == b.el
    for q in range(1, p + 2):
        assert a.deg.get(q, 0) == b.od.get(q - 1, 0)
    th = theta(t)
    c = stats(th)
    root_deg_img = len(th.children)
    for d in range(p // 2 + 1):
        ed_star = c.deg.get(2 * d, 0) - c.od.get(2 * d, 0) - (1 if root_deg_img == 2 * d else 0)
        assert a.deg.get(2 * d + 1, 0) == ed_star + (1 if root_deg_img == 2 * d + 1 else 0)
