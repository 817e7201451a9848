import pytest
from hypothesis import given, settings

from _strategies import weakly_increasing_trees
from witrees.binary import format_btree
from witrees.enumeration import iter_multisets, iter_trees
from witrees.transforms import hat, psi, rho, rho_inv, theta, tilde
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


def test_rho_examples():
    b = rho(parse_tree("0(1,2)"))
    assert format_btree(b) == "0[1[_|2[_|_]]|_]"
    assert rho_inv(b) == parse_tree("0(1,2)")


def test_rho_round_trip():
    for m in iter_multisets(6):
        for t in iter_trees(m):
            assert rho_inv(rho(t)) == t


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
