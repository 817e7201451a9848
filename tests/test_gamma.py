import pytest

from _oracles import oracle_gamma, parity_counts
from witrees.enumeration import iter_multisets, iter_trees
from witrees.errors import InternalError
import witrees.gamma
from witrees.gamma import (
    gamma_expand,
    gamma_from_table,
    is_palindromic,
    is_unimodal,
    multiset_schett,
    parity_poly,
    reduced_table,
    schett_of,
    slice_poly_coeffs,
)
from witrees.grammar import XYZ, schett_poly
from witrees.mpoly import MPoly
from witrees.multiset import Multiset, parse_multiset, set_multiset, uniform_multiset
from witrees.series import SERIES_VARS, plane_gf
from witrees.trees import stats


def _oracle_histogram(trees, key):
    """Trees counted by key(parity_counts(t)), from the reference walker."""
    hist = {}
    for t in trees:
        k = key(*parity_counts(t))
        hist[k] = hist.get(k, 0) + 1
    return hist


def test_parity_poly_matches_the_reference_walker():
    for m in iter_multisets(7):
        want = _oracle_histogram(iter_trees(m), lambda ee, oe, odd, oo, _l, _r: (odd - oo, oe, ee, oo))
        assert parity_poly(iter_trees(m)) == MPoly(SERIES_VARS, want), str(m)


def test_parity_poly_of_plane_trees_is_the_series():
    """P_{1^k} is the t^k coefficient of N, past the verify bound of t^8."""
    n = plane_gf(10)
    for k in range(11):
        assert parity_poly(iter_trees(uniform_multiset(k))) == n.coeffs[k], k


def test_schett_of_matches_the_reference_walker():
    for m in iter_multisets(7):
        want = _oracle_histogram(iter_trees(m), lambda ee, oe, odd, _o, _l, _r: (ee, oe, odd))
        assert schett_of(iter_trees(m)) == MPoly(XYZ, want), str(m)


def _reduced(m):
    return reduced_table(schett_of(iter_trees(m)), m.size)


def test_reduced_example():
    # 3x(y+z) + (y+z)^2 + 8yz, expanded: y^2+10yz+z^2+3xy+3xz
    red = _reduced(parse_multiset("1:2,2:2"))
    assert red == {(0, 2): 1, (0, 1): 10, (0, 0): 1, (1, 1): 3, (1, 0): 3}


def test_gamma_example():
    assert gamma_expand(_reduced(parse_multiset("1:2,2:2")), 4) == {(1, 0): 3, (0, 0): 1, (0, 1): 8}


def test_gamma_rebuild_round_trip():
    for m in iter_multisets(6):
        red = _reduced(m)
        table = gamma_expand(red, m.size)
        assert gamma_from_table(table, m.size) == red
        assert all(v >= 0 for v in table.values())


def test_integer_peel_matches_the_polynomial_oracle():
    """The binomial peel over integer rows gives the tables of the peel by
    polynomial products, on every multiset with p <= 7 and on S_n, n <= 24."""
    schetts = [(schett_of(iter_trees(m)), m.size) for m in iter_multisets(7)]
    schetts += [(schett_poly(n), n) for n in range(25)]
    for s, p in schetts:
        assert gamma_expand(reduced_table(s, p), p) == oracle_gamma(s, p), (s, p)


def test_gamma_counts_active_nodes():
    for m in iter_multisets(6):
        oracle = {}
        for t in iter_trees(m):
            sv = stats(t)
            if sv.eact:
                continue
            i = sv.ee // 2
            j = (m.size // 2 - i - sv.act) // 2
            oracle[(i, j)] = oracle.get((i, j), 0) + 1
        assert oracle == gamma_expand(_reduced(m), m.size), str(m)


def test_gamma_rejects_inhomogeneous():
    bogus = MPoly(XYZ, {(1, 2, 0): 1, (1, 0, 0): 1})  # xy^2 + x: x is off degree for p = 2
    with pytest.raises(InternalError, match="does not reduce to degree 1"):
        reduced_table(bogus, 2)
    with pytest.raises(InternalError, match="nonzero residual in x\\^0 slice"):
        gamma_expand({(0, 1): 1}, 2)  # y alone is not symmetric in y, z


def test_reduce_poly():
    p = MPoly(XYZ, {(3, 2, 1): 1, (2, 2, 0): 1})
    assert reduced_table(p, 4) == {(1, 1): 2}


def test_empty_multiset():
    assert schett_of(iter_trees(Multiset(()))) == MPoly(XYZ, {(1, 0, 0): 1})
    assert gamma_expand(_reduced(Multiset(())), 0) == {(0, 0): 1}


def test_slices_palindromic_unimodal():
    for m in iter_multisets(6):
        red = _reduced(m)
        slices = slice_poly_coeffs(red)
        assert len(slices) == 1 + max(i for i, _ in red)
        for i, coeffs in enumerate(slices):
            assert is_palindromic(coeffs), (str(m), i, coeffs)
            assert is_unimodal(coeffs), (str(m), i, coeffs)


def test_palindromic_unimodal_helpers():
    assert is_palindromic([]) and is_unimodal([])
    assert is_palindromic([3, 1, 3]) and not is_palindromic([1, 2])
    assert is_unimodal([1, 2, 2, 1]) and not is_unimodal([2, 1, 2])


def test_multiset_schett_of_a_set_is_the_enumeration():
    for n in range(8):
        m = set_multiset(n)
        assert multiset_schett(m) == schett_of(iter_trees(m)), str(m)


def test_multiset_schett_takes_a_set_from_the_grammar(monkeypatch):
    def no_trees(m):
        raise AssertionError(f"enumerated {m}")

    monkeypatch.setattr(witrees.gamma, "iter_trees", no_trees)
    assert multiset_schett(set_multiset(9)) == schett_poly(9)


def test_multiset_schett_enumerates_any_other_multiset():
    for text in ("1:2,2:2", "1:3", "1,2:2,3"):
        m = parse_multiset(text)
        assert multiset_schett(m) == schett_of(iter_trees(m)), text
