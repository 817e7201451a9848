import pytest

from _oracles import parity_counts
from witrees.enumeration import iter_multisets, iter_trees
from witrees.gamma import (
    GammaResidualError,
    gamma_expand,
    gamma_expand_poly,
    gamma_from_table,
    is_palindromic,
    is_unimodal,
    multiset_schett,
    parity_poly,
    reduce_poly,
    reduced_schett,
    schett_of,
    slice_poly_coeffs,
)
from witrees.grammar import XYZ, schett_coeffs, schett_poly
from witrees.mpoly import MPoly
from witrees.multiset import Multiset, parse_multiset, uniform_multiset
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


def test_reduced_example():
    # 3x(y+z) + (y+z)^2 + 8yz, expanded
    red = reduced_schett(parse_multiset("1:2,2:2"))
    assert red.canonical_str("grouped") == "y^2+10yz+z^2+3xy+3xz"


def test_gamma_example():
    assert gamma_expand(parse_multiset("1:2,2:2")) == {(1, 0): 3, (0, 0): 1, (0, 1): 8}


def test_gamma_rebuild_round_trip():
    for m in iter_multisets(6):
        red = reduced_schett(m)
        table = gamma_expand(m)
        assert gamma_from_table(table, m.size) == red
        assert all(v >= 0 for v in table.values())


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
        assert oracle == gamma_expand(m), str(m)


def test_gamma_rejects_inhomogeneous():
    bogus = MPoly(XYZ, {(0, 1, 0): 1, (0, 0, 0): 1})  # y + 1 at the same x-power
    with pytest.raises(GammaResidualError):
        gamma_expand_poly(bogus, 2)


def test_reduce_poly():
    p = MPoly(XYZ, {(3, 2, 1): 1, (2, 2, 0): 1})
    assert reduce_poly(p) == MPoly(XYZ, {(1, 1, 0): 2})


def test_empty_multiset():
    assert gamma_expand(Multiset(())) == {(0, 0): 1}
    assert multiset_schett(Multiset(())) == MPoly(XYZ, {(1, 0, 0): 1})


def test_slices_palindromic_unimodal():
    for m in iter_multisets(6):
        red = reduced_schett(m)
        slices = slice_poly_coeffs(red)
        assert len(slices) == red.degree("x") + 1
        for i, coeffs in enumerate(slices):
            assert is_palindromic(coeffs), (str(m), i, coeffs)
            assert is_unimodal(coeffs), (str(m), i, coeffs)


def test_slices_match_the_schett_table():
    """Slicing the reduced S_n gives the rows of the table s_{n,i,j}."""
    for n in range(13):
        table = schett_coeffs(n)
        rows = [
            [table.get((i, j), 0) for j in range(1 + max(j for si, j in table if si == i))]
            for i in range(1 + max(i for i, _ in table))
        ]
        assert slice_poly_coeffs(reduce_poly(schett_poly(n))) == rows, n


def test_palindromic_unimodal_helpers():
    assert is_palindromic([]) and is_unimodal([])
    assert is_palindromic([3, 1, 3]) and not is_palindromic([1, 2])
    assert is_unimodal([1, 2, 2, 1]) and not is_unimodal([2, 1, 2])
