"""The bridge between trees and polynomials: the parity census of a
multiset and its Schett polynomial.

For a multiset M the census P_M(w,x,y,z) sums w^eo x^oe y^ee z^oo over all
weakly increasing trees on M, recording the four node types (even or odd
degree on an even or odd level); for M = {1^k} it is the t^k coefficient of
the plane-tree series N.  The multiset Schett polynomial S_M(x,y,z) sums
x^ee y^oe z^odd over the same trees, so it is the specialisation of P_M that
merges the two odd-degree types.
"""

from __future__ import annotations

from typing import Iterable

from .enumeration import iter_trees
from .grammar import XYZ, schett_poly
from .mpoly import MPoly
from .multiset import Multiset
from .series import SERIES_VARS
from .trees import WTree


def parity_poly(trees: Iterable[WTree]) -> MPoly:
    """The sum of w^eo x^oe y^ee z^oo over the given trees, in the series
    variables (w, x, y, z), from one walk of each tree."""
    terms: dict[tuple[int, int, int, int], int] = {}
    for t in trees:
        counts = [0, 0, 0, 0]  # ee, eo, oe, oo: index 2 * odd level + odd degree
        level, odd_level = [t], 0
        while level:
            below: list[WTree] = []
            for node in level:
                ch = node[1]
                counts[odd_level + (len(ch) & 1)] += 1
                below += ch
            level, odd_level = below, odd_level ^ 2
        ee, eo, oe, oo = counts
        key = (eo, oe, ee, oo)
        terms[key] = terms.get(key, 0) + 1
    return MPoly(SERIES_VARS, terms)


def schett_of(trees: Iterable[WTree]) -> MPoly:
    """The sum of x^ee y^oe z^odd over the given trees: the parity census
    with y -> x, x -> y and both w and z -> z."""
    terms: dict[tuple[int, int, int], int] = {}
    for (eo, oe, ee, oo), c in parity_poly(trees).terms.items():
        key = (ee, oe, eo + oo)
        terms[key] = terms.get(key, 0) + c
    return MPoly(XYZ, terms)


def multiset_schett(m: Multiset) -> MPoly:
    """The Schett polynomial S_M, and the one place that picks its route:
    the grammar's S_n = D^n(x) when m is the set [n] (the dual path of
    `verify._schett` certifies it against enumeration for n <= 7),
    otherwise `schett_of` over the trees on m."""
    if m.multiplicities == (1,) * m.n:
        return schett_poly(m.n)
    return schett_of(iter_trees(m))
