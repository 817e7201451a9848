"""The parity census of a multiset, its Schett polynomial, the reduced form,
and the gamma expansion.

For a multiset M the census P_M(w,x,y,z) sums w^eo x^oe y^ee z^oo over all
weakly increasing trees on M, recording the four node types (even or odd
degree on an even or odd level); for M = {1^k} it is the t^k coefficient of
the plane-tree series N.  The multiset Schett polynomial S_M(x,y,z) sums
x^ee y^oe z^odd over the same trees, so it is the specialisation of P_M that
merges the two odd-degree types.  The reduced polynomial floor-halves all three
exponents, which loses no information because the node count p+1 fixes the
parity of ee and oe+odd.  Every x-slice of the reduced polynomial is
homogeneous of degree floor(p/2) - i in (y, z) and expands exactly in the
basis (yz)^j (y+z)^(d-2j) with nonnegative coefficients; the coefficient at
(i, j) counts trees with floor(ee/2) = i, no active even nodes, and exactly
floor(p/2) - i - 2j active nodes.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .enumeration import iter_trees
from .errors import InternalError
from .grammar import XYZ, schett_poly
from .mpoly import MPoly
from .multiset import Multiset
from .series import SERIES_VARS
from .trees import WTree

GammaTable = dict[tuple[int, int], int]
ReducedTable = dict[tuple[int, int], int]  # (i, j) -> coefficient of x^i y^j


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


def reduced_table(schett: MPoly, p: int) -> ReducedTable:
    """The reduced polynomial of a Schett polynomial on p letters, as the
    table {(i, j): c} of c x^i y^j z^(floor(p/2)-i-j): every exponent
    floor-halved, the only place the reduction happens.  A term off that
    degree, like a nonzero residual in `gamma_expand`, is an internal
    error: a Schett polynomial reduces to homogeneous symmetric slices."""
    half = p // 2
    table: ReducedTable = {}
    for (ee, oe, odd), c in schett.terms.items():
        key = (ee // 2, oe // 2)
        if key[0] + key[1] + odd // 2 != half:
            raise InternalError(
                f"x^{ee}y^{oe}z^{odd} does not reduce to degree {half}"
            )
        table[key] = table.get(key, 0) + c
    return table


def slice_poly_coeffs(reduced: ReducedTable) -> list[list[int]]:
    """Coefficient lists (ascending in y, z set to 1) of the x-slices
    i = 0, ..., deg_x: slice i sums t^floor(oe/2) over the trees with
    floor(ee/2) = i."""
    rows: list[list[int]] = [[] for _ in range(1 + max((i for i, _ in reduced), default=0))]
    for (i, j), c in sorted(reduced.items()):
        rows[i] += [0] * (j - len(rows[i])) + [c]
    return rows


def gamma_expand(reduced: ReducedTable, p: int) -> GammaTable:
    """Exact change of basis of a reduced table into the gamma basis.

    The x^i slice, of degree d = floor(p/2) - i in (y, z), is
    sum_j g_{i,j} (yz)^j (y+z)^(d-2j); g_{i,j} is peeled off as the
    coefficient of y^(d-j) z^j for j ascending, by subtracting binomial
    rows from the integer coefficient list.
    """
    table: GammaTable = {}
    for i, row in enumerate(slice_poly_coeffs(reduced)):
        d = p // 2 - i
        residual = row + [0] * (d + 1 - len(row))
        for j in range(d // 2 + 1):
            g = residual[d - j]
            if g:
                table[(i, j)] = g
                for k in range(d - 2 * j + 1):
                    residual[j + k] -= g * comb(d - 2 * j, k)
        if any(residual):
            rest = MPoly(XYZ, {(0, e, d - e): c for e, c in enumerate(residual)})
            raise InternalError(f"nonzero residual in x^{i} slice: {rest.canonical_str()}")
    return table


def gamma_from_table(table: GammaTable, p: int) -> ReducedTable:
    """Rebuild the reduced table from a gamma table (basis expansion)."""
    out: ReducedTable = {}
    for (i, j), g in table.items():
        d = p // 2 - i - 2 * j
        for k in range(d + 1):
            out[(i, j + k)] = out.get((i, j + k), 0) + g * comb(d, k)
    return out


def is_palindromic(coeffs: list[int]) -> bool:
    """Coefficient list reads the same in both directions (zero poly counts)."""
    return coeffs == coeffs[::-1]


def is_unimodal(coeffs: list[int]) -> bool:
    rising = True
    for a, b in zip(coeffs, coeffs[1:]):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            return False
    return True
