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

from typing import Iterable

from .enumeration import iter_trees
from .errors import InternalError
from .grammar import XYZ
from .mpoly import MPoly, poly_sum
from .multiset import Multiset
from .series import SERIES_VARS
from .trees import WTree

GammaTable = dict[tuple[int, int], int]


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


def multiset_schett(m: Multiset, size_bound: int | None = None) -> MPoly:
    """S_M(x,y,z) by exhaustive enumeration."""
    return schett_of(iter_trees(m, size_bound))


def reduce_poly(poly: MPoly) -> MPoly:
    """Floor-halve every exponent (merging collided monomials)."""
    terms: dict[tuple[int, ...], int] = {}
    for e, c in poly.terms.items():
        key = tuple(x // 2 for x in e)
        terms[key] = terms.get(key, 0) + c
    return MPoly(poly.vars, terms)


def reduced_schett(m: Multiset, size_bound: int | None = None) -> MPoly:
    """The reduced multiset Schett polynomial over x, y, z."""
    return reduce_poly(multiset_schett(m, size_bound))


class GammaResidualError(InternalError):
    """The gamma change of basis left a nonzero residual: an implementation
    bug, since exact peeling of a homogeneous symmetric slice cannot fail."""


def gamma_expand_poly(reduced: MPoly, p: int) -> GammaTable:
    """Exact change of basis of a reduced polynomial into the gamma basis.

    For each x-power i the slice s_i(y,z) must be homogeneous of degree
    d = floor(p/2) - i; the expansion s_i = sum_j g_{i,j} (yz)^j (y+z)^(d-2j)
    is extracted by peeling the coefficient of y^(d-j) z^j for j ascending.
    """
    d_total = p // 2
    table: GammaTable = {}
    yz = MPoly(XYZ, {(0, 1, 1): 1})
    y_plus_z = MPoly(XYZ, {(0, 1, 0): 1, (0, 0, 1): 1})
    for i, slice_i in reduced.slices("x").items():
        d = d_total - i
        for (ex, ey, ez), _c in slice_i.terms.items():
            if ey + ez != d:
                raise GammaResidualError(
                    f"x^{i} slice is not homogeneous of degree {d}: found y^{ey}z^{ez}"
                )
        residual = slice_i
        for j in range(d // 2 + 1):
            g = residual.terms.get((0, d - j, j), 0)
            table[(i, j)] = g
            if g:
                residual = residual - g * yz**j * y_plus_z ** (d - 2 * j)
        if not residual.is_zero():
            raise GammaResidualError(
                f"nonzero residual in x^{i} slice: {residual.canonical_str()}"
            )
        # drop all-zero rows so the table holds exactly the support
        for j in range(d // 2 + 1):
            if table[(i, j)] == 0:
                del table[(i, j)]
    return table


def gamma_expand(m: Multiset, size_bound: int | None = None) -> GammaTable:
    """Gamma table of the reduced multiset Schett polynomial of m."""
    return gamma_expand_poly(reduced_schett(m, size_bound), m.size)


def gamma_from_table(table: GammaTable, p: int) -> MPoly:
    """Rebuild the reduced polynomial from a gamma table (basis expansion)."""
    yz = MPoly(XYZ, {(0, 1, 1): 1})
    y_plus_z = MPoly(XYZ, {(0, 1, 0): 1, (0, 0, 1): 1})
    x = MPoly.var(XYZ, "x")
    parts = []
    for (i, j), g in table.items():
        parts.append(g * x**i * yz**j * y_plus_z ** (p // 2 - i - 2 * j))
    return poly_sum(XYZ, parts)


def slice_poly_coeffs(reduced: MPoly) -> list[list[int]]:
    """Coefficient lists (ascending) of the univariate x-slices i = 0, ...,
    deg_x with the third variable set to 1, in one pass over the terms:
    slice i sums t^floor(oe/2) over the trees with floor(ee/2) = i."""
    rows: list[dict[int, int]] = [{} for _ in range(reduced.degree("x") + 1)]
    for (ex, ey, _ez), c in reduced.terms.items():
        rows[ex][ey] = rows[ex].get(ey, 0) + c
    return [[row.get(j, 0) for j in range(max(row) + 1)] if row else [] for row in rows]


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
