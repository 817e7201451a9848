"""Multiset Schett polynomials, their reduced form, and the gamma expansion.

For a multiset M the polynomial S_M(x,y,z) sums x^ee y^oe z^odd over all
weakly increasing trees on M; the reduced polynomial floor-halves all three
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
from .trees import WTree, parity_counts

GammaTable = dict[tuple[int, int], int]


def schett_of(trees: Iterable[WTree]) -> MPoly:
    """The sum of x^ee y^oe z^odd over the given trees."""
    terms: dict[tuple[int, int, int], int] = {}
    for t in trees:
        e = parity_counts(t)[:3]
        terms[e] = terms.get(e, 0) + 1
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
