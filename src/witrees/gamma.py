"""The reduced form of a Schett polynomial and its gamma expansion.

The reduced polynomial floor-halves all three exponents, which loses no
information because the node count p+1 fixes the parity of ee and oe+odd.
Every x-slice of the reduced polynomial is homogeneous of degree
floor(p/2) - i in (y, z) and expands exactly in the basis
(yz)^j (y+z)^(d-2j) with nonnegative coefficients; the coefficient at
(i, j) counts trees with floor(ee/2) = i, no active even nodes, and exactly
floor(p/2) - i - 2j active nodes.
"""

from __future__ import annotations

from math import comb

from .errors import InternalError
from .grammar import XYZ
from .mpoly import MPoly

GammaTable = dict[tuple[int, int], int]
ReducedTable = dict[tuple[int, int], int]  # (i, j) -> coefficient of x^i y^j


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
