"""Closed-form plane-tree counters by parity class, with exact big integers.

`plane_tree_count(i, j, k, l)` counts plane trees with i even-degree nodes
on odd levels, j on even levels, k odd-degree nodes on odd levels and l on
even levels.  The six-multinomial form comes from extracting one
coefficient of the inversion kernel at t = 1; the closed form is its
simplification.  Both vanish on the root-only tree (i, j, k, l) =
(0, 1, 0, 0), which is counted separately, exactly as the kernel misses the
constant term of the generating function.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import InternalError


def _comb(n: int, k: int) -> int:
    """Binomial with C(n, 0) = 1 for every integer n, 0 for k < 0 or n < k."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < k:
        return 0
    return comb(n, k)


def _multinomial(*parts: int) -> int:
    """(sum parts)! / prod(part!), zero when any part is negative."""
    if any(p < 0 for p in parts):
        return 0
    total = sum(parts)
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def _halves(i: int, k: int, l: int, j: int) -> tuple[int, int] | None:
    """The two auxiliary indices (i+k-l)/2 and (j+l-k-1)/2, or None when
    either is negative or not an integer (in which case the count is 0)."""
    a2, b2 = i + k - l, j + l - k - 1
    if a2 < 0 or b2 < 0 or a2 % 2 or b2 % 2:
        return None
    return a2 // 2, b2 // 2


def six_term_count(i: int, j: int, k: int, l: int) -> int:
    """The six-multinomial coefficient extraction, plus the root-only tree."""
    if (i, j, k, l) == (0, 1, 0, 0):
        return 1
    halves = _halves(i, k, l, j)
    if halves is None:
        return 0
    a, b = halves
    return (
        _multinomial(a, l, j - 1) * _multinomial(b, k, i - 1)
        + _multinomial(a, l, j - 1) * _multinomial(b, k - 1, i)
        + _multinomial(a, l - 1, j) * _multinomial(b, k, i - 1)
        - 2 * _multinomial(a - 1, l, j) * _multinomial(b, k - 1, i)
        - 2 * _multinomial(a, l - 1, j) * _multinomial(b - 1, k, i)
        - 4 * _multinomial(a - 1, l, j) * _multinomial(b - 1, k, i)
    )


def plane_tree_count(i: int, j: int, k: int, l: int) -> int:
    """Closed form for the number of plane trees with (oe, ee, oo, eo) =
    (i, j, k, l); zero unless both auxiliary halves are nonnegative
    integers."""
    if (i, j, k, l) == (0, 1, 0, 0):
        return 1
    halves = _halves(i, k, l, j)
    if halves is None:
        return 0
    a, b = halves
    if i + k == 0:
        return 0
    num = (i + k) * factorial(a + l + j - 1) * factorial(b + k + i - 1)
    den = (
        factorial(i) * factorial(j) * factorial(k) * factorial(l)
        * factorial(a) * factorial(b)
    )
    q, r = divmod(num, den)
    if r:
        raise InternalError(f"closed form must divide exactly at {(i, j, k, l)}")
    return q


def jaco2_count(i: int, j: int) -> int:
    """Plane trees with no odd-degree node, 2i even-degree nodes on odd
    levels and 2j+1 on even levels: C(2j+i, i) C(2i+j-1, j) / (2j+1)."""
    if i < 0 or j < 0:
        return 0
    num = _comb(2 * j + i, i) * _comb(2 * i + j - 1, j)
    q, r = divmod(num, 2 * j + 1)
    if r:
        raise InternalError(f"division by 2j+1 must be exact at {(i, j)}")
    return q


def fish_count(i: int, j: int) -> int:
    """Plane trees with no even-degree node on even levels, 2i+1 on odd
    levels and 2j+1 odd-degree nodes; also the number of fighting fish with
    i+1 left and j+1 right lower free edges and a marked tail."""
    if i < 0 or j < 0:
        return 0
    num = (2 * i + 2 * j + 1) * _comb(2 * i + j, j) * _comb(2 * j + i, i)
    q, r = divmod(num, (2 * i + 1) * (2 * j + 1))
    if r:
        raise InternalError(f"division must be exact at {(i, j)}")
    return q


def ternary_identity(n: int) -> tuple[int, int]:
    """Both sides of C(3n, n)/(2n+1) = sum_j C(n+j, 2j) C(2n-j-1, j)/(2j+1)
    for n >= 1 (at n = 0 the right side is an empty sum)."""
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    lhs_num = comb(3 * n, n)
    lhs, r = divmod(lhs_num, 2 * n + 1)
    if r:
        raise InternalError(f"C(3n, n) must be divisible by 2n+1 at n={n}")
    rhs = 0
    for j in range(n):
        term, r = divmod(_comb(n + j, 2 * j) * _comb(2 * n - j - 1, j), 2 * j + 1)
        if r:
            raise InternalError(f"ternary summand must divide exactly at n={n}, j={j}")
        rhs += term
    return lhs, rhs
