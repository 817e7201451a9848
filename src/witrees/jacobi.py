"""Exact Taylor coefficients of the Jacobi elliptic functions sn, cn, dn.

The coefficient of u^k/k! is an integer polynomial in the squared modulus
m = alpha^2, generated by the first-order system

    sn' = cn dn,   cn' = -sn dn,   dn' = -m sn cn,
    sn(0) = 0,     cn(0) = dn(0) = 1,

which needs no analysis: in the k!-normalized representation the derivative
is a left shift and products are binomial convolutions, so everything stays
in Z[m].  The classical boundary link to the Schett polynomial coefficients
s_{n,i,j} (checked in the verification suites):

    |[m^j]  sn_{2n+1}| = s_{2n,0,j} = s_{2n+1,0,j},
    |[m^i]  cn_{2n}  | = s_{2n-1,i,0} = s_{2n,i,0},
    |[m^(n-i)] dn_{2n}| = s_{2n-1,i,0} = s_{2n,i,0},

with signs (-1)^n throughout, sn odd in u and cn, dn even.

At m = 1 the functions degenerate to sn = tanh and cn = sech, so the same
tables give the Euler numbers: E_k = |sn_k(1)| for odd k and |cn_k(1)| for
even k, the coefficients of sec + tan.
"""

from __future__ import annotations

from math import comb

MPolyInM = tuple[int, ...]  # ascending coefficients in m = alpha^2


def _conv(k: int, a: list[MPolyInM], b: list[MPolyInM]) -> MPolyInM:
    """k-th coefficient of the product of two k!-normalized series."""
    out = [0] * max(len(a[i]) + len(b[k - i]) for i in range(k + 1))
    for i in range(k + 1):
        pa, pb = a[i], b[k - i]
        if not pa or not pb:
            continue
        c = comb(k, i)
        for da, ca in enumerate(pa):
            if not ca:
                continue
            for db, cb in enumerate(pb):
                if cb:
                    out[da + db] += c * ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _shift_m(poly: MPolyInM) -> MPolyInM:
    """Multiply by -m."""
    return (0, *(-c for c in poly)) if poly else ()


def jacobi_taylor(order: int) -> tuple[list[MPolyInM], list[MPolyInM], list[MPolyInM]]:
    """(sn, cn, dn) tables: entry k is the u^k/k! coefficient in Z[m]."""
    if order < 0:
        raise ValueError("order must be >= 0")
    sn: list[MPolyInM] = [()]
    cn: list[MPolyInM] = [(1,)]
    dn: list[MPolyInM] = [(1,)]
    for k in range(order):
        sn.append(_conv(k, cn, dn))
        cn.append(tuple(-c for c in _conv(k, sn, dn)))
        dn.append(_shift_m(_conv(k, sn, cn)))
    return sn[: order + 1], cn[: order + 1], dn[: order + 1]


def euler_numbers(n: int) -> list[int]:
    """E_0..E_n, the coefficients of n!-normalized sec(x) + tan(x), read off
    the sn (odd k) and cn (even k) tables at m = 1."""
    sn, cn, _ = jacobi_taylor(n)
    return [abs(sum(cn[k] if k % 2 == 0 else sn[k])) for k in range(n + 1)]
