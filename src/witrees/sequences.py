"""Small exact integer sequences used by the verification suites."""

from __future__ import annotations

from math import comb

from .errors import InternalError


def euler_numbers(n: int) -> list[int]:
    """E_0..E_n, the coefficients of n!-normalized sec(x) + tan(x).

    Computed from the convolution recurrence 2 E_{k+1} = sum_i C(k,i) E_i
    E_{k-i} with E_0 = E_1 = 1; nothing is hardcoded beyond the seeds.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    es = [1, 1]
    while len(es) <= n:
        k = len(es) - 1
        total = sum(comb(k, i) * es[i] * es[k - i] for i in range(k + 1))
        q, r = divmod(total, 2)
        if r:
            raise InternalError("Euler-number convolution must be even")
        es.append(q)
    return es[: n + 1]
