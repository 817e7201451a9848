import pytest

from _oracles import oracle_euler_numbers
from witrees.gamma import reduced_table
from witrees.grammar import schett_poly
from witrees.jacobi import euler_numbers, jacobi_taylor


def test_classical_expansions():
    sn, cn, dn = jacobi_taylor(7)
    assert sn[1] == (1,)
    assert sn[3] == (-1, -1)           # -(1 + m)
    assert sn[5] == (1, 14, 1)
    assert sn[7] == (-1, -135, -135, -1)
    assert cn[0] == (1,) and cn[2] == (-1,)
    assert cn[4] == (1, 4)
    assert cn[6] == (-1, -44, -16)
    assert dn[2] == (0, -1)            # -m
    assert dn[4] == (0, 4, 1)          # m(4 + m)
    assert dn[6] == (0, -16, -44, -1)  # -m(16 + 44m + m^2)


def test_parity_of_orders():
    sn, cn, dn = jacobi_taylor(9)
    assert all(sn[k] == () for k in range(0, 10, 2))
    assert all(cn[k] == () for k in range(1, 10, 2))
    assert all(dn[k] == () for k in range(1, 10, 2))


def test_alternating_signs():
    sn, cn, dn = jacobi_taylor(9)
    for k in range(10):
        sign = -1 if (k // 2) % 2 else 1
        for series in (sn, cn, dn):
            assert all(sign * c >= 0 for c in series[k]), (k, series[k])


def _table(n):
    return reduced_table(schett_poly(n), n)


def test_boundary_identities_with_schett_tables():
    sn, cn, dn = jacobi_taylor(9)
    for n in range(5):
        se, so = _table(2 * n), _table(2 * n + 1)
        poly = sn[2 * n + 1]
        for j in range(n + 1):
            v = abs(poly[j]) if j < len(poly) else 0
            assert v == se.get((0, j), 0) == so.get((0, j), 0), (n, j)
    for n in range(1, 5):
        s1, s2 = _table(2 * n - 1), _table(2 * n)
        cpoly, dpoly = cn[2 * n], dn[2 * n]
        for i in range(n + 1):
            cv = abs(cpoly[i]) if i < len(cpoly) else 0
            dv = abs(dpoly[n - i]) if n - i < len(dpoly) else 0
            assert cv == s1.get((i, 0), 0) == s2.get((i, 0), 0), ("cn", n, i)
            assert dv == s1.get((i, 0), 0) == s2.get((i, 0), 0), ("dn", n, i)


def test_dn_is_cn_with_reversed_modulus():
    # dn(u, m) coefficients are m^n * cn-coefficients at 1/m, order by order
    sn, cn, dn = jacobi_taylor(8)
    for n in range(1, 5):
        c = cn[2 * n]
        d = dn[2 * n]
        rev = tuple(reversed(d))
        padded = c + (0,) * (len(rev) - len(c))
        assert rev == padded, (n, c, d)


def test_euler_numbers_match_classical_values():
    assert euler_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def test_euler_numbers_at_order_zero():
    """The tables at order 0 hold u^0 alone, and E_0 = cn_0(1) = 1."""
    assert jacobi_taylor(0) == ([()], [(1,)], [(1,)])
    assert euler_numbers(0) == [1]


def test_euler_numbers_prefix_stability():
    assert euler_numbers(3) == euler_numbers(8)[:4]
    with pytest.raises(ValueError):
        euler_numbers(-1)


def test_euler_numbers_match_the_sec_tan_recurrence():
    # sn(u|1) = tanh u and cn(u|1) = sech u
    assert euler_numbers(30) == oracle_euler_numbers(30)
