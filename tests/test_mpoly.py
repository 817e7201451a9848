import random

import pytest

from witrees.mpoly import MPoly, poly_sum

XYZ = ("x", "y", "z")


def _random_poly(rng, variables=XYZ, terms=5, max_exp=3, max_coeff=6):
    return MPoly(
        variables,
        {
            tuple(rng.randrange(max_exp + 1) for _ in variables): rng.randint(-max_coeff, max_coeff)
            for _ in range(terms)
        },
    )


def test_basic_arithmetic():
    x = MPoly.var(XYZ, "x")
    y = MPoly.var(XYZ, "y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert x - x == MPoly.zero(XYZ)
    assert not (x - x)
    assert (0 * x).is_zero()


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
    assert poly_sum(XYZ, [a, b, c]) == a + b + c


def test_no_zero_terms_stored():
    p = MPoly(XYZ, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert len(p.terms) == 1
    q = p - MPoly.var(XYZ, "x")
    assert q.terms == {}


def test_context_mismatch():
    with pytest.raises(ValueError):
        MPoly.var(XYZ, "x") + MPoly.var(("a", "b"), "a")
    # a product adds exponents position by position, which would cut the
    # longer vector short if the contexts were not compared first
    wxyz = MPoly(("w", "x", "y", "z"), {(1, 0, 1, 0): 2})
    with pytest.raises(ValueError, match="variable contexts differ"):
        MPoly(XYZ, {(1, 2, 0): 3, (0, 0, 1): -1}) * wxyz
    with pytest.raises(ValueError, match="variable contexts differ"):
        wxyz * MPoly.var(XYZ, "x")
    with pytest.raises(ValueError):
        MPoly(XYZ, {(1, 0): 1})


def test_rename_swap_and_merge():
    p = MPoly(XYZ, {(1, 2, 0): 3, (0, 0, 1): 1})
    swapped = p.rename({"y": "z", "z": "y"})
    assert swapped == MPoly(XYZ, {(1, 0, 2): 3, (0, 1, 0): 1})
    merged = p.rename({"z": "y"})  # z-exponents fold into y
    assert merged == MPoly(XYZ, {(1, 2, 0): 3, (0, 1, 0): 1})


def test_evaluate():
    p = MPoly(XYZ, {(2, 1, 0): 1})  # x^2 y
    assert p.evaluate({"x": 3, "y": 5, "z": 7}) == 45


def test_slices_and_coeff():
    p = MPoly(XYZ, {(0, 2, 0): 1, (1, 1, 0): 4, (1, 0, 1): 4, (2, 0, 0): 9})
    s = p.slices("x")
    assert set(s) == {0, 1, 2}
    assert s[1] == MPoly(XYZ, {(0, 1, 0): 4, (0, 0, 1): 4})
    assert s[2] == MPoly(XYZ, {(0, 0, 0): 9})
    assert p.degree("x") == 2


def test_canonical_strings():
    p = MPoly(XYZ, {(0, 3, 1): 1, (0, 1, 3): 1, (2, 1, 1): 4})
    assert p.canonical_str("grouped") == "y^3z+yz^3+4x^2yz"
    assert p.canonical_str("desclex") == "4x^2yz+y^3z+yz^3"
    assert MPoly.zero(XYZ).canonical_str() == "0"
    assert MPoly.const(XYZ, -2).canonical_str() == "-2"
    q = MPoly(XYZ, {(1, 0, 0): -1, (0, 1, 0): 1})
    assert q.canonical_str("desclex") == "-x+y"


def test_pow_edge_cases():
    x = MPoly.var(XYZ, "x")
    assert x**0 == MPoly.const(XYZ, 1)
    with pytest.raises(ValueError):
        x ** (-1)
