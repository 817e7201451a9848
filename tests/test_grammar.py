import random
from math import factorial

import pytest

from _oracles import oracle_derive
from witrees.gamma import multiset_schett
from witrees.grammar import (
    WXYZ,
    XYZ,
    derive,
    four_var_coeffs,
    four_var_poly,
    four_var_rules,
    grammar_derive,
    schett_coeffs,
    schett_poly,
    schett_rules,
)
from witrees.mpoly import MPoly
from witrees.multiset import set_multiset

SCHETT_DISPLAYS = [
    "x",
    "yz",
    "xy^2+xz^2",
    "y^3z+yz^3+4x^2yz",
    "xy^4+14xy^2z^2+xz^4+4x^3y^2+4x^3z^2",
]


def test_schett_displays():
    for n, want in enumerate(SCHETT_DISPLAYS):
        assert schett_poly(n).canonical_str("grouped") == want


def test_eulerian_grammar():
    xy = ("x", "y")
    rules = {"x": MPoly(xy, {(1, 1): 1}), "y": MPoly(xy, {(1, 1): 1})}
    d3 = grammar_derive(rules, MPoly.var(xy, "x"), 3)
    assert d3 == MPoly(xy, {(3, 1): 1, (2, 2): 4, (1, 3): 1})


def test_derive_zero_times():
    start = MPoly.var(XYZ, "x")
    assert grammar_derive(schett_rules(), start, 0) == start


def test_undeclared_variable_rejected():
    with pytest.raises(ValueError, match="undeclared"):
        derive({"q": MPoly.const(XYZ, 1)}, MPoly.var(XYZ, "x"))
    with pytest.raises(ValueError, match="no substitution rule"):
        derive({"x": MPoly.var(XYZ, "y")}, MPoly.var(XYZ, "z"))


def test_factorial_evaluation():
    for n in range(9):
        assert schett_poly(n).evaluate({"x": 1, "y": 1, "z": 1}) == factorial(n)


def test_symmetry_and_parity_shape():
    for n in range(8):
        s = schett_poly(n)
        assert s == s.rename({"y": "z", "z": "y"})
        for (ex, ey, ez), _ in s.terms.items():
            if n % 2 == 0:
                assert ex % 2 == 1 and ey % 2 == 0 and ez % 2 == 0
            else:
                assert ex % 2 == 0 and ey % 2 == 1 and ez % 2 == 1


def test_grammar_equals_enumeration():
    for n in range(7):
        assert multiset_schett(set_multiset(n)) == schett_poly(n)


def test_four_var_small():
    assert four_var_poly(1) == MPoly(("w", "x", "y", "z"), {(1, 0, 1, 0): 1})
    assert four_var_coeffs(1) == {(0, 0): 1}


def test_st_relations():
    for n in range(1, 9):
        s = schett_coeffs(n)
        t = four_var_coeffs(n)
        for (i, j), v in s.items():
            if n % 2 == 1:
                assert v == t.get((2 * i - 1, j), 0) + t.get((2 * i, j), 0), (n, i, j)
            else:
                assert v == t.get((2 * i + 1, j), 0) + t.get((2 * i, j), 0), (n, i, j)
        assert sum(t.values()) == factorial(n)


def test_leibniz_law():
    rng = random.Random(5)
    rules = schett_rules()
    for _ in range(40):
        u = MPoly(XYZ, {tuple(rng.randrange(3) for _ in range(3)): rng.randint(-5, 5) for _ in range(4)})
        v = MPoly(XYZ, {tuple(rng.randrange(3) for _ in range(3)): rng.randint(-5, 5) for _ in range(4)})
        assert derive(rules, u * v) == derive(rules, u) * v + u * derive(rules, v)


def test_derive_matches_product_oracle_on_chains():
    for rules, start in ((schett_rules(), MPoly.var(XYZ, "x")), (four_var_rules(), MPoly.var(WXYZ, "w"))):
        cur = start
        for n in range(21):
            got = derive(rules, cur)
            assert got == oracle_derive(rules, cur), n
            assert 0 not in got.terms.values()
            cur = got


def test_derive_matches_product_oracle_on_cancelling_rules():
    """Multi-term rules with negative coefficients, chosen so that terms of
    D(p) cancel; no zero coefficient may be stored."""
    rng = random.Random(23)
    cancelled = 0
    for _ in range(60):
        rules = {
            v: MPoly(XYZ, {tuple(rng.randrange(3) for _ in range(3)): rng.randint(-3, 3) for _ in range(3)})
            for v in XYZ
        }
        p = MPoly(XYZ, {tuple(rng.randrange(4) for _ in range(3)): rng.randint(-4, 4) for _ in range(5)})
        got = derive(rules, p)
        assert got == oracle_derive(rules, p)
        assert 0 not in got.terms.values()
        reached = {
            tuple(a + b - (j == i) for j, (a, b) in enumerate(zip(e, f)))
            for e in p.terms
            for i, power in enumerate(e)
            if power
            for f in rules[XYZ[i]].terms
        }
        cancelled += not reached <= got.terms.keys()
    assert cancelled > 0  # some monomial reached by a Leibniz term summed to 0
    # x -> y - z, y -> z, z -> y: D(x^2 + xy) = 2xy - 2xz + y^2 - yz + xz, and
    # D(xz) = yz - z^2 + xy; the sum cancels the yz terms exactly
    rules = {"x": MPoly(XYZ, {(0, 1, 0): 1, (0, 0, 1): -1}), "y": MPoly.var(XYZ, "z"), "z": MPoly.var(XYZ, "y")}
    p = MPoly(XYZ, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1})
    got = derive(rules, p)
    assert got == oracle_derive(rules, p)
    assert got == MPoly(XYZ, {(1, 1, 0): 3, (1, 0, 1): -1, (0, 2, 0): 1, (0, 0, 2): -1})
