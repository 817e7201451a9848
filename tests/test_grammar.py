import random
from math import factorial

import pytest

import witrees.grammar
from _oracles import oracle_derive
from witrees.census import schett_of
from witrees.enumeration import iter_trees
from witrees.gamma import reduced_table
from witrees.grammar import (
    WXYZ,
    XYZ,
    derive,
    four_var_coeffs,
    four_var_poly,
    four_var_rules,
    grammar_derive,
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
        derive({"q": MPoly(XYZ, {(0, 0, 0): 1})}, MPoly.var(XYZ, "x"))
    with pytest.raises(ValueError, match="no substitution rule"):
        derive({"x": MPoly.var(XYZ, "y")}, MPoly.var(XYZ, "z"))


def test_factorial_evaluation():
    for n in range(9):
        assert sum(schett_poly(n).terms.values()) == factorial(n)


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
        assert schett_of(iter_trees(set_multiset(n))) == schett_poly(n)


def test_four_var_small():
    assert four_var_poly(1) == MPoly(("w", "x", "y", "z"), {(1, 0, 1, 0): 1})
    assert four_var_coeffs(1) == {(0, 0): 1}


def test_st_relations():
    for n in range(1, 9):
        s = reduced_table(schett_poly(n), n)
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


@pytest.fixture
def empty_chains(monkeypatch):
    """Both grammar chains start empty and are dropped after the test."""
    monkeypatch.setattr(witrees.grammar, "_CHAINS", {})


def test_chains_answer_any_order_like_a_fresh_derivation(empty_chains):
    """Interleaved requests over a seeded shuffle of n in 0..36, with
    repeats, equal D^n from the start, by `derive` and for n <= 20 by the
    product oracle."""
    rng = random.Random(36)
    ns = list(range(37)) * 2
    rng.shuffle(ns)
    routes = (
        (schett_poly, schett_rules(), MPoly.var(XYZ, "x")),
        (four_var_poly, four_var_rules(), MPoly.var(WXYZ, "w")),
    )
    oracle_chains = []
    for _, rules, start in routes:
        chain = [start]
        for _ in range(20):
            chain.append(oracle_derive(rules, chain[-1]))
        oracle_chains.append(chain)
    pairs = list(zip(routes, oracle_chains))
    for k, n in enumerate(ns):
        for (poly, rules, start), oracle_chain in pairs if k % 2 else pairs[::-1]:
            got = poly(n)
            assert got == grammar_derive(rules, start, n), (poly.__name__, n)
            if n <= 20:
                assert got == oracle_chain[n], (poly.__name__, n)


def test_chains_refuse_a_negative_count(empty_chains):
    for poly in (schett_poly, four_var_poly):
        with pytest.raises(ValueError, match="derivative count must be >= 0"):
            poly(-1)


def test_chain_derives_each_step_once(empty_chains, monkeypatch):
    """Ascending n costs one `derive` per step in all; a smaller n restarts
    the chain from x."""
    calls = []
    real_derive = witrees.grammar.derive

    def counting_derive(rules, poly):
        calls.append(1)
        return real_derive(rules, poly)

    monkeypatch.setattr(witrees.grammar, "derive", counting_derive)
    for n in range(1, 37):
        schett_poly(n)
    assert len(calls) == 36
    calls.clear()
    s5 = schett_poly(5)
    assert len(calls) == 5
    assert s5.canonical_str("grouped") == "y^5z+14y^3z^3+yz^5+44x^2y^3z+44x^2yz^3+16x^4yz"


def test_chain_restarts_when_the_rules_change(empty_chains, monkeypatch):
    four_var_poly(6)
    swapped = four_var_rules()
    swapped["w"] = MPoly(WXYZ, {(1, 0, 0, 1): 1})
    monkeypatch.setattr(witrees.grammar, "four_var_rules", lambda: swapped)
    assert four_var_poly(7) == grammar_derive(swapped, MPoly.var(WXYZ, "w"), 7)
