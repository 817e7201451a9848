"""Formal derivatives for context-free grammars, and the Schett polynomials.

A grammar assigns each variable a polynomial substitution rule; the formal
derivative D acts on polynomials by linearity and the Leibniz rule, with
D(v) = rule(v) on variables.  The Schett polynomials are S_n = D^n(x) for
the rules x -> yz, y -> xz, z -> xy; they extend the Taylor coefficients of
the Jacobi elliptic functions, satisfy S_n(1,1,1) = n!, and equal the
generating polynomial of increasing trees on [n] by (even-degree on even
level, even-degree on odd level, odd-degree) node counts.

The four-variable variant uses w -> wy, x -> yz, y -> xz, z -> xy and makes
D^n(w)/w the same generating polynomial with the root excluded from all
three counts.
"""

from __future__ import annotations

from .errors import InternalError
from .mpoly import MPoly, poly_sum

GrammarRules = dict[str, MPoly]

XYZ = ("x", "y", "z")
WXYZ = ("w", "x", "y", "z")


def schett_rules() -> GrammarRules:
    return {
        "x": MPoly(XYZ, {(0, 1, 1): 1}),
        "y": MPoly(XYZ, {(1, 0, 1): 1}),
        "z": MPoly(XYZ, {(1, 1, 0): 1}),
    }


def four_var_rules() -> GrammarRules:
    return {
        "w": MPoly(WXYZ, {(1, 0, 1, 0): 1}),
        "x": MPoly(WXYZ, {(0, 0, 1, 1): 1}),
        "y": MPoly(WXYZ, {(0, 1, 0, 1): 1}),
        "z": MPoly(WXYZ, {(0, 1, 1, 0): 1}),
    }


def derive(rules: GrammarRules, poly: MPoly) -> MPoly:
    """One application of the formal derivative (Leibniz on each monomial)."""
    variables = poly.vars
    rule_list: list[MPoly | None] = []
    for v in variables:
        r = rules.get(v)
        if r is not None and r.vars != variables:
            raise ValueError(f"rule for {v} uses context {r.vars}, expected {variables}")
        rule_list.append(r)
    for name in rules:
        if name not in variables:
            raise ValueError(f"rule for undeclared variable {name!r}")
    pieces = []
    for e, c in poly.terms.items():
        for i, power in enumerate(e):
            if not power:
                continue
            rule = rule_list[i]
            if rule is None:
                raise ValueError(f"no substitution rule for variable {variables[i]!r}")
            lowered = e[:i] + (power - 1,) + e[i + 1 :]
            pieces.append(MPoly.monomial(variables, lowered, c * power) * rule)
    return poly_sum(variables, pieces)


def grammar_derive(rules: GrammarRules, start: MPoly, n: int) -> MPoly:
    """D^n(start), computed exactly."""
    if n < 0:
        raise ValueError("derivative count must be >= 0")
    cur = start
    for _ in range(n):
        cur = derive(rules, cur)
    return cur


def schett_poly(n: int) -> MPoly:
    """S_n(x, y, z) = D^n(x)."""
    return grammar_derive(schett_rules(), MPoly.var(XYZ, "x"), n)


def four_var_poly(n: int) -> MPoly:
    """D^n(w) for the four-variable grammar; always divisible by w."""
    return grammar_derive(four_var_rules(), MPoly.var(WXYZ, "w"), n)


def schett_coeffs(n: int) -> dict[tuple[int, int], int]:
    """The table s_{n,i,j}: coefficient of the monomial with x-exponent
    2i+1 (n even) resp. 2i (n odd) and y-exponent 2j resp. 2j+1 in S_n.
    Equivalently, i and j are the floor-halved x- and y-exponents."""
    out: dict[tuple[int, int], int] = {}
    for (ex, ey, _ez), c in schett_poly(n).terms.items():
        key = (ex // 2, ey // 2)
        out[key] = out.get(key, 0) + c
    return out


def four_var_coeffs(n: int) -> dict[tuple[int, int], int]:
    """The table t_{n,i,j}: coefficient of w * x^i * y^(2j or 2j+1) in D^n(w)."""
    out: dict[tuple[int, int], int] = {}
    for (ew, ex, ey, _ez), c in four_var_poly(n).terms.items():
        if ew != 1:
            raise InternalError("every term of D^n(w) carries exactly one w")
        key = (ex, ey // 2)
        out[key] = out.get(key, 0) + c
    return out
