"""Formal derivatives for context-free grammars, and the Schett polynomials.

A grammar assigns each variable a polynomial substitution rule; the formal
derivative D acts on polynomials by linearity and the Leibniz rule, with
D(v) = rule(v) on variables.  On a monomial it acts by exponent shifts:
each term of rule(v) moves the exponent vector by that term's exponents
minus the unit vector of v, with the power of v as a factor, so D never
forms a product of polynomials.  The Schett polynomials are S_n = D^n(x) for
the rules x -> yz, y -> xz, z -> xy; they extend the Taylor coefficients of
the Jacobi elliptic functions, satisfy S_n(1,1,1) = n!, and equal the
generating polynomial of increasing trees on [n] by (even-degree on even
level, even-degree on odd level, odd-degree) node counts.

The four-variable variant uses w -> wy, x -> yz, y -> xz, z -> xy and makes
D^n(w)/w the same generating polynomial with the root excluded from all
three counts.
"""

from __future__ import annotations

from operator import add

from .errors import InternalError
from .mpoly import MPoly

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
    """One application of the formal derivative D.

    By Leibniz, D(c v^e) = sum_i c e_i v^(e - u_i) rule(v_i), u_i the unit
    vector of v_i, so a term r v^f of rule(v_i) sends c v^e to
    c e_i r v^(e + f - u_i).  The shifts f - u_i are read off the rules
    once per call and the terms summed into one dict.
    """
    variables = poly.vars
    shifts: list[list[tuple[tuple[int, ...], int]] | None] = []
    for i, v in enumerate(variables):
        r = rules.get(v)
        if r is None:
            shifts.append(None)
            continue
        if r.vars != variables:
            raise ValueError(f"rule for {v} uses context {r.vars}, expected {variables}")
        shifts.append(
            [(f[:i] + (f[i] - 1,) + f[i + 1 :], rc) for f, rc in r.terms.items()]
        )
    for name in rules:
        if name not in variables:
            raise ValueError(f"rule for undeclared variable {name!r}")
    terms: dict[tuple[int, ...], int] = {}
    for e, c in poly.terms.items():
        for i, power in enumerate(e):
            if not power:
                continue
            rule_shifts = shifts[i]
            if rule_shifts is None:
                raise ValueError(f"no substitution rule for variable {variables[i]!r}")
            cp = c * power
            for d, rc in rule_shifts:
                key = tuple(map(add, e, d))
                nc = terms.get(key, 0) + cp * rc
                if nc:
                    terms[key] = nc
                else:
                    del terms[key]
    out = MPoly.__new__(MPoly)
    out.vars = variables
    out.terms = terms
    return out


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
