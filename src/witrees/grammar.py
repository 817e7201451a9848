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

Each of the two fixed grammars keeps one resumable chain: the last
(rules, n, D^n) that `schett_poly` (resp. `four_var_poly`) computed, and
nothing else, so it holds one polynomial (S_36 has 189 terms), never the
S_0..S_n list.  A request for an n at or above the chain's derives forward
from its polynomial; a smaller n, or rules no longer equal in value to
the chain's, restarts it from x (resp. w).  Ascending requests thus cost
one `derive` per step in all.
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
    return MPoly._raw(variables, terms)


def grammar_derive(rules: GrammarRules, start: MPoly, n: int) -> MPoly:
    """D^n(start), computed exactly."""
    if n < 0:
        raise ValueError("derivative count must be >= 0")
    cur = start
    for _ in range(n):
        cur = derive(rules, cur)
    return cur


# chain name -> its last (rules, n, D^n(start)); one entry is replaced at
# a time, so a reader never sees an n paired with another n's polynomial
_CHAINS: dict[str, tuple[GrammarRules, int, MPoly]] = {}


def _resume(chain: str, rules: GrammarRules, start: MPoly, n: int) -> MPoly:
    """D^n(start), derived forward from the chain's last polynomial when
    its rules equal `rules` and its n is at most n, else from start."""
    if n < 0:
        raise ValueError("derivative count must be >= 0")
    last = _CHAINS.get(chain)
    if last is None or n < last[1] or last[0] != rules:
        last = (rules, 0, start)
    poly = grammar_derive(rules, last[2], n - last[1])
    _CHAINS[chain] = (rules, n, poly)
    return poly


def schett_poly(n: int) -> MPoly:
    """S_n(x, y, z) = D^n(x)."""
    return _resume("schett", schett_rules(), MPoly.var(XYZ, "x"), n)


def four_var_poly(n: int) -> MPoly:
    """D^n(w) for the four-variable grammar; always divisible by w."""
    return _resume("four-var", four_var_rules(), MPoly.var(WXYZ, "w"), n)


def four_var_coeffs(n: int) -> dict[tuple[int, int], int]:
    """The table t_{n,i,j}: coefficient of w * x^i * y^(2j or 2j+1) in D^n(w)."""
    out: dict[tuple[int, int], int] = {}
    for (ew, ex, ey, _ez), c in four_var_poly(n).terms.items():
        if ew != 1:
            raise InternalError("every term of D^n(w) carries exactly one w")
        key = (ex, ey // 2)
        out[key] = out.get(key, 0) + c
    return out
