"""Sparse multivariate polynomials with exact big-integer coefficients.

A polynomial carries a fixed variable context (an ordered tuple of names);
terms map exponent vectors to nonzero integer coefficients.  No floating
point anywhere.  Two canonical text orders are provided: "grouped" sorts by
ascending power of the first variable and then descending powers of the
rest (the order used for the three-variable tree polynomials), "desclex"
sorts by descending lexicographic exponent (the order used for series
coefficients).
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int] | None = None):
        self.vars = tuple(variables)
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    if len(exps) != len(self.vars):
                        raise ValueError(
                            f"exponent vector {exps} does not fit variables {self.vars}"
                        )
                    self.terms[tuple(exps)] = coeff

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "MPoly":
        return cls(variables)

    @classmethod
    def const(cls, variables: tuple[str, ...], value: int) -> "MPoly":
        return cls(variables, {(0,) * len(variables): value} if value else {})

    @classmethod
    def var(cls, variables: tuple[str, ...], name: str) -> "MPoly":
        i = variables.index(name)
        exps = [0] * len(variables)
        exps[i] = 1
        return cls(variables, {tuple(exps): 1})

    @classmethod
    def monomial(cls, variables: tuple[str, ...], exps: tuple[int, ...], coeff: int = 1) -> "MPoly":
        return cls(variables, {tuple(exps): coeff})

    # -- helpers ------------------------------------------------------
    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable contexts differ: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, int):
            return MPoly.const(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            nc = terms.get(e, 0) + c
            if nc:
                terms[e] = nc
            else:
                terms.pop(e, None)
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, int):
            out = MPoly.__new__(MPoly)
            out.vars = self.vars
            out.terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return out
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                nc = terms.get(e, 0) + c1 * c2
                if nc:
                    terms[e] = nc
                else:
                    del terms[e]
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = MPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------
    def degree(self, name: str) -> int:
        """Highest power of one variable (zero polynomial has degree 0)."""
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def slices(self, name: str) -> dict[int, "MPoly"]:
        """Split by the power of one variable; values have that slot zeroed."""
        i = self.vars.index(name)
        out: dict[int, dict[tuple[int, ...], int]] = {}
        for e, c in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1 :]] = c
        return {p: MPoly(self.vars, t) for p, t in sorted(out.items())}

    def rename(self, mapping: Mapping[str, str]) -> "MPoly":
        """Permute/merge variables within the same context, e.g. swap y and z
        or substitute w := z (exponents of merged variables add)."""
        idx = {v: i for i, v in enumerate(self.vars)}
        targets = [idx[mapping.get(v, v)] for v in self.vars]
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ne = [0] * len(self.vars)
            for src, t in enumerate(targets):
                ne[t] += e[src]
            key = tuple(ne)
            nc = terms.get(key, 0) + c
            if nc:
                terms[key] = nc
            else:
                del terms[key]
        return MPoly(self.vars, terms)

    def evaluate(self, values: Mapping[str, int]) -> int:
        """Exact integer evaluation; every variable must be assigned."""
        total = 0
        vals = [values[v] for v in self.vars]
        for e, c in self.terms.items():
            prod = c
            for v, p in zip(vals, e):
                if p:
                    prod *= v**p
            total += prod
        return total

    def sorted_terms(self, style: str = "grouped") -> list[tuple[tuple[int, ...], int]]:
        if style == "grouped":
            def key(item):
                e = item[0]
                return (e[0], tuple(-x for x in e[1:]))
        elif style == "desclex":
            def key(item):
                return tuple(-x for x in item[0])
        else:
            raise ValueError(f"unknown term order {style!r}")
        return sorted(self.terms.items(), key=key)

    def canonical_str(self, style: str = "grouped") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms(style):
            mono = "".join(
                v if p == 1 else f"{v}^{p}" for v, p in zip(self.vars, e) if p
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __str__(self) -> str:
        return self.canonical_str()

    def __repr__(self) -> str:
        return f"MPoly({self.vars}, {self.canonical_str()!r})"


def poly_sum(variables: tuple[str, ...], items: Iterable[MPoly]) -> MPoly:
    """Sum many polynomials without quadratic dict churn."""
    terms: dict[tuple[int, ...], int] = {}
    for p in items:
        for e, c in p.terms.items():
            nc = terms.get(e, 0) + c
            if nc:
                terms[e] = nc
            else:
                del terms[e]
    out = MPoly.__new__(MPoly)
    out.vars = tuple(variables)
    out.terms = terms
    return out
