"""Exact all-real-roots decisions for integer polynomials via Sturm chains.

Everything runs over the integers, so a verdict is a proof at this scale,
not a numeric heuristic.  One signed remainder sequence p, p', -rem(p, p'),
... decides it (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry,
ch. 2): the difference of its sign variations at -inf and +inf, read off
the leading coefficients, counts the distinct real roots of p, squarefree
or not, and its last member is gcd(p, p') up to a constant, so the
squarefree part of p has degree deg p - deg of that member.  p has only
real roots exactly when the two numbers agree.  It stays fraction-free
(ch. 8): each remainder is of a positive multiple of the dividend, made
primitive, so every sign is that of the sequence over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Poly = list[int]  # ascending coefficients, no trailing zeros


def _trim(p: list[int]) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: Poly) -> Poly:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _rem(a: Poly, b: Poly) -> Poly:
    """The primitive part of the remainder of c*a by b (b nonzero), for a
    positive integer c.  Only positive scaling, so Sturm sign sequences are
    unaffected."""
    r = list(a)
    lb = b[-1]
    while _trim(r) and len(r) >= len(b):
        g = gcd(r[-1], lb)
        scale, factor = abs(lb) // g, r[-1] // g * (1 if lb > 0 else -1)
        shift = len(r) - len(b)
        r = [c * scale for c in r]
        for i, c in enumerate(b[:-1]):
            r[i + shift] -= factor * c
        r.pop()  # the leading term cancels exactly: scale*r[-1] == factor*lb
    if r:
        content = gcd(*r)
        r = [c // content for c in r]
    return r


def sturm_chain(p: Poly) -> list[Poly]:
    """The signed remainder sequence of p, each member a positive integer
    multiple of its counterpart over the rationals, up to its last nonzero
    member, which is gcd(p, p') up to a constant."""
    chain = [list(p), _derivative(p)]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    return [c for c in chain if c]


def _sign_changes(positive: list[bool]) -> int:
    return sum(a != b for a, b in zip(positive, positive[1:]))


@dataclass(frozen=True)
class RootReport:
    """Evidence for an all-real-roots verdict."""

    coeffs: tuple[int, ...]
    degree: int  # after stripping the power of t dividing the polynomial
    stripped_power: int
    squarefree_degree: int
    distinct_roots: int
    all_real: bool
    vacuous: bool  # zero polynomial: nothing to decide, flagged

    def __str__(self) -> str:
        if self.vacuous:
            return "zero polynomial: vacuously real-rooted (flagged)"
        verdict = "real-rooted" if self.all_real else "NOT real-rooted"
        return (
            f"degree {self.degree} (t^{self.stripped_power} stripped), "
            f"squarefree degree {self.squarefree_degree}, "
            f"{self.distinct_roots} distinct real roots: {verdict}"
        )


def real_rooted(coeffs: list[int]) -> RootReport:
    """Decide whether an integer polynomial has only real roots.

    The zero polynomial is reported as vacuously real-rooted with the
    `vacuous` flag set.  Powers of t are stripped first (roots at zero are
    real); the verdict compares the Sturm count of distinct real roots with
    the degree of the squarefree part, which also certifies the roots of
    every multiplicity level.
    """
    coeffs = list(coeffs)
    if not any(coeffs):
        return RootReport((), 0, 0, 0, 0, True, True)
    stripped = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        stripped += 1
    p = _trim(list(coeffs))
    degree = len(p) - 1
    if degree == 0:
        return RootReport(tuple(coeffs), 0, stripped, 0, 0, True, False)
    chain = sturm_chain(p)
    sq_deg = degree - (len(chain[-1]) - 1)
    at_pos = [c[-1] > 0 for c in chain]
    at_neg = [(c[-1] > 0) != (len(c) % 2 == 0) for c in chain]  # odd degree flips the sign
    count = _sign_changes(at_neg) - _sign_changes(at_pos)
    return RootReport(
        tuple(int(c) for c in coeffs),
        degree,
        stripped,
        sq_deg,
        count,
        count == sq_deg,
        False,
    )
