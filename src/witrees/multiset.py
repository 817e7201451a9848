"""Multisets {1^p1, ..., n^pn} and the closed-form count of weakly increasing trees.

A multiset is given by its multiplicity vector (p_1, ..., p_n) with every
p_i >= 1 and labels 1..n contiguous.  The prefix sums N_i = p_1 + ... + p_i
drive the product formula

    |T_M| = (1 / (1 + N_n)) * prod_i C(N_i + p_i, p_i),

which specialises to n! on M = [n] and to the Catalan numbers on M = {1^n}.
All arithmetic is exact (big integers); the division above is provably exact
and checked to be so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import InternalError


@dataclass(frozen=True)
class Multiset:
    """The multiset {1^p1, ..., n^pn}, stored as its multiplicity vector."""

    multiplicities: tuple[int, ...]
    prefix: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for p in self.multiplicities:
            if not isinstance(p, int) or p < 1:
                raise ValueError(
                    f"multiplicities must be positive integers, got {p!r}"
                )
        pref = []
        total = 0
        for p in self.multiplicities:
            total += p
            pref.append(total)
        object.__setattr__(self, "prefix", tuple(pref))

    @property
    def n(self) -> int:
        """Number of distinct labels."""
        return len(self.multiplicities)

    @property
    def size(self) -> int:
        """Total number of elements p = sum of multiplicities."""
        return self.prefix[-1] if self.multiplicities else 0

    def __str__(self) -> str:
        if not self.multiplicities:
            return "{}"
        return "{" + ",".join(
            f"{i}^{p}" if p > 1 else f"{i}"
            for i, p in enumerate(self.multiplicities, start=1)
        ) + "}"


def set_multiset(n: int) -> Multiset:
    """[n] = {1, 2, ..., n}: every multiplicity 1 (increasing trees)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Multiset((1,) * n)


def uniform_multiset(n: int) -> Multiset:
    """{1^n}: a single letter repeated n times (plane trees with n edges)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Multiset((n,)) if n else Multiset(())


def parse_multiset(text: str) -> Multiset:
    """Parse the dense "label:multiplicity" syntax, e.g. "1:2,2:2".

    Labels must be exactly 1..n in order with no gaps, since a gap would
    silently change the prefix sums and hence every count built on them.
    """
    text = text.strip()
    if not text:
        return Multiset(())
    mults = []
    for i, part in enumerate(text.split(","), start=1):
        piece = part.strip()
        if ":" in piece:
            lab_s, mult_s = piece.split(":", 1)
        else:
            lab_s, mult_s = piece, "1"
        try:
            lab, mult = int(lab_s), int(mult_s)
        except ValueError:
            raise ValueError(f"bad multiset entry {piece!r}") from None
        if lab != i:
            raise ValueError(
                f"labels must be contiguous 1..n: expected {i}, got {lab}"
            )
        if mult < 1:
            raise ValueError(f"multiplicity of label {lab} must be >= 1")
        mults.append(mult)
    return Multiset(tuple(mults))


def count_trees(m: Multiset) -> int:
    """Number of weakly increasing trees on m, by the exact product formula."""
    if not m.multiplicities:
        return 1
    prod = 1
    for n_i, p_i in zip(m.prefix, m.multiplicities):
        prod *= comb(n_i + p_i, p_i)
    q, r = divmod(prod, 1 + m.size)
    if r:
        raise InternalError(f"product formula division must be exact, got remainder {r}")
    return q
