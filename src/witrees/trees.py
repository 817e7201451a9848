"""Weakly increasing plane trees, their text form, and all node statistics.

A tree is valid when the root is labeled 0, labels weakly increase along
every root-to-leaf path, and the labels of each node's children weakly
increase left to right.  Canonical text form:

    tree := label | label "(" tree ("," tree)* ")"

so "0(1(2),1)" is the root 0 with children 1 (which has a child 2) and 1.

Statistics use "degree" = number of children and "level" = distance from
the root (root at level 0).  A node is *active* when (a) its level is odd,
(b) it is the k-th child of its parent with k odd, and (c) its first right
sibling has degree of the same parity, or it has no right sibling and its
degree is odd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, NamedTuple

from .errors import InvalidTreeError, TreeSyntaxError


class WTree(NamedTuple):
    """A labeled plane tree node; children are ordered left to right."""

    label: int
    children: tuple["WTree", ...] = ()

    def __str__(self) -> str:
        return format_tree(self)


# The kernels' node constructor: wtree((label, children)) builds the same
# WTree as WTree(label, children) in C, skipping the NamedTuple's Python-level
# __new__ with its defaults and its arity check, which is half the cost of a
# node.  It takes exactly one (label, children) tuple; tests/test_project.py
# holds every call to that shape.
wtree = partial(tuple.__new__, WTree)


def format_tree(t: WTree) -> str:
    label, children = t
    if not children:
        return str(label)
    return f"{label}({','.join(map(format_tree, children))})"


def format_trees(trees: Iterable[WTree]) -> list[str]:
    """The texts of trees built from shared subtree objects, as the
    enumeration builds them: each distinct node object below a root is
    formatted once.  The memo holds each node beside its text, so no `id`
    is reused while it lives, and it lives for this call only.  Trees that
    share nothing are faster through `format_tree`."""
    memo: dict[int, tuple[WTree, str]] = {}
    return [_format_shared(t, memo) for t in trees]


def _format_shared(t: WTree, memo: dict[int, tuple[WTree, str]]) -> str:
    label, children = t
    if not children:
        return str(label)
    parts = []
    for c in children:
        hit = memo.get(id(c))
        if hit is None:
            hit = memo[id(c)] = (c, _format_shared(c, memo))
        parts.append(hit[1])
    return f"{label}({','.join(parts)})"


def read_label(s: str, pos: int, missing: str) -> tuple[int, int]:
    """The label of ASCII digits at s[pos:] and the position after it, for
    both tree parsers; `missing` is the message when no digit is there."""
    end = pos
    while end < len(s) and "0" <= s[end] <= "9":
        end += 1
    if end == pos:
        raise TreeSyntaxError(missing, pos)
    try:
        return int(s[pos:end]), end
    except ValueError:  # past int()'s limit on decimal digits
        raise TreeSyntaxError(f"label of {end - pos} digits is too long", pos) from None


def parse_tree(text: str) -> WTree:
    """Parse canonical tree text and validate every invariant, in one pass
    over the text.  Each step reads a label, then either "(" or the "),"
    that close nodes.  A label below its lower bound (max(parent, 1) for a
    first child, its left sibling's label after that) only clears `ok`;
    such a tree, or one whose root is not 0, goes through `validate_tree`,
    which names the violation.  Syntax errors come first."""
    s = text.strip()
    n = len(s)
    pos, ok, bound = 0, True, 0
    kids: list[WTree] = []  # the children read so far of the innermost open node
    above: list[tuple[int, list[WTree]]] = []  # (label, kids) of each node still open above it
    while True:
        label, pos = read_label(s, pos, "expected a label")
        if label < bound:
            ok = False
        if pos < n and s[pos] == "(":
            above.append((label, kids))
            kids, bound = [], label or 1  # max(label, 1): labels are digits
            pos += 1
            continue
        node = wtree((label, ()))
        bound = label
        while above:
            kids.append(node)
            if pos < n and s[pos] == ",":
                pos += 1
                break
            if pos >= n or s[pos] != ")":
                raise TreeSyntaxError("expected ')' or ','", pos)
            pos += 1
            label, siblings = above.pop()
            node = wtree((label, tuple(kids)))
            kids, bound = siblings, label
        else:
            break
    if pos != n:
        raise TreeSyntaxError("trailing input after tree", pos)
    if node[0] or not ok:
        validate_tree(node)
    return node


def validate_tree(t: WTree) -> None:
    """Check root label 0, path monotonicity and sibling order."""
    if t.label != 0:
        raise InvalidTreeError(f"root must be labeled 0, got {t.label}")
    stack = [t]
    while stack:
        label, children = stack.pop()
        # a child's lower bound: max(label, 1), then its left sibling's
        # label; `label or 1` is max(label, 1) here, because a popped node
        # is the root (0) or a child that passed its check (at least 1)
        bound = floor = label or 1
        for child in children:
            c = child[0]
            if c < bound:
                if c < floor:
                    raise InvalidTreeError(
                        "labels must weakly increase along root-to-leaf paths: "
                        f"node {label} has child {c}"
                    )
                raise InvalidTreeError(
                    "children labels must weakly increase left to right: "
                    f"{bound} precedes {c} under node {label}"
                )
            bound = c
        stack.extend(children)


@dataclass
class StatVector:
    """Every parity/degree/level statistic of one tree, from a single pass.

    `deg` maps a degree q to the number of nodes with that degree; `od`
    maps q to the number of degree-q nodes on odd levels.  Starred variants
    exclude the root.  `oddf` counts nodes of odd full-degree, where the
    full-degree is the adjacency count (degree plus one except at the root).
    """

    leaf: int = 0
    el: int = 0
    odd: int = 0
    oe: int = 0
    ee: int = 0
    oo: int = 0
    eo: int = 0
    odd_star: int = 0
    oe_star: int = 0
    ee_star: int = 0
    oddf: int = 0
    deg: dict[int, int] = field(default_factory=dict)
    od: dict[int, int] = field(default_factory=dict)
    act: int = 0
    eact: int = 0
    oact: int = 0

    def key(self) -> tuple:
        """Every field above, hashable: equal keys exactly for equal vectors."""
        return (self.leaf, self.el, self.odd, self.oe, self.ee, self.oo, self.eo, self.odd_star, self.oe_star,
                self.ee_star, self.oddf, tuple(sorted(self.deg.items())), tuple(sorted(self.od.items())),
                self.act, self.eact, self.oact)

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["deg"] = {str(q): c for q, c in sorted(self.deg.items())}
        d["od"] = {str(q): c for q, c in sorted(self.od.items())}
        return d


def stats(t: WTree) -> StatVector:
    """The full statistic vector of a tree.  Every field has its own
    counter, so the identities between the fields are facts to check."""
    leaf = el = odd = oe = ee = oo = eo = odd_star = oe_star = ee_star = oddf = 0
    act = eact = oact = 0
    deg: dict[int, int] = {}
    od: dict[int, int] = {}
    stack: list[tuple[WTree, int]] = [(t, 0)]  # level 0 is the root's alone
    pop, push = stack.pop, stack.append
    while stack:
        node, lvl = pop()
        ch = node[1]
        d = len(ch)
        if not d:
            leaf += 1
        deg[d] = deg.get(d, 0) + 1
        if lvl & 1:
            od[d] = od.get(d, 0) + 1
            if d & 1:
                odd += 1
                oo += 1
                odd_star += 1
            else:
                oe += 1
                oe_star += 1
        else:
            el += 1
            if d & 1:
                odd += 1
                eo += 1
                if lvl:
                    odd_star += 1
            else:
                ee += 1
                if lvl:
                    ee_star += 1
            # the children sit on an odd level: which odd-indexed ones are active
            for i in range(0, d, 2):
                cd = len(ch[i][1]) & 1
                if (cd == len(ch[i + 1][1]) & 1) if i + 1 < d else cd:
                    act += 1
                    if cd:
                        oact += 1
                    else:
                        eact += 1
        # full-degree: the adjacency count, degree plus one except at the root
        if (d + (lvl > 0)) & 1:
            oddf += 1
        lvl += 1
        for c in ch:
            push((c, lvl))
    return StatVector(leaf, el, odd, oe, ee, oo, eo, odd_star, oe_star, ee_star, oddf, deg, od, act, eact, oact)
