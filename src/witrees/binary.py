"""Weakly increasing binary trees: statistics, active/dynamic nodes, the
modified preorder, and the branch-swapping group action.

Text form: `label[left|right]` with `_` for an absent child, so the plane
tree 0(1,2) reads `0[1[_|2[_|_]]|_]`.

Terminology (all label-independent):

* a *left edge* joins a node to its left child; the *left-level* of a node
  counts the left edges on its root path;
* following the last left edge on a node's root path upward lands on its
  *ancestor*; the nodes reachable from v by one left edge and then right
  edges only are v's *right grandsons*, and their number is v's
  *right-degree* (the degree of the matching plane-tree node);
* a node u with right child y is *active* when its left-level is odd, the
  path to its ancestor has an odd number of edges, and either y exists with
  right-degree of the same parity as u's, or y is absent and u's
  right-degree is odd;
* an active node with a right child forms a *dynamic* pair with it (even or
  odd by u's right-degree parity); an active node with only a left child
  forms a dynamic odd pair with its ancestor.

The branch swap at the i-th node of the modified preorder exchanges the
left and right branches at that node and at both of its children; doing
nothing when the node is inactive.  These swaps commute, are involutions,
and generate the group action whose orbit structure underlies the gamma
expansion of the reduced Schett polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import InternalError

Path = tuple[int, ...]  # 0 = left step, 1 = right step


class WBTree(NamedTuple):
    """A labeled binary tree node."""

    label: int
    left: Optional["WBTree"] = None
    right: Optional["WBTree"] = None

    def __str__(self) -> str:
        return format_btree(self)


class BTreeSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidBTreeError(ValueError):
    """Well-formed text violating a weakly-increasing-binary-tree invariant."""


def format_btree(b: WBTree) -> str:
    left = format_btree(b.left) if b.left is not None else "_"
    right = format_btree(b.right) if b.right is not None else "_"
    return f"{b.label}[{left}|{right}]"


def parse_btree(text: str) -> WBTree:
    s = text.strip()
    pos = 0

    def expect(ch: str) -> None:
        nonlocal pos
        if pos >= len(s) or s[pos] != ch:
            raise BTreeSyntaxError(f"expected {ch!r}", pos)
        pos += 1

    def parse_node() -> WBTree | None:
        nonlocal pos
        if pos < len(s) and s[pos] == "_":
            pos += 1
            return None
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise BTreeSyntaxError("expected a label or '_'", pos)
        label = int(s[start:pos])
        expect("[")
        left = parse_node()
        expect("|")
        right = parse_node()
        expect("]")
        return WBTree(label, left, right)

    tree = parse_node()
    if tree is None:
        raise BTreeSyntaxError("tree must have a root node", 0)
    if pos != len(s):
        raise BTreeSyntaxError("trailing input after tree", pos)
    validate_btree(tree)
    return tree


def validate_btree(b: WBTree) -> None:
    if b.label != 0:
        raise InvalidBTreeError(f"root must be labeled 0, got {b.label}")
    if b.right is not None:
        raise InvalidBTreeError("node 0 must not have a right child")
    stack = [b]
    while stack:
        node = stack.pop()
        floor = max(node.label, 1)
        for child in (node.left, node.right):
            if child is None:
                continue
            if child.label < floor:
                raise InvalidBTreeError(
                    "labels must weakly increase along root-to-leaf paths: "
                    f"node {node.label} has child {child.label}"
                )
            stack.append(child)


class BAnnotation(NamedTuple):
    """Per-node data for one tree, keyed by the path from the root."""

    nodes: dict[Path, WBTree]
    left_level: dict[Path, int]
    trailing_rights: dict[Path, int]
    parent: dict[Path, Optional[Path]]
    rdeg: dict[Path, int]
    active: dict[Path, bool]
    order: list[Path]  # modified preorder


def subtree_at(b: WBTree, path: Path) -> WBTree:
    for step in path:
        b = b.left if step == 0 else b.right  # type: ignore[assignment]
        if b is None:
            raise KeyError(f"no node at path {path}")
    return b


def ancestor_path(path: Path, trailing_rights: int) -> Path:
    """Drop the trailing right steps and the left step that precedes them."""
    return path[: len(path) - trailing_rights - 1]


def annotate(b: WBTree) -> BAnnotation:
    """One pass computing levels, right-degrees, active flags and the order."""
    nodes: dict[Path, WBTree] = {}
    ll: dict[Path, int] = {}
    tr: dict[Path, int] = {}
    parent: dict[Path, Optional[Path]] = {}
    stack: list[tuple[WBTree, Path, int, int, Optional[Path]]] = [(b, (), 0, 0, None)]
    while stack:
        node, path, lev, rights, par = stack.pop()
        nodes[path] = node
        ll[path] = lev
        tr[path] = rights
        parent[path] = par
        if node.left is not None:
            stack.append((node.left, path + (0,), lev + 1, 0, path))
        if node.right is not None:
            stack.append((node.right, path + (1,), lev, rights + 1, path))

    # right-degree = length of the chain left-child, then right children
    rdeg: dict[Path, int] = {}
    for path, node in nodes.items():
        d = 0
        cur = node.left
        while cur is not None:
            d += 1
            cur = cur.right
        rdeg[path] = d

    active: dict[Path, bool] = {}
    for path, node in nodes.items():
        ok = False
        if ll[path] & 1 and tr[path] % 2 == 0:  # path to ancestor has tr+1 edges
            if node.right is not None:
                ok = (rdeg[path] & 1) == (rdeg[path + (1,)] & 1)
            else:
                ok = bool(rdeg[path] & 1)
        active[path] = ok

    # modified preorder: repeatedly descend from the latest visited node
    # that still has unvisited children; at a two-way branch the choice is
    # driven by the active status of the node, or of its parent
    order: list[Path] = [()]
    walk: list[Path] = [()]
    remaining: dict[Path, list[Path]] = {}
    for path, node in nodes.items():
        ch = []
        if node.left is not None:
            ch.append(path + (0,))
        if node.right is not None:
            ch.append(path + (1,))
        remaining[path] = ch
    while walk:
        k = walk[-1]
        rem = remaining[k]
        if not rem:
            walk.pop()
            continue
        if len(rem) == 1:
            nxt = rem.pop()
        else:
            x, y = k + (0,), k + (1,)
            if active[k]:
                nxt = y if rdeg[k] % 2 == 0 else x
            else:
                par = parent[k]
                if par is not None and active[par]:
                    nxt = y if k[-1] == 1 else x
                else:
                    nxt = x
            rem.remove(nxt)
        order.append(nxt)
        walk.append(nxt)
    return BAnnotation(nodes, ll, tr, parent, rdeg, active, order)


def modified_preorder(b: WBTree) -> list[Path]:
    """Paths of all nodes in modified preorder, starting at the root."""
    return annotate(b).order


@dataclass
class BStatVector:
    """All binary-tree statistics of one tree.

    `rdeg` maps a right-degree q to its node count, `rol` to the count on
    odd left-levels only.  `ell` counts nodes on even left-levels; `ord`
    the odd right-degree nodes; `oler`/`eler` the even right-degree nodes
    on odd/even left-levels.  `dme`/`dmo` count dynamic even/odd nodes and
    `ndoler`/`ndord` their non-dynamic complements within oler resp. ord.
    """

    rdeg: dict[int, int] = field(default_factory=dict)
    rol: dict[int, int] = field(default_factory=dict)
    ell: int = 0
    ord: int = 0
    oler: int = 0
    eler: int = 0
    act: int = 0
    eact: int = 0
    oact: int = 0
    dme: int = 0
    dmo: int = 0
    ndoler: int = 0
    ndord: int = 0

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["rdeg"] = {str(q): c for q, c in sorted(self.rdeg.items())}
        d["rol"] = {str(q): c for q, c in sorted(self.rol.items())}
        return d


def dynamic_sets(ann: BAnnotation) -> tuple[set[Path], set[Path]]:
    """(dynamic even, dynamic odd) node paths.

    An active node pairs with its right child; an active node without a
    right child (necessarily of odd right-degree) pairs with its ancestor.
    """
    dyn_even: set[Path] = set()
    dyn_odd: set[Path] = set()
    for path, node in ann.nodes.items():
        if not ann.active[path]:
            continue
        if ann.rdeg[path] & 1:
            dyn_odd.add(path)
            if node.right is not None:
                dyn_odd.add(path + (1,))
            else:
                dyn_odd.add(ancestor_path(path, ann.trailing_rights[path]))
        else:
            dyn_even.add(path)
            dyn_even.add(path + (1,))
    return dyn_even, dyn_odd


def bstats(b: WBTree, ann: BAnnotation | None = None) -> BStatVector:
    """Compute the full binary statistic vector in one pass."""
    if ann is None:
        ann = annotate(b)
    sv = BStatVector()
    for path in ann.nodes:
        d = ann.rdeg[path]
        odd_ll = ann.left_level[path] & 1
        sv.rdeg[d] = sv.rdeg.get(d, 0) + 1
        if odd_ll:
            sv.rol[d] = sv.rol.get(d, 0) + 1
        else:
            sv.ell += 1
        if d & 1:
            sv.ord += 1
        elif odd_ll:
            sv.oler += 1
        else:
            sv.eler += 1
        if ann.active[path]:
            sv.act += 1
            if d & 1:
                sv.oact += 1
            else:
                sv.eact += 1
    dyn_even, dyn_odd = dynamic_sets(ann)
    if len(dyn_even) != 2 * sv.eact:
        raise InternalError("dynamic even pairs must be disjoint")
    if len(dyn_odd) != 2 * sv.oact:
        raise InternalError("dynamic odd pairs must be disjoint")
    sv.dme = len(dyn_even)
    sv.dmo = len(dyn_odd)
    for path in ann.nodes:
        d = ann.rdeg[path]
        if d & 1:
            if path not in dyn_odd:
                sv.ndord += 1
        elif ann.left_level[path] & 1 and path not in dyn_even:
            sv.ndoler += 1
    return sv


def _swap_three(u: WBTree) -> WBTree:
    """Exchange left and right branches at u and at both of its children."""

    def flip(n: WBTree | None) -> WBTree | None:
        return None if n is None else WBTree(n.label, n.right, n.left)

    return WBTree(u.label, flip(u.right), flip(u.left))


def _replace_at(b: WBTree, path: Path, new: WBTree) -> WBTree:
    if not path:
        return new
    if path[0] == 0:
        return WBTree(b.label, _replace_at(b.left, path[1:], new), b.right)
    return WBTree(b.label, b.left, _replace_at(b.right, path[1:], new))


def swap_branches(b: WBTree, i: int, ann: BAnnotation | None = None) -> WBTree:
    """The involution at the i-th node of the modified preorder, i in [p].

    Identity when that node is inactive; otherwise swaps the left and right
    branches at the node and at both of its children, which flips the node
    between active even and active odd while preserving the modified
    preorder, the even-left-level right-degree profile, and the orbit-level
    statistics.
    """
    if ann is None:
        ann = annotate(b)
    if not 1 <= i < len(ann.order):
        raise IndexError(f"node index {i} out of range 1..{len(ann.order) - 1}")
    path = ann.order[i]
    if not ann.active[path]:
        return b
    return _replace_at(b, path, _swap_three(ann.nodes[path]))


def orbit(b: WBTree) -> set[WBTree]:
    """Closure of b under all branch swaps; size is 2**act of the orbit's
    unique representative without active even nodes."""
    p = len(annotate(b).order) - 1
    seen = {b}
    frontier = [b]
    while frontier:
        cur = frontier.pop()
        ann = annotate(cur)
        for i in range(1, p + 1):
            nxt = swap_branches(cur, i, ann)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen
