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

The *modified preorder* is a depth-first walk that, at a node with two
children, picks which child to visit first from the node's active flag and
right-degree, or from its parent's active flag and its own side (see
`annotate`).  A node's position in this walk names it: `BAnnotation` holds
one list per per-node quantity, indexed by position, and `dynamic_sets`
returns sets of positions.  Paths from the root (0 = left step, 1 = right
step) appear only in `modified_preorder`'s output.

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
    """Per-node data for one tree, as lists indexed by modified-preorder
    position: 0 is the root, and -1 stands for an absent node."""

    nodes: list[WBTree]
    parent: list[int]
    left: list[int]  # position of the left child
    right: list[int]  # position of the right child
    left_level: list[int]
    ancestor: list[int]
    rdeg: list[int]
    active: list[bool]


def _right_degree(node: WBTree) -> int:
    """Length of the chain: the left child, then right children only."""
    d = 0
    cur = node.left
    while cur is not None:
        d += 1
        cur = cur.right
    return d


def annotate(b: WBTree) -> BAnnotation:
    """One depth-first pass that visits the nodes in modified preorder.

    A node's right-degree, active flag and child order are known when it is
    reached: at a two-way branch an active node sends its walk right first
    when its right-degree is even and left first when it is odd; an
    inactive node whose parent is active goes first to the child on the
    side it hangs on itself; any other node goes left first.
    """
    nodes: list[WBTree] = []
    parent: list[int] = []
    left: list[int] = []
    right: list[int] = []
    ll: list[int] = []
    ancestor: list[int] = []
    rdeg: list[int] = []
    active: list[bool] = []
    # (node, parent, hangs right, left-level, trailing rights, ancestor)
    stack: list[tuple[WBTree, int, bool, int, int, int]] = [(b, -1, False, 0, 0, -1)]
    while stack:
        node, par, is_right, lev, rights, anc = stack.pop()
        k = len(nodes)
        if par >= 0:
            if is_right:
                right[par] = k
            else:
                left[par] = k
        nodes.append(node)
        parent.append(par)
        left.append(-1)
        right.append(-1)
        ll.append(lev)
        ancestor.append(anc)
        x, y = node.left, node.right
        d = _right_degree(node)
        rdeg.append(d)
        ok = False
        if lev & 1 and not rights & 1:  # path to the ancestor has rights+1 edges
            ok = not (d ^ _right_degree(y)) & 1 if y is not None else bool(d & 1)
        active.append(ok)
        # push the child visited first last
        if y is not None:
            stack.append((y, k, True, lev, rights + 1, anc))
        if x is not None:
            stack.append((x, k, False, lev + 1, 0, k))
            if y is not None:
                right_first = not d & 1 if ok else par >= 0 and active[par] and is_right
                if right_first:
                    stack[-1], stack[-2] = stack[-2], stack[-1]
    return BAnnotation(nodes, parent, left, right, ll, ancestor, rdeg, active)


def modified_preorder(b: WBTree, ann: BAnnotation | None = None) -> list[Path]:
    """Paths of all nodes in modified preorder, starting at the root."""
    if ann is None:
        ann = annotate(b)
    paths: list[Path] = [()]
    for k in range(1, len(ann.nodes)):
        par = ann.parent[k]
        paths.append(paths[par] + ((0,) if ann.left[par] == k else (1,)))
    return paths


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


def dynamic_sets(ann: BAnnotation) -> tuple[set[int], set[int]]:
    """(dynamic even, dynamic odd) node positions.

    An active node pairs with its right child; an active node without a
    right child (necessarily of odd right-degree) pairs with its ancestor.
    """
    dyn_even: set[int] = set()
    dyn_odd: set[int] = set()
    right, rdeg = ann.right, ann.rdeg
    for k, act in enumerate(ann.active):
        if not act:
            continue
        if rdeg[k] & 1:
            dyn_odd.add(k)
            dyn_odd.add(right[k] if right[k] >= 0 else ann.ancestor[k])
        else:
            dyn_even.add(k)
            dyn_even.add(right[k])
    return dyn_even, dyn_odd


def bstats(
    b: WBTree, ann: BAnnotation | None = None, dyn: tuple[set[int], set[int]] | None = None
) -> BStatVector:
    """Compute the full binary statistic vector in one pass; `dyn` is
    dynamic_sets(ann) when the caller already has it."""
    if ann is None:
        ann = annotate(b)
    rdeg: dict[int, int] = {}
    rol: dict[int, int] = {}
    ell = ord_ = oler = eler = act = eact = oact = 0
    for d, lev, is_act in zip(ann.rdeg, ann.left_level, ann.active):
        rdeg[d] = rdeg.get(d, 0) + 1
        if lev & 1:
            rol[d] = rol.get(d, 0) + 1
        else:
            ell += 1
        if d & 1:
            ord_ += 1
        elif lev & 1:
            oler += 1
        else:
            eler += 1
        if is_act:
            act += 1
            if d & 1:
                oact += 1
            else:
                eact += 1
    dyn_even, dyn_odd = dynamic_sets(ann) if dyn is None else dyn
    if len(dyn_even) != 2 * eact:
        raise InternalError("dynamic even pairs must be disjoint")
    if len(dyn_odd) != 2 * oact:
        raise InternalError("dynamic odd pairs must be disjoint")
    ndoler = ndord = 0
    for k, (d, lev) in enumerate(zip(ann.rdeg, ann.left_level)):
        if d & 1:
            if k not in dyn_odd:
                ndord += 1
        elif lev & 1 and k not in dyn_even:
            ndoler += 1
    return BStatVector(
        rdeg=rdeg, rol=rol, ell=ell, ord=ord_, oler=oler, eler=eler, act=act, eact=eact, oact=oact,
        dme=len(dyn_even), dmo=len(dyn_odd), ndoler=ndoler, ndord=ndord,
    )


def _swap_three(u: WBTree) -> WBTree:
    """Exchange left and right branches at u and at both of its children."""

    def flip(n: WBTree | None) -> WBTree | None:
        return None if n is None else WBTree(n.label, n.right, n.left)

    return WBTree(u.label, flip(u.right), flip(u.left))


def swap_branches(b: WBTree, i: int, ann: BAnnotation | None = None) -> WBTree:
    """The involution at the i-th node of the modified preorder, i in [p].

    Identity when that node is inactive; otherwise swaps the left and right
    branches at the node and at both of its children, which flips the node
    between active even and active odd while preserving the modified
    preorder, the even-left-level right-degree profile, and the orbit-level
    statistics.  The spine above the node is rebuilt along `ann.parent`.
    """
    if ann is None:
        ann = annotate(b)
    if not 1 <= i < len(ann.nodes):
        raise IndexError(f"node index {i} out of range 1..{len(ann.nodes) - 1}")
    if not ann.active[i]:
        return b
    nodes, parent, left = ann.nodes, ann.parent, ann.left
    new = _swap_three(nodes[i])
    k = i
    while k:
        par = parent[k]
        node = nodes[par]
        new = WBTree(node.label, new, node.right) if left[par] == k else WBTree(node.label, node.left, new)
        k = par
    return new


class OrbitMember(NamedTuple):
    """One orbit member's annotation and its swap results: `swaps[i-1]` is
    swap_branches at position i, stored as that member's own key object."""

    ann: BAnnotation
    swaps: list[WBTree]


def orbit(b: WBTree) -> dict[WBTree, OrbitMember]:
    """Closure of b under all branch swaps, in discovery order, annotating
    and swapping each member once; its size is 2**act of the orbit's
    unique representative without active even nodes."""
    members = {b: OrbitMember(annotate(b), [])}
    frontier = [(b, members[b])]
    while frontier:
        cur, (ann, swaps) = frontier.pop()
        for i in range(1, len(ann.nodes)):
            nxt = swap_branches(cur, i, ann)
            if nxt is not cur:
                known = members.get(nxt)
                if known is None:
                    members[nxt] = known = OrbitMember(annotate(nxt), [])
                    frontier.append((nxt, known))
                else:
                    nxt = known.ann.nodes[0]  # the root node is the tree itself
            swaps.append(nxt)
    return members
