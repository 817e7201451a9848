"""Weakly increasing binary trees: rho, the leftmost-child / right-sibling
correspondence with plane trees, statistics, active/dynamic nodes, the
modified preorder, and the branch-swapping group action.

`rho_inv` inverts `rho`, and `rho_all` maps a list, one chain per sibling
tuple.  Text form: `label[left|right]` with `_` for an absent child, so the
plane tree 0(1,2) reads `0[1[_|2[_|_]]|_]`.  A binary tree is valid exactly
when its plane tree under `rho_inv` is: the root has no right child, and
`trees.validate_tree` holds for the image, so both tree forms share one set
of invariants and one set of messages.

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
one list per per-node quantity, indexed by position, the dynamic pairs as
sets of positions, and the tree's statistic vector, all from one walk.  It
is the only input of `swap_branches` and `modified_preorder`.  Paths from
the root (0 = left step, 1 = right step) appear only in
`modified_preorder`'s output.

The branch swap at the i-th node of the modified preorder exchanges the
left and right branches at that node and at both of its children; doing
nothing when the node is inactive.  These swaps commute, are involutions,
and generate the group action whose orbit structure underlies the gamma
expansion of the reduced Schett polynomials.  `orbit` lists an orbit's
members and names each swap result by its index in that list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

from .errors import InternalError, InvalidTreeError, TreeSyntaxError
from .trees import WTree, read_label, validate_tree, wtree

Path = tuple[int, ...]  # 0 = left step, 1 = right step


class WBTree(NamedTuple):
    """A labeled binary tree node."""

    label: int
    left: Optional["WBTree"] = None
    right: Optional["WBTree"] = None

    def __str__(self) -> str:
        return format_btree(self)


# The kernels' node constructor, as `trees.wtree` is for plane trees:
# wbtree((label, left, right)) builds WBTree(label, left, right) in C,
# without the NamedTuple's defaults or arity check, so it takes exactly one
# tuple of all three fields; tests/test_project.py holds every call to that shape.
wbtree = partial(tuple.__new__, WBTree)


def format_btree(b: WBTree) -> str:
    label, left, right = b
    left = "_" if left is None else format_btree(left)
    right = "_" if right is None else format_btree(right)
    return f"{label}[{left}|{right}]"


def rho_all(trees: list[WTree]) -> list[WBTree]:
    """rho of each tree; trees that share subtree objects, as the enumeration
    builds them, share binary chains.  The memo holds each sibling tuple
    beside its chain, so no `id` is reused while it lives; it lives for
    this call only."""
    memo: dict[int, tuple[tuple[WTree, ...], WBTree | None]] = {}
    return [wbtree((t.label, _chain(t.children, memo), None)) for t in trees]


def _chain(children: tuple[WTree, ...], memo: dict) -> WBTree | None:
    """A sibling tuple's chain, built right to left: children left, next sibling right."""
    key = id(children)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    node = None
    for label, kids in reversed(children):
        node = wbtree((label, _chain(kids, memo) if kids else None, node))
    memo[key] = (children, node)
    return node


def rho(t: WTree) -> WBTree:
    """Plane to binary: leftmost child -> left child, next sibling -> right."""
    return wbtree((t.label, _chain(t.children, {}), None))


def rho_inv(b: WBTree) -> WTree:
    """Binary to plane; rejects trees whose node 0 has a right child."""
    if b.right is not None:
        raise InvalidTreeError("node 0 of a weakly increasing binary tree has no right child")

    def unchain(node: WBTree | None) -> tuple[WTree, ...]:
        children = []
        while node is not None:
            children.append(wtree((node.label, unchain(node.left))))
            node = node.right
        return tuple(children)

    return wtree((b.label, unchain(b.left)))


def parse_btree(text: str) -> WBTree:
    """Parse binary tree text in one pass, as `trees.parse_tree` does: a
    label below its bound (max(parent, 1) for a left child, the parent's
    label for a right one) clears `ok`, and such a tree, or one whose root
    is not 0 or has a right child, goes through `validate_tree(rho_inv(b))`,
    which names the violation.  Syntax errors come first."""
    s = text.strip()
    n = len(s)
    pos, ok, bound = 0, True, 0
    above: list[tuple[int, bool, WBTree | None]] = []  # (label, on right, left child) of each open node
    while True:
        if pos < n and s[pos] == "_":
            pos += 1
            node = None
        else:
            label, pos = read_label(s, pos, "expected a label or '_'")
            if label < bound:
                ok = False
            if pos >= n or s[pos] != "[":
                raise TreeSyntaxError("expected '['", pos)
            pos += 1
            above.append((label, False, None))
            bound = label or 1  # max(label, 1): labels are digits
            continue
        while above:
            label, on_right, left = above.pop()
            close = "]" if on_right else "|"
            if pos >= n or s[pos] != close:
                raise TreeSyntaxError(f"expected {close!r}", pos)
            pos += 1
            if not on_right:
                above.append((label, True, node))
                bound = label
                break
            node = wbtree((label, left, node))
        else:
            break
    if node is None:
        raise TreeSyntaxError("tree must have a root node", 0)
    if pos != n:
        raise TreeSyntaxError("trailing input after tree", pos)
    if node[0] or node[2] is not None or not ok:
        validate_tree(rho_inv(node))
    return node


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


class BAnnotation(NamedTuple):
    """Per-node data for one tree, as lists indexed by modified-preorder
    position: 0 is the root, and -1 stands for an absent node; `stats`
    counts them up for the whole tree.  It hashes
    as its tree: `perfbench/tracing.py` counts distinct trees by hashing the
    first argument of `annotate` (a tree) and `swap_branches` (one of these)."""

    nodes: list[WBTree]
    parent: list[int]
    left: list[int]  # position of the left child
    right: list[int]  # position of the right child
    ancestor: list[int]
    rdeg: list[int]
    active: list[bool]
    dyn_even: set[int]  # positions in dynamic even pairs
    dyn_odd: set[int]  # positions in dynamic odd pairs
    stats: BStatVector

    def __hash__(self) -> int:
        return hash(self.nodes[0])


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
    side it hangs on itself; any other node goes left first.  The walk
    counts the statistics of each node as it is reached, and a post-pass
    forms the dynamic pairs and counts the nodes outside them.
    """
    nodes: list[WBTree] = []
    parent: list[int] = []
    left: list[int] = []
    right: list[int] = []
    ll: list[int] = []
    ancestor: list[int] = []
    rdeg: list[int] = []
    active: list[bool] = []
    deg_count: dict[int, int] = {}
    rol: dict[int, int] = {}
    ell = ord_ = oler = eler = 0
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
        deg_count[d] = deg_count.get(d, 0) + 1
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
    dyn_even: set[int] = set()
    dyn_odd: set[int] = set()
    eact = oact = in_ord = in_oler = 0  # pair members in ord resp. oler
    for k, act in enumerate(active):
        if not act:
            continue
        if rdeg[k] & 1:
            oact += 1
            w = right[k] if right[k] >= 0 else ancestor[k]
            dyn_odd.update((k, w))
            in_ord += (rdeg[k] & 1) + (rdeg[w] & 1)
        else:
            eact += 1
            y = right[k]
            dyn_even.update((k, y))
            in_oler += (ll[k] & 1 and not rdeg[k] & 1) + (ll[y] & 1 and not rdeg[y] & 1)
    if len(dyn_even) != 2 * eact:
        raise InternalError("dynamic even pairs must be disjoint")
    if len(dyn_odd) != 2 * oact:
        raise InternalError("dynamic odd pairs must be disjoint")
    stats = BStatVector(
        rdeg=deg_count, rol=rol, ell=ell, ord=ord_, oler=oler, eler=eler, act=eact + oact, eact=eact, oact=oact,
        dme=len(dyn_even), dmo=len(dyn_odd), ndoler=oler - in_oler, ndord=ord_ - in_ord,
    )
    return BAnnotation(nodes, parent, left, right, ancestor, rdeg, active, dyn_even, dyn_odd, stats)


def modified_preorder(ann: BAnnotation) -> list[Path]:
    """Paths of all nodes in modified preorder, starting at the root."""
    paths: list[Path] = [()]
    for k in range(1, len(ann.nodes)):
        par = ann.parent[k]
        paths.append(paths[par] + ((0,) if ann.left[par] == k else (1,)))
    return paths


def _swap_three(u: WBTree) -> WBTree:
    """Exchange left and right branches at u and at both of its children."""

    def flip(n: WBTree | None) -> WBTree | None:
        return None if n is None else wbtree((n.label, n.right, n.left))

    return wbtree((u.label, flip(u.right), flip(u.left)))


def swap_branches(ann: BAnnotation, i: int) -> WBTree:
    """The involution at the i-th node of the modified preorder, i in [p].

    Identity when that node is inactive; otherwise swaps the left and right
    branches at the node and at both of its children, which flips the node
    between active even and active odd while preserving the modified
    preorder, the even-left-level right-degree profile, and the orbit-level
    statistics.  The spine above the node is rebuilt along `ann.parent`;
    at an inactive node the result is the annotated tree object itself.
    """
    if not 1 <= i < len(ann.nodes):
        raise IndexError(f"node index {i} out of range 1..{len(ann.nodes) - 1}")
    if not ann.active[i]:
        return ann.nodes[0]
    nodes, parent, left = ann.nodes, ann.parent, ann.left
    new = _swap_three(nodes[i])
    k = i
    while k:
        par = parent[k]
        node = nodes[par]
        new = wbtree((node.label, new, node.right)) if left[par] == k else wbtree((node.label, node.left, new))
        k = par
    return new


class OrbitMember(NamedTuple):
    """One orbit member's annotation, with its statistics, and its swap
    results: `swaps[i-1]` is the index of the member that swap_branches at
    position i reaches."""

    ann: BAnnotation
    swaps: list[int]


def orbit(b: WBTree) -> list[OrbitMember]:
    """Closure of b under all branch swaps, listed in discovery order from
    b, annotating and swapping each member once; its size is 2**act of the
    orbit's unique representative without active even nodes."""
    members = [OrbitMember(annotate(b), [])]
    index = {b: 0}
    frontier = [0]
    while frontier:
        k = frontier.pop()
        ann, swaps = members[k]
        for i in range(1, len(ann.nodes)):
            nxt = swap_branches(ann, i)
            j = k if nxt is ann.nodes[0] else index.get(nxt)  # an inactive node returns the tree itself
            if j is None:
                j = index[nxt] = len(members)
                members.append(OrbitMember(annotate(nxt), []))
                frontier.append(j)
            swaps.append(j)
    return members
