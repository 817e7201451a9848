"""Tree maps: the degree/odd-level bijection, the statistic-swapping
involution and their root-subtree variants (`binary` holds rho).

All maps are pure, total on valid trees, and label-preserving in the sense
that the image lives on the same multiset.  They are defined structurally,
so they apply verbatim to subtrees whose root carries any label; levels are
always counted from the subtree's own root.

`hat` sends the number of degree-q nodes to the number of degree-(q-1)
nodes on odd levels (q >= 1) and the leaf count to the even-level count.
`tilde` is an involution exchanging the statistics "even-degree nodes on
odd levels" and "odd-degree nodes" while fixing "even-degree nodes on even
levels".  `psi` and `theta` wrap tilde resp. hat around every root subtree,
which shifts the contracts to the root-excluded statistics.

The children of tilde's image depend on the tree's children alone, so
`tilde` recurses on child tuples: the pieces it maps are never first built
into trees of their own.  Every map builds its nodes through `trees.wtree`,
which skips the NamedTuple constructor's Python code.

The trees of one multiset share their subtree objects, as the enumeration
builds them.  `hat` and `theta` take an optional memo of hat images and
`psi` one of the tilde images of root subtrees, each keyed by the `id` of
the subtree and holding the subtree beside its image, so no `id` is reused
while the memo lives; the caller keeps one memo per multiset.  Without a
memo each map runs the same body and stores nothing.
"""

from __future__ import annotations

from itertools import repeat

from .trees import WTree, wtree


def hat(t: WTree, memo: dict | None = None) -> WTree:
    """Degree-to-(odd-level degree) bijection; the single node is fixed.

    With `memo`, each subtree below the root is mapped once per memo; the
    root, the one node labelled 0, is never shared and never stored."""
    if not t.children:
        return t
    shared = memo is not None and t.label
    if shared:
        key = id(t)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
    first = t.children[0]
    h = hat(first, memo)
    new_node = wtree((first.label, tuple(map(hat, t.children[1:], repeat(memo)))))
    image = wtree((t.label, (new_node,) + h.children))
    if shared:
        memo[key] = (t, image)
    return image


def tilde(t: WTree) -> WTree:
    """Involution swapping odd-degree and odd-level-even-degree counts.

    Decompose around the root's leftmost child c: let x be c's leftmost
    child and y the sibling directly right of c.  The construction swaps
    the roles of x and y, turning x's siblings into x's children and y's
    children into further branches next to y's relocated subtree; every
    piece (the subtree below x, the part of the tree right of y, and the
    subtrees at x's siblings and y's children) recurses through the
    involution itself.  Either of x, y may be absent, in which case the
    pieces built from it are simply omitted.  Recursing with the involution
    on all pieces is the only choice of this shape that actually is an
    involution with the stated statistic transport (checked exhaustively in
    the test suite up to eight non-root nodes).

    The image's root keeps t's label, and its children depend on t's
    children alone, so the recursion runs on child tuples
    (`_tilde_children`): the part right of y and the subtree below x are
    mapped without first being built into trees of their own.
    """
    if not t.children:
        return t
    return wtree((t.label, _tilde_children(t.children)))


def _tilde_children(children: tuple[WTree, ...]) -> tuple[WTree, ...]:
    """The children of tilde(r(children)), whatever the root label r.

    With c = children[0], x its first child and y = children[1]: node1
    carries c's label over a node labelled y whose children are those of
    the image of children[2:], then the images of y's children; node_x
    carries x's label over the images of c's other children; the children
    of x's image follow.  Without y, node1 is a leaf; without x, node1 is
    the only child."""
    if not children:
        return ()
    special = children[0]
    if len(children) > 1:
        y = children[1]
        h_star = wtree((y.label, _tilde_children(children[2:])))
        node1 = wtree((special.label, (h_star,) + tuple(map(tilde, y.children))))
    else:
        node1 = wtree((special.label, ()))
    if not special.children:
        return (node1,)
    x = special.children[0]
    node_x = wtree((x.label, tuple(map(tilde, special.children[1:]))))
    return (node1, node_x) + _tilde_children(x.children)


def psi(t: WTree, memo: dict | None = None) -> WTree:
    """Apply tilde to every root subtree: swaps the root-excluded counts of
    odd-degree and even-level-even-degree nodes, fixing odd-level ones.
    With `memo`, each root subtree's tilde image is built once per memo."""
    return wtree((t.label, tuple(map(_tilde_once, t.children, repeat(memo)))))


def _tilde_once(t: WTree, memo: dict | None) -> WTree:
    """tilde(t), looked up in and stored to `memo` when one is given."""
    if memo is None:
        return tilde(t)
    hit = memo.get(id(t))
    if hit is None:
        hit = memo[id(t)] = (t, tilde(t))
    return hit[1]


def theta(t: WTree, memo: dict | None = None) -> WTree:
    """Apply hat to every root subtree: sends the number of degree-(2d+1)
    nodes to the number of non-root degree-2d nodes on even levels plus the
    indicator that the image root has degree 2d+1.  `memo` is hat's."""
    return wtree((t.label, tuple(map(hat, t.children, repeat(memo)))))
