"""Exhaustive generation of all weakly increasing trees on a multiset.

Trees are built letter by letter in increasing label order: every tree on
{1^p1, ..., n^pn} arises from a unique tree on the first n-1 letters by
appending, after the existing children of each node, an ordered forest of
plane trees whose nodes all carry the new letter n.  (New letters can only
hang at the right end of a child list and below one another, so this
decomposition is a bijection.)

`iter_trees` yields the trees in a deterministic generation order, but it
builds the whole list of the multiset's trees, letter by letter, before its
first yield; `enumerate_trees` returns each of those trees with its
canonical text form, as (text, tree) pairs sorted by the text, which is the
library's ordering contract.  The trees share their subtree objects, and
`trees.format_trees` formats each distinct one once, not each tree node by
node; the caller prints the text a tree was sorted by.
Both take any multiset they are given; the command line alone bounds the
size it enumerates (`--max-size`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterator

from .errors import InternalError
from .multiset import Multiset, count_trees
from .trees import WTree, format_trees, wtree

@lru_cache(maxsize=None)
def plane_forests(size: int, label: int) -> tuple[tuple[WTree, ...], ...]:
    """All ordered forests of plane trees with `size` nodes, all labeled `label`."""
    if size == 0:
        return ((),)
    out = []
    for first in range(1, size + 1):
        for f0 in plane_forests(first - 1, label):
            tree = wtree((label, f0))
            for rest in plane_forests(size - first, label):
                out.append((tree,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _weak_compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def iter_trees(m: Multiset) -> Iterator[WTree]:
    """All weakly increasing trees on m in generation order, yielded from
    the full list once the last letter is attached."""
    trees: list[WTree] = [WTree(0, ())]
    for label, mult in enumerate(m.multiplicities, start=1):
        cache: dict[tuple[WTree, int], tuple[WTree, ...]] = {}
        trees = [t2 for t in trees for t2 in _attach(t, mult, label, cache)]
    yield from trees


def _attach(tree: WTree, count: int, label: int, cache: dict) -> tuple[WTree, ...]:
    """Every way to hang `count` new nodes labelled `label` below tree; `cache` holds one letter."""
    key = (tree, count)
    hit = cache.get(key)
    if hit is not None:
        return hit
    lab, children = tree
    k = len(children)
    out: list[WTree] = []
    for self_m in range(count + 1):
        forests = plane_forests(self_m, label)
        rest = count - self_m
        if k == 0:
            if rest == 0:
                out.extend(wtree((lab, f)) for f in forests)
            continue
        for comp in _weak_compositions(rest, k):
            child_lists = [_attach(children[i], comp[i], label, cache) for i in range(k)]
            for newch in product(*child_lists):
                out.extend(wtree((lab, newch + f)) for f in forests)
    result = tuple(out)
    cache[key] = result
    return result


def enumerate_trees(m: Multiset) -> list[tuple[str, WTree]]:
    """All trees on m as (canonical text, tree) pairs, sorted by the text."""
    trees = list(iter_trees(m))
    out = sorted(zip(format_trees(trees), trees), key=itemgetter(0))
    if len(out) != count_trees(m):
        raise InternalError(
            f"enumeration of {m} produced {len(out)} trees, "
            f"product formula says {count_trees(m)}"
        )
    return out


def iter_multisets(max_size: int) -> Iterator[Multiset]:
    """All multisets (compositions) with p <= max_size, by size."""

    def comps(p: int) -> Iterator[tuple[int, ...]]:
        if p == 0:
            yield ()
            return
        for first in range(1, p + 1):
            for rest in comps(p - first):
                yield (first,) + rest

    for p in range(max_size + 1):
        for c in comps(p):
            yield Multiset(c)
