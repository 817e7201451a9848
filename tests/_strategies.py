"""Hypothesis strategies shared by the tests that check the laws beyond
the exhaustive bound."""

from hypothesis import strategies as st

from witrees.trees import WTree, validate_tree


@st.composite
def weakly_increasing_trees(draw, min_p=9, max_p=30):
    """A random plane tree on a random multiset: the sorted labels are
    attached one at a time as the last child of a random earlier node, so
    parents and left siblings never carry larger labels."""
    p = draw(st.integers(min_p, max_p))
    drawn = sorted(draw(st.lists(st.integers(1, p), min_size=p, max_size=p)))
    rank = {v: r for r, v in enumerate(sorted(set(drawn)), start=1)}
    labels = [0] + [rank[v] for v in drawn]
    children: list[list[int]] = [[]]
    for k in range(1, p + 1):
        children[draw(st.integers(0, k - 1))].append(k)
        children.append([])

    def build(k: int) -> WTree:
        return WTree(labels[k], tuple(build(c) for c in children[k]))

    t = build(0)
    validate_tree(t)
    return t
