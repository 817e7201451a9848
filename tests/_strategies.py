"""Hypothesis strategies shared by the tests that check the laws beyond
the exhaustive bound, and the seeded corpus of corrupted tree texts that
the parser comparisons read, with the outcome they compare."""

import random

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


def corrupted_texts(texts: list[str], alphabet: str, count: int, seed: int) -> list[str]:
    """`count` texts, each one of `texts` after one to three random edits
    (a deletion, or an insertion or substitution of a character of
    `alphabet`), then ten of `texts` with one digit made a 5,000-digit
    label, past int()'s limit on decimal digits."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        s = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(s) + 1)
            edit = rng.randrange(3)
            if edit == 0 and i < len(s):
                del s[i]
            elif edit == 1 or i == len(s):
                s.insert(i, rng.choice(alphabet))
            else:
                s[i] = rng.choice(alphabet)
        out.append("".join(s))
    long_label = "1" * 5000
    for text in rng.sample(texts, 10):
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        i = rng.choice(digits)
        out.append(text[:i] + long_label + text[i + 1:])
    return out


def parse_outcome(parse, text: str):
    """The tree a parser returns, or the class, message and position of
    what it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
