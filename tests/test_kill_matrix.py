"""Planted faults in the binary-tree kernels: each mutant must turn both
the `binary` and the `action` check FAIL at p <= 5, naming a tree.

A mutant replaces one kernel in both `witrees.binary` (where `orbit` reads
it) and `witrees.verify` (where the `binary` check reads it).  Every mutant
keeps the dynamic pairs disjoint, so the checks report a counterexample
rather than an internal error."""

import pytest

import witrees.binary
import witrees.verify
from witrees.verify import run_suites

REAL_ANNOTATE = witrees.binary.annotate
REAL_BSTATS = witrees.binary.bstats


def _odd_pairs_left(b):
    """An active odd node pairs with its left child instead of its right
    child or its ancestor."""
    ann = REAL_ANNOTATE(b)
    dyn_odd = set()
    for k, act in enumerate(ann.active):
        if act and ann.rdeg[k] & 1:
            dyn_odd.update((k, ann.left[k]))
    return ann._replace(dyn_odd=dyn_odd)


def _even_pairs_left(b):
    """An active even node pairs with its left child, where it has one,
    instead of its right child."""
    ann = REAL_ANNOTATE(b)
    dyn_even = set()
    for k, act in enumerate(ann.active):
        if act and not ann.rdeg[k] & 1:
            dyn_even.update((k, ann.left[k] if ann.left[k] >= 0 else ann.right[k]))
    return ann._replace(dyn_even=dyn_even)


def _ndord_skips_root(ann):
    """The count of non-dynamic odd right-degree nodes leaves out the root."""
    v = REAL_BSTATS(ann)
    if ann.rdeg[0] & 1 and 0 not in ann.dyn_odd:
        v.ndord -= 1
    return v


MUTANTS = {
    "annotate-odd-pairing": ("annotate", _odd_pairs_left, "0[1[2[_|_]|_]|_]"),
    "annotate-even-pairing": ("annotate", _even_pairs_left, "0[1[2[_|3[_|_]]|4[_|_]]|_]"),
    "bstats-ndord-skips-root": ("bstats", _ndord_skips_root, "0[1[_|_]|_]"),
}

EXPECTED = {
    "binary": "FAIL  binary correspondence: statistic transport and bookkeeping: dynamic bookkeeping fails on ",
    "action": "FAIL  group action: branch swaps and orbit structure: dynamic bookkeeping fails on ",
}


@pytest.mark.parametrize("suite", sorted(EXPECTED))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_binary_mutant_is_caught(monkeypatch, mutant, suite):
    kernel, fake, witness = MUTANTS[mutant]
    for module in (witrees.binary, witrees.verify):
        monkeypatch.setattr(module, kernel, fake)
    assert run_suites([suite], max_size=5)[0].line() == EXPECTED[suite] + witness
