"""Planted faults in the kernels.

Every entry lists the exact line of every suite that does not PASS at
p <= 5 under its fault, and the test runs all suites to hold it to that
list: a suite left out must PASS.  A suite that raises `InternalError` is
listed with that error; it is no kill, so each mutant also turns some
suite FAIL.

Each binary-tree mutant must turn both the `binary` and the `action` check
FAIL at p <= 5, naming a tree.  It replaces `annotate` in both
`witrees.binary` (where `orbit` reads it) and `witrees.verify` (where the
`binary` check reads it): the pairing mutants edit its source, so the
statistics it returns are counted from the faulty pairs, and the third
shifts the returned `stats.ndord`.  Every mutant keeps the dynamic pairs
disjoint, so the checks report a counterexample rather than an internal
error.

Each series mutant edits one expression in the source of a `witrees.series`
or `witrees.counts` function and must turn the `series` check FAIL at
p <= 5 with the detail that names the broken route; the six-term mutant
must also turn the `closed-forms` check FAIL.

Each kernel mutant edits the grammar derivative, the parity census, the
Sturm chain, the branch swap, the orbit's index table, the ancestors of the
binary annotation, the plane-to-binary chain or tilde's recursion on child
tuples the same way and must turn
every suite that reads the kernel FAIL with the named detail; the census
mutant swaps two classes that the Schett polynomial merges, so the suites
that read only that polynomial still PASS.

Each check mutant does the same to the code behind the checks that no
other planted fault reaches: the enumeration, the multiset iterator behind
the sized runner, the statistics walker and its activity counters, psi,
theta, the identity key of the hat memo, the elliptic tables behind the
Euler numbers, the four-variable grammar, the fighting-fish count, the
gamma peel and the gamma basis expansion.  A gamma-peel fault that leaves
a residual trips an internal error rather than a check, so the peel's
mutant misfiles exact values.

Every source-edit mutant runs on empty grammar chains (see `witrees.grammar`),
and a last test warms the chains before it plants the two grammar faults."""

import inspect

import pytest

import witrees.binary
import witrees.census
import witrees.counts
import witrees.enumeration
import witrees.gamma
import witrees.grammar
import witrees.jacobi
import witrees.realroots
import witrees.series
import witrees.transforms
import witrees.trees
import witrees.verify
from witrees.errors import InternalError
from witrees.grammar import WXYZ, XYZ, four_var_poly, four_var_rules, grammar_derive, schett_poly, schett_rules
from witrees.mpoly import MPoly
from witrees.verify import run_suites, suite_checks

def _mutant(module, name, old, new):
    """`module.<name>` recompiled with `old` replaced by `new`."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


REAL_ANNOTATE = witrees.binary.annotate


def _ndord_skips_root(b):
    """The count of non-dynamic odd right-degree nodes leaves out the root."""
    ann = REAL_ANNOTATE(b)
    if ann.rdeg[0] & 1 and 0 not in ann.dyn_odd:
        ann.stats.ndord -= 1
    return ann


# mutant: (a fake `annotate`, the tree both checks name)
MUTANTS = {
    # an active odd node pairs with its left child instead of its right
    # child or its ancestor
    "annotate-odd-pairing": (
        _mutant(witrees.binary, "annotate", "right[k] if right[k] >= 0 else ancestor[k]", "left[k]"),
        "0[1[2[_|_]|_]|_]",
    ),
    # an active even node pairs with its left child, where it has one,
    # instead of its right child
    "annotate-even-pairing": (
        _mutant(witrees.binary, "annotate", "y = right[k]", "y = left[k] if left[k] >= 0 else right[k]"),
        "0[1[2[_|3[_|_]]|4[_|_]]|_]",
    ),
    "annotate-ndord-skips-root": (_ndord_skips_root, "0[1[_|_]|_]"),
}

EXPECTED = {
    "binary": "FAIL  binary correspondence: statistic transport and bookkeeping: dynamic bookkeeping fails on ",
    "action": "FAIL  group action: branch swaps and orbit structure: dynamic bookkeeping fails on ",
}


def _failures():
    """suite -> its line at p <= 5, for every suite that does not PASS: the
    line of its failing result (a tuple when several fail), or the internal
    error it raises, as the CLI prints it."""
    out = {}
    for suite in suite_checks():
        try:
            lines = tuple(r.line() for r in run_suites([suite], max_size=5) if not r.passed)
        except InternalError as exc:
            lines = (f"internal error: {exc}",)
        if lines:
            out[suite] = lines[0] if len(lines) == 1 else lines
    return out


@pytest.mark.parametrize("suite", sorted(EXPECTED))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_binary_mutant_is_caught(monkeypatch, mutant, suite):
    fake, witness = MUTANTS[mutant]
    for module in (witrees.binary, witrees.verify):
        monkeypatch.setattr(module, "annotate", fake)
    failures = _failures()
    assert failures.keys() == EXPECTED.keys()
    assert failures[suite] == EXPECTED[suite] + witness


SERIES_FAIL = "FAIL  generating function: functional and algebraic equations: "
CLOSED_FAIL = "FAIL  closed forms: parity-class counts: "
# mutant: (module holding the source, function, old text, new text,
# modules whose global the checks read, {suite: its line, as `_failures`
# gives it, for every suite that does not PASS})
SERIES_MUTANTS = {
    # the factor w x - 2 x z of n^2 t^3 loses its 2; at w = z the factor
    # must be -xz, so both residuals go nonzero at t^3
    "quintic-factor": (
        witrees.series, "quintic_residual", "w * x - 2 * x * z", "w * x - x * z", (witrees.series,),
        {"series": SERIES_FAIL + "algebraic residuals: {'order': 5, 'quintic_residual_zero': False, "
         "'quintic_residual_first_power': 3, 'w_eq_z_residual_zero': False, "
         "'w_eq_z_residual_first_power': 3, 'x_z_symmetric_at_w_eq_z': True, 'ok': False}"},
    ),
    "lagrange-drops-root": (
        witrees.series, "lagrange_series", "terms[(l, i, j, k)] = six_term_count(i, j, k, l)",
        "terms[(l, i, j, k)] = six_term_count(i, j, k, l) if (i, j, k, l) != (0, 1, 0, 0) else 0",
        (witrees.verify,),
        {"series": SERIES_FAIL + "kernel extraction does not rebuild the series"},
    ),
    # the edge variable w of N_k = w N*_(k-1) + ... becomes z, which
    # plane_gf does not otherwise bind
    "plane-gf-edge": (
        witrees.series, "plane_gf", "w * s[k - 1]", "MPoly.var(SERIES_VARS, 'z') * s[k - 1]", (witrees.verify,),
        {"series": SERIES_FAIL + "plane_gf: the coefficient recursion does not solve its functional equation"},
    ),
    # N* taken as N itself rather than its variable swap: the recursion
    # still solves its (now wrong) equation, so only the display catches it
    "plane-gf-drops-swap": (
        witrees.series, "plane_gf", "n[k].rename(_SWAP_STAR)", "n[k]", (witrees.verify,),
        {"series": SERIES_FAIL + "display through t^3 is 'y+wxt+(w^2x+x^2y)t^2+(w^3x+wx^3+3wx^2y)t^3'"},
    ),
    # the last of the six kernel terms at half weight: the one kernel that
    # both the series check and the closed-form check read
    "six-term-coefficient": (
        witrees.counts, "six_term_count", "- 4 * _multinomial(a - 1, l, j)", "- 2 * _multinomial(a - 1, l, j)",
        (witrees.series, witrees.verify),
        {"series": SERIES_FAIL + "kernel extraction does not rebuild the series",
         "closed-forms": CLOSED_FAIL + "six-term form wrong at (0, 5, 2, 0)"},
    ),
}


# the same layout as SERIES_MUTANTS
KERNEL_MUTANTS = {
    # D(c v^e) loses the exponent factor e_i, so x^2 y z in S_3 counts 2
    # instead of 4
    "derive-drops-power": (
        witrees.grammar, "derive", "cp = c * power", "cp = c", (witrees.grammar, witrees.verify),
        {"schett": ("FAIL  Schett polynomials: grammar identities: "
                    "S_3 prints 'y^3z+yz^3+2x^2yz', want 'y^3z+yz^3+4x^2yz'",
                    "FAIL  s/t tables: grammar relations and tree interpretation: n=3, (i,j)=(1,0): s=2, t-sum=3"),
         "jacobi": "FAIL  elliptic coefficients: displays and boundary identities: sn boundary fails at n=2, j=1",
         "conjecture": "FAIL  real-rootedness: plane and increasing tree slices: {1,2,3,4,5,6,7,8,9}, slice i=2: "
         "degree 2 (t^0 stripped), squarefree degree 2, 0 distinct real roots: NOT real-rooted"},
    ),
    # eo and oo trade places; the Schett polynomial adds them, so only the
    # routes that read the four-class census can see it, and gamma and
    # action, which read only that polynomial, PASS
    "parity-poly-classes": (
        witrees.census, "parity_poly", "key = (eo, oe, ee, oo)", "key = (oo, oe, ee, eo)",
        (witrees.census, witrees.verify),
        {"series": SERIES_FAIL + "coefficient of t^1 differs from enumeration",
         "closed-forms": CLOSED_FAIL + "closed form wrong at (0, 3, 0, 2): want 1"},
    ),
    # remainders kept with their own sign: the sign changes no longer count
    # the real roots, the negative control passes as real-rooted, and the
    # first quadratic slice of the sized pass loses its two roots
    "sturm-chain-sign": (
        witrees.realroots, "sturm_chain", "chain.append([-c for c in _rem(chain[-2], chain[-1])])",
        "chain.append(_rem(chain[-2], chain[-1]))", (witrees.realroots,),
        {"conjecture": ("FAIL  real-rootedness: plane and increasing tree slices: "
                        "negative control: t^2+1 reported real-rooted",
                        "FAIL  real-rootedness: the slices of every multiset: {1,2,3,4}, slice i=0: "
                        "degree 2 (t^0 stripped), squarefree degree 2, 0 distinct real roots: NOT real-rooted")},
    ),
    # the spine above the swapped node is rebuilt on the wrong side: the
    # swapped subtree hangs right where it hung left, and left where right
    "swap-spine-side": (
        witrees.binary, "swap_branches", "if left[par] == k else", "if left[par] != k else", (witrees.binary,),
        {"action": "FAIL  group action: branch swaps and orbit structure: swap 1 not an involution on 0[1[2[_|_]|_]|_]"},
    ),
    # the orbit's index table starts empty, so a swap back to the start tree
    # files a second copy of it under a new index
    "orbit-index-misses-start": (
        witrees.binary, "orbit", "index = {b: 0}", "index = {}", (witrees.binary, witrees.verify),
        {"action": "FAIL  group action: branch swaps and orbit structure: swap 1 not an involution on 0[1[2[_|_]|_]|_]"},
    ),
    # a node without a left child records no ancestor: no dynamic pair reads
    # that entry, only the transport check does, in its last clause, where
    # the swap gives the node a left child and so pairs it with its ancestor
    "annotate-ancestor-needs-left-child": (
        witrees.binary, "annotate", "ancestor.append(anc)", "ancestor.append(anc if node.left is not None else -1)",
        (witrees.binary, witrees.verify),
        {"action": "FAIL  group action: branch swaps and orbit structure: dynamic transport fails at 1 on 0[1[_|2[_|_]]|_]"},
    ),
    # the first child becomes the right child and the next sibling the left
    # one: still a bijection onto binary trees, but not the inverse of rho_inv
    "rho-swaps-roles": (
        witrees.binary, "_chain", "wbtree((label, _chain(kids, memo) if kids else None, node))",
        "wbtree((label, node, _chain(kids, memo) if kids else None))", (witrees.binary,),
        {"binary": "FAIL  binary correspondence: statistic transport and bookkeeping: round trip fails on 0(1(2))"},
    ),
    # tilde's child-tuple recursion puts x's node before the special
    # child's: the base case breaks, and psi, which maps every root subtree
    # through tilde, stops being an involution
    "tilde-children-order": (
        witrees.transforms, "_tilde_children", "(node1, node_x)", "(node_x, node1)", (witrees.transforms,),
        {"tilde": "FAIL  tilde involution: (odd, oe, ee) -> (oe, odd, ee): base case 0(1(2)) -> 0(1,2) violated",
         "psi-theta": "FAIL  psi/theta: root-excluded transports: psi is not an involution on 0(1(2(3)))"},
    ),
}


# the same layout as SERIES_MUTANTS
CHECK_MUTANTS = {
    # no composition puts all remaining letters under the first child; every
    # suite that enumerates sees it, and the gamma peel of the then
    # asymmetric polynomial trips its residual guard
    "weak-compositions-short": (
        witrees.enumeration, "_weak_compositions", "range(total + 1)", "range(total)", (witrees.enumeration,),
        {"counting": "FAIL  counting: product formula vs enumeration: {1,2,3}: formula 6, enumerated 4 (4 distinct)",
         "stats": "FAIL  statistics: internal identities: {1,2,3}: leaf and even-level distributions differ",
         "hat": "FAIL  hat bijection: degree/odd-level transport: {1,2,3}: hat is not a bijection",
         "symmetry": "FAIL  symmetry: joint parity distributions: {1,2,3}: x^ee y^oe z^odd is not symmetric in y, z",
         "psi-theta": "FAIL  psi/theta: root-excluded transports: {1,2,3,4}: theta is not a bijection",
         "full-degree": "FAIL  full-degree doubling: totals per multiset: {1,2,3}: oddf total 10 != 2 * 6",
         "euler": "FAIL  Euler numbers: zero-ee* and zero-odd* increasing trees: "
         "n=3: ee*=0 count 1, odd*=0 count 1, E_n 2",
         "action": "internal error: nonzero residual in x^0 slice: z",
         "schett": ("FAIL  Schett polynomials: grammar identities: grammar and enumeration disagree at n=3",
                    "FAIL  s/t tables: grammar relations and tree interpretation: t-table at n=3 differs from enumeration"),
         "gamma": "internal error: nonzero residual in x^0 slice: z"},
    ),
    # the multiset iterator yields the empty multiset once per size and no
    # other: every body passes on it, so only the sized runner's count of
    # the multisets it covered, against 2^5 compositions or the sets [n]
    # for n <= 5 (Euler) or n <= 7 (Schett), turns them FAIL
    "multisets-only-empty": (
        witrees.enumeration, "iter_multisets", "if p == 0:", "if p != 0:", (witrees.verify,),
        {"euler": "FAIL  Euler numbers: zero-ee* and zero-odd* increasing trees: covered 5 of 6 multisets",
         "schett": ("FAIL  Schett polynomials: grammar identities: covered 7 of 8 multisets",
                    "FAIL  s/t tables: grammar relations and tree interpretation: covered 7 of 8 multisets"),
         **{suite: f"FAIL  {name}: covered 5 of 32 multisets" for suite, name in (
            ("counting", "counting: product formula vs enumeration"),
            ("stats", "statistics: internal identities"),
            ("hat", "hat bijection: degree/odd-level transport"),
            ("tilde", "tilde involution: (odd, oe, ee) -> (oe, odd, ee)"),
            ("symmetry", "symmetry: joint parity distributions"),
            ("psi-theta", "psi/theta: root-excluded transports"),
            ("full-degree", "full-degree doubling: totals per multiset"),
            ("binary", "binary correspondence: statistic transport and bookkeeping"),
            ("action", "group action: branch swaps and orbit structure"),
            ("gamma", "gamma expansion: nonnegativity and active-node counts"),
            ("conjecture", "real-rootedness: the slices of every multiset"),
        )}},
    ),
    # the full-degree parity forgets the edge to the parent
    "stats-oddf-degree": (
        witrees.trees, "stats", "if (d + (lvl > 0)) & 1:", "if d & 1:", (witrees.trees, witrees.verify),
        {"stats": "FAIL  statistics: internal identities: tree 0(1) fails identity #10",
         "full-degree": "FAIL  full-degree doubling: totals per multiset: {1}: oddf total 1 != 2 * 1"},
    ),
    # odd-level odd-degree nodes are counted as even-level ones
    "stats-oo-as-eo": (
        witrees.trees, "stats", "oo += 1", "eo += 1", (witrees.trees, witrees.verify),
        {"stats": "FAIL  statistics: internal identities: tree 0(1(2)) fails identity #12",
         "symmetry": "FAIL  symmetry: joint parity distributions: {1,2}: "
         "even-degree vs oo+el distribution not symmetric"},
    ),
    # a lone last child is active when its degree is even, not odd
    "stats-lone-child-parity": (
        witrees.trees, "stats", "else cd:", "else not cd:", (witrees.trees, witrees.verify),
        {"binary": "FAIL  binary correspondence: statistic transport and bookkeeping: "
         "active-node counts disagree on 0(1)",
         "gamma": "FAIL  gamma expansion: nonnegativity and active-node counts: {1}: gamma table != active-node counts"},
    ),
    # active odd nodes are counted as active even ones; act = eact + oact
    # still holds
    "stats-oact-as-eact": (
        witrees.trees, "stats", "oact += 1", "eact += 1", (witrees.trees, witrees.verify),
        {"binary": "FAIL  binary correspondence: statistic transport and bookkeeping: "
         "active-node counts disagree on 0(1(2))",
         "gamma": "FAIL  gamma expansion: nonnegativity and active-node counts: "
         "{1,2}: gamma table != active-node counts"},
    ),
    # psi leaves the first root subtree untouched
    "psi-skips-first-subtree": (
        witrees.transforms, "psi", "tuple(map(_tilde_once, t.children, repeat(memo)))",
        "t.children[:1] + tuple(map(_tilde_once, t.children[1:], repeat(memo)))", (witrees.transforms, witrees.verify),
        {"psi-theta": "FAIL  psi/theta: root-excluded transports: psi transport fails on 0(1(2(3)))"},
    ),
    # theta leaves the first root subtree untouched
    "theta-skips-first-subtree": (
        witrees.transforms, "theta", "tuple(map(hat, t.children, repeat(memo)))",
        "t.children[:1] + tuple(map(hat, t.children[1:], repeat(memo)))", (witrees.transforms, witrees.verify),
        {"psi-theta": "FAIL  psi/theta: root-excluded transports: theta transport fails on 0(1(2(3))) at d=0"},
    ),
    # the hat memo is keyed by a subtree's root degree, not by the subtree,
    # so a subtree takes the image of an earlier one of the same degree
    "hat-memo-keyed-by-degree": (
        witrees.transforms, "hat", "key = id(t)", "key = len(t.children)", (witrees.transforms, witrees.verify),
        {"hat": "FAIL  hat bijection: degree/odd-level transport: "
         "deg_q -> od_(q-1) fails on 0(1(2),3) -> 0(1(3),2,3)",
         "psi-theta": "FAIL  psi/theta: root-excluded transports: theta transport fails on 0(1(2),3) at d=0"},
    ),
    # the fighting-fish count loses the factor 2j+1 of its denominator; the
    # division stays exact, so no internal error masks the wrong value
    "fish-count-denominator": (
        witrees.counts, "fish_count", "(2 * i + 1) * (2 * j + 1)", "(2 * i + 1)", (witrees.verify,),
        {"closed-forms": CLOSED_FAIL + "zero-ee count wrong at (0, 1)"},
    ),
    # dn(0) seeded as 2: sn_1 = cn_0 dn_0 reads 2, so E_1 = |sn_1(1)| = 2
    "euler-seed": (
        witrees.jacobi, "jacobi_taylor", "dn: list[MPolyInM] = [(1,)]", "dn: list[MPolyInM] = [(2,)]",
        (witrees.jacobi, witrees.verify),
        {"euler": "FAIL  Euler numbers: zero-ee* and zero-odd* increasing trees: "
         "n=1: ee*=0 count 1, odd*=0 count 1, E_n 2",
         "jacobi": "FAIL  elliptic coefficients: displays and boundary identities: sn u^1 coefficient is (2,)"},
    ),
    # D(w) = wy becomes wz: the Schett grammar is untouched, so only the
    # four-variable s/t tables, the schett suite's second result, can see it,
    # at the smallest wrong pair
    "four-var-w-rule": (
        witrees.grammar, "four_var_rules", "(1, 0, 1, 0): 1", "(1, 0, 0, 1): 1", (witrees.grammar,),
        {"schett": "FAIL  s/t tables: grammar relations and tree interpretation: n=2, (i,j)=(0,0): s=1, t-sum=2"},
    ),
    # the peel files g_{i,j} under j' = floor(d/2) - j; it subtracts the
    # right rows, so the residual still vanishes
    "gamma-peel-index": (
        witrees.gamma, "gamma_expand", "table[(i, j)] = g", "table[(i, d // 2 - j)] = g",
        (witrees.gamma, witrees.verify),
        {"gamma": "FAIL  gamma expansion: nonnegativity and active-node counts: "
         "{1,2,3,4}: gamma table != active-node counts",
         "action": "FAIL  group action: branch swaps and orbit structure: "
         "{1,2,3,4}: gamma table differs from orbit representatives"},
    ),
    # the basis element (yz)^j (y+z)^(d-2j) takes the power d-j of (y+z)
    "gamma-basis-degree": (
        witrees.gamma, "gamma_from_table", "d = p // 2 - i - 2 * j", "d = p // 2 - i - j",
        (witrees.gamma, witrees.verify),
        {"gamma": "FAIL  gamma expansion: nonnegativity and active-node counts: "
         "{1,2,3,4}: expansion does not rebuild the polynomial"},
    ),
}


def _assert_caught(monkeypatch, source, name, old, new, targets, expected):
    # empty grammar chains first: one built by the real `derive` cannot
    # hide the fault, and one built under it goes when the patch is undone
    monkeypatch.setattr(witrees.grammar, "_CHAINS", {})
    fake = _mutant(source, name, old, new)
    for module in targets:
        monkeypatch.setattr(module, name, fake)
    assert _failures() == expected


@pytest.mark.parametrize("mutant", sorted(SERIES_MUTANTS))
def test_series_mutant_is_caught(monkeypatch, mutant):
    _assert_caught(monkeypatch, *SERIES_MUTANTS[mutant])


@pytest.mark.parametrize("mutant", sorted(KERNEL_MUTANTS))
def test_kernel_mutant_is_caught(monkeypatch, mutant):
    _assert_caught(monkeypatch, *KERNEL_MUTANTS[mutant])


@pytest.mark.parametrize("mutant", sorted(CHECK_MUTANTS))
def test_check_mutant_is_caught(monkeypatch, mutant):
    _assert_caught(monkeypatch, *CHECK_MUTANTS[mutant])


@pytest.mark.parametrize("mutant", ["derive-drops-power", "four-var-w-rule"])
def test_warm_grammar_chains_hide_no_fault(mutant):
    """Chains warmed to S_36 and D^30(w) by the real grammar neither mask a
    grammar fault nor keep what the fault derived."""
    schett_poly(36)
    four_var_poly(30)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_caught(monkeypatch, *{**KERNEL_MUTANTS, **CHECK_MUTANTS}[mutant])
    assert schett_poly(36) == grammar_derive(schett_rules(), MPoly.var(XYZ, "x"), 36)
    assert four_var_poly(30) == grammar_derive(four_var_rules(), MPoly.var(WXYZ, "w"), 30)
