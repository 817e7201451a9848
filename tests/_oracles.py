"""Independent brute-force oracles for cross-checking the fast paths.

These deliberately use a different strategy from the library: all plane
tree shapes are generated first, then every distinct arrangement of the
label multiset is tried and filtered by the validity rules.  The parity
walker counts the node types of one tree with its own traversal.  The tilde
oracle recurses on whole trees: it builds the part right of the special
child's sibling and the subtree below its first child as trees of their
own and maps them with itself, where the library recurses on child tuples.
The binary
annotation oracle keys every node by its path from the root and follows the
definitions in `witrees.binary`'s docstring one by one, and the binary
statistics oracle pairs the dynamic nodes from the annotation's lists and
counts the non-dynamic ones in a second pass.  The orbit oracle is the
closure keyed by the member trees themselves, each swap result a key of
the map.  The plane-tree
series oracle iterates the functional equations to a fixpoint, the
real-rootedness oracle runs its Sturm chain over the rationals, the
remainder oracle divides out a gcd at every elimination step, the
grammar derivative oracle multiplies out each Leibniz term as a polynomial
product, and the gamma oracle peels each basis element off a reduced
polynomial by polynomial products.  The Euler numbers come from the sec+tan
convolution recurrence, and binary trees are validated on the binary tree
itself, without the plane tree.  The two tree-text parsers are the
library's earlier recursive-descent ones, each validating its finished
tree with a second walk.  Slow but obviously correct; sized for
small inputs.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, gcd

from witrees.binary import BAnnotation, BStatVector, WBTree, annotate, rho_inv, swap_branches, wbtree
from witrees.errors import InvalidTreeError, TreeSyntaxError
from witrees.mpoly import MPoly, poly_sum
from witrees.realroots import RootReport
from witrees.series import SERIES_VARS, TruncSeries
from witrees.trees import WTree, format_tree, read_label, wtree


def plane_shapes(n_nodes: int):
    """All plane-tree shapes with n_nodes, as nested child-count tuples."""
    if n_nodes == 1:
        return [()]
    shapes = []
    for first in range(1, n_nodes):
        for head in plane_shapes(first):
            for rest in _forests(n_nodes - 1 - first):
                shapes.append((head,) + rest)
    return shapes


def _forests(n_nodes: int):
    if n_nodes == 0:
        return [()]
    out = []
    for first in range(1, n_nodes + 1):
        for head in plane_shapes(first):
            for rest in _forests(n_nodes - first):
                out.append((head,) + rest)
    return out


def _build(shape, labels, pos=None):
    """Fill a shape with labels in preorder; pos is a mutable index box."""
    if pos is None:
        pos = [0]
    label = labels[pos[0]]
    pos[0] += 1
    return WTree(label, tuple(_build(c, labels, pos) for c in shape))


def _valid(t: WTree) -> bool:
    if t.label != 0:
        return False
    stack = [t]
    while stack:
        node = stack.pop()
        prev = None
        for c in node.children:
            if c.label < max(node.label, 1):
                return False
            if prev is not None and c.label < prev:
                return False
            prev = c.label
            stack.append(c)
    return True


def oracle_btree_valid(b: WBTree) -> bool:
    """The binary invariants read on the binary tree: the root is labeled 0
    and has no right child, and each child is at least its parent and 1."""
    if b.label != 0 or b.right is not None:
        return False
    stack = [b]
    while stack:
        node = stack.pop()
        for child in (node.left, node.right):
            if child is not None:
                if child.label < max(node.label, 1):
                    return False
                stack.append(child)
    return True


def oracle_parse_tree(text: str) -> WTree:
    """Parse canonical tree text and validate every invariant."""
    pos = 0
    s = text.strip()

    def parse_node() -> WTree:
        nonlocal pos
        label, pos = read_label(s, pos, "expected a label")
        children: list[WTree] = []
        if pos < len(s) and s[pos] == "(":
            pos += 1
            children.append(parse_node())
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(parse_node())
            if pos >= len(s) or s[pos] != ")":
                raise TreeSyntaxError("expected ')' or ','", pos)
            pos += 1
        return wtree((label, tuple(children)))

    tree = parse_node()
    if pos != len(s):
        raise TreeSyntaxError("trailing input after tree", pos)
    oracle_validate_tree(tree)
    return tree


def oracle_validate_tree(t: WTree) -> None:
    """Check root label 0, path monotonicity and sibling order."""
    if t.label != 0:
        raise InvalidTreeError(f"root must be labeled 0, got {t.label}")
    stack = [t]
    while stack:
        node = stack.pop()
        prev = None
        for child in node.children:
            if child.label < max(node.label, 1):
                raise InvalidTreeError(
                    "labels must weakly increase along root-to-leaf paths: "
                    f"node {node.label} has child {child.label}"
                )
            if prev is not None and child.label < prev:
                raise InvalidTreeError(
                    "children labels must weakly increase left to right: "
                    f"{prev} precedes {child.label} under node {node.label}"
                )
            prev = child.label
            stack.append(child)


def oracle_parse_btree(text: str) -> WBTree:
    """Parse binary tree text and validate it through its plane tree."""
    s = text.strip()
    pos = 0

    def expect(ch: str) -> None:
        nonlocal pos
        if pos >= len(s) or s[pos] != ch:
            raise TreeSyntaxError(f"expected {ch!r}", pos)
        pos += 1

    def parse_node() -> WBTree | None:
        nonlocal pos
        if pos < len(s) and s[pos] == "_":
            pos += 1
            return None
        label, pos = read_label(s, pos, "expected a label or '_'")
        expect("[")
        left = parse_node()
        expect("|")
        right = parse_node()
        expect("]")
        return wbtree((label, left, right))

    tree = parse_node()
    if tree is None:
        raise TreeSyntaxError("tree must have a root node", 0)
    if pos != len(s):
        raise TreeSyntaxError("trailing input after tree", pos)
    oracle_validate_tree(rho_inv(tree))
    return tree


def oracle_euler_numbers(n: int) -> list[int]:
    """E_0..E_n from 2 E_{k+1} = sum_i C(k,i) E_i E_{k-i}, E_0 = E_1 = 1."""
    es = [1, 1]
    while len(es) <= n:
        k = len(es) - 1
        q, r = divmod(sum(comb(k, i) * es[i] * es[k - i] for i in range(k + 1)), 2)
        assert r == 0, k
        es.append(q)
    return es[: n + 1]


def oracle_tree_texts(multiplicities: tuple[int, ...]) -> set[str]:
    """Every weakly increasing tree on the multiset, by exhaustive search."""
    labels = []
    for lab, mult in enumerate(multiplicities, start=1):
        labels.extend([lab] * mult)
    p = len(labels)
    texts = set()
    for shape in plane_shapes(p + 1):
        for perm in set(permutations(labels)):
            t = _build(shape, (0,) + perm)
            if _valid(t):
                texts.add(format_tree(t))
    return texts


def parity_counts(t: WTree) -> tuple[int, int, int, int, int, int]:
    """(ee, oe, odd, oo, leaf, root_degree) in one pass.

    Everything else in the parity family derives from these: eo = odd - oo,
    el = ee + eo, even = ee + oe, and the root-excluded variants subtract
    the root's contribution read off its degree parity.
    """
    ee = oe = odd = oo = leaf = 0
    stack = [(t, 0)]
    while stack:
        node, lvl = stack.pop()
        d = len(node[1])
        if d & 1:
            odd += 1
            if lvl & 1:
                oo += 1
        elif lvl & 1:
            oe += 1
            if not d:
                leaf += 1
        else:
            ee += 1
            if not d:
                leaf += 1
        for c in node[1]:
            stack.append((c, lvl + 1))
    return ee, oe, odd, oo, leaf, len(t.children)


def oracle_tilde(t: WTree) -> WTree:
    """The involution tilde, recursing on whole trees: the suffix tree right
    of y, its image and the image of x are built and taken apart again."""
    if not t.children:
        return t
    special = t.children[0]
    x = special.children[0] if special.children else None
    vs = special.children[1:]
    after = t.children[1:]
    y = after[0] if after else None

    if y is not None:
        us = y.children
        h = oracle_tilde(WTree(t.label, after[1:]))
        h_star = WTree(y.label, h.children)
        node1 = WTree(special.label, (h_star,) + tuple(oracle_tilde(u) for u in us))
    else:
        node1 = WTree(special.label, ())

    if x is None:
        return WTree(t.label, (node1,))

    node_x = WTree(x.label, tuple(oracle_tilde(v) for v in vs))
    f = oracle_tilde(x)
    return WTree(t.label, (node1, node_x) + f.children)


def subtree_at(b: WBTree, path: tuple[int, ...]) -> WBTree:
    """The node at a path from the root (0 = left step, 1 = right step)."""
    for step in path:
        b = b.left if step == 0 else b.right
        if b is None:
            raise KeyError(f"no node at path {path}")
    return b


def oracle_annotation(b: WBTree) -> dict:
    """Path-keyed binary annotation: left-level, trailing rights, ancestor,
    right-degree, active flag, the modified preorder and the dynamic pairs."""
    nodes = {}
    stack = [()]
    while stack:
        path = stack.pop()
        node = subtree_at(b, path)
        nodes[path] = node
        if node.left is not None:
            stack.append(path + (0,))
        if node.right is not None:
            stack.append(path + (1,))

    def trailing_rights(path):
        count = 0
        while count < len(path) and path[-1 - count] == 1:
            count += 1
        return count

    def ancestor(path):
        # follow the last left edge upward: drop the trailing right steps
        # and the left step before them
        q = path[: len(path) - trailing_rights(path)]
        return q[:-1] if q else None

    def right_degree(path):
        # right grandsons: one left edge, then right edges only
        count, q = 0, path + (0,)
        while q in nodes:
            count += 1
            q += (1,)
        return count

    rdeg = {path: right_degree(path) for path in nodes}
    active = {}
    for path in nodes:
        anc = ancestor(path)
        odd_level = path.count(0) % 2 == 1
        odd_edges = anc is not None and (len(path) - len(anc)) % 2 == 1
        y = path + (1,)
        if y in nodes:
            same_parity = rdeg[y] % 2 == rdeg[path] % 2
        else:
            same_parity = rdeg[path] % 2 == 1
        active[path] = odd_level and odd_edges and same_parity

    # modified preorder: repeatedly descend from the latest visited node
    # that still has unvisited children; at a two-way branch the active
    # node, or else its active parent, decides which child comes first
    order = [()]
    while len(order) < len(nodes):
        k = next(q for q in reversed(order) if any(c in nodes and c not in order for c in (q + (0,), q + (1,))))
        x, y = k + (0,), k + (1,)
        todo = [c for c in (x, y) if c in nodes and c not in order]
        if len(todo) == 1:
            nxt = todo[0]
        elif active[k]:
            nxt = y if rdeg[k] % 2 == 0 else x
        elif k and active[k[:-1]]:
            nxt = y if k[-1] == 1 else x
        else:
            nxt = x
        order.append(nxt)

    dyn_even, dyn_odd = set(), set()
    for path in nodes:
        if not active[path]:
            continue
        y = path + (1,)
        partner = y if y in nodes else ancestor(path)
        (dyn_odd if rdeg[path] % 2 else dyn_even).update((path, partner))
    return {
        "order": order,
        "ancestor": {path: ancestor(path) for path in nodes},
        "rdeg": rdeg,
        "active": active,
        "dyn_even": dyn_even,
        "dyn_odd": dyn_odd,
    }


def oracle_bstats(ann: BAnnotation) -> BStatVector:
    """The binary statistic vector in two passes over the annotation: the
    per-node counts first, then the non-dynamic nodes against the dynamic
    sets, which are paired here from the active flags, not read from
    `ann.dyn_even`/`ann.dyn_odd`.  Left-levels come from the child links."""
    levels = [0] * len(ann.nodes)
    for k in range(1, len(ann.nodes)):  # a parent precedes its children
        par = ann.parent[k]
        levels[k] = levels[par] + (ann.left[par] == k)
    dyn_even, dyn_odd = set(), set()
    for k, act in enumerate(ann.active):
        if not act:
            continue
        if ann.rdeg[k] & 1:
            dyn_odd.update((k, ann.right[k] if ann.right[k] >= 0 else ann.ancestor[k]))
        else:
            dyn_even.update((k, ann.right[k]))
    v = BStatVector(dme=len(dyn_even), dmo=len(dyn_odd))
    for d, lev, is_act in zip(ann.rdeg, levels, ann.active):
        v.rdeg[d] = v.rdeg.get(d, 0) + 1
        if lev & 1:
            v.rol[d] = v.rol.get(d, 0) + 1
        else:
            v.ell += 1
        if d & 1:
            v.ord += 1
        elif lev & 1:
            v.oler += 1
        else:
            v.eler += 1
        if is_act:
            v.act += 1
            if d & 1:
                v.oact += 1
            else:
                v.eact += 1
    for k, (d, lev) in enumerate(zip(ann.rdeg, levels)):
        if d & 1:
            if k not in dyn_odd:
                v.ndord += 1
        elif lev & 1 and k not in dyn_even:
            v.ndoler += 1
    return v


def oracle_orbit(b: WBTree) -> dict[WBTree, tuple[BAnnotation, list[WBTree]]]:
    """The branch-swap closure of b keyed by tree, in discovery order: each
    member maps to its annotation and its swap results at positions 1..p,
    each stored as that member's own key object."""
    members = {b: (annotate(b), [])}
    frontier = [(b, members[b])]
    while frontier:
        cur, (ann, swaps) = frontier.pop()
        for i in range(1, len(ann.nodes)):
            nxt = swap_branches(ann, i)
            if nxt is not cur:
                known = members.get(nxt)
                if known is None:
                    members[nxt] = known = (annotate(nxt), [])
                    frontier.append((nxt, known))
                else:
                    nxt = known[0].nodes[0]
            swaps.append(nxt)
    return members


def _geometric(u: TruncSeries) -> TruncSeries:
    """1 / (1 - u) for a series with zero constant term."""
    if u.coeffs[0].terms:
        raise ValueError("geometric inverse needs zero constant term")
    total = TruncSeries([MPoly(SERIES_VARS, {(0, 0, 0, 0): 1})], u.order)
    power = total
    for _ in range(u.order):
        power = power * u
        if power.is_zero():
            break
        total = total + power
    return total


def oracle_plane_gf(order: int) -> TruncSeries:
    """N mod t^(order+1) by fixpoint iteration of N = (y + w t N*) /
    (1 - (t N*)^2) and N* = (x + z t N) / (1 - (t N)^2): round k pins the
    coefficient of t^k, so order+1 rounds reach it."""
    y = TruncSeries([MPoly.var(SERIES_VARS, "y")], order)
    x = TruncSeries([MPoly.var(SERIES_VARS, "x")], order)
    w = MPoly.var(SERIES_VARS, "w")
    z = MPoly.var(SERIES_VARS, "z")
    zero = MPoly(SERIES_VARS)
    n_cur, n_star = TruncSeries([zero], order), TruncSeries([zero], order)
    for _ in range(order + 1):
        tn, tn_star = n_cur.shift(1), n_star.shift(1)
        n_cur, n_star = (
            (y + (n_star * w).shift(1)) * _geometric(tn_star * tn_star),
            (x + (n_cur * z).shift(1)) * _geometric(tn * tn),
        )
    return n_cur


def oracle_derive(rules: dict[str, MPoly], poly: MPoly) -> MPoly:
    """One application of the formal derivative, one polynomial product per
    (monomial, variable) pair: D(c v^e) = sum_i c e_i v^(e - u_i) rule(v_i)."""
    variables = poly.vars
    rule_list: list[MPoly | None] = []
    for v in variables:
        r = rules.get(v)
        if r is not None and r.vars != variables:
            raise ValueError(f"rule for {v} uses context {r.vars}, expected {variables}")
        rule_list.append(r)
    for name in rules:
        if name not in variables:
            raise ValueError(f"rule for undeclared variable {name!r}")
    pieces = []
    for e, c in poly.terms.items():
        for i, power in enumerate(e):
            if not power:
                continue
            rule = rule_list[i]
            if rule is None:
                raise ValueError(f"no substitution rule for variable {variables[i]!r}")
            lowered = e[:i] + (power - 1,) + e[i + 1 :]
            pieces.append(MPoly(variables, {lowered: c * power}) * rule)
    return poly_sum(variables, pieces)


def _power(base: MPoly, k: int) -> MPoly:
    out = MPoly(base.vars, {(0,) * len(base.vars): 1})
    for _ in range(k):
        out = out * base
    return out


def oracle_gamma(schett: MPoly, p: int) -> dict[tuple[int, int], int]:
    """The gamma table of a Schett polynomial on p letters, by polynomial
    arithmetic: floor-halve its exponents into a reduced polynomial, then
    peel g (yz)^j (y+z)^(d-2j) off each x-slice of degree d in (y, z), the
    coefficient of y^(d-j) z^j for j ascending, with powers formed as
    repeated products."""
    reduced = MPoly(schett.vars, {})
    for e, c in schett.terms.items():
        reduced = reduced + MPoly(schett.vars, {tuple(v // 2 for v in e): c})
    yz = MPoly(schett.vars, {(0, 1, 1): 1})
    y_plus_z = MPoly(schett.vars, {(0, 1, 0): 1, (0, 0, 1): 1})
    table = {}
    for i in sorted({e[0] for e in reduced.terms}):
        d = p // 2 - i
        residual = MPoly(schett.vars, {(0,) + e[1:]: c for e, c in reduced.terms.items() if e[0] == i})
        for j in range(d // 2 + 1):
            g = residual.terms.get((0, d - j, j), 0)
            if g:
                table[(i, j)] = g
                residual = residual - g * _power(yz, j) * _power(y_plus_z, d - 2 * j)
        if residual:
            raise ValueError(f"nonzero residual in x^{i} slice: {residual}")
    return table


def _sturm_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over the rationals, scaled to leading
    coefficient magnitude 1."""
    r = list(a)
    while r and r[-1] == 0:
        r.pop()
    while r and len(r) >= len(b):
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[i + shift] -= factor * c
        while r and r[-1] == 0:
            r.pop()
    return [c / abs(r[-1]) for c in r] if r else r


def oracle_rem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the remainder of c*a by b (b nonzero), for a
    positive integer c, each elimination step scaled by the smallest
    positive factor that cancels the leading term, found by a gcd, where
    `witrees.realroots` scales every step by |lc(b)|."""
    r = list(a)
    lb = b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        g = gcd(r[-1], lb)
        scale, factor = abs(lb) // g, r[-1] // g * (1 if lb > 0 else -1)
        shift = len(r) - len(b)
        r = [c * scale for c in r]
        for i, c in enumerate(b[:-1]):
            r[i + shift] -= factor * c
        r.pop()
    if r:
        content = gcd(*r)
        r = [c // content for c in r]
    return r


def oracle_real_rooted(coeffs: list[int]) -> RootReport:
    """The RootReport of `witrees.realroots.real_rooted`, from a Sturm
    chain over the rationals."""
    coeffs = list(coeffs)
    if not any(coeffs):
        return RootReport(0, 0, 0, 0, True, True)
    stripped = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        stripped += 1
    p = [Fraction(c) for c in coeffs]
    while p[-1] == 0:
        p.pop()
    degree = len(p) - 1
    if degree == 0:
        return RootReport(0, stripped, 0, 0, True, False)
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while True:
        r = _sturm_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    count = changes([(c[-1] > 0) != (len(c) % 2 == 0) for c in chain]) - changes([c[-1] > 0 for c in chain])
    sq_deg = degree - (len(chain[-1]) - 1)
    return RootReport(degree, stripped, sq_deg, count, count == sq_deg, False)
