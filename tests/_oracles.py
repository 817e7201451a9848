"""Independent brute-force oracles for cross-checking the fast paths.

These deliberately use a different strategy from the library: all plane
tree shapes are generated first, then every distinct arrangement of the
label multiset is tried and filtered by the validity rules.  The parity
walker counts the node types of one tree with its own traversal.  The binary
annotation oracle keys every node by its path from the root and follows the
definitions in `witrees.binary`'s docstring one by one.  The plane-tree
series oracle iterates the functional equations to a fixpoint, and the
real-rootedness oracle runs its Sturm chain over the rationals, and the
grammar derivative oracle multiplies out each Leibniz term as a polynomial
product.  Slow but obviously correct; sized for small inputs.
"""

from fractions import Fraction
from itertools import permutations

from witrees.binary import WBTree
from witrees.mpoly import MPoly, poly_sum
from witrees.realroots import RootReport
from witrees.series import SERIES_VARS, TruncSeries
from witrees.trees import WTree, format_tree


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
        "left_level": {path: path.count(0) for path in nodes},
        "ancestor": {path: ancestor(path) for path in nodes},
        "rdeg": rdeg,
        "active": active,
        "dyn_even": dyn_even,
        "dyn_odd": dyn_odd,
    }


def _geometric(u: TruncSeries) -> TruncSeries:
    """1 / (1 - u) for a series with zero constant term."""
    if u.coeffs[0].terms:
        raise ValueError("geometric inverse needs zero constant term")
    total = TruncSeries.from_poly(MPoly.const(SERIES_VARS, 1), u.order)
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
    y = TruncSeries.from_poly(MPoly.var(SERIES_VARS, "y"), order)
    x = TruncSeries.from_poly(MPoly.var(SERIES_VARS, "x"), order)
    w = MPoly.var(SERIES_VARS, "w")
    z = MPoly.var(SERIES_VARS, "z")
    n_cur, n_star = TruncSeries([], order), TruncSeries([], order)
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
            pieces.append(MPoly.monomial(variables, lowered, c * power) * rule)
    return poly_sum(variables, pieces)


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


def oracle_real_rooted(coeffs: list[int]) -> RootReport:
    """The RootReport of `witrees.realroots.real_rooted`, from a Sturm
    chain over the rationals."""
    coeffs = list(coeffs)
    if not any(coeffs):
        return RootReport((), 0, 0, 0, 0, True, True)
    stripped = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        stripped += 1
    p = [Fraction(c) for c in coeffs]
    while p[-1] == 0:
        p.pop()
    degree = len(p) - 1
    if degree == 0:
        return RootReport(tuple(coeffs), 0, stripped, 0, 0, True, False)
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
    return RootReport(tuple(coeffs), degree, stripped, sq_deg, count, count == sq_deg, False)
