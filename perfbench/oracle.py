"""Independent routes for checking what the program prints.

Nothing here imports witrees: counts come from the product formula and
`math.comb`, trees are generated, formatted and parsed by this file's own
code, and every response check recomputes what it needs from the request.
Each `check_*` function returns None (`check_sweep`: an empty list) when
the output is right, and the reasons when it is wrong.
"""

from __future__ import annotations

import json
import random
import re
from math import comb, factorial

# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def count_trees(mults: tuple[int, ...]) -> int:
    """|T_M| = prod_i C(N_i + p_i, p_i) / (1 + N_n) for M = {1^p1, ..., n^pn}."""
    prod, total = 1, 0
    for p in mults:
        total += p
        prod *= comb(total + p, p)
    q, r = divmod(prod, total + 1)
    if r:
        raise ArithmeticError(f"product formula is not integral at {mults}")
    return q


def compositions(p: int):
    """All multiplicity vectors of size p, as the program orders them."""
    if p == 0:
        yield ()
        return
    for first in range(1, p + 1):
        for rest in compositions(p - first):
            yield (first,) + rest


def trees_up_to(p_max: int) -> int:
    return sum(count_trees(c) for p in range(p_max + 1) for c in compositions(p))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def sweep_coverage(suites: list[str], max_size: int) -> int:
    """Trees visited by `verify` for these suites, from the product formula.

    Mirrors the sizes `verify` runs each suite at: the statistics, psi/theta
    and binary suites are capped at p <= 6, Euler visits the increasing
    trees on [n] for n <= min(p, 8), and the rest run at p <= max_size.
    """
    small = min(max_size, 6)
    total = 0
    for s in suites:
        if s in ("stats", "psi-theta", "binary"):
            total += trees_up_to(small)
        elif s == "euler":
            total += sum(factorial(n) for n in range(min(max_size, 8) + 1))
        else:
            total += trees_up_to(max_size)
    return total


# ---------------------------------------------------------------------------
# trees: (label, [children]) lists, generated and printed here
# ---------------------------------------------------------------------------


def random_composition(rng: random.Random, p: int) -> tuple[int, ...]:
    parts, run = [], 1
    for _ in range(p - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    return tuple(parts + [run]) if p else ()


def random_tree(rng: random.Random, mults: tuple[int, ...]):
    """A random plane shape with sum(mults) non-root nodes, labelled in
    breadth-first order by the sorted multiset (so it is weakly increasing)."""
    nodes = [[0, []]]
    for _ in range(sum(mults)):
        child = [None, []]
        rng.choice(nodes)[1].append(child)
        nodes.append(child)
    labels = iter(lab for lab, p in enumerate(mults, start=1) for _ in range(p))
    queue, head = [nodes[0]], 0
    while head < len(queue):
        for child in queue[head][1]:
            child[0] = next(labels)
            queue.append(child)
        head += 1
    return nodes[0]


def fmt_plane(t) -> str:
    label, children = t
    if not children:
        return str(label)
    return f"{label}({','.join(fmt_plane(c) for c in children)})"


def fmt_binary(t) -> str:
    """Leftmost child becomes the left child, next sibling the right child."""

    def chain(siblings) -> str:
        if not siblings:
            return "_"
        label, children = siblings[0]
        return f"{label}[{chain(children)}|{chain(siblings[1:])}]"

    return f"{t[0]}[{chain(t[1])}|_]"


def parse_plane(text: str):
    pos = 0

    def node():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"bad tree text {text!r}")
        out = [int(text[start:pos]), []]
        if pos < len(text) and text[pos] == "(":
            pos += 1
            out[1].append(node())
            while text[pos] == ",":
                pos += 1
                out[1].append(node())
            if text[pos] != ")":
                raise ValueError(f"bad tree text {text!r}")
            pos += 1
        return out

    t = node()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return t


def parse_binary(text: str):
    """Binary text to (label, left, right) lists, None for '_'."""
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "_":
            pos += 1
            return None
        start = pos
        while text[pos].isdigit():
            pos += 1
        label = int(text[start:pos])
        pos += 1  # '['
        left = node()
        pos += 1  # '|'
        right = node()
        pos += 1  # ']'
        return [label, left, right]

    b = node()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return b


def binary_nodes(b, path=""):
    """(path, label) of every node, paths spelled with L and R."""
    if b is None:
        return
    yield path, b[0]
    yield from binary_nodes(b[1], path + "L")
    yield from binary_nodes(b[2], path + "R")


def plane_profile(t):
    """(labels, deg histogram, odd-level deg histogram, even-level count,
    odd count, odd-level even-degree count, even-level even-degree count)."""
    labels, deg, od = [], {}, {}
    el = odd = oe = ee = 0
    stack = [(t, 0)]
    while stack:
        (label, children), lvl = stack.pop()
        labels.append(label)
        d = len(children)
        deg[d] = deg.get(d, 0) + 1
        if lvl & 1:
            od[d] = od.get(d, 0) + 1
        else:
            el += 1
        if d & 1:
            odd += 1
        elif lvl & 1:
            oe += 1
        else:
            ee += 1
        stack.extend((c, lvl + 1) for c in children)
    return sorted(labels), deg, od, el, odd, oe, ee


def is_weakly_increasing(t) -> bool:
    label, children = t
    prev = 0
    for c in children:
        if c[0] < max(label, 1) or c[0] < prev or not is_weakly_increasing(c):
            return False
        prev = c[0]
    return True


# ---------------------------------------------------------------------------
# response checks for the queries workload
# ---------------------------------------------------------------------------


def check_enumerate(mults, stats: bool, as_json: bool, out: str, sample: random.Random) -> str | None:
    want = count_trees(mults)
    labels = sorted([0] + [lab for lab, p in enumerate(mults, start=1) for _ in range(p)])
    if as_json:
        payload = json.loads(out)
        if payload["multiset"] != list(mults) or payload["count"] != want:
            return f"json header {payload['multiset']} / {payload['count']}, want {list(mults)} / {want}"
        rows = payload["trees"]
        texts = [r["tree"] for r in rows] if stats else rows
        stat_rows = rows if stats else []
    else:
        lines = out.splitlines()
        if stats:
            texts = [ln.split("\t", 1)[0] for ln in lines]
            stat_rows = [json.loads(ln.split("\t", 1)[1]) for ln in lines]
        else:
            texts, stat_rows = lines, []
    if len(texts) != want or len(set(texts)) != want:
        return f"{len(texts)} trees ({len(set(texts))} distinct), product formula says {want}"
    if texts != sorted(texts):
        return "trees are not in canonical text order"
    picks = sample.sample(range(want), min(want, 12))
    for k in picks:
        t = parse_plane(texts[k])
        prof = plane_profile(t)
        if prof[0] != labels or not is_weakly_increasing(t):
            return f"{texts[k]} is not a weakly increasing tree on {mults}"
        if stat_rows:
            sv = stat_rows[k]
            _, deg, od, el, odd, oe, ee = prof
            if (sv["leaf"], sv["el"], sv["odd"], sv["oe"], sv["ee"]) != (deg.get(0, 0), el, odd, oe, ee):
                return f"statistics of {texts[k]} are wrong"
    return None


def check_gamma(mults, as_json: bool, out: str) -> str | None:
    """Sum of g_ij 2^(floor(p/2) - i - 2j) is the reduced polynomial at
    y = z = 1, summed over x-slices: the tree count."""
    want = count_trees(mults)
    if as_json:
        payload = json.loads(out)
        if payload["count"] != want:
            return f"count {payload['count']}, want {want}"
        table = {(e["i"], e["j"]): e["value"] for e in payload["gamma"]}
    else:
        table = {}
        for ln in out.splitlines()[1:]:
            head, value = ln.split(" = ")
            i, j = head[len("gamma["):-1].split(",")
            table[(int(i), int(j))] = int(value)
    half = sum(mults) // 2
    if any(v < 0 for v in table.values()):
        return "negative gamma coefficient"
    got = sum(v * 2 ** (half - i - 2 * j) for (i, j), v in table.items())
    return None if got == want else f"gamma table sums to {got}, want {want}"


def check_hat(inputs: list[str], out: str) -> str | None:
    outputs = out.splitlines()
    if len(outputs) != len(inputs):
        return f"{len(outputs)} outputs for {len(inputs)} inputs"
    for src, dst in zip(inputs, outputs):
        a, b = plane_profile(parse_plane(src)), plane_profile(parse_plane(dst))
        if a[0] != b[0]:
            return f"hat changed the labels of {src}"
        if a[1].get(0, 0) != b[3] or any(c != b[2].get(q - 1, 0) for q, c in a[1].items() if q):
            return f"hat transport fails on {src} -> {dst}"
    return None


def check_tilde_twice(inputs: list[str], once: str, twice: str) -> str | None:
    mid = once.splitlines()
    if twice.splitlines() != inputs:
        return "tilde applied twice does not return the batch"
    for src, dst in zip(inputs, mid):
        a, b = plane_profile(parse_plane(src)), plane_profile(parse_plane(dst))
        if (a[4], a[5], a[6]) != (b[5], b[4], b[6]):
            return f"tilde transport fails on {src} -> {dst}"
    return None


def check_rho_pair(inputs: list[str], binary: str, back: str) -> str | None:
    want = [fmt_binary(parse_plane(s)) for s in inputs]
    if binary.splitlines() != want:
        return "rho differs from the leftmost-child/right-sibling image"
    if back.splitlines() != inputs:
        return "rho-inv after rho does not return the batch"
    return None


def _orbit_rows(out: str, as_json: bool):
    if as_json:
        payload = json.loads(out)
        return payload["size"], [(m["tree"], m["act"], m["eact"]) for m in payload["members"]]
    lines = out.splitlines()
    size = int(lines[0].split()[-1])
    rows = []
    for ln in lines[1:]:
        tree, fields = ln.split("\t")
        kv = dict(f.split("=") for f in fields.split())
        rows.append((tree, int(kv["act"]), int(kv["eact"])))
    return size, rows


def check_orbit(tree: str, as_json: bool, out: str) -> str | None:
    size, rows = _orbit_rows(out, as_json)
    labels = sorted(lab for _, lab in binary_nodes(parse_binary(tree)))
    trees = [r[0] for r in rows]
    if size != len(rows) or len(set(trees)) != size or tree not in trees:
        return f"orbit of {tree}: size {size} over {len(rows)} rows"
    reps = [r for r in rows if r[2] == 0]
    if len(reps) != 1 or size != 2 ** reps[0][1]:
        return f"orbit of {tree}: size {size} is not 2^act of one zero-eact member"
    for t in trees:
        if sorted(lab for _, lab in binary_nodes(parse_binary(t))) != labels:
            return f"orbit member {t} has other labels than {tree}"
    return None


def check_preorder(tree: str, as_json: bool, out: str) -> str | None:
    nodes = dict(binary_nodes(parse_binary(tree)))
    if as_json:
        rows = [(r["index"], r["label"], r["path"]) for r in json.loads(out)]
    else:
        rows = []
        for ln in out.splitlines():
            idx, rest = ln.split(": label ")
            label, path = rest.split(" at ")
            rows.append((int(idx), int(label), "" if path == "root" else path))
    if [r[0] for r in rows] != list(range(len(nodes))) or rows[0][2] != "":
        return f"preorder of {tree} does not index every node once from the root"
    if len({r[2] for r in rows}) != len(nodes) or any(nodes.get(p) != lab for _, lab, p in rows):
        return f"preorder of {tree} lists a wrong node"
    return None


def check_schett(n: int, as_json: bool, out: str) -> str | None:
    """S_n(1,1,1) = n!: the coefficients sum to n factorial."""
    if as_json:
        total = sum(json.loads(out)["terms"].values())
    else:
        total = sum(int(re.match(r"\d*", term).group() or 1) for term in out.strip().split("+"))
    return None if total == factorial(n) else f"S_{n}(1,1,1) = {total}, want {factorial(n)}"


def check_series(order: int, out: str) -> str | None:
    """The t^k coefficient of N at all-ones counts plane trees: Catalan(k)."""
    tables = json.loads(out)["coefficients"]
    for k in range(order + 1):
        got = sum(tables[str(k)].values())
        if got != catalan(k):
            return f"t^{k} coefficient sums to {got}, want Catalan {catalan(k)}"
    return None


def check_series_alg(out: str) -> str | None:
    rep = json.loads(out)
    ok = rep["ok"] and rep["quintic_residual_zero"] and rep["w_eq_z_residual_zero"]
    return None if ok else f"algebraic residuals are not zero: {rep}"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def check_sweep(out: str, expected: str, max_size: int) -> list[str]:
    """Every line PASSes and equals the recorded line byte for byte; every
    tree count a line reports equals the product-formula sum."""
    problems = []
    got, want = out.splitlines(), expected.splitlines()
    if len(got) != len(want):
        problems.append(f"{len(got)} lines, want {len(want)}")
    for g, w in zip(got[:-1], want[:-1]):  # one line per check
        if g != w:
            problems.append(f"line differs: {g!r}")
        elif not g.startswith("PASS  "):
            problems.append(f"check did not pass: {g!r}")
    if not problems and got[-1:] != want[-1:]:  # the summary, when no check line explains it
        problems.append(f"summary differs: {got[-1:]!r}")
    for g in got:
        if g.endswith(" trees)"):
            capped = g.startswith("PASS  statistics")
            want_n = trees_up_to(min(max_size, 6) if capped else max_size)
            n = int(g.rsplit("(", 1)[1].split()[0])
            if n != want_n:
                problems.append(f"reported {n} trees, product formula gives {want_n}")
    return problems
