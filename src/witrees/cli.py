"""Command-line front end: enumeration, transforms, polynomials, series
tables, and the reproducible verification runs.

Every subcommand prints deterministically (fixed orderings everywhere), so
identical invocations are byte-identical.  Exit codes: 0 on success / all
checks passing, 1 when a verification check fails, 2 on usage errors (bad
input, a --batch or --out file that cannot be opened, tree text nested past
the recursion limit), 3 on an internal error (a broken invariant: a bug,
not bad input), and 141 when the reader of stdout goes away, as in
`witrees enumerate --set 7 | head -1`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from dataclasses import asdict
from functools import cache
from itertools import islice
from typing import NamedTuple

from .binary import annotate, format_btree, modified_preorder, orbit, parse_btree
from .counts import fish_count, jaco2_count, plane_tree_count, six_term_count, ternary_identity
from .enumeration import enumerate_trees
from .errors import InternalError
from .gamma import gamma_expand, multiset_schett, reduced_table
from .grammar import XYZ, four_var_poly, schett_poly
from .jacobi import jacobi_taylor
from .mpoly import MPoly
from .multiset import Multiset, count_trees, parse_multiset, set_multiset, uniform_multiset
from .series import check_algebraic_eq, format_series, plane_gf
from .transforms import hat, psi, rho, rho_inv, theta, tilde
from .trees import StatVector, WTree, format_tree, parse_tree, stats
from .verify import conjecture_families, run_suites, scan_real_rootedness, suite_checks


def _add_multiset_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--multiset", metavar="PAIRS", help="label:count pairs, e.g. 1:2,2:2")
    g.add_argument("--set", type=int, metavar="N", help="the set {1,...,N}")
    g.add_argument("--uniform", type=int, metavar="N", help="the multiset {1^N}")


def _bound(text: str) -> int:
    """A size or node bound: a nonnegative integer (a negative one would
    make a check pass vacuously)."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _ints(count: int) -> Callable[[str], tuple[int, ...]]:
    """The parser of an option value of `count` comma-separated integers."""

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(x) for x in text.split(","))
            if len(values) == count:
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers, got {text!r}")

    return parse


def _multiset_from(args: argparse.Namespace) -> Multiset:
    """The multiset of --multiset/--set/--uniform, refused when its size
    exceeds --max-size."""
    if args.multiset is not None:
        m = parse_multiset(args.multiset)
    elif args.set is not None:
        m = set_multiset(args.set)
    else:
        m = uniform_multiset(args.uniform)
    if m.size > args.max_size:
        raise ValueError(f"multiset size {m.size} exceeds bound {args.max_size}; raise it with --max-size")
    return m


class Output(NamedTuple):
    """What a subcommand prints: `payload` builds its JSON value and `lines`
    its text lines, and `main` calls only the one that --format asks for;
    `code` is the exit code."""

    payload: Callable[[], object]
    lines: Callable[[], Iterable[str]]
    code: int = 0


def _stat_rows(trees: Iterable[WTree], render: Callable[[StatVector], object]) -> Iterator[object]:
    """`render(stats(t))` for each tree, rendered once per distinct statistics
    vector of the call: the trees on a multiset take few distinct ones (74
    for the 5,040 trees on [7]).  The key holds every field of the vector."""
    rendered: dict[tuple, object] = {}
    for t in trees:
        sv = stats(t)
        key = (sv.leaf, sv.el, sv.odd, sv.oe, sv.ee, sv.oo, sv.eo, sv.odd_star, sv.oe_star, sv.ee_star, sv.oddf,
               tuple(sorted(sv.deg.items())), tuple(sorted(sv.od.items())), sv.act, sv.eact, sv.oact)
        row = rendered.get(key)
        if row is None:
            row = rendered[key] = render(sv)
        yield row


def cmd_enumerate(args: argparse.Namespace) -> Output:
    m = _multiset_from(args)
    pairs = enumerate_trees(m)
    if args.binary:
        pairs = [(format_btree(rho(t)), t) for _, t in pairs]
    trees = [t for _, t in pairs]
    texts = [text for text, _ in pairs]

    def payload() -> dict:
        rows: list = texts
        if args.stats:  # the rows of equal vectors share one `as_dict()` result
            rows = [{"tree": text, **row} for text, row in zip(texts, _stat_rows(trees, StatVector.as_dict))]
        return {"multiset": list(m.multiplicities), "count": len(pairs), "trees": rows}

    def lines() -> Iterable[str]:
        if not args.stats:
            return texts
        encoded = _stat_rows(trees, lambda sv: json.dumps(sv.as_dict(), sort_keys=True))
        return (f"{text}\t{row}" for text, row in zip(texts, encoded))

    return Output(payload, lines)


_MAPS = {
    "hat": (hat, format_tree, parse_tree),
    "tilde": (tilde, format_tree, parse_tree),
    "psi": (psi, format_tree, parse_tree),
    "theta": (theta, format_tree, parse_tree),
    "rho": (rho, format_btree, parse_tree),
    "rho-inv": (rho_inv, format_tree, parse_btree),
}


def cmd_transform(args: argparse.Namespace) -> Output:
    fn, fmt, parse = _MAPS[args.map]
    if args.tree is not None:
        sources = [args.tree]
    else:
        with open(args.batch) if args.batch and args.batch != "-" else nullcontext(sys.stdin) as stream:
            sources = [line.strip() for line in stream if line.strip()]
    outputs = [fmt(fn(parse(s))) for s in sources]
    return Output(lambda: [{"input": s, "output": o} for s, o in zip(sources, outputs)], lambda: outputs)


def cmd_schett(args: argparse.Namespace) -> Output:
    poly = four_var_poly(args.n) if args.four_var else schett_poly(args.n)
    text = poly.canonical_str("grouped")

    def payload() -> dict:
        terms = {
            "".join(f"{v}^{p}" for v, p in zip(poly.vars, e) if p) or "1": c
            for e, c in poly.sorted_terms("grouped")
        }
        return {"n": args.n, "polynomial": text, "terms": terms}

    return Output(payload, lambda: [text])


def cmd_gamma(args: argparse.Namespace) -> Output:
    """The reduced polynomial and gamma table of the multiset's Schett
    polynomial, whose route (grammar or trees) `gamma.multiset_schett` picks."""
    m = _multiset_from(args)
    reduced = reduced_table(multiset_schett(m), m.size)
    table = sorted(gamma_expand(reduced, m.size).items())
    text = MPoly(XYZ, {(i, j, m.size // 2 - i - j): c for (i, j), c in reduced.items()}).canonical_str("grouped")

    def payload() -> dict:
        entries = [{"i": i, "j": j, "value": v} for (i, j), v in table]
        return {"multiset": list(m.multiplicities), "count": count_trees(m), "reduced_polynomial": text,
                "gamma": entries}

    return Output(payload,
                  lambda: [f"reduced polynomial: {text}"] + [f"gamma[{i},{j}] = {v}" for (i, j), v in table])


def cmd_verify(args: argparse.Namespace) -> Output:
    names = args.suite if args.suite and "all" not in args.suite else None
    results = run_suites(names, max_size=args.max_size, max_nodes=args.max_nodes)
    n_pass = sum(1 for r in results if r.passed)
    return Output(
        lambda: {"checks": [asdict(r) for r in results], "passed": n_pass, "total": len(results)},
        lambda: [r.line() for r in results] + [f"{n_pass}/{len(results)} checks passed"],
        0 if n_pass == len(results) else 1,
    )


def cmd_series(args: argparse.Namespace) -> Output:
    if args.check == "alg":
        rep = check_algebraic_eq(args.order)
        # the report is JSON under either format
        return Output(lambda: rep, lambda: [json.dumps(rep, indent=2)], 0 if rep["ok"] else 1)
    n = plane_gf(args.order)

    def payload() -> dict:
        tables = {
            str(k): {
                ",".join(map(str, e)): c for e, c in coeff.sorted_terms("desclex")
            }
            for k, coeff in enumerate(n.coeffs)
        }
        return {"order": args.order, "coefficients": tables}

    return Output(payload, lambda: [format_series(n)])


def cmd_closed_form(args: argparse.Namespace) -> Output:
    parts = []  # per option, in output order: its JSON entries and its text line
    if args.stats is not None:
        count, six = plane_tree_count(*args.stats), six_term_count(*args.stats)
        parts.append((lambda: {"stats": list(args.stats), "count": count, "six_term_count": six},
                      lambda: f"count{args.stats} = {count} (six-term form: {six})"))
    if args.zero_odd is not None:
        odd = jaco2_count(*args.zero_odd)
        parts.append((lambda: {"zero_odd": dict(zip("ij", args.zero_odd), count=odd)},
                      lambda: "zero-odd count({},{}) = {}".format(*args.zero_odd, odd)))
    if args.zero_ee is not None:
        ee = fish_count(*args.zero_ee)
        parts.append((lambda: {"zero_ee": dict(zip("ij", args.zero_ee), count=ee)},
                      lambda: "zero-ee count({},{}) = {}".format(*args.zero_ee, ee)))
    if args.ternary is not None:
        lhs, rhs = ternary_identity(args.ternary)
        parts.append((lambda: {"ternary": {"n": args.ternary, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}},
                      lambda: f"ternary identity n={args.ternary}: {lhs} == {rhs} -> {lhs == rhs}"))
    if not parts:
        raise ValueError("nothing to compute: pass --stats, --zero-odd, --zero-ee or --ternary")
    return Output(lambda: {k: v for entries, _ in parts for k, v in entries().items()},
                  lambda: [line() for _, line in parts])


def cmd_jacobi(args: argparse.Namespace) -> Output:
    tables = dict(zip(("sn", "cn", "dn"), jacobi_taylor(args.order)))

    def payload() -> dict:
        return {"order": args.order,
                **{name: {str(k): list(poly) for k, poly in enumerate(rows)} for name, rows in tables.items()}}

    def lines() -> Iterator[str]:
        for name, rows in tables.items():
            for k, poly in enumerate(rows):
                if poly:
                    yield f"{name} u^{k}/{k}!: {list(poly)}"

    return Output(payload, lines)


def cmd_orbit(args: argparse.Namespace) -> Output:
    members = orbit(parse_btree(args.tree))
    rows = sorted(((format_btree(b), member.stats) for b, member in members.items()), key=lambda row: row[0])
    shown = ("eler", "oler", "ord", "act", "eact")
    return Output(
        lambda: {"size": len(rows),
                 "members": [{"tree": tree, **{s: getattr(v, s) for s in shown}} for tree, v in rows]},
        lambda: [f"orbit size {len(rows)}"]
        + [tree + "\t" + " ".join(f"{s}={getattr(v, s)}" for s in shown) for tree, v in rows],
    )


def cmd_preorder(args: argparse.Namespace) -> Output:
    ann = annotate(parse_btree(args.tree))
    rows = [
        (i, ann.nodes[i].label, "".join("LR"[s] for s in path))
        for i, path in enumerate(modified_preorder(ann))
    ]
    return Output(
        lambda: [{"index": i, "label": label, "path": path} for i, label, path in rows],
        lambda: [f"{i}: label {label} at {path or 'root'}" for i, label, path in rows],
    )


def cmd_conjecture(args: argparse.Namespace) -> Output:
    targets = [parse_multiset(args.multiset)] if args.multiset else conjecture_families(args.max_nodes)
    slices = [
        (m, i, coeffs, "vacuous" if rep.vacuous else ("real-rooted" if rep.all_real else "NOT REAL-ROOTED"))
        for m in targets
        for i, coeffs, rep in scan_real_rootedness(m)
    ]
    failed = sum(1 for *_, status in slices if status == "NOT REAL-ROOTED")
    return Output(
        lambda: {"slices": [{"multiset": list(m.multiplicities), "i": i, "coefficients": coeffs, "status": status}
                            for m, i, coeffs, status in slices],
                 "failed": failed},
        lambda: [f"{m} slice {i}: {coeffs} -> {status}" for m, i, coeffs, status in slices]
        + [f"{'FAIL' if failed else 'PASS'}: {failed} non-real-rooted slices"],
        1 if failed else 0,
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later `main`
    call of the process: `parse_args` returns a fresh namespace each time
    and copies the --suite list it appends to."""
    top = argparse.ArgumentParser(
        prog="witrees",
        description="Exact enumeration and verification engine for weakly increasing trees",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", metavar="FILE", help="write output to a file instead of stdout")

    p = sub.add_parser("enumerate", help="list all weakly increasing trees on a multiset")
    _add_multiset_args(p)
    p.add_argument("--binary", action="store_true", help="emit the binary-tree images")
    p.add_argument("--stats", action="store_true", help="attach the statistic vector of each tree")
    p.add_argument("--max-size", type=_bound, default=10, help="size bound override (default 10)")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("transform", help="apply one of the tree maps")
    p.add_argument("--map", required=True, choices=sorted(_MAPS))
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tree", help="a single tree in text form")
    g.add_argument("--batch", nargs="?", const="-", metavar="FILE",
                   help="read one tree per line (default: stdin)")
    common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("schett", help="print the n-th Schett polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--four-var", action="store_true",
                   help="use the four-variable grammar (root excluded)")
    common(p)
    p.set_defaults(fn=cmd_schett)

    p = sub.add_parser("gamma", help="gamma expansion of the reduced polynomial")
    _add_multiset_args(p)
    p.add_argument("--max-size", type=_bound, default=10)
    common(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", action="append", choices=sorted(suite_checks()) + ["all"],
                   help="suite name (repeatable; default all)")
    p.add_argument("--max-size", type=_bound, default=8, help="largest multiset size p")
    p.add_argument("--max-nodes", type=_bound, default=10, help="node bound for the real-rootedness scan")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("series", help="plane-tree generating function")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--check", choices=["alg"], help="verify the algebraic relations instead of printing")
    common(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("closed-form", help="closed-form plane-tree counts")
    p.add_argument("--stats", type=_ints(4), metavar="i,j,k,l", help="count by (oe, ee, oo, eo)")
    p.add_argument("--zero-odd", type=_ints(2), metavar="i,j", help="trees with no odd-degree node")
    p.add_argument("--zero-ee", type=_ints(2), metavar="i,j",
                   help="trees with no even-degree node on even levels")
    p.add_argument("--ternary", type=int, metavar="N", help="check the ternary-tree identity at N")
    common(p)
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("jacobi", help="Taylor tables of the Jacobi elliptic functions")
    p.add_argument("--order", type=int, default=9)
    common(p)
    p.set_defaults(fn=cmd_jacobi)

    p = sub.add_parser("orbit", help="orbit of a binary tree under the branch swaps")
    p.add_argument("--tree", required=True, help="binary tree, e.g. 0[1[_|2[_|_]]|_]")
    common(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("preorder", help="modified preorder of a binary tree")
    p.add_argument("--tree", required=True)
    common(p)
    p.set_defaults(fn=cmd_preorder)

    p = sub.add_parser("conjecture", help="real-rootedness scan of reduced-polynomial slices")
    p.add_argument("--max-nodes", type=_bound, default=10)
    p.add_argument("--multiset", help="scan a single multiset instead of the two families")
    common(p)
    p.set_defaults(fn=cmd_conjecture)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        # The output is built in full before --out is opened, so a command
        # that fails (say, on an int past the str-conversion limit) writes
        # nothing: text line by line, JSON as the chunks of
        # json.dumps(payload, indent=2) joined in blocks, which gives its
        # bytes without one string of the whole output.
        if args.format == "json":
            chunks = json.JSONEncoder(indent=2).iterencode(result.payload())
            # no chunk is empty, so an empty block means the chunks ran out
            parts, sep = list(iter(lambda: "".join(islice(chunks, 4096)), "")), ""
        else:
            parts, sep = list(result.lines()), "\n"
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            print(*parts, sep=sep, file=fh)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return result.code
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # before OSError, of which it is a subclass
        # the reader went away: drop what is buffered, exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except RecursionError:
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        # bad input, or a --batch / --out file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
