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
from dataclasses import asdict

from .binary import annotate, format_btree, modified_preorder, orbit, parse_btree
from .counts import fish_count, jaco2_count, plane_tree_count, six_term_count, ternary_identity
from .enumeration import enumerate_trees, iter_trees
from .errors import InternalError
from .gamma import gamma_expand, reduced_table, schett_of
from .grammar import XYZ, four_var_poly, schett_poly
from .jacobi import jacobi_taylor
from .mpoly import MPoly
from .multiset import Multiset, count_trees, parse_multiset, set_multiset, uniform_multiset
from .series import check_algebraic_eq, format_series, plane_gf
from .transforms import hat, psi, rho, rho_inv, theta, tilde
from .trees import format_tree, parse_tree, stats
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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_enumerate(args: argparse.Namespace) -> int:
    m = _multiset_from(args)
    trees = enumerate_trees(m)
    if args.binary:
        texts = [format_btree(rho(t)) for t in trees]
    else:
        texts = [format_tree(t) for t in trees]
    if args.format == "json":
        payload: dict = {"multiset": list(m.multiplicities), "count": len(trees)}
        if args.stats:
            payload["trees"] = [
                {"tree": txt, **stats(t).as_dict()} for txt, t in zip(texts, trees)
            ]
        else:
            payload["trees"] = texts
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for txt, t in zip(texts, trees):
            if args.stats:
                sv = stats(t)
                lines.append(f"{txt}\t{json.dumps(sv.as_dict(), sort_keys=True)}")
            else:
                lines.append(txt)
        _emit("\n".join(lines), args.out)
    return 0


_MAPS = {
    "hat": (hat, format_tree, parse_tree),
    "tilde": (tilde, format_tree, parse_tree),
    "psi": (psi, format_tree, parse_tree),
    "theta": (theta, format_tree, parse_tree),
    "rho": (rho, format_btree, parse_tree),
    "rho-inv": (rho_inv, format_tree, parse_btree),
}


def cmd_transform(args: argparse.Namespace) -> int:
    fn, fmt, parse = _MAPS[args.map]
    if args.tree is not None:
        sources = [args.tree]
    else:
        stream = open(args.batch) if args.batch and args.batch != "-" else sys.stdin
        sources = [line.strip() for line in stream if line.strip()]
        if stream is not sys.stdin:
            stream.close()
    outputs = [fmt(fn(parse(s))) for s in sources]
    if args.format == "json":
        _emit(json.dumps([{"input": s, "output": o} for s, o in zip(sources, outputs)], indent=2), args.out)
    else:
        _emit("\n".join(outputs), args.out)
    return 0


def cmd_schett(args: argparse.Namespace) -> int:
    poly = four_var_poly(args.n) if args.four_var else schett_poly(args.n)
    text = poly.canonical_str("grouped")
    if args.format == "json":
        terms = {
            "".join(f"{v}^{p}" for v, p in zip(poly.vars, e) if p) or "1": c
            for e, c in poly.sorted_terms("grouped")
        }
        _emit(json.dumps({"n": args.n, "polynomial": text, "terms": terms}, indent=2), args.out)
    else:
        _emit(text, args.out)
    return 0


def cmd_gamma(args: argparse.Namespace) -> int:
    m = _multiset_from(args)
    reduced = reduced_table(schett_of(iter_trees(m)), m.size)
    table = gamma_expand(reduced, m.size)
    text = MPoly(XYZ, {(i, j, m.size // 2 - i - j): c for (i, j), c in reduced.items()}).canonical_str("grouped")
    entries = [
        {"i": i, "j": j, "value": v} for (i, j), v in sorted(table.items())
    ]
    if args.format == "json":
        payload = {
            "multiset": list(m.multiplicities),
            "count": count_trees(m),
            "reduced_polynomial": text,
            "gamma": entries,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"reduced polynomial: {text}"]
        lines += [f"gamma[{e['i']},{e['j']}] = {e['value']}" for e in entries]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.suite if args.suite and "all" not in args.suite else None
    results = run_suites(names, max_size=args.max_size, max_nodes=args.max_nodes)
    n_pass = sum(1 for r in results if r.passed)
    if args.format == "json":
        payload = {"checks": [asdict(r) for r in results], "passed": n_pass, "total": len(results)}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [r.line() for r in results] + [f"{n_pass}/{len(results)} checks passed"]
        _emit("\n".join(lines), args.out)
    return 0 if n_pass == len(results) else 1


def cmd_series(args: argparse.Namespace) -> int:
    if args.check == "alg":
        rep = check_algebraic_eq(args.order)
        _emit(json.dumps(rep, indent=2), args.out)
        return 0 if rep["ok"] else 1
    n = plane_gf(args.order)
    if args.format == "json":
        tables = {
            str(k): {
                ",".join(map(str, e)): c for e, c in coeff.sorted_terms("desclex")
            }
            for k, coeff in enumerate(n.coeffs)
        }
        _emit(json.dumps({"order": args.order, "coefficients": tables}, indent=2), args.out)
    else:
        _emit(format_series(n), args.out)
    return 0


def cmd_closed_form(args: argparse.Namespace) -> int:
    payload: dict = {}
    if args.stats is not None:
        i, j, k, l = (int(x) for x in args.stats.split(","))
        payload["stats"] = [i, j, k, l]
        payload["count"] = plane_tree_count(i, j, k, l)
        payload["six_term_count"] = six_term_count(i, j, k, l)
    if args.zero_odd is not None:
        i, j = (int(x) for x in args.zero_odd.split(","))
        payload["zero_odd"] = {"i": i, "j": j, "count": jaco2_count(i, j)}
    if args.zero_ee is not None:
        i, j = (int(x) for x in args.zero_ee.split(","))
        payload["zero_ee"] = {"i": i, "j": j, "count": fish_count(i, j)}
    if args.ternary is not None:
        lhs, rhs = ternary_identity(args.ternary)
        payload["ternary"] = {"n": args.ternary, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
    if not payload:
        raise ValueError("nothing to compute: pass --stats, --zero-odd, --zero-ee or --ternary")
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        if "count" in payload:
            lines.append(f"count{tuple(payload['stats'])} = {payload['count']} (six-term form: {payload['six_term_count']})")
        if "zero_odd" in payload:
            z = payload["zero_odd"]
            lines.append(f"zero-odd count({z['i']},{z['j']}) = {z['count']}")
        if "zero_ee" in payload:
            z = payload["zero_ee"]
            lines.append(f"zero-ee count({z['i']},{z['j']}) = {z['count']}")
        if "ternary" in payload:
            z = payload["ternary"]
            lines.append(f"ternary identity n={z['n']}: {z['lhs']} == {z['rhs']} -> {z['equal']}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_jacobi(args: argparse.Namespace) -> int:
    sn, cn, dn = jacobi_taylor(args.order)

    def table(rows):
        return {str(k): list(poly) for k, poly in enumerate(rows)}

    payload = {"order": args.order, "sn": table(sn), "cn": table(cn), "dn": table(dn)}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for fname, rows in (("sn", sn), ("cn", cn), ("dn", dn)):
            for k, poly in enumerate(rows):
                if poly:
                    lines.append(f"{fname} u^{k}/{k}!: {list(poly)}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    members = orbit(parse_btree(args.tree))
    orb = sorted(members, key=format_btree)
    rows = []
    for member in orb:
        v = members[member].stats
        rows.append(
            {
                "tree": format_btree(member),
                "eler": v.eler,
                "oler": v.oler,
                "ord": v.ord,
                "act": v.act,
                "eact": v.eact,
            }
        )
    if args.format == "json":
        _emit(json.dumps({"size": len(orb), "members": rows}, indent=2), args.out)
    else:
        lines = [f"orbit size {len(orb)}"]
        lines += [
            f"{r['tree']}\teler={r['eler']} oler={r['oler']} ord={r['ord']} act={r['act']} eact={r['eact']}"
            for r in rows
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_preorder(args: argparse.Namespace) -> int:
    ann = annotate(parse_btree(args.tree))
    rows = [
        {"index": i, "label": ann.nodes[i].label, "path": "".join("LR"[s] for s in path)}
        for i, path in enumerate(modified_preorder(ann))
    ]
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
    else:
        _emit("\n".join(f"{r['index']}: label {r['label']} at {r['path'] or 'root'}" for r in rows), args.out)
    return 0


def cmd_conjecture(args: argparse.Namespace) -> int:
    targets = [parse_multiset(args.multiset)] if args.multiset else conjecture_families(args.max_nodes)
    slices = [
        (m, i, coeffs, "vacuous" if rep.vacuous else ("real-rooted" if rep.all_real else "NOT REAL-ROOTED"))
        for m in targets
        for i, coeffs, rep in scan_real_rootedness(m)
    ]
    failed = sum(1 for *_, status in slices if status == "NOT REAL-ROOTED")
    if args.format == "json":
        rows = [
            {"multiset": list(m.multiplicities), "i": i, "coefficients": coeffs, "status": status}
            for m, i, coeffs, status in slices
        ]
        _emit(json.dumps({"slices": rows, "failed": failed}, indent=2), args.out)
    else:
        lines = [f"{m} slice {i}: {coeffs} -> {status}" for m, i, coeffs, status in slices]
        lines.append(f"{'FAIL' if failed else 'PASS'}: {failed} non-real-rooted slices")
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--max-size", type=int, default=10, help="size bound override (default 10)")
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
    p.add_argument("--max-size", type=int, default=10)
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
    p.add_argument("--stats", metavar="i,j,k,l", help="count by (oe, ee, oo, eo)")
    p.add_argument("--zero-odd", metavar="i,j", help="trees with no odd-degree node")
    p.add_argument("--zero-ee", metavar="i,j", help="trees with no even-degree node on even levels")
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
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
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
