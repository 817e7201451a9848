"""Shows that the correctness oracle accepts real outputs and rejects
corrupted ones.

    python3 perfbench/selftest.py

Each case produces a genuine output with the program, checks that the
oracle accepts it, then corrupts it in one place and checks that the
oracle rejects it.  Exits 1 if any case is not rejected.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from witrees.cli import main as cli  # noqa: E402
from witrees.multiset import set_multiset  # noqa: E402
from witrees.series import plane_gf  # noqa: E402
from witrees.verify import scan_real_rootedness  # noqa: E402


def run(tmp: str, argv: list[str]) -> str:
    path = os.path.join(tmp, "out.txt")
    if cli(argv + ["--out", path]) != 0:
        raise SystemExit(f"witrees {' '.join(argv)} failed")
    with open(path) as fh:
        return fh.read()


def replace_once(text: str, old: str, new: str) -> str:
    if old not in text:
        raise SystemExit(f"corruption target {old!r} not found")
    return text.replace(old, new, 1)


def cases(tmp: str):
    """(name, check, genuine output, corrupted output)."""
    rng = random.Random(7)
    batch = [oracle.fmt_plane(oracle.random_tree(rng, oracle.random_composition(rng, 10))) for _ in range(20)]
    batch_path = os.path.join(tmp, "batch.txt")
    with open(batch_path, "w") as fh:
        fh.write("\n".join(batch) + "\n")

    expected = (HERE / "expected" / "sweep-plane.txt").read_text()
    sweep = lambda out: oracle.check_sweep(out, expected, workloads.MAX_SIZE) or None
    yield "sweep verdict", sweep, expected, replace_once(expected, "PASS  hat", "FAIL  hat")
    yield "sweep tree count", sweep, expected, replace_once(expected, "(13748 trees)", "(13749 trees)")

    m = (2, 1, 2)
    out = run(tmp, ["enumerate", "--multiset", "1:2,2:1,3:2"])
    check = lambda o: oracle.check_enumerate(m, False, False, o, random.Random(1))
    yield "enumerate count", check, out, "\n".join(out.splitlines()[1:])
    first, second = out.splitlines()[:2]
    yield "enumerate duplicate", check, out, out.replace(second, first, 1)
    out = run(tmp, ["enumerate", "--multiset", "1:2,2:1,3:2", "--stats", "--format", "json"])
    payload = json.loads(out)
    for row in payload["trees"]:
        row["leaf"] += 1
    check = lambda o: oracle.check_enumerate(m, True, True, o, random.Random(1))
    yield "enumerate stats", check, out, json.dumps(payload)

    out = run(tmp, ["gamma", "--multiset", "1:2,2:1,3:2"])
    last = out.splitlines()[-1]
    value = int(last.split(" = ")[1])
    yield "gamma table", lambda o: oracle.check_gamma(m, False, o), out, out.replace(last, last.replace(f"= {value}", f"= {value + 1}"))

    out = run(tmp, ["transform", "--map", "hat", "--batch", batch_path])
    yield "hat transport", lambda o: oracle.check_hat(batch, o), out, "\n".join(batch)

    once = run(tmp, ["transform", "--map", "tilde", "--batch", batch_path])
    with open(batch_path + ".t", "w") as fh:
        fh.write(once)
    twice = run(tmp, ["transform", "--map", "tilde", "--batch", batch_path + ".t"])
    yield "tilde twice", lambda o: oracle.check_tilde_twice(batch, once, o), twice, twice.replace(batch[0], once.splitlines()[0], 1)

    binary = run(tmp, ["transform", "--map", "rho", "--batch", batch_path])
    with open(batch_path + ".b", "w") as fh:
        fh.write(binary)
    back = run(tmp, ["transform", "--map", "rho-inv", "--batch", batch_path + ".b"])
    yield "rho then rho-inv", lambda o: oracle.check_rho_pair(batch, binary, o), back, "\n".join(reversed(back.splitlines()))

    tree = "0[1[1[_|_]|1[2[_|_]|2[_|_]]]|_]"
    out = run(tmp, ["orbit", "--tree", tree])
    yield "orbit size", lambda o: oracle.check_orbit(tree, False, o), out, "\n".join(out.splitlines()[:-1])
    out = run(tmp, ["preorder", "--tree", tree, "--format", "json"])
    rows = json.loads(out)
    rows[2]["label"] += 1
    yield "preorder labels", lambda o: oracle.check_preorder(tree, True, o), out, json.dumps(rows)

    out = run(tmp, ["schett", "--n", "6"])
    yield "schett n!", lambda o: oracle.check_schett(6, False, o), out, replace_once(out, "+", "+2")
    out = run(tmp, ["series", "--order", "5", "--format", "json"])
    payload = json.loads(out)
    key = next(iter(payload["coefficients"]["4"]))
    payload["coefficients"]["4"][key] += 1
    yield "series Catalan", lambda o: oracle.check_series(5, o), out, json.dumps(payload)
    out = run(tmp, ["series", "--check", "alg", "--order", "4"])
    yield "series residuals", oracle.check_series_alg, out, replace_once(out, '"w_eq_z_residual_zero": true', '"w_eq_z_residual_zero": false')

    scans = [list(scan_real_rootedness(set_multiset(n))) for n in range(1, 8)]
    i, coeffs, report = scans[-1][0]
    bad_scans = scans[:-1] + [[(i, coeffs[:-1] + [coeffs[-1] + 1], report)] + scans[-1][1:]]
    yield "sturm slice sum", workloads._sturm_check, scans, bad_scans
    gf = plane_gf(6)
    bad = plane_gf(6)
    bad.coeffs[3] = bad.coeffs[3] + bad.coeffs[3]
    yield "plane_gf Catalan", workloads._catalan_at_ones(6), gf, bad


def main() -> int:
    bad = 0
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, check, genuine, corrupted in cases(tmp):
            accepted = check(genuine)
            rejected = check(corrupted)
            ok = accepted is None and rejected is not None
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine -> {accepted or 'accepted'}; corrupted -> {rejected or 'ACCEPTED'}")
    print(f"{'all' if not bad else bad} corruption case(s) {'rejected' if not bad else 'NOT rejected'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
