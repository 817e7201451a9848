"""Mutation scan of the check bodies in `witrees.verify`.

    python tools/mutants.py

Each mutant changes one site of one check body (a function decorated with
`sized_check`, a `check_*` function, or a helper in HELPERS):

- a `range` stop, plus one and minus one;
- a floor division by 2, made one by 3;
- one operator of a comparison, negated, and an order comparison also
  moved across its boundary (`<` and `<=`, `>` and `>=`); a chained
  comparison gives mutants for each of its operators.

The scan never edits the tree it is run from: it copies the repository to
a new temporary directory, writes each mutant's `verify.py` there, and
removes the copy at the end.

Stage 1 runs `run_suites(None, max_size=5, max_nodes=8)` in one process
(one shard).  A mutant is killed when a line does not PASS, the run raises,
or it takes longer than STAGE1_TIMEOUT.  Stage 2 runs STAGE2_TESTS with
`pytest -x` on each survivor of stage 1; a failing test kills it.

Every survivor is then one of:

- `stronger`: a range stop plus one, which reads one more index and finds
  the law holding there too, or a mutant listed so in LEDGER;
- `equivalent`: listed so in LEDGER, with the reason it cannot change a
  verdict;
- `open`: anything else, a check that a fault could slip past.

The scan prints one line per survivor and a score, and exits 1 when a
survivor is open.  The whole scan takes tens of minutes, so it is not part
of the test suite.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TARGET = Path("src/witrees/verify.py")
HELPERS = ("_first_wrong", "_dynamic_bookkeeping_ok", "_dynamic_transport_ok")

STAGE1 = (
    "import os, sys\n"
    "os.sched_getaffinity = lambda pid: {0}\n"
    "from witrees.verify import run_suites\n"
    "bad = [r.line() for r in run_suites(None, max_size=5, max_nodes=8) if not r.passed]\n"
    "print(*bad, sep='\\n')\n"
    "sys.exit(1 if bad else 0)\n"
)
STAGE1_TIMEOUT = 120  # seconds; the unmutated stage takes about one
STAGE2_TESTS = ["tests/test_verify.py", "tests/test_kill_matrix.py", "tests/test_jacobi.py",
                "tests/test_counts.py", "tests/test_series.py", "tests/test_cli.py"]
STAGE2_TIMEOUT = 900

_OPERATOR = re.compile(rb"==|!=|<=|>=|<|>|\bnot\s+in\b|\bis\s+not\b|\bin\b|\bis\b")
FLIPS = {ast.Eq: ["!="], ast.NotEq: ["=="], ast.Lt: [">=", "<="], ast.GtE: ["<", ">"], ast.Gt: ["<=", ">="],
         ast.LtE: [">", "<"], ast.In: ["not in"], ast.NotIn: ["in"], ast.Is: ["is not"], ast.IsNot: ["is"]}

_ROOT = "position 0 is the root and is never a child"
_LEAF = "the last preorder position is a leaf and is never active"
_GATE = "the grammar clauses then run on every set [n] but [0], and the pass always covers [1]..[7]"
# mutant key -> (verdict, the reason for it)
LEDGER = {
    "_dynamic_transport_ok: ix >= 0 -> ix > 0": ("equivalent", _ROOT),
    "_dynamic_transport_ok: iy >= 0 -> iy > 0": ("equivalent", _ROOT),
    "_dynamic_transport_ok: ix >= 0 -> ix > 0 [2]": ("equivalent", _ROOT),
    "_action: range(1, p + 1) -> range(1, p + 1 - 1)": ("equivalent", _LEAF),
    "_action: range(1, p + 1) -> range(1, p + 1 - 1) [2]": ("equivalent", _LEAF),
    "check_closed_forms: range(2 * j + 2) -> range(2 * j + 2 - 1)":
        ("equivalent", "ee = 0 forces a root of odd degree, so eo >= 1 and the class oo = 2j + 1 is empty"),
    "_schett: range(25) -> range(25 - 1)": ("equivalent", "a Leibniz sample size: 24 seeded pairs test the same rule"),
    "_schett: range(4) -> range(4 - 1)": ("equivalent", "a Leibniz sample size: 3 seeded terms per operand"),
    "_schett: f.m.size == 0 -> f.m.size != 0": ("equivalent", _GATE),
    "_st_relations: f.m.size == 0 -> f.m.size != 0": ("equivalent", _GATE),
    "_gamma: v < 0 -> v <= 0": ("stronger", "also refuses a zero coefficient, which the gamma peel never stores"),
    "check_closed_forms: 0 < i + j + k + l <= top -> 0 <= i + j + k + l <= top":
        ("stronger", "also reads the empty class (0, 0, 0, 0), where both closed forms give 0"),
}


@dataclass(frozen=True)
class Mutant:
    key: str  # "function: old -> new", with " [k]" for the k-th same edit in that function
    start: int  # byte span of the source that `text` replaces
    end: int
    text: bytes
    stronger: bool  # a range stop plus one


def _check_bodies(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and (
            node.decorator_list or node.name.startswith("check_") or node.name in HELPERS
        ):
            yield node


def _stop(call: ast.Call) -> ast.expr | None:
    """The stop argument of a `range` call."""
    if isinstance(call.func, ast.Name) and call.func.id == "range" and call.args:
        return call.args[0] if len(call.args) == 1 else call.args[1]
    return None


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of the check bodies of `source`, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node) -> tuple[int, int]:
        return starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset

    out = []
    for fn in _check_bodies(ast.parse(source)):
        seen: dict[str, int] = {}
        edits = []  # (node whose text the key shows, start, end, new text)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (stop := _stop(node)) is not None:
                a, b = span(stop)
                edits += [(node, a, b, source[a:b] + delta) for delta in (b" + 1", b" - 1")]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and (
                isinstance(node.right, ast.Constant) and node.right.value == 2
            ):
                a, b = span(node.right)
                edits.append((node, a, b, b"3"))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for k, op in enumerate(node.ops):  # the operator is the one token between its operands
                    gap = span(operands[k])[1]
                    token = _OPERATOR.search(source, gap, span(operands[k + 1])[0])
                    edits += [(node, token.start(), token.end(), new.encode()) for new in FLIPS[type(op)]]
        for node, a, b, new in sorted(edits, key=lambda e: (e[1], e[2], e[3])):
            n0, n1 = span(node)
            old, mutated = (" ".join(text.decode().split()) for text in (source[n0:n1],
                                                                          source[n0:a] + new + source[b:n1]))
            key = f"{fn.name}: {old} -> {mutated}"
            seen[key] = seen.get(key, 0) + 1
            out.append(Mutant(key + (f" [{seen[key]}]" if seen[key] > 1 else ""), a, b, new, new.endswith(b" + 1")))
    return out


def _copy(dest: Path) -> Path:
    shutil.copytree(REPO, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
    return dest


def _run(cmd: list[str], cwd: Path, timeout: int) -> tuple[bool, str]:
    """(passed, the first failed test or else the last line of output) of
    one command run in the copy."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout} s"
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    failed = [line for line in lines if line.startswith("FAILED ")]
    return proc.returncode == 0, (failed or lines or [""])[0 if failed else -1]


def _stage1(copy: Path) -> tuple[bool, str]:
    return _run([sys.executable, "-c", STAGE1], copy, STAGE1_TIMEOUT)


def _stage2(copy: Path) -> tuple[bool, str]:
    return _run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *STAGE2_TESTS],
                copy, STAGE2_TIMEOUT)


def verdict(m: Mutant) -> str:
    if m.stronger:
        return "stronger"
    return LEDGER[m.key][0] if m.key in LEDGER else "open"


def main() -> int:
    source = (REPO / TARGET).read_bytes()
    todo = mutants(source)
    scratch = Path(tempfile.mkdtemp(prefix="witrees-mutants-"))
    copy = _copy(scratch / "repo")
    target = copy / TARGET
    try:
        if not (_stage1(copy)[0] and _stage2(copy)[0]):
            print("the unmutated copy does not pass both stages", file=sys.stderr)
            return 2
        t0 = time.monotonic()
        survivors = []
        for stage, run in ((1, _stage1), (2, _stage2)):
            left = []
            for m in todo if stage == 1 else survivors:
                target.write_bytes(source[:m.start] + m.text + source[m.end:])
                passed, why = run(copy)
                print(f"stage {stage} {'survives' if passed else 'killed  '}  {m.key}"
                      + ("" if passed else f"  ({why})"), flush=True)
                if passed:
                    left.append(m)
            survivors = left
    finally:
        shutil.rmtree(scratch)
    print()
    for m in survivors:
        print(f"{verdict(m):10}  {m.key}" + (f"  ({LEDGER[m.key][1]})" if m.key in LEDGER else ""))
    is_open = [m for m in survivors if verdict(m) == "open"]
    print(f"\n{len(todo)} mutants, {len(todo) - len(survivors)} killed, {len(survivors)} survive "
          f"({len(is_open)} open), {time.monotonic() - t0:.0f} s")
    return 1 if is_open else 0


if __name__ == "__main__":
    sys.exit(main())
