import ast
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import witrees
import witrees.cli
from witrees.cli import main
from witrees.enumeration import iter_multisets, iter_trees
from witrees.errors import InternalError
from witrees.gamma import schett_of
from witrees.multiset import parse_multiset
from witrees.trees import StatVector, format_tree, parse_tree, stats

RUN = [sys.executable, "-m", "witrees.cli"]
# the subprocesses import the same witrees as this process
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(witrees.__file__)), os.environ.get("PYTHONPATH")]))}


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TREES = [
    "0[1[2[3[4[5[6[_|_]|_]|_]|_]|_]|_]|_]",
    "0[1[2[3[4[_|5[_|_]]|5[_|_]]|_]|_]|_]",
    "0[1[1[1[1[_|1[_|_]]|1[_|_]]|_]|_]|_]",
]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=ENV)


def test_enumerate_line_count():
    res = run_cli("enumerate", "--multiset", "1:2,2:2")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 18
    assert lines == sorted(lines)


def test_enumerate_json_stats():
    res = run_cli("enumerate", "--uniform", "2", "--format", "json", "--stats")
    payload = json.loads(res.stdout)
    assert payload["count"] == 2
    assert {t["tree"] for t in payload["trees"]} == {"0(1(1))", "0(1,1)"}
    assert all("leaf" in t and "deg" in t for t in payload["trees"])


def test_enumerate_binary():
    res = run_cli("enumerate", "--set", "2", "--binary")
    assert res.stdout.split() == ["0[1[2[_|_]|_]|_]", "0[1[_|2[_|_]]|_]"]


def test_schett_display():
    res = run_cli("schett", "--n", "4")
    assert res.stdout.strip() == "xy^4+14xy^2z^2+xz^4+4x^3y^2+4x^3z^2"


def test_transform_single_and_batch():
    res = run_cli("transform", "--map", "tilde", "--tree", "0(1(2))")
    assert res.stdout.strip() == "0(1,2)"
    batch = subprocess.run(
        RUN + ["transform", "--map", "hat", "--batch"],
        input="0(1)\n0(1,2)\n",
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert batch.stdout.strip().splitlines() == ["0(1)", "0(1(2))"]


def test_transform_rho_round_trip():
    res = run_cli("transform", "--map", "rho", "--tree", "0(1,2)")
    assert res.stdout.strip() == "0[1[_|2[_|_]]|_]"
    back = run_cli("transform", "--map", "rho-inv", "--tree", "0[1[_|2[_|_]]|_]")
    assert back.stdout.strip() == "0(1,2)"


def test_gamma_json():
    res = run_cli("gamma", "--multiset", "1:2,2:2", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["count"] == 18
    assert payload["gamma"] == [
        {"i": 0, "j": 0, "value": 1},
        {"i": 0, "j": 1, "value": 8},
        {"i": 1, "j": 0, "value": 3},
    ]


def test_size_bound(capsys):
    """enumerate and gamma refuse p > 10 unless --max-size raises the bound."""
    assert main(["enumerate", "--uniform", "11"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: multiset size 11 exceeds bound 10; ")
    assert main(["gamma", "--uniform", "11", "--max-size", "11", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 58786


def test_verify_suite_exit_code():
    res = run_cli("verify", "--suite", "counting", "--max-size", "4")
    assert res.returncode == 0
    assert "PASS" in res.stdout and "1/1 checks passed" in res.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "counting", "--max-size", "-1"],
        ["verify", "--suite", "conjecture", "--max-nodes", "-3"],
        ["conjecture", "--max-nodes", "-1"],
        ["verify", "--suite", "counting", "--max-size", "٣"],  # a decimal digit, not an ASCII one
        ["gamma", "--set", "3", "--max-size", "٣"],
        ["enumerate", "--uniform", "0", "--max-size", "-1"],
    ],
    ids=["verify-max-size", "verify-max-nodes", "conjecture-max-nodes", "verify-max-size-arabic-digit",
         "gamma-max-size-arabic-digit", "enumerate-max-size"],
)
def test_negative_bound_is_a_usage_error(argv):
    """A negative bound would cover nothing and pass vacuously."""
    res = run_cli(*argv)
    assert res.returncode == 2
    assert "must be an integer >= 0" in res.stderr and "PASS" not in res.stdout


def test_series_check_and_display():
    res = run_cli("series", "--order", "3")
    assert res.stdout.strip() == "y+wxt+(wyz+x^2y)t^2+(w^2xz+wx^3+wxy^2+2xy^2z)t^3"
    chk = run_cli("series", "--order", "5", "--check", "alg")
    assert chk.returncode == 0
    assert json.loads(chk.stdout)["ok"] is True


def test_closed_form():
    res = run_cli("closed-form", "--stats", "1,0,0,1", "--format", "json")
    assert json.loads(res.stdout)["count"] == 1
    bad = run_cli("closed-form")
    _assert_usage_error(bad)
    assert bad.stderr == "error: nothing to compute: pass --stats, --zero-odd, --zero-ee or --ternary\n"
    negative = run_cli("closed-form", "--zero-ee=-1,2")
    assert (negative.returncode, negative.stdout) == (0, "zero-ee count(-1,2) = 0\n")


@pytest.mark.parametrize("option, value, count", [("--stats", "1,2", 4), ("--stats", "a,b,c,d", 4),
                                                  ("--zero-odd", "1,2,3", 2), ("--zero-ee", "1", 2)])
def test_closed_form_malformed_list_is_a_usage_error(option, value, count):
    res = run_cli("closed-form", option, value)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.endswith(f"error: argument {option}: expected {count} comma-separated integers, got {value!r}\n")


@pytest.mark.parametrize("argv", [["--ternary", "0"], ["--ternary", "0", "--stats", "1,1,1,1"]])
def test_closed_form_ternary_zero_is_a_usage_error(argv):
    """n = 0 reaches the identity, which is stated for n >= 1, instead of
    being dropped as if --ternary were absent."""
    res = run_cli("closed-form", *argv)
    _assert_usage_error(res)
    assert "the identity is stated for n >= 1" in res.stderr
    assert res.stdout == ""


def test_jacobi_json():
    res = run_cli("jacobi", "--order", "5", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["sn"]["5"] == [1, 14, 1]


def test_orbit_and_preorder():
    res = run_cli("orbit", "--tree", "0[1[_|2[_|_]]|_]")
    assert res.stdout.startswith("orbit size 2")
    pre = run_cli("preorder", "--tree", "0[1[_|2[_|_]]|_]")
    assert pre.stdout.splitlines() == [
        "0: label 0 at root",
        "1: label 1 at L",
        "2: label 2 at LR",
    ]


def test_conjecture_exit_zero():
    res = run_cli("conjecture", "--max-nodes", "5")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("PASS: 0 non-real-rooted slices")


def test_determinism():
    a = run_cli("enumerate", "--multiset", "1:3", "--stats")
    b = run_cli("enumerate", "--multiset", "1:3", "--stats")
    assert a.stdout == b.stdout


# one small passing invocation of each subcommand
OUT_CASES = {
    "enumerate": ["enumerate", "--set", "3", "--stats"],
    "transform": ["transform", "--map", "psi", "--tree", "0(1(2),1)"],
    "schett": ["schett", "--n", "2"],
    "gamma": ["gamma", "--multiset", "1:2,2:2"],
    "verify": ["verify", "--suite", "counting", "--max-size", "3"],
    "series": ["series", "--order", "3"],
    "series-check-alg": ["series", "--check", "alg", "--order", "4"],
    "closed-form": ["closed-form", "--stats", "1,2,1,0", "--zero-odd", "1,1", "--zero-ee", "1,2", "--ternary", "5"],
    "jacobi": ["jacobi", "--order", "5"],
    "orbit": ["orbit", "--tree", GOLDEN_TREES[1]],
    "preorder": ["preorder", "--tree", GOLDEN_TREES[1]],
    "conjecture": ["conjecture", "--max-nodes", "5"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", sorted(OUT_CASES))
def test_out_flag(tmp_path, capsys, command, fmt):
    """Every subcommand prints JSON under --format json, and --out FILE
    receives exactly the bytes it would print."""
    argv = OUT_CASES[command] + ["--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    if fmt == "json" or command == "series-check-alg":
        json.loads(printed)
    target = tmp_path / "out.txt"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


def test_usage_error_exit_code():
    res = run_cli("enumerate")
    assert res.returncode == 2
    bad = run_cli("transform", "--map", "tilde", "--tree", "0(2,1)")
    assert bad.returncode == 2
    assert "error" in bad.stderr
    digit = run_cli("transform", "--map", "hat", "--tree", "0(²)")
    assert (digit.returncode, digit.stderr) == (2, "error: expected a label (at position 2)\n")
    long_label = "1" * 5000  # past int()'s digit limit
    for argv in (["transform", "--map", "hat", "--tree", f"0({long_label})"],
                 ["orbit", "--tree", f"0[{long_label}[_|_]|_]"]):
        res = run_cli(*argv)
        assert (res.returncode, res.stderr) == (2, "error: label of 5000 digits is too long (at position 2)\n")


def test_verify_json():
    res = run_cli("verify", "--suite", "counting", "--suite", "euler", "--max-size", "3", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["passed"] == payload["total"] == 2
    text = run_cli("verify", "--suite", "counting", "--suite", "euler", "--max-size", "3")
    lines = text.stdout.splitlines()
    assert [f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}" for c in payload["checks"]] == lines[:-1]
    assert lines[-1] == "2/2 checks passed"


def test_conjecture_json():
    res = run_cli("conjecture", "--max-nodes", "5", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["failed"] == 0
    text = run_cli("conjecture", "--max-nodes", "5").stdout.splitlines()
    assert len(payload["slices"]) == len(text) - 1
    first = payload["slices"][0]
    assert set(first) == {"multiset", "i", "coefficients", "status"}
    assert text[0].endswith(f"{first['coefficients']} -> {first['status']}")


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(reduced, p):
        raise InternalError("injected residual")

    monkeypatch.setattr(witrees.cli, "gamma_expand", broken)
    assert main(["gamma", "--multiset", "1:2,2:2"]) == 3
    assert "internal error: injected residual" in capsys.readouterr().err


def _assert_usage_error(res):
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_unreadable_batch_file_is_a_usage_error(tmp_path):
    _assert_usage_error(run_cli("transform", "--map", "hat", "--batch", str(tmp_path / "missing.txt")))


def test_undecodable_batch_file_is_closed(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"0(1)\n\xff\xfe\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["transform", "--map", "hat", "--batch", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_unwritable_out_path_is_a_usage_error(tmp_path):
    _assert_usage_error(run_cli("schett", "--n", "2", "--out", str(tmp_path / "no-such-dir" / "out.txt")))


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--map", "hat", "--tree", "0" + "(1" * 1500 + ")" * 1500],
        ["preorder", "--tree", "0[" + "1[" * 1500 + "_|_]" * 1500 + "|_]"],
    ],
    ids=["transform", "preorder"],
)
def test_too_deep_tree_is_a_usage_error(argv):
    _assert_usage_error(run_cli(*argv))


def test_orbit_annotates_each_member_once(monkeypatch, capsys):
    import witrees.binary

    real = witrees.binary.annotate
    calls = []

    def counted(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(witrees.binary, "annotate", counted)
    assert main(["orbit", "--tree", GOLDEN_TREES[0]]) == 0
    assert capsys.readouterr().out.startswith("orbit size 8\n")
    assert len(calls) == 8


def test_closed_stdout_exits_quietly():
    # 40,320 lines: far more than a pipe buffer holds, so the writer is
    # still writing when the reader closes its end
    with subprocess.Popen(RUN + ["enumerate", "--set", "8"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=ENV) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 141
    assert "Traceback" not in err


def _in_process(capsys, argv):
    """Exit code, stdout and stderr of one `main` call in this process."""
    code = main(argv)
    return (code, *capsys.readouterr())


def test_same_call_twice_prints_the_same_bytes(capsys):
    argv = ["enumerate", "--multiset", "1:2,2:2", "--stats", "--format", "json"]
    first = _in_process(capsys, argv)
    assert first[0] == 0 and first == _in_process(capsys, argv)


def test_repeated_verify_calls_do_not_accumulate_suites(capsys):
    """--suite appends to a list, which must start empty on every call of
    the shared parser."""
    for _ in range(2):
        code, out, err = _in_process(capsys, ["verify", "--suite", "counting", "--max-size", "3"])
        assert (code, err) == (0, "")
        assert out == ("PASS  counting: product formula vs enumeration: all M with p <= 3 agree (28 trees)\n"
                       "1/1 checks passed\n")


def test_usage_error_between_calls_changes_nothing(capsys):
    """A call that argparse refuses after it has appended a suite leaves
    nothing behind for the next call."""
    argv = ["verify", "--suite", "counting", "--max-size", "3"]
    before = _in_process(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "counting", "--suite", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert _in_process(capsys, argv) == before


def _stats_lines_match(out, stats_of):
    """Every `enumerate --stats` text line is its tree's text, a tab and
    the sorted-key JSON of `stats_of` its tree."""
    for line in out.splitlines():
        text, row = line.split("\t")
        assert row == json.dumps(stats_of(parse_tree(text)).as_dict(), sort_keys=True), text


@pytest.mark.parametrize(
    "argvs",
    [[["--multiset", ",".join(f"{i}:{c}" for i, c in enumerate(m.multiplicities, 1))] if m.size
      else ["--uniform", "0"] for m in iter_multisets(5)], [["--set", "7"]], [["--uniform", "10"]]],
    ids=["p<=5", "set-7", "uniform-10"],
)
def test_enumerate_stats_rows_are_each_trees_own(capsys, argvs):
    """`enumerate --stats` renders each distinct statistics vector once; every
    line still carries its own tree's row ({1^10} has the root of degree 10,
    whose `deg` key "10" sorts before "2")."""
    for argv in argvs:
        code, out, err = _in_process(capsys, ["enumerate", *argv, "--stats"])
        assert (code, err) == (0, "")
        _stats_lines_match(out, stats)


@pytest.mark.parametrize("name", [f.name for f in fields(StatVector)])
def test_enumerate_stats_rows_are_keyed_on_every_field(monkeypatch, capsys, name):
    """Shift one field of each vector by a bit of the tree that no statistic
    holds (the parity of the root's last child's label): a row memo whose key
    left that field out would give trees of equal true vectors one row."""

    def shifted(t):
        sv = stats(t)
        bit = t.children[-1].label & 1
        value = getattr(sv, name)
        setattr(sv, name, {**value, 99: bit} if isinstance(value, dict) else value + bit)
        return sv

    monkeypatch.setattr(witrees.cli, "stats", shifted)
    code, out, _ = _in_process(capsys, ["enumerate", "--set", "6", "--stats"])
    assert code == 0
    _stats_lines_match(out, shifted)


def test_enumerate_stats_json_is_json_dumps_of_rows_built_per_tree(capsys):
    """The shared row dicts and the block-wise writer give the bytes of one
    `json.dumps(indent=2)` of rows built tree by tree."""
    m = parse_multiset("1:2,2:2,3:2")
    rows = [{"tree": format_tree(t), **stats(t).as_dict()} for t in sorted(iter_trees(m), key=format_tree)]
    expected = json.dumps({"multiset": [2, 2, 2], "count": len(rows), "trees": rows}, indent=2) + "\n"
    assert _in_process(capsys, ["enumerate", "--multiset", "1:2,2:2,3:2", "--stats", "--format", "json"]) \
        == (0, expected, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_that_fails_to_encode_writes_nothing(monkeypatch, capsys, tmp_path, fmt):
    """An int past the str-conversion limit fails the command with exit 2
    before any byte of its output is written, to stdout or to --out."""
    monkeypatch.setattr(witrees.cli, "ternary_identity", lambda n: (10**5000, 10**5000))
    argv = ["closed-form", "--stats", "1,2,1,0", "--ternary", "5", "--format", fmt]
    code, out, err = _in_process(capsys, argv)
    assert (code, out) == (2, "") and "integer string conversion" in err
    target = tmp_path / "out.txt"
    assert main(argv + ["--out", str(target)]) == 2
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--set", "4", "--stats"],
        ["enumerate", "--multiset", "1:2,2:2", "--binary", "--format", "json"],
        ["gamma", "--set", "6"],
        ["gamma", "--multiset", "1:2,2:2", "--format", "json"],
        ["schett", "--n", "5", "--format", "json"],
    ],
    ids=["enumerate", "enumerate-binary-json", "gamma-set", "gamma-multiset-json", "schett-json"],
)
def test_in_process_output_matches_a_fresh_process(capsys, argv):
    res = run_cli(*argv)
    assert _in_process(capsys, argv) == (res.returncode, res.stdout, res.stderr)


def test_parser_is_built_on_the_first_call_only():
    """Importing the CLI builds no parser (the benchmark imports it during
    set-up); the first `main` call builds the top parser and its eleven
    subparsers, and later calls reuse them."""
    code = (
        "import argparse, os\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import witrees.cli\n"
        "print(len(built))\n"
        "for _ in range(2):\n"
        "    witrees.cli.main(['schett', '--n', '1', '--out', os.devnull])\n"
        "    print(len(built))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert (res.returncode, res.stdout, res.stderr) == (0, "0\n12\n12\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gamma_of_a_set_prints_what_enumeration_gives(monkeypatch, capsys, fmt):
    """`gamma --set n` takes S_n from the grammar; its output is the one the
    enumeration route prints, byte for byte."""
    argvs = [["gamma", "--set", str(n), "--format", fmt] for n in range(8)]
    grammar = [_in_process(capsys, argv) for argv in argvs]
    monkeypatch.setattr(witrees.cli, "multiset_schett", lambda m: schett_of(iter_trees(m)))
    assert [_in_process(capsys, argv) for argv in argvs] == grammar


def test_optimized_interpreter_same_verify_output():
    plain = run_cli("verify", "--max-size", "4")
    optimized = subprocess.run([sys.executable, "-O", "-m", "witrees.cli", "verify", "--max-size", "4"],
                               capture_output=True, text=True, env=ENV)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


@pytest.mark.parametrize("command", ["orbit", "preorder"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k", range(1, len(GOLDEN_TREES) + 1))
def test_binary_commands_golden_output(command, fmt, k):
    res = run_cli(command, "--tree", GOLDEN_TREES[k - 1], "--format", fmt)
    assert res.returncode == 0
    suffix = "json" if fmt == "json" else "txt"
    assert res.stdout == (GOLDEN / f"{command}_{k}.{suffix}").read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_conjecture_golden_output(fmt):
    res = run_cli("conjecture", "--max-nodes", "10", "--format", fmt)
    assert res.returncode == 0
    suffix = "json" if fmt == "json" else "txt"
    assert res.stdout == (GOLDEN / f"conjecture_10.{suffix}").read_text()


@pytest.mark.parametrize("argv", [["series", "--order", "-1"], ["series", "--check", "alg", "--order", "-1"]],
                         ids=["display", "check-alg"])
def test_negative_series_order_is_a_usage_error(argv):
    _assert_usage_error(run_cli(*argv))


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["series", "--order", "12"], "series_12.txt"),
        (["series", "--order", "12", "--format", "json"], "series_12.json"),
        (["series", "--check", "alg", "--order", "14"], "series_alg_14.json"),
    ],
    ids=["text", "json", "check-alg"],
)
def test_series_golden_output(argv, golden):
    res = run_cli(*argv)
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / golden).read_text()


def _workload_constants(*names):
    """Literal module constants of the benchmark's workload definitions."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "workloads.py").read_text())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
    }
    return [values[n] for n in names]


@pytest.mark.parametrize("sweep, suites_name", [("sweep-plane", "PLANE_SUITES"), ("sweep-action", "ACTION_SUITES")],
                         ids=["plane", "action"])
def test_benchmark_sweep_output(sweep, suites_name):
    """The benchmark's sweep passes print exactly its recorded lines."""
    max_size, suites = _workload_constants("MAX_SIZE", suites_name)
    argv = ["verify", "--max-size", str(max_size)]
    for suite in suites:
        argv += ["--suite", suite]
    res = run_cli(*argv)
    assert res.returncode == 0
    assert res.stdout == (Path(__file__).parent.parent / "perfbench" / "expected" / f"{sweep}.txt").read_text()
