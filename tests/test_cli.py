import json
import subprocess
import sys
from pathlib import Path

import pytest

import witrees.cli
from witrees.cli import main
from witrees.gamma import GammaResidualError

RUN = [sys.executable, "-m", "witrees.cli"]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TREES = [
    "0[1[2[3[4[5[6[_|_]|_]|_]|_]|_]|_]|_]",
    "0[1[2[3[4[_|5[_|_]]|5[_|_]]|_]|_]|_]",
    "0[1[1[1[1[_|1[_|_]]|1[_|_]]|_]|_]|_]",
]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


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
    ],
    ids=["verify-max-size", "verify-max-nodes", "conjecture-max-nodes"],
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
    assert bad.returncode == 2


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


def test_out_flag(tmp_path):
    target = tmp_path / "out.txt"
    assert main(["schett", "--n", "2", "--out", str(target)]) == 0
    assert target.read_text().strip() == "xy^2+xz^2"


def test_usage_error_exit_code():
    res = run_cli("enumerate")
    assert res.returncode == 2
    bad = run_cli("transform", "--map", "tilde", "--tree", "0(2,1)")
    assert bad.returncode == 2
    assert "error" in bad.stderr


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
        raise GammaResidualError("injected residual")

    monkeypatch.setattr(witrees.cli, "gamma_expand_poly", broken)
    assert main(["gamma", "--multiset", "1:2,2:2"]) == 3
    assert "internal error: injected residual" in capsys.readouterr().err


def _assert_usage_error(res):
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_unreadable_batch_file_is_a_usage_error(tmp_path):
    _assert_usage_error(run_cli("transform", "--map", "hat", "--batch", str(tmp_path / "missing.txt")))


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
    proc = subprocess.Popen(RUN + ["enumerate", "--set", "8"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err


def test_optimized_interpreter_same_verify_output():
    plain = run_cli("verify", "--max-size", "4")
    optimized = subprocess.run([sys.executable, "-O", "-m", "witrees.cli", "verify", "--max-size", "4"],
                               capture_output=True, text=True)
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
